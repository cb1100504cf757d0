//! Image-force (Schottky) barrier lowering and the Nordheim correction to
//! the FN law.
//!
//! The triangular-barrier FN law ignores the image potential that rounds
//! the barrier top. The standard correction multiplies the exponent by the
//! Nordheim function `v(f)` and the prefactor by `1/t(f)²`, with
//! `f = (Δφ/ΦB)²` the scaled barrier lowering. This module implements the
//! Forbes (2006) "simple good approximations":
//!
//! ```text
//! v(f) ≈ 1 − f + (f/6)·ln f,     t(f)² ≈ (1 + f/9 − (f/18)·ln f)²
//! ```
//!
//! valid on `0 ≤ f ≤ 1`.

use gnr_materials::interface::TunnelInterface;
use gnr_units::constants::{ELEMENTARY_CHARGE, VACUUM_PERMITTIVITY};
use gnr_units::{CurrentDensity, ElectricField, Energy};

use crate::fn_model::FnModel;
use crate::models::TunnelingModel;

/// Schottky barrier lowering `Δφ = √(q·E / 4πε)` (in joules) at field
/// magnitude `E`, using the oxide's *optical* permittivity approximated by
/// its static ε_r (adequate at FN fields).
#[must_use]
pub fn schottky_lowering(field: ElectricField, relative_permittivity: f64) -> Energy {
    let e = field.as_volts_per_meter().abs();
    let eps = VACUUM_PERMITTIVITY * relative_permittivity;
    Energy::from_joules(
        ELEMENTARY_CHARGE * (ELEMENTARY_CHARGE * e / (4.0 * core::f64::consts::PI * eps)).sqrt(),
    )
}

/// Forbes approximation of the Nordheim function `v(f)`.
///
/// `v(0) = 1` (no correction), `v(1) = 0` (barrier fully pulled down).
/// Input is clamped to `[0, 1]`.
#[must_use]
pub fn nordheim_v(f: f64) -> f64 {
    let f = f.clamp(0.0, 1.0);
    if f == 0.0 {
        return 1.0;
    }
    1.0 - f + (f / 6.0) * f.ln()
}

/// Forbes approximation of the Nordheim function `t(f)`.
///
/// `t(0) = 1`; grows mildly with `f`. Input is clamped to `[0, 1]`.
#[must_use]
pub fn nordheim_t(f: f64) -> f64 {
    let f = f.clamp(0.0, 1.0);
    if f == 0.0 {
        return 1.0;
    }
    1.0 + f / 9.0 - (f / 18.0) * f.ln()
}

/// FN tunneling with the image-force (Nordheim/Forbes) correction.
///
/// Wraps an [`FnModel`] and applies `v(f)` to the exponent and `1/t(f)²`
/// to the prefactor. At FN fields in SiO₂ the correction *increases* the
/// current by one to three orders of magnitude; it never lowers it below
/// the uncorrected law.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ImageForceFnModel {
    base: FnModel,
    relative_permittivity: f64,
}

impl ImageForceFnModel {
    /// Creates the corrected model over a base FN model and the oxide
    /// permittivity used for the image potential.
    ///
    /// # Panics
    ///
    /// Panics when `relative_permittivity < 1`.
    #[must_use]
    pub fn new(base: FnModel, relative_permittivity: f64) -> Self {
        assert!(
            relative_permittivity >= 1.0,
            "relative permittivity must be at least 1"
        );
        Self {
            base,
            relative_permittivity,
        }
    }

    /// Creates the corrected model directly from an interface.
    #[must_use]
    pub fn from_interface(interface: &TunnelInterface) -> Self {
        Self::new(
            FnModel::from_interface(interface),
            interface.oxide().relative_permittivity(),
        )
    }

    /// The underlying uncorrected model.
    #[must_use]
    pub fn base(&self) -> &FnModel {
        &self.base
    }

    /// The Nordheim parameter `f = (Δφ/ΦB)²` at the given field.
    #[must_use]
    pub fn nordheim_parameter(&self, field: ElectricField) -> f64 {
        let lowering = schottky_lowering(field, self.relative_permittivity);
        let y = lowering.as_joules() / self.base.barrier().as_joules();
        (y * y).clamp(0.0, 1.0)
    }
}

impl TunnelingModel for ImageForceFnModel {
    fn current_density(&self, field: ElectricField) -> CurrentDensity {
        let e = field.as_volts_per_meter();
        if e == 0.0 {
            return CurrentDensity::ZERO;
        }
        let f = self.nordheim_parameter(field);
        let v = nordheim_v(f);
        let t = nordheim_t(f);
        let c = self.base.coefficients();
        let mag = (c.a / (t * t)) * e * e * (-c.b * v / e.abs()).exp();
        CurrentDensity::from_amps_per_square_meter(e.signum() * mag)
    }

    fn name(&self) -> &'static str {
        "fowler-nordheim+image-force"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnr_units::Mass;

    fn model() -> ImageForceFnModel {
        ImageForceFnModel::new(
            FnModel::new(Energy::from_ev(3.15), Mass::from_electron_masses(0.42)),
            3.9,
        )
    }

    #[test]
    fn nordheim_endpoints() {
        assert_eq!(nordheim_v(0.0), 1.0);
        assert!((nordheim_v(1.0) - 0.0).abs() < 1e-12);
        assert_eq!(nordheim_t(0.0), 1.0);
        assert!(nordheim_t(1.0) > 1.0);
    }

    #[test]
    fn nordheim_v_is_decreasing() {
        let mut prev = nordheim_v(0.0);
        for i in 1..=10 {
            let v = nordheim_v(f64::from(i) / 10.0);
            assert!(v < prev, "v not decreasing at f = {}", f64::from(i) / 10.0);
            prev = v;
        }
    }

    #[test]
    fn forbes_v_matches_tabulated_value() {
        // Tabulated exact v(f=0.25) ≈ 0.6920 (Forbes 2006 approx within 0.33%).
        let v = nordheim_v(0.25);
        assert!((v - 0.692).abs() < 0.01, "v(0.25) = {v}");
    }

    #[test]
    fn schottky_lowering_magnitude() {
        // SiO2 at 10 MV/cm: Δφ = 3.79e-4·sqrt(E[V/cm]/εr) ≈ 0.61 eV.
        let d = schottky_lowering(ElectricField::from_megavolts_per_centimeter(10.0), 3.9);
        assert!((d.as_ev() - 0.607).abs() < 0.01, "Δφ = {} eV", d.as_ev());
    }

    #[test]
    fn correction_increases_current() {
        let m = model();
        let e = ElectricField::from_volts_per_meter(1.0e9);
        let j_corr = m.current_density(e).as_amps_per_square_meter();
        let j_base = m.base().current_density(e).as_amps_per_square_meter();
        assert!(j_corr > j_base);
        // At 10 MV/cm: f ≈ 0.04, exp(B(1−v)/E) ≈ 4 — a few-fold boost,
        // growing toward an order of magnitude at higher fields.
        let ratio = j_corr / j_base;
        assert!(ratio > 2.0 && ratio < 1e3, "ratio = {ratio}");
    }

    #[test]
    fn corrected_model_is_odd_and_zero_at_zero() {
        let m = model();
        let e = ElectricField::from_volts_per_meter(8.0e8);
        let sum = m.current_density(e).as_amps_per_square_meter()
            + m.current_density(-e).as_amps_per_square_meter();
        assert!(sum.abs() < 1e-18);
        assert_eq!(
            m.current_density(ElectricField::ZERO)
                .as_amps_per_square_meter(),
            0.0
        );
    }

    #[test]
    fn parameter_grows_with_field() {
        let m = model();
        let f1 = m.nordheim_parameter(ElectricField::from_volts_per_meter(5.0e8));
        let f2 = m.nordheim_parameter(ElectricField::from_volts_per_meter(1.5e9));
        assert!(f2 > f1);
        assert!(f2 < 1.0);
    }
}
