//! The analytic Fowler–Nordheim tunneling law — eq. (1)/(4) of the paper.
//!
//! # Formula and conventions
//!
//! The WKB result for a triangular barrier (Lenzlinger–Snow 1969):
//!
//! ```text
//! J(E) = A·E²·exp(−B/E)
//! A = q³ m₀ / (8π h m_ox ΦB)       [A/V²]
//! B = 4 √(2 m_ox) ΦB^{3/2} / (3 ħ q)   [V/m]
//! ```
//!
//! The paper prints `A = q³/(16π²ħΦB)`, which equals `q³/(8πhΦB)` — the
//! same expression without the `m₀/m_ox` prefactor (a common
//! simplification), and `B = (4/3)(2m_ox)^{1/2}ΦB^{3/2}/(qh)` where the
//! `h` is a typo for `ħ`: with literal `h` the SiO₂ benchmark value
//! `B ≈ 2.5 × 10¹⁰ V/m` is missed by 2π. Both constructors are provided;
//! [`FnModel::from_interface`] uses the full Lenzlinger–Snow form,
//! [`FnModel::paper_form`] reproduces the paper's printed prefactor
//! (with ħ in `B`).

use gnr_materials::interface::TunnelInterface;
use gnr_units::constants::{BOLTZMANN, ELECTRON_MASS, ELEMENTARY_CHARGE, PLANCK, REDUCED_PLANCK};
use gnr_units::{CurrentDensity, ElectricField, Energy, Mass, Temperature};

use crate::models::TunnelingModel;

/// The `(A, B)` coefficient pair of `J = A E² exp(−B/E)`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct FnCoefficients {
    /// Pre-exponential coefficient `A` in A/V².
    pub a: f64,
    /// Exponential slope coefficient `B` in V/m.
    pub b: f64,
}

impl FnCoefficients {
    /// Computes the Lenzlinger–Snow coefficients (with mass correction in
    /// `A`) from a barrier height and effective oxide mass.
    ///
    /// # Panics
    ///
    /// Panics when the barrier or mass is non-positive.
    #[must_use]
    pub fn lenzlinger_snow(barrier: Energy, m_ox: Mass) -> Self {
        let phi = barrier.as_joules();
        let m = m_ox.as_kilograms();
        assert!(phi > 0.0, "barrier must be positive");
        assert!(m > 0.0, "effective mass must be positive");
        let q = ELEMENTARY_CHARGE;
        let a = q.powi(3) * ELECTRON_MASS / (8.0 * core::f64::consts::PI * PLANCK * m * phi);
        let b = 4.0 * (2.0 * m).sqrt() * phi.powf(1.5) / (3.0 * REDUCED_PLANCK * q);
        Self { a, b }
    }

    /// Computes the coefficients exactly as printed in the paper's eq. (4):
    /// `A = q³/(16π²ħΦB)` (no mass correction) and
    /// `B = (4/3)(2 m_ox)^{1/2} ΦB^{3/2}/(q ħ)`.
    ///
    /// # Panics
    ///
    /// Panics when the barrier or mass is non-positive.
    #[must_use]
    pub fn paper_form(barrier: Energy, m_ox: Mass) -> Self {
        let phi = barrier.as_joules();
        let m = m_ox.as_kilograms();
        assert!(phi > 0.0, "barrier must be positive");
        assert!(m > 0.0, "effective mass must be positive");
        let q = ELEMENTARY_CHARGE;
        let a = q.powi(3)
            / (16.0 * core::f64::consts::PI * core::f64::consts::PI * REDUCED_PLANCK * phi);
        let b = 4.0 / 3.0 * (2.0 * m).sqrt() * phi.powf(1.5) / (q * REDUCED_PLANCK);
        Self { a, b }
    }
}

/// The analytic Fowler–Nordheim tunneling model for one interface.
///
/// # Example
///
/// The SiO₂ benchmark: `B ≈ 2.4–2.6 × 10¹⁰ V/m` for the Si/SiO₂ barrier.
///
/// ```
/// use gnr_tunneling::fn_model::FnModel;
/// use gnr_units::{Energy, Mass};
///
/// let model = FnModel::new(Energy::from_ev(3.15), Mass::from_electron_masses(0.42));
/// let b = model.coefficients().b;
/// assert!(b > 2.3e10 && b < 2.7e10, "B = {b:e}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct FnModel {
    barrier: Energy,
    m_ox: Mass,
    coeffs: FnCoefficients,
}

impl FnModel {
    /// Creates the model from a barrier height and effective mass using
    /// the full Lenzlinger–Snow coefficients.
    ///
    /// # Panics
    ///
    /// Panics when the barrier or mass is non-positive.
    #[must_use]
    pub fn new(barrier: Energy, m_ox: Mass) -> Self {
        Self {
            barrier,
            m_ox,
            coeffs: FnCoefficients::lenzlinger_snow(barrier, m_ox),
        }
    }

    /// Creates the model from a material interface.
    #[must_use]
    pub fn from_interface(interface: &TunnelInterface) -> Self {
        Self::new(interface.barrier_height(), interface.effective_mass())
    }

    /// Creates the model with the paper's printed eq. (4) prefactor
    /// (no `m₀/m_ox` correction in `A`).
    ///
    /// # Panics
    ///
    /// Panics when the barrier or mass is non-positive.
    #[must_use]
    pub fn paper_form(barrier: Energy, m_ox: Mass) -> Self {
        Self {
            barrier,
            m_ox,
            coeffs: FnCoefficients::paper_form(barrier, m_ox),
        }
    }

    /// The barrier height `ΦB`.
    #[must_use]
    pub fn barrier(&self) -> Energy {
        self.barrier
    }

    /// The effective oxide mass `m_ox`.
    #[must_use]
    pub fn effective_mass(&self) -> Mass {
        self.m_ox
    }

    /// The `(A, B)` coefficients in use.
    #[must_use]
    pub fn coefficients(&self) -> FnCoefficients {
        self.coeffs
    }

    /// Signed current density at a signed field: electrons tunnel in the
    /// direction of the force, `J(−E) = −J(E)`; `J(0) = 0`.
    #[must_use]
    pub fn current_density(&self, field: ElectricField) -> CurrentDensity {
        let e = field.as_volts_per_meter();
        if e == 0.0 {
            return CurrentDensity::ZERO;
        }
        let mag = self.coeffs.a * e * e * (-self.coeffs.b / e.abs()).exp();
        CurrentDensity::from_amps_per_square_meter(e.signum() * mag)
    }

    /// Current density with the Lenzlinger–Snow finite-temperature
    /// correction factor `πckT / sin(πckT)`, where
    /// `c = 2·√(2·m_ox·ΦB) / (ħ·q·|E|)`.
    ///
    /// The factor is a few percent at room temperature and grows with
    /// `T/E`; it diverges as `πckT → π` (thermionic regime) — the factor
    /// is clamped at `πckT = 0.95π` and the model should not be trusted
    /// near that limit.
    #[must_use]
    pub fn current_density_at(
        &self,
        field: ElectricField,
        temperature: Temperature,
    ) -> CurrentDensity {
        let j0 = self.current_density(field);
        let e = field.as_volts_per_meter().abs();
        if e == 0.0 {
            return j0;
        }
        let c = 2.0 * (2.0 * self.m_ox.as_kilograms() * self.barrier.as_joules()).sqrt()
            / (REDUCED_PLANCK * ELEMENTARY_CHARGE * e)
            * ELEMENTARY_CHARGE; // per joule → per (J of kT): c·kT dimensionless
        let x = (core::f64::consts::PI * c * BOLTZMANN * temperature.as_kelvin()
            / ELEMENTARY_CHARGE)
            .min(0.95 * core::f64::consts::PI);
        let factor = if x == 0.0 { 1.0 } else { x / x.sin() };
        j0 * factor
    }

    /// The field at which `J` reaches the given magnitude (inverse of the
    /// J–E curve), found by bisection on the monotone branch.
    ///
    /// Returns `None` when the target is non-positive or unreachable below
    /// 100 GV/m.
    #[must_use]
    pub fn field_for_current_density(&self, target: CurrentDensity) -> Option<ElectricField> {
        let t = target.as_amps_per_square_meter();
        if t <= 0.0 {
            return None;
        }
        let f = |e: f64| self.coeffs.a * e * e * (-self.coeffs.b / e).exp() - t;
        let hi = 1.0e11;
        if f(hi) < 0.0 {
            return None;
        }
        let lo = 1.0e3;
        if f(lo) > 0.0 {
            return Some(ElectricField::from_volts_per_meter(lo));
        }
        gnr_numerics::roots::brent(f, lo, hi, 1e-3, 200)
            .ok()
            .map(ElectricField::from_volts_per_meter)
    }
}

impl TunnelingModel for FnModel {
    fn current_density(&self, field: ElectricField) -> CurrentDensity {
        FnModel::current_density(self, field)
    }

    fn name(&self) -> &'static str {
        "fowler-nordheim"
    }
}

/// The `(k₁, k₂)` constants of the paper's eq. (1),
/// `J = k₁·E²/ΦB · exp(−k₂·ΦB^{3/2}/E)`: `k₁ = q³/(8πh)` (A·J/V²) and
/// `k₂ = 4√(2m_ox)/(3ħq)` (V/m per J^{3/2}).
#[must_use]
pub fn paper_eq1_constants(m_ox: Mass) -> (f64, f64) {
    let q = ELEMENTARY_CHARGE;
    let k1 = q.powi(3) / (8.0 * core::f64::consts::PI * PLANCK);
    let k2 = 4.0 * (2.0 * m_ox.as_kilograms()).sqrt() / (3.0 * REDUCED_PLANCK * q);
    (k1, k2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn si_sio2() -> FnModel {
        FnModel::new(Energy::from_ev(3.15), Mass::from_electron_masses(0.42))
    }

    #[test]
    fn b_coefficient_matches_sio2_benchmark() {
        // Known: B ≈ 2.54e10 V/m at ΦB = 3.2 eV, m = 0.42 m0.
        let m = FnModel::new(Energy::from_ev(3.2), Mass::from_electron_masses(0.42));
        assert!((m.coefficients().b - 2.54e10).abs() / 2.54e10 < 0.02);
    }

    #[test]
    fn a_coefficient_matches_sio2_benchmark() {
        // Known: A = 1.54e-6 (m0/m_ox)/Φ_eV ≈ 1.15e-6 A/V² at 3.2 eV, 0.42 m0.
        let m = FnModel::new(Energy::from_ev(3.2), Mass::from_electron_masses(0.42));
        assert!((m.coefficients().a - 1.146e-6).abs() / 1.146e-6 < 0.02);
    }

    #[test]
    fn paper_form_omits_mass_correction() {
        let full =
            FnCoefficients::lenzlinger_snow(Energy::from_ev(3.2), Mass::from_electron_masses(0.42));
        let paper =
            FnCoefficients::paper_form(Energy::from_ev(3.2), Mass::from_electron_masses(0.42));
        // Same B, A differs by exactly m0/m_ox.
        assert!((full.b - paper.b).abs() / full.b < 1e-12);
        assert!((full.a / paper.a - 1.0 / 0.42).abs() < 1e-9);
    }

    #[test]
    fn current_at_10mv_per_cm_is_physical() {
        // FN current of Si/SiO2 at 10 MV/cm is ~1e-5..1e-3 A/cm² in the
        // literature; the analytic model should land in that window.
        let j = si_sio2().current_density(ElectricField::from_megavolts_per_centimeter(10.0));
        let j_acm2 = j.as_amps_per_square_centimeter();
        assert!(j_acm2 > 1e-6 && j_acm2 < 1e-2, "J = {j_acm2:e} A/cm²");
    }

    #[test]
    fn current_is_odd_in_field() {
        let m = si_sio2();
        let e = ElectricField::from_volts_per_meter(1.2e9);
        let fwd = m.current_density(e);
        let rev = m.current_density(-e);
        assert!(fwd.as_amps_per_square_meter() > 0.0);
        assert!((fwd.as_amps_per_square_meter() + rev.as_amps_per_square_meter()).abs() < 1e-20);
    }

    #[test]
    fn zero_field_zero_current() {
        assert_eq!(
            si_sio2()
                .current_density(ElectricField::ZERO)
                .as_amps_per_square_meter(),
            0.0
        );
    }

    #[test]
    fn current_monotone_in_field() {
        let m = si_sio2();
        let mut prev = 0.0;
        for i in 1..=40 {
            let e = ElectricField::from_volts_per_meter(2.0e8 + 5.0e7 * f64::from(i));
            let j = m.current_density(e).as_amps_per_square_meter();
            assert!(j > prev, "not monotone at step {i}");
            prev = j;
        }
    }

    #[test]
    fn higher_barrier_suppresses_current() {
        // §II: "higher ΦB leads to significantly lower JFN".
        let lo = FnModel::new(Energy::from_ev(3.0), Mass::from_electron_masses(0.42));
        let hi = FnModel::new(Energy::from_ev(3.6), Mass::from_electron_masses(0.42));
        let e = ElectricField::from_volts_per_meter(1.0e9);
        let ratio = lo.current_density(e) / hi.current_density(e);
        assert!(ratio > 100.0, "ratio = {ratio}");
    }

    #[test]
    fn temperature_correction_is_small_and_increasing() {
        let m = si_sio2();
        let e = ElectricField::from_volts_per_meter(1.0e9);
        let j0 = m.current_density(e).as_amps_per_square_meter();
        let j300 = m
            .current_density_at(e, Temperature::from_kelvin(300.0))
            .as_amps_per_square_meter();
        let j400 = m
            .current_density_at(e, Temperature::from_kelvin(400.0))
            .as_amps_per_square_meter();
        assert!(j300 > j0);
        assert!(j400 > j300);
        assert!(j300 / j0 < 1.3, "300K correction = {}", j300 / j0);
    }

    #[test]
    fn field_for_current_round_trips() {
        let m = si_sio2();
        let e = ElectricField::from_volts_per_meter(9.0e8);
        let j = m.current_density(e);
        let back = m.field_for_current_density(j).expect("reachable");
        assert!((back.as_volts_per_meter() - 9.0e8).abs() / 9.0e8 < 1e-6);
    }

    #[test]
    fn field_for_unreachable_current_is_none() {
        let m = si_sio2();
        assert!(m
            .field_for_current_density(CurrentDensity::from_amps_per_square_meter(-1.0))
            .is_none());
    }

    #[test]
    fn eq1_constants_reconstruct_eq4() {
        let m_ox = Mass::from_electron_masses(0.42);
        let phi = Energy::from_ev(3.2);
        let (k1, k2) = paper_eq1_constants(m_ox);
        let c = FnCoefficients::lenzlinger_snow(phi, m_ox);
        // A (without mass correction) = k1/Φ; B = k2 Φ^{3/2}.
        let a_paper = k1 / phi.as_joules();
        assert!((a_paper - FnCoefficients::paper_form(phi, m_ox).a).abs() / a_paper < 1e-12);
        assert!((k2 * phi.pow_three_halves() - c.b).abs() / c.b < 1e-12);
    }

    #[test]
    #[should_panic(expected = "barrier must be positive")]
    fn non_positive_barrier_panics() {
        let _ = FnModel::new(Energy::from_ev(0.0), Mass::from_electron_masses(0.42));
    }
}
