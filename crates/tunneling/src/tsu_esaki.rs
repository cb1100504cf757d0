//! Tsu–Esaki supply-function tunneling current.
//!
//! The analytic FN law compresses the emitter statistics into the `A·E²`
//! prefactor. This module computes the current from first principles —
//! the WKB transmission of [`crate::wkb`] weighted by the thermal supply
//! function:
//!
//! ```text
//! J = (q·m_e·k_B·T)/(2π²·ħ³) · ∫ T(E_x)·ln(1 + exp(−(E_x)/k_B·T)) dE_x
//! ```
//!
//! (energies measured from the emitter Fermi level; the collector-side
//! term of the full Tsu–Esaki kernel vanishes at FN biases where the
//! collector states are far below). Used by the tests to bound the error
//! of the analytic law's prefactor.

use gnr_numerics::integrate::gauss_legendre_composite;
use gnr_units::constants::{BOLTZMANN, ELEMENTARY_CHARGE, REDUCED_PLANCK};
use gnr_units::{CurrentDensity, ElectricField, Energy, Length, Mass, Temperature};

use crate::wkb::BarrierProfile;

/// Tsu–Esaki current evaluator over a triangular/trapezoidal barrier.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TsuEsakiModel {
    barrier: Energy,
    thickness: Length,
    /// Effective mass inside the oxide (transmission).
    m_ox: Mass,
    /// Effective mass in the emitter (supply function).
    m_emitter: Mass,
    temperature: Temperature,
}

impl TsuEsakiModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics when the barrier, thickness, either mass or temperature is
    /// non-positive.
    #[must_use]
    pub fn new(
        barrier: Energy,
        thickness: Length,
        m_ox: Mass,
        m_emitter: Mass,
        temperature: Temperature,
    ) -> Self {
        assert!(barrier.as_joules() > 0.0, "barrier must be positive");
        assert!(thickness.as_meters() > 0.0, "thickness must be positive");
        assert!(m_ox.as_kilograms() > 0.0, "oxide mass must be positive");
        assert!(
            m_emitter.as_kilograms() > 0.0,
            "emitter mass must be positive"
        );
        assert!(
            temperature.as_kelvin() > 0.0,
            "temperature must be positive"
        );
        Self {
            barrier,
            thickness,
            m_ox,
            m_emitter,
            temperature,
        }
    }

    /// Free-electron emitter at room temperature — the standard
    /// validation configuration.
    #[must_use]
    pub fn free_emitter(barrier: Energy, thickness: Length, m_ox: Mass) -> Self {
        Self::new(
            barrier,
            thickness,
            m_ox,
            Mass::from_electron_masses(1.0),
            Temperature::room(),
        )
    }

    /// Current density magnitude at a field magnitude.
    ///
    /// Integrates the transmission × supply product from 1 eV below the
    /// Fermi level (the supply window) to just above the barrier top
    /// (where `T → 1` but supply is exponentially gone).
    #[must_use]
    pub fn current_density(&self, field: ElectricField) -> CurrentDensity {
        let e_mag = field.as_volts_per_meter().abs();
        if e_mag == 0.0 {
            return CurrentDensity::ZERO;
        }
        let profile = BarrierProfile::ideal(
            self.barrier,
            self.thickness,
            ElectricField::from_volts_per_meter(e_mag),
        );
        let kt = BOLTZMANN * self.temperature.as_kelvin();
        let lo = -ELEMENTARY_CHARGE; // 1 eV below the Fermi level
        let hi = self.barrier.as_joules() + 10.0 * kt;

        let integral = gauss_legendre_composite(
            |e_x| {
                let t = profile.transmission(Energy::from_joules(e_x), self.m_ox);
                let x = -e_x / kt;
                // ln(1 + exp(x)) with overflow-safe branches.
                let supply = if x > 500.0 {
                    x
                } else if x < -500.0 {
                    0.0
                } else {
                    x.exp().ln_1p()
                };
                t * supply
            },
            lo,
            hi,
            160,
        );

        let prefactor = ELEMENTARY_CHARGE * self.m_emitter.as_kilograms() * kt
            / (2.0 * core::f64::consts::PI * core::f64::consts::PI * REDUCED_PLANCK.powi(3));
        CurrentDensity::from_amps_per_square_meter(prefactor * integral)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fn_model::FnModel;

    fn model() -> TsuEsakiModel {
        TsuEsakiModel::free_emitter(
            Energy::from_ev(3.15),
            Length::from_nanometers(5.0),
            Mass::from_electron_masses(0.42),
        )
    }

    #[test]
    fn agrees_with_analytic_fn_within_an_order_of_magnitude() {
        // The analytic FN prefactor assumes a degenerate free-electron
        // emitter; the numeric supply integral should land within ~10x
        // across the FN field range.
        let te = model();
        let fn_model = FnModel::new(Energy::from_ev(3.15), Mass::from_electron_masses(0.42));
        for e in [1.0e9, 1.4e9, 1.8e9] {
            let field = ElectricField::from_volts_per_meter(e);
            let j_te = te.current_density(field).as_amps_per_square_meter();
            let j_fn = fn_model.current_density(field).as_amps_per_square_meter();
            let ratio = j_te / j_fn;
            assert!(
                (0.05..20.0).contains(&ratio),
                "E = {e:e}: Tsu-Esaki {j_te:e} vs FN {j_fn:e} (ratio {ratio})"
            );
        }
    }

    #[test]
    fn reproduces_the_fn_slope() {
        // ln(J/E²) vs 1/E of the numeric current must have the same slope
        // (B coefficient) as the analytic law within a few percent.
        let te = model();
        let fn_model = FnModel::new(Energy::from_ev(3.15), Mass::from_electron_masses(0.42));
        let e1 = 1.0e9;
        let e2 = 1.6e9;
        let slope = |j1: f64, j2: f64| {
            ((j2 / (e2 * e2)).ln() - (j1 / (e1 * e1)).ln()) / (1.0 / e2 - 1.0 / e1)
        };
        let s_te = slope(
            te.current_density(ElectricField::from_volts_per_meter(e1))
                .as_amps_per_square_meter(),
            te.current_density(ElectricField::from_volts_per_meter(e2))
                .as_amps_per_square_meter(),
        );
        let s_fn = -fn_model.coefficients().b;
        assert!(
            ((s_te - s_fn) / s_fn).abs() < 0.08,
            "slope {s_te:e} vs analytic {s_fn:e}"
        );
    }

    #[test]
    fn current_increases_with_temperature() {
        let cold = TsuEsakiModel::new(
            Energy::from_ev(3.15),
            Length::from_nanometers(5.0),
            Mass::from_electron_masses(0.42),
            Mass::from_electron_masses(1.0),
            Temperature::from_kelvin(250.0),
        );
        let hot = TsuEsakiModel::new(
            Energy::from_ev(3.15),
            Length::from_nanometers(5.0),
            Mass::from_electron_masses(0.42),
            Mass::from_electron_masses(1.0),
            Temperature::from_kelvin(400.0),
        );
        let field = ElectricField::from_volts_per_meter(1.2e9);
        assert!(
            hot.current_density(field).as_amps_per_square_meter()
                > cold.current_density(field).as_amps_per_square_meter()
        );
    }

    #[test]
    fn zero_field_zero_current() {
        assert_eq!(
            model()
                .current_density(ElectricField::ZERO)
                .as_amps_per_square_meter(),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn zero_temperature_rejected() {
        let _ = TsuEsakiModel::new(
            Energy::from_ev(3.15),
            Length::from_nanometers(5.0),
            Mass::from_electron_masses(0.42),
            Mass::from_electron_masses(1.0),
            Temperature::from_kelvin(0.0),
        );
    }
}
