//! Poole–Frenkel (trap-assisted) conduction.
//!
//! Cycled oxides conduct through field-lowered traps long before the FN
//! regime — the stress-induced leakage (SILC) behind the paper's
//! reliability warning ("higher tunneling current will severely damage
//! the oxide's reliability", §V). The classic PF law:
//!
//! ```text
//! J = C·E·exp(−q·(Φ_t − √(q·E/(π·ε)))/(k_B·T))
//! ```
//!
//! with `Φ_t` the trap depth and the √E term the one-sided Coulomb
//! barrier lowering (twice the Schottky value). The endurance model uses
//! this as the post-stress leakage path.

use gnr_units::constants::{BOLTZMANN, ELEMENTARY_CHARGE, VACUUM_PERMITTIVITY};
use gnr_units::{CurrentDensity, ElectricField, Energy, Temperature};

use crate::models::TunnelingModel;

/// The Poole–Frenkel conduction model.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct PooleFrenkelModel {
    trap_depth: Energy,
    relative_permittivity: f64,
    /// Conductivity prefactor `C` (S/m) — proportional to the trap
    /// density, i.e. to accumulated oxide damage.
    prefactor: f64,
    temperature: Temperature,
}

impl PooleFrenkelModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics when the trap depth, permittivity, prefactor or temperature
    /// is out of range.
    #[must_use]
    pub fn new(
        trap_depth: Energy,
        relative_permittivity: f64,
        prefactor: f64,
        temperature: Temperature,
    ) -> Self {
        assert!(trap_depth.as_joules() > 0.0, "trap depth must be positive");
        assert!(
            relative_permittivity >= 1.0,
            "permittivity must be at least 1"
        );
        assert!(prefactor > 0.0, "prefactor must be positive");
        assert!(
            temperature.as_kelvin() > 0.0,
            "temperature must be positive"
        );
        Self {
            trap_depth,
            relative_permittivity,
            prefactor,
            temperature,
        }
    }

    /// A damaged-SiO₂ preset: 1.0 eV traps, ε_r = 3.9, prefactor scaled
    /// so PF leakage at 5 MV/cm is SILC-like (~µA/cm² after heavy
    /// cycling).
    #[must_use]
    pub fn damaged_sio2() -> Self {
        Self::new(Energy::from_ev(1.0), 3.9, 1.0e-7, Temperature::room())
    }

    /// The trap depth `Φ_t`.
    #[must_use]
    pub fn trap_depth(&self) -> Energy {
        self.trap_depth
    }

    /// The PF barrier lowering `√(q·E/(π·ε))` (joules) at a field.
    #[must_use]
    pub fn barrier_lowering(&self, field: ElectricField) -> Energy {
        let e = field.as_volts_per_meter().abs();
        let eps = VACUUM_PERMITTIVITY * self.relative_permittivity;
        Energy::from_joules(
            ELEMENTARY_CHARGE * (ELEMENTARY_CHARGE * e / (core::f64::consts::PI * eps)).sqrt(),
        )
    }
}

impl TunnelingModel for PooleFrenkelModel {
    fn current_density(&self, field: ElectricField) -> CurrentDensity {
        let e = field.as_volts_per_meter();
        if e == 0.0 {
            return CurrentDensity::ZERO;
        }
        let kt = BOLTZMANN * self.temperature.as_kelvin();
        let effective_barrier =
            self.trap_depth.as_joules() - self.barrier_lowering(field).as_joules();
        let mag = self.prefactor * e.abs() * (-effective_barrier.max(0.0) / kt).exp();
        CurrentDensity::from_amps_per_square_meter(e.signum() * mag)
    }

    fn name(&self) -> &'static str {
        "poole-frenkel"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PooleFrenkelModel {
        PooleFrenkelModel::damaged_sio2()
    }

    #[test]
    fn pf_plot_is_linear_in_sqrt_field() {
        // ln(J/E) = const + β·√E: check three points for collinearity.
        // Fields stay below the barrier-free clamp (lowering < Φ_t).
        let m = model();
        let pts: Vec<(f64, f64)> = [1.0e8, 2.0e8, 3.0e8]
            .iter()
            .map(|&e| {
                let j = m
                    .current_density(ElectricField::from_volts_per_meter(e))
                    .as_amps_per_square_meter();
                (e.sqrt(), (j / e).ln())
            })
            .collect();
        let slope01 = (pts[1].1 - pts[0].1) / (pts[1].0 - pts[0].0);
        let slope12 = (pts[2].1 - pts[1].1) / (pts[2].0 - pts[1].0);
        assert!(
            ((slope01 - slope12) / slope01).abs() < 1e-9,
            "PF plot not straight: {slope01} vs {slope12}"
        );
    }

    #[test]
    fn pf_lowering_is_twice_schottky() {
        let field = ElectricField::from_volts_per_meter(1.0e9);
        let pf = model().barrier_lowering(field).as_ev();
        let schottky = crate::nordheim::schottky_lowering(field, 3.9).as_ev();
        assert!(
            (pf / schottky - 2.0).abs() < 1e-9,
            "ratio {}",
            pf / schottky
        );
    }

    #[test]
    fn hotter_traps_leak_more() {
        let cold = PooleFrenkelModel::new(
            Energy::from_ev(1.0),
            3.9,
            1.0e-7,
            Temperature::from_kelvin(250.0),
        );
        let hot = PooleFrenkelModel::new(
            Energy::from_ev(1.0),
            3.9,
            1.0e-7,
            Temperature::from_kelvin(400.0),
        );
        let e = ElectricField::from_volts_per_meter(5.0e8);
        assert!(
            hot.current_density(e).as_amps_per_square_meter()
                > cold.current_density(e).as_amps_per_square_meter()
        );
    }

    #[test]
    fn pf_dominates_fn_at_low_field_not_high() {
        // The SILC signature: trap conduction wins at read-level fields,
        // FN wins at programming fields.
        use crate::fn_model::FnModel;
        use gnr_units::Mass;
        let pf = model();
        let fnm = FnModel::new(Energy::from_ev(3.15), Mass::from_electron_masses(0.42));
        let low = ElectricField::from_volts_per_meter(3.0e8);
        let high = ElectricField::from_volts_per_meter(1.6e9);
        assert!(
            pf.current_density(low).as_amps_per_square_meter()
                > fnm.current_density(low).as_amps_per_square_meter()
        );
        assert!(
            pf.current_density(high).as_amps_per_square_meter()
                < fnm.current_density(high).as_amps_per_square_meter()
        );
    }

    #[test]
    fn odd_and_zero_at_zero() {
        let m = model();
        let e = ElectricField::from_volts_per_meter(4.0e8);
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
    #[should_panic(expected = "trap depth")]
    fn invalid_trap_depth_panics() {
        let _ = PooleFrenkelModel::new(Energy::from_ev(0.0), 3.9, 1e-7, Temperature::room());
    }
}
