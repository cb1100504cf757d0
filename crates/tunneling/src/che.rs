//! Channel-hot-electron (CHE) injection — the lucky-electron model.
//!
//! The paper (§II) contrasts FN programming (NAND: < 1 nA/cell, slow
//! voltage, parallel pages) with CHE programming (NOR: 0.3–1 mA/cell,
//! 4–6 V drain, 8–11 V gate). The classic lucky-electron model (Hu 1979)
//! estimates the gate-injection probability as
//!
//! ```text
//! P = exp(−ΦB / (q·λ·E_lateral))
//! I_gate = C · I_drain · P
//! ```
//!
//! with `λ` the hot-electron mean free path and `E_lateral` the peak
//! channel field near the drain. It is deliberately simple — the tests
//! use it only to reproduce the paper's order-of-magnitude FN-vs-CHE
//! comparison (programming current per cell, parallelism, energy).

use gnr_units::constants::ELEMENTARY_CHARGE;
use gnr_units::{Current, ElectricField, Energy, Length};

/// Lucky-electron CHE injection model.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct CheModel {
    barrier: Energy,
    mean_free_path: Length,
    collection_efficiency: f64,
}

impl CheModel {
    /// Creates the model.
    ///
    /// `collection_efficiency` is the geometric prefactor `C` (typically
    /// 10⁻²–10⁻¹ for NOR cells).
    ///
    /// # Panics
    ///
    /// Panics unless barrier and mean free path are positive and
    /// `0 < collection_efficiency ≤ 1`.
    #[must_use]
    pub fn new(barrier: Energy, mean_free_path: Length, collection_efficiency: f64) -> Self {
        assert!(barrier.as_joules() > 0.0, "barrier must be positive");
        assert!(
            mean_free_path.as_meters() > 0.0,
            "mean free path must be positive"
        );
        assert!(
            collection_efficiency > 0.0 && collection_efficiency <= 1.0,
            "collection efficiency must be in (0, 1]"
        );
        Self {
            barrier,
            mean_free_path,
            collection_efficiency,
        }
    }

    /// A conventional NOR-cell preset: Si/SiO₂ barrier 3.15 eV, hot-electron
    /// mean free path 9.2 nm (Hu's silicon value), 5 % collection.
    #[must_use]
    pub fn silicon_nor_cell() -> Self {
        Self::new(Energy::from_ev(3.15), Length::from_nanometers(9.2), 0.05)
    }

    /// Injection probability at a given peak lateral field.
    #[must_use]
    pub fn injection_probability(&self, lateral_field: ElectricField) -> f64 {
        let e = lateral_field.as_volts_per_meter().abs();
        if e == 0.0 {
            return 0.0;
        }
        let exponent =
            self.barrier.as_joules() / (ELEMENTARY_CHARGE * self.mean_free_path.as_meters() * e);
        (-exponent).exp()
    }

    /// Gate injection current for a drain current and lateral field.
    #[must_use]
    pub fn gate_current(&self, drain_current: Current, lateral_field: ElectricField) -> Current {
        Current::from_amps(
            drain_current.as_amps()
                * self.collection_efficiency
                * self.injection_probability(lateral_field),
        )
    }

    /// Programming energy per cell for a pulse of the given width — the
    /// figure of merit in the paper's FN-vs-CHE discussion (CHE draws mA
    /// of channel current; FN draws < 1 nA).
    #[must_use]
    pub fn programming_energy_joules(
        &self,
        drain_current: Current,
        drain_voltage_v: f64,
        pulse_seconds: f64,
    ) -> f64 {
        drain_current.as_amps().abs() * drain_voltage_v.abs() * pulse_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_grows_with_field() {
        let m = CheModel::silicon_nor_cell();
        let p_low = m.injection_probability(ElectricField::from_volts_per_meter(2.0e7));
        let p_high = m.injection_probability(ElectricField::from_volts_per_meter(8.0e7));
        assert!(p_high > p_low);
        assert!(p_low > 0.0);
    }

    #[test]
    fn probability_zero_at_zero_field() {
        let m = CheModel::silicon_nor_cell();
        assert_eq!(m.injection_probability(ElectricField::ZERO), 0.0);
    }

    #[test]
    fn gate_current_is_tiny_fraction_of_drain_current() {
        // NOR reality: mA drain current, sub-µA gate injection.
        let m = CheModel::silicon_nor_cell();
        let i_d = Current::from_milliamps(0.5);
        let i_g = m.gate_current(i_d, ElectricField::from_volts_per_meter(5.0e7));
        assert!(i_g.as_amps() > 0.0);
        assert!(i_g.as_amps() < 1e-2 * i_d.as_amps());
    }

    #[test]
    fn che_energy_dwarfs_fn_energy() {
        // Paper §II: CHE draws 0.3–1 mA at 4–6 V; FN draws < 1 nA at ~15 V.
        let m = CheModel::silicon_nor_cell();
        let che = m.programming_energy_joules(Current::from_milliamps(0.5), 5.0, 1e-6);
        let fn_energy = 1e-9 * 15.0 * 1e-6; // 1 nA × 15 V × 1 µs
        assert!(che / fn_energy > 1e4, "ratio = {}", che / fn_energy);
    }

    #[test]
    fn invalid_parameters_panic() {
        use std::panic::catch_unwind;
        assert!(catch_unwind(|| CheModel::new(
            Energy::from_ev(0.0),
            Length::from_nanometers(9.0),
            0.05
        ))
        .is_err());
        assert!(catch_unwind(|| CheModel::new(
            Energy::from_ev(3.0),
            Length::from_nanometers(9.0),
            1.5
        ))
        .is_err());
    }
}
