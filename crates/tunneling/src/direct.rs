//! Direct tunneling through a trapezoidal barrier (thin oxides or
//! sub-barrier voltage drops).
//!
//! When the oxide drop `V_ox` is *below* the barrier `ΦB/q`, electrons see
//! a trapezoidal — not triangular — barrier and emerge into the collector
//! electrode rather than the oxide conduction band. The paper (§II)
//! attributes this regime to 2–5 nm oxides at low bias. The standard
//! closed-form (Schuegraf–Hu) generalisation of the FN exponent is
//!
//! ```text
//! J = A·E²·exp(−B·[1 − (1 − qV_ox/ΦB)^{3/2}] / E) / [1 − (1 − qV_ox/ΦB)^{1/2}]²
//! ```
//!
//! which reduces *exactly* to the FN law once `qV_ox ≥ ΦB`.

use gnr_materials::interface::TunnelInterface;
use gnr_units::{CurrentDensity, ElectricField, Energy, Length, Mass, Voltage};

use crate::fn_model::FnModel;
use crate::models::TunnelingModel;

/// Direct/FN unified tunneling model for a film of fixed thickness.
///
/// Unlike the pure [`FnModel`], this model must know the film thickness:
/// the regime depends on the *drop* `V_ox = E·t_ox`, not on the field
/// alone.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct DirectTunnelingModel {
    base: FnModel,
    thickness: Length,
}

impl DirectTunnelingModel {
    /// Creates the model from barrier parameters and the film thickness.
    ///
    /// # Panics
    ///
    /// Panics when `thickness` is not positive (via the same validation as
    /// the FN model for barrier/mass).
    #[must_use]
    pub fn new(barrier: Energy, m_ox: Mass, thickness: Length) -> Self {
        assert!(thickness.as_meters() > 0.0, "thickness must be positive");
        Self {
            base: FnModel::new(barrier, m_ox),
            thickness,
        }
    }

    /// Creates the model from an interface and the film thickness.
    ///
    /// # Panics
    ///
    /// Panics when `thickness` is not positive.
    #[must_use]
    pub fn from_interface(interface: &TunnelInterface, thickness: Length) -> Self {
        Self::new(
            interface.barrier_height(),
            interface.effective_mass(),
            thickness,
        )
    }

    /// Film thickness.
    #[must_use]
    pub fn thickness(&self) -> Length {
        self.thickness
    }

    /// The underlying FN model (the `qV_ox ≥ ΦB` limit).
    #[must_use]
    pub fn fn_limit(&self) -> &FnModel {
        &self.base
    }

    /// Signed current density given the signed *voltage drop* across the
    /// film.
    #[must_use]
    pub fn current_density_for_drop(&self, v_ox: Voltage) -> CurrentDensity {
        let field = v_ox / self.thickness;
        self.current_density(field)
    }
}

impl TunnelingModel for DirectTunnelingModel {
    fn current_density(&self, field: ElectricField) -> CurrentDensity {
        let e = field.as_volts_per_meter();
        if e == 0.0 {
            return CurrentDensity::ZERO;
        }
        let phi = self.base.barrier().as_joules();
        let q_vox =
            gnr_units::constants::ELEMENTARY_CHARGE * (e.abs() * self.thickness.as_meters());
        let c = self.base.coefficients();
        let mag = if q_vox >= phi {
            // Triangular barrier: exact FN.
            c.a * e * e * (-c.b / e.abs()).exp()
        } else {
            let r = 1.0 - q_vox / phi; // in (0, 1]
            let exponent_factor = 1.0 - r.powf(1.5);
            let prefactor_factor = (1.0 - r.sqrt()).powi(2).max(1e-30);
            c.a * e * e / prefactor_factor * (-c.b * exponent_factor / e.abs()).exp()
        };
        CurrentDensity::from_amps_per_square_meter(e.signum() * mag)
    }

    fn name(&self) -> &'static str {
        "direct+fn-unified"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_5nm() -> DirectTunnelingModel {
        DirectTunnelingModel::new(
            Energy::from_ev(3.15),
            Mass::from_electron_masses(0.42),
            Length::from_nanometers(5.0),
        )
    }

    #[test]
    fn reduces_to_fn_above_barrier_drop() {
        let m = model_5nm();
        // 9 V across 5 nm: qVox = 9 eV >> 3.15 eV.
        let e = ElectricField::from_volts_per_meter(1.8e9);
        let j_unified = m.current_density(e).as_amps_per_square_meter();
        let j_fn = m.fn_limit().current_density(e).as_amps_per_square_meter();
        assert!((j_unified - j_fn).abs() / j_fn < 1e-12);
    }

    #[test]
    fn continuous_at_the_regime_boundary() {
        let m = model_5nm();
        // Boundary: qVox = ΦB → E* = 3.15 V / 5 nm = 6.3e8 V/m.
        let e_star = 3.15 / 5.0e-9;
        let below = m
            .current_density(ElectricField::from_volts_per_meter(e_star * 0.999))
            .as_amps_per_square_meter();
        let above = m
            .current_density(ElectricField::from_volts_per_meter(e_star * 1.001))
            .as_amps_per_square_meter();
        assert!(
            (below / above - 1.0).abs() < 0.2,
            "jump: {below:e} vs {above:e}"
        );
    }

    #[test]
    fn direct_regime_current_is_positive_and_monotone() {
        let m = model_5nm();
        let mut prev = 0.0;
        for i in 1..=20 {
            // Drops from 0.15 V to 3.0 V — all below the 3.15 eV barrier.
            let v = 0.15 * f64::from(i);
            let j = m
                .current_density_for_drop(Voltage::from_volts(v))
                .as_amps_per_square_meter();
            assert!(j > prev, "not monotone at Vox = {v}");
            prev = j;
        }
    }

    #[test]
    fn thinner_oxide_conducts_more_at_fixed_drop() {
        // The essence of the paper's Figure 7/9 at sub-barrier drops.
        let thin = DirectTunnelingModel::new(
            Energy::from_ev(3.15),
            Mass::from_electron_masses(0.42),
            Length::from_nanometers(3.0),
        );
        let thick = model_5nm();
        let v = Voltage::from_volts(2.0);
        assert!(
            thin.current_density_for_drop(v).as_amps_per_square_meter()
                > thick.current_density_for_drop(v).as_amps_per_square_meter()
        );
    }

    #[test]
    fn odd_in_drop_sign() {
        let m = model_5nm();
        let f = m
            .current_density_for_drop(Voltage::from_volts(2.0))
            .as_amps_per_square_meter();
        let r = m
            .current_density_for_drop(Voltage::from_volts(-2.0))
            .as_amps_per_square_meter();
        assert!((f + r).abs() < 1e-18);
    }

    #[test]
    #[should_panic(expected = "thickness must be positive")]
    fn zero_thickness_panics() {
        let _ = DirectTunnelingModel::new(
            Energy::from_ev(3.15),
            Mass::from_electron_masses(0.42),
            Length::from_nanometers(0.0),
        );
    }
}
