//! Emitter/oxide interfaces and barrier heights.
//!
//! The paper's `ΦB` — "the barrier seen by the carriers from the channel"
//! (§II) — is computed here by vacuum-level alignment (Anderson's rule):
//! `ΦB = W_emitter − χ_oxide`. The paper notes the work function "is a
//! property of the surface of the material" (§IV); accordingly the emitter
//! side is captured as a work function, so MLGNR channels, CNT floating
//! gates, silicon and metals all flow through the same type.

use gnr_units::{Energy, Length, Mass};

use crate::oxide::Oxide;
use crate::{MaterialError, Result};

/// One emitter → oxide tunneling interface.
///
/// This is directional: tunneling *out of* the floating gate sees a
/// different barrier than tunneling *into* it, because the emitters differ
/// (channel vs CNT). The device model therefore holds one
/// `TunnelInterface` per direction per oxide.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TunnelInterface {
    emitter_work_function: Energy,
    oxide: Oxide,
}

impl TunnelInterface {
    /// Creates an interface between an emitter (by work function) and an
    /// oxide.
    ///
    /// # Errors
    ///
    /// [`MaterialError::NonPositiveBarrier`] when the work function does
    /// not exceed the oxide electron affinity — the FN picture requires a
    /// positive barrier.
    pub fn new(emitter_work_function: Energy, oxide: Oxide) -> Result<Self> {
        if emitter_work_function.as_ev() <= oxide.electron_affinity().as_ev() {
            return Err(MaterialError::NonPositiveBarrier {
                emitter_work_function_ev: emitter_work_function.as_ev(),
                oxide_affinity_ev: oxide.electron_affinity().as_ev(),
            });
        }
        Ok(Self {
            emitter_work_function,
            oxide,
        })
    }

    /// Emitter work function.
    #[must_use]
    pub fn emitter_work_function(&self) -> Energy {
        self.emitter_work_function
    }

    /// The oxide being tunneled through.
    #[must_use]
    pub fn oxide(&self) -> &Oxide {
        &self.oxide
    }

    /// Barrier height `ΦB = W_emitter − χ_oxide` (Anderson alignment).
    #[must_use]
    pub fn barrier_height(&self) -> Energy {
        Energy::from_ev(self.emitter_work_function.as_ev() - self.oxide.electron_affinity().as_ev())
    }

    /// Effective tunneling mass in the oxide (`m_ox`).
    #[must_use]
    pub fn effective_mass(&self) -> Mass {
        self.oxide.effective_mass()
    }

    /// Potential drop across a film of `thickness` at which the FN regime
    /// ends and direct tunneling takes over: `V_ox = ΦB / q` (the
    /// triangular barrier stops reaching through the film).
    ///
    /// Below this drop — or for films thinner than ~4 nm (paper §II ref.
    /// \[1\]) — the `gnr-tunneling::regime` module selects direct tunneling.
    #[must_use]
    pub fn fn_onset_voltage(&self) -> f64 {
        self.barrier_height().as_ev()
    }

    /// Convenience: the field magnitude at which the drop across
    /// `thickness` equals the barrier (FN onset).
    #[must_use]
    pub fn fn_onset_field(&self, thickness: Length) -> gnr_units::ElectricField {
        gnr_units::ElectricField::from_volts_per_meter(
            self.fn_onset_voltage() / thickness.as_meters(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlgnr::MultilayerGnr;
    use crate::{cnt::Cnt, silicon};

    #[test]
    fn graphene_sio2_barrier_is_about_3_6_ev() {
        let iface = TunnelInterface::new(
            MultilayerGnr::paper_channel().work_function(),
            Oxide::silicon_dioxide(),
        )
        .unwrap();
        let phi = iface.barrier_height().as_ev();
        assert!(phi > 3.5 && phi < 3.75, "ΦB = {phi} eV");
    }

    #[test]
    fn cnt_sio2_barrier_exceeds_channel_barrier() {
        // The CNT FG work function > MLGNR channel work function, so charge
        // leaks out of the FG less readily than it tunnels in — the
        // asymmetry the paper's Figure 4 relies on.
        let ch = TunnelInterface::new(
            MultilayerGnr::paper_channel().work_function(),
            Oxide::silicon_dioxide(),
        )
        .unwrap();
        let fg = TunnelInterface::new(
            Cnt::paper_floating_gate().work_function(),
            Oxide::silicon_dioxide(),
        )
        .unwrap();
        assert!(fg.barrier_height() > ch.barrier_height());
    }

    #[test]
    fn si_sio2_barrier_matches_lenzlinger_snow() {
        let iface = TunnelInterface::new(
            silicon::inversion_layer_work_function(),
            Oxide::silicon_dioxide(),
        )
        .unwrap();
        let phi = iface.barrier_height().as_ev();
        assert!((phi - 3.15).abs() < 0.1, "ΦB = {phi} eV");
    }

    #[test]
    fn non_positive_barrier_rejected() {
        // A 0.5 eV "work function" is below the SiO2 affinity.
        let err = TunnelInterface::new(Energy::from_ev(0.5), Oxide::silicon_dioxide());
        assert!(matches!(err, Err(MaterialError::NonPositiveBarrier { .. })));
    }

    #[test]
    fn fn_onset_field_scales_inverse_thickness() {
        let iface = TunnelInterface::new(
            silicon::inversion_layer_work_function(),
            Oxide::silicon_dioxide(),
        )
        .unwrap();
        let thin = iface.fn_onset_field(Length::from_nanometers(5.0));
        let thick = iface.fn_onset_field(Length::from_nanometers(10.0));
        assert!((thin.as_volts_per_meter() / thick.as_volts_per_meter() - 2.0).abs() < 1e-9);
    }
}
