//! Multilayer graphene nanoribbon (MLGNR) stacks — the paper's channel
//! material.
//!
//! Stacking monolayer ribbons increases the density of states (more charge
//! to tunnel, the reason the paper's drain bias "increases the electron
//! density in the graphene channel") and shifts the work function toward
//! the graphite value. Interlayer screening limits how many layers couple
//! electrostatically to the gate.

use gnr_units::constants::{ELEMENTARY_CHARGE, REDUCED_PLANCK};
use gnr_units::{CapacitancePerArea, Energy, Length, Voltage};

use crate::gnr::{Edge, Nanoribbon};
use crate::graphene;
use crate::{MaterialError, Result};

/// Interlayer electrostatic screening length in graphite, ≈ 0.6 nm
/// (≈ 2 layers): layers further from the oxide barely feel the gate.
const SCREENING_LENGTH_NM: f64 = 0.6;

/// A multilayer graphene nanoribbon channel.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct MultilayerGnr {
    ribbon: Nanoribbon,
    layers: u32,
}

impl MultilayerGnr {
    /// Creates a stack of `layers` identical ribbons.
    ///
    /// # Errors
    ///
    /// [`MaterialError::InvalidParameter`] when `layers == 0` or
    /// `layers > 100` (beyond any published MLGNR interconnect stack).
    pub fn new(ribbon: Nanoribbon, layers: u32) -> Result<Self> {
        if layers == 0 || layers > 100 {
            return Err(MaterialError::InvalidParameter {
                name: "layers",
                value: f64::from(layers),
                constraint: "must be within 1..=100",
            });
        }
        Ok(Self { ribbon, layers })
    }

    /// The channel assumed by the paper's worked example: a 22 nm-class
    /// armchair ribbon (N = 18 dimer lines ≈ 2.1 nm width) stacked 5
    /// layers deep — quasi-metallic enough to source FN electrons while
    /// retaining a ribbon gap.
    #[must_use]
    pub fn paper_channel() -> Self {
        let ribbon = Nanoribbon::new(Edge::Armchair, 18).expect("N = 18 is valid");
        Self::new(ribbon, 5).expect("5 layers is valid")
    }

    /// The constituent ribbon.
    #[must_use]
    pub fn ribbon(&self) -> Nanoribbon {
        self.ribbon
    }

    /// Number of stacked layers.
    #[must_use]
    pub fn layers(&self) -> u32 {
        self.layers
    }

    /// Total stack thickness: `layers` sheets separated by the interlayer
    /// spacing (a single layer is one atomic sheet ≈ 0.34 nm effective).
    #[must_use]
    pub fn thickness(&self) -> Length {
        Length::from_meters(f64::from(self.layers) * graphene::interlayer_spacing().as_meters())
    }

    /// Work function, interpolating from the monolayer value toward the
    /// graphite value with an exponential layer saturation (λ = 2 layers).
    #[must_use]
    pub fn work_function(&self) -> Energy {
        let wf_mono = graphene::work_function_monolayer().as_ev();
        let wf_graphite = graphene::work_function_graphite().as_ev();
        let n = f64::from(self.layers);
        let blend = 1.0 - (-(n - 1.0) / 2.0).exp();
        Energy::from_ev(wf_mono + (wf_graphite - wf_mono) * blend)
    }

    /// Number of layers that effectively couple to the gate, limited by
    /// interlayer screening: `min(layers, 1 + λ_screen / d_interlayer)`.
    #[must_use]
    pub fn effective_layers(&self) -> f64 {
        let max_coupled =
            1.0 + SCREENING_LENGTH_NM / graphene::interlayer_spacing().as_nanometers();
        f64::from(self.layers).min(max_coupled)
    }

    /// Graphene quantum capacitance per unit area at channel potential
    /// `v_ch`: `C_q = 2 q² |E_F| / (π (ħ v_F)²)` with `E_F = q·v_ch`,
    /// scaled by the effective (screening-limited) layer count.
    ///
    /// Near the Dirac point the ideal value vanishes; a thermal floor of
    /// `E_F ≈ 25.9 meV` (room temperature) is applied, the standard
    /// regularisation.
    #[must_use]
    pub fn quantum_capacitance(&self, v_ch: Voltage) -> CapacitancePerArea {
        let hbar_vf = REDUCED_PLANCK * graphene::fermi_velocity();
        let e_f = (v_ch.as_volts().abs() * ELEMENTARY_CHARGE).max(0.0259 * ELEMENTARY_CHARGE);
        let cq_single = 2.0 * ELEMENTARY_CHARGE * ELEMENTARY_CHARGE * e_f
            / (core::f64::consts::PI * hbar_vf * hbar_vf);
        CapacitancePerArea::from_farads_per_square_meter(cq_single * self.effective_layers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_channel_is_plausible() {
        let ch = MultilayerGnr::paper_channel();
        assert_eq!(ch.layers(), 5);
        let wf = ch.work_function().as_ev();
        assert!(wf > 4.5 && wf < 4.65, "wf = {wf}");
        assert!(ch.thickness().as_nanometers() > 1.0);
    }

    #[test]
    fn work_function_increases_with_layers() {
        let ribbon = Nanoribbon::new(Edge::Armchair, 18).unwrap();
        let one = MultilayerGnr::new(ribbon, 1).unwrap().work_function();
        let many = MultilayerGnr::new(ribbon, 30).unwrap().work_function();
        assert!(many > one);
        assert!((one.as_ev() - 4.56).abs() < 1e-9);
        assert!((many.as_ev() - 4.6).abs() < 0.01);
    }

    #[test]
    fn screening_caps_effective_layers() {
        let ribbon = Nanoribbon::new(Edge::Armchair, 18).unwrap();
        let thick = MultilayerGnr::new(ribbon, 50).unwrap();
        assert!(thick.effective_layers() < 4.0);
        let thin = MultilayerGnr::new(ribbon, 1).unwrap();
        assert!((thin.effective_layers() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantum_capacitance_grows_with_bias() {
        let ch = MultilayerGnr::paper_channel();
        let low = ch.quantum_capacitance(Voltage::from_volts(0.05));
        let high = ch.quantum_capacitance(Voltage::from_volts(0.5));
        assert!(high.as_farads_per_square_meter() > low.as_farads_per_square_meter());
    }

    #[test]
    fn quantum_capacitance_floor_at_dirac_point() {
        let ch = MultilayerGnr::paper_channel();
        let zero = ch.quantum_capacitance(Voltage::ZERO);
        assert!(zero.as_farads_per_square_meter() > 0.0);
        // Symmetric in bias sign (electron/hole symmetry).
        let pos = ch.quantum_capacitance(Voltage::from_volts(0.3));
        let neg = ch.quantum_capacitance(Voltage::from_volts(-0.3));
        assert!(
            (pos.as_farads_per_square_meter() - neg.as_farads_per_square_meter()).abs() < 1e-12
        );
    }

    #[test]
    fn layer_bounds_enforced() {
        let ribbon = Nanoribbon::new(Edge::Armchair, 18).unwrap();
        assert!(MultilayerGnr::new(ribbon, 0).is_err());
        assert!(MultilayerGnr::new(ribbon, 101).is_err());
    }

    #[test]
    fn quantum_capacitance_magnitude_sanity() {
        // Monolayer graphene follows C_q ≈ 23·|V_ch| µF/cm² (per volt of
        // channel potential); at 0.3 V that is ≈ 7 µF/cm².
        let ribbon = Nanoribbon::new(Edge::Armchair, 18).unwrap();
        let mono = MultilayerGnr::new(ribbon, 1).unwrap();
        let cq = mono.quantum_capacitance(Voltage::from_volts(0.3));
        let uf_cm2 = cq.as_farads_per_square_meter() * 100.0; // F/m² → µF/cm²
        assert!(uf_cm2 > 5.0 && uf_cm2 < 10.0, "C_q = {uf_cm2} µF/cm²");
    }
}
