//! The floating-gate transistor device model.
//!
//! A [`FloatingGateTransistor`] combines the cell geometry, the
//! capacitance network of eq. (2)–(3) and **four directional FN tunneling
//! paths** (paper Figure 3/4):
//!
//! * channel → floating gate through the tunnel oxide (`Jin` during
//!   programming),
//! * floating gate → channel through the tunnel oxide (erase),
//! * floating gate → control gate through the control oxide (`Jout`
//!   during programming),
//! * control gate → floating gate through the control oxide (erase-side
//!   parasitic).
//!
//! Each direction has its own barrier height because the emitting
//! electrode differs — MLGNR channel, CNT floating gate or the metal
//! control gate (§IV: "The work function is a property of the surface of
//! the material").

use gnr_materials::cnt::Cnt;
use gnr_materials::interface::TunnelInterface;
use gnr_materials::mlgnr::MultilayerGnr;
use gnr_materials::oxide::Oxide;
use gnr_materials::silicon;
use gnr_tunneling::fn_model::FnModel;
use gnr_units::{Capacitance, Charge, CurrentDensity, ElectricField, Energy, Temperature, Voltage};

use crate::capacitance::CapacitanceNetwork;
use crate::geometry::FgtGeometry;
use crate::Result;

/// Directional signed flow through one oxide: the emitting electrode —
/// and therefore the model — switches with the field sign, and the
/// magnitude is evaluated at `|E|` so every model's odd symmetry is
/// applied consistently.
///
/// This is the single home of the sign convention shared by the exact
/// device paths and the engine's tabulated paths; keep them from
/// diverging by routing both through here.
pub(crate) fn signed_flow(
    field: ElectricField,
    forward: &dyn gnr_tunneling::TunnelingModel,
    reverse: &dyn gnr_tunneling::TunnelingModel,
) -> CurrentDensity {
    signed_flow_by(
        field,
        |e| forward.current_density(e),
        |e| reverse.current_density(e),
    )
}

/// Closure-general form of [`signed_flow`] for evaluations that carry
/// extra parameters (e.g. the Lenzlinger–Snow temperature correction of
/// [`FloatingGateTransistor::tunnel_flow_at`]). Each closure receives
/// `|E|` and returns the current-density magnitude of its emitter.
pub(crate) fn signed_flow_by(
    field: ElectricField,
    forward: impl FnOnce(ElectricField) -> CurrentDensity,
    reverse: impl FnOnce(ElectricField) -> CurrentDensity,
) -> CurrentDensity {
    let ev = field.as_volts_per_meter();
    if ev == 0.0 {
        return CurrentDensity::ZERO;
    }
    let mag = if ev > 0.0 {
        forward(field.abs())
    } else {
        reverse(field.abs())
    }
    .as_amps_per_square_meter();
    CurrentDensity::from_amps_per_square_meter(ev.signum() * mag)
}

/// Instantaneous tunneling state of the cell at one bias point.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct TunnelingState {
    /// Floating-gate potential (eq. 3).
    pub vfg: Voltage,
    /// Signed electron flow through the tunnel oxide
    /// (positive = electrons moving channel → FG).
    pub tunnel_flow: CurrentDensity,
    /// Signed electron flow through the control oxide
    /// (positive = electrons moving FG → control gate).
    pub control_flow: CurrentDensity,
    /// Rate of change of the stored charge (amperes; negative while
    /// electrons accumulate).
    pub charge_rate_amps: f64,
}

/// The floating-gate transistor.
///
/// Construct with [`FloatingGateTransistor::mlgnr_cnt_paper`] (the paper's
/// device), [`FloatingGateTransistor::silicon_conventional`] (the
/// baseline it is compared against) or [`FloatingGateTransistor::builder`].
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FloatingGateTransistor {
    name: String,
    geometry: FgtGeometry,
    caps: CapacitanceNetwork,
    tunnel_oxide: Oxide,
    control_oxide: Oxide,
    channel_work_function: Energy,
    floating_gate_work_function: Energy,
    control_gate_work_function: Energy,
    fn_channel_emit: FnModel,
    fn_fg_emit_tunnel: FnModel,
    fn_fg_emit_control: FnModel,
    fn_gate_emit: FnModel,
}

impl FloatingGateTransistor {
    /// Starts a [`FgtBuilder`] pre-loaded with the paper's nominal values.
    #[must_use]
    pub fn builder() -> FgtBuilder {
        FgtBuilder::default()
    }

    /// The paper's proposed device: MLGNR channel, CNT floating gate,
    /// SiO₂ oxides (5 nm / 12 nm), `GCR = 0.6`, `CT` from the 22 nm
    /// geometry.
    #[must_use]
    pub fn mlgnr_cnt_paper() -> Self {
        FgtBuilder::default()
            .build()
            .expect("paper preset is valid")
    }

    /// The conventional silicon baseline the paper compares against:
    /// Si inversion-layer emitter, n⁺ poly-Si floating and control gates,
    /// same geometry and GCR.
    #[must_use]
    pub fn silicon_conventional() -> Self {
        FgtBuilder::default()
            .name("si-conventional")
            .channel_work_function(silicon::inversion_layer_work_function())
            .floating_gate_work_function(silicon::n_poly_work_function())
            .control_gate_work_function(silicon::n_poly_work_function())
            .build()
            .expect("silicon baseline is valid")
    }

    /// Device name (for reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Cell geometry.
    #[must_use]
    pub fn geometry(&self) -> &FgtGeometry {
        &self.geometry
    }

    /// Capacitance network (eq. 2).
    #[must_use]
    pub fn capacitances(&self) -> &CapacitanceNetwork {
        &self.caps
    }

    /// Tunnel-oxide material.
    #[must_use]
    pub fn tunnel_oxide(&self) -> &Oxide {
        &self.tunnel_oxide
    }

    /// Control-oxide material.
    #[must_use]
    pub fn control_oxide(&self) -> &Oxide {
        &self.control_oxide
    }

    /// The channel emitter work function.
    #[must_use]
    pub fn channel_work_function(&self) -> Energy {
        self.channel_work_function
    }

    /// The floating-gate work function.
    #[must_use]
    pub fn floating_gate_work_function(&self) -> Energy {
        self.floating_gate_work_function
    }

    /// The control-gate work function.
    #[must_use]
    pub fn control_gate_work_function(&self) -> Energy {
        self.control_gate_work_function
    }

    /// The FN model for channel-emitted tunneling (programming `Jin`).
    #[must_use]
    pub fn channel_emission_model(&self) -> &FnModel {
        &self.fn_channel_emit
    }

    /// The FN model for FG-emitted tunneling through the tunnel oxide
    /// (erase).
    #[must_use]
    pub fn fg_emission_model(&self) -> &FnModel {
        &self.fn_fg_emit_tunnel
    }

    /// The FN model for FG-emitted tunneling through the control oxide
    /// (programming `Jout`).
    #[must_use]
    pub fn fg_control_emission_model(&self) -> &FnModel {
        &self.fn_fg_emit_control
    }

    /// The FN model for control-gate-emitted tunneling through the
    /// control oxide (erase-side parasitic).
    #[must_use]
    pub fn gate_emission_model(&self) -> &FnModel {
        &self.fn_gate_emit
    }

    /// Floating-gate potential at a bias point — eq. (3).
    #[must_use]
    pub fn floating_gate_voltage(&self, vgs: Voltage, qfg: Charge) -> Voltage {
        self.caps.floating_gate_voltage(vgs, qfg)
    }

    /// Field across the tunnel oxide — eq. (5): `E = (VFG − VS)/XTO`.
    #[must_use]
    pub fn tunnel_oxide_field(&self, vfg: Voltage, vs: Voltage) -> ElectricField {
        (vfg - vs) / self.geometry.tunnel_oxide_thickness()
    }

    /// Field across the control oxide: `(VGS − VFG)/XCO`.
    #[must_use]
    pub fn control_oxide_field(&self, vgs: Voltage, vfg: Voltage) -> ElectricField {
        (vgs - vfg) / self.geometry.control_oxide_thickness()
    }

    /// Signed electron flow through the tunnel oxide
    /// (positive = electrons moving channel → FG, i.e. `VFG > VS`).
    ///
    /// The emitting electrode — and therefore the barrier — switches with
    /// the field direction.
    #[must_use]
    pub fn tunnel_flow(&self, vfg: Voltage, vs: Voltage) -> CurrentDensity {
        signed_flow(
            self.tunnel_oxide_field(vfg, vs),
            &self.fn_channel_emit,
            &self.fn_fg_emit_tunnel,
        )
    }

    /// Signed electron flow through the control oxide
    /// (positive = electrons moving FG → control gate, i.e. `VGS > VFG`).
    #[must_use]
    pub fn control_flow(&self, vgs: Voltage, vfg: Voltage) -> CurrentDensity {
        signed_flow(
            self.control_oxide_field(vgs, vfg),
            &self.fn_fg_emit_control,
            &self.fn_gate_emit,
        )
    }

    /// Full tunneling state at a bias point: eq. (3) + both oxide flows +
    /// the charge balance
    /// `dQ/dt = A·(control_flow − tunnel_flow)` (each arriving electron
    /// adds `−q`).
    #[must_use]
    pub fn tunneling_state(&self, vgs: Voltage, vs: Voltage, qfg: Charge) -> TunnelingState {
        let vfg = self.floating_gate_voltage(vgs, qfg);
        let jt = self.tunnel_flow(vfg, vs);
        let jc = self.control_flow(vgs, vfg);
        let area = self.geometry.gate_area();
        let dq_dt = area.as_square_meters()
            * (jc.as_amps_per_square_meter() - jt.as_amps_per_square_meter());
        TunnelingState {
            vfg,
            tunnel_flow: jt,
            control_flow: jc,
            charge_rate_amps: dq_dt,
        }
    }

    /// Like [`Self::tunnel_flow`] but with the Lenzlinger–Snow
    /// temperature correction (the temperature-ablation bench).
    #[must_use]
    pub fn tunnel_flow_at(
        &self,
        vfg: Voltage,
        vs: Voltage,
        temperature: Temperature,
    ) -> CurrentDensity {
        signed_flow_by(
            self.tunnel_oxide_field(vfg, vs),
            |e| self.fn_channel_emit.current_density_at(e, temperature),
            |e| self.fn_fg_emit_tunnel.current_density_at(e, temperature),
        )
    }

    /// FNV-1a digest over the exact bit patterns of every parameter that
    /// enters the charge-balance dynamics: the four capacitances of
    /// eq. (2), the oxide thicknesses and gate area of eq. (5), and the
    /// FN `(A, B)` coefficients of all four tunneling paths. Two devices
    /// with equal keys produce bit-identical [`Self::tunneling_state`]
    /// values at every bias point, so the key is what process-wide
    /// trajectory caches (the engine's pulse flow map) may key on.
    #[must_use]
    pub fn dynamics_key(&self) -> u64 {
        use gnr_numerics::hash::{fnv1a_fold_f64, FNV1A_OFFSET};
        let mut h = FNV1A_OFFSET;
        for v in [
            self.caps.cfc().as_farads(),
            self.caps.cfs().as_farads(),
            self.caps.cfb().as_farads(),
            self.caps.cfd().as_farads(),
            self.geometry.tunnel_oxide_thickness().as_meters(),
            self.geometry.control_oxide_thickness().as_meters(),
            self.geometry.gate_area().as_square_meters(),
        ] {
            h = fnv1a_fold_f64(h, v);
        }
        for model in [
            &self.fn_channel_emit,
            &self.fn_fg_emit_tunnel,
            &self.fn_fg_emit_control,
            &self.fn_gate_emit,
        ] {
            let c = model.coefficients();
            h = fnv1a_fold_f64(h, c.a);
            h = fnv1a_fold_f64(h, c.b);
        }
        h
    }

    /// Oxide stress ratios (|field| / breakdown) at a bias point — the
    /// reliability concern of the paper's conclusion.
    #[must_use]
    pub fn stress_ratios(&self, vgs: Voltage, vs: Voltage, qfg: Charge) -> (f64, f64) {
        let vfg = self.floating_gate_voltage(vgs, qfg);
        (
            self.tunnel_oxide
                .field_stress_ratio(self.tunnel_oxide_field(vfg, vs)),
            self.control_oxide
                .field_stress_ratio(self.control_oxide_field(vgs, vfg)),
        )
    }
}

/// Builder for [`FloatingGateTransistor`], defaulting to the paper's
/// nominal MLGNR-CNT cell.
#[derive(Debug, Clone)]
pub struct FgtBuilder {
    name: String,
    geometry: FgtGeometry,
    gcr: f64,
    total_capacitance: Option<Capacitance>,
    tunnel_oxide: Oxide,
    control_oxide: Oxide,
    channel_work_function: Energy,
    floating_gate_work_function: Energy,
    control_gate_work_function: Energy,
}

impl Default for FgtBuilder {
    fn default() -> Self {
        Self {
            name: "mlgnr-cnt-paper".to_string(),
            geometry: FgtGeometry::paper_nominal(),
            gcr: crate::presets::PAPER_GCR,
            total_capacitance: None,
            tunnel_oxide: Oxide::silicon_dioxide(),
            control_oxide: Oxide::silicon_dioxide(),
            channel_work_function: MultilayerGnr::paper_channel().work_function(),
            floating_gate_work_function: Cnt::paper_floating_gate().work_function(),
            control_gate_work_function: Energy::from_ev(4.6),
        }
    }
}

impl FgtBuilder {
    /// Sets the device name used in reports.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the cell geometry.
    #[must_use]
    pub fn geometry(mut self, geometry: FgtGeometry) -> Self {
        self.geometry = geometry;
        self
    }

    /// Sets the gate-coupling ratio (paper sweeps 50–80 %).
    #[must_use]
    pub fn gcr(mut self, gcr: f64) -> Self {
        self.gcr = gcr;
        self
    }

    /// Overrides the total floating-gate capacitance `CT`; derived from
    /// the geometry when unset.
    #[must_use]
    pub fn total_capacitance(mut self, ct: Capacitance) -> Self {
        self.total_capacitance = Some(ct);
        self
    }

    /// Sets the tunnel-oxide material.
    #[must_use]
    pub fn tunnel_oxide(mut self, oxide: Oxide) -> Self {
        self.tunnel_oxide = oxide;
        self
    }

    /// Sets the control-oxide material.
    #[must_use]
    pub fn control_oxide(mut self, oxide: Oxide) -> Self {
        self.control_oxide = oxide;
        self
    }

    /// Sets the channel emitter work function.
    #[must_use]
    pub fn channel_work_function(mut self, wf: Energy) -> Self {
        self.channel_work_function = wf;
        self
    }

    /// Sets the floating-gate work function.
    #[must_use]
    pub fn floating_gate_work_function(mut self, wf: Energy) -> Self {
        self.floating_gate_work_function = wf;
        self
    }

    /// Sets the control-gate work function.
    #[must_use]
    pub fn control_gate_work_function(mut self, wf: Energy) -> Self {
        self.control_gate_work_function = wf;
        self
    }

    /// Builds the device, validating every interface barrier.
    ///
    /// # Errors
    ///
    /// [`crate::DeviceError::Material`] when any emitter work function
    /// fails to clear its oxide's electron affinity;
    /// [`crate::DeviceError::InvalidParameter`] for an out-of-range GCR.
    pub fn build(self) -> Result<FloatingGateTransistor> {
        // Total capacitance: explicit override or the parallel-plate
        // estimate scaled so CFC matches the requested GCR (wrap-around
        // control gates achieve this in real cells).
        let ct = self.total_capacitance.unwrap_or_else(|| {
            CapacitanceNetwork::from_geometry(
                &self.geometry,
                &self.tunnel_oxide,
                &self.control_oxide,
            )
            .total()
        });
        let caps = CapacitanceNetwork::from_gcr(self.gcr, ct)?;

        let if_channel =
            TunnelInterface::new(self.channel_work_function, self.tunnel_oxide.clone())?;
        let if_fg_tunnel =
            TunnelInterface::new(self.floating_gate_work_function, self.tunnel_oxide.clone())?;
        let if_fg_control =
            TunnelInterface::new(self.floating_gate_work_function, self.control_oxide.clone())?;
        let if_gate =
            TunnelInterface::new(self.control_gate_work_function, self.control_oxide.clone())?;

        Ok(FloatingGateTransistor {
            name: self.name,
            geometry: self.geometry,
            caps,
            fn_channel_emit: FnModel::from_interface(&if_channel),
            fn_fg_emit_tunnel: FnModel::from_interface(&if_fg_tunnel),
            fn_fg_emit_control: FnModel::from_interface(&if_fg_control),
            fn_gate_emit: FnModel::from_interface(&if_gate),
            tunnel_oxide: self.tunnel_oxide,
            control_oxide: self.control_oxide,
            channel_work_function: self.channel_work_function,
            floating_gate_work_function: self.floating_gate_work_function,
            control_gate_work_function: self.control_gate_work_function,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceError;

    #[test]
    fn paper_device_reproduces_worked_example() {
        // VGS = 15 V, GCR = 0.6, QFG = 0 → VFG = 9 V (§III).
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let vfg = d.floating_gate_voltage(Voltage::from_volts(15.0), Charge::ZERO);
        assert!((vfg.as_volts() - 9.0).abs() < 1e-9);
        // E = 9 V / 5 nm = 1.8 GV/m.
        let e = d.tunnel_oxide_field(vfg, Voltage::ZERO);
        assert!((e.as_volts_per_meter() - 1.8e9).abs() < 1.0);
    }

    #[test]
    fn jin_dominates_jout_at_program_onset() {
        // Figure 4: "Jin is much higher than Jout".
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let s = d.tunneling_state(Voltage::from_volts(15.0), Voltage::ZERO, Charge::ZERO);
        let jin = s.tunnel_flow.as_amps_per_square_meter();
        let jout = s.control_flow.as_amps_per_square_meter();
        assert!(jin > 0.0);
        assert!(jout >= 0.0);
        assert!(
            jin > 1e3 * jout.max(1e-300),
            "Jin = {jin:e}, Jout = {jout:e}"
        );
        // Electrons accumulate: dQ/dt < 0.
        assert!(s.charge_rate_amps < 0.0);
    }

    #[test]
    fn stored_charge_reduces_jin_and_raises_jout() {
        // §III / Figure 5 mechanism.
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let vgs = Voltage::from_volts(15.0);
        let s0 = d.tunneling_state(vgs, Voltage::ZERO, Charge::ZERO);
        let q = Charge::from_coulombs(-2.0 * d.capacitances().total().as_farads()); // −2 V worth
        let s1 = d.tunneling_state(vgs, Voltage::ZERO, q);
        assert!(
            s1.tunnel_flow.as_amps_per_square_meter() < s0.tunnel_flow.as_amps_per_square_meter()
        );
        assert!(
            s1.control_flow.as_amps_per_square_meter()
                >= s0.control_flow.as_amps_per_square_meter()
        );
        assert!(s1.vfg < s0.vfg);
    }

    #[test]
    fn erase_reverses_the_flows() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        // Programmed cell: −3 V of stored charge.
        let q = Charge::from_coulombs(-3.0 * d.capacitances().total().as_farads());
        let s = d.tunneling_state(Voltage::from_volts(-15.0), Voltage::ZERO, q);
        // Electrons leave the FG toward the channel: tunnel_flow < 0,
        // and the stored (negative) charge relaxes upward: dQ/dt > 0.
        assert!(s.tunnel_flow.as_amps_per_square_meter() < 0.0);
        assert!(s.charge_rate_amps > 0.0);
    }

    #[test]
    fn zero_bias_zero_flow() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let s = d.tunneling_state(Voltage::ZERO, Voltage::ZERO, Charge::ZERO);
        assert_eq!(s.tunnel_flow.as_amps_per_square_meter(), 0.0);
        assert_eq!(s.control_flow.as_amps_per_square_meter(), 0.0);
        assert_eq!(s.charge_rate_amps, 0.0);
    }

    #[test]
    fn builder_respects_overrides() {
        let d = FloatingGateTransistor::builder()
            .name("custom")
            .gcr(0.7)
            .total_capacitance(Capacitance::from_attofarads(6.0))
            .build()
            .unwrap();
        assert_eq!(d.name(), "custom");
        assert!((d.capacitances().gcr() - 0.7).abs() < 1e-12);
        assert!((d.capacitances().total().as_attofarads() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn builder_rejects_bad_gcr() {
        assert!(FloatingGateTransistor::builder().gcr(1.5).build().is_err());
    }

    #[test]
    fn builder_rejects_impossible_barrier() {
        let r = FloatingGateTransistor::builder()
            .channel_work_function(Energy::from_ev(0.5))
            .build();
        assert!(matches!(r, Err(DeviceError::Material(_))));
    }

    #[test]
    fn silicon_baseline_tunnels_more_at_same_bias() {
        // Si/SiO2 barrier (3.15 eV) < graphene/SiO2 (3.6 eV): at the same
        // field, the baseline passes more FN current.
        let gnr = FloatingGateTransistor::mlgnr_cnt_paper();
        let si = FloatingGateTransistor::silicon_conventional();
        let vgs = Voltage::from_volts(15.0);
        let j_gnr = gnr
            .tunneling_state(vgs, Voltage::ZERO, Charge::ZERO)
            .tunnel_flow
            .as_amps_per_square_meter();
        let j_si = si
            .tunneling_state(vgs, Voltage::ZERO, Charge::ZERO)
            .tunnel_flow
            .as_amps_per_square_meter();
        assert!(j_si > j_gnr, "Si {j_si:e} !> GNR {j_gnr:e}");
    }

    #[test]
    fn stress_ratio_flags_program_bias() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let (tox, cox) = d.stress_ratios(Voltage::from_volts(15.0), Voltage::ZERO, Charge::ZERO);
        // 18 MV/cm across the tunnel oxide exceeds SiO2 breakdown — the
        // paper's reliability warning.
        assert!(tox > 1.0);
        assert!(cox < 1.0);
    }

    #[test]
    fn temperature_raises_tunnel_flow() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let vfg = Voltage::from_volts(9.0);
        let cold = d.tunnel_flow_at(vfg, Voltage::ZERO, Temperature::from_kelvin(250.0));
        let hot = d.tunnel_flow_at(vfg, Voltage::ZERO, Temperature::from_kelvin(400.0));
        assert!(hot.as_amps_per_square_meter() > cold.as_amps_per_square_meter());
    }
}
