//! Device backends: one array stack, many cell physics.
//!
//! The engine and the array layer evolve a **1-D cell state** — a single
//! `f64` per cell whose meaning depends on the device technology:
//!
//! * floating-gate backends ([`BackendKind::GnrFloatingGate`],
//!   [`BackendKind::CntFloatingGate`]) store the floating-gate charge in
//!   coulombs and evolve it through the FN charge-balance ODE (with the
//!   flow-map / cycle-map memoization tiers);
//! * [`BackendKind::PcmResistive`] stores the amorphous phase fraction
//!   `a ∈ [0, 1]` of a phase-change element and evolves it through
//!   closed-form set/reset kinetics — no FN tunneling, no flow maps, the
//!   exact-path bookkeeping (`engine.flowmap.escapes`, the
//!   `flow_map_escape` journal event) records every pulse.
//!
//! [`DeviceBackend`] is the trait contract; [`CellBackend`] is the
//! concrete closed set the array layer ships. Every memoization key in
//! [`crate::engine`] folds [`BackendKind::fold_key`] over the raw
//! dynamics key so two backends can never alias a cache entry even if
//! their parameter bits collide.

use gnr_numerics::hash::{fnv1a_fold_f64, FNV1A_OFFSET, FNV1A_PRIME};

use crate::device::FloatingGateTransistor;
use crate::engine::ChargeBalanceEngine;
use crate::pulse::SquarePulse;
use crate::{DeviceError, Result};

/// The closed set of device technologies the stack ships.
///
/// `Copy` + unit-only so it can ride inside every snapshot, cache key
/// and telemetry record without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize)]
pub enum BackendKind {
    /// The paper's device: MLGNR channel, CNT floating gate, FN
    /// program/erase through the tunnel oxide. The default — every
    /// pre-backend API routes here bit-identically.
    #[default]
    GnrFloatingGate,
    /// CNT-channel floating gate (JETC 2015 sibling device): same FN
    /// charge-balance machinery with CNT band parameters, so the flow-map
    /// and cycle-map tiers apply unchanged.
    CntFloatingGate,
    /// Phase-change element with GNR electrodes (arXiv:1508.05109
    /// sibling): crystalline-fraction state, threshold-gated set/reset
    /// kinetics, no flow maps — exercises the exact-engine fallback.
    PcmResistive,
}

impl BackendKind {
    /// Stable lowercase name: the backend label of telemetry snapshots
    /// and journal events, and of the perfbench run header.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Self::GnrFloatingGate => "gnr-floating-gate",
            Self::CntFloatingGate => "cnt-floating-gate",
            Self::PcmResistive => "pcm-resistive",
        }
    }

    /// Small stable discriminant folded into every cache key.
    #[must_use]
    pub const fn discriminant(self) -> u64 {
        match self {
            Self::GnrFloatingGate => 0,
            Self::CntFloatingGate => 1,
            Self::PcmResistive => 2,
        }
    }

    /// Whether the flow-map / cycle-map memoization tiers apply: they
    /// tabulate FN pulse responses, so only floating-gate backends
    /// qualify — PCM pulses always take the exact path.
    #[must_use]
    pub const fn uses_flow_maps(self) -> bool {
        !matches!(self, Self::PcmResistive)
    }

    /// Folds this backend's discriminant into a raw dynamics key
    /// (FNV-1a step), yielding the backend-qualified key every
    /// memoization tier uses. Distinct backends over identical device
    /// bits therefore never alias.
    #[must_use]
    pub const fn fold_key(self, raw: u64) -> u64 {
        let h = (FNV1A_OFFSET ^ self.discriminant()).wrapping_mul(FNV1A_PRIME);
        (h ^ raw).wrapping_mul(FNV1A_PRIME)
    }
}

/// The 1-D cell-state contract every backend satisfies.
///
/// `state` is the single `f64` the array layer stores per cell: FG
/// charge in coulombs for floating-gate backends, amorphous fraction
/// for PCM. The trait is the abstraction seam; the hot array kernels
/// dispatch on [`CellBackend`] concretely so the FG paths stay
/// bit-identical to the pre-backend code.
pub trait DeviceBackend {
    /// Which technology this is.
    fn kind(&self) -> BackendKind;

    /// Stable display name (defaults to the kind's name).
    fn label(&self) -> &'static str {
        self.kind().name()
    }

    /// Backend-qualified dynamics key: the raw parameter digest with
    /// [`BackendKind::fold_key`] applied.
    fn dynamics_key(&self) -> u64;

    /// Threshold-voltage shift read out of the state (volts).
    fn vt_shift_volts(&self, state: f64) -> f64;

    /// Final state after one rectangular pulse.
    ///
    /// # Errors
    ///
    /// [`DeviceError::NoTunneling`] when the pulse is below the
    /// backend's activation threshold — callers treat it as a no-op,
    /// the same contract the FN engine uses for sub-threshold biases.
    fn pulse_final_state(&self, pulse: SquarePulse, state: f64) -> Result<f64>;

    /// Wear accumulated by a state transition, in the injected-charge
    /// units (coulombs) the endurance models consume.
    fn wear_increment(&self, from: f64, to: f64) -> f64;

    /// Charge-to-threshold conversion (farads) the reliability layer
    /// divides trap charge by; for PCM an *effective* capacitance
    /// chosen so the endurance models' trap offsets stay in volts.
    fn effective_cfc_farads(&self) -> f64;
}

/// Phase-change cell: amorphous-fraction state with threshold-gated
/// set/reset kinetics.
///
/// The state variable is the amorphous fraction `a ∈ [0, 1]`; the
/// threshold window maps linearly: `vt_shift = vt_window · a`. A pulse
/// at amplitude `V` with `|V|` below the switching threshold does
/// nothing (reads and pass-biases disturb nothing); above it, the
/// fraction relaxes exponentially toward the target phase with a rate
/// that grows exponentially in the overdrive:
///
/// ```text
/// r(V)      = r_ref · exp(k · (|V| − V_ref))
/// a' (set)  = 1 − (1 − a) · exp(−r·t)     (V > 0, amorphize)
/// a' (reset)=      a      · exp(−r·t)     (V < 0, crystallize)
/// ```
///
/// The constants are chosen so the stock ISPP ladders converge: the
/// 13→16 V program ladder reaches the +2 V verify level in two rungs
/// and the −13 V erase rung lands under the +0.3 V erase target in one.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct PcmDevice {
    /// Full threshold window at `a = 1` (volts).
    vt_window_volts: f64,
    /// Minimum `|V|` that moves the phase state (volts).
    switching_threshold_volts: f64,
    /// Amorphization rate at the reference amplitude (1/s).
    set_rate_hz: f64,
    /// Crystallization rate at the reference amplitude (1/s).
    reset_rate_hz: f64,
    /// Exponential overdrive sensitivity `k` (1/V).
    rate_exponent_per_volt: f64,
    /// Reference amplitude the rates are quoted at (volts).
    reference_volts: f64,
    /// Effective charge-to-threshold capacitance for the reliability
    /// models (farads).
    effective_cfc_farads: f64,
    /// Injected-charge equivalent per unit |Δa| (coulombs) — feeds the
    /// same wear column the FG backends fill with |ΔQ|.
    wear_scale_coulombs: f64,
}

impl PcmDevice {
    /// Nominal PCM-like element parameterized to the stock P/E recipes.
    #[must_use]
    pub const fn paper() -> Self {
        Self {
            vt_window_volts: 6.0,
            switching_threshold_volts: 12.0,
            set_rate_hz: 1.8e4,
            reset_rate_hz: 2.5e5,
            rate_exponent_per_volt: 1.1,
            reference_volts: 13.0,
            effective_cfc_farads: 1.0e-17,
            wear_scale_coulombs: 1.0e-16,
        }
    }

    /// Full threshold window at `a = 1` (volts).
    #[must_use]
    pub const fn vt_window_volts(&self) -> f64 {
        self.vt_window_volts
    }

    /// Minimum `|V|` that moves the phase state (volts).
    #[must_use]
    pub const fn switching_threshold_volts(&self) -> f64 {
        self.switching_threshold_volts
    }

    /// Effective charge-to-threshold capacitance (farads).
    #[must_use]
    pub const fn effective_cfc_farads(&self) -> f64 {
        self.effective_cfc_farads
    }

    /// Injected-charge equivalent per unit |Δa| (coulombs).
    #[must_use]
    pub const fn wear_scale_coulombs(&self) -> f64 {
        self.wear_scale_coulombs
    }

    /// Backend-qualified dynamics key over the parameter bits.
    #[must_use]
    pub fn dynamics_key(&self) -> u64 {
        let mut h = FNV1A_OFFSET;
        for v in [
            self.vt_window_volts,
            self.switching_threshold_volts,
            self.set_rate_hz,
            self.reset_rate_hz,
            self.rate_exponent_per_volt,
            self.reference_volts,
            self.effective_cfc_farads,
            self.wear_scale_coulombs,
        ] {
            h = fnv1a_fold_f64(h, v);
        }
        BackendKind::PcmResistive.fold_key(h)
    }

    /// Threshold shift read out of the fraction (volts).
    #[must_use]
    pub fn vt_shift_volts(&self, fraction: f64) -> f64 {
        self.vt_window_volts * fraction
    }

    /// Final amorphous fraction after one rectangular pulse, or `None`
    /// when `|V|` is below the switching threshold (sub-threshold
    /// no-op: reads, pass biases and soft-program floors all land
    /// here).
    #[must_use]
    pub fn pulse_final_fraction(
        &self,
        amplitude_volts: f64,
        width_seconds: f64,
        fraction: f64,
    ) -> Option<f64> {
        let magnitude = amplitude_volts.abs();
        if magnitude < self.switching_threshold_volts || width_seconds <= 0.0 {
            return None;
        }
        let overdrive = magnitude - self.reference_volts;
        let scale = (self.rate_exponent_per_volt * overdrive).exp();
        let rate = if amplitude_volts > 0.0 {
            self.set_rate_hz * scale
        } else {
            self.reset_rate_hz * scale
        };
        let decay = (-rate * width_seconds).exp();
        let next = if amplitude_volts > 0.0 {
            1.0 - (1.0 - fraction) * decay
        } else {
            fraction * decay
        };
        Some(next.clamp(0.0, 1.0))
    }

    /// Wear (injected-charge equivalent, coulombs) of a fraction move.
    #[must_use]
    pub fn wear_increment(&self, from: f64, to: f64) -> f64 {
        (to - from).abs() * self.wear_scale_coulombs
    }
}

/// The concrete backend value the array layer threads through the
/// blueprint/variant seam: a floating-gate device tagged with its
/// material kind, or a PCM element.
///
/// Use the constructors — they keep the tag honest (a
/// [`CellBackend::FloatingGate`] never carries
/// [`BackendKind::PcmResistive`]).
// One value per array construction, never per cell — the variant size
// gap doesn't matter, and boxing would cost an indirection on every
// engine build.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum CellBackend {
    /// FN floating-gate cell (GNR or CNT channel).
    FloatingGate {
        /// Which floating-gate material system this is.
        kind: BackendKind,
        /// The device whose charge-balance dynamics the engine evolves.
        device: FloatingGateTransistor,
    },
    /// Phase-change cell.
    Pcm(PcmDevice),
}

impl CellBackend {
    /// The paper's GNR floating-gate device as a backend.
    #[must_use]
    pub fn gnr(device: FloatingGateTransistor) -> Self {
        Self::FloatingGate {
            kind: BackendKind::GnrFloatingGate,
            device,
        }
    }

    /// A CNT-channel floating-gate device as a backend.
    #[must_use]
    pub fn cnt(device: FloatingGateTransistor) -> Self {
        Self::FloatingGate {
            kind: BackendKind::CntFloatingGate,
            device,
        }
    }

    /// A PCM element as a backend.
    #[must_use]
    pub fn pcm(device: PcmDevice) -> Self {
        Self::Pcm(device)
    }

    /// The nominal preset for a kind: the paper device for GNR,
    /// [`crate::presets::cnt_floating_gate`] for CNT,
    /// [`PcmDevice::paper`] for PCM.
    #[must_use]
    pub fn preset(kind: BackendKind) -> Self {
        match kind {
            BackendKind::GnrFloatingGate => Self::gnr(FloatingGateTransistor::mlgnr_cnt_paper()),
            BackendKind::CntFloatingGate => Self::cnt(crate::presets::cnt_floating_gate()),
            BackendKind::PcmResistive => Self::pcm(PcmDevice::paper()),
        }
    }

    /// Which technology this is.
    #[must_use]
    pub fn kind(&self) -> BackendKind {
        match self {
            Self::FloatingGate { kind, .. } => *kind,
            Self::Pcm(_) => BackendKind::PcmResistive,
        }
    }

    /// The floating-gate device, when this is a floating-gate backend.
    #[must_use]
    pub fn floating_gate_device(&self) -> Option<&FloatingGateTransistor> {
        match self {
            Self::FloatingGate { device, .. } => Some(device),
            Self::Pcm(_) => None,
        }
    }

    /// The PCM element, when this is the PCM backend.
    #[must_use]
    pub fn pcm_device(&self) -> Option<&PcmDevice> {
        match self {
            Self::FloatingGate { .. } => None,
            Self::Pcm(d) => Some(d),
        }
    }
}

impl DeviceBackend for CellBackend {
    fn kind(&self) -> BackendKind {
        self.kind()
    }

    fn dynamics_key(&self) -> u64 {
        match self {
            Self::FloatingGate { kind, device } => kind.fold_key(device.dynamics_key()),
            Self::Pcm(d) => d.dynamics_key(),
        }
    }

    fn vt_shift_volts(&self, state: f64) -> f64 {
        match self {
            Self::FloatingGate { device, .. } => {
                let cfc = device.capacitances().cfc().as_farads();
                -(state / cfc)
            }
            Self::Pcm(d) => d.vt_shift_volts(state),
        }
    }

    fn pulse_final_state(&self, pulse: SquarePulse, state: f64) -> Result<f64> {
        match self {
            Self::FloatingGate { kind, device } => {
                let engine = ChargeBalanceEngine::new_for(*kind, device);
                let spec = crate::transient::ProgramPulseSpec::from_pulse(
                    pulse,
                    gnr_units::Charge::from_coulombs(state),
                );
                let q = engine.pulse_final_charge(&spec)?;
                Ok(q.as_coulombs())
            }
            Self::Pcm(d) => d
                .pulse_final_fraction(pulse.amplitude.as_volts(), pulse.width.as_seconds(), state)
                .ok_or(DeviceError::NoTunneling {
                    vgs: pulse.amplitude.as_volts(),
                }),
        }
    }

    fn wear_increment(&self, from: f64, to: f64) -> f64 {
        match self {
            Self::FloatingGate { .. } => (to - from).abs(),
            Self::Pcm(d) => d.wear_increment(from, to),
        }
    }

    fn effective_cfc_farads(&self) -> f64 {
        match self {
            Self::FloatingGate { device, .. } => device.capacitances().cfc().as_farads(),
            Self::Pcm(d) => d.effective_cfc_farads(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_key_separates_backends_over_identical_bits() {
        let raw = 0xdead_beef_u64;
        let gnr = BackendKind::GnrFloatingGate.fold_key(raw);
        let cnt = BackendKind::CntFloatingGate.fold_key(raw);
        let pcm = BackendKind::PcmResistive.fold_key(raw);
        assert_ne!(gnr, cnt);
        assert_ne!(gnr, pcm);
        assert_ne!(cnt, pcm);
    }

    #[test]
    fn pcm_sub_threshold_is_a_no_op() {
        let d = PcmDevice::paper();
        // Reads (2 V), pass biases (7 V / 5 V) and the 11 V soft-program
        // floor all sit below the 12 V switching threshold.
        for v in [2.0, 5.0, 7.0, 11.0, -11.0] {
            assert!(d.pulse_final_fraction(v, 1.0e-4, 0.5).is_none());
        }
    }

    #[test]
    fn pcm_ispp_ladder_converges() {
        let d = PcmDevice::paper();
        // Program ladder (13 V, 13.5 V … at 10 µs) reaches the +2 V
        // verify level within two rungs.
        let a1 = d.pulse_final_fraction(13.0, 1.0e-5, 0.0).unwrap();
        assert!(d.vt_shift_volts(a1) < 2.0, "one rung should not suffice");
        let a2 = d.pulse_final_fraction(13.5, 1.0e-5, a1).unwrap();
        assert!(d.vt_shift_volts(a2) >= 2.0, "two rungs reach verify");
        // Erase: one −13 V rung lands under the +0.3 V erase target.
        let e = d.pulse_final_fraction(-13.0, 1.0e-5, a2).unwrap();
        assert!(d.vt_shift_volts(e) <= 0.3);
    }

    #[test]
    fn pcm_fraction_stays_clamped() {
        let d = PcmDevice::paper();
        let a = d.pulse_final_fraction(16.0, 1.0, 0.9).unwrap();
        assert!(a <= 1.0);
        let b = d.pulse_final_fraction(-16.0, 1.0, 0.1).unwrap();
        assert!(b >= 0.0);
    }

    #[test]
    fn cell_backend_tags_are_honest() {
        let gnr = CellBackend::preset(BackendKind::GnrFloatingGate);
        assert_eq!(gnr.kind(), BackendKind::GnrFloatingGate);
        assert!(gnr.floating_gate_device().is_some());
        assert!(gnr.pcm_device().is_none());
        let pcm = CellBackend::preset(BackendKind::PcmResistive);
        assert_eq!(pcm.kind(), BackendKind::PcmResistive);
        assert!(pcm.pcm_device().is_some());
    }

    #[test]
    fn backend_dynamics_keys_differ() {
        let gnr = CellBackend::preset(BackendKind::GnrFloatingGate);
        let pcm = CellBackend::preset(BackendKind::PcmResistive);
        assert_ne!(
            DeviceBackend::dynamics_key(&gnr),
            DeviceBackend::dynamics_key(&pcm)
        );
        // Same device bits under two FG kinds must not alias either.
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let as_gnr = CellBackend::gnr(device.clone());
        let as_cnt = CellBackend::cnt(device);
        assert_ne!(
            DeviceBackend::dynamics_key(&as_gnr),
            DeviceBackend::dynamics_key(&as_cnt)
        );
    }
}
