//! The batched, cache-backed charge-balance simulation engine.
//!
//! # Why this layer exists
//!
//! The paper's central computation is the charge balance
//! `dQFG/dt = A·(J_control − J_tunnel)` (Figures 4–9 are all views of
//! it). The seed implementation evaluated both FN exponentials inside
//! the ODE right-hand side on every step of every pulse of every cell —
//! an array-level operation (page program, block erase, ISPP ladder)
//! re-derived the same `J(E)` curves thousands of times, serially.
//!
//! This module splits the computation into reusable pieces:
//!
//! * **[`table::TabulatedJ`]** — a tunneling model memoized as a
//!   log-space `J(E)` lookup on `gnr_numerics::interp`: `ln J` sampled
//!   over a uniform `ln E` grid, two array reads + one `exp` per query,
//!   exact-model fallback outside the tabulated range. Relative error
//!   is bounded by the grid curvature (`≲0.1 %`, pinned by a proptest).
//! * **[`cache`]** — a process-wide table cache keyed on the FN
//!   `(A, B)` coefficient bits. Every cell of an array, every GCR/XTO
//!   variant of a sweep, and every worker thread share the same four
//!   path tables, built once. [`cache::stats`] exposes hit/miss/entry
//!   telemetry for both this cache and the flow-map cache below.
//! * **[`flowmap`]** — the trajectory tier: for a fixed pulse bias the
//!   charge balance is a 1-D *autonomous* ODE, so one dense master
//!   trajectory per `(device dynamics, pulse bias)` answers any
//!   `(Q0, Δt)` fixed-width pulse with two monotone interpolations
//!   ([`ChargeBalanceEngine::pulse_final_charge`], gated by
//!   [`EngineMode`]), with exact fallback outside the tabulated charge
//!   range or time horizon.
//! * **[`ChargeBalanceEngine`]** — owns a device plus four pluggable
//!   [`TunnelingModel`] paths (channel→FG, FG→channel, FG→gate,
//!   gate→FG) and runs the adaptive Dopri45 charge-balance loop that
//!   used to live inside `transient.rs`. `TransientSimulator` is now a
//!   thin facade over this type, so the sequential and batched paths
//!   execute byte-for-byte the same code.
//! * **[`batch::BatchSimulator`]** — rayon fan-out of independent
//!   engine runs (one per [`ProgramPulseSpec`] or per array cell),
//!   order-preserving and deterministic, which is what makes the
//!   "many cells are programmed at a time" NAND story (§II of the
//!   paper) actually parallel in this codebase.
//!
//! # Determinism
//!
//! A batched run is *bit-identical* to the equivalent sequential run:
//! each unit of work owns its integration state, the shared tables are
//! immutable after construction, and the fan-out preserves input order.
//! `tests/batch_parity.rs` asserts this end to end.

pub mod batch;
pub mod cache;
pub mod cyclemap;
pub mod flowmap;
pub mod table;

use std::fmt;
use std::sync::Arc;

use gnr_numerics::ode::{CrossingDirection, Dopri45, Event, OdeOptions};
use gnr_tunneling::TunnelingModel;
use gnr_units::{Charge, CurrentDensity, Voltage};

use crate::backend::BackendKind;
use crate::device::{FloatingGateTransistor, TunnelingState};
use crate::transient::{ProgramPulseSpec, TransientResult, TransientSample};
use crate::{DeviceError, Result};

pub use batch::BatchSimulator;
pub use cyclemap::{cycle_once, CycleMap, CycleOutcome, CycleRecipe};
pub use flowmap::PulseFlowMap;
pub use table::TabulatedJ;

/// Charging rates below this magnitude (A) count as "no tunneling":
/// [`ChargeBalanceEngine::run`] and
/// [`ChargeBalanceEngine::pulse_final_charge`] reject such bias points
/// with [`DeviceError::NoTunneling`], and the flow map does not build
/// branches from start points under it. One constant, three call sites
/// — the contracts must never drift apart.
pub(crate) const MIN_TUNNELING_RATE_AMPS: f64 = 1.0e-32;

/// How the engine answers fixed-duration pulse queries
/// ([`ChargeBalanceEngine::pulse_final_charge`]).
///
/// Full transients ([`ChargeBalanceEngine::run`]) always integrate
/// exactly — the mode only governs the final-charge fast path the array
/// layer rides (ISPP rungs, page programs, block erases).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub enum EngineMode {
    /// Adaptive Dopri45 integration per pulse — the historical path,
    /// kept as the escape hatch for accuracy cross-checks.
    Exact,
    /// Answer from the process-wide [`flowmap`] cache: one master
    /// integration per `(device dynamics, pulse bias)`, two monotone
    /// interpolations per query, exact fallback outside the tabulated
    /// charge range or past the integrated horizon.
    ///
    /// The win assumes `(device, bias)` pairs recur — which they do for
    /// uniform and few-variant arrays (every production-scale path
    /// here). A Monte-Carlo population whose every cell carries unique
    /// continuous variation deltas makes every key single-use: each
    /// pulse then pays a master build instead of one integration.
    /// Select [`EngineMode::Exact`] (via
    /// [`BatchSimulator::with_mode`]) for such per-cell-unique sweeps.
    #[default]
    FlowMap,
}

/// The four directional tunneling paths of the cell (paper Figure 3/4),
/// as pluggable current models.
#[derive(Clone)]
pub struct TunnelPaths {
    /// Channel → floating gate through the tunnel oxide (program `Jin`).
    pub channel_emit: Arc<dyn TunnelingModel>,
    /// Floating gate → channel through the tunnel oxide (erase).
    pub fg_emit_tunnel: Arc<dyn TunnelingModel>,
    /// Floating gate → control gate through the control oxide (`Jout`).
    pub fg_emit_control: Arc<dyn TunnelingModel>,
    /// Control gate → floating gate through the control oxide.
    pub gate_emit: Arc<dyn TunnelingModel>,
}

impl TunnelPaths {
    /// Cache-backed tables for the device's four FN paths under the
    /// default [`BackendKind::GnrFloatingGate`] backend.
    #[must_use]
    pub fn cached(device: &FloatingGateTransistor) -> Self {
        Self::cached_for(BackendKind::GnrFloatingGate, device)
    }

    /// Cache-backed tables for the device's four FN paths, keyed under
    /// `backend` so two backends sharing coefficient bits never alias a
    /// table entry.
    #[must_use]
    pub fn cached_for(backend: BackendKind, device: &FloatingGateTransistor) -> Self {
        Self {
            channel_emit: cache::tabulated_for(backend, device.channel_emission_model()),
            fg_emit_tunnel: cache::tabulated_for(backend, device.fg_emission_model()),
            fg_emit_control: cache::tabulated_for(backend, device.fg_control_emission_model()),
            gate_emit: cache::tabulated_for(backend, device.gate_emission_model()),
        }
    }

    /// Exact (untabulated) FN evaluation — the seed behaviour, kept for
    /// accuracy cross-checks.
    #[must_use]
    pub fn exact(device: &FloatingGateTransistor) -> Self {
        Self {
            channel_emit: Arc::new(*device.channel_emission_model()),
            fg_emit_tunnel: Arc::new(*device.fg_emission_model()),
            fg_emit_control: Arc::new(*device.fg_control_emission_model()),
            gate_emit: Arc::new(*device.gate_emission_model()),
        }
    }
}

impl fmt::Debug for TunnelPaths {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TunnelPaths")
            .field("channel_emit", &self.channel_emit.name())
            .field("fg_emit_tunnel", &self.fg_emit_tunnel.name())
            .field("fg_emit_control", &self.fg_emit_control.name())
            .field("gate_emit", &self.gate_emit.name())
            .finish()
    }
}

/// The charge-balance engine: a device, four pluggable tunneling paths
/// and the adaptive integration loop behind every transient in the
/// workspace.
#[derive(Debug, Clone)]
pub struct ChargeBalanceEngine {
    device: FloatingGateTransistor,
    paths: TunnelPaths,
    ode_options: OdeOptions,
    saturation_fraction: f64,
    mode: EngineMode,
    /// `true` when the paths are the standard cache-backed tables of
    /// [`TunnelPaths::cached`]. The flow-map cache keys on the *device*
    /// (its dynamics digest), so only engines whose current models are
    /// the canonical device tables may share it — custom paths
    /// ([`Self::with_paths`]) always integrate exactly.
    standard_paths: bool,
    /// `true` once [`Self::with_ode_options`] overrode the defaults.
    /// Custom tolerances mean the caller wants *that* integration
    /// accuracy, which the flow map (built at its own fixed tolerance)
    /// cannot honour — such engines answer pulse queries exactly.
    custom_ode_options: bool,
    /// The device backend this engine's dynamics belong to — folded
    /// into [`Self::device_key`] so every memoization tier (J-tables,
    /// flow maps, cycle maps) is backend-disjoint.
    backend: BackendKind,
    /// [`BackendKind::fold_key`] over the owned device's
    /// [`FloatingGateTransistor::dynamics_key`], computed once at
    /// construction so the per-pulse flow-map lookup does not re-hash
    /// the (immutable) device parameters.
    device_key: u64,
}

impl ChargeBalanceEngine {
    /// Builds the engine with cache-backed `J(E)` tables and default
    /// tolerances (rtol 1e-8, atol 1e-10, saturation at 1 % of the
    /// initial net current) under the default
    /// [`BackendKind::GnrFloatingGate`] backend.
    #[must_use]
    pub fn new(device: &FloatingGateTransistor) -> Self {
        Self::new_for(BackendKind::GnrFloatingGate, device)
    }

    /// [`Self::new`] under an explicit floating-gate backend: the four
    /// `J(E)` tables and the engine's [`Self::device_key`] are keyed on
    /// `(backend, dynamics)` so CNT and GNR devices sharing parameter
    /// bits never alias a cache entry at any memoization tier.
    #[must_use]
    pub fn new_for(backend: BackendKind, device: &FloatingGateTransistor) -> Self {
        let paths = TunnelPaths::cached_for(backend, device);
        let mut engine = Self::with_paths(device, paths);
        engine.standard_paths = true;
        engine.backend = backend;
        engine.device_key = backend.fold_key(device.dynamics_key());
        engine
    }

    /// Builds the engine around explicit current models (exact FN, WKB,
    /// image-force FN, CHE surrogates, …). Custom-path engines never
    /// consult the flow-map cache (its keys identify the *device*, not
    /// the models), so every pulse integrates exactly.
    #[must_use]
    pub fn with_paths(device: &FloatingGateTransistor, paths: TunnelPaths) -> Self {
        Self {
            device: device.clone(),
            paths,
            ode_options: OdeOptions::with_tolerances(1.0e-8, 1.0e-10),
            saturation_fraction: 0.01,
            mode: EngineMode::default(),
            standard_paths: false,
            custom_ode_options: false,
            backend: BackendKind::GnrFloatingGate,
            device_key: BackendKind::GnrFloatingGate.fold_key(device.dynamics_key()),
        }
    }

    /// Selects how fixed-duration pulse queries are answered (see
    /// [`EngineMode`]); [`EngineMode::Exact`] is the cross-check escape
    /// hatch.
    #[must_use]
    pub fn with_mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// The engine's pulse-query mode.
    #[must_use]
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// The backend this engine's dynamics belong to.
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The backend-qualified dynamics key
    /// ([`BackendKind::fold_key`] over the owned device's
    /// [`FloatingGateTransistor::dynamics_key`]), memoized at
    /// construction (the flow-map cache key component).
    #[must_use]
    pub fn device_key(&self) -> u64 {
        self.device_key
    }

    /// Overrides the ODE solver options.
    ///
    /// Custom options also opt pulse queries out of the flow-map fast
    /// path: [`Self::pulse_final_charge`] then integrates at exactly
    /// these tolerances instead of answering from a master trajectory
    /// built at the map's own fixed tolerance — a convergence
    /// cross-check engine behaves as requested without needing
    /// [`EngineMode::Exact`] spelled out.
    #[must_use]
    pub fn with_ode_options(mut self, opts: OdeOptions) -> Self {
        self.ode_options = opts;
        self.custom_ode_options = true;
        self
    }

    /// Overrides the saturation detection fraction: `t_sat` fires when
    /// `|Jout|` reaches `(1 − fraction)·|Jin|`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction < 1`.
    #[must_use]
    pub fn with_saturation_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "saturation fraction must be in (0, 1)"
        );
        self.saturation_fraction = fraction;
        self
    }

    /// The device this engine simulates.
    #[must_use]
    pub fn device(&self) -> &FloatingGateTransistor {
        &self.device
    }

    /// The current models on the four tunneling paths.
    #[must_use]
    pub fn paths(&self) -> &TunnelPaths {
        &self.paths
    }

    /// Signed electron flow through the tunnel oxide via the engine's
    /// path models (table-backed by default).
    #[must_use]
    pub fn tunnel_flow(&self, vfg: Voltage, vs: Voltage) -> CurrentDensity {
        crate::device::signed_flow(
            self.device.tunnel_oxide_field(vfg, vs),
            self.paths.channel_emit.as_ref(),
            self.paths.fg_emit_tunnel.as_ref(),
        )
    }

    /// Signed electron flow through the control oxide via the engine's
    /// path models.
    #[must_use]
    pub fn control_flow(&self, vgs: Voltage, vfg: Voltage) -> CurrentDensity {
        crate::device::signed_flow(
            self.device.control_oxide_field(vgs, vfg),
            self.paths.fg_emit_control.as_ref(),
            self.paths.gate_emit.as_ref(),
        )
    }

    /// Full tunneling state at a bias point — the engine-side mirror of
    /// [`FloatingGateTransistor::tunneling_state`].
    #[must_use]
    pub fn tunneling_state(&self, vgs: Voltage, vs: Voltage, qfg: Charge) -> TunnelingState {
        let vfg = self.device.floating_gate_voltage(vgs, qfg);
        let jt = self.tunnel_flow(vfg, vs);
        let jc = self.control_flow(vgs, vfg);
        let area = self.device.geometry().gate_area();
        let dq_dt = area.as_square_meters()
            * (jc.as_amps_per_square_meter() - jt.as_amps_per_square_meter());
        TunnelingState {
            vfg,
            tunnel_flow: jt,
            control_flow: jc,
            charge_rate_amps: dq_dt,
        }
    }

    /// Runs one transient (the charge-balance loop formerly inside
    /// `TransientSimulator::run`).
    ///
    /// # Errors
    ///
    /// [`DeviceError::NoTunneling`] when the bias point produces no
    /// measurable charging current; [`DeviceError::Numerics`] if the
    /// integrator fails.
    pub fn run(&self, spec: &ProgramPulseSpec) -> Result<TransientResult> {
        let ct = self.device.capacitances().total();
        let y0 = spec.initial_charge.as_coulombs() / ct.as_farads();

        let s0 = self.tunneling_state(spec.vgs, spec.vs, spec.initial_charge);
        let i0 = s0.charge_rate_amps.abs();
        if i0 < MIN_TUNNELING_RATE_AMPS {
            return Err(DeviceError::NoTunneling {
                vgs: spec.vgs.as_volts(),
            });
        }
        // Initial time constant: move CT·1V at the initial rate.
        let tau0 = ct.as_farads() / i0;

        match spec.duration {
            Some(d) => self.run_windows(spec, y0, [d.as_seconds()], false),
            None => {
                // Find t_sat with a terminal event, widening the window
                // geometrically (the flows approach each other over many
                // decades of time) on one resumed integration.
                let windows = std::iter::successors(Some(1.0e4 * tau0), |t| Some(t * 1.0e3));
                let probe = self.run_windows(spec, y0, windows.take(5), true)?;
                match probe.saturation_time() {
                    Some(ts) => self.run_windows(spec, y0, [1.5 * ts.as_seconds()], false),
                    // No balance within 1e19·τ0: the probe is the longest
                    // trace, and with no event fired it is also the
                    // non-terminal one.
                    None => Ok(probe),
                }
            }
        }
    }

    /// Final stored charge after one fixed-duration pulse — the
    /// array-layer hot path (ISPP rungs, page programs, block erases,
    /// soft-program compaction), which needs only where the charge
    /// *lands*, not the trace.
    ///
    /// In [`EngineMode::FlowMap`] (the default for table-backed engines)
    /// the answer comes from the process-wide [`flowmap`] cache: one
    /// master integration per `(device dynamics, pulse bias)` ever, two
    /// monotone interpolations per query. Queries outside the tabulated
    /// charge range, past the integrated horizon, saturation-seeking
    /// specs (`duration: None`), custom-path engines and engines with
    /// overridden ODE tolerances ([`Self::with_ode_options`]) fall back
    /// to the exact integration of [`Self::run`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::run`]:
    /// [`DeviceError::NoTunneling`] below the tunneling floor at the
    /// spec's own initial charge, [`DeviceError::Numerics`] if the
    /// fallback integrator fails.
    pub fn pulse_final_charge(&self, spec: &ProgramPulseSpec) -> Result<Charge> {
        if self.mode == EngineMode::FlowMap && self.standard_paths && !self.custom_ode_options {
            if let Some(duration) = spec.duration {
                // The NoTunneling contract must hold at the spec's *own*
                // initial charge even when the map could answer (its
                // tabulated span may tunnel where the cell does not);
                // every fallback path below re-enforces it inside
                // `run()`, so the guard lives only on the hit path.
                let s0 = self.tunneling_state(spec.vgs, spec.vs, spec.initial_charge);
                if s0.charge_rate_amps.abs() < MIN_TUNNELING_RATE_AMPS {
                    return Err(DeviceError::NoTunneling {
                        vgs: spec.vgs.as_volts(),
                    });
                }
                let map = flowmap::cached(self, spec.vgs, spec.vs);
                gnr_telemetry::counter_add!("engine.flowmap.queries", 1);
                if let Some(q) =
                    map.final_charge(spec.initial_charge.as_coulombs(), duration.as_seconds())
                {
                    gnr_telemetry::counter_add!("engine.flowmap.answers", 1);
                    return Ok(Charge::from_coulombs(q));
                }
                gnr_telemetry::counter_add!("engine.flowmap.escapes", 1);
            }
        }
        self.run(spec).map(|r| r.final_charge())
    }

    /// The shared [`cyclemap::CycleMap`] for this engine's device and a
    /// P/E cycle `recipe` — the time-scale-jumping tier above the flow
    /// map. `None` whenever fixed-pulse queries would not ride the flow
    /// map either (exact mode, custom paths, overridden tolerances):
    /// an interpolated multi-cycle jump has no business answering for
    /// an engine whose per-pulse contract is exact integration, so
    /// callers must then iterate cycles explicitly (e.g. through
    /// [`cyclemap::cycle_once`], which honours this engine's own
    /// per-pulse path).
    #[must_use]
    pub fn cycle_map(&self, recipe: &cyclemap::CycleRecipe) -> Option<Arc<CycleMap>> {
        (self.mode == EngineMode::FlowMap && self.standard_paths && !self.custom_ode_options)
            .then(|| cyclemap::cached(self, recipe))
    }

    /// Column-batched form of [`Self::pulse_final_charge`]: final
    /// charges after one shared fixed-width `pulse` applied to a whole
    /// column of initial charges (coulombs), index-aligned with `q0s`.
    /// This is the array layer's kernel entry point — a cell-state group
    /// column of a page program, ISPP rung or block erase dispatches
    /// here as a single call.
    ///
    /// On the flow-map path the `(device dynamics, pulse bias)` cache
    /// entry is resolved **once per call** — one probe, one `Arc`
    /// clone, one relaxed hit/miss update for the whole column — and
    /// the queries run through [`PulseFlowMap::final_charges_batch`] in
    /// charge-sorted order (a permutation sort here; answers scatter
    /// back to input order). Every element is bit-identical to calling
    /// [`Self::pulse_final_charge`] with the same `(pulse, q0)`: map
    /// queries are pure, declined cells (the kernel's per-query
    /// fallback flags) integrate through the verbatim exact path, and
    /// the [`DeviceError::NoTunneling`] floor is enforced per query at
    /// its own initial charge. Engines that never consult the flow map
    /// (exact mode, custom paths or tolerances) take the per-query
    /// scalar loop unchanged.
    ///
    /// # Errors
    ///
    /// Per element, the same contract as [`Self::pulse_final_charge`].
    pub fn pulse_final_charges(
        &self,
        pulse: crate::pulse::SquarePulse,
        q0s: &[f64],
    ) -> Vec<Result<Charge>> {
        if q0s.is_empty() {
            return Vec::new();
        }
        let _zone = gnr_telemetry::zone!("engine.pulse_batch");
        let eligible =
            self.mode == EngineMode::FlowMap && self.standard_paths && !self.custom_ode_options;
        if !eligible {
            return q0s
                .iter()
                .map(|&q0| {
                    self.pulse_final_charge(&ProgramPulseSpec::from_pulse(
                        pulse,
                        Charge::from_coulombs(q0),
                    ))
                })
                .collect();
        }
        let vgs = pulse.amplitude;
        let vs = Voltage::ZERO; // matches ProgramPulseSpec::from_pulse
        let map = flowmap::cached(self, vgs, vs);
        let mut order: Vec<usize> = (0..q0s.len()).collect();
        order.sort_by(|&a, &b| q0s[a].total_cmp(&q0s[b]));
        let sorted: Vec<f64> = order.iter().map(|&i| q0s[i]).collect();
        let mut sorted_out = vec![None; q0s.len()];
        map.final_charges_batch(&sorted, pulse.width.as_seconds(), &mut sorted_out);
        let escaped = sorted_out.iter().filter(|a| a.is_none()).count() as u64;
        gnr_telemetry::counter_add!("engine.flowmap.queries", q0s.len() as u64);
        gnr_telemetry::counter_add!("engine.flowmap.answers", q0s.len() as u64 - escaped);
        gnr_telemetry::counter_add!("engine.flowmap.escapes", escaped);
        if escaped > 0 {
            // One aggregated event per column keeps the journal
            // deterministic: this kernel always runs on the caller
            // thread (the array layer buckets columns sequentially).
            gnr_telemetry::journal::record(gnr_telemetry::journal::EventKind::FlowMapEscape {
                queries: escaped,
            });
        }
        let mut answers = vec![None; q0s.len()];
        for (&i, &a) in order.iter().zip(&sorted_out) {
            answers[i] = a;
        }
        q0s.iter()
            .zip(answers)
            .map(|(&q0, answer)| {
                let q0 = Charge::from_coulombs(q0);
                // Scalar contract, per query: the tunneling floor holds
                // at the cell's own charge (the map is consulted first
                // here, but its query is pure, so the reordering is
                // unobservable), and declined cells escape to the exact
                // integration verbatim.
                let s0 = self.tunneling_state(vgs, vs, q0);
                if s0.charge_rate_amps.abs() < MIN_TUNNELING_RATE_AMPS {
                    return Err(DeviceError::NoTunneling {
                        vgs: vgs.as_volts(),
                    });
                }
                match answer {
                    Some(q) => Ok(Charge::from_coulombs(q)),
                    None => self
                        .run(&ProgramPulseSpec::from_pulse(pulse, q0))
                        .map(|r| r.final_charge()),
                }
            })
            .collect()
    }

    /// Integrates `spec` from `y0` through the window ends `t_ends`, each
    /// a resumed extension of the last, and stops early at a window that
    /// the saturation event ends when it is `terminal`. The result is the
    /// one a single integration to the last window reached returns.
    fn run_windows(
        &self,
        spec: &ProgramPulseSpec,
        y0: f64,
        t_ends: impl IntoIterator<Item = f64>,
        terminal: bool,
    ) -> Result<TransientResult> {
        let _zone = gnr_telemetry::zone!("engine.ode");
        let ct = self.device.capacitances().total().as_farads();
        let vgs = spec.vgs;
        let vs = spec.vs;

        let rhs = |_t: f64, y: &[f64], dydt: &mut [f64]| {
            let q = Charge::from_coulombs(y[0] * ct);
            let state = self.tunneling_state(vgs, vs, q);
            dydt[0] = state.charge_rate_amps / ct;
        };

        // Saturation = the paper's Jin/Jout crossing: fires when the
        // smaller flow reaches (1 − fraction) of the larger one.
        let balance = 1.0 - self.saturation_fraction;
        let sat_condition = move |_t: f64, y: &[f64]| {
            let q = Charge::from_coulombs(y[0] * ct);
            let state = self.tunneling_state(vgs, vs, q);
            let j_in = state.tunnel_flow.abs().as_amps_per_square_meter();
            let j_out = state.control_flow.abs().as_amps_per_square_meter();
            balance * j_in - j_out
        };
        let event = Event {
            label: "saturation",
            condition: &sat_condition,
            direction: CrossingDirection::Falling,
            terminal,
        };

        let events = [event];
        let solver = Dopri45::new(self.ode_options.clone());
        let mut run = solver.start(rhs, 0.0, &[y0], &events)?;
        for t_end in t_ends {
            if run.advance_to(t_end)? {
                break;
            }
        }
        let rhs_evals = run.rhs_evaluations();
        let (sol, hits) = run.into_parts();

        let samples: Vec<TransientSample> = sol
            .times()
            .iter()
            .zip(sol.states())
            .map(|(&t, y)| {
                let q = Charge::from_coulombs(y[0] * ct);
                let state = self.tunneling_state(vgs, vs, q);
                TransientSample {
                    t,
                    charge: q.as_coulombs(),
                    vfg: state.vfg.as_volts(),
                    j_in: state.tunnel_flow.abs().as_amps_per_square_meter(),
                    j_out: state.control_flow.abs().as_amps_per_square_meter(),
                }
            })
            .collect();

        gnr_telemetry::counter_add!("engine.ode.integrations", 1);
        gnr_telemetry::counter_add!("engine.ode.steps", sol.accepted_steps() as u64);
        gnr_telemetry::counter_add!("engine.ode.rhs_evals", rhs_evals as u64);

        let first_hit = hits.first();
        Ok(TransientResult::from_parts(
            *spec,
            samples,
            first_hit.map(|h| h.t),
            first_hit.map(|h| h.state[0] * ct),
            sol.accepted_steps(),
            sol.rhs_evaluations(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use gnr_units::Time;

    #[test]
    fn engine_matches_device_state_to_table_accuracy() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let engine = ChargeBalanceEngine::new(&device);
        let vgs = presets::program_vgs();
        let exact = device.tunneling_state(vgs, Voltage::ZERO, Charge::ZERO);
        let tabbed = engine.tunneling_state(vgs, Voltage::ZERO, Charge::ZERO);
        assert_eq!(exact.vfg, tabbed.vfg, "eq. (3) is not interpolated");
        let rel = ((tabbed.tunnel_flow.as_amps_per_square_meter()
            - exact.tunnel_flow.as_amps_per_square_meter())
            / exact.tunnel_flow.as_amps_per_square_meter())
        .abs();
        assert!(rel < 1.0e-3, "table error {rel:e}");
    }

    #[test]
    fn exact_paths_reproduce_device_flows_bitwise() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let engine = ChargeBalanceEngine::with_paths(&device, TunnelPaths::exact(&device));
        let vgs = presets::program_vgs();
        for q_e in [-50.0, 0.0, 25.0] {
            let q = Charge::from_electrons(q_e);
            let a = device.tunneling_state(vgs, Voltage::ZERO, q);
            let b = engine.tunneling_state(vgs, Voltage::ZERO, q);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn backend_engines_separate_keys_but_gnr_stays_the_default() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let gnr = ChargeBalanceEngine::new(&device);
        let gnr2 = ChargeBalanceEngine::new_for(BackendKind::GnrFloatingGate, &device);
        let cnt = ChargeBalanceEngine::new_for(BackendKind::CntFloatingGate, &device);
        assert_eq!(gnr.backend(), BackendKind::GnrFloatingGate);
        assert_eq!(gnr.device_key(), gnr2.device_key());
        assert_ne!(
            gnr.device_key(),
            cnt.device_key(),
            "same device bits under two backends must not share flow/cycle keys"
        );
        assert_eq!(cnt.backend(), BackendKind::CntFloatingGate);
    }

    #[test]
    fn engine_run_reaches_saturation_like_the_seed() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let engine = ChargeBalanceEngine::new(&device);
        let result = engine
            .run(&ProgramPulseSpec::program(presets::program_vgs()))
            .unwrap();
        assert!(result.saturation_time().is_some());
        assert!(result.final_charge().as_coulombs() < 0.0);
    }

    #[test]
    fn engine_rejects_sub_threshold_bias() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let engine = ChargeBalanceEngine::new(&device);
        let err = engine.run(&ProgramPulseSpec::program(Voltage::from_volts(1.0)));
        assert!(matches!(err, Err(DeviceError::NoTunneling { .. })));
    }

    #[test]
    fn pulse_final_charge_matches_exact_mode_within_parity() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let fast = ChargeBalanceEngine::new(&device);
        let exact = ChargeBalanceEngine::new(&device).with_mode(EngineMode::Exact);
        assert_eq!(fast.mode(), EngineMode::FlowMap);
        assert_eq!(exact.mode(), EngineMode::Exact);
        let spec = ProgramPulseSpec::program(presets::program_vgs())
            .with_duration(Time::from_microseconds(10.0));
        let qf = fast.pulse_final_charge(&spec).unwrap().as_coulombs();
        let qe = exact.pulse_final_charge(&spec).unwrap().as_coulombs();
        let rel = ((qf - qe) / qe.abs().max(1e-30)).abs();
        assert!(rel < 1.0e-6, "flow-map vs exact rel err {rel:e}");
    }

    #[test]
    fn exact_mode_reproduces_run_bitwise() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let engine = ChargeBalanceEngine::new(&device).with_mode(EngineMode::Exact);
        let spec = ProgramPulseSpec::program(presets::program_vgs())
            .with_duration(Time::from_microseconds(25.0));
        assert_eq!(
            engine.pulse_final_charge(&spec).unwrap(),
            engine.run(&spec).unwrap().final_charge()
        );
    }

    #[test]
    fn custom_ode_options_opt_out_of_the_flow_map() {
        // A convergence cross-check engine must integrate at its
        // requested tolerances, not answer from the fixed-tolerance
        // master trajectory.
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let engine = ChargeBalanceEngine::new(&device)
            .with_ode_options(OdeOptions::with_tolerances(1.0e-12, 1.0e-14));
        assert_eq!(engine.mode(), EngineMode::FlowMap, "mode is untouched");
        let spec = ProgramPulseSpec::program(presets::program_vgs())
            .with_duration(Time::from_microseconds(10.0));
        assert_eq!(
            engine.pulse_final_charge(&spec).unwrap(),
            engine.run(&spec).unwrap().final_charge(),
            "custom tolerances must reach the pulse query bit-for-bit"
        );
    }

    #[test]
    fn custom_path_engines_never_consult_the_flow_map() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let engine = ChargeBalanceEngine::with_paths(&device, TunnelPaths::exact(&device));
        assert!(!engine.standard_paths);
        let spec = ProgramPulseSpec::program(presets::program_vgs())
            .with_duration(Time::from_microseconds(10.0));
        assert_eq!(
            engine.pulse_final_charge(&spec).unwrap(),
            engine.run(&spec).unwrap().final_charge()
        );
    }

    #[test]
    fn pulse_final_charge_rejects_sub_threshold_bias() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let engine = ChargeBalanceEngine::new(&device);
        let err = engine.pulse_final_charge(
            &ProgramPulseSpec::program(Voltage::from_volts(1.0))
                .with_duration(Time::from_microseconds(10.0)),
        );
        assert!(matches!(err, Err(DeviceError::NoTunneling { .. })));
    }

    #[test]
    fn column_dispatch_matches_scalar_queries_bitwise() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let cfc = device.capacitances().cfc().as_farads();
        // Unsorted charges spanning in-range, duplicate and far
        // out-of-span (exact-fallback) states.
        let q0s: Vec<f64> = [0.0, -2.0, 3.5, -2.0, 40.0, 0.7]
            .iter()
            .map(|vt| -vt * cfc)
            .collect();
        for (engine, label) in [
            (ChargeBalanceEngine::new(&device), "flow-map"),
            (
                ChargeBalanceEngine::new(&device).with_mode(EngineMode::Exact),
                "exact",
            ),
        ] {
            let pulse = crate::pulse::SquarePulse::new(
                presets::program_vgs(),
                Time::from_microseconds(10.0),
            );
            let batch = engine.pulse_final_charges(pulse, &q0s);
            for (&q0, got) in q0s.iter().zip(batch) {
                let want = engine.pulse_final_charge(&ProgramPulseSpec::from_pulse(
                    pulse,
                    Charge::from_coulombs(q0),
                ));
                match (got, want) {
                    (Ok(a), Ok(b)) => assert_eq!(
                        a.as_coulombs().to_bits(),
                        b.as_coulombs().to_bits(),
                        "{label}: q0 {q0:e}"
                    ),
                    (Err(_), Err(_)) => {}
                    (a, b) => panic!("{label}: q0 {q0:e} diverged: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn column_dispatch_enforces_the_tunneling_floor_per_query() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let engine = ChargeBalanceEngine::new(&device);
        let pulse =
            crate::pulse::SquarePulse::new(Voltage::from_volts(1.0), Time::from_microseconds(10.0));
        let results = engine.pulse_final_charges(pulse, &[0.0, 0.0]);
        assert_eq!(results.len(), 2);
        for r in results {
            assert!(matches!(r, Err(DeviceError::NoTunneling { .. })));
        }
        assert!(engine.pulse_final_charges(pulse, &[]).is_empty());
    }

    #[test]
    fn fixed_duration_windows_are_respected() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let engine = ChargeBalanceEngine::new(&device);
        let result = engine
            .run(
                &ProgramPulseSpec::program(presets::program_vgs())
                    .with_duration(Time::from_microseconds(10.0)),
            )
            .unwrap();
        let t_last = result.samples().last().unwrap().t;
        assert!((t_last - 1.0e-5).abs() / 1.0e-5 < 1e-6);
    }
}
