//! Flow-map pulse-response cache: one master integration per
//! `(device dynamics, pulse bias)`, O(1) per distinct cell state.
//!
//! For a fixed pulse bias the charge balance
//! `dQFG/dt = A·(J_control − J_tunnel)` is a **one-dimensional
//! autonomous** ODE: every initial charge lies on the same integral
//! curve, differing only by a time shift. A [`PulseFlowMap`] therefore
//! integrates one dense master trajectory `Q(t)` per
//! `(device dynamics key, VGS bits, VS bits)` — reusing the Dopri45
//! dense output — and answers any `(Q0, Δt)` query with two monotone
//! interpolations:
//!
//! 1. inverse lookup `Q0 → t0` on the monotone master
//!    ([`gnr_numerics::interp::invert_monotone_hermite`]);
//! 2. cubic-Hermite evaluation of `Q(t0 + Δt)`
//!    ([`gnr_numerics::interp::hermite_segment`]).
//!
//! The map covers both sides of the pulse's equilibrium with one branch
//! each (a cell over-programmed relative to a low ISPP rung relaxes
//! *toward* the rung's balance point from below, so both flow
//! directions occur in real ladders). Queries outside the tabulated
//! charge range, or whose end time falls past the integrated horizon
//! (pulses that would ride into saturation), return `None` and the
//! engine falls back to the exact integration path — which is cheap
//! exactly there, because the dynamics near equilibrium are slow.
//!
//! The same memoize-the-physics move that took per-step FN exponentials
//! to [`super::table::TabulatedJ`] lookups, applied one level up: a NAND
//! page program over thousands of distinct cell states costs ~one
//! integration total, not one per `(variant, charge)` group.
//!
//! # When the map pays off
//!
//! A master build costs roughly a saturation-length integration at
//! tight tolerance, hundreds of times one fixed-width pulse: the paper
//! device's +13 V master takes 47 352 right-hand-side evaluations and
//! 8.5 ms (thin-LTO release on a 2-core host). Its horizon search
//! resumes one integration across its widenings; restarting each
//! widening from t = 0 took 165 160 evaluations and 33.5 ms. So the
//! cache wins when keys recur: uniform arrays (one variant × a handful
//! of rung amplitudes), few-variant corners, and any workload that
//! reprograms cells (GC churn re-answers the same key millions of
//! times). The pathological shape is a Monte-Carlo population whose
//! every cell carries unique continuous variation deltas *and* is
//! pulsed only once: every key is single-use, and past
//! [`MAX_FLOW_MAPS`] the wholesale clear also discards whatever reuse
//! existed. For that shape keep the exact engine
//! ([`super::EngineMode::Exact`] via
//! [`super::BatchSimulator::with_mode`]); the mode cannot be inferred
//! here because eligibility must stay a pure function of the query
//! (anything history- or population-dependent would break the
//! parallel-vs-sequential and grouped-vs-per-cell bit-parity
//! contracts).
//!
//! # Determinism and accuracy
//!
//! A map is a pure function of its cache key: the master is integrated
//! with fixed tight tolerances (`MASTER_RTOL`/`MASTER_ATOL` — much
//! tighter than the engine's defaults so the third-order dense output
//! stays inside the parity budget) and the interpolations are
//! deterministic, so every thread —
//! and the grouped and per-cell array paths — sees bit-identical
//! answers. Flow-map vs exact-engine parity is pinned at ≤1e-6 relative
//! final-charge error by `tests/engine_flowmap.rs`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use gnr_numerics::interp::{hermite_segment, invert_hermite_segment, invert_monotone_hermite};
use gnr_numerics::ode::{CrossingDirection, Dopri45, Event, OdeOptions, OdeSolution};
use gnr_units::{Charge, Voltage};

use super::cache::TierStats;
use super::ChargeBalanceEngine;

/// Threshold-shift span (V) the master trajectories cover on each side
/// of neutrality: `|ΔVT| ≤ 12 V` translates to `|Q| ≤ 12·CFC`, several
/// volts beyond any state the array layer produces (ISPP targets sit at
/// +2 V, deep saturation under +8 V, the soft-program floor at −0.5 V).
/// Charges outside the span fall back to the exact engine.
const VT_SPAN_VOLTS: f64 = 12.0;

/// Master-integration tolerances: much tighter than the engine's
/// runtime defaults (1e-8/1e-10) because queries read the *dense
/// output* between accepted steps — third-order Hermite over steps
/// sized for fifth-order accuracy, so the interpolation error is
/// ~`rtol^(4/5)`, not `rtol` — and the parity budget is 1e-6 relative.
/// (At 1e-10 the worst observed corner was 2.5e-6; the two extra
/// decades shrink steps ~2.5× and the Hermite error ~40×.)
const MASTER_RTOL: f64 = 1.0e-12;
const MASTER_ATOL: f64 = 1.0e-14;

/// The master integration stops at the pulse's flow balance: when the
/// smaller of the two oxide flows reaches `(1 − fraction)` of the
/// larger one — the same `Jin = Jout` criterion the engine's saturation
/// search uses, tightened from 1 % to 1 ppm so the horizon sits deep in
/// the flat tail. The criterion is scale-free (a branch started at an
/// extreme charge has astronomically larger initial currents than the
/// mid-range states queries actually visit, so any start-relative rate
/// floor would fire decades too early). Queries whose shifted window
/// crosses the horizon fall back to the exact engine.
const BALANCE_FRACTION: f64 = 1.0e-6;

/// Window-widening factor and probe count of the horizon search (the
/// flows approach each other over many decades of time, exactly as in
/// [`ChargeBalanceEngine::run`]'s saturation search — but a branch
/// started at an extreme charge has a far smaller initial time constant
/// than a mid-range state, so more widenings are allowed).
const WINDOW_GROWTH: f64 = 1.0e3;
const MAX_WINDOWS: usize = 8;

/// One monotone branch of the master trajectory: the integral curve
/// from one extreme of the covered charge range toward the pulse's
/// balance point. `charges` is strictly monotone, `times` strictly
/// increasing; `rates` holds `dQ/dt` at the nodes for Hermite sampling.
#[derive(Debug, Clone)]
struct Branch {
    times: Vec<f64>,
    charges: Vec<f64>,
    rates: Vec<f64>,
}

impl Branch {
    fn lo(&self) -> f64 {
        self.charges[0].min(*self.charges.last().expect("non-empty branch"))
    }

    fn hi(&self) -> f64 {
        self.charges[0].max(*self.charges.last().expect("non-empty branch"))
    }

    fn contains(&self, q: f64) -> bool {
        q >= self.lo() && q <= self.hi()
    }

    /// Flow orientation on the charge axis: `+1.0` for an increasing
    /// branch, `-1.0` for a decreasing one (`charges` is strictly
    /// monotone, so the segment-local and trajectory-global orientations
    /// coincide — the bit-identity hinge of the batched walk).
    fn orientation(&self) -> f64 {
        if *self.charges.last().expect("non-empty branch") > self.charges[0] {
            1.0
        } else {
            -1.0
        }
    }

    /// Inverse lookup `Q → t` on the monotone master.
    fn time_of_charge(&self, q: f64) -> Option<f64> {
        invert_monotone_hermite(&self.times, &self.charges, &self.rates, q)
    }

    /// Cursor-walk form of [`Self::time_of_charge`] for in-range `q`:
    /// instead of a binary search per query, the bracketing segment is
    /// reached by advancing/retreating `cursor` (the upper node index of
    /// the candidate segment, kept in `1..len`). Because the node values
    /// are strictly monotone, the walk lands on the *same* unique
    /// bracket the binary search's insertion point denotes, the
    /// exact-node early returns replicate its `Ok(i)` arm, and the
    /// shared [`invert_hermite_segment`] bisection does the rest — so
    /// the answer is bit-identical to the scalar path. Sorted queries
    /// amortise the walk to O(queries + segments); unsorted ones merely
    /// re-seek.
    fn time_of_charge_at_cursor(&self, cursor: &mut usize, sign: f64, q: f64) -> f64 {
        let last = self.charges.len() - 1;
        let tv = sign * q;
        let mut c = (*cursor).clamp(1, last);
        while c < last && sign * self.charges[c] < tv {
            c += 1;
        }
        while c > 1 && sign * self.charges[c - 1] > tv {
            c -= 1;
        }
        *cursor = c;
        if sign * self.charges[c] == tv {
            return self.times[c];
        }
        if sign * self.charges[c - 1] == tv {
            return self.times[c - 1];
        }
        invert_hermite_segment(
            self.times[c - 1],
            self.times[c],
            self.charges[c - 1],
            self.charges[c],
            self.rates[c - 1],
            self.rates[c],
            q,
        )
    }

    /// Cursor-walk form of [`Self::charge_at`] (same contract as
    /// [`Self::time_of_charge_at_cursor`], on the strictly increasing
    /// time axis).
    fn charge_at_cursor(&self, cursor: &mut usize, t: f64) -> f64 {
        let last = self.times.len() - 1;
        let mut c = (*cursor).clamp(1, last);
        while c < last && self.times[c] < t {
            c += 1;
        }
        while c > 1 && self.times[c - 1] > t {
            c -= 1;
        }
        *cursor = c;
        if self.times[c] == t {
            return self.charges[c];
        }
        if self.times[c - 1] == t {
            return self.charges[c - 1];
        }
        hermite_segment(
            t,
            self.times[c - 1],
            self.times[c],
            self.charges[c - 1],
            self.charges[c],
            self.rates[c - 1],
            self.rates[c],
        )
    }

    /// Dense-output sample `t → Q` (`t` must lie inside the horizon).
    fn charge_at(&self, t: f64) -> f64 {
        let idx = match self
            .times
            .binary_search_by(|probe| probe.partial_cmp(&t).expect("finite times"))
        {
            Ok(i) => return self.charges[i],
            Err(i) => i,
        };
        let hi = idx.min(self.times.len() - 1).max(1);
        let lo = hi - 1;
        hermite_segment(
            t,
            self.times[lo],
            self.times[hi],
            self.charges[lo],
            self.charges[hi],
            self.rates[lo],
            self.rates[hi],
        )
    }
}

/// The flow map of one `(device dynamics, pulse bias)` pair. See the
/// module docs for the construction and query model.
#[derive(Debug, Clone)]
pub struct PulseFlowMap {
    branches: Vec<Branch>,
}

impl PulseFlowMap {
    /// Integrates the master trajectories for `engine`'s device at the
    /// pulse bias `(vgs, vs)`. One branch per flow direction; a branch
    /// whose extreme start point has no measurable tunneling current is
    /// simply absent (its charge range falls back to the exact engine).
    #[must_use]
    pub fn build(engine: &ChargeBalanceEngine, vgs: Voltage, vs: Voltage) -> Self {
        let _zone = gnr_telemetry::zone!("engine.flowmap.build");
        let caps = engine.device().capacitances();
        let ct = caps.total().as_farads();
        let q_span = VT_SPAN_VOLTS * caps.cfc().as_farads();
        let branches = [q_span, -q_span]
            .into_iter()
            .filter_map(|q_start| build_branch(engine, vgs, vs, q_start, ct))
            .collect();
        Self { branches }
    }

    /// Number of tabulated branches (0 when the bias tunnels nowhere in
    /// the covered charge range — every query then falls back).
    #[must_use]
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// The integrated time horizon (s): the latest master-trajectory
    /// time any branch covers. Queries whose shifted window ends past
    /// this fall back to the exact engine. `None` for an empty map.
    #[must_use]
    pub fn horizon_seconds(&self) -> Option<f64> {
        self.branches
            .iter()
            .map(|b| *b.times.last().expect("non-empty branch"))
            .fold(None, |acc, t| Some(acc.map_or(t, |a: f64| a.max(t))))
    }

    /// The tabulated charge range `(lo, hi)` in coulombs, or `None` for
    /// an empty map.
    #[must_use]
    pub fn charge_range(&self) -> Option<(f64, f64)> {
        let lo = self
            .branches
            .iter()
            .map(Branch::lo)
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .branches
            .iter()
            .map(Branch::hi)
            .fold(f64::NEG_INFINITY, f64::max);
        (lo <= hi).then_some((lo, hi))
    }

    /// Final charge (C) after holding the pulse bias for `dt` seconds
    /// starting from `q0` coulombs — the time-shift answer
    /// `Q(t0 + dt)` with `Q(t0) = q0`.
    ///
    /// Returns `None` (callers fall back to the exact engine) when `q0`
    /// lies outside the tabulated charge range or the shifted window
    /// `t0 + dt` runs past the integrated horizon (a pulse riding into
    /// saturation at the boundary).
    #[must_use]
    pub fn final_charge(&self, q0: f64, dt: f64) -> Option<f64> {
        if !dt.is_finite() || dt < 0.0 {
            return None;
        }
        let branch = self.branches.iter().find(|b| b.contains(q0))?;
        let t0 = branch.time_of_charge(q0)?;
        let te = t0 + dt;
        if te > *branch.times.last().expect("non-empty branch") {
            return None;
        }
        Some(branch.charge_at(te))
    }

    /// The master trajectory's charge nodes across all branches —
    /// exactly where the dense output is most accurate, which is why
    /// [`super::cyclemap::CycleMap`] samples its composed maps on this
    /// grid instead of a uniform one. Unordered; callers sort/dedup.
    pub(crate) fn charge_nodes(&self) -> impl Iterator<Item = f64> + '_ {
        self.branches.iter().flat_map(|b| b.charges.iter().copied())
    }

    /// Column-batched form of [`Self::final_charge`]: answers
    /// `out[i] = final_charge(q0s[i], dt)` for a whole column of initial
    /// charges in one pass. `None` entries are the per-query fallback
    /// flags — the caller escapes those cells to the exact engine,
    /// exactly as it would after a scalar decline.
    ///
    /// Instead of one binary search per query (inverse lookup *and*
    /// dense-output sample), per-branch cursors walk the master
    /// trajectory's segments in a monotone merge: a column sorted by
    /// initial charge visits each segment at most once, so the whole
    /// column costs O(queries + segments) rather than
    /// O(queries · log segments). Every answer is **bit-identical** to
    /// the scalar path (pinned by proptest in `tests/engine_flowmap.rs`):
    /// the walk lands on the same bracketing segment the binary search's
    /// insertion point denotes, and the segment-level bisection is the
    /// shared [`invert_hermite_segment`]. Unsorted or duplicate inputs
    /// stay correct — the cursors re-seek in either direction — they
    /// just forfeit the amortisation.
    ///
    /// # Panics
    ///
    /// Panics when `out.len() != q0s.len()`.
    pub fn final_charges_batch(&self, q0s: &[f64], dt: f64, out: &mut [Option<f64>]) {
        assert_eq!(
            q0s.len(),
            out.len(),
            "output column must match the query column"
        );
        if !dt.is_finite() || dt < 0.0 {
            out.fill(None);
            return;
        }
        // (orientation, inverse cursor, sample cursor) per branch.
        let mut cursors: Vec<(f64, usize, usize)> = self
            .branches
            .iter()
            .map(|b| (b.orientation(), 1, 1))
            .collect();
        for (&q0, slot) in q0s.iter().zip(out.iter_mut()) {
            *slot = None;
            let Some(bi) = self.branches.iter().position(|b| b.contains(q0)) else {
                continue;
            };
            let branch = &self.branches[bi];
            let (sign, q_cursor, t_cursor) = &mut cursors[bi];
            // `contains` passed, so the scalar inverse's range check
            // cannot decline: the walk always yields the entry time.
            let t0 = branch.time_of_charge_at_cursor(q_cursor, *sign, q0);
            let te = t0 + dt;
            if te > *branch.times.last().expect("non-empty branch") {
                continue;
            }
            *slot = Some(branch.charge_at_cursor(t_cursor, te));
        }
    }
}

/// Integrates one branch from `q_start` toward the balance point,
/// widening the window geometrically until the horizon event fires.
/// Returns `None` when the start point does not tunnel, the first window
/// fails, or the trajectory is degenerate.
fn build_branch(
    engine: &ChargeBalanceEngine,
    vgs: Voltage,
    vs: Voltage,
    q_start: f64,
    ct: f64,
) -> Option<Branch> {
    let rate0 = engine
        .tunneling_state(vgs, vs, Charge::from_coulombs(q_start))
        .charge_rate_amps;
    if rate0.abs() < super::MIN_TUNNELING_RATE_AMPS {
        return None;
    }
    let tau0 = ct / rate0.abs();

    // State variable is Q/CT (volts), matching the engine's own loop so
    // tolerances are scale-free.
    let y0 = q_start / ct;
    let rhs = |_t: f64, y: &[f64], dydt: &mut [f64]| {
        let state = engine.tunneling_state(vgs, vs, Charge::from_coulombs(y[0] * ct));
        dydt[0] = state.charge_rate_amps / ct;
    };
    // Balance horizon: fires when the two flow magnitudes agree to
    // `BALANCE_FRACTION`, whichever direction the branch flows.
    let balance = 1.0 - BALANCE_FRACTION;
    let horizon_condition = move |_t: f64, y: &[f64]| {
        let state = engine.tunneling_state(vgs, vs, Charge::from_coulombs(y[0] * ct));
        let jt = state.tunnel_flow.abs().as_amps_per_square_meter();
        let jc = state.control_flow.abs().as_amps_per_square_meter();
        balance * jt.max(jc) - jt.min(jc)
    };
    let events = [Event {
        label: "horizon",
        condition: &horizon_condition,
        direction: CrossingDirection::Falling,
        terminal: true,
    }];
    let solver = Dopri45::new(OdeOptions::with_tolerances(MASTER_RTOL, MASTER_ATOL));
    let mut run = solver.start(rhs, 0.0, &[y0], &events).ok()?;
    // Each widening resumes the integration where the last window's
    // clipped tail began, so every step is taken once.
    let mut t_end = 1.0e4 * tau0;
    for window in 0..MAX_WINDOWS {
        match run.advance_to(t_end) {
            Ok(false) => t_end *= WINDOW_GROWTH,
            Ok(true) => break,
            // Keep the longest completed window; a failed widening just
            // shortens the horizon (queries past it fall back).
            Err(_) if window > 0 => break,
            Err(_) => return None,
        }
    }
    gnr_telemetry::counter_add!(
        "engine.flowmap.build_rhs_evals",
        run.rhs_evaluations() as u64
    );
    branch_from(run.solution(), ct, rate0.signum())
}

/// The strictly monotone prefix of a master solution in charge units.
/// The flow is monotone by construction; ulp-level wiggle at the flat
/// tail is trimmed so the inverse lookup stays well-defined.
fn branch_from(sol: &OdeSolution, ct: f64, direction: f64) -> Option<Branch> {
    let times = sol.times();
    let states = sol.state_column(0);
    let derivs = sol.deriv_column(0);
    let mut branch = Branch {
        times: Vec::with_capacity(times.len()),
        charges: Vec::with_capacity(times.len()),
        rates: Vec::with_capacity(times.len()),
    };
    for i in 0..times.len() {
        let t = times[i];
        let q = states[i] * ct;
        let rate = derivs[i] * ct;
        if let (Some(&tp), Some(&qp)) = (branch.times.last(), branch.charges.last()) {
            if t <= tp || (q - qp) * direction <= 0.0 {
                break;
            }
        }
        branch.times.push(t);
        branch.charges.push(q);
        branch.rates.push(rate);
    }
    (branch.times.len() >= 2).then_some(branch)
}

/// Cache key: the device's dynamics digest plus the exact pulse-bias
/// bits. Everything else a query needs (`Q0`, `Δt`) is an argument.
#[derive(PartialEq, Eq, Hash, Clone, Copy)]
struct FlowKey {
    device: u64,
    vgs_bits: u64,
    vs_bits: u64,
}

/// Upper bound on retained flow maps (same clear-wholesale policy as the
/// `J(E)` table cache: outstanding `Arc`s stay valid, maps rebuild on
/// demand). Sized for the designed working set — a handful of variants
/// × the rung amplitudes of the recipes; per-cell-unique Monte-Carlo
/// populations blow past it and should run [`super::EngineMode::Exact`]
/// (see the module docs).
pub const MAX_FLOW_MAPS: usize = 256;

type FlowSlot = Arc<OnceLock<Arc<PulseFlowMap>>>;

/// Shard count of the process-wide map cache. Keys scatter across
/// shards by a cheap bit mix, so the hot path is one shard *read* lock
/// (shared, contention-free across threads) plus a lock-free per-key
/// `OnceLock` — no process-wide mutex anywhere on a hit. Each shard
/// holds at most `MAX_FLOW_MAPS / SHARD_COUNT` entries and clears
/// wholesale past that, preserving the old cache-wide policy per shard.
const SHARD_COUNT: usize = 16;

type Shard = RwLock<HashMap<FlowKey, FlowSlot>>;

static MAPS: OnceLock<Vec<Shard>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn shards() -> &'static [Shard] {
    MAPS.get_or_init(|| {
        (0..SHARD_COUNT)
            .map(|_| RwLock::new(HashMap::new()))
            .collect()
    })
}

fn shard_of(key: &FlowKey) -> usize {
    // The dynamics digest is already a hash; fold in the bias bits.
    let mixed = key.device ^ key.vgs_bits.rotate_left(17) ^ key.vs_bits.rotate_left(31);
    (mixed as usize) % SHARD_COUNT
}

/// Returns the shared flow map for `engine`'s device at the pulse bias
/// `(vgs, vs)`, integrating the master trajectories on first use. A hit
/// costs one shard read lock and one slot clone; the per-key `OnceLock`
/// keeps concurrent first queries from integrating twice while never
/// holding any map lock across a build. One probe serves a whole query
/// column on the batched path, so the hit/miss counters run at
/// per-operation scale there (one relaxed `fetch_add` per column).
#[must_use]
pub fn cached(engine: &ChargeBalanceEngine, vgs: Voltage, vs: Voltage) -> Arc<PulseFlowMap> {
    let key = FlowKey {
        device: engine.device_key(),
        vgs_bits: vgs.as_volts().to_bits(),
        vs_bits: vs.as_volts().to_bits(),
    };
    let shard = &shards()[shard_of(&key)];
    let hit = shard.read().get(&key).cloned();
    let slot: FlowSlot = match hit {
        Some(slot) => slot,
        None => {
            let mut map = shard.write();
            if map.len() >= MAX_FLOW_MAPS / SHARD_COUNT && !map.contains_key(&key) {
                map.clear();
            }
            Arc::clone(map.entry(key).or_insert_with(|| Arc::new(OnceLock::new())))
        }
    };
    let mut built_now = false;
    let map = slot.get_or_init(|| {
        built_now = true;
        Arc::new(PulseFlowMap::build(engine, vgs, vs))
    });
    if built_now {
        MISSES.fetch_add(1, Ordering::Relaxed);
    } else {
        HITS.fetch_add(1, Ordering::Relaxed);
    }
    Arc::clone(map)
}

/// Hit/miss/entry counters of the flow-map cache (observability; the
/// benches record these in their JSON so cache efficiency shows up in
/// the perf trajectory).
#[must_use]
pub fn tier_stats() -> TierStats {
    TierStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        entries: MAPS
            .get()
            .map_or(0, |shards| shards.iter().map(|s| s.read().len()).sum()),
    }
}

/// Zeroes the hit/miss counters (the cached maps themselves stay warm).
/// Benches call this through [`super::cache::reset`] so recorded stats
/// reflect only the measured phase.
pub(crate) fn reset_counters() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

/// Evicts every cached flow map (counters untouched). Outstanding
/// `Arc`s stay valid; subsequent queries rebuild on demand. Exposed via
/// [`super::cache::clear_entries`] — `reset` deliberately does *not* do
/// this, so a resumed campaign keeps warm masters while its recorded
/// stats cover only the post-restore segment.
pub(crate) fn clear_entries() {
    if let Some(shards) = MAPS.get() {
        for shard in shards {
            shard.write().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::FloatingGateTransistor;
    use crate::presets;
    use crate::transient::ProgramPulseSpec;
    use gnr_units::Time;

    fn engine() -> ChargeBalanceEngine {
        ChargeBalanceEngine::new(&FloatingGateTransistor::mlgnr_cnt_paper())
    }

    /// The horizon search as it was before resumable runs: every
    /// widening restarts Dopri45 from t = 0 and keeps the longest
    /// successful window.
    fn build_branch_restarting(
        engine: &ChargeBalanceEngine,
        vgs: Voltage,
        vs: Voltage,
        q_start: f64,
        ct: f64,
    ) -> Option<Branch> {
        let rate0 = engine
            .tunneling_state(vgs, vs, Charge::from_coulombs(q_start))
            .charge_rate_amps;
        if rate0.abs() < crate::engine::MIN_TUNNELING_RATE_AMPS {
            return None;
        }
        let tau0 = ct / rate0.abs();
        let y0 = q_start / ct;
        let rhs = |_t: f64, y: &[f64], dydt: &mut [f64]| {
            let state = engine.tunneling_state(vgs, vs, Charge::from_coulombs(y[0] * ct));
            dydt[0] = state.charge_rate_amps / ct;
        };
        let balance = 1.0 - BALANCE_FRACTION;
        let horizon_condition = move |_t: f64, y: &[f64]| {
            let state = engine.tunneling_state(vgs, vs, Charge::from_coulombs(y[0] * ct));
            let jt = state.tunnel_flow.abs().as_amps_per_square_meter();
            let jc = state.control_flow.abs().as_amps_per_square_meter();
            balance * jt.max(jc) - jt.min(jc)
        };
        let solver = Dopri45::new(OdeOptions::with_tolerances(MASTER_RTOL, MASTER_ATOL));
        let mut t_end = 1.0e4 * tau0;
        let mut best = None;
        for _ in 0..MAX_WINDOWS {
            let event = Event {
                label: "horizon",
                condition: &horizon_condition,
                direction: CrossingDirection::Falling,
                terminal: true,
            };
            match solver.integrate_with_events(rhs, 0.0, &[y0], t_end, &[event]) {
                Ok((sol, hits)) => {
                    let saturated = !hits.is_empty();
                    best = Some(sol);
                    if saturated {
                        break;
                    }
                    t_end *= WINDOW_GROWTH;
                }
                Err(_) => break,
            }
        }
        branch_from(&best?, ct, rate0.signum())
    }

    fn branch_bits(branch: &Branch) -> [Vec<u64>; 3] {
        [&branch.times, &branch.charges, &branch.rates]
            .map(|column| column.iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn resumed_horizon_search_matches_the_restarting_one_bitwise() {
        let engines = [
            engine(),
            ChargeBalanceEngine::new_for(
                crate::backend::BackendKind::CntFloatingGate,
                &presets::cnt_floating_gate(),
            ),
        ];
        for engine in &engines {
            let caps = engine.device().capacitances();
            let ct = caps.total().as_farads();
            let q_span = VT_SPAN_VOLTS * caps.cfc().as_farads();
            for volts in [13.0, 13.5, -13.0, -15.0] {
                let vgs = Voltage::from_volts(volts);
                for q_start in [q_span, -q_span] {
                    let resumed = build_branch(engine, vgs, Voltage::ZERO, q_start, ct);
                    let restarted =
                        build_branch_restarting(engine, vgs, Voltage::ZERO, q_start, ct);
                    assert_eq!(
                        resumed.as_ref().map(branch_bits),
                        restarted.as_ref().map(branch_bits),
                        "{:?} at {volts} V from {q_start:e} C",
                        engine.backend()
                    );
                }
            }
        }
    }

    #[test]
    fn program_map_matches_exact_engine() {
        let engine = engine();
        let vgs = presets::program_vgs();
        let map = PulseFlowMap::build(&engine, vgs, Voltage::ZERO);
        assert!(map.branch_count() >= 1);
        for q0_e in [0.0, -40.0, -120.0, 30.0] {
            let q0 = Charge::from_electrons(q0_e);
            let dt = 1.0e-5;
            let exact = engine
                .run(
                    &ProgramPulseSpec::program(vgs)
                        .with_initial_charge(q0)
                        .with_duration(Time::from_seconds(dt)),
                )
                .unwrap()
                .final_charge()
                .as_coulombs();
            let fast = map
                .final_charge(q0.as_coulombs(), dt)
                .expect("inside tabulated range");
            let rel = ((fast - exact) / exact.abs().max(1e-30)).abs();
            assert!(rel < 1.0e-6, "q0 {q0_e} e: rel err {rel:e}");
        }
    }

    #[test]
    fn out_of_range_charge_returns_none() {
        let engine = engine();
        let map = PulseFlowMap::build(&engine, presets::program_vgs(), Voltage::ZERO);
        let (lo, hi) = map.charge_range().expect("non-empty map");
        assert_eq!(map.final_charge(hi * 2.0 + 1.0, 1.0e-6), None);
        assert_eq!(map.final_charge(lo * 2.0 - 1.0, 1.0e-6), None);
        assert_eq!(map.final_charge(0.0, f64::NAN), None);
        assert_eq!(map.final_charge(0.0, -1.0), None);
    }

    #[test]
    fn horizon_overrun_returns_none() {
        let engine = engine();
        let map = PulseFlowMap::build(&engine, presets::program_vgs(), Voltage::ZERO);
        // A pulse far longer than the integrated horizon must fall back.
        assert_eq!(map.final_charge(0.0, 1.0e12), None);
    }

    #[test]
    fn sub_threshold_bias_falls_back_near_neutrality() {
        // At 0.2 V the *extremes* of the covered span still tunnel (the
        // stored charge alone drives the oxide fields), but the region
        // realistic cells occupy is below the tunneling floor: the
        // branches asymptote before reaching it, and a neutral-charge
        // query must fall back (the engine reports `NoTunneling` there
        // before ever consulting the map).
        let engine = engine();
        let map = PulseFlowMap::build(&engine, Voltage::from_volts(0.2), Voltage::ZERO);
        assert_eq!(map.final_charge(0.0, 1.0e-5), None);
    }

    #[test]
    fn batch_answers_match_scalar_queries_bitwise() {
        let engine = engine();
        let map = PulseFlowMap::build(&engine, presets::program_vgs(), Voltage::ZERO);
        let (lo, hi) = map.charge_range().expect("non-empty map");
        // Unsorted, duplicated, boundary and out-of-range charges in one
        // column; every answer must carry the scalar path's exact bits.
        let q0s = [
            0.0,
            hi,
            lo,
            0.4 * lo + 0.6 * hi,
            0.0,
            hi + (hi - lo), // out of span → fallback flag
            0.9 * lo,
            f64::NAN, // matches no branch → fallback flag
            0.1 * hi,
        ];
        for dt in [1.0e-6, 1.0e-4, 1.0e12, 0.0] {
            let mut out = vec![Some(f64::NAN); q0s.len()];
            map.final_charges_batch(&q0s, dt, &mut out);
            for (&q0, &got) in q0s.iter().zip(&out) {
                let want = map.final_charge(q0, dt);
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "q0 {q0:e}, dt {dt:e}"
                );
            }
        }
        // Rejected dt clears the whole column.
        let mut out = vec![Some(0.0); q0s.len()];
        map.final_charges_batch(&q0s, f64::NAN, &mut out);
        assert!(out.iter().all(Option::is_none));
        map.final_charges_batch(&q0s, -1.0, &mut out);
        assert!(out.iter().all(Option::is_none));
    }

    #[test]
    fn cache_shares_maps_and_counts_hits() {
        let engine = engine();
        let vgs = Voltage::from_volts(14.25);
        let before = tier_stats();
        let a = cached(&engine, vgs, Voltage::ZERO);
        let b = cached(&engine, vgs, Voltage::ZERO);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one map");
        let after = tier_stats();
        assert!(after.hits > before.hits);
        assert!(after.entries >= 1);
    }

    #[test]
    fn erase_bias_covers_programmed_charges() {
        let engine = engine();
        let vgs = presets::erase_vgs();
        let map = PulseFlowMap::build(&engine, vgs, Voltage::ZERO);
        // A programmed cell (negative charge) erases along the map.
        let q0 = Charge::from_electrons(-120.0).as_coulombs();
        let q1 = map.final_charge(q0, 1.0e-4).expect("covered");
        assert!(q1 > q0, "erase must remove electrons: {q0:e} -> {q1:e}");
    }
}
