//! Cycle-map cache: one composed charge-to-charge map per
//! `(device dynamics, P/E cycle recipe)`, with repeated-squaring levels
//! for O(log n) multi-cycle jumps.
//!
//! The flow map ([`super::flowmap`]) made a single fixed-bias pulse two
//! interpolations; its proptest-pinned semigroup property
//! `Q(t1 + t2) == Q(t2; Q(t1))` means maps *compose*: a whole P/E cycle
//! — program pulse train followed by erase pulse train, every pulse
//! already answered by a flow map — is itself a map `F(q)` from
//! pre-cycle charge to post-cycle charge. This module tabulates that
//! composition once per [`CycleRecipe`] and then precomposes it with
//! itself: level `k` stores `F^(2^k)`, so
//! [`CycleMap::iterate`] answers "where is this cell after `n` cycles"
//! in O(log n) Hermite evaluations instead of
//! `n × pulses-per-cycle` flow-map queries. Alongside each charge table
//! the map carries a wear table `S^(2^k)(q) = Σ |ΔQ|` over the same
//! `2^k` cycles, so the endurance model's injected-charge counter
//! advances in closed form with the jump.
//!
//! # Grid, accuracy, and why squaring converges
//!
//! The tables are sampled on the union of the constituent pulses'
//! master-trajectory charge nodes (downsampled to `MAX_GRID_NODES`)
//! — the grid the dense output is most accurate on — and interpolated
//! with monotone cubic Hermite ([`gnr_numerics::interp::Pchip`]). A
//! P/E cycle ends in an erase train driving every covered charge toward
//! the erase balance point, so `F` is strongly contractive:
//! `|F(a) − F(b)| ≪ |a − b|`. Under squaring the interpolation error of
//! level `k` enters level `k+1` through that contraction, so the n-fold
//! composition does **not** accumulate error linearly — the proptest in
//! `tests/engine_cyclemap.rs` pins `iterate(q0, n)` against `n`
//! explicit pulse-by-pulse cycles at ≤1e-6 relative error over the
//! covered span.
//!
//! # Fallback contract
//!
//! [`cycle_once`] — the exact reference that also *builds* the tables —
//! chains [`ChargeBalanceEngine::pulse_final_charge`] per pulse, so it
//! inherits the flow-map-hit / exact-integration fallback per pulse and
//! the array layer's `NoTunneling → no-op` rule. Queries outside the
//! tabulated span (and every cycle of a query that escapes mid-jump)
//! run through `cycle_once` verbatim, so fallback answers are
//! **bit-identical** to pulse-by-pulse replay.
//!
//! # Determinism
//!
//! A map is a pure function of `(device dynamics key, recipe digest)`:
//! the same tables are rebuilt from physics on any process, which is
//! why campaign checkpoints never serialize them. One caveat is
//! inherent to the greedy binary decomposition:
//! `iterate(q0, a + b)` is *not* bitwise `iterate(iterate(q0, a), b)`
//! (different level sequences). Long-horizon drivers therefore advance
//! in fixed deterministic chunks and snapshot only at chunk boundaries
//! — see `workload::EnduranceCampaign` in the flash-array crate.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use gnr_numerics::hash::{fnv1a_fold_f64, FNV1A_OFFSET};
use gnr_numerics::interp::Pchip;
use gnr_units::{Charge, Voltage};

use super::cache::TierStats;
use crate::pulse::SquarePulse;
use crate::transient::ProgramPulseSpec;
use crate::{DeviceError, Result};

use super::ChargeBalanceEngine;

/// Upper bound on tabulated charge nodes per level. The union of a
/// recipe's master-trajectory nodes can run to tens of thousands; a
/// P/E cycle's composed response is far smoother than any single
/// master (the erase tail flattens everything), so ~1k nodes hold the
/// 1e-6 contract with room to spare while keeping eager level builds
/// (~20 × 2 Pchip constructions) trivial.
const MAX_GRID_NODES: usize = 1025;

/// Number of repeated-squaring levels built eagerly: level `k` jumps
/// `2^k` cycles, so 21 levels cover single jumps up to ~2M cycles —
/// two decades past the 10k-cycle endurance campaigns that motivated
/// the tier. Each level is two Pchip tables; building all of them
/// costs less than one master-trajectory integration.
const MAX_LEVELS: usize = 21;

/// A fixed P/E cycle waveform: the program pulse train followed by the
/// erase pulse train, applied unconditionally (no verify branches —
/// a *representative* open-loop cycle, typically recorded from one
/// closed-loop ISPP program/erase of a fresh nominal cell so the rung
/// count matches what the array layer actually applies).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CycleRecipe {
    pulses: Vec<SquarePulse>,
}

impl CycleRecipe {
    /// Creates a recipe from the full pulse train of one cycle
    /// (program rungs then erase rungs, in application order).
    ///
    /// # Panics
    ///
    /// Panics when `pulses` is empty.
    #[must_use]
    pub fn new(pulses: Vec<SquarePulse>) -> Self {
        assert!(
            !pulses.is_empty(),
            "a cycle recipe needs at least one pulse"
        );
        Self { pulses }
    }

    /// The cycle's pulses in application order.
    #[must_use]
    pub fn pulses(&self) -> &[SquarePulse] {
        &self.pulses
    }

    /// FNV-1a digest over the exact amplitude/width bit patterns — the
    /// recipe component of the cycle-map cache key.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.pulses.iter().fold(FNV1A_OFFSET, |h, p| {
            let h = fnv1a_fold_f64(h, p.amplitude.as_volts());
            fnv1a_fold_f64(h, p.width.as_seconds())
        })
    }
}

/// Where a charge lands after some number of cycles, plus the wear
/// (total `Σ |ΔQ|` through the tunnel oxide, C) accrued on the way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleOutcome {
    /// Post-cycle stored charge (C).
    pub charge: f64,
    /// Injected-charge wear over the jump (C).
    pub wear: f64,
}

/// Runs one explicit P/E cycle from `q0` coulombs: every pulse through
/// [`ChargeBalanceEngine::pulse_final_charge`] (flow-map hit or exact
/// fallback per pulse), accumulating `|ΔQ|` wear. A pulse below the
/// tunneling floor ([`DeviceError::NoTunneling`]) is a no-op — the
/// same rule the array layer's pulse executor applies.
///
/// This is simultaneously the build primitive of [`CycleMap`] and its
/// out-of-span fallback, which is what makes fallback escapes
/// bit-identical to pulse-by-pulse replay.
///
/// # Errors
///
/// Propagates any non-`NoTunneling` engine error
/// ([`DeviceError::Numerics`]).
pub fn cycle_once(
    engine: &ChargeBalanceEngine,
    recipe: &CycleRecipe,
    q0: f64,
) -> Result<CycleOutcome> {
    let mut q = q0;
    let mut wear = 0.0;
    for &pulse in recipe.pulses() {
        let spec = ProgramPulseSpec::from_pulse(pulse, Charge::from_coulombs(q));
        match engine.pulse_final_charge(&spec) {
            Ok(qn) => {
                let qn = qn.as_coulombs();
                wear += (qn - q).abs();
                q = qn;
            }
            Err(DeviceError::NoTunneling { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(CycleOutcome { charge: q, wear })
}

/// One repeated-squaring level: `f` maps pre-charge to post-charge
/// over `2^k` cycles, `wear` the injected charge over the same span.
#[derive(Debug, Clone)]
struct Level {
    f: Pchip,
    wear: Pchip,
}

/// The composed cycle map of one `(device dynamics, recipe)` pair. See
/// the module docs for the construction, accuracy and fallback model.
#[derive(Debug, Clone)]
pub struct CycleMap {
    recipe: CycleRecipe,
    /// Tabulated charge span `[lo, hi]`; queries outside escape to
    /// [`cycle_once`]. Empty `levels` ⇒ everything escapes.
    lo: f64,
    hi: f64,
    levels: Vec<Level>,
}

impl CycleMap {
    /// Tabulates the recipe's single-cycle response on the union of its
    /// pulses' master-trajectory charge nodes, then precomposes
    /// `MAX_LEVELS` squaring levels. A recipe whose pulses tunnel
    /// nowhere (or whose tables fail to sample) yields an empty map:
    /// every [`Self::iterate`] query then runs explicitly.
    #[must_use]
    pub fn build(engine: &ChargeBalanceEngine, recipe: &CycleRecipe) -> Self {
        let _zone = gnr_telemetry::zone!("engine.cyclemap.build");
        let grid = grid_nodes(engine, recipe);
        let mut empty = Self {
            recipe: recipe.clone(),
            lo: f64::INFINITY,
            hi: f64::NEG_INFINITY,
            levels: Vec::new(),
        };
        if grid.len() < 2 {
            return empty;
        }

        // Level 0: one explicit cycle per grid node. A node that errors
        // (Numerics in a fallback integration) is dropped; the grid
        // stays strictly increasing.
        let mut xs = Vec::with_capacity(grid.len());
        let mut f1 = Vec::with_capacity(grid.len());
        let mut w1 = Vec::with_capacity(grid.len());
        for &q in &grid {
            if let Ok(out) = cycle_once(engine, recipe, q) {
                if out.charge.is_finite() && out.wear.is_finite() {
                    xs.push(q);
                    f1.push(out.charge);
                    w1.push(out.wear);
                }
            }
        }
        if xs.len() < 2 {
            return empty;
        }
        let (Ok(f), Ok(wear)) = (Pchip::new(xs.clone(), f1), Pchip::new(xs.clone(), w1)) else {
            return empty;
        };
        empty.lo = xs[0];
        empty.hi = *xs.last().expect("non-empty grid");
        let mut levels = vec![Level { f, wear }];

        // Level k+1 from level k:
        //   F_{k+1}(x) = F_k(F_k(x))
        //   S_{k+1}(x) = S_k(x) + S_k(F_k(x))
        // `Pchip::eval` clamps outside the span, but the composed image
        // of the span stays well inside it (the cycle ends in an erase
        // pulling everything toward one balance point), so the clamp is
        // never the answer for in-span queries.
        for _ in 1..MAX_LEVELS {
            let prev = levels.last().expect("level 0 exists");
            let mut fk = Vec::with_capacity(xs.len());
            let mut sk = Vec::with_capacity(xs.len());
            for &x in &xs {
                let mid = prev.f.eval(x);
                fk.push(prev.f.eval(mid));
                sk.push(prev.wear.eval(x) + prev.wear.eval(mid));
            }
            let (Ok(f), Ok(wear)) = (Pchip::new(xs.clone(), fk), Pchip::new(xs.clone(), sk)) else {
                break;
            };
            levels.push(Level { f, wear });
        }
        empty.levels = levels;
        empty
    }

    /// The recipe this map composes.
    #[must_use]
    pub fn recipe(&self) -> &CycleRecipe {
        &self.recipe
    }

    /// The tabulated charge span `(lo, hi)` in coulombs, or `None` for
    /// an empty map (every query escapes to the explicit path).
    #[must_use]
    pub fn charge_range(&self) -> Option<(f64, f64)> {
        (!self.levels.is_empty()).then_some((self.lo, self.hi))
    }

    /// Number of precomposed squaring levels (level `k` jumps `2^k`
    /// cycles in one evaluation).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Whether `q0` would be answered from the tables (`false` ⇒ the
    /// whole query runs through [`cycle_once`] verbatim).
    #[must_use]
    pub fn covers(&self, q0: f64) -> bool {
        !self.levels.is_empty() && q0 >= self.lo && q0 <= self.hi
    }

    /// Where a cell starting at `q0` coulombs lands after `n` cycles,
    /// with the wear accrued on the way.
    ///
    /// Greedy binary decomposition: the largest level `≤ remaining` is
    /// applied repeatedly, re-checking the span before each jump; the
    /// moment the charge escapes the tabulated span (or the map is
    /// empty) the remaining cycles run explicitly through
    /// [`cycle_once`] — bit-identical to pulse-by-pulse replay.
    ///
    /// Because the level sequence depends on `n`,
    /// `iterate(q0, a + b)` is generally *not* bitwise
    /// `iterate(iterate(q0, a), b)`; drivers that need resumable
    /// digests must advance in fixed chunks (see the module docs).
    ///
    /// # Errors
    ///
    /// Propagates engine errors from explicit fallback cycles.
    pub fn iterate(&self, engine: &ChargeBalanceEngine, q0: f64, n: u64) -> Result<CycleOutcome> {
        let mut q = q0;
        let mut wear = 0.0;
        let mut remaining = n;
        while remaining > 0 {
            if !self.covers(q) {
                for _ in 0..remaining {
                    let out = cycle_once(engine, &self.recipe, q)?;
                    q = out.charge;
                    wear += out.wear;
                }
                break;
            }
            let max_level = self.levels.len() - 1;
            let k = usize::try_from(63 - remaining.leading_zeros())
                .expect("u32 fits usize")
                .min(max_level);
            let level = &self.levels[k];
            wear += level.wear.eval(q);
            q = level.f.eval(q);
            remaining -= 1u64 << k;
        }
        Ok(CycleOutcome { charge: q, wear })
    }
}

/// The sampling grid: sorted, deduplicated union of every pulse's
/// master-trajectory charge nodes, evenly downsampled (endpoints kept)
/// to [`MAX_GRID_NODES`].
fn grid_nodes(engine: &ChargeBalanceEngine, recipe: &CycleRecipe) -> Vec<f64> {
    let mut seen = std::collections::HashSet::new();
    let mut nodes: Vec<f64> = Vec::new();
    for &pulse in recipe.pulses() {
        // `cached` is a pure function of (device dynamics, bias) and
        // is shared with the flow-map tier — grid extraction warms the
        // same masters the per-pulse path uses.
        let map = super::flowmap::cached(engine, pulse.amplitude, Voltage::ZERO);
        for q in map.charge_nodes() {
            if q.is_finite() && seen.insert(q.to_bits()) {
                nodes.push(q);
            }
        }
    }
    nodes.sort_by(f64::total_cmp);
    if nodes.len() <= MAX_GRID_NODES {
        return nodes;
    }
    let last = nodes.len() - 1;
    (0..MAX_GRID_NODES)
        .map(|i| nodes[i * last / (MAX_GRID_NODES - 1)])
        .collect()
}

/// Cache key: the device's dynamics digest plus the recipe digest.
#[derive(PartialEq, Eq, Hash, Clone, Copy)]
struct CycleKey {
    device: u64,
    recipe: u64,
}

/// Upper bound on retained cycle maps (clear-wholesale per shard past
/// the cap, like the flow-map tier). Campaigns use one recipe over a
/// handful of variants, so the designed working set is tiny.
pub const MAX_CYCLE_MAPS: usize = 64;

type CycleSlot = Arc<OnceLock<Arc<CycleMap>>>;

const SHARD_COUNT: usize = 16;

type Shard = RwLock<HashMap<CycleKey, CycleSlot>>;

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

fn shard_of(key: &CycleKey) -> usize {
    let mixed = key.device ^ key.recipe.rotate_left(23);
    (mixed as usize) % SHARD_COUNT
}

/// Returns the shared cycle map for `engine`'s device and `recipe`,
/// building (and eagerly squaring) it on first use. Same concurrency
/// discipline as the flow-map tier: one shard read lock on a hit, a
/// per-key `OnceLock` so concurrent first queries build once, no lock
/// held across a build.
#[must_use]
pub fn cached(engine: &ChargeBalanceEngine, recipe: &CycleRecipe) -> Arc<CycleMap> {
    let key = CycleKey {
        device: engine.device_key(),
        recipe: recipe.digest(),
    };
    let shard = &shards()[shard_of(&key)];
    let hit = shard.read().get(&key).cloned();
    let slot: CycleSlot = match hit {
        Some(slot) => slot,
        None => {
            let mut map = shard.write();
            if map.len() >= MAX_CYCLE_MAPS / SHARD_COUNT && !map.contains_key(&key) {
                map.clear();
            }
            Arc::clone(map.entry(key).or_insert_with(|| Arc::new(OnceLock::new())))
        }
    };
    let mut built_now = false;
    let map = slot.get_or_init(|| {
        built_now = true;
        Arc::new(CycleMap::build(engine, recipe))
    });
    if built_now {
        MISSES.fetch_add(1, Ordering::Relaxed);
    } else {
        HITS.fetch_add(1, Ordering::Relaxed);
    }
    Arc::clone(map)
}

/// Hit/miss/entry counters of the cycle-map cache tier.
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

/// Zeroes the hit/miss counters; cached maps stay warm (see
/// [`super::cache::reset`]).
pub(crate) fn reset_counters() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

/// Evicts every cached cycle map (counters untouched); see
/// [`super::cache::clear_entries`].
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
    use gnr_units::Time;

    fn engine() -> ChargeBalanceEngine {
        ChargeBalanceEngine::new(&FloatingGateTransistor::mlgnr_cnt_paper())
    }

    fn recipe() -> CycleRecipe {
        let us = |v: f64| SquarePulse::new(Voltage::from_volts(v), Time::from_microseconds(10.0));
        CycleRecipe::new(vec![us(13.0), us(13.5), us(14.0), us(-13.0), us(-13.5)])
    }

    #[test]
    fn digest_tracks_pulse_bits() {
        let a = recipe();
        let mut pulses = a.pulses().to_vec();
        pulses[0] = SquarePulse::new(
            Voltage::from_volts(13.0 + 1e-12),
            Time::from_microseconds(10.0),
        );
        let b = CycleRecipe::new(pulses);
        assert_ne!(a.digest(), b.digest());
        assert_eq!(a.digest(), recipe().digest());
    }

    #[test]
    fn single_cycle_matches_explicit_reference() {
        let engine = engine();
        let recipe = recipe();
        let map = CycleMap::build(&engine, &recipe);
        assert!(map.level_count() >= 1);
        let (lo, hi) = map.charge_range().expect("non-empty map");
        for frac in [0.1, 0.35, 0.5, 0.8] {
            let q0 = lo + frac * (hi - lo);
            let fast = map.iterate(&engine, q0, 1).unwrap();
            let exact = cycle_once(&engine, &recipe, q0).unwrap();
            let rel = ((fast.charge - exact.charge) / exact.charge.abs().max(1e-30)).abs();
            assert!(rel < 1.0e-6, "q0 {q0:e}: rel err {rel:e}");
        }
    }

    #[test]
    fn out_of_span_iterate_is_bitwise_explicit() {
        let engine = engine();
        let recipe = recipe();
        let map = CycleMap::build(&engine, &recipe);
        let (lo, hi) = map.charge_range().expect("non-empty map");
        let q0 = hi + (hi - lo); // outside the tabulated span
        let fast = map.iterate(&engine, q0, 3).unwrap();
        let mut q = q0;
        let mut wear = 0.0;
        for _ in 0..3 {
            let out = cycle_once(&engine, &recipe, q).unwrap();
            q = out.charge;
            wear += out.wear;
        }
        assert_eq!(fast.charge.to_bits(), q.to_bits());
        assert_eq!(fast.wear.to_bits(), wear.to_bits());
    }

    #[test]
    fn zero_cycles_is_identity() {
        let engine = engine();
        let map = CycleMap::build(&engine, &recipe());
        let out = map.iterate(&engine, 1.0e-18, 0).unwrap();
        assert_eq!(out.charge.to_bits(), 1.0e-18f64.to_bits());
        assert_eq!(out.wear, 0.0);
    }

    #[test]
    fn cache_shares_maps_and_counts_hits() {
        let engine = engine();
        let recipe = recipe();
        let before = tier_stats();
        let a = cached(&engine, &recipe);
        let b = cached(&engine, &recipe);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one map");
        let after = tier_stats();
        assert!(after.hits > before.hits);
        assert!(after.entries >= 1);
    }

    #[test]
    fn wear_is_positive_and_grows_with_cycles() {
        let engine = engine();
        let map = CycleMap::build(&engine, &recipe());
        let (lo, hi) = map.charge_range().expect("non-empty map");
        let q0 = 0.5 * (lo + hi);
        let one = map.iterate(&engine, q0, 1).unwrap();
        let many = map.iterate(&engine, q0, 64).unwrap();
        assert!(one.wear > 0.0);
        assert!(many.wear > one.wear);
    }
}
