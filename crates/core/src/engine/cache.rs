//! Process-wide cache of [`TabulatedJ`] tables.
//!
//! Two devices with the same emitting barrier and oxide mass share the
//! same FN law regardless of geometry or GCR, so their tables are
//! interchangeable *within one backend*. The cache keys on the backend
//! discriminant plus the `(A, B)` coefficient bits of the [`FnModel`]
//! and hands out `Arc`s: a NAND array of thousands of
//! nominally identical cells builds each of its four tunneling-path
//! tables exactly once, and every simulator thread reads them without
//! further synchronisation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use gnr_tunneling::fn_model::FnModel;

use super::table::TabulatedJ;
use crate::backend::BackendKind;

/// Hit/miss/entry counters of one memoization tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct TierStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the entry.
    pub misses: u64,
    /// Entries currently retained.
    pub entries: usize,
}

impl TierStats {
    /// Hit fraction `hits / (hits + misses)` (0 for an untouched tier).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Telemetry of the engine's process-wide caches: the `J(E)` table
/// tier, the pulse flow-map tier and the P/E cycle-map tier. Benches
/// record this in their JSON so cache efficiency shows up in the perf
/// trajectory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct EngineCacheStats {
    /// The [`TabulatedJ`] table cache (keyed on FN `(A, B)` bits).
    pub j_tables: TierStats,
    /// The [`super::flowmap`] cache (keyed on device dynamics + pulse
    /// bias bits).
    pub flow_maps: TierStats,
    /// The [`super::cyclemap`] cache (keyed on device dynamics + cycle
    /// recipe digest).
    pub cycle_maps: TierStats,
}

/// Mirrors the tier counters into the unified telemetry registry as the
/// `engine.cache` gauge collector. The tier atomics stay the source of
/// truth (this function and [`stats`] are pure reads of them), so the
/// facade and the registry can never disagree; registration happens on
/// first cache touch *after* telemetry is enabled, keeping a disabled
/// process entirely out of the registry.
fn install_telemetry_collector() {
    static INSTALLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    if !gnr_telemetry::enabled() || INSTALLED.swap(true, Ordering::Relaxed) {
        return;
    }
    gnr_telemetry::register_collector("engine.cache", || {
        let s = stats();
        let tier = |name: &str, t: TierStats| {
            vec![
                (format!("engine.cache.{name}.hits"), t.hits),
                (format!("engine.cache.{name}.misses"), t.misses),
                (format!("engine.cache.{name}.entries"), t.entries as u64),
            ]
        };
        let mut out = tier("j_tables", s.j_tables);
        out.extend(tier("flow_maps", s.flow_maps));
        out.extend(tier("cycle_maps", s.cycle_maps));
        out
    });
}

/// Snapshot of every cache tier's counters.
#[must_use]
pub fn stats() -> EngineCacheStats {
    install_telemetry_collector();
    EngineCacheStats {
        j_tables: TierStats {
            hits: TABLE_HITS.load(Ordering::Relaxed),
            misses: TABLE_MISSES.load(Ordering::Relaxed),
            entries: cached_tables(),
        },
        flow_maps: super::flowmap::tier_stats(),
        cycle_maps: super::cyclemap::tier_stats(),
    }
}

static TABLE_HITS: AtomicU64 = AtomicU64::new(0);
static TABLE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Cache key: the exact bit patterns of the FN `(A, B)` coefficients
/// plus the backend discriminant — two backends can share coefficient
/// bits (a CNT device reusing the paper's floating gate, say) yet must
/// never alias a cache entry, or a backend-level change of table policy
/// would silently leak across technologies.
#[derive(PartialEq, Eq, Hash, Clone, Copy)]
struct FnKey {
    backend: u64,
    a_bits: u64,
    b_bits: u64,
}

/// Shard count of the table cache: reads take one shard *read* lock
/// (shared across threads) plus a lock-free per-key `OnceLock`, so the
/// hot path — engine construction resolving its four tunneling paths —
/// never serialises on a process-wide mutex.
const SHARD_COUNT: usize = 16;

type TableSlot = Arc<OnceLock<Arc<TabulatedJ>>>;
type Shard = RwLock<HashMap<FnKey, TableSlot>>;

static TABLES: OnceLock<Vec<Shard>> = OnceLock::new();

/// Upper bound on retained tables. Real workloads use a handful of
/// distinct `(A, B)` pairs (one per electrode/oxide interface), but a
/// Monte-Carlo sweep over continuously perturbed barriers would otherwise
/// grow the cache without bound — at `MAX_TABLES / SHARD_COUNT` per
/// shard the shard is cleared wholesale (outstanding `Arc`s stay valid;
/// tables rebuild on demand in microseconds).
const MAX_TABLES: usize = 256;

fn shards() -> &'static [Shard] {
    TABLES.get_or_init(|| {
        (0..SHARD_COUNT)
            .map(|_| RwLock::new(HashMap::new()))
            .collect()
    })
}

fn shard_of(key: &FnKey) -> usize {
    let mixed = key.a_bits ^ key.b_bits.rotate_left(23) ^ key.backend.rotate_left(41);
    (mixed as usize) % SHARD_COUNT
}

/// Returns the shared table for `model` under the default
/// ([`BackendKind::GnrFloatingGate`]) backend — see [`tabulated_for`].
#[must_use]
pub fn tabulated(model: &FnModel) -> Arc<TabulatedJ> {
    tabulated_for(BackendKind::GnrFloatingGate, model)
}

/// Returns the shared table for `model` under `backend`, building it on
/// first use. The per-key `OnceLock` keeps concurrent first lookups
/// from building the table twice while never holding any shard lock
/// across the build.
#[must_use]
pub fn tabulated_for(backend: BackendKind, model: &FnModel) -> Arc<TabulatedJ> {
    install_telemetry_collector();
    let coeffs = model.coefficients();
    let key = FnKey {
        backend: backend.discriminant(),
        a_bits: coeffs.a.to_bits(),
        b_bits: coeffs.b.to_bits(),
    };
    let shard = &shards()[shard_of(&key)];
    let hit = shard.read().get(&key).cloned();
    let slot: TableSlot = match hit {
        Some(slot) => slot,
        None => {
            let mut map = shard.write();
            if map.len() >= MAX_TABLES / SHARD_COUNT && !map.contains_key(&key) {
                map.clear();
            }
            Arc::clone(map.entry(key).or_insert_with(|| Arc::new(OnceLock::new())))
        }
    };
    let mut built_now = false;
    let table = slot.get_or_init(|| {
        built_now = true;
        Arc::new(TabulatedJ::new(Arc::new(*model)))
    });
    if built_now {
        TABLE_MISSES.fetch_add(1, Ordering::Relaxed);
    } else {
        TABLE_HITS.fetch_add(1, Ordering::Relaxed);
    }
    Arc::clone(table)
}

/// Number of distinct tables currently cached (observability hook).
#[must_use]
pub fn cached_tables() -> usize {
    TABLES
        .get()
        .map_or(0, |shards| shards.iter().map(|s| s.read().len()).sum())
}

/// Zeroes the hit/miss counters of every cache tier — **entries stay
/// warm**. Benches call this right before their measured phase so the
/// recorded `engine_cache` stats reflect only that phase — setup
/// traffic (parity sweeps, exact-mode baselines) would otherwise swamp
/// the counters. Resumed campaigns rely on the same split: calling
/// `reset` after a checkpoint restore scopes the recorded stats to
/// exactly the post-restore segment *without* cold-rebuilding masters
/// (eviction is the separate, explicit [`clear_entries`]).
pub fn reset() {
    TABLE_HITS.store(0, Ordering::Relaxed);
    TABLE_MISSES.store(0, Ordering::Relaxed);
    super::flowmap::reset_counters();
    super::cyclemap::reset_counters();
}

/// Evicts every retained entry from every cache tier (counters
/// untouched; outstanding `Arc`s stay valid and entries rebuild on
/// demand). The cold-start escape hatch `reset` deliberately is not:
/// use it to measure build costs or to bound memory, never as part of
/// scoping telemetry to a measured phase.
pub fn clear_entries() {
    if let Some(shards) = TABLES.get() {
        for shard in shards {
            shard.write().clear();
        }
    }
    super::flowmap::clear_entries();
    super::cyclemap::clear_entries();
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnr_units::{Energy, Mass};

    #[test]
    fn identical_models_share_one_table() {
        let m1 = FnModel::new(Energy::from_ev(3.31), Mass::from_electron_masses(0.42));
        let m2 = FnModel::new(Energy::from_ev(3.31), Mass::from_electron_masses(0.42));
        let t1 = tabulated(&m1);
        let t2 = tabulated(&m2);
        assert!(
            Arc::ptr_eq(&t1, &t2),
            "same coefficients must share a table"
        );
    }

    #[test]
    fn same_model_under_distinct_backends_never_aliases() {
        let m = FnModel::new(Energy::from_ev(3.44), Mass::from_electron_masses(0.42));
        let gnr = tabulated_for(BackendKind::GnrFloatingGate, &m);
        let cnt = tabulated_for(BackendKind::CntFloatingGate, &m);
        assert!(
            !Arc::ptr_eq(&gnr, &cnt),
            "backend discriminant must separate identical coefficient bits"
        );
        // The default-path helper is the GNR entry.
        assert!(Arc::ptr_eq(&gnr, &tabulated(&m)));
    }

    #[test]
    fn distinct_models_get_distinct_tables() {
        let m1 = FnModel::new(Energy::from_ev(3.32), Mass::from_electron_masses(0.42));
        let m2 = FnModel::new(Energy::from_ev(3.87), Mass::from_electron_masses(0.42));
        assert!(!Arc::ptr_eq(&tabulated(&m1), &tabulated(&m2)));
        assert!(cached_tables() >= 2);
    }

    #[test]
    fn stats_track_table_hits_and_misses() {
        let m = FnModel::new(Energy::from_ev(3.05), Mass::from_electron_masses(0.37));
        let before = stats();
        let _first = tabulated(&m); // builds (miss) unless another test won
        let _second = tabulated(&m); // guaranteed hit
        let after = stats();
        assert!(after.j_tables.hits > before.j_tables.hits);
        assert!(after.j_tables.entries >= 1);
        assert!(after.j_tables.hit_rate() > 0.0);
    }

    #[test]
    fn hit_rate_of_an_untouched_tier_is_zero() {
        assert_eq!(TierStats::default().hit_rate(), 0.0);
    }
}
