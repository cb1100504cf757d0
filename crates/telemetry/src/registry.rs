//! The process-wide metrics registry: named counters and log-bucketed
//! histograms behind sharded relaxed atomics.
//!
//! Entries are interned on first use and retained for the process
//! lifetime (the set of instrument sites is finite), so hot paths hold
//! `&'static` handles and never re-probe the name map. Writes are
//! relaxed `fetch_add`s on per-thread shards; reads sum the shards, so
//! a [`snapshot`] is always coherent — there is no thread-local pending
//! state to flush.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::RwLock;

/// Shard count of every counter: enough to keep an 8-worker rayon pool
/// off each other's cache lines, small enough that summing on read is
/// free.
const COUNTER_SHARDS: usize = 8;

/// One cache line per shard so two threads bumping the same counter
/// never write the same line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// A named monotonic counter. Increments go to the calling thread's
/// shard (relaxed); [`Counter::value`] sums all shards.
#[derive(Debug)]
pub struct Counter {
    shards: [PaddedU64; COUNTER_SHARDS],
}

/// The calling thread's counter/histogram shard, assigned round-robin
/// on first use.
fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
    }
    SHARD.with(|s| *s)
}

impl Counter {
    fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| PaddedU64::default()),
        }
    }

    /// Adds `n` on the calling thread's shard.
    pub fn add(&self, n: u64) {
        self.shards[thread_shard()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The coherent total across all shards.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

/// Sub-bucket resolution of the histograms: 2^3 = 8 linear sub-buckets
/// per power-of-two octave (HDR style), bounding the relative value
/// error of any bucket at 1/8.
const SUB_BITS: u32 = 3;
const SUB_COUNT: u64 = 1 << SUB_BITS;
/// Largest bucket index: values up to `u64::MAX` land at
/// `((63 - SUB_BITS + 1) << SUB_BITS) + (SUB_COUNT - 1)`.
const BUCKET_COUNT: usize = ((64 - SUB_BITS as usize) << SUB_BITS) + SUB_COUNT as usize;

/// Bucket of a value: exact below `SUB_COUNT`, then one octave per
/// power of two with `SUB_COUNT` linear sub-buckets.
fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT {
        return usize::try_from(value).expect("small value fits usize");
    }
    let msb = 63 - value.leading_zeros();
    let sub = (value >> (msb - SUB_BITS)) & (SUB_COUNT - 1);
    ((msb - SUB_BITS + 1) as usize) << SUB_BITS | sub as usize
}

/// Lower bound of a bucket — the value reported for its members.
fn bucket_lower_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_COUNT {
        return index;
    }
    let octave = index >> SUB_BITS;
    let sub = index & (SUB_COUNT - 1);
    (SUB_COUNT + sub) << (octave - 1)
}

/// A named log-bucketed (HDR-style) histogram of `u64` samples — the
/// recording unit is whatever the instrument site chooses (the
/// catalogue in the README names each metric's unit). Records are four
/// relaxed atomic updates; there is no lock anywhere.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Self {
        Self {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn snapshot_values(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| (bucket_lower_bound(i), n))
                })
                .collect(),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Frozen view of one histogram: totals plus the non-empty buckets as
/// `(lower bound, count)` pairs in ascending value order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (exact — summed before bucketing).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Non-empty buckets: `(lower bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample (exact; 0.0 when empty).
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The lower bound of the bucket holding quantile `q` (clamped to
    /// `[0, 1]`; 0 when empty). Bucket-resolution: the answer is within
    /// 12.5 % of the true quantile by construction.
    #[must_use]
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(lower, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return lower;
            }
        }
        self.max
    }
}

impl serde::Serialize for HistogramSnapshot {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("count".to_string(), self.count.to_value()),
            ("sum".to_string(), self.sum.to_value()),
            ("min".to_string(), self.min.to_value()),
            ("max".to_string(), self.max.to_value()),
            ("mean".to_string(), self.mean().to_value()),
            ("p50".to_string(), self.quantile(0.50).to_value()),
            ("p90".to_string(), self.quantile(0.90).to_value()),
            ("p99".to_string(), self.quantile(0.99).to_value()),
            ("buckets".to_string(), self.buckets.to_value()),
        ])
    }
}

/// A gauge collector: a pure read of counters owned elsewhere (e.g. the
/// engine's cache tiers), sampled at [`snapshot`] time while telemetry
/// is enabled. Must be deterministic between snapshots with no work in
/// between.
pub type Collector = fn() -> Vec<(String, u64)>;

struct Registry {
    counters: RwLock<BTreeMap<&'static str, &'static Counter>>,
    histograms: RwLock<BTreeMap<&'static str, &'static Histogram>>,
    collectors: RwLock<BTreeMap<&'static str, Collector>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: RwLock::new(BTreeMap::new()),
        histograms: RwLock::new(BTreeMap::new()),
        collectors: RwLock::new(BTreeMap::new()),
    })
}

/// Interns (or retrieves) the named counter. Prefer the
/// [`crate::counter_add!`] macro on hot paths — it caches the handle
/// per call site and skips the registry entirely when telemetry is
/// disabled.
pub fn counter(name: &'static str) -> &'static Counter {
    let reg = registry();
    if let Some(c) = reg.counters.read().get(name) {
        return c;
    }
    let mut map = reg.counters.write();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// Interns (or retrieves) the named histogram; macro caveats as for
/// [`counter`].
pub fn histogram(name: &'static str) -> &'static Histogram {
    let reg = registry();
    if let Some(h) = reg.histograms.read().get(name) {
        return h;
    }
    let mut map = reg.histograms.write();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
}

/// Registers a named gauge collector (idempotent per name). Collector
/// metrics appear in [`snapshot`]s taken while telemetry is enabled.
pub fn register_collector(name: &'static str, collector: Collector) {
    let reg = registry();
    if reg.collectors.read().contains_key(name) {
        return;
    }
    reg.collectors.write().insert(name, collector);
}

/// One coherent view of everything telemetry knows: counters (interned
/// plus collector-sampled), histograms, the zone profile and the event
/// journal. Serializable through the workspace serde shim; all listings
/// are name-sorted so equal states serialize byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Active device backend ([`crate::active_backend`]) at snapshot
    /// time.
    pub backend: String,
    /// `(name, value)`, name-sorted. Collector-backed metrics are
    /// included only when telemetry was enabled at snapshot time.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)`, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// The flat zone profile, name-sorted.
    pub zones: Vec<crate::zone::ZoneSnapshot>,
    /// The event journal ring.
    pub journal: crate::journal::JournalSnapshot,
}

impl TelemetrySnapshot {
    /// True when nothing was ever recorded: no counters or histograms
    /// interned, no zones entered, no events journaled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.zones.is_empty()
            && self.journal.recorded == 0
    }

    /// The named counter's value, if interned.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The named histogram, if interned.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The named zone, if profiled.
    #[must_use]
    pub fn zone(&self, name: &str) -> Option<&crate::zone::ZoneSnapshot> {
        self.zones.iter().find(|z| z.name == name)
    }
}

impl serde::Serialize for TelemetrySnapshot {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("backend".to_string(), self.backend.to_value()),
            (
                "counters".to_string(),
                serde::Value::Object(
                    self.counters
                        .iter()
                        .map(|(name, v)| (name.clone(), v.to_value()))
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                serde::Value::Object(
                    self.histograms
                        .iter()
                        .map(|(name, h)| (name.clone(), h.to_value()))
                        .collect(),
                ),
            ),
            ("zones".to_string(), self.zones.to_value()),
            ("journal".to_string(), self.journal.to_value()),
        ])
    }
}

/// Captures a coherent [`TelemetrySnapshot`]. No flush step is needed —
/// counter reads sum their shards — so two back-to-back snapshots with
/// no intervening work are equal (pinned by a regression test).
#[must_use]
pub fn snapshot() -> TelemetrySnapshot {
    let reg = registry();
    let mut counters: Vec<(String, u64)> = reg
        .counters
        .read()
        .iter()
        .map(|(&name, c)| (name.to_string(), c.value()))
        .collect();
    if crate::enabled() {
        let collectors: Vec<Collector> = reg.collectors.read().values().copied().collect();
        for collect in collectors {
            counters.extend(collect());
        }
    }
    counters.sort();
    let histograms = reg
        .histograms
        .read()
        .iter()
        .map(|(&name, h)| (name.to_string(), h.snapshot_values()))
        .collect();
    TelemetrySnapshot {
        backend: crate::active_backend().to_string(),
        counters,
        histograms,
        zones: crate::zone::zones_snapshot(),
        journal: crate::journal::snapshot(),
    }
}

/// Zeroes every counter, histogram and zone and clears the journal —
/// entries stay interned (snapshots report explicit zeros), so this
/// scopes a measured phase exactly like `engine::cache::reset` scopes
/// the cache tiers. The op clock is left alone: the replayer owns it.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.read().values() {
        c.reset();
    }
    for h in reg.histograms.read().values() {
        h.reset();
    }
    crate::zone::reset_zones();
    crate::journal::clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indices_are_monotone_and_bounded() {
        let mut last = 0;
        for v in [0u64, 1, 7, 8, 9, 15, 16, 31, 100, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            assert!(i >= last, "bucket index must not decrease at {v}");
            assert!(i < BUCKET_COUNT);
            assert!(
                bucket_lower_bound(i) <= v,
                "lower bound above the value at {v}"
            );
            last = i;
        }
        // Small values are exact.
        for v in 0..SUB_COUNT {
            assert_eq!(bucket_lower_bound(bucket_index(v)), v);
        }
    }

    #[test]
    fn histogram_quantiles_hit_bucket_lower_bounds() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot_values();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum, 5050);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 100);
        let p50 = snap.quantile(0.5);
        assert!((40..=50).contains(&p50), "p50 bucket {p50}");
        assert!(snap.quantile(1.0) >= snap.quantile(0.5));
        assert_eq!(HistogramSnapshot::default_empty().quantile(0.5), 0);
    }

    impl HistogramSnapshot {
        fn default_empty() -> Self {
            Self {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                buckets: Vec::new(),
            }
        }
    }

    #[test]
    fn counters_sum_across_shards() {
        let c = counter("test.registry.shard_sum");
        c.reset();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let c = counter("test.registry.shard_sum");
                    for _ in 0..1000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.value(), 4000);
        c.reset();
    }
}
