//! Scoped profiling zones: RAII guards that aggregate call counts and
//! self/total wall time per zone name into a flat profile.
//!
//! Guards are created with the [`crate::zone!`] macro. With profiling
//! off (the default) the guard is inert — no interning, no clock read,
//! no thread-local push. With it on, each guard records its elapsed
//! time into the zone's total and subtracts the time spent in nested
//! zones to compute self time, using a per-thread stack of child-time
//! accumulators (zones on different threads aggregate independently
//! into the same named stats).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::RwLock;

/// Aggregate statistics of one named zone across all threads.
#[derive(Debug, Default)]
pub struct ZoneStats {
    calls: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
}

fn zone_registry() -> &'static RwLock<BTreeMap<&'static str, &'static ZoneStats>> {
    static ZONES: OnceLock<RwLock<BTreeMap<&'static str, &'static ZoneStats>>> = OnceLock::new();
    ZONES.get_or_init(|| RwLock::new(BTreeMap::new()))
}

fn intern(name: &'static str) -> &'static ZoneStats {
    let reg = zone_registry();
    if let Some(z) = reg.read().get(name) {
        return z;
    }
    let mut map = reg.write();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(ZoneStats::default())))
}

thread_local! {
    /// Stack of nested-child nanosecond accumulators, one frame per
    /// open zone on this thread. A closing zone adds its elapsed time
    /// to the parent frame so the parent can subtract it from self
    /// time.
    static CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard of one open zone; created by [`crate::zone!`]. Inert
/// (`None`) when profiling was off at entry — an inert guard's drop
/// does nothing, even if profiling was enabled mid-zone.
#[must_use = "a zone guard measures until dropped; bind it with `let _zone = ...`"]
#[derive(Debug)]
pub struct ZoneGuard {
    inner: Option<(&'static ZoneStats, Instant)>,
}

impl Drop for ZoneGuard {
    fn drop(&mut self) {
        let Some((stats, start)) = self.inner.take() else {
            return;
        };
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let child_ns = CHILD_NS.with(|stack| {
            let mut stack = stack.borrow_mut();
            let own_children = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent += elapsed;
            }
            own_children
        });
        stats.calls.fetch_add(1, Ordering::Relaxed);
        stats.total_ns.fetch_add(elapsed, Ordering::Relaxed);
        stats
            .self_ns
            .fetch_add(elapsed.saturating_sub(child_ns), Ordering::Relaxed);
    }
}

/// Opens the named zone, interning its stats on first profiled entry
/// and caching the handle in the macro call site's `cell`. Returns an
/// inert guard when profiling is disabled.
pub fn enter_cached(cell: &OnceLock<&'static ZoneStats>, name: &'static str) -> ZoneGuard {
    if !crate::profiling_enabled() {
        return ZoneGuard { inner: None };
    }
    let stats = cell.get_or_init(|| intern(name));
    CHILD_NS.with(|stack| stack.borrow_mut().push(0));
    ZoneGuard {
        inner: Some((stats, Instant::now())),
    }
}

/// Frozen view of one zone in a [`crate::TelemetrySnapshot`] profile.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct ZoneSnapshot {
    /// Zone name as given to [`crate::zone!`].
    pub name: String,
    /// Completed entries across all threads.
    pub calls: u64,
    /// Wall time spent inside the zone, nested zones included.
    pub total_ns: u64,
    /// Wall time net of nested zones opened on the same thread.
    pub self_ns: u64,
}

/// The flat profile: every zone entered since the last reset, sorted by
/// name. Zones currently open are reported with their completed calls
/// only.
#[must_use]
pub fn zones_snapshot() -> Vec<ZoneSnapshot> {
    zone_registry()
        .read()
        .iter()
        .map(|(&name, z)| ZoneSnapshot {
            name: name.to_string(),
            calls: z.calls.load(Ordering::Relaxed),
            total_ns: z.total_ns.load(Ordering::Relaxed),
            self_ns: z.self_ns.load(Ordering::Relaxed),
        })
        .collect()
}

/// Zeroes every zone's statistics (names stay interned).
pub fn reset_zones() {
    for z in zone_registry().read().values() {
        z.calls.store(0, Ordering::Relaxed);
        z.total_ns.store(0, Ordering::Relaxed);
        z.self_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_zones_split_self_and_total_time() {
        crate::set_profiling(true);
        reset_zones();
        {
            let _outer = crate::zone!("test.zone.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = crate::zone!("test.zone.inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let zones = zones_snapshot();
        let outer = zones.iter().find(|z| z.name == "test.zone.outer").unwrap();
        let inner = zones.iter().find(|z| z.name == "test.zone.inner").unwrap();
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(
            outer.self_ns <= outer.total_ns - inner.total_ns,
            "outer self time must exclude the nested zone"
        );
        assert_eq!(inner.self_ns, inner.total_ns);
        crate::set_profiling(false);
        reset_zones();
    }

    #[test]
    fn disabled_guard_is_inert() {
        crate::set_profiling(false);
        let guard = crate::zone!("test.zone.disabled");
        assert!(guard.inner.is_none());
        drop(guard);
        assert!(zones_snapshot()
            .iter()
            .all(|z| z.name != "test.zone.disabled"));
    }
}
