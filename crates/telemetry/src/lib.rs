//! # gnr-telemetry
//!
//! The workspace's unified observability substrate, re-exported through
//! `gnr_flash::telemetry`. Three subsystems share one on/off discipline:
//!
//! * a process-wide **metrics registry** ([`counter`], [`histogram`])
//!   of named counters and log-bucketed histograms behind sharded
//!   relaxed atomics — the same contention-free discipline as the
//!   engine's memoization caches — with [`snapshot`] returning a
//!   serializable [`TelemetrySnapshot`] and [`reset`] scoping a
//!   measured phase;
//! * **scoped profiling zones** (the [`zone!`] RAII macro) aggregating
//!   call counts and self/total wall time per zone into a flat profile;
//! * a bounded **event journal** ([`journal`]) — a fixed-capacity ring
//!   of structured FTL/engine events, each stamped with the replay op
//!   clock ([`set_op_index`]) so traces are deterministic and diffable
//!   across identical runs.
//!
//! # Enablement
//!
//! Everything is **off by default**: metric macros are a relaxed load
//! and a branch, [`zone!`] returns an inert guard without interning
//! anything, and the journal drops events — an uninstrumented process
//! never allocates a registry entry. Turn telemetry on with
//! [`set_enabled`]`(true)` (metrics + journal), [`set_profiling`]
//! `(true)` (zones), or the environment: `GNR_PROFILE=1` enables all
//! three, `GNR_TELEMETRY=1` enables metrics and the journal only. The
//! environment is read once, lazily; programmatic setters win
//! afterwards.
//!
//! # Determinism
//!
//! [`snapshot`] is coherent without a flush step: counters are sharded
//! per-thread atomics summed at read time, never thread-local pending
//! deltas, so two back-to-back snapshots with no work in between are
//! equal. Collector-backed metrics (see [`register_collector`]) are
//! pure reads of their sources and inherit the same property.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Once;

pub mod journal;
mod registry;
pub mod zone;

pub use registry::{
    counter, histogram, register_collector, reset, snapshot, Collector, Counter, Histogram,
    HistogramSnapshot, TelemetrySnapshot,
};
pub use zone::ZoneSnapshot;

static ENV_CHECKED: Once = Once::new();
static ENABLED: AtomicBool = AtomicBool::new(false);
static PROFILING: AtomicBool = AtomicBool::new(false);

/// The replay op clock: events recorded by [`journal::record`] are
/// stamped with the value most recently stored here.
static OP_CLOCK: AtomicU64 = AtomicU64::new(0);

/// The device backend name every telemetry record defaults to before
/// any population announces itself.
pub const DEFAULT_BACKEND: &str = "gnr-floating-gate";

/// The active device backend tag: journal events and snapshots carry
/// the name most recently stored here.
static ACTIVE_BACKEND: parking_lot::RwLock<&'static str> =
    parking_lot::RwLock::new(DEFAULT_BACKEND);

/// Announces the active device backend. The array layer calls this when
/// a population is built or restored, so every journal event and
/// [`TelemetrySnapshot`] from then on attributes to the right cell
/// technology. Unlike the enable flags this is *always* live — backend
/// attribution must be correct the moment telemetry is switched on.
pub fn set_active_backend(name: &'static str) {
    *ACTIVE_BACKEND.write() = name;
}

/// The active device backend name ([`DEFAULT_BACKEND`] until a
/// population announces one).
#[must_use]
pub fn active_backend() -> &'static str {
    *ACTIVE_BACKEND.read()
}

fn init_from_env() {
    ENV_CHECKED.call_once(|| {
        let on = |key: &str| std::env::var(key).is_ok_and(|v| !v.is_empty() && v != "0");
        if on("GNR_PROFILE") {
            ENABLED.store(true, Ordering::Relaxed);
            PROFILING.store(true, Ordering::Relaxed);
        } else if on("GNR_TELEMETRY") {
            ENABLED.store(true, Ordering::Relaxed);
        }
    });
}

/// Whether the metrics registry and the event journal record anything.
/// The first call reads `GNR_PROFILE`/`GNR_TELEMETRY`; after that this
/// is one relaxed load — cheap enough for per-operation hot paths.
#[must_use]
pub fn enabled() -> bool {
    init_from_env();
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the metrics registry and event journal on or off
/// programmatically (the builder-flag alternative to `GNR_TELEMETRY`).
pub fn set_enabled(on: bool) {
    init_from_env();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether [`zone!`] guards measure anything.
#[must_use]
pub fn profiling_enabled() -> bool {
    init_from_env();
    PROFILING.load(Ordering::Relaxed)
}

/// Turns profiling zones on or off programmatically (the builder-flag
/// alternative to `GNR_PROFILE`). Does not touch the metrics flag.
pub fn set_profiling(on: bool) {
    init_from_env();
    PROFILING.store(on, Ordering::Relaxed);
}

/// Advances the op clock. The workload replayer stores the index of the
/// batch it is about to execute, so every event the batch fires —
/// however deep in the engine — lands in the journal tagged with a
/// deterministic operation index.
pub fn set_op_index(op: u64) {
    OP_CLOCK.store(op, Ordering::Relaxed);
}

/// The current op clock value.
#[must_use]
pub fn op_index() -> u64 {
    OP_CLOCK.load(Ordering::Relaxed)
}

/// Adds `$n` to the named counter, interning it on first use. Compiles
/// to a relaxed load and a branch when telemetry is disabled — the
/// counter is neither interned nor touched. The name must be a string
/// literal; the handle is cached per call site in a `OnceLock`.
///
/// Passing `$n = 0` is meaningful: it interns the counter so the
/// snapshot reports an explicit zero instead of omitting the metric.
#[macro_export]
macro_rules! counter_add {
    ($name:literal, $n:expr) => {{
        if $crate::enabled() {
            static __GNR_COUNTER: ::std::sync::OnceLock<&'static $crate::Counter> =
                ::std::sync::OnceLock::new();
            __GNR_COUNTER.get_or_init(|| $crate::counter($name)).add($n);
        }
    }};
}

/// Records `$value` into the named histogram, interning it on first
/// use. Same disabled-path contract as [`counter_add!`].
#[macro_export]
macro_rules! histogram_record {
    ($name:literal, $value:expr) => {{
        if $crate::enabled() {
            static __GNR_HISTOGRAM: ::std::sync::OnceLock<&'static $crate::Histogram> =
                ::std::sync::OnceLock::new();
            __GNR_HISTOGRAM
                .get_or_init(|| $crate::histogram($name))
                .record($value);
        }
    }};
}

/// Opens a profiling zone and returns its RAII guard — bind it to a
/// local (`let _zone = zone!("engine.pulse_batch");`) so it drops at
/// scope exit. With profiling off the guard is inert: no interning, no
/// clock read, no stack push.
#[macro_export]
macro_rules! zone {
    ($name:literal) => {{
        static __GNR_ZONE: ::std::sync::OnceLock<&'static $crate::zone::ZoneStats> =
            ::std::sync::OnceLock::new();
        $crate::zone::enter_cached(&__GNR_ZONE, $name)
    }};
}

/// Serialises this crate's unit tests that set process-global state —
/// the enable flags, the op clock, the journal capacity — so that one
/// test cannot flip a flag in the middle of another.
#[cfg(test)]
pub(crate) fn lock_globals() -> std::sync::MutexGuard<'static, ()> {
    static GLOBALS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GLOBALS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_clock_round_trips() {
        let _globals = lock_globals();
        set_op_index(42);
        assert_eq!(op_index(), 42);
        set_op_index(0);
    }
}
