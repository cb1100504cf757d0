//! End-to-end tests of the unified telemetry layer over real GC-churn
//! replays: the acceptance snapshot, journal determinism, deterministic
//! (coherent) snapshot reads, and crash recovery with every
//! instrumentation site live.
//!
//! The registry, zone table, op clock and journal are process-global,
//! so every test here serializes on one mutex, runs with full
//! instrumentation, and restores the ambient flags before returning.

use std::sync::Mutex;

use gnr_flash::backend::{BackendKind, CellBackend};
use gnr_flash::telemetry;
use gnr_flash_array::controller::FlashController;
use gnr_flash_array::fault::{crash_and_recover, FaultPlan};
use gnr_flash_array::nand::NandConfig;
use gnr_flash_array::workload::{replay, GcChurnSource, ReplayOptions, TraceSource, WorkloadTrace};

static TELEMETRY_TESTS: Mutex<()> = Mutex::new(());

const SMOKE: NandConfig = NandConfig {
    blocks: 4,
    pages_per_block: 4,
    page_width: 16,
};

/// One GC-churn replay on a fresh smoke-shaped controller — enough
/// overwrites past capacity to force reclaims and garbage collection.
fn run_churn(seed: u64) {
    let mut controller = FlashController::new(SMOKE);
    let capacity = controller.logical_capacity();
    replay(
        &mut controller,
        &WorkloadTrace::gc_churn(3 * capacity, capacity, seed),
        &ReplayOptions {
            snapshot_interval: 0,
            margin_scan: false,
        },
        &mut (),
    )
    .expect("churn replays");
}

/// Enables metrics + journal + profiling with a clean registry, and
/// restores the ambient flags (and a clean registry) on drop so tests
/// in other binaries never observe this test's state.
struct Instrumented {
    enabled: bool,
    profiling: bool,
}

fn instrumented() -> Instrumented {
    let ambient = Instrumented {
        enabled: telemetry::enabled(),
        profiling: telemetry::profiling_enabled(),
    };
    telemetry::set_enabled(true);
    telemetry::set_profiling(true);
    telemetry::reset();
    ambient
}

impl Drop for Instrumented {
    fn drop(&mut self) {
        telemetry::reset();
        telemetry::set_op_index(0);
        telemetry::set_enabled(self.enabled);
        telemetry::set_profiling(self.profiling);
    }
}

#[test]
fn churn_snapshot_reports_the_acceptance_metrics() {
    let _lock = TELEMETRY_TESTS.lock().unwrap();
    let _flags = instrumented();
    run_churn(0xbead);
    let snap = telemetry::snapshot();

    // Flow-map probes / hits / escapes, and their conservation law.
    let queries = snap
        .counter("engine.flowmap.queries")
        .expect("flow-map queries");
    let answers = snap
        .counter("engine.flowmap.answers")
        .expect("flow-map answers");
    let escapes = snap
        .counter("engine.flowmap.escapes")
        .expect("flow-map escapes");
    assert!(queries > 0, "churn must probe the flow map");
    assert_eq!(queries, answers + escapes);

    // Cycle-map probes: zero in a pure churn run (no epoch jumps), but
    // always reported through the interned catalogue.
    assert!(snap.counter("population.epoch.probes").is_some());
    assert!(snap.counter("population.epoch.fallbacks").is_some());

    // Population grouping: per-op group counts land in the histogram.
    assert!(snap.counter("population.ops").expect("population ops") > 0);
    let groups = snap
        .histogram("population.groups_per_op")
        .expect("groups-per-op histogram");
    assert!(groups.count > 0);

    // FTL: host writes, reclaim/GC activity, and a derivable write
    // amplification of at least 1.
    let host = snap
        .counter("ftl.host_pages_written")
        .expect("host page counter");
    let relocations = snap
        .counter("ftl.gc.relocations")
        .expect("GC relocation counter");
    assert!(host > 0, "churn must write host pages");
    let reclaims = snap.counter("ftl.reclaims").expect("reclaim counter");
    let gc_erases = snap.counter("ftl.gc.erases").expect("GC erase counter");
    assert!(
        reclaims + gc_erases > 0,
        "overwriting 3x capacity must reclaim or garbage-collect"
    );
    #[allow(clippy::cast_precision_loss)]
    let write_amplification = (host + relocations) as f64 / host as f64;
    assert!(write_amplification >= 1.0);

    // Per-batch latency histograms, one sample per replayed batch.
    let write_batches = snap
        .histogram("replay.write_batch_us")
        .expect("write-batch latency histogram");
    assert!(write_batches.count > 0);
    assert_eq!(
        write_batches.count,
        snap.counter("replay.write_batches").expect("batch counter")
    );

    // Engine-cache stats folded into the registry via the collector.
    assert!(snap.counter("engine.cache.flow_maps.hits").is_some());
    assert!(snap.counter("engine.cache.j_tables.misses").is_some());

    // The profiling pass covers the whole stack: at least five zones,
    // each with a call count.
    for name in [
        "replay.segment",
        "ftl.write_batch",
        "scheduler.execute",
        "nand.disturb_settle",
        "population.group",
        "engine.pulse_batch",
    ] {
        let zone = snap
            .zone(name)
            .unwrap_or_else(|| panic!("zone `{name}` missing from the churn profile"));
        assert!(zone.calls > 0, "zone `{name}` must record calls");
    }
    assert!(snap.zones.len() >= 5);
}

#[test]
fn identical_replays_produce_identical_journals() {
    let _lock = TELEMETRY_TESTS.lock().unwrap();
    let _flags = instrumented();

    run_churn(0x5eed);
    let first = telemetry::journal::snapshot();

    telemetry::reset();
    telemetry::set_op_index(0);
    run_churn(0x5eed);
    let second = telemetry::journal::snapshot();

    assert!(
        first.recorded > 0,
        "a GC-forcing churn must journal at least one event"
    );
    assert_eq!(
        first, second,
        "an identical replay must produce a bit-identical journal"
    );
}

#[test]
fn snapshots_are_deterministic_between_operations() {
    let _lock = TELEMETRY_TESTS.lock().unwrap();
    let _flags = instrumented();
    run_churn(0xbead);

    // Two back-to-back snapshots with no intervening work are equal:
    // sharded counters are summed coherently at read time, with no
    // pending per-thread state to flush.
    let first = telemetry::snapshot();
    let second = telemetry::snapshot();
    assert_eq!(first, second);

    // Same for the engine-cache facade the registry mirrors.
    let cache_a = serde_json::to_string(&gnr_flash::engine::cache::stats()).unwrap();
    let cache_b = serde_json::to_string(&gnr_flash::engine::cache::stats()).unwrap();
    assert_eq!(cache_a, cache_b);

    // And the serialized form is stable too (name-sorted maps).
    assert_eq!(
        serde_json::to_string(&first).unwrap(),
        serde_json::to_string(&second).unwrap()
    );
}

/// A mid-trace power cut under a retiring fault plan, recovered with
/// metrics, journal and profiling all on: instrumentation must not
/// perturb recovery, and the recovery must show up in the counters.
#[test]
fn crash_recovery_with_telemetry_on_is_digest_identical() {
    let _lock = TELEMETRY_TESTS.lock().unwrap();
    let _flags = instrumented();
    let config = NandConfig {
        blocks: 4,
        pages_per_block: 2,
        page_width: 8,
    };
    let backend = CellBackend::preset(BackendKind::GnrFloatingGate);
    let build_plain = || {
        FlashController::with_backend(config, &backend)
            .with_fault_tolerance(1)
            .with_crash_consistency(3)
    };
    let capacity = build_plain().logical_capacity();
    let source = GcChurnSource::new(capacity, 5 * capacity, 0x5eed);
    let plan = FaultPlan {
        bad_block_after_erases: vec![(2, 2)],
        ..FaultPlan::seeded(0x00c0_ffee)
    };
    let build = || build_plain().with_faults(Some(plan.clone()));
    let outcome = crash_and_recover(&backend, &build, &plan, &source, source.len() / 2)
        .expect("crash-and-recover completes");
    assert_eq!(
        outcome.recovered_digest, outcome.digest_at_crash,
        "recovery with telemetry on must be digest-identical"
    );
    let snap = telemetry::snapshot();
    assert_eq!(snap.counter("ftl.power_losses"), Some(1));
    assert_eq!(snap.counter("ftl.recoveries"), Some(1));
}
