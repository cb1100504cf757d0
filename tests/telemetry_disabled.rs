//! Disabled-path guarantees of the telemetry layer, isolated in its own
//! integration binary on purpose: the registry interns metric names
//! process-globally, so proving "a disabled replay allocates nothing"
//! requires a process where nothing else has enabled telemetry first.

use gnr_flash::telemetry;
use gnr_flash_array::controller::FlashController;
use gnr_flash_array::nand::NandConfig;
use gnr_flash_array::workload::{replay, ReplayOptions, WorkloadTrace};

#[test]
fn disabled_telemetry_is_inert_across_an_instrumented_replay() {
    // Explicit off, overriding any ambient GNR_PROFILE/GNR_TELEMETRY.
    telemetry::set_enabled(false);
    telemetry::set_profiling(false);

    // A full GC-forcing churn replay through every instrumented hot
    // path: engine, population, scheduler, FTL, replayer.
    let config = NandConfig {
        blocks: 4,
        pages_per_block: 4,
        page_width: 16,
    };
    let mut controller = FlashController::new(config);
    let capacity = controller.logical_capacity();
    replay(
        &mut controller,
        &WorkloadTrace::gc_churn(3 * capacity, capacity, 0xbead),
        &ReplayOptions {
            snapshot_interval: 0,
            margin_scan: false,
        },
        &mut (),
    )
    .expect("churn replays");

    // The zone macro hands back an inert guard while profiling is off.
    {
        let _guard = telemetry::zone!("test.disabled_zone");
    }

    // Nothing was interned, counted, profiled or journaled: the macros
    // never touched the registry, the collector never installed, and
    // the journal stayed empty.
    let snap = telemetry::snapshot();
    assert!(
        snap.counters.is_empty(),
        "disabled replay must intern no counters: {:?}",
        snap.counters
    );
    assert!(
        snap.histograms.is_empty(),
        "disabled replay must intern no histograms"
    );
    assert!(snap.zones.is_empty(), "disabled zone guards must be no-ops");
    assert_eq!(snap.journal.recorded, 0, "disabled journal must be empty");
    assert!(snap.is_empty());

    // The engine-cache facade keeps working on its own atomics even
    // though nothing was mirrored into the registry.
    let stats = gnr_flash::engine::cache::stats();
    assert!(
        stats.flow_maps.hits + stats.flow_maps.misses > 0,
        "the cache facade stays live with telemetry off"
    );
}
