//! Workload replay at scale: the struct-of-arrays acceptance bench.
//!
//! Constructs the acceptance-criterion NAND array — 64×64×256, ≥1M
//! cells — and replays a full page-program + block-erase workload trace
//! through the `FlashController`, then a steady-state GC-churn burst.
//! Memory stays proportional to per-cell *state* (no per-cell device
//! clones); the run writes `BENCH_workload_replay.json` at the workspace
//! root with `cells_per_second` and `bytes_per_cell` (the peak-RSS
//! proxy) so the scaling trajectory is recorded per run.
//!
//! Environment:
//!
//! * `GNR_BENCH_SHAPE=BxPxW` overrides the array shape;
//! * `GNR_BENCH_SMOKE=1` shrinks to a 4×4×16 smoke run (CI bit-rot
//!   guard, ~a second);
//! * `GNR_BENCH_BACKEND=gnr|cnt|pcm` selects the device backend the
//!   replay runs on (GNR floating gate by default).

use criterion::{criterion_group, criterion_main, Criterion};
use gnr_bench::{
    bench_backend, bench_config, bench_threads, cache_stats_json, telemetry_phase,
    telemetry_snapshot_json,
};
use gnr_flash::backend::CellBackend;
use gnr_flash_array::controller::FlashController;
use gnr_flash_array::nand::NandConfig;
use gnr_flash_array::workload::{replay, ReplayOptions, WorkloadTrace};

fn full_cycle_report(
    config: NandConfig,
    backend: &CellBackend,
    smoke: bool,
) -> (
    gnr_flash_array::workload::WorkloadReport,
    gnr_flash_array::workload::WorkloadReport,
) {
    let margin_scan = config.cells() <= 1 << 22;
    let options = ReplayOptions {
        snapshot_interval: 0,
        margin_scan,
    };

    let mut controller = FlashController::with_backend(config, backend);
    let cycle = replay(
        &mut controller,
        &WorkloadTrace::full_array_cycle(config),
        &options,
        &mut (),
    )
    .expect("full-array cycle replays");

    // Steady-state churn on the same (now worn) array: bounded op count
    // so the bench stays minutes-not-hours even at the 1M-cell shape —
    // and a handful of ops in smoke mode, where the churn phase would
    // otherwise dominate CI bench time on custom shapes.
    let capacity = controller.logical_capacity();
    let churn_ops = if smoke {
        8
    } else {
        (capacity / 4).clamp(8, 2048)
    };
    let churn = replay(
        &mut controller,
        &WorkloadTrace::gc_churn(churn_ops, capacity, 0xbead),
        &options,
        &mut (),
    )
    .expect("gc churn replays");
    (cycle, churn)
}

fn measure_workload_replay() {
    let (config, smoke) = bench_config(
        NandConfig {
            blocks: 4,
            pages_per_block: 4,
            page_width: 16,
        },
        NandConfig {
            blocks: 64,
            pages_per_block: 64,
            page_width: 256,
        },
    );

    let backend = bench_backend();

    // Stats cover the measured replay only, not warmup from earlier
    // phases sharing this process.
    gnr_flash::engine::cache::reset();
    let (cycle, churn) = full_cycle_report(config, &backend, smoke);
    let churn_wear = &churn.snapshots.last().expect("snapshot").wear;

    // Write amplification of the churn phase: physical page programs
    // (host writes + GC relocations) per host write. The full-cycle
    // phase never relocates, so the churn ratio is the steady-state one.
    #[allow(clippy::cast_precision_loss)]
    let churn_write_amplification = if churn.writes > 0 {
        (churn.writes + churn_wear.gc_relocations) as f64 / churn.writes as f64
    } else {
        1.0
    };

    println!(
        "workload_replay [{}] {}x{}x{} ({} cells, {} B/cell state): \
         full cycle {} writes + {} erases in {:.2} s ({:.0} cells/s); \
         churn {} writes, {} GC relocations (WA {:.3}), wear spread {}",
        backend.kind().name(),
        config.blocks,
        config.pages_per_block,
        config.page_width,
        cycle.cells,
        cycle.bytes_per_cell,
        cycle.writes,
        cycle.erases,
        cycle.wall_seconds,
        cycle.cells_per_second,
        churn.writes,
        churn_wear.gc_relocations,
        churn_write_amplification,
        churn_wear.spread(),
    );

    // Telemetry pass: a short smoke-shaped churn replay with the full
    // instrumentation stack on, so the report carries a real
    // `"telemetry"` block without perturbing the measured timings above.
    let (_, telemetry) = telemetry_phase(|| {
        let config = NandConfig {
            blocks: 4,
            pages_per_block: 4,
            page_width: 16,
        };
        let mut controller = FlashController::with_backend(config, &backend);
        let capacity = controller.logical_capacity();
        replay(
            &mut controller,
            &WorkloadTrace::gc_churn(32, capacity, 0xbead),
            &ReplayOptions::default(),
            &mut (),
        )
        .expect("telemetry churn replays")
    });

    let json = format!(
        "{{\n  \"bench\": \"workload_replay\",\n  \"config\": \"{}x{}x{}\",\n  \
         \"smoke\": {},\n  \"backend\": \"{}\",\n  \"cores\": {},\n  \"threads\": {},\n  \
         \"cells\": {},\n  \
         \"bytes_per_cell\": {},\n  \"full_cycle_writes\": {},\n  \
         \"full_cycle_erases\": {},\n  \"full_cycle_seconds\": {:.3},\n  \
         \"cells_per_second\": {:.1},\n  \"churn_writes\": {},\n  \
         \"churn_seconds\": {:.3},\n  \"churn_gc_relocations\": {},\n  \
         \"churn_write_amplification\": {:.4},\n  \
         \"total_erases\": {},\n  \"wear_spread\": {},\n  \
         \"engine_cache\": {},\n  \"telemetry\": {}\n}}\n",
        config.blocks,
        config.pages_per_block,
        config.page_width,
        smoke,
        backend.kind().name(),
        rayon::current_num_threads(),
        bench_threads(),
        cycle.cells,
        cycle.bytes_per_cell,
        cycle.writes,
        cycle.erases,
        cycle.wall_seconds,
        cycle.cells_per_second,
        churn.writes,
        churn.wall_seconds,
        churn_wear.gc_relocations,
        churn_write_amplification,
        churn_wear.total_erases,
        churn_wear.spread(),
        cache_stats_json(),
        telemetry_snapshot_json(&telemetry),
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_workload_replay.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn bench_workload(c: &mut Criterion) {
    measure_workload_replay();

    // Criterion timings on a small, fixed shape so the numbers are
    // comparable across hosts regardless of the env overrides above.
    let config = NandConfig {
        blocks: 4,
        pages_per_block: 4,
        page_width: 16,
    };
    let mut group = c.benchmark_group("workload_replay");
    group.sample_size(10);
    group.bench_function("full_array_cycle_4x4x16", |b| {
        let trace = WorkloadTrace::full_array_cycle(config);
        b.iter(|| {
            let mut controller = FlashController::new(config);
            replay(&mut controller, &trace, &ReplayOptions::default(), &mut ()).expect("replay")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_workload);
criterion_main!(benches);
