//! P/E operation scheduler bench: multi-plane throughput, adaptive vs
//! fixed ISPP pulse counts, and erase-verify + soft-program compaction.
//!
//! Three records land in `BENCH_pe_scheduler.json`:
//!
//! * **Scheduler ops/s** — the same write/read trace replayed through a
//!   single-plane sequential controller and a multi-plane parallel one,
//!   with the parity digest (FNV over the final ΔVT column) asserted
//!   equal: plane scheduling changes wall clock only, never state.
//! * **Adaptive ISPP** — mean pulses-per-program and mean overshoot of
//!   the adaptive controller vs the fixed nominal ladder at the same
//!   +2 V verify target over a process-varied population (the
//!   acceptance bar: adaptive mean pulses ≤ fixed mean pulses).
//! * **Erase-verify + soft-program** — erased-distribution width after
//!   the closed-loop erase vs the raw block erase (must be narrower).
//!
//! Environment: `GNR_BENCH_SHAPE=BxPxW` overrides the trace shape;
//! `GNR_BENCH_SMOKE=1` shrinks everything to a CI-sized smoke run.

use criterion::{criterion_group, criterion_main, Criterion};
use gnr_bench::{
    bench_config, bench_threads, cache_stats_json, scheduler_trace, telemetry_phase,
    telemetry_snapshot_json, SCHEDULER_FULL_SHAPE, SCHEDULER_SMOKE_SHAPE,
};
use gnr_flash::engine::BatchSimulator;
use gnr_flash_array::controller::FlashController;
use gnr_flash_array::ispp::IsppProgrammer;
use gnr_flash_array::nand::{NandArray, NandConfig};
use gnr_flash_array::pe::{AdaptiveIspp, EraseVerify, PeCommand, PlaneScheduler, SoftProgram};
use gnr_flash_array::population::{CellPopulation, PopulationVariation};
use gnr_flash_array::workload::{replay, ReplayOptions};

struct SchedulerNumbers {
    ops: usize,
    sequential_seconds: f64,
    sequential_ops_per_second: f64,
    multi_plane_seconds: f64,
    multi_plane_ops_per_second: f64,
    planes: usize,
    digest: u64,
}

#[allow(clippy::cast_precision_loss)]
fn measure_scheduler(config: NandConfig, planes: usize) -> SchedulerNumbers {
    let trace = scheduler_trace(config.logical_pages());
    let options = ReplayOptions {
        snapshot_interval: 0,
        margin_scan: false,
    };

    let mut sequential =
        FlashController::over(NandArray::new(config).with_batch(BatchSimulator::sequential()));
    let seq_report = replay(&mut sequential, &trace, &options, &mut ()).expect("sequential replay");

    let mut scheduled = FlashController::new(config).with_planes(planes);
    let sched_report = replay(&mut scheduled, &trace, &options, &mut ()).expect("scheduled replay");

    let digest = gnr_flash_array::margins::state_digest(scheduled.array());
    let seq_digest = gnr_flash_array::margins::state_digest(sequential.array());
    assert_eq!(
        digest, seq_digest,
        "multi-plane execution must be bit-identical to sequential"
    );
    assert_eq!(
        scheduled.array().population().snapshot(),
        sequential.array().population().snapshot(),
        "population columns must match"
    );

    let ops = trace.ops.len();
    SchedulerNumbers {
        ops,
        sequential_seconds: seq_report.wall_seconds,
        sequential_ops_per_second: ops as f64 / seq_report.wall_seconds.max(1e-12),
        multi_plane_seconds: sched_report.wall_seconds,
        multi_plane_ops_per_second: ops as f64 / sched_report.wall_seconds.max(1e-12),
        planes,
        digest,
    }
}

struct IsppNumbers {
    cells: usize,
    fixed_mean_pulses: f64,
    adaptive_mean_pulses: f64,
    fixed_mean_overshoot: f64,
    adaptive_mean_overshoot: f64,
}

#[allow(clippy::cast_precision_loss)]
fn measure_ispp(cells: usize) -> IsppNumbers {
    let blueprint = gnr_flash::device::FloatingGateTransistor::mlgnr_cnt_paper();
    let variation = PopulationVariation::default();
    // Continuously-varied populations are the flow-map cache's
    // documented pathological shape (every cell a single-use key), so
    // the ISPP comparison runs the exact engine.
    let batch = BatchSimulator::new().with_mode(gnr_flash::engine::EngineMode::Exact);
    let indices: Vec<usize> = (0..cells).collect();
    let target = 2.0;

    let mut fixed_pop = CellPopulation::with_variation(blueprint.clone(), cells, &variation)
        .expect("varied population");
    let fixed_reports = fixed_pop.program_cells(&IsppProgrammer::nominal(), &indices, &batch);

    let mut adaptive_pop =
        CellPopulation::with_variation(blueprint, cells, &variation).expect("varied population");
    let adaptive_reports =
        AdaptiveIspp::nominal().program_cells(&mut adaptive_pop, &indices, &batch);

    let mean = |reports: &[gnr_flash_array::Result<gnr_flash_array::ispp::IsppReport>],
                f: &dyn Fn(&gnr_flash_array::ispp::IsppReport) -> f64| {
        let values: Vec<f64> = reports
            .iter()
            .map(|r| f(r.as_ref().expect("nominal recipes converge")))
            .collect();
        values.iter().sum::<f64>() / values.len() as f64
    };
    let numbers = IsppNumbers {
        cells,
        fixed_mean_pulses: mean(&fixed_reports, &|r| r.pulses as f64),
        adaptive_mean_pulses: mean(&adaptive_reports, &|r| r.pulses as f64),
        fixed_mean_overshoot: mean(&fixed_reports, &|r| r.final_vt_shift - target),
        adaptive_mean_overshoot: mean(&adaptive_reports, &|r| r.final_vt_shift - target),
    };
    assert!(
        numbers.adaptive_mean_pulses <= numbers.fixed_mean_pulses,
        "adaptive ISPP must not need more pulses than the fixed ladder: {:.3} vs {:.3}",
        numbers.adaptive_mean_pulses,
        numbers.fixed_mean_pulses
    );
    numbers
}

struct EraseNumbers {
    block_cells: usize,
    raw_width_volts: f64,
    verified_width_volts: f64,
    erase_pulses: usize,
    soft_programmed_cells: usize,
}

fn measure_erase(config: NandConfig) -> EraseNumbers {
    let variation = PopulationVariation::default();
    let build = || {
        let pop = CellPopulation::with_variation(
            gnr_flash::device::FloatingGateTransistor::mlgnr_cnt_paper(),
            config.cells(),
            &variation,
        )
        .expect("varied population");
        // Exact engine: per-cell-unique variants make flow-map keys
        // single-use (see `gnr_flash::engine::flowmap` docs).
        let mut array = NandArray::with_population(config, pop)
            .with_batch(BatchSimulator::new().with_mode(gnr_flash::engine::EngineMode::Exact));
        for page in 0..config.pages_per_block {
            let bits: Vec<bool> = (0..config.page_width)
                .map(|i| (i + page) % 3 == 0)
                .collect();
            array.program_page(0, page, &bits).expect("program");
        }
        array
    };
    let width = |array: &NandArray| {
        let column = array.population().vt_shift_column(array.batch());
        let block = &column[..config.pages_per_block * config.page_width];
        block.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - block.iter().copied().fold(f64::INFINITY, f64::min)
    };

    let mut raw = build();
    raw.erase_block(0).expect("raw erase");
    let raw_width_volts = width(&raw);

    let mut verified = build();
    let report = verified
        .erase_block_verified(0, &EraseVerify::nominal(), Some(&SoftProgram::nominal()))
        .expect("verified erase");
    let verified_width_volts = width(&verified);
    assert!(
        verified_width_volts < raw_width_volts,
        "erase-verify + soft-program must narrow the erased distribution: \
         {verified_width_volts:.3} vs {raw_width_volts:.3} V"
    );

    EraseNumbers {
        block_cells: config.pages_per_block * config.page_width,
        raw_width_volts,
        verified_width_volts,
        erase_pulses: report.erase_pulses,
        soft_programmed_cells: report.soft_programmed_cells,
    }
}

fn measure_pe_scheduler() {
    let (config, smoke) = bench_config(SCHEDULER_SMOKE_SHAPE, SCHEDULER_FULL_SHAPE);
    // Stats cover the three measured phases only.
    gnr_flash::engine::cache::reset();
    let planes = config.blocks.min(4);
    let sched = measure_scheduler(config, planes);
    let ispp = measure_ispp(if smoke { 8 } else { 32 });
    let erase = measure_erase(NandConfig {
        blocks: 1,
        pages_per_block: 2,
        page_width: if smoke { 16 } else { 32 },
    });

    println!(
        "pe_scheduler {}x{}x{}: {} ops — sequential {:.0} ops/s, {}-plane {:.0} ops/s \
         (digest {:#018x}); adaptive ISPP {:.2} pulses vs fixed {:.2} \
         (overshoot {:+.3} vs {:+.3} V); erase width verified {:.3} V vs raw {:.3} V \
         ({} erase pulses, {} soft-programmed)",
        config.blocks,
        config.pages_per_block,
        config.page_width,
        sched.ops,
        sched.sequential_ops_per_second,
        sched.planes,
        sched.multi_plane_ops_per_second,
        sched.digest,
        ispp.adaptive_mean_pulses,
        ispp.fixed_mean_pulses,
        ispp.adaptive_mean_overshoot,
        ispp.fixed_mean_overshoot,
        erase.verified_width_volts,
        erase.raw_width_volts,
        erase.erase_pulses,
        erase.soft_programmed_cells,
    );

    // Telemetry pass: the smoke-shaped trace through a multi-plane
    // controller with full instrumentation on — the measured phases
    // above stay telemetry-off.
    let (_, telemetry) = telemetry_phase(|| {
        let config = SCHEDULER_SMOKE_SHAPE;
        let trace = scheduler_trace(config.logical_pages());
        let mut controller = FlashController::new(config).with_planes(config.blocks.min(4));
        replay(
            &mut controller,
            &trace,
            &ReplayOptions {
                snapshot_interval: 0,
                margin_scan: false,
            },
            &mut (),
        )
        .expect("telemetry replay")
    });

    let json = format!(
        "{{\n  \"bench\": \"pe_scheduler\",\n  \"config\": \"{}x{}x{}\",\n  \
         \"smoke\": {},\n  \"backend\": \"gnr-floating-gate\",\n  \"cores\": {},\n  \"threads\": {},\n  \"ops\": {},\n  \
         \"planes\": {},\n  \
         \"sequential_seconds\": {:.4},\n  \"sequential_ops_per_second\": {:.1},\n  \
         \"multi_plane_seconds\": {:.4},\n  \"multi_plane_ops_per_second\": {:.1},\n  \
         \"parity_digest\": \"{:#018x}\",\n  \"ispp_cells\": {},\n  \
         \"fixed_mean_pulses\": {:.4},\n  \"adaptive_mean_pulses\": {:.4},\n  \
         \"fixed_mean_overshoot_volts\": {:.4},\n  \
         \"adaptive_mean_overshoot_volts\": {:.4},\n  \"erase_block_cells\": {},\n  \
         \"raw_erase_width_volts\": {:.4},\n  \"verified_erase_width_volts\": {:.4},\n  \
         \"erase_pulses\": {},\n  \"soft_programmed_cells\": {},\n  \
         \"engine_cache\": {},\n  \"telemetry\": {}\n}}\n",
        config.blocks,
        config.pages_per_block,
        config.page_width,
        smoke,
        rayon::current_num_threads(),
        bench_threads(),
        sched.ops,
        sched.planes,
        sched.sequential_seconds,
        sched.sequential_ops_per_second,
        sched.multi_plane_seconds,
        sched.multi_plane_ops_per_second,
        sched.digest,
        ispp.cells,
        ispp.fixed_mean_pulses,
        ispp.adaptive_mean_pulses,
        ispp.fixed_mean_overshoot,
        ispp.adaptive_mean_overshoot,
        erase.block_cells,
        erase.raw_width_volts,
        erase.verified_width_volts,
        erase.erase_pulses,
        erase.soft_programmed_cells,
        cache_stats_json(),
        telemetry_snapshot_json(&telemetry),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pe_scheduler.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn bench_pe_scheduler(c: &mut Criterion) {
    measure_pe_scheduler();

    // Criterion timing on a small fixed shape: one scheduled round of
    // four distinct-block page programs.
    let config = NandConfig {
        blocks: 4,
        pages_per_block: 2,
        page_width: 16,
    };
    let bits: Vec<bool> = (0..config.page_width).map(|i| i % 2 == 0).collect();
    let mut group = c.benchmark_group("pe_scheduler");
    group.sample_size(10);
    group.bench_function("four_plane_program_round_4x2x16", |b| {
        b.iter(|| {
            let mut array = NandArray::new(config);
            let commands: Vec<PeCommand> = (0..4)
                .map(|block| PeCommand::Program {
                    block,
                    page: 0,
                    bits: bits.clone(),
                })
                .collect();
            let execution = PlaneScheduler::new(4).execute(&mut array, commands);
            execution.first_error().expect("programs verify");
            execution
        });
    });
    group.finish();
}

criterion_group!(benches, bench_pe_scheduler);
criterion_main!(benches);
