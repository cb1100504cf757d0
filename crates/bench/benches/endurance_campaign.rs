//! Long-horizon endurance campaign: the time-scale-jumping acceptance
//! bench.
//!
//! Runs a checkpointable campaign on the acceptance shape (64×64×256,
//! ≥1M cells): 10 rounds, each one epoch jump of 1000 composed P/E
//! cycles per block followed by a full-fidelity GC-churn observation
//! window with an RBER/UBER scan. Against it, a pulse-by-pulse
//! flow-map-replay baseline is timed on a cell sample, so the JSON
//! records the epoch speedup directly (the acceptance bar is ≥20×; the
//! composed maps clear it by orders of magnitude because an epoch pays
//! O(log n) interpolations per *distinct* charge, not O(n · pulses)
//! per cell).
//!
//! Every invocation — smoke included — also runs the
//! restore-equals-uninterrupted assertion on a tiny shape: a campaign
//! checkpointed mid-epoch through JSON and resumed must land on the
//! exact controller digest of the run that never stopped.
//!
//! Environment: `GNR_BENCH_SHAPE=BxPxW`, `GNR_BENCH_SMOKE=1`,
//! `GNR_BENCH_THREADS=N` as in the other array benches. The run writes
//! `BENCH_endurance_campaign.json` at the workspace root.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use gnr_bench::{
    bench_config, bench_threads, cache_stats_json, telemetry_phase, telemetry_snapshot_json,
};
use gnr_flash::device::FloatingGateTransistor;
use gnr_flash::engine::{cycle_once, ChargeBalanceEngine};
use gnr_flash_array::controller::FlashController;
use gnr_flash_array::ispp::nominal_cycle_recipe;
use gnr_flash_array::nand::NandConfig;
use gnr_flash_array::workload::{CampaignCheckpoint, CampaignRunner, EnduranceCampaign};
use gnr_reliability::ber::BerModel;
use gnr_reliability::codec::EccConfig;
use gnr_reliability::uber::ReliabilityObserver;

fn campaign_for(capacity: usize, rounds: usize, cycles_per_round: u64) -> EnduranceCampaign {
    EnduranceCampaign {
        rounds,
        cycles_per_round,
        epoch_chunk: 0,
        recipe: nominal_cycle_recipe().expect("nominal recipe freezes"),
        window_overwrites: (capacity / 4).clamp(8, 1024),
        window_segment: 0,
        window_seed: 0xCAFE,
    }
}

/// The pulse-by-pulse baseline: explicit flow-map replay of the same
/// recipe, cell by cell and cycle by cycle, on a sample of the
/// population's current charges. Returns (cell·cycles, seconds).
fn per_pulse_baseline(controller: &FlashController, cycles: u64) -> (u64, f64) {
    let recipe = nominal_cycle_recipe().expect("nominal recipe freezes");
    let pop = controller.array().population();
    let sample: Vec<f64> = pop.charge_column().iter().copied().take(2048).collect();
    let engine = ChargeBalanceEngine::new(&FloatingGateTransistor::mlgnr_cnt_paper());
    let t0 = Instant::now();
    for &q0 in &sample {
        let mut q = q0;
        for _ in 0..cycles {
            q = cycle_once(&engine, &recipe, q)
                .expect("explicit cycle runs")
                .charge;
        }
    }
    (sample.len() as u64 * cycles, t0.elapsed().as_secs_f64())
}

/// Restore-equals-uninterrupted on a tiny shape, asserted on every
/// invocation. Returns the shared final digest (hex) for the JSON.
fn assert_resume_digest() -> String {
    let config = NandConfig {
        blocks: 3,
        pages_per_block: 2,
        page_width: 8,
    };
    let capacity = config.logical_pages();
    let mut campaign = campaign_for(capacity, 2, 5);
    campaign.epoch_chunk = 2; // checkpoints land mid-epoch
    campaign.window_segment = 3; // and mid-window

    let mut uninterrupted = FlashController::new(config);
    let mut runner = CampaignRunner::new(&campaign);
    runner
        .run_to_end(&mut uninterrupted, &mut ())
        .expect("uninterrupted campaign runs");
    let want = uninterrupted.state_digest();

    let mut controller = FlashController::new(config);
    let mut runner = CampaignRunner::new(&campaign);
    for _ in 0..4 {
        runner
            .step(&mut controller, &mut ())
            .expect("prefix steps run")
            .expect("campaign not exhausted");
    }
    let json = serde_json::to_string(&CampaignCheckpoint {
        controller: controller.snapshot(),
        state: runner.state(),
    })
    .expect("checkpoint serializes");
    let decoded: CampaignCheckpoint = serde_json::from_str(&json).expect("checkpoint decodes");
    let mut resumed = FlashController::restore(
        FloatingGateTransistor::mlgnr_cnt_paper(),
        decoded.controller,
    )
    .expect("controller restores");
    let mut runner = CampaignRunner::resume(&campaign, decoded.state);
    runner
        .run_to_end(&mut resumed, &mut ())
        .expect("resumed campaign runs");
    assert_eq!(
        resumed.state_digest(),
        want,
        "restored campaign must be digest-identical to the uninterrupted run"
    );
    format!("{want:016x}")
}

#[allow(clippy::too_many_lines, clippy::cast_precision_loss)]
fn measure_endurance_campaign() {
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
    let resume_digest = assert_resume_digest();
    println!("resume-digest assertion ok ({resume_digest})");

    let (rounds, cycles_per_round) = if smoke { (2, 50) } else { (10, 1000) };
    let mut controller = FlashController::new(config);
    let campaign = campaign_for(controller.logical_capacity(), rounds, cycles_per_round);
    // t scales with the page: the smoke page (16 bits, m = 4) can only
    // fit t = 2 parity runs; the acceptance page (256 bits) takes t = 4.
    let t = if config.page_width >= 64 { 4 } else { 2 };
    let ecc = EccConfig::bch_for_width(config.page_width, t).expect("codec fits the page");
    let mut observer =
        ReliabilityObserver::new(&ecc, BerModel::default(), None).expect("observer builds");

    // Stats cover the measured campaign only.
    gnr_flash::engine::cache::reset();
    let mut epoch_seconds = 0.0f64;
    let mut window_seconds = 0.0f64;
    let mut window_ops = 0usize;
    let mut map_probes = 0u64;
    let mut fallback_probes = 0u64;
    let mut runner = CampaignRunner::new(&campaign);
    loop {
        let t0 = Instant::now();
        let Some(report) = runner
            .step(&mut controller, &mut observer)
            .expect("campaign step runs")
        else {
            break;
        };
        let dt = t0.elapsed().as_secs_f64();
        if report.cycles > 0 {
            epoch_seconds += dt;
            let epoch = report.epoch.expect("epoch steps report telemetry");
            map_probes += epoch.map_probes as u64;
            fallback_probes += epoch.fallback_probes as u64;
        } else {
            window_seconds += dt;
            window_ops += report.ops;
        }
    }

    let cells = config.cells() as u64;
    let total_cycles = rounds as u64 * cycles_per_round;
    let cell_cycles = cells * total_cycles;
    let epoch_rate = cell_cycles as f64 / epoch_seconds.max(1e-12);

    let baseline_cycles = if smoke { 2 } else { 5 };
    let (baseline_cell_cycles, baseline_seconds) = per_pulse_baseline(&controller, baseline_cycles);
    let baseline_rate = baseline_cell_cycles as f64 / baseline_seconds.max(1e-12);
    let speedup = epoch_rate / baseline_rate;
    assert!(
        speedup >= 20.0,
        "epoch jumps must beat pulse-by-pulse replay by >= 20x, got {speedup:.1}x"
    );

    let fmt_traj = |f: &dyn Fn(&gnr_reliability::uber::ReliabilityPoint) -> f64| {
        let vals: Vec<String> = observer
            .trajectory
            .iter()
            .map(|p| format!("{:.6e}", f(p)))
            .collect();
        format!("[{}]", vals.join(", "))
    };
    let rber_trajectory = fmt_traj(&|p| p.rber);
    let uber_trajectory = fmt_traj(&|p| p.uber);
    let wear_trajectory = fmt_traj(&|p| p.mean_injected_charge);

    println!(
        "endurance_campaign {}x{}x{} ({} cells): {} rounds x {} cycles -> \
         {:.2e} cell-cycles in {:.2} s epoch time ({:.3e} cell-cycles/s); \
         per-pulse baseline {:.3e} cell-cycles/s; speedup {:.0}x; \
         {} window ops in {:.2} s; final RBER {:.3e}, UBER {:.3e}",
        config.blocks,
        config.pages_per_block,
        config.page_width,
        cells,
        rounds,
        cycles_per_round,
        cell_cycles as f64,
        epoch_seconds,
        epoch_rate,
        baseline_rate,
        speedup,
        window_ops,
        window_seconds,
        observer.trajectory.last().map_or(0.0, |p| p.rber),
        observer.trajectory.last().map_or(0.0, |p| p.uber),
    );

    // Telemetry pass: a smoke-shaped campaign (with a reliability
    // observer, so decode/retry instrumentation fires too) under full
    // instrumentation — the measured campaign above stays telemetry-off.
    let (_, telemetry) = telemetry_phase(|| {
        let config = NandConfig {
            blocks: 4,
            pages_per_block: 4,
            page_width: 16,
        };
        let mut controller = FlashController::new(config);
        let campaign = campaign_for(controller.logical_capacity(), 2, 50);
        let ecc = EccConfig::bch_for_width(config.page_width, 2).expect("codec fits the page");
        let mut observer =
            ReliabilityObserver::new(&ecc, BerModel::default(), None).expect("observer builds");
        let mut runner = CampaignRunner::new(&campaign);
        runner
            .run_to_end(&mut controller, &mut observer)
            .expect("telemetry campaign runs")
    });

    let json = format!(
        "{{\n  \"bench\": \"endurance_campaign\",\n  \"config\": \"{}x{}x{}\",\n  \
         \"smoke\": {},\n  \"backend\": \"gnr-floating-gate\",\n  \"cores\": {},\n  \"threads\": {},\n  \"cells\": {},\n  \
         \"rounds\": {},\n  \"cycles_per_round\": {},\n  \"total_cycles\": {},\n  \
         \"epoch_seconds\": {:.3},\n  \"epoch_cell_cycles_per_second\": {:.3e},\n  \
         \"epoch_map_probes\": {},\n  \"epoch_fallback_probes\": {},\n  \
         \"baseline_cell_cycles\": {},\n  \"baseline_seconds\": {:.3},\n  \
         \"baseline_cell_cycles_per_second\": {:.3e},\n  \
         \"speedup_vs_per_pulse\": {:.1},\n  \
         \"window_ops\": {},\n  \"window_seconds\": {:.3},\n  \
         \"rber_trajectory\": {},\n  \"uber_trajectory\": {},\n  \
         \"mean_injected_charge_trajectory\": {},\n  \
         \"resume_digest\": \"{}\",\n  \"resume_check\": \"ok\",\n  \
         \"engine_cache\": {},\n  \"telemetry\": {}\n}}\n",
        config.blocks,
        config.pages_per_block,
        config.page_width,
        smoke,
        rayon::current_num_threads(),
        bench_threads(),
        cells,
        rounds,
        cycles_per_round,
        total_cycles,
        epoch_seconds,
        epoch_rate,
        map_probes,
        fallback_probes,
        baseline_cell_cycles,
        baseline_seconds,
        baseline_rate,
        speedup,
        window_ops,
        window_seconds,
        rber_trajectory,
        uber_trajectory,
        wear_trajectory,
        resume_digest,
        cache_stats_json(),
        telemetry_snapshot_json(&telemetry),
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_endurance_campaign.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn bench_campaign(c: &mut Criterion) {
    measure_endurance_campaign();

    // Criterion timings on a small fixed shape so the numbers compare
    // across hosts regardless of the env overrides above.
    let config = NandConfig {
        blocks: 4,
        pages_per_block: 4,
        page_width: 16,
    };
    let mut group = c.benchmark_group("endurance_campaign");
    group.sample_size(10);
    group.bench_function("campaign_2x50_4x4x16", |b| {
        b.iter(|| {
            let mut controller = FlashController::new(config);
            let campaign = campaign_for(controller.logical_capacity(), 2, 50);
            let mut runner = CampaignRunner::new(&campaign);
            runner
                .run_to_end(&mut controller, &mut ())
                .expect("campaign runs")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
