//! Flow-map engine bench: the per-(variant, pulse) master-trajectory
//! cache vs per-group exact integration, on the workloads the committed
//! baselines pinned.
//!
//! Three records land in `BENCH_engine_flowmap.json`:
//!
//! * **GC-churn replay** — the `workload_replay` churn phase (the
//!   130.7 s / 5 040-write committed baseline) run twice on the same
//!   shape: once with `EngineMode::Exact` (the historical path) and
//!   once with `EngineMode::FlowMap` (the default). The speedup is the
//!   tentpole acceptance number (target ≥5×).
//! * **Scheduler ops/s** — the `pe_scheduler` write/rewrite/read trace
//!   through the multi-plane controller in both modes (committed
//!   baseline 6 503 ops/s; target ≥3×).
//! * **Parity** — a fixed grid of `(initial charge, pulse)` queries
//!   answered by both modes; the max relative final-charge error is
//!   **asserted** ≤1e-6 on every run (CI smoke included), and an FNV
//!   digest over the flow-map answers is recorded so drift in the
//!   interpolation shows up as a diff. The churn replay additionally
//!   asserts the sequential and parallel fast paths land on the same
//!   array-state digest (flow-map determinism end to end).
//!
//! A fourth record is the **thread matrix**: the flow-map churn re-run
//! under 1/2/4/8-worker pools (deliberately not clamped to the host —
//! OS threads oversubscribe, so the digest assert exercises real
//! multi-threaded interleaving even on a 1-core builder), each entry
//! asserting the same array-state digest — the contention-free cache
//! claim, measured rather than assumed.
//!
//! Environment: `GNR_BENCH_SHAPE=BxPxW` overrides the churn shape (in
//! smoke runs too); `GNR_BENCH_SMOKE=1` shrinks everything to CI size;
//! `GNR_BENCH_THREADS=N` sizes the global pool for the main records
//! (the matrix installs its own pools either way).

use criterion::{criterion_group, criterion_main, Criterion};
use gnr_bench::{
    bench_config, bench_threads, cache_stats_snapshot_json, scheduler_trace, telemetry_phase,
    telemetry_snapshot_json, write_amplification, SCHEDULER_FULL_SHAPE, SCHEDULER_SMOKE_SHAPE,
};
use gnr_flash::device::FloatingGateTransistor;
use gnr_flash::engine::{BatchSimulator, ChargeBalanceEngine, EngineMode};
use gnr_flash::transient::ProgramPulseSpec;
use gnr_flash_array::controller::FlashController;
use gnr_flash_array::margins::state_digest;
use gnr_flash_array::nand::{NandArray, NandConfig};
use gnr_flash_array::workload::{replay, ReplayOptions, WorkloadTrace};
use gnr_units::{Charge, Time, Voltage};

/// The committed `BENCH_workload_replay.json` churn baseline this bench
/// is accepted against (64×64×256, 5 040 churn writes, exact engine).
const BASELINE_CHURN_SECONDS: f64 = 130.734;
/// The committed `BENCH_pe_scheduler.json` multi-plane baseline
/// (16×16×64, 600 ops, exact engine).
const BASELINE_SCHEDULER_OPS_PER_SECOND: f64 = 6503.0;

struct ChurnNumbers {
    writes: u64,
    gc_relocations: u64,
    seconds: f64,
    digest: u64,
}

/// Full-array cycle (setup) followed by the GC-churn burst, mirroring
/// the `workload_replay` bench exactly, on one engine mode.
fn run_churn(config: NandConfig, smoke: bool, batch: BatchSimulator) -> ChurnNumbers {
    let options = ReplayOptions {
        snapshot_interval: 0,
        margin_scan: false,
    };
    let mut controller = FlashController::over(NandArray::new(config).with_batch(batch));
    replay(
        &mut controller,
        &WorkloadTrace::full_array_cycle(config),
        &options,
        &mut (),
    )
    .expect("full-array cycle replays");
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
    let wear = &churn.snapshots.last().expect("terminal snapshot").wear;
    ChurnNumbers {
        writes: churn.writes,
        gc_relocations: wear.gc_relocations,
        seconds: churn.wall_seconds,
        digest: state_digest(controller.array()),
    }
}

/// The `pe_scheduler` write/rewrite/read trace (shared via
/// [`gnr_bench::scheduler_trace`], so this bench can never drift from
/// the workload behind its committed baseline), replayed through the
/// multi-plane controller in one engine mode; returns ops/s.
fn run_scheduler(config: NandConfig, planes: usize, mode: EngineMode) -> f64 {
    let trace: WorkloadTrace = scheduler_trace(config.logical_pages());
    let options = ReplayOptions {
        snapshot_interval: 0,
        margin_scan: false,
    };
    let mut controller = FlashController::over(
        NandArray::new(config).with_batch(BatchSimulator::new().with_mode(mode)),
    )
    .with_planes(planes);
    let report =
        replay(&mut controller, &trace, &options, &mut ()).expect("scheduler trace replays");
    #[allow(clippy::cast_precision_loss)]
    let ops_per_second = trace.ops.len() as f64 / report.wall_seconds.max(1e-12);
    ops_per_second
}

struct ParityNumbers {
    queries: usize,
    max_rel_err: f64,
    digest: u64,
}

/// Fixed `(initial charge, pulse)` grid answered by the flow map and by
/// a *converged* exact integration (rtol 1e-12 — the engine's default
/// 1e-8 tolerance itself drifts ~2.5e-6 on shrinking charges, so the
/// parity bar must be measured against the true solution); asserts the
/// ≤1e-6 bar and digests the flow-map answers.
fn measure_parity() -> ParityNumbers {
    let device = FloatingGateTransistor::mlgnr_cnt_paper();
    let fast = ChargeBalanceEngine::new(&device);
    let exact = ChargeBalanceEngine::new(&device)
        .with_mode(EngineMode::Exact)
        .with_ode_options(gnr_numerics::ode::OdeOptions::with_tolerances(
            1.0e-12, 1.0e-14,
        ));
    let cfc = device.capacitances().cfc().as_farads();

    let mut digest: u64 = gnr_numerics::hash::FNV1A_OFFSET;
    let mut fold = |v: f64| {
        digest = gnr_numerics::hash::fnv1a_fold_f64(digest, v);
    };
    let mut queries = 0usize;
    let mut max_rel_err = 0.0f64;
    for vgs in [13.0, 14.5, 16.0, -15.0, 11.0] {
        let map =
            gnr_flash::engine::flowmap::cached(&fast, Voltage::from_volts(vgs), Voltage::ZERO);
        for vt0 in [-0.5, 0.0, 1.0, 2.5, 4.0] {
            for dt_us in [1.0, 10.0, 100.0] {
                let q0 = -vt0 * cfc;
                let dt = dt_us * 1.0e-6;
                // Only corners the map actually answers belong in the
                // interpolation-parity gate; a declined corner would be
                // answered by a default-tolerance fallback integration,
                // whose own ~2e-6 drift against the 1e-12 reference is
                // not flow-map error (the fallback's bit-equality with
                // exact mode is pinned by tests/engine_flowmap.rs).
                let Some(qf) = map.final_charge(q0, dt) else {
                    continue;
                };
                let spec = ProgramPulseSpec::program(Voltage::from_volts(vgs))
                    .with_initial_charge(Charge::from_coulombs(q0))
                    .with_duration(Time::from_seconds(dt));
                let qe = match (
                    fast.pulse_final_charge(&spec),
                    exact.pulse_final_charge(&spec),
                ) {
                    (Ok(f), Ok(e)) => {
                        assert_eq!(
                            f.as_coulombs(),
                            qf,
                            "engine hit path must return the map's answer verbatim"
                        );
                        e.as_coulombs()
                    }
                    // Both modes rejecting (the cell's own charging
                    // rate under the NoTunneling floor, even though the
                    // map's span tunnels) is consistent — skip.
                    (Err(_), Err(_)) => continue,
                    // One mode answering while the other rejects is a
                    // NoTunneling-contract divergence, exactly what
                    // this gate exists to catch.
                    (fast, exact) => panic!(
                        "modes disagree at vgs {vgs} V, vt0 {vt0} V, dt {dt_us} µs: \
                         flow map {fast:?} vs exact {exact:?}"
                    ),
                };
                let rel = ((qf - qe) / qe.abs().max(1e-30)).abs();
                assert!(
                    rel <= 1.0e-6,
                    "flow-map parity broken at vgs {vgs} V, vt0 {vt0} V, dt {dt_us} µs: \
                     rel err {rel:e}"
                );
                max_rel_err = max_rel_err.max(rel);
                fold(qf);
                queries += 1;
            }
        }
    }
    ParityNumbers {
        queries,
        max_rel_err,
        digest,
    }
}

#[allow(clippy::too_many_lines)]
fn measure_engine_flowmap() {
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

    let parity = measure_parity();
    println!(
        "flow-map parity: {} queries, max rel err {:.3e} (bar 1e-6), digest {:#018x}",
        parity.queries, parity.max_rel_err, parity.digest
    );

    // Churn: the measured flow-map run goes FIRST — minutes of
    // exact-mode churn beforehand contaminate whatever follows (host
    // thermal state, allocator arenas) by several seconds, which a
    // fresh-process control run does not show. Then the fast path again
    // sequentially (digest determinism assert) and the exact baseline
    // last, where the same contamination is percent-level noise.
    //
    // The committed `engine_cache` record covers the measured flow-map
    // churn only — not the parity grid, the exact baseline, or the
    // later scheduler phase — so per-operation probe scale is readable
    // straight off the JSON.
    gnr_flash::engine::cache::reset();
    let flow = run_churn(config, smoke, BatchSimulator::new());
    let churn_cache_stats = gnr_flash::engine::cache::stats();
    let flow_sequential = run_churn(
        config,
        smoke,
        BatchSimulator::sequential().with_mode(EngineMode::FlowMap),
    );
    let exact = run_churn(
        config,
        smoke,
        BatchSimulator::new().with_mode(EngineMode::Exact),
    );
    assert_eq!(
        flow.digest, flow_sequential.digest,
        "parallel and sequential fast paths must land on the same array state"
    );
    let churn_speedup = exact.seconds / flow.seconds.max(1e-12);
    println!(
        "churn {}x{}x{}: {} writes, {} GC relocations — exact {:.2} s, flow map {:.2} s \
         ({:.1}x), fast-path digest {:#018x}",
        config.blocks,
        config.pages_per_block,
        config.page_width,
        flow.writes,
        flow.gc_relocations,
        exact.seconds,
        flow.seconds,
        churn_speedup,
        flow.digest,
    );

    // Scheduler ops/s on the pe_scheduler shape (shared constants).
    let sched_config = if smoke {
        SCHEDULER_SMOKE_SHAPE
    } else {
        SCHEDULER_FULL_SHAPE
    };
    let planes = sched_config.blocks.min(4);
    let sched_exact = run_scheduler(sched_config, planes, EngineMode::Exact);
    let sched_flow = run_scheduler(sched_config, planes, EngineMode::FlowMap);
    let sched_speedup = sched_flow / sched_exact.max(1e-12);
    println!(
        "scheduler {}x{}x{} ({planes} planes): exact {sched_exact:.0} ops/s, \
         flow map {sched_flow:.0} ops/s ({sched_speedup:.1}x)",
        sched_config.blocks, sched_config.pages_per_block, sched_config.page_width,
    );

    // Thread matrix: the flow-map churn under explicit 1/2/4/8-worker
    // pools. Worker counts beyond the core count still run (OS threads
    // oversubscribe; the recorded `cores` field says how to read the
    // timings) because the digest-equality assert needs real
    // multi-threaded interleaving even on a 1-core host — worker count
    // may move wall clock, never state. That is the contention-free
    // cache claim, measured rather than assumed.
    let mut matrix = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .expect("matrix pool builds");
        let run = pool.install(|| run_churn(config, smoke, BatchSimulator::new()));
        assert_eq!(
            run.digest, flow.digest,
            "churn digest must be invariant under a {workers}-worker pool"
        );
        println!(
            "churn thread matrix: {workers} worker(s) — {:.2} s, digest {:#018x}",
            run.seconds, run.digest
        );
        matrix.push((workers, run.seconds));
    }
    let matrix_json = matrix
        .iter()
        .map(|(workers, seconds)| format!("{{\"threads\": {workers}, \"seconds\": {seconds:.3}}}"))
        .collect::<Vec<_>>()
        .join(", ");

    // Telemetry pass: a short fully-instrumented churn *after* the
    // measured phases (which run at ambient — i.e. normally disabled —
    // telemetry, keeping the timings comparable to the committed
    // baselines). Always smoke-shaped: the snapshot documents coverage,
    // not scale.
    let (_, telemetry) = telemetry_phase(|| {
        run_churn(
            NandConfig {
                blocks: 4,
                pages_per_block: 4,
                page_width: 16,
            },
            true,
            BatchSimulator::new(),
        )
    });
    for zone in [
        "replay.segment",
        "ftl.write_batch",
        "scheduler.execute",
        "population.group",
        "engine.pulse_batch",
    ] {
        let z = telemetry
            .zone(zone)
            .unwrap_or_else(|| panic!("telemetry churn must profile zone `{zone}`"));
        assert!(z.calls > 0, "zone `{zone}` must record calls");
    }
    for z in &telemetry.zones {
        println!(
            "telemetry zone {}: {} calls, total {:.3} ms, self {:.3} ms",
            z.name,
            z.calls,
            z.total_ns as f64 / 1.0e6,
            z.self_ns as f64 / 1.0e6
        );
    }
    let telemetry_write_amp = write_amplification(&telemetry);
    println!(
        "telemetry churn: {} events journaled, write amplification {telemetry_write_amp:.3}",
        telemetry.journal.recorded
    );

    let json = format!(
        "{{\n  \"bench\": \"engine_flowmap\",\n  \"config\": \"{}x{}x{}\",\n  \
         \"smoke\": {},\n  \"backend\": \"gnr-floating-gate\",\n  \"cores\": {},\n  \"threads\": {},\n  \
         \"parity_queries\": {},\n  \"parity_max_rel_err\": {:.3e},\n  \
         \"parity_digest\": \"{:#018x}\",\n  \
         \"churn_writes\": {},\n  \"churn_gc_relocations\": {},\n  \
         \"churn_exact_seconds\": {:.3},\n  \"churn_flowmap_seconds\": {:.3},\n  \
         \"churn_speedup\": {:.2},\n  \
         \"committed_baseline_churn_seconds\": {BASELINE_CHURN_SECONDS},\n  \
         \"churn_state_digest\": \"{:#018x}\",\n  \
         \"churn_thread_matrix\": [{}],\n  \
         \"scheduler_config\": \"{}x{}x{}\",\n  \"scheduler_planes\": {},\n  \
         \"scheduler_exact_ops_per_second\": {:.1},\n  \
         \"scheduler_flowmap_ops_per_second\": {:.1},\n  \
         \"scheduler_speedup\": {:.2},\n  \
         \"committed_baseline_scheduler_ops_per_second\": \
         {BASELINE_SCHEDULER_OPS_PER_SECOND},\n  \
         \"engine_cache\": {},\n  \
         \"telemetry_write_amplification\": {telemetry_write_amp:.3},\n  \
         \"telemetry\": {}\n}}\n",
        config.blocks,
        config.pages_per_block,
        config.page_width,
        smoke,
        rayon::current_num_threads(),
        bench_threads(),
        parity.queries,
        parity.max_rel_err,
        parity.digest,
        flow.writes,
        flow.gc_relocations,
        exact.seconds,
        flow.seconds,
        churn_speedup,
        flow.digest,
        matrix_json,
        sched_config.blocks,
        sched_config.pages_per_block,
        sched_config.page_width,
        planes,
        sched_exact,
        sched_flow,
        sched_speedup,
        cache_stats_snapshot_json(&churn_cache_stats),
        telemetry_snapshot_json(&telemetry),
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_engine_flowmap.json"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn bench_engine_flowmap(c: &mut Criterion) {
    measure_engine_flowmap();

    // Criterion timing on a small fixed shape: one page program per
    // mode, so the per-op flow-map vs exact gap is tracked per run.
    let config = NandConfig {
        blocks: 2,
        pages_per_block: 2,
        page_width: 16,
    };
    let bits: Vec<bool> = (0..config.page_width).map(|i| i % 2 == 0).collect();
    let mut group = c.benchmark_group("engine_flowmap");
    group.sample_size(10);
    for (label, mode) in [
        ("program_page_flowmap", EngineMode::FlowMap),
        ("program_page_exact", EngineMode::Exact),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut array =
                    NandArray::new(config).with_batch(BatchSimulator::new().with_mode(mode));
                array.program_page(0, 0, &bits).expect("program");
                array
            });
        });
    }
    // Telemetry overhead guard: the same instrumented page program with
    // the registry/journal/zones off vs fully on, so the disabled-path
    // cost (one relaxed load + branch per site) is tracked per run —
    // the ≤2% churn budget is pinned against the committed baseline by
    // the full-run JSON above; this pair keeps the per-op gap visible.
    let ambient_enabled = gnr_flash::telemetry::enabled();
    let ambient_profiling = gnr_flash::telemetry::profiling_enabled();
    for (label, on) in [
        ("program_page_telemetry_off", false),
        ("program_page_telemetry_on", true),
    ] {
        group.bench_function(label, |b| {
            gnr_flash::telemetry::set_enabled(on);
            gnr_flash::telemetry::set_profiling(on);
            b.iter(|| {
                let mut array = NandArray::new(config)
                    .with_batch(BatchSimulator::new().with_mode(EngineMode::FlowMap));
                array.program_page(0, 0, &bits).expect("program");
                array
            });
        });
    }
    gnr_flash::telemetry::set_enabled(ambient_enabled);
    gnr_flash::telemetry::set_profiling(ambient_profiling);
    group.finish();
}

criterion_group!(benches, bench_engine_flowmap);
criterion_main!(benches);
