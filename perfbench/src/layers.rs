//! Per-layer metrics: zone self times and counter deltas from the traced
//! rounds, and probes that time single layer calls on a copy of the
//! final array.
//!
//! Counts and times are per round (one pass of the workload's fixed op
//! sequence; traced rounds never run the read-back check), so the counts
//! repeat exactly across runs of one seed.

use std::hint::black_box;
use std::time::Instant;

use gnr_flash::backend::CellBackend;
use gnr_flash::engine::cache::EngineCacheStats;
use gnr_flash::engine::ChargeBalanceEngine;
use gnr_flash::pulse::SquarePulse;
use gnr_flash_array::controller::FlashController;
use gnr_flash_array::disturb::DisturbBias;
use gnr_flash_array::nand::NandArray;
use gnr_flash_array::workload::PagePattern;
use gnr_reliability::ber::BerModel;
use gnr_reliability::codec::EccConfig;
use gnr_reliability::uber::scan_array;
use gnr_telemetry::TelemetrySnapshot;
use gnr_units::{Time, Voltage};

use crate::stats::{median, quantile};
use crate::workloads::{latencies, lower_quartile_of, OpKind, Round, BACKEND, ECC_T, SHAPE};
use crate::Metric;

/// Calls per probe; the probe reports their median.
const PROBE_CALLS: usize = 32;
/// Calls of the whole-array BCH scan probe.
const SCAN_CALLS: usize = 3;

/// Median times of single layer calls, and one BCH scan's result, on a
/// copy of a workload's final array.
#[derive(Debug, Default)]
pub struct Probes {
    read_page_us: f64,
    program_page_us: f64,
    erase_block_ms: f64,
    disturb_sweep_us: f64,
    pulse_column_us: f64,
    scan_s: f64,
    rber: f64,
    uber: f64,
}

fn time_s(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Times each layer call on a `snapshot_state`/`restore_state` copy of
/// the controller's array, leaving the controller itself untouched.
pub fn probe(controller: &FlashController) -> Result<Probes, String> {
    let backend = CellBackend::preset(BACKEND);
    let mut array = NandArray::restore_state_backend(&backend, controller.array().snapshot_state())
        .map_err(|e| format!("array copy: {e}"))?;
    let mut probes = Probes::default();

    // Read-only probes first, on the state the workload left.
    let ecc = EccConfig::bch_for_width(SHAPE.page_width, ECC_T).map_err(|e| e.to_string())?;
    let codec = ecc.build().map_err(|e| e.to_string())?;
    let ber = BerModel::default();
    let truth = ber.noiseless_bits(array.population(), array.batch());
    let mut scans = Vec::new();
    for _ in 0..SCAN_CALLS {
        let t0 = Instant::now();
        let point = scan_array(&array, &truth, codec.as_ref(), &ber, None, 0)
            .map_err(|e| format!("scan probe: {e}"))?;
        scans.push(t0.elapsed().as_secs_f64());
        probes.rber = point.rber;
        probes.uber = point.uber;
    }
    probes.scan_s = median(&scans);

    let device = backend
        .floating_gate_device()
        .ok_or("the benchmark backend is a floating-gate cell")?;
    let engine = ChargeBalanceEngine::new_for(BACKEND, device);
    let column = &array.population().charge_column()[..SHAPE.page_width];
    let first_rung = SquarePulse::new(Voltage::from_volts(13.0), Time::from_microseconds(10.0));
    let pulses: Vec<f64> = (0..PROBE_CALLS)
        .map(|_| time_s(|| drop(black_box(engine.pulse_final_charges(first_rung, column)))))
        .collect();
    probes.pulse_column_us = median(&pulses) * 1e6;

    // NAND commands: reads of block 1, erases of blocks 2.., then
    // programs into the freshly erased block 2.
    let pages = SHAPE.pages_per_block;
    let reads: Vec<f64> = (0..PROBE_CALLS)
        .map(|i| time_s(|| drop(black_box(array.read_page(1, i % pages)))))
        .collect();
    probes.read_page_us = median(&reads) * 1e6;
    let erases: Vec<f64> = (2..2 + PROBE_CALLS / 4)
        .map(|block| time_s(|| drop(black_box(array.erase_block(block)))))
        .collect();
    probes.erase_block_ms = median(&erases) * 1e3;
    let programs: Vec<f64> = (0..PROBE_CALLS.min(pages))
        .map(|page| {
            let bits = PagePattern::Seeded { seed: page as u64 }.expand(SHAPE.page_width);
            time_s(|| drop(black_box(array.program_page(2, page, &bits))))
        })
        .collect();
    probes.program_page_us = median(&programs) * 1e6;

    // One read's disturb sweep: the 63 sibling pages of block 1, page 0.
    let bias = DisturbBias::default();
    let siblings: Vec<usize> = (1..pages)
        .flat_map(|p| {
            let base = array.cell_index(1, p, 0);
            base..base + SHAPE.page_width
        })
        .collect();
    let sweeps: Vec<f64> = (0..PROBE_CALLS)
        .map(|_| {
            time_s(|| {
                array.population_mut().apply_disturb_cells(
                    &siblings,
                    bias.v_pass_read,
                    bias.read_exposure,
                    1,
                );
            })
        })
        .collect();
    probes.disturb_sweep_us = median(&sweeps) * 1e6;
    Ok(probes)
}

/// Sum over `rounds` of `f`, as f64.
fn total(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    rounds.iter().map(f).sum()
}

fn zone_self_s(snapshot: &TelemetrySnapshot, name: &str) -> f64 {
    snapshot.zone(name).map_or(0.0, |z| z.self_ns as f64 * 1e-9)
}

fn counter(snapshot: &TelemetrySnapshot, name: &str) -> f64 {
    snapshot.counter(name).unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Engine cache counter deltas over the traced rounds, from
/// `engine::cache::stats()`.
#[derive(Debug, Default)]
pub struct CacheDelta {
    flow_hits: u64,
    flow_misses: u64,
    cycle_misses: u64,
}

impl CacheDelta {
    pub fn add(&mut self, before: &EngineCacheStats, after: &EngineCacheStats) {
        self.flow_hits += after.flow_maps.hits - before.flow_maps.hits;
        self.flow_misses += after.flow_maps.misses - before.flow_maps.misses;
        self.cycle_misses += after.cycle_maps.misses - before.cycle_maps.misses;
    }
}

/// The traced rounds and their telemetry: the registry snapshot and the
/// engine cache deltas.
pub struct Trace<'a> {
    pub rounds: &'a [Round],
    pub snapshot: &'a TelemetrySnapshot,
    pub cache: CacheDelta,
    /// Lower-quartile untraced round of the traced pass (s).
    pub untraced_round_s: f64,
}

/// Every per-layer metric, per round of the traced pass.
pub fn per_layer(trace: &Trace<'_>, probes: &Probes) -> Vec<Metric> {
    let rounds = trace.rounds;
    let snap = trace.snapshot;
    let n = rounds.len().max(1) as f64;
    let per_round = |v: f64| v / n;

    let gc_writes = latencies(rounds, |k| k == OpKind::GcWrite);
    let nogc_writes = latencies(rounds, |k| k == OpKind::Write);
    let host_writes = total(rounds, |r| r.host_writes() as f64);
    let host_reads = total(rounds, |r| r.host_reads() as f64);
    let relocations = total(rounds, |r| r.gc.relocations as f64);
    let erases = total(rounds, |r| (r.gc.gc_erases + r.gc.reclaim_erases) as f64);
    let nand_reads = host_reads + relocations;
    let nand_programs = host_writes + relocations;
    // Every page read or program sweeps disturb over its block's other
    // pages (fault-free controller, one plane).
    let sweeps = nand_reads + nand_programs;
    let cells_per_sweep = ((SHAPE.pages_per_block - 1) * SHAPE.page_width) as f64;
    let busy_s = total(rounds, |r| r.round_s);
    let epoch_s = total(rounds, |r| r.epoch_s);
    let flow_hits = trace.cache.flow_hits as f64;
    let flow_misses = trace.cache.flow_misses as f64;

    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m(
            "controller.write_gc_p50_ms",
            quantile(&gc_writes, 0.5),
            "ms",
        ),
        m(
            "controller.write_nogc_p50_ms",
            quantile(&nogc_writes, 0.5),
            "ms",
        ),
        m(
            "controller.gc_write_share",
            ratio(
                gc_writes.len() as f64,
                (gc_writes.len() + nogc_writes.len()) as f64,
            ),
            "ratio",
        ),
        m("controller.gc_relocations", per_round(relocations), "count"),
        m(
            "controller.gc_erases",
            per_round(total(rounds, |r| r.gc.gc_erases as f64)),
            "count",
        ),
        m(
            "controller.write_amplification",
            ratio(host_writes + relocations, host_writes),
            "ratio",
        ),
        m(
            "controller.gc_self_s",
            per_round(zone_self_s(snap, "ftl.gc")),
            "s",
        ),
        m(
            "scheduler.self_s",
            per_round(zone_self_s(snap, "scheduler.execute")),
            "s",
        ),
        m(
            "scheduler.rounds",
            per_round(counter(snap, "scheduler.rounds")),
            "count",
        ),
        m("nand.read_page_us", probes.read_page_us, "us"),
        m("nand.program_page_us", probes.program_page_us, "us"),
        m("nand.erase_block_ms", probes.erase_block_ms, "ms"),
        m("nand.reads", per_round(nand_reads), "count"),
        m("nand.programs", per_round(nand_programs), "count"),
        m("nand.erases", per_round(erases), "count"),
        m("disturb.sweep_us", probes.disturb_sweep_us, "us"),
        m("disturb.sweeps", per_round(sweeps), "count"),
        m(
            "disturb.cell_updates",
            per_round(sweeps * cells_per_sweep),
            "count",
        ),
        // An estimate, not a measurement: sweep count × the probe median,
        // which sweeps a fully written block and so overstates sweeps
        // over blocks that are still mostly erased.
        m(
            "disturb.time_share_est",
            ratio(sweeps * probes.disturb_sweep_us * 1e-6, busy_s),
            "ratio",
        ),
        m(
            "population.group_self_s",
            per_round(zone_self_s(snap, "population.group")),
            "s",
        ),
        m(
            "population.groups_per_op",
            snap.histogram("population.groups_per_op")
                .map_or(0.0, |h| h.mean()),
            "count",
        ),
        m(
            "population.epoch_probes",
            per_round(counter(snap, "population.epoch.probes")),
            "count",
        ),
        m(
            "population.epoch_fallbacks",
            per_round(counter(snap, "population.epoch.fallbacks")),
            "count",
        ),
        m(
            "engine.pulse_batch_self_s",
            per_round(zone_self_s(snap, "engine.pulse_batch")),
            "s",
        ),
        m("engine.pulse_column_us", probes.pulse_column_us, "us"),
        m(
            "engine.flowmap.escape_share",
            ratio(
                counter(snap, "engine.flowmap.escapes"),
                counter(snap, "engine.flowmap.queries"),
            ),
            "ratio",
        ),
        m(
            "engine.cache.flow_maps.hit_rate",
            ratio(flow_hits, flow_hits + flow_misses),
            "ratio",
        ),
        m(
            "engine.cache.cycle_maps.misses",
            per_round(trace.cache.cycle_misses as f64),
            "count",
        ),
        m("workload.epoch_step_s", per_round(epoch_s), "s"),
        m(
            "workload.window_step_s",
            per_round(total(rounds, |r| r.window_s)),
            "s",
        ),
        m(
            "workload.cell_cycles_per_s",
            ratio(total(rounds, |r| r.cell_cycles as f64), epoch_s),
            "1/s",
        ),
        m("reliability.scan_s", probes.scan_s, "s"),
        m(
            "reliability.decode_pages",
            per_round(counter(snap, "reliability.decode.pages")),
            "count",
        ),
        m(
            "reliability.uncorrectable_pages",
            per_round(counter(snap, "reliability.decode.uncorrectable")),
            "count",
        ),
        m("reliability.rber_final", probes.rber, "ratio"),
        m("reliability.uber_final", probes.uber, "ratio"),
        m(
            "trace.overhead_share",
            ratio(
                lower_quartile_of(rounds, |r| r.round_s) - trace.untraced_round_s,
                trace.untraced_round_s,
            ),
            "ratio",
        ),
    ]
}
