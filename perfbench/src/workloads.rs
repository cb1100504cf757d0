//! The three workloads: set-up, one measured round, and the read-back
//! check of a round's output.
//!
//! A round always starts from a fresh set-up of its seed and runs the
//! same seeded op sequence, so every round of one seed must end in the
//! same state. The load is one client in a closed loop: each host
//! op is its own `write_batch`/`read_batch` call, so each op's latency
//! is its own and a GC stall lands on the write that paid it.

use std::time::Instant;

use gnr_flash::backend::{BackendKind, CellBackend};
use gnr_flash::engine::cache;
use gnr_flash_array::controller::FlashController;
use gnr_flash_array::ispp::nominal_cycle_recipe;
use gnr_flash_array::nand::NandConfig;
use gnr_flash_array::workload::{
    CampaignPhase, CampaignRunner, EnduranceCampaign, PagePattern, ReplayObserver, TraceSource,
    WorkloadOp,
};
use gnr_reliability::ber::BerModel;
use gnr_reliability::codec::EccConfig;
use gnr_reliability::uber::ReliabilityObserver;

use crate::stats::{derive, lower_quartile, SplitMix64};

/// Every workload runs on this shape: 64 blocks × 64 pages × 256 cells,
/// 1,048,576 cells.
pub const SHAPE: NandConfig = NandConfig {
    blocks: 64,
    pages_per_block: 64,
    page_width: 256,
};

/// Every workload runs on the paper's GNR floating-gate cell.
pub const BACKEND: BackendKind = BackendKind::GnrFloatingGate;

/// BCH correction strength of the endurance scans and the scan probe.
pub const ECC_T: usize = 4;

/// Uniform-random overwrites per `gc_churn` round.
const CHURN_OVERWRITES: usize = 250;
/// Host ops per `read_mix` round.
const MIX_OPS: usize = 8000;
/// One op in this many is an overwrite in `read_mix`.
const MIX_WRITE_EVERY: usize = 16;
/// `read_mix` sends this percentage of ops to the hot pages...
const MIX_HOT_OP_PERCENT: usize = 80;
/// ...which are this fraction of the filled half.
const MIX_HOT_PAGE_FRACTION: f64 = 0.2;
/// Epoch/window/scan rounds per `endurance` campaign.
const CAMPAIGN_ROUNDS: usize = 2;
/// Composed P/E cycles per campaign epoch.
const CAMPAIGN_CYCLES: u64 = 1000;
/// Overwrites after each campaign refill: fewer than one block holds,
/// so the window never needs GC.
const CAMPAIGN_OVERWRITES: usize = 32;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GcChurn,
    ReadMix,
    Endurance,
}

impl Workload {
    pub const ALL: [Self; 3] = [Self::GcChurn, Self::ReadMix, Self::Endurance];

    pub fn name(self) -> &'static str {
        match self {
            Self::GcChurn => "gc_churn",
            Self::ReadMix => "read_mix",
            Self::Endurance => "endurance",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One host op of a generated op stream.
#[derive(Debug, Clone, Copy)]
enum HostOp {
    Write { lpn: usize, pattern: PagePattern },
    Read { lpn: usize },
}

/// What set-up leaves behind: the controller a round starts from, the
/// data it holds, and the round's generated inputs.
pub struct Prepared {
    pub controller: FlashController,
    /// Last pattern written to each logical page (`None` = unmapped).
    expected: Vec<Option<PagePattern>>,
    ops: Vec<HostOp>,
    campaign: Option<EnduranceCampaign>,
}

/// GC counters of `wear_stats()`; a round records their deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcCounts {
    pub relocations: u64,
    pub gc_erases: u64,
    pub reclaim_erases: u64,
}

/// What a timed op of the workload's op stream was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A write that left `wear_stats().gc_relocations` unchanged.
    Write,
    /// A write that paid GC relocations.
    GcWrite,
    /// A read.
    Read,
}

impl OpKind {
    pub fn is_write(self) -> bool {
        matches!(self, Self::Write | Self::GcWrite)
    }
}

/// Everything one round measured and what its checks found.
#[derive(Debug, Default)]
pub struct Round {
    /// Every completed op of the op stream, in the order it was sent...
    pub op_kinds: Vec<OpKind>,
    /// ...and its latency (ms).
    pub op_ms: Vec<f64>,
    /// Latency of each read-back read (ms); empty unless the round ran
    /// the read-back check.
    pub read_back_ms: Vec<f64>,
    /// Wall time of the op stream, or of the whole campaign (s).
    pub round_s: f64,
    /// Wall time of the op stream alone: `round_s` on `gc_churn` and
    /// `read_mix`, the window steps on `endurance` (s).
    pub stream_s: f64,
    /// Campaign epoch-step and window-step time (s).
    pub epoch_s: f64,
    pub window_s: f64,
    /// Cell P/E cycles the campaign epochs composed.
    pub cell_cycles: u64,
    /// Every host op and campaign step attempted, and those that failed.
    pub attempted: u64,
    pub failed: u64,
    pub gc: GcCounts,
    /// Read-back pages whose data differed from the last write, plus
    /// live-set disagreements.
    pub mismatches: u64,
    /// State digest at the end of the op stream, before any read-back.
    pub digest: u64,
    /// `(RBER, UBER)` after each campaign window.
    pub trajectory: Vec<(f64, f64)>,
}

impl Round {
    fn record(&mut self, kind: OpKind, seconds: f64) {
        self.op_kinds.push(kind);
        self.op_ms.push(seconds * 1e3);
    }

    pub fn host_writes(&self) -> u64 {
        self.op_kinds.iter().filter(|k| k.is_write()).count() as u64
    }

    pub fn host_reads(&self) -> u64 {
        self.op_kinds.iter().filter(|k| !k.is_write()).count() as u64
    }
}

/// Each op's lower-quartile latency (ms) over `rounds`, where `ms`
/// gives a round's latencies in op order. Rounds replay the same ops
/// from the same state, so op `k` does the same work in each. The
/// shared host runs the benchmark through phases of several seconds in
/// which neighbours' cache traffic slows memory-bound work by 30–70%;
/// rounds spread over the whole run, and the lower quartile keeps the
/// op's time outside those phases as long as a quarter of its
/// repetitions ran outside them. Unlike the minimum, it does not drift
/// with the number of rounds that fit in a run.
fn per_op(rounds: &[Round], ms: impl Fn(&Round) -> &[f64]) -> Vec<f64> {
    let ops = rounds.iter().map(|r| ms(r).len()).min().unwrap_or(0);
    (0..ops)
        .map(|k| lower_quartile(&rounds.iter().map(|r| ms(r)[k]).collect::<Vec<_>>()))
        .collect()
}

/// The per-op latencies (ms, see [`per_op`]) of the stream ops whose
/// kind passes `keep`. The checks reject runs whose rounds disagree on
/// the op kinds.
pub fn latencies(rounds: &[Round], keep: impl Fn(OpKind) -> bool) -> Vec<f64> {
    per_op(rounds, |r| &r.op_ms)
        .into_iter()
        .zip(&rounds[0].op_kinds)
        .filter(|(_, kind)| keep(**kind))
        .map(|(ms, _)| ms)
        .collect()
}

/// The read latencies (ms) a run reports: the op stream's reads, or the
/// read-back's on workloads whose op stream has none.
pub fn read_latencies(rounds: &[Round]) -> Vec<f64> {
    let reads = latencies(rounds, |k| k == OpKind::Read);
    if reads.is_empty() {
        per_op(rounds, |r| &r.read_back_ms)
    } else {
        reads
    }
}

/// The lower quartile over `rounds` of `f`, for the reason given at
/// [`per_op`].
pub fn lower_quartile_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    lower_quartile(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// Builds the workload's starting state anew: drops every
/// engine cache entry, builds the controller and fills it, so the
/// caller's timer covers the fill and the engine-cache builds.
pub fn setup(workload: Workload, seed: u64) -> Result<Prepared, String> {
    cache::clear_entries();
    let backend = CellBackend::preset(BACKEND);
    let mut controller = FlashController::with_backend(SHAPE, &backend);
    let capacity = controller.logical_capacity();
    let mut expected = vec![None; capacity];
    let mut ops = Vec::new();
    let mut campaign = None;
    let mut rng = SplitMix64::new(derive(seed, u64::MAX));
    match workload {
        Workload::GcChurn => {
            fill(&mut controller, &mut expected, capacity, seed)?;
            ops = (0..CHURN_OVERWRITES)
                .map(|i| HostOp::Write {
                    lpn: rng.below(capacity),
                    pattern: pattern(seed, capacity + i),
                })
                .collect();
        }
        Workload::ReadMix => {
            let filled = capacity / 2;
            fill(&mut controller, &mut expected, filled, seed)?;
            let hot = (filled as f64 * MIX_HOT_PAGE_FRACTION) as usize;
            ops = (0..MIX_OPS)
                .map(|i| {
                    let lpn = if rng.below(100) < MIX_HOT_OP_PERCENT {
                        rng.below(hot)
                    } else {
                        hot + rng.below(filled - hot)
                    };
                    if rng.below(MIX_WRITE_EVERY) == 0 {
                        HostOp::Write {
                            lpn,
                            pattern: pattern(seed, filled + i),
                        }
                    } else {
                        HostOp::Read { lpn }
                    }
                })
                .collect();
        }
        Workload::Endurance => {
            let plan = EnduranceCampaign {
                rounds: CAMPAIGN_ROUNDS,
                cycles_per_round: CAMPAIGN_CYCLES,
                epoch_chunk: 0,
                recipe: nominal_cycle_recipe().map_err(|e| format!("cycle recipe: {e}"))?,
                window_overwrites: CAMPAIGN_OVERWRITES,
                // One write per step, so each window write is timed alone.
                window_segment: 1,
                window_seed: derive(seed, 0),
            };
            warm_campaign_caches(&backend, &plan)?;
            campaign = Some(plan);
        }
    }
    Ok(Prepared {
        controller,
        expected,
        ops,
        campaign,
    })
}

fn pattern(seed: u64, index: usize) -> PagePattern {
    PagePattern::Seeded {
        seed: derive(seed, index as u64),
    }
}

/// Sequential fill of logical pages `0..pages` as one bulk write.
fn fill(
    controller: &mut FlashController,
    expected: &mut [Option<PagePattern>],
    pages: usize,
    seed: u64,
) -> Result<(), String> {
    let width = SHAPE.page_width;
    let jobs = (0..pages)
        .map(|lpn| {
            let data = pattern(seed, lpn);
            expected[lpn] = Some(data);
            (Some(lpn), data.expand(width))
        })
        .collect();
    for result in controller.write_batch(jobs) {
        result.map_err(|e| format!("fill write failed: {e}"))?;
    }
    Ok(())
}

/// Builds the engine caches the campaign needs (the recipe's cycle map
/// and the program/erase flow maps) by running one round of the same
/// campaign on a tiny array.
fn warm_campaign_caches(backend: &CellBackend, plan: &EnduranceCampaign) -> Result<(), String> {
    let tiny = NandConfig {
        blocks: 2,
        pages_per_block: 2,
        page_width: 8,
    };
    let mut controller = FlashController::with_backend(tiny, backend);
    let warm = EnduranceCampaign {
        rounds: 1,
        window_overwrites: 1,
        window_segment: 0,
        ..plan.clone()
    };
    CampaignRunner::new(&warm)
        .run_to_end(&mut controller, &mut ())
        .map_err(|e| format!("cache warm-up campaign failed: {e}"))?;
    Ok(())
}

fn gc_counts(controller: &FlashController) -> GcCounts {
    let wear = controller
        .wear_stats()
        .expect("wear stats of a well-formed array");
    GcCounts {
        relocations: wear.gc_relocations,
        gc_erases: wear.gc_erases,
        reclaim_erases: wear.reclaim_erases,
    }
}

impl GcCounts {
    fn since(self, start: Self) -> Self {
        Self {
            relocations: self.relocations - start.relocations,
            gc_erases: self.gc_erases - start.gc_erases,
            reclaim_erases: self.reclaim_erases - start.reclaim_erases,
        }
    }
}

/// Runs one round on a set-up state, then, if `check_data`, the
/// read-back check. Returns the round's record and the controller it
/// ended with.
pub fn run_round(prepared: Prepared, check_data: bool) -> (Round, FlashController) {
    let Prepared {
        mut controller,
        expected,
        ops,
        campaign,
    } = prepared;
    let mut round = Round::default();
    let start = gc_counts(&controller);
    let expected = match &campaign {
        Some(campaign) => run_campaign(campaign, &mut controller, &mut round),
        None => run_ops(&ops, expected, &mut controller, &mut round),
    };
    round.gc = gc_counts(&controller).since(start);
    round.digest = controller.state_digest();
    if check_data {
        read_back(&mut controller, &expected, &mut round);
    }
    (round, controller)
}

/// The `gc_churn`/`read_mix` op stream on a controller that holds
/// `expected`. Returns the data it must hold afterwards.
fn run_ops(
    ops: &[HostOp],
    mut expected: Vec<Option<PagePattern>>,
    controller: &mut FlashController,
    round: &mut Round,
) -> Vec<Option<PagePattern>> {
    let t_round = Instant::now();
    for op in ops {
        match *op {
            HostOp::Write { lpn, pattern } => {
                round.attempted += 1;
                let job = vec![(Some(lpn), pattern.expand(SHAPE.page_width))];
                let before = gc_counts(controller).relocations;
                let t0 = Instant::now();
                let result = {
                    let _span = gnr_telemetry::zone!("bench.host_write");
                    controller.write_batch(job)
                };
                let dt = t0.elapsed().as_secs_f64();
                if result.into_iter().all(|r| r.is_ok()) {
                    expected[lpn] = Some(pattern);
                    round.record(write_kind(controller, before), dt);
                } else {
                    round.failed += 1;
                }
            }
            HostOp::Read { lpn } => {
                if let Some(dt) = host_read(controller, lpn, expected[lpn], round) {
                    round.record(OpKind::Read, dt);
                }
            }
        }
    }
    round.round_s = t_round.elapsed().as_secs_f64();
    round.stream_s = round.round_s;
    expected
}

/// Classifies a completed write by whether it advanced the GC
/// relocation count from `before`.
fn write_kind(controller: &FlashController, before: u64) -> OpKind {
    if gc_counts(controller).relocations > before {
        OpKind::GcWrite
    } else {
        OpKind::Write
    }
}

/// One timed host read of `lpn`, checked against the last pattern
/// written there. Returns its latency (s) unless it failed.
fn host_read(
    controller: &mut FlashController,
    lpn: usize,
    expected: Option<PagePattern>,
    round: &mut Round,
) -> Option<f64> {
    round.attempted += 1;
    let t0 = Instant::now();
    let result = {
        let _span = gnr_telemetry::zone!("bench.host_read");
        controller.read_batch(&[lpn])
    };
    let dt = t0.elapsed().as_secs_f64();
    match result.into_iter().next() {
        Some(Ok(bits)) => {
            if expected.map(|p| p.expand(SHAPE.page_width)) != Some(bits) {
                round.mismatches += 1;
            }
            Some(dt)
        }
        _ => {
            round.failed += 1;
            None
        }
    }
}

/// Forwards to the reliability observer only when a campaign window
/// ends (the runner calls observers after every one-write step), and
/// keeps the scan's time apart from the write that triggered it.
struct WindowEndScan {
    inner: ReliabilityObserver,
    window_ops: usize,
    scan_s: f64,
}

impl ReplayObserver for WindowEndScan {
    fn observe(
        &mut self,
        controller: &FlashController,
        op_index: usize,
    ) -> gnr_flash_array::Result<()> {
        if !op_index.is_multiple_of(self.window_ops) {
            return Ok(());
        }
        let _span = gnr_telemetry::zone!("bench.window_scan");
        let t0 = Instant::now();
        let result = self.inner.observe(controller, op_index);
        self.scan_s += t0.elapsed().as_secs_f64();
        result
    }
}

/// The `endurance` campaign through `CampaignRunner::step`. Returns the
/// data the last window left on the array.
fn run_campaign(
    campaign: &EnduranceCampaign,
    controller: &mut FlashController,
    round: &mut Round,
) -> Vec<Option<PagePattern>> {
    let capacity = controller.logical_capacity();
    let ecc = EccConfig::bch_for_width(SHAPE.page_width, ECC_T).expect("BCH fits a 256-bit page");
    let mut observer = WindowEndScan {
        inner: ReliabilityObserver::new(&ecc, BerModel::default(), None)
            .expect("reliability observer builds"),
        window_ops: campaign.window_source(capacity, 0).len(),
        scan_s: 0.0,
    };
    let mut runner = CampaignRunner::new(campaign);
    let t_round = Instant::now();
    while !runner.is_done() {
        let epoch = matches!(runner.state().phase, CampaignPhase::Epoch { .. });
        let before = gc_counts(controller).relocations;
        let scan_before = observer.scan_s;
        let t0 = Instant::now();
        let step = if epoch {
            let _span = gnr_telemetry::zone!("bench.epoch_step");
            runner.step(controller, &mut observer)
        } else {
            let _span = gnr_telemetry::zone!("bench.window_step");
            runner.step(controller, &mut observer)
        };
        let dt = t0.elapsed().as_secs_f64() - (observer.scan_s - scan_before);
        round.attempted += 1;
        match step {
            Ok(Some(report)) if epoch => {
                round.epoch_s += dt;
                round.cell_cycles += SHAPE.cells() as u64 * report.cycles;
            }
            Ok(Some(_)) => {
                round.window_s += dt;
                round.record(write_kind(controller, before), dt);
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("perfbench: campaign step failed: {e}");
                round.failed += 1;
                break;
            }
        }
    }
    round.round_s = t_round.elapsed().as_secs_f64();
    round.stream_s = round.window_s;
    round.trajectory = observer
        .inner
        .trajectory
        .iter()
        .map(|p| (p.rber, p.uber))
        .collect();
    // The last window rewrote the whole logical space: replay its op
    // stream to know what each page must hold.
    let mut expected = vec![None; capacity];
    let window = campaign.window_source(capacity, campaign.rounds - 1);
    for i in 0..window.len() {
        if let WorkloadOp::Write {
            lpn: Some(lpn),
            pattern,
        } = window.op(i)
        {
            expected[lpn] = Some(pattern);
        }
    }
    expected
}

/// Output check: reads back every logical page, one host read each,
/// compares it with the last data written, and checks that exactly the
/// written pages are live. The reads are timed like any host read.
fn read_back(
    controller: &mut FlashController,
    expected: &[Option<PagePattern>],
    round: &mut Round,
) {
    let _span = gnr_telemetry::zone!("bench.read_back");
    let live = controller.live_logical_pages();
    let want: Vec<usize> = (0..expected.len())
        .filter(|&l| expected[l].is_some())
        .collect();
    if live != want {
        round.mismatches += 1;
    }
    for lpn in want {
        if let Some(dt) = host_read(controller, lpn, expected[lpn], round) {
            round.read_back_ms.push(dt * 1e3);
        }
    }
}
