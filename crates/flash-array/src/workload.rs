//! Trace-driven workloads: the layer that turns the array stack into a
//! storage device under load.
//!
//! The JETC companion paper analyses the same device family under
//! realistic array traffic; this module makes that runnable: a
//! serializable trace format ([`WorkloadTrace`]), generators for the
//! canonical mixes (sequential fill, uniform-random writes, hot/cold
//! skew, read-disturb-heavy, steady-state GC churn) and a replayer that
//! drives a [`FlashController`] while recording per-op latency, wear
//! spread, disturb and margin trajectories.
//!
//! Patterns are *procedural* ([`PagePattern`]) rather than literal bit
//! buffers, so a trace over a million-cell array stays kilobytes.

use std::time::Instant;

use gnr_numerics::stats::Summary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::controller::{FlashController, WearStats};
use crate::margins::{self, MarginReport};
use crate::nand::NandConfig;
use crate::{ArrayError, Result};

/// Procedural page contents (`false` = programmed '0').
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PagePattern {
    /// Every bit programmed.
    AllProgrammed,
    /// Every bit left erased (a pure inhibit page).
    AllErased,
    /// Alternating bits; `phase` flips which columns program.
    Checkerboard {
        /// `true` programs even columns, `false` odd.
        phase: bool,
    },
    /// Deterministic pseudo-random bits from a seed.
    Seeded {
        /// The seed.
        seed: u64,
    },
}

impl PagePattern {
    /// Expands the pattern to a page-width bit buffer.
    #[must_use]
    pub fn expand(&self, width: usize) -> Vec<bool> {
        match *self {
            Self::AllProgrammed => vec![false; width],
            Self::AllErased => vec![true; width],
            Self::Checkerboard { phase } => (0..width).map(|i| (i % 2 == 0) != phase).collect(),
            Self::Seeded { seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..width).map(|_| rng.gen_range(0u8..2) == 1).collect()
            }
        }
    }
}

/// One operation of a workload trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WorkloadOp {
    /// Write a page: to `lpn`, or to the controller's rotating logical
    /// cursor when `None`.
    Write {
        /// Target logical page.
        lpn: Option<usize>,
        /// Page contents.
        pattern: PagePattern,
    },
    /// Read the live copy of a logical page (unmapped reads count as
    /// misses, not errors).
    Read {
        /// Target logical page.
        lpn: usize,
    },
    /// Explicitly erase a physical block.
    EraseBlock {
        /// Block index.
        block: usize,
    },
}

/// A named, replayable sequence of operations.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadTrace {
    /// Trace name (recorded in reports).
    pub name: String,
    /// The operations, in order.
    pub ops: Vec<WorkloadOp>,
}

impl WorkloadTrace {
    /// Sequential fill: `pages` writes through the rotating cursor —
    /// the log-structured best case.
    #[must_use]
    pub fn sequential_fill(pages: usize, pattern: PagePattern) -> Self {
        Self {
            name: "sequential_fill".into(),
            ops: (0..pages)
                .map(|_| WorkloadOp::Write { lpn: None, pattern })
                .collect(),
        }
    }

    /// Uniform-random logical overwrites — the wear-levelling stress
    /// case.
    #[must_use]
    pub fn random_writes(n: usize, logical_capacity: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            name: "random_writes".into(),
            ops: (0..n)
                .map(|i| WorkloadOp::Write {
                    lpn: Some(rng.gen_range(0..logical_capacity)),
                    pattern: PagePattern::Seeded {
                        seed: seed ^ i as u64,
                    },
                })
                .collect(),
        }
    }

    /// Hot/cold skew: `hot_op_fraction` of writes land on the first
    /// `hot_page_fraction` of the logical space — the GC-relevant
    /// locality real workloads show.
    #[must_use]
    pub fn hot_cold(
        n: usize,
        logical_capacity: usize,
        hot_op_fraction: f64,
        hot_page_fraction: f64,
        seed: u64,
    ) -> Self {
        let hot_pages = ((logical_capacity as f64 * hot_page_fraction) as usize).max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            name: "hot_cold".into(),
            ops: (0..n)
                .map(|i| {
                    let hot = rng.gen_range(0.0..1.0) < hot_op_fraction;
                    let lpn = if hot {
                        rng.gen_range(0..hot_pages)
                    } else {
                        rng.gen_range(hot_pages.min(logical_capacity - 1)..logical_capacity)
                    };
                    WorkloadOp::Write {
                        lpn: Some(lpn),
                        pattern: PagePattern::Seeded {
                            seed: seed ^ i as u64,
                        },
                    }
                })
                .collect(),
        }
    }

    /// Read-disturb-heavy: one write then `reads_per_write` random reads,
    /// repeated — hammers pass-voltage exposure on unselected pages.
    #[must_use]
    pub fn read_heavy(
        writes: usize,
        reads_per_write: usize,
        logical_capacity: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops = Vec::with_capacity(writes * (1 + reads_per_write));
        for i in 0..writes {
            let lpn = rng.gen_range(0..logical_capacity);
            ops.push(WorkloadOp::Write {
                lpn: Some(lpn),
                pattern: PagePattern::Seeded {
                    seed: seed ^ i as u64,
                },
            });
            for _ in 0..reads_per_write {
                ops.push(WorkloadOp::Read {
                    lpn: rng.gen_range(0..logical_capacity),
                });
            }
        }
        Self {
            name: "read_heavy".into(),
            ops,
        }
    }

    /// Steady-state GC churn: fill the whole logical space once, then
    /// `overwrites` uniform-random rewrites — the regime where every new
    /// write costs reclaim or relocation work.
    #[must_use]
    pub fn gc_churn(overwrites: usize, logical_capacity: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ops: Vec<WorkloadOp> = (0..logical_capacity)
            .map(|lpn| WorkloadOp::Write {
                lpn: Some(lpn),
                pattern: PagePattern::Seeded {
                    seed: seed ^ lpn as u64,
                },
            })
            .collect();
        ops.extend((0..overwrites).map(|i| WorkloadOp::Write {
            lpn: Some(rng.gen_range(0..logical_capacity)),
            pattern: PagePattern::Seeded {
                seed: seed ^ (logical_capacity + i) as u64,
            },
        }));
        Self {
            name: "gc_churn".into(),
            ops,
        }
    }

    /// The acceptance-criterion trace for a shape: program every logical
    /// page once (a full-array page-program) and then erase every block.
    #[must_use]
    pub fn full_array_cycle(config: NandConfig) -> Self {
        let logical = config.logical_pages();
        let mut ops: Vec<WorkloadOp> = (0..logical)
            .map(|lpn| WorkloadOp::Write {
                lpn: Some(lpn),
                pattern: PagePattern::Checkerboard {
                    phase: lpn % 2 == 1,
                },
            })
            .collect();
        ops.extend((0..config.blocks).map(|block| WorkloadOp::EraseBlock { block }));
        Self {
            name: "full_array_cycle".into(),
            ops,
        }
    }
}

/// A random-access stream of workload operations — the seam the
/// replayer actually consumes. `op(index)` must be a pure function of
/// the index, which buys two properties a materialized `Vec` cannot:
/// traces of billions of ops cost no memory (each op is synthesized on
/// demand), and any suffix can be replayed without regenerating the
/// prefix — the property checkpointed campaigns resume on.
///
/// [`WorkloadTrace`] implements the trait by indexing its `ops` vector,
/// so every existing generator works unchanged; [`GcChurnSource`] is
/// the streaming counterpart that never materializes.
pub trait TraceSource {
    /// Trace name (recorded in reports).
    fn name(&self) -> &str;
    /// Total operation count.
    fn len(&self) -> usize;
    /// `true` when the trace has no operations.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The operation at `index` (`index < len()`). Must be pure: two
    /// calls with the same index return the same op.
    fn op(&self, index: usize) -> WorkloadOp;

    /// Iterates the ops in order without materializing them.
    fn iter_ops(&self) -> Box<dyn Iterator<Item = WorkloadOp> + '_>
    where
        Self: Sized,
    {
        Box::new((0..self.len()).map(move |i| self.op(i)))
    }
}

impl TraceSource for WorkloadTrace {
    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> usize {
        self.ops.len()
    }

    fn op(&self, index: usize) -> WorkloadOp {
        self.ops[index]
    }
}

/// Streaming steady-state GC churn: the counter-based counterpart of
/// [`WorkloadTrace::gc_churn`]. The first `capacity` ops fill the
/// logical space sequentially; every later op rewrites a
/// pseudo-randomly chosen logical page. Each op is a pure hash of
/// `(seed, index)`, so a billion-op churn stream costs 24 bytes and
/// resumes from any index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcChurnSource {
    capacity: usize,
    overwrites: usize,
    seed: u64,
}

impl GcChurnSource {
    /// A churn stream over `capacity` logical pages: one sequential
    /// fill, then `overwrites` random rewrites.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero (there is nothing to overwrite).
    #[must_use]
    pub fn new(capacity: usize, overwrites: usize, seed: u64) -> Self {
        assert!(capacity > 0, "GC churn needs a non-empty logical space");
        Self {
            capacity,
            overwrites,
            seed,
        }
    }

    /// SplitMix64 finalizer — a full-avalanche mix of `(seed, i)`, so
    /// op targets are uniform without any sequential RNG state.
    fn mix(&self, i: u64) -> u64 {
        let mut z = self.seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl TraceSource for GcChurnSource {
    fn name(&self) -> &str {
        "gc_churn_stream"
    }

    fn len(&self) -> usize {
        self.capacity + self.overwrites
    }

    fn op(&self, index: usize) -> WorkloadOp {
        let lpn = if index < self.capacity {
            index
        } else {
            (self.mix(index as u64) % self.capacity as u64) as usize
        };
        WorkloadOp::Write {
            lpn: Some(lpn),
            pattern: PagePattern::Seeded {
                seed: self.seed ^ index as u64,
            },
        }
    }
}

/// Replayer knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayOptions {
    /// Record a [`WorkloadSnapshot`] every `snapshot_interval` ops
    /// (`0` = only the final snapshot).
    pub snapshot_interval: usize,
    /// Include a full margin scan in each snapshot (an O(cells) column
    /// sweep — cheap, but worth switching off for the largest arrays).
    pub margin_scan: bool,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        Self {
            snapshot_interval: 0,
            margin_scan: true,
        }
    }
}

/// Array health at one point of a replay: wear, occupancy and (when
/// enabled) the margin/disturb picture of the whole population.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct WorkloadSnapshot {
    /// Ops completed when the snapshot was taken.
    pub op_index: usize,
    /// Wear statistics.
    pub wear: WearStats,
    /// Live pages mapped.
    pub live_pages: usize,
    /// Margin report (the erased population's `vt.max` is the disturb
    /// trajectory; `worst_case_margin` the sensing headroom).
    pub margins: Option<MarginReport>,
    /// Mean injected-charge wear per cell (C) — the oxide-fluence
    /// trajectory of the endurance model.
    pub mean_injected_charge: f64,
}

/// What a replay did and what it cost.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct WorkloadReport {
    /// Trace name.
    pub trace: String,
    /// Array shape replayed against.
    pub config: NandConfig,
    /// Total operations replayed.
    pub ops: usize,
    /// Page writes completed.
    pub writes: u64,
    /// Page reads completed.
    pub reads: u64,
    /// Reads of unmapped logical pages (misses, skipped).
    pub read_misses: u64,
    /// Explicit block erases.
    pub erases: u64,
    /// Cells in the array.
    pub cells: usize,
    /// Cells touched by program operations (written pages × width).
    pub cells_written: u64,
    /// Wall-clock of the replay loop (s).
    pub wall_seconds: f64,
    /// `cells_written / wall_seconds`.
    pub cells_per_second: f64,
    /// Bytes of per-cell state — the peak-RSS proxy of the SoA model.
    pub bytes_per_cell: usize,
    /// Per-write wall latency (µs). Writes executed inside one scheduled
    /// batch share that batch's mean, so percentiles resolve *batch*
    /// boundaries (a GC stall shows up in the batch that paid it), not
    /// individual ops within a batch. For true per-batch wall times —
    /// no mean-splitting — enable telemetry and read the
    /// `replay.write_batch_us` histogram, which records each batch's
    /// total duration as one sample.
    pub write_latency_us: Option<Summary>,
    /// Per-read wall latency (µs); batch-mean semantics as for writes
    /// (the true per-batch histogram is `replay.read_batch_us`).
    pub read_latency_us: Option<Summary>,
    /// Trajectories sampled during the replay (always ends with the
    /// final state).
    pub snapshots: Vec<WorkloadSnapshot>,
}

/// A hook called at every snapshot point of a replay (the
/// `snapshot_interval` cadence, plus exactly one terminal observation
/// when the trace length is not a multiple of the cadence) — the seam
/// through
/// which higher layers (e.g. the reliability pipeline's UBER tracker)
/// record their own trajectories against the same op clock without the
/// workload layer depending on them.
pub trait ReplayObserver {
    /// Observes the controller after `op_index` operations. The replayer
    /// and [`CampaignRunner::step`] settle the array first
    /// ([`FlashController::settle`]), so the population may be read.
    ///
    /// # Errors
    ///
    /// Errors abort the replay.
    fn observe(&mut self, controller: &FlashController, op_index: usize) -> Result<()>;
}

/// The do-nothing observer, for a [`replay`] nobody watches.
impl ReplayObserver for () {
    fn observe(&mut self, _controller: &FlashController, _op_index: usize) -> Result<()> {
        Ok(())
    }
}

/// A [`ReplayObserver`] that samples the unified telemetry registry at
/// every snapshot point, pairing each [`gnr_telemetry::snapshot`] with
/// the op index it was taken at — a per-phase telemetry trajectory on
/// the same cadence as the built-in [`WorkloadSnapshot`]s.
#[derive(Debug, Default)]
pub struct TelemetryObserver {
    samples: Vec<(usize, gnr_telemetry::TelemetrySnapshot)>,
}

impl TelemetryObserver {
    /// An observer with no samples yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The `(op_index, snapshot)` samples collected so far.
    #[must_use]
    pub fn samples(&self) -> &[(usize, gnr_telemetry::TelemetrySnapshot)] {
        &self.samples
    }

    /// Consumes the observer, yielding its samples.
    #[must_use]
    pub fn into_samples(self) -> Vec<(usize, gnr_telemetry::TelemetrySnapshot)> {
        self.samples
    }
}

impl ReplayObserver for TelemetryObserver {
    fn observe(&mut self, _controller: &FlashController, op_index: usize) -> Result<()> {
        self.samples.push((op_index, gnr_telemetry::snapshot()));
        Ok(())
    }
}

/// Interns the replay-level metric catalogue with explicit zeros so a
/// telemetry-enabled replay always reports every acceptance-relevant
/// metric, even ones the particular trace never fires (a churn trace
/// with no epoch jump still shows `population.epoch.probes: 0`). A
/// no-op — no interning, no registry touch — while telemetry is
/// disabled.
fn intern_metric_catalogue() {
    gnr_telemetry::counter_add!("engine.flowmap.queries", 0);
    gnr_telemetry::counter_add!("engine.flowmap.answers", 0);
    gnr_telemetry::counter_add!("engine.flowmap.escapes", 0);
    gnr_telemetry::counter_add!("engine.ode.integrations", 0);
    gnr_telemetry::counter_add!("population.ops", 0);
    gnr_telemetry::counter_add!("population.groups", 0);
    gnr_telemetry::counter_add!("population.epoch.probes", 0);
    gnr_telemetry::counter_add!("population.epoch.fallbacks", 0);
    gnr_telemetry::counter_add!("disturb.events", 0);
    gnr_telemetry::counter_add!("disturb.page_settles", 0);
    gnr_telemetry::counter_add!("disturb.replays", 0);
    gnr_telemetry::counter_add!("ftl.host_pages_written", 0);
    gnr_telemetry::counter_add!("ftl.reclaims", 0);
    gnr_telemetry::counter_add!("ftl.gc.erases", 0);
    gnr_telemetry::counter_add!("ftl.gc.relocations", 0);
    gnr_telemetry::counter_add!("ftl.epoch_jumps", 0);
    gnr_telemetry::counter_add!("scheduler.executions", 0);
    gnr_telemetry::counter_add!("scheduler.reads_hoisted", 0);
    gnr_telemetry::counter_add!("replay.write_batches", 0);
    gnr_telemetry::counter_add!("replay.read_batches", 0);
    gnr_telemetry::counter_add!("ftl.program_fails", 0);
    gnr_telemetry::counter_add!("ftl.blocks_retired", 0);
    gnr_telemetry::counter_add!("ftl.read_only_entries", 0);
    gnr_telemetry::counter_add!("ftl.meta_checkpoints", 0);
    gnr_telemetry::counter_add!("ftl.power_losses", 0);
    gnr_telemetry::counter_add!("ftl.recoveries", 0);
    gnr_telemetry::counter_add!("ftl.read_reclaims", 0);
}

/// Execution counts of one replayed segment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SegmentCounts {
    pub writes: u64,
    pub reads: u64,
    pub read_misses: u64,
    pub erases: u64,
}

/// Executes ops `[start, end)` of `source` against the controller,
/// batching consecutive same-kind operations through the multi-plane
/// entry points. Batches never cross the segment boundary, so running a
/// trace segment-by-segment (on any segmentation) is bit-identical to
/// running it whole with the same boundaries — the property that makes
/// checkpointed campaigns resume digest-identical: the replayer always
/// cuts segments at snapshot boundaries.
pub(crate) fn execute_segment(
    controller: &mut FlashController,
    source: &dyn TraceSource,
    start: usize,
    end: usize,
    write_lat: &mut Vec<f64>,
    read_lat: &mut Vec<f64>,
) -> Result<SegmentCounts> {
    let width = controller.array().config().page_width;
    let mut counts = SegmentCounts::default();
    let mut i = start;
    while i < end {
        match source.op(i) {
            WorkloadOp::Write { .. } => {
                let mut jobs: Vec<(Option<usize>, Vec<bool>)> = Vec::new();
                while i + jobs.len() < end {
                    let WorkloadOp::Write { lpn, pattern } = source.op(i + jobs.len()) else {
                        break;
                    };
                    jobs.push((lpn, pattern.expand(width)));
                }
                let n = jobs.len();
                gnr_telemetry::set_op_index(i as u64);
                let t0 = Instant::now();
                let results = controller.write_batch(jobs);
                let elapsed = t0.elapsed();
                gnr_telemetry::counter_add!("replay.write_batches", 1);
                gnr_telemetry::histogram_record!(
                    "replay.write_batch_us",
                    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
                );
                #[allow(clippy::cast_precision_loss)]
                let per_op = elapsed.as_secs_f64() * 1.0e6 / n as f64;
                // Per-op results: the replayer keeps the historical
                // abort-on-first-failure contract — committed work
                // before the failing op stands.
                for result in results {
                    result?;
                    write_lat.push(per_op);
                    counts.writes += 1;
                }
                i += n;
            }
            WorkloadOp::Read { .. } => {
                let mut lpns: Vec<usize> = Vec::new();
                while i + lpns.len() < end {
                    let WorkloadOp::Read { lpn } = source.op(i + lpns.len()) else {
                        break;
                    };
                    lpns.push(lpn);
                }
                gnr_telemetry::set_op_index(i as u64);
                let t0 = Instant::now();
                let results = controller.read_batch(&lpns);
                let elapsed = t0.elapsed();
                gnr_telemetry::counter_add!("replay.read_batches", 1);
                gnr_telemetry::histogram_record!(
                    "replay.read_batch_us",
                    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
                );
                #[allow(clippy::cast_precision_loss)]
                let per_op = elapsed.as_secs_f64() * 1.0e6 / lpns.len() as f64;
                for result in results {
                    match result {
                        Ok(_) => {
                            read_lat.push(per_op);
                            counts.reads += 1;
                        }
                        Err(ArrayError::AddressOutOfRange { .. }) => counts.read_misses += 1,
                        Err(e) => return Err(e),
                    }
                }
                i += lpns.len();
            }
            WorkloadOp::EraseBlock { block } => {
                gnr_telemetry::set_op_index(i as u64);
                controller.erase_block(block)?;
                counts.erases += 1;
                i += 1;
            }
        }
    }
    Ok(counts)
}

/// Replays a trace against a controller, recording per-op latency and
/// periodic health snapshots, and calling `observer` at every snapshot
/// point so external trackers (error-rate reporters, custom probes)
/// sample the array on the same cadence (pass `&mut ()` for none). Ops
/// are synthesized on demand, so streaming sources replay without ever
/// materializing their operation list; a [`WorkloadTrace`] is a
/// [`TraceSource`] too.
///
/// # Errors
///
/// Propagates write/erase failures (verify failures, capacity
/// exhaustion) and observer errors; read misses are counted, not
/// raised.
pub fn replay(
    controller: &mut FlashController,
    source: &dyn TraceSource,
    options: &ReplayOptions,
    observer: &mut dyn ReplayObserver,
) -> Result<WorkloadReport> {
    let config = controller.array().config();
    let width = config.page_width;
    let total = source.len();
    let mut writes = 0u64;
    let mut reads = 0u64;
    let mut read_misses = 0u64;
    let mut erases = 0u64;
    let mut write_lat = Vec::new();
    let mut read_lat = Vec::new();
    let mut snapshots = Vec::new();

    intern_metric_catalogue();
    let start = Instant::now();
    // Consecutive same-kind operations batch through the controller's
    // multi-plane entry points (split at snapshot boundaries so the
    // recorded trajectories keep their cadence). Batched execution is
    // bit-identical to the historical per-op loop — the scheduler
    // preserves per-block order and distinct-block work commutes — so
    // only the wall clock changes. Per-op latency within a batch is the
    // batch wall time divided evenly across its ops.
    let mut i = 0;
    while i < total {
        let boundary = match options.snapshot_interval {
            0 => total,
            interval => ((i / interval + 1) * interval).min(total),
        };
        let counts = {
            let _zone = gnr_telemetry::zone!("replay.segment");
            execute_segment(
                controller,
                source,
                i,
                boundary,
                &mut write_lat,
                &mut read_lat,
            )?
        };
        writes += counts.writes;
        reads += counts.reads;
        read_misses += counts.read_misses;
        erases += counts.erases;
        i = boundary;
        if options.snapshot_interval > 0 && i % options.snapshot_interval == 0 {
            controller.settle();
            snapshots.push(take_snapshot(controller, i, options.margin_scan)?);
            observer.observe(controller, i)?;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    // Terminal snapshot, exactly once: the cadence loop already recorded
    // it when the op count is a multiple of the interval — duplicating
    // it double-counted the final state in every trajectory (and fired
    // observers twice); and without this fallback, a trace whose length
    // is not a multiple of the cadence would drop its final state.
    if snapshots.last().map(|s| s.op_index) != Some(total) {
        controller.settle();
        snapshots.push(take_snapshot(controller, total, options.margin_scan)?);
        observer.observe(controller, total)?;
    }

    let cells_written = writes * width as u64;
    #[allow(clippy::cast_precision_loss)]
    let cells_per_second = if wall > 0.0 {
        cells_written as f64 / wall
    } else {
        0.0
    };
    let summarize = |lat: &[f64]| {
        (!lat.is_empty())
            .then(|| Summary::from_samples(lat))
            .transpose()
            .map_err(|e| ArrayError::Device(e.into()))
    };
    Ok(WorkloadReport {
        trace: source.name().to_string(),
        config,
        ops: total,
        writes,
        reads,
        read_misses,
        erases,
        cells: config.cells(),
        cells_written,
        wall_seconds: wall,
        cells_per_second,
        bytes_per_cell: controller.array().population().bytes_per_cell(),
        write_latency_us: summarize(&write_lat)?,
        read_latency_us: summarize(&read_lat)?,
        snapshots,
    })
}

/// A long-horizon endurance campaign: `rounds` alternations of one
/// epoch jump (`cycles_per_round` composed P/E cycles of `recipe`
/// through [`FlashController::run_epoch`]) and one full-fidelity
/// observation window (a streaming GC-churn workload replayed through
/// the ordinary FTL/scheduler path, with a [`ReplayObserver`] sampling
/// at every segment boundary).
///
/// The campaign advances through [`CampaignRunner::step`], each step
/// being exactly one checkpointable unit — callers may serialize a
/// [`CampaignCheckpoint`] between any two steps and resume in another
/// process with bit-identical continuation.
#[derive(Debug, Clone, PartialEq)]
pub struct EnduranceCampaign {
    /// Epoch/window alternations.
    pub rounds: usize,
    /// Composed P/E cycles per round's epoch jump.
    pub cycles_per_round: u64,
    /// Cycles advanced per [`CampaignRunner::step`] within an epoch
    /// (`0` = the whole round's cycles in one step). Smaller chunks
    /// buy finer checkpoint granularity at the cost of more composed
    /// jumps — the jump count, not the cycle count, is what costs.
    pub epoch_chunk: u64,
    /// The pinned P/E pulse train each epoch composes.
    pub recipe: gnr_flash::engine::CycleRecipe,
    /// Random rewrites per observation window (each window first
    /// refills the logical space sequentially — the epoch jump left
    /// the array erased).
    pub window_overwrites: usize,
    /// Ops per window segment — the observer cadence *and* the
    /// checkpoint granularity inside a window (`0` = the whole window
    /// is one segment).
    pub window_segment: usize,
    /// Base seed; each round's window stream reseeds from it.
    pub window_seed: u64,
}

impl EnduranceCampaign {
    /// The window workload of `round`: a fresh GC-churn stream over
    /// the controller's logical space, decorrelated per round.
    #[must_use]
    pub fn window_source(&self, capacity: usize, round: usize) -> GcChurnSource {
        GcChurnSource::new(
            capacity,
            self.window_overwrites,
            self.window_seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        )
    }
}

/// Where a campaign stands inside its current round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CampaignPhase {
    /// Mid-epoch: `cycles_done` of the round's cycles composed so far.
    Epoch {
        /// Cycles already composed this round.
        cycles_done: u64,
    },
    /// Mid-window: `ops_done` of the round's window ops replayed.
    Window {
        /// Window ops already replayed this round.
        ops_done: usize,
    },
}

/// The campaign's resumable position: the round index and the phase
/// position inside it. Together with a
/// [`ControllerSnapshot`](crate::controller::ControllerSnapshot) this is
/// everything a resumed process needs — the campaign *configuration*
/// (recipe, seeds, shape) is reconstructed by the caller exactly like
/// the device blueprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CampaignState {
    /// Current round (0-based); `round == rounds` means done.
    pub round: usize,
    /// Position inside the round.
    pub phase: CampaignPhase,
}

/// A full campaign checkpoint: the controller's complete state plus
/// the campaign position. Serializable between any two
/// [`CampaignRunner::step`] calls; restoring and continuing produces
/// the same [`FlashController::state_digest`] as never stopping.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CampaignCheckpoint {
    /// The controller snapshot.
    pub controller: crate::controller::ControllerSnapshot,
    /// The campaign position.
    pub state: CampaignState,
}

/// What one [`CampaignRunner::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignStepReport {
    /// Round the step worked in.
    pub round: usize,
    /// Cycles composed (epoch steps; 0 for window steps).
    pub cycles: u64,
    /// Window ops replayed (window steps; 0 for epoch steps).
    pub ops: usize,
    /// Epoch telemetry (epoch steps only).
    pub epoch: Option<crate::population::EpochReport>,
}

/// Drives an [`EnduranceCampaign`] one checkpointable unit at a time.
///
/// Each [`Self::step`] advances either one epoch chunk or one window
/// segment and then returns, leaving the controller and the runner's
/// [`Self::state`] mutually consistent — the caller may checkpoint
/// there, or just keep stepping. An uninterrupted run and a
/// restore-and-continue run execute the *same* sequence of segment
/// boundaries, which is what makes them digest-identical (replay
/// batching never crosses a segment boundary).
#[derive(Debug)]
pub struct CampaignRunner<'a> {
    campaign: &'a EnduranceCampaign,
    state: CampaignState,
}

impl<'a> CampaignRunner<'a> {
    /// A runner at the campaign's start.
    #[must_use]
    pub fn new(campaign: &'a EnduranceCampaign) -> Self {
        Self::resume(
            campaign,
            CampaignState {
                round: 0,
                phase: CampaignPhase::Epoch { cycles_done: 0 },
            },
        )
    }

    /// A runner continuing from a checkpointed position (the paired
    /// controller must be restored from the same checkpoint).
    #[must_use]
    pub fn resume(campaign: &'a EnduranceCampaign, state: CampaignState) -> Self {
        Self { campaign, state }
    }

    /// The current position (what a checkpoint stores).
    #[must_use]
    pub fn state(&self) -> CampaignState {
        self.state
    }

    /// `true` when every round has run.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.state.round >= self.campaign.rounds
    }

    /// Advances one checkpointable unit: one epoch chunk, or one window
    /// segment followed by one observer call. Returns `None` when the
    /// campaign is already done.
    ///
    /// # Errors
    ///
    /// Device, replay and observer errors propagate; the runner's state
    /// is unspecified after an error.
    pub fn step(
        &mut self,
        controller: &mut FlashController,
        observer: &mut dyn ReplayObserver,
    ) -> Result<Option<CampaignStepReport>> {
        let campaign = self.campaign;
        if self.is_done() {
            return Ok(None);
        }
        let round = self.state.round;
        match self.state.phase {
            CampaignPhase::Epoch { cycles_done } => {
                let remaining = campaign.cycles_per_round.saturating_sub(cycles_done);
                let chunk = match campaign.epoch_chunk {
                    0 => remaining,
                    c => c.min(remaining),
                };
                let epoch = (chunk > 0)
                    .then(|| controller.run_epoch(&campaign.recipe, chunk))
                    .transpose()?;
                let done = cycles_done + chunk;
                self.state.phase = if done >= campaign.cycles_per_round {
                    CampaignPhase::Window { ops_done: 0 }
                } else {
                    CampaignPhase::Epoch { cycles_done: done }
                };
                Ok(Some(CampaignStepReport {
                    round,
                    cycles: chunk,
                    ops: 0,
                    epoch,
                }))
            }
            CampaignPhase::Window { ops_done } => {
                let source = campaign.window_source(controller.logical_capacity(), round);
                let total = source.len();
                let end = match campaign.window_segment {
                    0 => total,
                    seg => (ops_done + seg).min(total),
                };
                // Latency samples are observability-only; the campaign
                // records trajectories through its observer instead.
                let (mut wl, mut rl) = (Vec::new(), Vec::new());
                execute_segment(controller, &source, ops_done, end, &mut wl, &mut rl)?;
                controller.settle();
                observer.observe(controller, round * total + end)?;
                if end >= total {
                    self.state.round += 1;
                    self.state.phase = CampaignPhase::Epoch { cycles_done: 0 };
                } else {
                    self.state.phase = CampaignPhase::Window { ops_done: end };
                }
                Ok(Some(CampaignStepReport {
                    round,
                    cycles: 0,
                    ops: end - ops_done,
                    epoch: None,
                }))
            }
        }
    }

    /// Runs every remaining step.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::step`].
    pub fn run_to_end(
        &mut self,
        controller: &mut FlashController,
        observer: &mut dyn ReplayObserver,
    ) -> Result<Vec<CampaignStepReport>> {
        let mut reports = Vec::new();
        while let Some(report) = self.step(controller, observer)? {
            reports.push(report);
        }
        Ok(reports)
    }
}

fn take_snapshot(
    controller: &FlashController,
    op_index: usize,
    margin_scan: bool,
) -> Result<WorkloadSnapshot> {
    let pop = controller.array().population();
    let wear_summary = pop.wear_summary()?;
    Ok(WorkloadSnapshot {
        op_index,
        wear: controller.wear_stats()?,
        live_pages: controller.live_pages(),
        margins: if margin_scan {
            Some(margins::analyze(controller.array())?)
        } else {
            None
        },
        mean_injected_charge: wear_summary.mean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NandConfig {
        NandConfig {
            blocks: 3,
            pages_per_block: 2,
            page_width: 8,
        }
    }

    #[test]
    fn patterns_expand_deterministically() {
        assert_eq!(PagePattern::AllErased.expand(3), vec![true; 3]);
        assert_eq!(
            PagePattern::Checkerboard { phase: true }.expand(4),
            vec![false, true, false, true]
        );
        let a = PagePattern::Seeded { seed: 9 }.expand(64);
        let b = PagePattern::Seeded { seed: 9 }.expand(64);
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
    }

    #[test]
    fn traces_round_trip_through_json() {
        let trace = WorkloadTrace {
            name: "mixed".into(),
            ops: vec![
                WorkloadOp::Write {
                    lpn: None,
                    pattern: PagePattern::Checkerboard { phase: true },
                },
                WorkloadOp::Write {
                    lpn: Some(3),
                    pattern: PagePattern::Seeded { seed: 77 },
                },
                WorkloadOp::Write {
                    lpn: Some(4),
                    // Above 2^53: JSON integers must stay exact.
                    pattern: PagePattern::Seeded {
                        seed: u64::MAX - 12,
                    },
                },
                WorkloadOp::Read { lpn: 3 },
                WorkloadOp::EraseBlock { block: 1 },
            ],
        };
        let json = serde_json::to_string_pretty(&trace).unwrap();
        assert_eq!(serde_json::from_str::<WorkloadTrace>(&json).unwrap(), trace);
    }

    #[test]
    fn sequential_fill_replays_cleanly() {
        let config = small();
        let mut c = FlashController::new(config);
        let trace = WorkloadTrace::sequential_fill(4, PagePattern::Checkerboard { phase: false });
        let report = replay(&mut c, &trace, &ReplayOptions::default(), &mut ()).unwrap();
        assert_eq!(report.writes, 4);
        assert_eq!(report.cells_written, 32);
        assert!(report.cells_per_second > 0.0);
        assert_eq!(report.bytes_per_cell, 36);
        let last = report.snapshots.last().unwrap();
        assert_eq!(last.live_pages, 4);
        assert!(last.margins.as_ref().unwrap().worst_case_margin.unwrap() > 0.5);
        assert!(last.mean_injected_charge > 0.0);
    }

    #[test]
    fn gc_churn_forces_reclaims() {
        let config = small();
        let mut c = FlashController::new(config);
        let capacity = c.logical_capacity();
        let trace = WorkloadTrace::gc_churn(3 * capacity, capacity, 42);
        let report = replay(&mut c, &trace, &ReplayOptions::default(), &mut ()).unwrap();
        let wear = &report.snapshots.last().unwrap().wear;
        assert!(wear.total_erases > 0, "{wear:?}");
        assert_eq!(report.writes as usize, 4 * capacity);
    }

    #[test]
    fn read_heavy_counts_misses_without_failing() {
        let mut c = FlashController::new(small());
        let capacity = c.logical_capacity();
        let trace = WorkloadTrace::read_heavy(2, 5, capacity, 7);
        let report = replay(&mut c, &trace, &ReplayOptions::default(), &mut ()).unwrap();
        assert_eq!(report.reads + report.read_misses, 10);
        assert!(report.read_latency_us.is_some() || report.reads == 0);
    }

    #[test]
    fn hot_cold_concentrates_traffic() {
        let trace = WorkloadTrace::hot_cold(200, 100, 0.9, 0.1, 3);
        let hot_hits = trace
            .ops
            .iter()
            .filter(|op| matches!(op, WorkloadOp::Write { lpn: Some(l), .. } if *l < 10))
            .count();
        assert!(hot_hits > 140, "hot hits {hot_hits}");
    }

    #[test]
    fn snapshots_record_trajectories() {
        let mut c = FlashController::new(small());
        let capacity = c.logical_capacity();
        let trace = WorkloadTrace::gc_churn(capacity, capacity, 1);
        let options = ReplayOptions {
            snapshot_interval: 3,
            margin_scan: true,
        };
        let report = replay(&mut c, &trace, &options, &mut ()).unwrap();
        assert!(report.snapshots.len() >= 3);
        // Wear and fluence are monotone over the trace.
        for pair in report.snapshots.windows(2) {
            assert!(pair[1].wear.total_erases >= pair[0].wear.total_erases);
            assert!(pair[1].mean_injected_charge >= pair[0].mean_injected_charge - 1e-30);
        }
    }

    #[test]
    fn observers_fire_on_the_snapshot_cadence() {
        struct Recorder(Vec<usize>);
        impl ReplayObserver for Recorder {
            fn observe(&mut self, c: &FlashController, op_index: usize) -> crate::Result<()> {
                assert!(c.live_pages() <= c.logical_capacity());
                self.0.push(op_index);
                Ok(())
            }
        }
        let mut c = FlashController::new(small());
        let trace = WorkloadTrace::sequential_fill(4, PagePattern::AllProgrammed);
        let options = ReplayOptions {
            snapshot_interval: 2,
            margin_scan: false,
        };
        let mut recorder = Recorder(Vec::new());
        let report = replay(&mut c, &trace, &options, &mut recorder).unwrap();
        // Interval snapshots at 2 and 4; op 4 is terminal and must not
        // be observed twice (the historical duplicate).
        assert_eq!(recorder.0, vec![2, 4]);
        assert_eq!(report.snapshots.len(), 2);
    }

    #[test]
    fn terminal_snapshot_survives_uneven_cadence() {
        // 5 ops on a cadence of 2: snapshots at 2 and 4 plus exactly one
        // terminal snapshot at 5 carrying the final state.
        let mut c = FlashController::new(small());
        let trace = WorkloadTrace::sequential_fill(5, PagePattern::AllProgrammed);
        let options = ReplayOptions {
            snapshot_interval: 2,
            margin_scan: false,
        };
        let report = replay(&mut c, &trace, &options, &mut ()).unwrap();
        let indices: Vec<usize> = report.snapshots.iter().map(|s| s.op_index).collect();
        assert_eq!(indices, vec![2, 4, 5]);
        // The 5th rotating write wrapped onto logical page 0: the final
        // state (4 live pages, 5 writes) is only visible in the terminal
        // snapshot the old cadence dropped.
        assert_eq!(report.snapshots.last().unwrap().live_pages, 4);
        assert_eq!(report.writes, 5);
    }

    #[test]
    fn streamed_replay_matches_materialized_trace() {
        let source = GcChurnSource::new(4, 6, 11);
        // Materialize the stream into a classic trace; both replays must
        // leave bit-identical controllers and equal reports.
        let trace = WorkloadTrace {
            name: source.name().to_string(),
            ops: source.iter_ops().collect(),
        };
        let options = ReplayOptions {
            snapshot_interval: 3,
            margin_scan: false,
        };
        let mut streamed = FlashController::new(small());
        let mut materialized = FlashController::new(small());
        let a = replay(&mut streamed, &source, &options, &mut ()).unwrap();
        let b = replay(&mut materialized, &trace, &options, &mut ()).unwrap();
        assert_eq!(streamed.state_digest(), materialized.state_digest());
        assert_eq!(a.writes, b.writes);
        assert_eq!(a.snapshots.len(), b.snapshots.len());
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn churn_stream_is_pure_in_the_index() {
        let source = GcChurnSource::new(3, 5, 99);
        assert_eq!(source.len(), 8);
        for i in 0..source.len() {
            assert_eq!(source.op(i), source.op(i));
        }
        // The fill prefix is sequential; overwrites stay in range.
        for i in 0..3 {
            assert!(matches!(source.op(i), WorkloadOp::Write { lpn: Some(l), .. } if l == i));
        }
        for i in 3..8 {
            assert!(matches!(source.op(i), WorkloadOp::Write { lpn: Some(l), .. } if l < 3));
        }
    }

    #[test]
    fn campaign_alternates_epochs_and_windows() {
        let campaign = EnduranceCampaign {
            rounds: 2,
            cycles_per_round: 5,
            epoch_chunk: 0,
            recipe: crate::ispp::nominal_cycle_recipe().unwrap(),
            window_overwrites: 4,
            window_segment: 0,
            window_seed: 7,
        };
        let mut controller = FlashController::new(small());
        let mut runner = CampaignRunner::new(&campaign);
        let reports = runner.run_to_end(&mut controller, &mut ()).unwrap();
        assert!(runner.is_done());
        // One epoch step and one window step per round.
        assert_eq!(reports.len(), 4);
        assert_eq!(reports.iter().map(|r| r.cycles).sum::<u64>(), 10);
        let window_ops = controller.logical_capacity() + 4;
        assert_eq!(reports.iter().map(|r| r.ops).sum::<usize>(), 2 * window_ops);
        // The epochs aged every block by their cycle count.
        for block in 0..small().blocks {
            assert!(controller.array().erase_count(block).unwrap() >= 10);
        }
        // The epoch wear landed in the population's closed-form counters.
        let pop = controller.array().population();
        assert!(pop.program_ops_column().iter().all(|&ops| ops >= 10));
        assert!(pop.wear_summary().unwrap().mean > 0.0);
    }

    #[test]
    fn campaign_states_round_trip_through_json() {
        for state in [
            CampaignState {
                round: 0,
                phase: CampaignPhase::Epoch { cycles_done: 123 },
            },
            CampaignState {
                round: 7,
                phase: CampaignPhase::Window { ops_done: 42 },
            },
        ] {
            let json = serde_json::to_string(&state).unwrap();
            let decoded = serde_json::from_str::<CampaignState>(&json).unwrap();
            assert_eq!(decoded, state);
        }
    }

    #[test]
    fn full_array_cycle_covers_every_block() {
        let config = small();
        let mut c = FlashController::new(config);
        let trace = WorkloadTrace::full_array_cycle(config);
        let report = replay(&mut c, &trace, &ReplayOptions::default(), &mut ()).unwrap();
        assert_eq!(
            report.writes as usize,
            (config.blocks - 1) * config.pages_per_block
        );
        assert_eq!(report.erases as usize, config.blocks);
        // After the final erases nothing is live and margins collapse to
        // a single erased population.
        let last = report.snapshots.last().unwrap();
        assert_eq!(last.live_pages, 0);
        assert!(last.margins.as_ref().unwrap().programmed.is_none());
    }
}
