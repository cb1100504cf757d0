//! Deterministic, seeded fault injection and the power-loss harness.
//!
//! The paper's P/E analysis is about cells that *degrade and fail*; this
//! module makes failure a first-class, reproducible input. A
//! [`FaultPlan`] describes grown-bad blocks (erase-count thresholds),
//! per-cell stuck-at faults, soft read flips, program-status failures
//! and power-loss points — and every decision is a **pure function of
//! the seed and local persistent state** (block erase counts, cell
//! indices), never of global op order. Two replays that drive a block
//! through the same local history see exactly the same faults, no
//! matter how the surrounding traffic was interleaved — the property
//! the fault-determinism proptests pin.
//!
//! The power-loss half of the plan is keyed on the replayer's op clock:
//! [`crash_and_recover`] runs a trace up to an injected cut point,
//! captures what survives power loss (the array medium plus the
//! journal's metadata copy and delta log, see
//! [`FlashController::checkpoint`]), restores a controller from it with
//! [`FlashController::restore`] and finishes the trace. Recovery is pinned by the same digest discipline
//! multi-plane parity and campaign checkpoints use: the recovered
//! [`FlashController::state_digest`] must equal the uninterrupted run's
//! at the cut, and the finished run's digest must equal the
//! uninterrupted final digest.

use gnr_flash::backend::CellBackend;
use gnr_numerics::hash::{fnv1a_fold_bytes, FNV1A_OFFSET};

use crate::controller::FlashController;
use crate::workload::TraceSource;
use crate::Result;

/// Domain-separation tags: each fault family draws from its own hash
/// lane so (say) the stuck-cell lottery can never correlate with the
/// program-fail lottery.
const TAG_BAD_SELECT: u64 = 0x6261_645f_7365_6c01;
const TAG_BAD_THRESH: u64 = 0x6261_645f_7468_7202;
const TAG_STUCK: u64 = 0x7374_7563_6b5f_6103;
const TAG_FLIP: u64 = 0x666c_6970_5f72_6404;
const TAG_PROGRAM: u64 = 0x7067_6d5f_6661_6905;

/// A deterministic, seeded fault schedule for one array.
///
/// The default plan injects nothing; every knob is independent. All
/// decisions are pure functions of `(seed, local state)` — see the
/// module docs for why that makes them replay-order-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every fault lottery.
    pub seed: u64,
    /// Explicit grown-bad triggers: `(block, threshold)` — the block's
    /// erase fails (with [`crate::ArrayError::BlockRetired`]) once its
    /// erase count reaches `threshold`.
    pub bad_block_after_erases: Vec<(usize, u64)>,
    /// Fraction of blocks that additionally grow bad at a seeded
    /// erase-count threshold drawn uniformly from
    /// `[grown_bad_min_erases, grown_bad_max_erases]`.
    pub grown_bad_fraction: f64,
    /// Lower bound of the seeded grown-bad threshold window.
    pub grown_bad_min_erases: u64,
    /// Upper bound of the seeded grown-bad threshold window.
    pub grown_bad_max_erases: u64,
    /// Fraction of cells manufactured stuck: their reads always return
    /// the seeded stuck value, whatever was programmed.
    pub stuck_cell_fraction: f64,
    /// Per-cell soft read-flip probability. Flips are drawn per
    /// `(cell, erase generation)`: they vanish when the block is next
    /// erased (trapped charge, not a defect), and a re-read inside one
    /// generation reproduces the same flip — deterministic replay.
    pub read_flip_probability: f64,
    /// Per-page program-status failure probability, drawn per
    /// `(block, page, erase generation)` — a page that fails keeps
    /// failing until its block is erased again, like real marginal
    /// wordlines.
    pub program_fail_probability: f64,
    /// Op-clock indices at which the power-loss harness cuts power.
    pub power_loss_ops: Vec<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            bad_block_after_erases: Vec::new(),
            grown_bad_fraction: 0.0,
            grown_bad_min_erases: 1,
            grown_bad_max_erases: 1,
            stuck_cell_fraction: 0.0,
            read_flip_probability: 0.0,
            program_fail_probability: 0.0,
            power_loss_ops: Vec::new(),
        }
    }
}

/// splitmix64 finalizer: avalanches an FNV fold so nearby keys (cell i
/// vs i+1) land on independent lottery draws.
fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a hash value.
#[allow(clippy::cast_precision_loss)]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// One lottery draw: FNV-fold the seed, a domain tag and the local
    /// key words, then avalanche.
    fn draw(&self, tag: u64, words: &[u64]) -> u64 {
        let mut h = fnv1a_fold_bytes(FNV1A_OFFSET, &self.seed.to_le_bytes());
        h = fnv1a_fold_bytes(h, &tag.to_le_bytes());
        for &w in words {
            h = fnv1a_fold_bytes(h, &w.to_le_bytes());
        }
        avalanche(h)
    }

    /// The erase-count threshold at which `block` grows bad, if it ever
    /// does: explicit triggers first, then the seeded lottery.
    #[must_use]
    pub fn grown_bad_threshold(&self, block: usize) -> Option<u64> {
        if let Some(&(_, t)) = self
            .bad_block_after_erases
            .iter()
            .find(|&&(b, _)| b == block)
        {
            return Some(t);
        }
        if self.grown_bad_fraction <= 0.0 {
            return None;
        }
        let select = self.draw(TAG_BAD_SELECT, &[block as u64]);
        if unit(select) >= self.grown_bad_fraction {
            return None;
        }
        let lo = self.grown_bad_min_erases.max(1);
        let hi = self.grown_bad_max_erases.max(lo);
        let span = hi - lo + 1;
        Some(lo + self.draw(TAG_BAD_THRESH, &[block as u64]) % span)
    }

    /// Whether `block` reports a failed erase status at `erase_count`
    /// (the count *after* the attempted erase).
    #[must_use]
    pub fn block_goes_bad(&self, block: usize, erase_count: u64) -> bool {
        self.grown_bad_threshold(block)
            .is_some_and(|t| erase_count >= t)
    }

    /// The stuck read value of a cell, if the cell lost the
    /// manufacturing lottery.
    #[must_use]
    pub fn stuck_bit(&self, cell: usize) -> Option<bool> {
        if self.stuck_cell_fraction <= 0.0 {
            return None;
        }
        let h = self.draw(TAG_STUCK, &[cell as u64]);
        (unit(h) < self.stuck_cell_fraction).then_some(h & (1 << 60) != 0)
    }

    /// Whether a read of `cell` soft-flips within erase generation
    /// `generation` (the containing block's erase count).
    #[must_use]
    pub fn read_flips(&self, cell: usize, generation: u64) -> bool {
        self.read_flip_probability > 0.0
            && unit(self.draw(TAG_FLIP, &[cell as u64, generation])) < self.read_flip_probability
    }

    /// Applies stuck-at then soft-flip faults to one sensed bit.
    #[must_use]
    pub fn corrupt_read_bit(&self, cell: usize, generation: u64, bit: bool) -> bool {
        if let Some(stuck) = self.stuck_bit(cell) {
            return stuck;
        }
        bit ^ self.read_flips(cell, generation)
    }

    /// Whether programming `(block, page)` reports a failed status in
    /// erase generation `generation`.
    #[must_use]
    pub fn program_fails(&self, block: usize, page: usize, generation: u64) -> bool {
        self.program_fail_probability > 0.0
            && unit(self.draw(TAG_PROGRAM, &[block as u64, page as u64, generation]))
                < self.program_fail_probability
    }

    /// Whether the plan cuts power at op-clock index `op`.
    #[must_use]
    pub fn loses_power_at(&self, op: u64) -> bool {
        self.power_loss_ops.contains(&op)
    }
}

/// What one [`crash_and_recover`] run measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// The op-clock index power was cut at.
    pub crash_op: usize,
    /// `state_digest()` of the running controller the instant before
    /// power was cut.
    pub digest_at_crash: u64,
    /// `state_digest()` of the controller restored from the checkpoint
    /// (metadata copy + replayed deltas). Crash consistency holds iff this
    /// equals `digest_at_crash` — and equals the uninterrupted run's
    /// prefix digest at the same op.
    pub recovered_digest: u64,
    /// `state_digest()` after the recovered controller finished the
    /// trace.
    pub final_digest: u64,
    /// Metadata deltas replayed onto the checkpoint during recovery.
    pub deltas_replayed: usize,
}

/// Executes ops `[start, end)` of `source` one op-clock tick at a time
/// through the same batched entry points the replayer uses. Single-op
/// batches keep the execution bit-identical to any other segmentation
/// of the same trace (the replayer's pinned property) while letting
/// power loss cut between *any* two ops.
///
/// # Errors
///
/// Write/erase failures propagate ([`crate::ArrayError::ReadOnly`] once
/// spares are exhausted); read misses are tolerated like the replayer
/// does.
pub fn replay_ops(
    controller: &mut FlashController,
    source: &dyn TraceSource,
    start: usize,
    end: usize,
) -> Result<()> {
    let mut write_lat = Vec::new();
    let mut read_lat = Vec::new();
    for i in start..end {
        crate::workload::execute_segment(
            controller,
            source,
            i,
            i + 1,
            &mut write_lat,
            &mut read_lat,
        )?;
        write_lat.clear();
        read_lat.clear();
    }
    Ok(())
}

/// Runs `source` up to `crash_op`, cuts power (dropping every volatile
/// controller field), restores a controller from its checkpoint,
/// re-arms the fault plan on the recovered array and finishes the
/// trace. `build` must construct the controller exactly as the
/// uninterrupted run would (same backend, faults, spares, crash
/// consistency interval). Without crash consistency
/// ([`FlashController::enable_crash_consistency`]) the checkpoint holds
/// the live metadata, so the cut models a clean shutdown instead.
///
/// # Errors
///
/// Replay and restore failures propagate.
pub fn crash_and_recover(
    backend: &CellBackend,
    build: &dyn Fn() -> FlashController,
    plan: &FaultPlan,
    source: &dyn TraceSource,
    crash_op: usize,
) -> Result<RecoveryOutcome> {
    let mut running = build();
    replay_ops(&mut running, source, 0, crash_op)?;
    let digest_at_crash = running.state_digest();
    let checkpoint = running.checkpoint();
    let deltas_replayed = checkpoint.deltas.len();
    gnr_telemetry::set_op_index(crash_op as u64);
    gnr_telemetry::journal::record(gnr_telemetry::journal::EventKind::PowerLoss {
        pending_deltas: deltas_replayed as u64,
    });
    gnr_telemetry::counter_add!("ftl.power_losses", 1);
    // Power is gone: everything not in the checkpoint is lost.
    drop(running);
    let mut recovered = FlashController::restore(backend, checkpoint)?;
    recovered.set_faults(Some(plan.clone()));
    let recovered_digest = recovered.state_digest();
    replay_ops(&mut recovered, source, crash_op, source.len())?;
    Ok(RecoveryOutcome {
        crash_op,
        digest_at_crash,
        recovered_digest,
        final_digest: recovered.state_digest(),
        deltas_replayed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let plan = FaultPlan::default();
        for b in 0..64 {
            assert_eq!(plan.grown_bad_threshold(b), None);
            assert!(!plan.block_goes_bad(b, 1_000_000));
        }
        for c in 0..256 {
            assert_eq!(plan.stuck_bit(c), None);
            assert!(!plan.read_flips(c, 3));
            assert!(plan.corrupt_read_bit(c, 3, true));
            assert!(!plan.corrupt_read_bit(c, 3, false));
        }
        assert!(!plan.program_fails(0, 0, 0));
        assert!(!plan.loses_power_at(0));
    }

    #[test]
    fn explicit_bad_block_triggers_at_threshold() {
        let plan = FaultPlan {
            bad_block_after_erases: vec![(2, 5)],
            ..FaultPlan::seeded(9)
        };
        assert!(!plan.block_goes_bad(2, 4));
        assert!(plan.block_goes_bad(2, 5));
        assert!(plan.block_goes_bad(2, 9));
        assert!(!plan.block_goes_bad(1, 9));
    }

    #[test]
    fn grown_bad_fraction_selects_roughly_that_many_blocks() {
        let plan = FaultPlan {
            grown_bad_fraction: 0.25,
            grown_bad_min_erases: 2,
            grown_bad_max_erases: 6,
            ..FaultPlan::seeded(42)
        };
        let bad: Vec<u64> = (0..1000)
            .filter_map(|b| plan.grown_bad_threshold(b))
            .collect();
        assert!(
            (150..350).contains(&bad.len()),
            "{} of 1000 blocks grew bad",
            bad.len()
        );
        assert!(bad.iter().all(|&t| (2..=6).contains(&t)));
    }

    #[test]
    fn lotteries_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan {
            stuck_cell_fraction: 0.1,
            program_fail_probability: 0.1,
            read_flip_probability: 0.1,
            ..FaultPlan::seeded(7)
        };
        let b = a.clone();
        let other = FaultPlan {
            seed: 8,
            ..a.clone()
        };
        let mut diverged = false;
        for c in 0..512 {
            assert_eq!(a.stuck_bit(c), b.stuck_bit(c));
            assert_eq!(a.read_flips(c, 1), b.read_flips(c, 1));
            assert_eq!(a.program_fails(c, 0, 1), b.program_fails(c, 0, 1));
            diverged |= a.stuck_bit(c) != other.stuck_bit(c);
        }
        assert!(diverged, "seed must matter");
    }

    #[test]
    fn power_loss_points_match_the_schedule() {
        let plan = FaultPlan {
            power_loss_ops: vec![3, 17],
            ..FaultPlan::seeded(1)
        };
        assert!(plan.loses_power_at(3));
        assert!(plan.loses_power_at(17));
        assert!(!plan.loses_power_at(4));
    }
}
