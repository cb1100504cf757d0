//! A miniature flash-translation controller: logical page mapping,
//! explicit block reclaim, garbage collection, wear statistics — and,
//! since the robustness PR, a hardened fault-tolerant mode with
//! crash-consistent metadata.
//!
//! The original controller erased the wrapped-into block
//! *unconditionally* on reuse — destroying still-live pages and charging
//! wear for erases that data integrity never allowed. Reclaim is now
//! explicit and safe:
//!
//! * Writes go to logical page numbers; rewriting a logical page marks
//!   its previous physical copy **stale** instead of erasing anything.
//! * A block is erased only when it is **fully consumed** — every page
//!   written and none of them live. Among the candidates, the
//!   **least-worn** block (lowest erase count) is reclaimed first.
//! * When the array is out of free pages and no block is fully stale,
//!   the controller garbage-collects: the fully-written block with the
//!   fewest live pages is buffered, erased, and its live pages
//!   reprogrammed in place (counted as relocations — the write
//!   amplification of the workload).
//!
//! Wear is accounted in exactly one place — the array's per-block erase
//! counters — so totals can no longer double-count; the controller adds
//! its own *reasons* (reclaims vs. explicit erases vs. GC) on top.
//!
//! # Fault tolerance
//!
//! [`FlashController::with_fault_tolerance`] arms the hardened FTL over
//! a spare-block pool: a block whose erase reports a grown-bad status
//! ([`ArrayError::BlockRetired`]) or whose page program reports a failed
//! status ([`ArrayError::ProgramFailed`] or a verify exhaustion) is
//! **retired** — its live pages are relocated to healthy blocks, every
//! slot is parked stale, and the grown-bad table excludes it from every
//! allocator path forever. Each retirement consumes one spare; when the
//! pool is exhausted the controller degrades to **read-only**
//! ([`ArrayError::ReadOnly`]): writes fail cleanly, reads keep working.
//!
//! # Checkpoints and crash consistency
//!
//! The FTL's metadata lives in one serializable [`FtlMeta`], so the
//! live state is the persisted state. [`FlashController::checkpoint`]
//! captures a [`Checkpoint`] — array medium plus metadata — and
//! [`FlashController::restore`] is the one way back.
//!
//! [`FlashController::enable_crash_consistency`] journals the metadata
//! as a periodic [`FtlMeta`] copy plus a delta log ([`MetaDelta`]) of
//! every mutation since. A checkpoint of a journaled controller holds
//! exactly what survives power loss at an op boundary: the medium, the
//! journal's last metadata copy and the deltas since. Restore replays
//! them and re-arms the journal, yielding a controller whose
//! [`state_digest`] equals the uninterrupted run's at the cut — the
//! equality the crash-recovery sweep pins at every op index.
//!
//! [`state_digest`]: FlashController::state_digest

use std::collections::HashMap;

use gnr_flash::backend::CellBackend;
use gnr_numerics::hash::fnv1a_fold_bytes;

use crate::fault::FaultPlan;
use crate::nand::{ArraySnapshot, NandArray, NandConfig};
use crate::pe::scheduler::{CommandOutcome, PeCommand, PlaneScheduler};
use crate::workload::CampaignState;
use crate::{ArrayError, Result};

/// Physical address of a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct PageAddress {
    /// Block index.
    pub block: usize,
    /// Page index within the block.
    pub page: usize,
}

/// Wear statistics across blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct WearStats {
    /// Lowest per-block erase count.
    pub min_erases: u64,
    /// Highest per-block erase count.
    pub max_erases: u64,
    /// Total erases across the array (the single source of truth: the
    /// array's own per-block counters).
    pub total_erases: u64,
    /// Erases initiated by the controller to reclaim fully-stale blocks
    /// (the cheap path — no data movement).
    pub reclaim_erases: u64,
    /// Erases initiated by garbage collection (victim had live pages
    /// that were buffered and rewritten).
    pub gc_erases: u64,
    /// Live pages rewritten during garbage collection (write
    /// amplification).
    pub gc_relocations: u64,
}

impl WearStats {
    /// Wear spread across blocks (max − min erase count).
    #[must_use]
    pub fn spread(&self) -> u64 {
        self.max_erases - self.min_erases
    }
}

/// One planned-but-unflushed batched page program: the submitting job
/// index, the logical page, the copy it superseded at plan time
/// (restored on verify failure), the allocated address and the contents.
#[derive(Debug, Clone)]
struct PendingProgram {
    job: usize,
    lpn: usize,
    prev: Option<PageAddress>,
    addr: PageAddress,
    bits: Vec<bool>,
    /// Assigned from the rotating cursor (`None` lpn): the cursor only
    /// commits once this job's program verifies.
    cursor_assigned: bool,
}

/// Lifecycle of one physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PageState {
    /// Erased and writable.
    Free,
    /// Holds the current copy of a logical page.
    Live {
        /// The logical page.
        lpn: usize,
    },
    /// Holds a superseded copy; reclaimed with its block.
    Stale,
}

/// The byte encoding [`FlashController::state_digest`] folds: the live
/// lpn, `-1` free, `-2` stale.
#[allow(clippy::cast_possible_wrap)]
fn state_code(s: PageState) -> i64 {
    match s {
        PageState::Free => -1,
        PageState::Stale => -2,
        PageState::Live { lpn } => lpn as i64,
    }
}

/// The FTL's complete volatile metadata: the logical map and page
/// lifecycle, the allocation cursors, the wear-reason counters, the
/// scheduler's plane count and the fault-tolerance bookkeeping.
///
/// The controller mutates this struct in place, so it is at once the
/// live metadata, the metadata half of a [`Checkpoint`] and the periodic
/// copy the crash-consistency journal replays [`MetaDelta`]s onto.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FtlMeta {
    /// Logical page → physical address of its live copy.
    pub map: Vec<Option<PageAddress>>,
    /// Per physical page (flat `block * pages_per_block + page`).
    pub state: Vec<PageState>,
    /// Rotating allocation scan start, for round-robin wear levelling.
    pub next_slot: usize,
    /// `write()` auto-assigns logical pages cycling through this range.
    pub next_lpn: usize,
    /// Erases initiated to reclaim fully-stale blocks.
    pub reclaim_erases: u64,
    /// Erases initiated by garbage collection.
    pub gc_erases: u64,
    /// Live pages rewritten during garbage collection.
    pub gc_relocations: u64,
    /// Plane count of the multi-plane scheduler (its entire round
    /// state: scheduling is stateless across rounds by design).
    pub planes: usize,
    /// Grown-bad table: `true` marks a retired block, excluded from
    /// every allocator path.
    pub bad_blocks: Vec<bool>,
    /// Spare blocks provisioned for retirements.
    pub spare_blocks: usize,
    /// Whether the hardened FTL (retire/retry/read-only) is armed.
    pub fault_tolerant: bool,
    /// Set when the spare pool is exhausted: writes fail, reads work.
    pub read_only: bool,
    /// Page programs that reported a failed status.
    pub program_fails: u64,
}

impl FtlMeta {
    /// Applies one mutation. Live mutations and journal replay both
    /// run through here, so replay reproduces exactly what was logged.
    fn apply(&mut self, delta: &MetaDelta) {
        match *delta {
            MetaDelta::MapSet { lpn, addr } => self.map[lpn] = addr,
            MetaDelta::StateSet { slot, state } => self.state[slot] = state,
            MetaDelta::NextSlot { value } => self.next_slot = value,
            MetaDelta::NextLpn { value } => self.next_lpn = value,
            MetaDelta::Counters {
                reclaim_erases,
                gc_erases,
                gc_relocations,
                program_fails,
            } => {
                self.reclaim_erases = reclaim_erases;
                self.gc_erases = gc_erases;
                self.gc_relocations = gc_relocations;
                self.program_fails = program_fails;
            }
            MetaDelta::BlockRetired { block } => self.bad_blocks[block] = true,
            MetaDelta::ReadOnly => self.read_only = true,
            MetaDelta::MetaReset => {
                self.map.fill(None);
                self.state.fill(PageState::Free);
                self.next_slot = 0;
            }
        }
    }
}

/// One journaled metadata mutation. Every delta carries **absolute**
/// values, so replay is idempotent and order within the log is the only
/// ordering that matters — the property that makes recovery replay
/// byte-exact.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum MetaDelta {
    /// `map[lpn]` now points at `addr`.
    MapSet {
        /// The logical page.
        lpn: usize,
        /// The live copy's address, `None` for unmapped.
        addr: Option<PageAddress>,
    },
    /// `state[slot]` is now `state`.
    StateSet {
        /// The flat physical slot.
        slot: usize,
        /// The page's new lifecycle state.
        state: PageState,
    },
    /// The rotating allocation cursor moved.
    NextSlot {
        /// Its new absolute value.
        value: usize,
    },
    /// The auto-assign logical-page cursor moved.
    NextLpn {
        /// Its new absolute value.
        value: usize,
    },
    /// Wear-reason and fault counters (absolute values).
    Counters {
        /// Reclaim erases so far.
        reclaim_erases: u64,
        /// GC erases so far.
        gc_erases: u64,
        /// GC relocations so far.
        gc_relocations: u64,
        /// Failed page programs so far.
        program_fails: u64,
    },
    /// `block` entered the grown-bad table.
    BlockRetired {
        /// The retired block.
        block: usize,
    },
    /// The controller degraded to read-only mode.
    ReadOnly,
    /// An epoch jump reset the page lifecycle: map cleared, every slot
    /// free, allocation scan restarted at slot 0.
    MetaReset,
}

/// Serializable state of a [`FlashController`], captured by
/// [`FlashController::checkpoint`] and rebuilt by
/// [`FlashController::restore`]: the array medium, the FTL metadata,
/// the crash-consistency journal when one is armed, and optionally the
/// position of an endurance campaign driving the controller.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Checkpoint {
    /// The array medium (cells are non-volatile).
    pub array: ArraySnapshot,
    /// The metadata: the live copy, or the journal's last copy when
    /// crash consistency is armed.
    pub meta: FtlMeta,
    /// Metadata deltas journaled since `meta`, oldest first.
    pub deltas: Vec<MetaDelta>,
    /// The journal's checkpoint cadence (ops between metadata copies),
    /// `None` when crash consistency is off. Restore re-arms the journal
    /// at this cadence.
    pub journal_interval: Option<u64>,
    /// Where a [`crate::workload::CampaignRunner`] stood, for
    /// [`crate::workload::CampaignRunner::resume`]. Set by the campaign
    /// caller; [`FlashController::checkpoint`] leaves it `None`.
    pub campaign: Option<CampaignState>,
}

/// The crash-consistency journal: the last metadata copy, the deltas
/// since and the checkpoint cadence.
#[derive(Debug, Clone)]
struct MetaJournal {
    interval: u64,
    since_checkpoint: u64,
    checkpoint: FtlMeta,
    deltas: Vec<MetaDelta>,
}

/// `Err` unless `value < len`: the bound every index and cursor read
/// from a checkpoint must meet.
fn bounded(what: &str, value: usize, len: usize) -> Result<()> {
    if value < len {
        Ok(())
    } else {
        Err(ArrayError::Snapshot(format!(
            "bad {what} {value} (must be < {len})"
        )))
    }
}

/// The controller.
#[derive(Debug, Clone)]
pub struct FlashController {
    array: NandArray,
    /// The FTL metadata, live and persisted alike.
    meta: FtlMeta,
    /// The crash-consistency journal, when enabled.
    journal: Option<MetaJournal>,
}

impl FlashController {
    /// Creates a controller over a fresh array.
    ///
    /// # Panics
    ///
    /// Panics for arrays with fewer than two blocks — one block is the
    /// GC over-provisioning, so a single-block array has zero logical
    /// capacity and would deadlock on the first rewrite.
    #[must_use]
    pub fn new(config: NandConfig) -> Self {
        Self::over(NandArray::new(config))
    }

    /// Creates a controller over a fresh array of an arbitrary device
    /// backend (GNR-FG, CNT-FG, PCM). The FTL above the array never
    /// looks at the cell physics, so mapping, reclaim, GC and epoch
    /// jumps are identical across backends — only the pulse transients
    /// underneath differ.
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::new`].
    #[must_use]
    pub fn with_backend(config: NandConfig, backend: &CellBackend) -> Self {
        Self::over(NandArray::with_backend(config, backend))
    }

    /// Wraps an existing array (e.g. one with per-cell variation).
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::new`].
    #[must_use]
    pub fn over(array: NandArray) -> Self {
        assert!(
            array.config().blocks >= 2,
            "FlashController needs >= 2 blocks: one is GC over-provisioning"
        );
        let pages = array.config().pages();
        let blocks = array.config().blocks;
        Self {
            array,
            meta: FtlMeta {
                map: vec![None; pages],
                state: vec![PageState::Free; pages],
                next_slot: 0,
                next_lpn: 0,
                reclaim_erases: 0,
                gc_erases: 0,
                gc_relocations: 0,
                planes: PlaneScheduler::default().planes(),
                bad_blocks: vec![false; blocks],
                spare_blocks: 0,
                fault_tolerant: false,
                read_only: false,
                program_fails: 0,
            },
            journal: None,
        }
    }

    /// Sets the plane count the batched entry points schedule across.
    /// Blocks partition onto planes as `block % planes`; any plane count
    /// produces bit-identical array state (see [`crate::pe::scheduler`])
    /// — planes change *how much* of a batch the engine fans out at
    /// once, never *what* it computes.
    ///
    /// # Panics
    ///
    /// Panics when `planes` is zero.
    #[must_use]
    pub fn with_planes(mut self, planes: usize) -> Self {
        self.meta.planes = PlaneScheduler::new(planes).planes();
        self.cut_checkpoint();
        self
    }

    /// Arms the hardened fault-tolerant FTL with `spare_blocks` spares:
    /// grown-bad blocks and program-fail blocks are retired (live pages
    /// relocated), each retirement consuming one spare, and spare
    /// exhaustion degrades the controller to read-only instead of
    /// corrupting or panicking. The logical capacity shrinks by the
    /// spare pool so retirements never strand live data.
    ///
    /// # Panics
    ///
    /// Panics when the array cannot fund the pool (`spare_blocks + 2 >
    /// blocks` — one block stays GC over-provisioning) or when pages
    /// have already been written (capacity cannot shrink under data).
    #[must_use]
    pub fn with_fault_tolerance(mut self, spare_blocks: usize) -> Self {
        assert!(
            spare_blocks + 2 <= self.array.config().blocks,
            "spare pool too large: need >= 2 non-spare blocks"
        );
        assert!(
            self.meta.state.iter().all(|s| *s == PageState::Free),
            "enable fault tolerance before writing"
        );
        self.meta.fault_tolerant = true;
        self.meta.spare_blocks = spare_blocks;
        self.cut_checkpoint();
        self
    }

    /// Arms crash-consistent metadata: takes a checkpoint now and
    /// journals every subsequent metadata mutation, re-checkpointing
    /// every `interval` controller ops (clamped to at least 1). See
    /// [`Self::checkpoint`].
    pub fn enable_crash_consistency(&mut self, interval: u64) {
        self.journal = Some(MetaJournal {
            interval: interval.max(1),
            since_checkpoint: 0,
            checkpoint: self.meta.clone(),
            deltas: Vec::new(),
        });
    }

    /// Builder form of [`Self::enable_crash_consistency`].
    #[must_use]
    pub fn with_crash_consistency(mut self, interval: u64) -> Self {
        self.enable_crash_consistency(interval);
        self
    }

    /// Installs (or clears) the deterministic fault plan on the wrapped
    /// array. See [`crate::fault::FaultPlan`].
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.array.set_faults(plan);
    }

    /// Builder form of [`Self::set_faults`].
    #[must_use]
    pub fn with_faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.set_faults(plan);
        self
    }

    /// The active fault plan, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.array.faults()
    }

    /// Whether the hardened fault-tolerant FTL is armed.
    #[must_use]
    pub fn fault_tolerant(&self) -> bool {
        self.meta.fault_tolerant
    }

    /// Whether the controller has degraded to read-only mode.
    #[must_use]
    pub fn read_only(&self) -> bool {
        self.meta.read_only
    }

    /// Spare blocks provisioned for retirements.
    #[must_use]
    pub fn spare_blocks(&self) -> usize {
        self.meta.spare_blocks
    }

    /// Blocks retired into the grown-bad table so far.
    #[must_use]
    pub fn retired_blocks(&self) -> usize {
        self.meta.bad_blocks.iter().filter(|&&b| b).count()
    }

    /// Whether `block` is in the grown-bad table.
    #[must_use]
    pub fn is_block_retired(&self, block: usize) -> bool {
        self.meta.bad_blocks.get(block).copied().unwrap_or(false)
    }

    /// Page programs that reported a failed status so far.
    #[must_use]
    pub fn program_fail_count(&self) -> u64 {
        self.meta.program_fails
    }

    /// Whether crash-consistent metadata journaling is enabled.
    #[must_use]
    pub fn crash_consistent(&self) -> bool {
        self.journal.is_some()
    }

    /// Metadata deltas journaled since the last checkpoint (0 when
    /// crash consistency is disabled).
    #[must_use]
    pub fn pending_deltas(&self) -> usize {
        self.journal.as_ref().map_or(0, |j| j.deltas.len())
    }

    /// The multi-plane scheduler configuration.
    #[must_use]
    pub fn scheduler(&self) -> PlaneScheduler {
        PlaneScheduler::new(self.meta.planes)
    }

    /// The underlying array (for analyses).
    #[must_use]
    pub fn array(&self) -> &NandArray {
        &self.array
    }

    /// Mutable cell-state access (see [`NandArray::population_mut`]):
    /// charge-level mutation cannot violate the page map, so reliability
    /// models may age the analog state of a mapped array in place.
    pub fn population_mut(&mut self) -> &mut crate::population::CellPopulation {
        self.array.population_mut()
    }

    /// Settles the array ([`NandArray::settle`]): replays every pending
    /// pass-voltage disturb exposure, so `self.array().population()` may
    /// be read. Changes no result, only when disturb is evaluated.
    pub fn settle(&mut self) {
        self.array.settle();
    }

    /// Logical capacity in pages: the physical page count less one
    /// block of over-provisioning and less the spare-block pool, so
    /// garbage collection always has stale pages to harvest and
    /// retirements never strand live data.
    #[must_use]
    pub fn logical_capacity(&self) -> usize {
        self.array.config().logical_pages()
            - self.meta.spare_blocks * self.array.config().pages_per_block
    }

    /// Writes `bits` to the next logical page (cycling through
    /// [`Self::logical_capacity`]), reclaiming or garbage-collecting
    /// blocks as needed. Returns the physical address written. The
    /// cursor only advances on success, so a failed write retries the
    /// same logical page.
    ///
    /// # Errors
    ///
    /// Page-width mismatches, capacity exhaustion,
    /// [`ArrayError::ReadOnly`] after spare exhaustion, and device
    /// errors propagate.
    pub fn write(&mut self, bits: &[bool]) -> Result<PageAddress> {
        let addr = self.write_logical_core(self.meta.next_lpn, bits)?;
        self.set_next_lpn((self.meta.next_lpn + 1) % self.logical_capacity());
        self.note_op();
        Ok(addr)
    }

    /// Writes `bits` as the new contents of logical page `lpn`. The
    /// previous physical copy (if any) becomes stale; nothing live is
    /// ever erased. In fault-tolerant mode a failed program status
    /// retires the block and retries on an alternate one.
    ///
    /// # Errors
    ///
    /// [`ArrayError::WrongPageWidth`] for bad buffers,
    /// [`ArrayError::AddressOutOfRange`] for an `lpn` beyond the logical
    /// capacity, [`ArrayError::CapacityExhausted`] when every page holds
    /// live data, [`ArrayError::ReadOnly`] after spare exhaustion, and
    /// device errors.
    pub fn write_logical(&mut self, lpn: usize, bits: &[bool]) -> Result<PageAddress> {
        let addr = self.write_logical_core(lpn, bits)?;
        self.note_op();
        Ok(addr)
    }

    fn write_logical_core(&mut self, lpn: usize, bits: &[bool]) -> Result<PageAddress> {
        let cfg = self.array.config();
        if bits.len() != cfg.page_width {
            return Err(ArrayError::WrongPageWidth {
                got: bits.len(),
                expected: cfg.page_width,
            });
        }
        if lpn >= self.logical_capacity() {
            return Err(ArrayError::AddressOutOfRange {
                kind: "logical page",
                index: lpn,
                len: self.logical_capacity(),
            });
        }
        // The previous copy stays live until the replacement is safely
        // on the array: a failed overwrite must never cost the only
        // copy of the page. (The old copy's block therefore cannot be
        // reclaimed during this allocation — worst case that means one
        // extra GC relocation, never data loss.)
        let addr = self.place_bits(bits)?;
        self.commit_live(lpn, addr);
        gnr_telemetry::counter_add!("ftl.host_pages_written", 1);
        Ok(addr)
    }

    /// Allocates a page and programs `bits` into it, retrying on an
    /// alternate block (and retiring the failed one) in fault-tolerant
    /// mode. On success the page is **not** yet marked — the caller
    /// decides live vs. relocated-stale.
    fn place_bits(&mut self, bits: &[bool]) -> Result<PageAddress> {
        loop {
            let addr = self.allocate()?;
            match self.array.program_page(addr.block, addr.page, bits) {
                Ok(()) => return Ok(addr),
                Err(e @ (ArrayError::VerifyFailed { .. } | ArrayError::ProgramFailed { .. }))
                    if self.meta.fault_tolerant =>
                {
                    // Pulses were applied: the page is consumed but holds
                    // no live data. Retire the whole block — a page that
                    // fails its program status keeps failing until the
                    // block is erased, and a block that fails programs is
                    // on its way out — then retry on an alternate block.
                    let slot = self.slot(addr);
                    self.set_state(slot, PageState::Stale);
                    self.note_program_fail(addr);
                    self.retire_block(addr.block)?;
                    let _ = e;
                }
                Err(e) => {
                    // Pulses were applied: the page is consumed but holds
                    // no live data. Retire it so allocation never offers
                    // it again.
                    let slot = self.slot(addr);
                    self.set_state(slot, PageState::Stale);
                    return Err(e);
                }
            }
        }
    }

    /// Marks `addr` as the live copy of `lpn`, staling the previous
    /// copy.
    fn commit_live(&mut self, lpn: usize, addr: PageAddress) {
        if let Some(old) = self.meta.map[lpn] {
            let slot = self.slot(old);
            self.set_state(slot, PageState::Stale);
        }
        self.set_map(lpn, Some(addr));
        let slot = self.slot(addr);
        self.set_state(slot, PageState::Live { lpn });
    }

    /// Writes a batch of pages through the multi-plane scheduler: the
    /// FTL decisions (allocation, stale marking, reclaim/GC) run
    /// sequentially — they are the decisions sequential writes would
    /// make, address for address — while the accumulated page programs
    /// flush to the array as scheduled multi-plane rounds. `None` lpns
    /// take the rotating cursor, exactly like [`Self::write`].
    ///
    /// The flush boundary is reclaim/GC: those erase or relocate
    /// physical pages and must observe every pending program, so the
    /// batch splits there. Between boundaries, programs on distinct
    /// blocks merge into rounds and (absent injected faults) the final
    /// state is bit-identical to the sequential write sequence.
    ///
    /// Results are index-aligned with `jobs`, mirroring
    /// [`Self::read_batch`]: an invalid job (width or range) fails alone
    /// without rejecting the batch, and a program failure is reported on
    /// the job that hit it with [`Self::write_logical`]'s guarantee
    /// intact — a failed overwrite never costs the newest copy that
    /// *did* verify. In fault-tolerant mode failed jobs retire their
    /// block and retry on alternates, exactly like sequential writes. A
    /// fatal allocation error (capacity, read-only) fails the remaining
    /// jobs with clones of it.
    #[must_use]
    pub fn write_batch(
        &mut self,
        jobs: Vec<(Option<usize>, Vec<bool>)>,
    ) -> Vec<Result<PageAddress>> {
        let _zone = gnr_telemetry::zone!("ftl.write_batch");
        gnr_telemetry::counter_add!("ftl.host_pages_written", jobs.len() as u64);
        let cfg = self.array.config();
        let mut out: Vec<Option<Result<PageAddress>>> = jobs.iter().map(|_| None).collect();
        let mut pending: Vec<PendingProgram> = Vec::new();
        // Cursor-assigned jobs plan against a *provisional* cursor;
        // `next_lpn` commits per job as its program verifies (in flush),
        // so a verify failure leaves the cursor on the failed logical
        // page — `write`'s retry-the-same-page contract.
        let mut cursor = self.meta.next_lpn;
        let mut fatal: Option<ArrayError> = None;
        for (job, (lpn, bits)) in jobs.into_iter().enumerate() {
            if bits.len() != cfg.page_width {
                out[job] = Some(Err(ArrayError::WrongPageWidth {
                    got: bits.len(),
                    expected: cfg.page_width,
                }));
                continue;
            }
            if lpn.is_some_and(|l| l >= self.logical_capacity()) {
                out[job] = Some(Err(ArrayError::AddressOutOfRange {
                    kind: "logical page",
                    index: lpn.expect("checked some"),
                    len: self.logical_capacity(),
                }));
                continue;
            }
            let (lpn, cursor_assigned) = match lpn {
                Some(l) => (l, false),
                None => {
                    let l = cursor;
                    cursor = (cursor + 1) % self.logical_capacity();
                    (l, true)
                }
            };
            // Reclaim/GC must see every pending program: flush first,
            // then let the ordinary allocator erase/relocate.
            let addr = match self.scan_free() {
                Some(addr) => Some(addr),
                None => {
                    self.flush_programs(&mut pending, &mut out);
                    match self.allocate() {
                        Ok(addr) => Some(addr),
                        Err(e) => {
                            out[job] = Some(Err(e.clone()));
                            fatal = Some(e);
                            None
                        }
                    }
                }
            };
            let Some(addr) = addr else { break };
            // Optimistic lifecycle marking, in the same order the
            // sequential path would apply it, so every later allocation
            // and reclaim decision matches the sequential replay. The
            // superseded copy is remembered so a verify failure can
            // restore it — it stays physically intact until the next
            // flush boundary.
            let prev = self.meta.map[lpn];
            if let Some(old) = prev {
                let slot = self.slot(old);
                self.set_state(slot, PageState::Stale);
            }
            self.set_map(lpn, Some(addr));
            let slot = self.slot(addr);
            self.set_state(slot, PageState::Live { lpn });
            pending.push(PendingProgram {
                job,
                lpn,
                prev,
                addr,
                bits,
                cursor_assigned,
            });
        }
        self.flush_programs(&mut pending, &mut out);
        self.note_op();
        out.into_iter()
            .enumerate()
            .map(|(job, r)| {
                r.unwrap_or_else(|| {
                    Err(fatal.clone().unwrap_or(ArrayError::AddressOutOfRange {
                        kind: "batch job",
                        index: job,
                        len: 0,
                    }))
                })
            })
            .collect()
    }

    /// Executes the pending planned programs as one scheduled stream,
    /// writing each job's outcome into `out`.
    ///
    /// Failure handling walks the results in plan order tracking, per
    /// logical page, the newest copy that verified: on a failure the
    /// consumed page is retired stale and — when the failed copy is the
    /// currently-mapped one — the mapping rolls back to that last good
    /// copy, matching the sequential path's "a failed overwrite never
    /// costs the only copy" guarantee. In fault-tolerant mode a second
    /// pass then retires the failed blocks and replays every failed
    /// job's program on an alternate block (superseded same-batch
    /// rewrites land and immediately stale, preserving plan order).
    fn flush_programs(
        &mut self,
        pending: &mut Vec<PendingProgram>,
        out: &mut [Option<Result<PageAddress>>],
    ) {
        if pending.is_empty() {
            return;
        }
        let keep_bits = self.meta.fault_tolerant;
        let mut commands = Vec::with_capacity(pending.len());
        let mut planned = Vec::with_capacity(pending.len());
        for p in pending.drain(..) {
            let kept = keep_bits.then(|| p.bits.clone());
            commands.push(PeCommand::Program {
                block: p.addr.block,
                page: p.addr.page,
                bits: p.bits,
            });
            planned.push((p.job, p.lpn, p.prev, p.addr, p.cursor_assigned, kept));
        }
        let execution = self.scheduler().execute(&mut self.array, commands);
        let mut last_good: HashMap<usize, Option<PageAddress>> = HashMap::new();
        let mut failed: Vec<usize> = Vec::new();
        for (k, (result, &(job, lpn, prev, addr, _, _))) in
            execution.results.iter().zip(&planned).enumerate()
        {
            let good = last_good.entry(lpn).or_insert(prev);
            match result {
                Ok(_) => {
                    *good = Some(addr);
                    out[job] = Some(Ok(addr));
                }
                Err(e) => {
                    // Pulses landed but the page never verified: retire
                    // it, and if it is the live mapping, fall back to
                    // the newest verified copy of this logical page.
                    let slot = self.slot(addr);
                    self.set_state(slot, PageState::Stale);
                    if self.meta.map[lpn] == Some(addr) {
                        self.set_map(lpn, *good);
                        if let Some(g) = *good {
                            let slot = self.slot(g);
                            self.set_state(slot, PageState::Live { lpn });
                        }
                    }
                    out[job] = Some(Err(e.clone()));
                    failed.push(k);
                }
            }
        }
        if self.meta.fault_tolerant && !failed.is_empty() {
            // The newest planned job per lpn: a retried older job must
            // never resurrect content a later same-batch job superseded.
            let mut newest: HashMap<usize, usize> = HashMap::new();
            for (k, &(_, lpn, ..)) in planned.iter().enumerate() {
                newest.insert(lpn, k);
            }
            for &k in &failed {
                let (job, lpn, _, addr, _, ref kept) = planned[k];
                let retryable = matches!(
                    out[job],
                    Some(Err(
                        ArrayError::VerifyFailed { .. } | ArrayError::ProgramFailed { .. }
                    ))
                );
                if !retryable {
                    continue;
                }
                self.note_program_fail(addr);
                if let Err(e) = self.retire_block(addr.block) {
                    out[job] = Some(Err(e));
                    continue;
                }
                let bits = kept.clone().expect("fault-tolerant flush keeps bits");
                match self.place_bits(&bits) {
                    Ok(new_addr) => {
                        if newest[&lpn] == k {
                            self.commit_live(lpn, new_addr);
                        } else {
                            // Superseded within the batch: the program
                            // landed (plan-order page consumption, like
                            // the sequential replay) but a newer copy is
                            // already live.
                            let slot = self.slot(new_addr);
                            self.set_state(slot, PageState::Stale);
                        }
                        out[job] = Some(Ok(new_addr));
                    }
                    Err(e) => out[job] = Some(Err(e)),
                }
            }
        }
        // The rotating cursor commits as its jobs (finally) succeed, and
        // stops at the first cursor-assigned failure: a retry then
        // targets the same logical page, exactly like sequential
        // `write`.
        for &(job, lpn, _, _, cursor_assigned, _) in &planned {
            if !cursor_assigned {
                continue;
            }
            match out[job] {
                Some(Ok(_)) => self.set_next_lpn((lpn + 1) % self.logical_capacity()),
                _ => break,
            }
        }
    }

    /// Reads a batch of logical pages through the multi-plane scheduler.
    /// Results are index-aligned with `lpns`; unmapped or out-of-range
    /// logical pages return [`ArrayError::AddressOutOfRange`] per entry
    /// (the read-miss contract of [`Self::read_logical`]) without
    /// aborting the batch. Reads keep working in read-only mode.
    #[must_use]
    pub fn read_batch(&mut self, lpns: &[usize]) -> Vec<Result<Vec<bool>>> {
        let _zone = gnr_telemetry::zone!("ftl.read_batch");
        let mut results: Vec<Option<Result<Vec<bool>>>> = Vec::with_capacity(lpns.len());
        let mut commands = Vec::new();
        let mut scheduled: Vec<usize> = Vec::new();
        for (j, &lpn) in lpns.iter().enumerate() {
            match self.physical_of(lpn) {
                Some(addr) => {
                    commands.push(PeCommand::Read {
                        block: addr.block,
                        page: addr.page,
                    });
                    scheduled.push(j);
                    results.push(None);
                }
                None => results.push(Some(Err(ArrayError::AddressOutOfRange {
                    kind: "logical page",
                    index: lpn,
                    len: self.logical_capacity(),
                }))),
            }
        }
        let execution = self.scheduler().execute(&mut self.array, commands);
        for (result, &j) in execution.results.into_iter().zip(&scheduled) {
            results[j] = Some(result.map(|outcome| match outcome {
                CommandOutcome::Read(bits) => bits,
                other => unreachable!("read command returned {other:?}"),
            }));
        }
        results
            .into_iter()
            .map(|r| r.expect("every lpn was scheduled or rejected"))
            .collect()
    }

    /// Reads a physical page back.
    ///
    /// # Errors
    ///
    /// Address errors propagate.
    pub fn read(&mut self, addr: PageAddress) -> Result<Vec<bool>> {
        self.array.read_page(addr.block, addr.page)
    }

    /// Reads the live copy of logical page `lpn`.
    ///
    /// # Errors
    ///
    /// [`ArrayError::AddressOutOfRange`] when `lpn` has never been
    /// written (or is beyond capacity).
    pub fn read_logical(&mut self, lpn: usize) -> Result<Vec<bool>> {
        let addr = self.physical_of(lpn).ok_or(ArrayError::AddressOutOfRange {
            kind: "logical page",
            index: lpn,
            len: self.logical_capacity(),
        })?;
        self.read(addr)
    }

    /// Explicitly erases a block. Live pages in it are lost — their
    /// logical mappings are cleared — so this is the caller's
    /// data-destroying escape hatch, not the reclaim path. In
    /// fault-tolerant mode a grown-bad erase status retires the block
    /// instead of failing (the destructive contract is honoured either
    /// way).
    ///
    /// # Errors
    ///
    /// Address and device errors propagate; [`ArrayError::ReadOnly`]
    /// when the controller has degraded to read-only.
    pub fn erase_block(&mut self, block: usize) -> Result<()> {
        if self.meta.read_only {
            return Err(ArrayError::ReadOnly);
        }
        let cfg = self.array.config();
        match self.array.erase_block(block) {
            Ok(()) => {
                for page in 0..cfg.pages_per_block {
                    let slot = block * cfg.pages_per_block + page;
                    if let PageState::Live { lpn } = self.meta.state[slot] {
                        self.set_map(lpn, None);
                    }
                    self.set_state(slot, PageState::Free);
                }
            }
            Err(ArrayError::BlockRetired { .. }) if self.meta.fault_tolerant => {
                // The medium refused the erase. The caller asked for the
                // data to go away, so clear the mappings, then retire
                // the grown-bad block (parking its slots stale).
                for page in 0..cfg.pages_per_block {
                    let slot = block * cfg.pages_per_block + page;
                    if let PageState::Live { lpn } = self.meta.state[slot] {
                        self.set_map(lpn, None);
                    }
                    self.set_state(slot, PageState::Stale);
                }
                self.retire_block(block)?;
            }
            Err(e) => return Err(e),
        }
        self.note_op();
        Ok(())
    }

    /// Retires `block` into the grown-bad table: relocates its live
    /// pages to healthy blocks, parks every slot stale so no allocator
    /// path ever offers it again, and consumes one spare. Idempotent —
    /// retiring an already-retired block is a no-op returning `Ok(0)`.
    ///
    /// Returns the number of live pages relocated.
    ///
    /// # Errors
    ///
    /// [`ArrayError::ReadOnly`] when the spare pool cannot absorb
    /// another retirement (the controller degrades to read-only; live
    /// pages stay readable in place — grown-bad blocks fail erase, not
    /// read). Address and device errors propagate.
    pub fn retire_block(&mut self, block: usize) -> Result<usize> {
        let cfg = self.array.config();
        if block >= cfg.blocks {
            return Err(ArrayError::AddressOutOfRange {
                kind: "block",
                index: block,
                len: cfg.blocks,
            });
        }
        if self.meta.bad_blocks[block] {
            return Ok(0);
        }
        if self.retired_blocks() >= self.meta.spare_blocks {
            if !self.meta.read_only {
                gnr_telemetry::counter_add!("ftl.read_only_entries", 1);
                self.mutate(MetaDelta::ReadOnly);
            }
            return Err(ArrayError::ReadOnly);
        }
        self.mutate(MetaDelta::BlockRetired { block });
        let first = block * cfg.pages_per_block;
        // Park the free slots first so no relocation below can allocate
        // into the dying block.
        for page in 0..cfg.pages_per_block {
            if self.meta.state[first + page] == PageState::Free {
                self.set_state(first + page, PageState::Stale);
            }
        }
        let mut relocated = 0usize;
        for page in 0..cfg.pages_per_block {
            if let PageState::Live { lpn } = self.meta.state[first + page] {
                // Grown-bad blocks refuse erase, not read: the live copy
                // is intact and movable.
                let bits = self.array.read_page(block, page)?;
                let addr = self.place_bits(&bits)?;
                self.commit_live(lpn, addr);
                relocated += 1;
            }
        }
        gnr_telemetry::counter_add!("ftl.blocks_retired", 1);
        gnr_telemetry::journal::record(gnr_telemetry::journal::EventKind::BlockRetired {
            block: block as u64,
            relocated: relocated as u64,
        });
        Ok(relocated)
    }

    /// Wear statistics.
    ///
    /// # Errors
    ///
    /// Never fails for a well-formed array; address errors are internal.
    pub fn wear_stats(&self) -> Result<WearStats> {
        let cfg = self.array.config();
        let mut min = u64::MAX;
        let mut max = 0;
        let mut total = 0;
        for b in 0..cfg.blocks {
            let e = self.array.erase_count(b)?;
            min = min.min(e);
            max = max.max(e);
            total += e;
        }
        Ok(WearStats {
            min_erases: min,
            max_erases: max,
            total_erases: total,
            reclaim_erases: self.meta.reclaim_erases,
            gc_erases: self.meta.gc_erases,
            gc_relocations: self.meta.gc_relocations,
        })
    }

    /// Jumps the whole array through `cycles` composed P/E cycles of
    /// `recipe` (see [`NandArray::run_epoch`]) and resets the page
    /// lifecycle to match: the epoch ends with every page physically
    /// erased, so all logical mappings are dropped, every slot returns
    /// to `Free` and the allocation scan restarts at slot 0. Retired
    /// blocks stay retired — their slots re-park stale. Wear state
    /// (injected charge, op counters, per-block erase counts) carries
    /// the epoch's ageing forward — this is the time-scale-jumping
    /// primitive endurance campaigns alternate with full-fidelity
    /// observation windows.
    ///
    /// # Errors
    ///
    /// Device errors from the composed cycles propagate.
    pub fn run_epoch(
        &mut self,
        recipe: &gnr_flash::engine::CycleRecipe,
        cycles: u64,
    ) -> Result<crate::population::EpochReport> {
        let _zone = gnr_telemetry::zone!("ftl.epoch");
        gnr_telemetry::counter_add!("ftl.epoch_jumps", 1);
        gnr_telemetry::journal::record(gnr_telemetry::journal::EventKind::EpochJump { cycles });
        let report = self.array.run_epoch(recipe, cycles)?;
        self.mutate(MetaDelta::MetaReset);
        let cfg = self.array.config();
        for block in 0..cfg.blocks {
            if self.meta.bad_blocks[block] {
                let first = block * cfg.pages_per_block;
                for slot in first..first + cfg.pages_per_block {
                    self.set_state(slot, PageState::Stale);
                }
            }
        }
        self.note_op();
        Ok(report)
    }

    /// Captures the controller's serializable state (see [`Checkpoint`]).
    /// With crash consistency armed this is exactly what survives power
    /// loss: the array medium, the journal's last metadata copy, the
    /// deltas journaled since and the journal cadence. Otherwise it is
    /// the medium plus the current metadata, with no deltas.
    ///
    /// Checkpoints are only taken *between* operations, so there is no
    /// pending-program state to capture — batched writes flush inside
    /// one [`Self::write_batch`] call.
    #[must_use]
    pub fn checkpoint(&self) -> Checkpoint {
        let (meta, deltas, journal_interval) = match &self.journal {
            Some(journal) => (
                journal.checkpoint.clone(),
                journal.deltas.clone(),
                Some(journal.interval),
            ),
            None => (self.meta.clone(), Vec::new(), None),
        };
        Checkpoint {
            array: self.array.snapshot_state(),
            meta,
            deltas,
            journal_interval,
            campaign: None,
        }
    }

    /// Rebuilds a controller from a device backend and a checkpoint —
    /// the inverse of [`Self::checkpoint`]: restores the array medium,
    /// validates the metadata against its shape, replays the journaled
    /// deltas and, when the checkpoint carries a journal cadence,
    /// re-arms crash consistency at it. The result is digest-identical
    /// ([`Self::state_digest`]) to the checkpointed controller (at the
    /// power cut, for a journaled one) and continues any workload
    /// bit-identically. The campaign cursor is the caller's to resume.
    ///
    /// # Errors
    ///
    /// [`ArrayError::Snapshot`] on shape mismatches and out-of-range
    /// addresses, lpns, cursors, spare pools or plane counts, in the
    /// metadata or in a delta, and when the replayed map and page states
    /// disagree; array restore errors propagate
    /// ([`ArrayError::UnsupportedBackend`] when a PCM backend is given a
    /// medium carrying floating-gate variation deltas).
    pub fn restore(backend: &CellBackend, checkpoint: Checkpoint) -> Result<Self> {
        let mut controller = Self {
            array: NandArray::restore_state_backend(backend, checkpoint.array)?,
            meta: checkpoint.meta,
            journal: None,
        };
        controller.validate_meta()?;
        for delta in &checkpoint.deltas {
            controller.replay(delta)?;
        }
        controller.check_map_matches_state()?;
        match checkpoint.journal_interval {
            Some(interval) => {
                controller.enable_crash_consistency(interval);
                gnr_telemetry::counter_add!("ftl.recoveries", 1);
                gnr_telemetry::journal::record(gnr_telemetry::journal::EventKind::RecoveryReplay {
                    deltas: checkpoint.deltas.len() as u64,
                });
            }
            // The digest is a full-state fold — only pay for it when the
            // journal will actually keep the event.
            None if gnr_telemetry::enabled() => {
                gnr_telemetry::journal::record(
                    gnr_telemetry::journal::EventKind::CheckpointRestore {
                        digest: controller.state_digest(),
                    },
                );
            }
            None => {}
        }
        Ok(controller)
    }

    /// Rejects restored metadata that no controller over this array can
    /// reach.
    fn validate_meta(&self) -> Result<()> {
        let config = self.array.config();
        let meta = &self.meta;
        if config.blocks < 2 {
            return Err(ArrayError::Snapshot(
                "controller checkpoints need >= 2 blocks".into(),
            ));
        }
        if meta.spare_blocks > config.blocks - 2 {
            return Err(ArrayError::Snapshot(format!(
                "bad spare pool {}",
                meta.spare_blocks
            )));
        }
        let (pages, logical) = (config.pages(), self.logical_capacity());
        for (name, len, want) in [
            ("map", meta.map.len(), pages),
            ("state", meta.state.len(), pages),
            ("bad-block table", meta.bad_blocks.len(), config.blocks),
        ] {
            if len != want {
                return Err(ArrayError::Snapshot(format!(
                    "{name} has {len} entries, shape wants {want}"
                )));
            }
        }
        for (lpn, &addr) in meta.map.iter().enumerate() {
            if addr.is_some() {
                bounded("mapped lpn", lpn, logical)?;
            }
            self.check_addr(addr)?;
        }
        for &state in &meta.state {
            self.check_state(state)?;
        }
        bounded("cursor `next_slot`", meta.next_slot, pages)?;
        bounded("cursor `next_lpn`", meta.next_lpn, logical)?;
        if meta.planes == 0 {
            return Err(ArrayError::Snapshot("bad plane count 0".into()));
        }
        Ok(())
    }

    /// Rejects a map and page-state column that disagree: each mapped
    /// lpn's page must hold it live, and each live page must be its
    /// lpn's mapped copy. Either mismatch would let the allocator hand
    /// a still-referenced page to another logical page.
    fn check_map_matches_state(&self) -> Result<()> {
        let meta = &self.meta;
        for (lpn, addr) in meta.map.iter().enumerate() {
            if let Some(addr) = *addr {
                let state = meta.state[self.slot(addr)];
                if state != (PageState::Live { lpn }) {
                    return Err(ArrayError::Snapshot(format!(
                        "lpn {lpn} maps to {addr:?}, which is {state:?}"
                    )));
                }
            }
        }
        for (slot, state) in meta.state.iter().enumerate() {
            if let PageState::Live { lpn } = *state {
                if meta.map[lpn].map(|addr| self.slot(addr)) != Some(slot) {
                    return Err(ArrayError::Snapshot(format!(
                        "slot {slot} holds lpn {lpn} live, but lpn {lpn} maps to {:?}",
                        meta.map[lpn]
                    )));
                }
            }
        }
        Ok(())
    }

    fn check_addr(&self, addr: Option<PageAddress>) -> Result<()> {
        let config = self.array.config();
        match addr {
            Some(a) if a.block >= config.blocks || a.page >= config.pages_per_block => {
                Err(ArrayError::Snapshot(format!("bad page address {a:?}")))
            }
            _ => Ok(()),
        }
    }

    fn check_state(&self, state: PageState) -> Result<()> {
        match state {
            PageState::Live { lpn } => bounded("live lpn", lpn, self.logical_capacity()),
            PageState::Free | PageState::Stale => Ok(()),
        }
    }

    /// Replays one journaled delta onto the restored metadata after the
    /// bound checks the checkpoint's own columns pass. Runs before the
    /// journal is re-armed, so nothing is re-journaled.
    fn replay(&mut self, delta: &MetaDelta) -> Result<()> {
        let pages = self.array.config().pages();
        match *delta {
            MetaDelta::MapSet { lpn, addr } => {
                bounded("delta lpn", lpn, self.logical_capacity())?;
                self.check_addr(addr)?;
            }
            MetaDelta::StateSet { slot, state } => {
                bounded("delta slot", slot, pages)?;
                self.check_state(state)?;
            }
            MetaDelta::NextSlot { value } => bounded("delta cursor `next_slot`", value, pages)?,
            MetaDelta::NextLpn { value } => {
                bounded("delta cursor `next_lpn`", value, self.logical_capacity())?;
            }
            MetaDelta::BlockRetired { block } => {
                bounded("delta block", block, self.array.config().blocks)?;
            }
            MetaDelta::Counters { .. } | MetaDelta::ReadOnly | MetaDelta::MetaReset => {}
        }
        self.meta.apply(delta);
        Ok(())
    }

    /// FNV-1a digest over the controller's *complete* state: the
    /// array's settled state ([`NandArray::state_digest`]: charge, wear
    /// and op-counter columns, per-block erase counts, page flags), the
    /// logical map, page lifecycle, allocation cursors, wear-reason
    /// counters and the fault-tolerance bookkeeping (grown-bad table,
    /// spare pool, read-only flag, program-fail count). Two controllers
    /// with equal digests continue any workload bit-identically — the
    /// restore-equals-uninterrupted assertion of checkpointed campaigns
    /// and the crash-recovery sweep compares exactly this. Equal before
    /// and after [`Self::settle`].
    #[must_use]
    #[allow(clippy::cast_possible_wrap)]
    pub fn state_digest(&self) -> u64 {
        let mut h = self.array.state_digest();
        let ppb = self.array.config().pages_per_block;
        let meta = &self.meta;
        for addr in &meta.map {
            let slot: i64 = addr.map_or(-1, |a| (a.block * ppb + a.page) as i64);
            h = fnv1a_fold_bytes(h, &slot.to_le_bytes());
        }
        for &s in &meta.state {
            h = fnv1a_fold_bytes(h, &state_code(s).to_le_bytes());
        }
        for v in [
            meta.next_slot as u64,
            meta.next_lpn as u64,
            meta.reclaim_erases,
            meta.gc_erases,
            meta.gc_relocations,
            meta.program_fails,
            meta.spare_blocks as u64,
        ] {
            h = fnv1a_fold_bytes(h, &v.to_le_bytes());
        }
        h = fnv1a_fold_bytes(
            h,
            &[u8::from(meta.fault_tolerant), u8::from(meta.read_only)],
        );
        for &b in &meta.bad_blocks {
            h = fnv1a_fold_bytes(h, &[u8::from(b)]);
        }
        h
    }

    /// The physical address of logical page `lpn`'s live copy, if any.
    #[must_use]
    pub fn physical_of(&self, lpn: usize) -> Option<PageAddress> {
        self.meta.map.get(lpn).copied().flatten()
    }

    /// Every logical page with a live copy, ascending — the scan order
    /// of background scrubbing.
    #[must_use]
    pub fn live_logical_pages(&self) -> Vec<usize> {
        self.meta
            .map
            .iter()
            .enumerate()
            .filter_map(|(l, addr)| addr.map(|_| l))
            .collect()
    }

    /// Live pages currently mapped.
    #[must_use]
    pub fn live_pages(&self) -> usize {
        self.meta
            .state
            .iter()
            .filter(|s| matches!(s, PageState::Live { .. }))
            .count()
    }

    fn slot(&self, addr: PageAddress) -> usize {
        addr.block * self.array.config().pages_per_block + addr.page
    }

    // ---- journaled metadata mutation ---------------------------------
    //
    // Every mutation of the metadata goes through `mutate`, so the
    // crash-consistency delta log is complete by construction and replay
    // runs the same `FtlMeta::apply`. Two exceptions keep the journal
    // whole another way: the counters are bumped in place and journaled
    // absolute by `journal_counters`, and the builder settings (plane
    // count, spare pool) re-cut the journal's copy. All deltas carry
    // absolute values (idempotent replay).

    fn mutate(&mut self, delta: MetaDelta) {
        self.meta.apply(&delta);
        if let Some(journal) = self.journal.as_mut() {
            journal.deltas.push(delta);
        }
    }

    fn set_map(&mut self, lpn: usize, addr: Option<PageAddress>) {
        self.mutate(MetaDelta::MapSet { lpn, addr });
    }

    fn set_state(&mut self, slot: usize, state: PageState) {
        self.mutate(MetaDelta::StateSet { slot, state });
    }

    fn set_next_slot(&mut self, value: usize) {
        self.mutate(MetaDelta::NextSlot { value });
    }

    fn set_next_lpn(&mut self, value: usize) {
        self.mutate(MetaDelta::NextLpn { value });
    }

    fn journal_counters(&mut self) {
        self.mutate(MetaDelta::Counters {
            reclaim_erases: self.meta.reclaim_erases,
            gc_erases: self.meta.gc_erases,
            gc_relocations: self.meta.gc_relocations,
            program_fails: self.meta.program_fails,
        });
    }

    fn note_program_fail(&mut self, addr: PageAddress) {
        self.meta.program_fails += 1;
        self.journal_counters();
        gnr_telemetry::counter_add!("ftl.program_fails", 1);
        gnr_telemetry::journal::record(gnr_telemetry::journal::EventKind::ProgramFail {
            block: addr.block as u64,
            page: addr.page as u64,
        });
    }

    /// Counts one completed controller op toward the checkpoint cadence
    /// and re-checkpoints when it is due (resetting the delta log).
    fn note_op(&mut self) {
        let due = self.journal.as_mut().is_some_and(|journal| {
            journal.since_checkpoint += 1;
            journal.since_checkpoint >= journal.interval
        });
        if due {
            self.cut_checkpoint();
            gnr_telemetry::counter_add!("ftl.meta_checkpoints", 1);
        }
    }

    /// Copies the current metadata into the journal, when one is armed,
    /// and clears its delta log.
    fn cut_checkpoint(&mut self) {
        if let Some(journal) = self.journal.as_mut() {
            journal.checkpoint.clone_from(&self.meta);
            journal.deltas.clear();
            journal.since_checkpoint = 0;
        }
    }

    // ---- allocation, reclaim and garbage collection ------------------

    /// Finds a free page, reclaiming or garbage-collecting when none is
    /// left. Advances the round-robin scan pointer on success. In
    /// fault-tolerant mode, blocks whose erase reports a grown-bad
    /// status are retired and the search continues.
    fn allocate(&mut self) -> Result<PageAddress> {
        if self.meta.read_only {
            return Err(ArrayError::ReadOnly);
        }
        // Bounded loop: every round either returns, frees pages, or
        // retires a block (bounded by the spare pool, then read-only).
        for _ in 0..=2 * self.array.config().blocks + 2 {
            if let Some(addr) = self.scan_free() {
                return Ok(addr);
            }
            // No free page anywhere. Cheap path first: a fully-consumed
            // block (all pages written, none live) — erase the least
            // worn.
            if let Some(block) = self.reclaim_candidate() {
                match self.array.erase_block(block) {
                    Ok(()) => {
                        self.meta.reclaim_erases += 1;
                        self.journal_counters();
                        gnr_telemetry::counter_add!("ftl.reclaims", 1);
                        gnr_telemetry::journal::record(
                            gnr_telemetry::journal::EventKind::Reclaim {
                                block: block as u64,
                            },
                        );
                        self.free_block_state(block);
                    }
                    Err(ArrayError::BlockRetired { .. }) if self.meta.fault_tolerant => {
                        // Fully-stale block grew bad on its reclaim
                        // erase: nothing live to relocate, just retire.
                        self.retire_block(block)?;
                    }
                    Err(e) => return Err(e),
                }
                continue;
            }
            // GC: buffer the live pages of the least-live victim, erase
            // it, and reprogram them in place.
            self.collect_garbage()?;
        }
        Err(ArrayError::CapacityExhausted {
            live_pages: self.live_pages(),
            capacity: self.array.config().pages(),
        })
    }

    /// Round-robin scan for the next free page, skipping retired
    /// blocks.
    fn scan_free(&mut self) -> Option<PageAddress> {
        let cfg = self.array.config();
        let pages = cfg.pages();
        for off in 0..pages {
            let slot = (self.meta.next_slot + off) % pages;
            if self.meta.state[slot] == PageState::Free
                && !self.meta.bad_blocks[slot / cfg.pages_per_block]
            {
                self.set_next_slot((slot + 1) % pages);
                return Some(PageAddress {
                    block: slot / cfg.pages_per_block,
                    page: slot % cfg.pages_per_block,
                });
            }
        }
        None
    }

    /// The least-worn fully-consumed block, if any: every page written,
    /// zero live, not retired.
    fn reclaim_candidate(&self) -> Option<usize> {
        let cfg = self.array.config();
        (0..cfg.blocks)
            .filter(|&b| {
                let first = b * cfg.pages_per_block;
                !self.meta.bad_blocks[b]
                    && self.meta.state[first..first + cfg.pages_per_block]
                        .iter()
                        .all(|s| *s == PageState::Stale)
            })
            .min_by_key(|&b| self.array.erase_count(b).unwrap_or(u64::MAX))
    }

    /// Garbage-collects the fully-written block with the fewest live
    /// pages: its live contents are read into a buffer, the block is
    /// erased, and the contents are reprogrammed into the block's first
    /// pages. Fails with [`ArrayError::CapacityExhausted`] when every
    /// page of the array is live.
    ///
    /// Failure atomicity: an erase the medium refuses (a grown-bad
    /// status) leaves the victim's cells intact, so nothing is lost —
    /// in fault-tolerant mode the victim is retired and the survivors
    /// placed on healthy blocks, and every survivor that is not
    /// relocated (no spare left, or nowhere to put it) stays mapped at
    /// its original page. Any other mid-GC device failure (erase or
    /// reprogram verify) can lose the affected survivors — their
    /// mappings are *cleared* before the error propagates, so no logical
    /// page is ever left pointing at a freed or reallocated physical
    /// page; the loss is visible as a read miss, never as aliased data.
    /// In fault-tolerant mode a dried-out reprogram retires the victim
    /// and places the remaining survivors on healthy blocks instead.
    fn collect_garbage(&mut self) -> Result<()> {
        let _zone = gnr_telemetry::zone!("ftl.gc");
        let cfg = self.array.config();
        let victim = (0..cfg.blocks)
            .filter_map(|b| {
                if self.meta.bad_blocks[b] {
                    return None; // retired — never a GC victim
                }
                let first = b * cfg.pages_per_block;
                let states = &self.meta.state[first..first + cfg.pages_per_block];
                if states.contains(&PageState::Free) {
                    return None; // not fully written — not a GC victim
                }
                let live = states
                    .iter()
                    .filter(|s| matches!(s, PageState::Live { .. }))
                    .count();
                (live < cfg.pages_per_block).then_some((b, live))
            })
            .min_by_key(|&(b, live)| (live, self.array.erase_count(b).unwrap_or(u64::MAX)))
            .map(|(b, _)| b);
        let Some(victim) = victim else {
            return Err(ArrayError::CapacityExhausted {
                live_pages: self.live_pages(),
                capacity: cfg.pages(),
            });
        };

        // Buffer the live pages (data + logical number), then erase.
        let first = victim * cfg.pages_per_block;
        let mut survivors: Vec<(usize, Vec<bool>)> = Vec::new();
        let mut originals: Vec<(usize, PageAddress)> = Vec::new();
        for page in 0..cfg.pages_per_block {
            if let PageState::Live { lpn } = self.meta.state[first + page] {
                survivors.push((lpn, self.array.read_page(victim, page)?));
                originals.push((
                    lpn,
                    PageAddress {
                        block: victim,
                        page,
                    },
                ));
                // The buffered copy supersedes the on-array one. From
                // here until each survivor is reprogrammed, its map
                // entry is cleared so a failure cannot leave it
                // pointing at a page about to be erased or reassigned.
                self.set_state(first + page, PageState::Stale);
                self.set_map(lpn, None);
            }
        }
        match self.array.erase_block(victim) {
            Ok(()) => {}
            Err(e @ ArrayError::BlockRetired { .. }) => {
                // The medium refused the erase, so the victim's cells —
                // the survivors' originals — are intact. In
                // fault-tolerant mode retire the victim and place the
                // survivors on healthy blocks. A survivor still unmapped
                // after that (no spare left, no page for it, or no fault
                // tolerance) goes back to its original page, which
                // nothing reallocates: the victim has no free page until
                // an erase succeeds, and once retired it has none ever.
                let placed = if self.meta.fault_tolerant {
                    self.retire_and_relocate(victim, &survivors)
                } else {
                    Err(e)
                };
                if placed.is_err() {
                    for &(lpn, addr) in &originals {
                        if self.meta.map[lpn].is_none() {
                            self.commit_live(lpn, addr);
                        }
                    }
                }
                return placed;
            }
            // Any other erase failure applied erase pulses, so the
            // originals are gone and the buffered survivors are the
            // only copies. There is nowhere safe to put them: they
            // surface as read misses (mappings already cleared), never
            // as aliased data.
            Err(e) => return Err(e),
        }
        self.meta.gc_erases += 1;
        self.journal_counters();
        gnr_telemetry::counter_add!("ftl.gc.erases", 1);
        gnr_telemetry::journal::record(gnr_telemetry::journal::EventKind::GcErase {
            block: victim as u64,
            survivors: survivors.len() as u64,
        });
        self.free_block_state(victim);
        let mut page = 0usize;
        for (idx, (lpn, bits)) in survivors.iter().enumerate() {
            // A verify failure consumes a page (pulses were applied):
            // retire it and retry the survivor on the next page. Only a
            // survivor that runs out of pages is lost — and it is lost
            // *cleanly*, its mapping already cleared above. In
            // fault-tolerant mode a dried-out victim is retired instead
            // and the remaining survivors placed on healthy blocks.
            let mut last_error = None;
            let mut placed = false;
            while page < cfg.pages_per_block {
                let slot = first + page;
                match self.array.program_page(victim, page, bits) {
                    Ok(()) => {
                        self.set_state(slot, PageState::Live { lpn: *lpn });
                        self.set_map(
                            *lpn,
                            Some(PageAddress {
                                block: victim,
                                page,
                            }),
                        );
                        self.meta.gc_relocations += 1;
                        self.journal_counters();
                        gnr_telemetry::counter_add!("ftl.gc.relocations", 1);
                        gnr_telemetry::journal::record(
                            gnr_telemetry::journal::EventKind::GcRelocation {
                                lpn: *lpn as u64,
                                block: victim as u64,
                                page: page as u64,
                            },
                        );
                        page += 1;
                        placed = true;
                        break;
                    }
                    Err(e) => {
                        self.set_state(slot, PageState::Stale);
                        if self.meta.fault_tolerant {
                            self.note_program_fail(PageAddress {
                                block: victim,
                                page,
                            });
                        }
                        last_error = Some(e);
                        page += 1;
                    }
                }
            }
            if !placed {
                if self.meta.fault_tolerant {
                    // The freshly-erased victim would not take its own
                    // survivors back: it is done. Retire it (relocating
                    // any survivors already placed back in) and place
                    // the rest on healthy blocks.
                    return self.retire_and_relocate(victim, &survivors[idx..]);
                }
                return Err(last_error.expect("loop only exits dry after an error"));
            }
        }
        Ok(())
    }

    /// GC's fault-tolerant fallback: retires `victim` and places the
    /// buffered `survivors` on healthy blocks, counting each placement
    /// as a relocation.
    fn retire_and_relocate(
        &mut self,
        victim: usize,
        survivors: &[(usize, Vec<bool>)],
    ) -> Result<()> {
        self.retire_block(victim)?;
        for (lpn, bits) in survivors {
            let addr = self.place_bits(bits)?;
            self.commit_live(*lpn, addr);
            self.meta.gc_relocations += 1;
            self.journal_counters();
            gnr_telemetry::counter_add!("ftl.gc.relocations", 1);
            gnr_telemetry::journal::record(gnr_telemetry::journal::EventKind::GcRelocation {
                lpn: *lpn as u64,
                block: addr.block as u64,
                page: addr.page as u64,
            });
        }
        Ok(())
    }

    fn free_block_state(&mut self, block: usize) {
        let cfg = self.array.config();
        let first = block * cfg.pages_per_block;
        for slot in first..first + cfg.pages_per_block {
            debug_assert!(
                !matches!(self.meta.state[slot], PageState::Live { .. }),
                "reclaim must never erase live pages"
            );
            self.set_state(slot, PageState::Free);
        }
        // Start the next allocation scan in the reclaimed block so the
        // round-robin keeps levelling wear.
        self.set_next_slot(first);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArrayError;
    use gnr_flash::device::FloatingGateTransistor;

    fn controller() -> FlashController {
        FlashController::new(NandConfig {
            blocks: 2,
            pages_per_block: 2,
            page_width: 4,
        })
    }

    #[test]
    fn write_read_round_trip() {
        let mut c = controller();
        let data = vec![false, true, false, true];
        let addr = c.write(&data).unwrap();
        assert_eq!(addr, PageAddress { block: 0, page: 0 });
        assert_eq!(c.read(addr).unwrap(), data);
    }

    #[test]
    fn allocation_advances_round_robin() {
        let mut c = controller();
        let d = vec![true; 4];
        let a0 = c.write(&d).unwrap();
        let a1 = c.write(&d).unwrap();
        let a2 = c.write(&d).unwrap();
        assert_eq!((a0.block, a0.page), (0, 0));
        assert_eq!((a1.block, a1.page), (0, 1));
        assert_eq!((a2.block, a2.page), (1, 0));
    }

    #[test]
    fn wraparound_reclaims_blocks() {
        let mut c = controller();
        let d = vec![false; 4];
        // 4 pages fill the array; the 5th write wraps and forces an erase.
        for _ in 0..5 {
            c.write(&d).unwrap();
        }
        let stats = c.wear_stats().unwrap();
        assert!(stats.total_erases >= 1);
        assert_eq!(stats.total_erases, stats.reclaim_erases);
    }

    #[test]
    fn wear_spread_stays_tight_under_sequential_load() {
        let mut c = controller();
        let d = vec![false; 4];
        for _ in 0..16 {
            c.write(&d).unwrap();
        }
        let stats = c.wear_stats().unwrap();
        assert!(stats.spread() <= 1, "wear spread {stats:?}");
    }

    #[test]
    fn wrong_width_write_rejected() {
        let mut c = controller();
        assert!(matches!(
            c.write(&[true]),
            Err(ArrayError::WrongPageWidth { .. })
        ));
        // The cursor did not advance: the corrected retry still lands
        // on logical page 0, physical (0, 0).
        let addr = c.write(&[false; 4]).unwrap();
        assert_eq!(addr, PageAddress { block: 0, page: 0 });
        assert_eq!(c.read_logical(0).unwrap(), vec![false; 4]);
    }

    #[test]
    fn reclaim_never_destroys_live_pages() {
        // The historical bug: wrapping erased the next block wholesale,
        // taking still-live pages with it. Rewriting one hot logical page
        // over and over must leave every other logical page intact.
        let mut c = FlashController::new(NandConfig {
            blocks: 3,
            pages_per_block: 2,
            page_width: 4,
        });
        let cold: Vec<Vec<bool>> = (0..3)
            .map(|i| (0..4).map(|b| (b + i) % 2 == 0).collect())
            .collect();
        for (lpn, data) in cold.iter().enumerate() {
            c.write_logical(lpn, data).unwrap();
        }
        let hot = vec![false; 4];
        for _ in 0..12 {
            c.write_logical(3, &hot).unwrap();
        }
        for (lpn, data) in cold.iter().enumerate() {
            assert_eq!(
                c.read_logical(lpn).unwrap(),
                *data,
                "cold page {lpn} was destroyed by reclaim"
            );
        }
        assert_eq!(c.read_logical(3).unwrap(), hot);
        let stats = c.wear_stats().unwrap();
        assert!(stats.total_erases >= 1);
    }

    #[test]
    fn gc_relocates_when_no_block_is_fully_stale() {
        // 3 blocks × 2 pages, logical capacity 4. Fill all four logical
        // pages (blocks 0 and 1 end up all-live), then alternate rewrites
        // of two of them: stale pages interleave with live ones in every
        // block, so reclaiming requires relocating the cold survivors.
        let mut c = FlashController::new(NandConfig {
            blocks: 3,
            pages_per_block: 2,
            page_width: 4,
        });
        let data: Vec<Vec<bool>> = (0..4)
            .map(|i| (0..4).map(|b| (b + i) % 3 == 0).collect())
            .collect();
        for (lpn, bits) in data.iter().enumerate() {
            c.write_logical(lpn, bits).unwrap();
        }
        for round in 0..6 {
            for &lpn in &[1usize, 3] {
                c.write_logical(lpn, &data[lpn]).unwrap();
                // Cold pages 0 and 2 must survive every reclaim.
                assert_eq!(c.read_logical(0).unwrap(), data[0], "round {round}");
                assert_eq!(c.read_logical(2).unwrap(), data[2], "round {round}");
            }
        }
        let stats = c.wear_stats().unwrap();
        assert!(stats.gc_relocations > 0, "{stats:?}");
        assert!(stats.gc_erases > 0, "{stats:?}");
        assert!(stats.total_erases > 0);
    }

    #[test]
    fn capacity_errors_are_reported_not_destructive() {
        let mut c = controller();
        assert_eq!(c.logical_capacity(), 2);
        let d = vec![false; 4];
        c.write_logical(0, &d).unwrap();
        c.write_logical(1, &d).unwrap();
        // lpn beyond capacity is rejected up front.
        assert!(matches!(
            c.write_logical(2, &d),
            Err(ArrayError::AddressOutOfRange { .. })
        ));
        // Both pages still readable.
        assert_eq!(c.read_logical(0).unwrap(), d);
        assert_eq!(c.read_logical(1).unwrap(), d);
    }

    #[test]
    #[should_panic(expected = "over-provisioning")]
    fn single_block_arrays_are_rejected_up_front() {
        // One block means zero logical capacity: rewrites would
        // deadlock with every page live, so construction refuses.
        let _ = FlashController::new(NandConfig {
            blocks: 1,
            pages_per_block: 2,
            page_width: 4,
        });
    }

    #[test]
    fn live_page_enumeration_tracks_the_map() {
        let mut c = FlashController::new(NandConfig {
            blocks: 3,
            pages_per_block: 2,
            page_width: 4,
        });
        assert!(c.live_logical_pages().is_empty());
        assert_eq!(c.physical_of(0), None);
        let d = vec![false; 4];
        c.write_logical(2, &d).unwrap();
        c.write_logical(0, &d).unwrap();
        assert_eq!(c.live_logical_pages(), vec![0, 2]);
        let addr = c.physical_of(2).unwrap();
        assert_eq!(c.read(addr).unwrap(), d);
        // A rewrite moves the live copy; the enumeration is unchanged.
        c.write_logical(2, &d).unwrap();
        assert_ne!(c.physical_of(2).unwrap(), addr);
        assert_eq!(c.live_logical_pages(), vec![0, 2]);
    }

    /// A controller whose page (0, 1) cells carry +30 % tunnel oxide —
    /// nominal ISPP deterministically fails verify on them.
    fn controller_with_bad_page_over(blocks: usize) -> FlashController {
        let config = NandConfig {
            blocks,
            pages_per_block: 2,
            page_width: 4,
        };
        let mut pop = crate::population::CellPopulation::paper(config.cells());
        let probe = NandArray::new(config);
        for column in 0..config.page_width {
            pop.set_cell_variation(probe.cell_index(0, 1, column), 0.3, 0.0)
                .unwrap();
        }
        FlashController::over(NandArray::with_population(config, pop))
    }

    fn controller_with_bad_page() -> FlashController {
        controller_with_bad_page_over(2)
    }

    #[test]
    fn batched_write_failure_keeps_the_pre_batch_copy() {
        // Regression: plan-time remapping must not cost the last good
        // copy when the scheduled program fails verify — the guarantee
        // write_logical documents, now preserved across flush rollback.
        let mut c = controller_with_bad_page();
        let data = vec![false, true, false, true];
        let first = c.write_batch(vec![(Some(0), data.clone())]);
        assert_eq!(first[0].clone().unwrap(), PageAddress { block: 0, page: 0 });
        // The rewrite allocates the bad page (0, 1) and fails...
        let err = c
            .write_batch(vec![(Some(0), vec![true, false, true, false])])
            .into_iter()
            .next()
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, ArrayError::VerifyFailed { .. }));
        // ...and the mapping rolled back to the intact pre-batch copy.
        assert_eq!(c.physical_of(0), Some(PageAddress { block: 0, page: 0 }));
        assert_eq!(c.read_logical(0).unwrap(), data);
    }

    #[test]
    fn batched_write_failure_keeps_the_last_in_batch_copy() {
        // Same-lpn rewrites inside one batch: the fallback is the newest
        // copy that verified, not only the pre-batch one.
        let mut c = controller_with_bad_page();
        let good = vec![false, true, true, true];
        let results = c.write_batch(vec![
            (Some(0), good.clone()),                   // lands (0,0), verifies
            (Some(0), vec![true, false, true, false]), // lands (0,1), fails
        ]);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(ArrayError::VerifyFailed { .. })));
        assert_eq!(c.physical_of(0), Some(PageAddress { block: 0, page: 0 }));
        assert_eq!(c.read_logical(0).unwrap(), good);
    }

    #[test]
    fn batched_cursor_only_advances_on_verified_programs() {
        // write()'s contract: "the cursor only advances on success, so a
        // failed write retries the same logical page" — the batched path
        // must hold it too (the cursor commits per verified program).
        let mut c = controller_with_bad_page();
        let good = vec![false, true, false, true];
        // Cursor job 1 lands (0,0) and verifies: cursor moves to lpn 1.
        assert!(c.write_batch(vec![(None, good.clone())])[0].is_ok());
        // Cursor job 2 lands the bad page (0,1) and fails: the cursor
        // must stay on lpn 1 so a retry targets the same logical page.
        assert!(c.write_batch(vec![(None, good.clone())])[0].is_err());
        assert_eq!(c.physical_of(1), None);
        let retry = vec![false, false, true, true];
        let addr = c.write(&retry).unwrap();
        assert_eq!(c.physical_of(1), Some(addr));
        assert_eq!(c.read_logical(1).unwrap(), retry);
        // Logical page 0's copy survived throughout.
        assert_eq!(c.read_logical(0).unwrap(), good);
    }

    #[test]
    fn write_batch_reports_per_op_results() {
        // Per-op contract: invalid jobs fail alone, valid neighbours in
        // the same batch land and stay readable.
        let mut c = FlashController::new(NandConfig {
            blocks: 3,
            pages_per_block: 2,
            page_width: 4,
        });
        let good = vec![true, false, true, false];
        let results = c.write_batch(vec![
            (Some(0), good.clone()),
            (Some(99), good.clone()), // out-of-range lpn
            (Some(1), vec![true; 2]), // wrong width
            (Some(2), good.clone()),
        ]);
        assert_eq!(results.len(), 4);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(ArrayError::AddressOutOfRange { .. })
        ));
        assert!(matches!(results[2], Err(ArrayError::WrongPageWidth { .. })));
        assert!(results[3].is_ok());
        assert_eq!(c.read_logical(0).unwrap(), good);
        assert_eq!(c.read_logical(2).unwrap(), good);
        assert_eq!(c.physical_of(1), None);
    }

    #[test]
    fn explicit_erase_clears_mappings() {
        let mut c = controller();
        let d = vec![false; 4];
        let addr = c.write_logical(0, &d).unwrap();
        c.erase_block(addr.block).unwrap();
        assert!(c.read_logical(0).is_err());
        assert_eq!(c.live_pages(), 0);
    }

    #[test]
    fn fault_tolerant_write_retries_past_a_failing_page() {
        // A verify failure in fault-tolerant mode retires the block and
        // retries on a healthy one instead of surfacing the error.
        let mut c = controller_with_bad_page_over(4).with_fault_tolerance(1);
        assert_eq!(c.logical_capacity(), 4);
        let d0 = vec![false, true, false, true];
        let d1 = vec![true, true, false, false];
        c.write_logical(0, &d0).unwrap();
        // This write lands the bad page (0, 1), fails verify, retires
        // block 0 (relocating lpn 0) and retries on block 1.
        let addr = c.write_logical(1, &d1).unwrap();
        assert_ne!(addr.block, 0);
        assert_eq!(c.retired_blocks(), 1);
        assert!(c.is_block_retired(0));
        assert!(c.program_fail_count() >= 1);
        assert!(!c.read_only());
        assert_eq!(c.read_logical(0).unwrap(), d0);
        assert_eq!(c.read_logical(1).unwrap(), d1);
        // The retired block never hosts data again.
        for _ in 0..8 {
            let a = c.write_logical(2, &d0).unwrap();
            assert_ne!(a.block, 0);
        }
    }

    #[test]
    fn spare_exhaustion_enters_read_only_and_keeps_reads() {
        // Zero spares: the first retirement cannot be absorbed, so the
        // controller degrades to read-only — an error, not a panic, and
        // reads keep working.
        let mut c = controller_with_bad_page().with_fault_tolerance(0);
        let d = vec![false, true, false, true];
        c.write_logical(0, &d).unwrap();
        let err = c.write_logical(0, &[false; 4]).unwrap_err();
        assert!(matches!(err, ArrayError::ReadOnly));
        assert!(c.read_only());
        assert_eq!(c.read_logical(0).unwrap(), d);
        // Writes keep failing cleanly; reads keep succeeding.
        assert!(matches!(c.write_logical(1, &d), Err(ArrayError::ReadOnly)));
        assert_eq!(c.read_logical(0).unwrap(), d);
    }

    #[test]
    fn crash_image_replays_to_the_running_digest() {
        // Power-loss model: the checkpoint of a journaled controller
        // (medium + metadata copy + journaled deltas) restores
        // digest-identical to the running controller at any point,
        // including mid-delta-window.
        let gnr = CellBackend::gnr(FloatingGateTransistor::mlgnr_cnt_paper());
        let mut c = FlashController::new(NandConfig {
            blocks: 3,
            pages_per_block: 2,
            page_width: 4,
        })
        .with_crash_consistency(4);
        let data: Vec<Vec<bool>> = (0..4)
            .map(|i| (0..4).map(|b| (b + i) % 2 == 0).collect())
            .collect();
        for (lpn, bits) in data.iter().enumerate() {
            c.write_logical(lpn, bits).unwrap();
        }
        // Rewrites force reclaim/GC churn across the checkpoint window.
        for step in 0..5 {
            c.write_logical(step % 4, &data[step % 4]).unwrap();
            let recovered = FlashController::restore(&gnr, c.checkpoint()).unwrap();
            assert_eq!(
                recovered.state_digest(),
                c.state_digest(),
                "recovery diverged at step {step}"
            );
            assert_eq!(recovered.live_pages(), c.live_pages());
        }
        // The checkpoint itself round-trips through JSON.
        let json = serde_json::to_string(&c.checkpoint()).unwrap();
        let decoded: Checkpoint = serde_json::from_str(&json).unwrap();
        let recovered = FlashController::restore(&gnr, decoded).unwrap();
        assert_eq!(recovered.state_digest(), c.state_digest());
        // The delta log is bounded by the checkpoint cadence.
        assert!(c.crash_consistent());
    }

    #[test]
    fn settings_applied_after_arming_the_journal_survive_restore() {
        // The plane count and the spare pool are metadata too: set after
        // crash consistency is armed, they must reach the journal's copy
        // or a restore would drop them.
        let gnr = CellBackend::gnr(FloatingGateTransistor::mlgnr_cnt_paper());
        let mut c = FlashController::new(NandConfig {
            blocks: 4,
            pages_per_block: 2,
            page_width: 4,
        })
        .with_crash_consistency(100)
        .with_fault_tolerance(1)
        .with_planes(2);
        c.write(&[true; 4]).unwrap();
        let restored = FlashController::restore(&gnr, c.checkpoint()).unwrap();
        assert_eq!(restored.state_digest(), c.state_digest());
        assert_eq!(restored.scheduler(), c.scheduler());
        assert_eq!(restored.spare_blocks(), 1);
    }

    #[test]
    fn restore_rejects_states_beyond_capacity() {
        // No controller reaches a cursor equal to its range (the setters
        // wrap) or maps a logical page beyond its capacity; a
        // cursor-assigned write from such a cursor would map one, so
        // restore refuses both — in the metadata and in a journaled
        // delta alike.
        let gnr = CellBackend::gnr(FloatingGateTransistor::mlgnr_cnt_paper());
        let mut c = FlashController::new(NandConfig {
            blocks: 3,
            pages_per_block: 2,
            page_width: 4,
        });
        c.write(&[true; 4]).unwrap();
        let (pages, capacity) = (c.array().config().pages(), c.logical_capacity());
        let good = c.checkpoint();
        assert!(FlashController::restore(&gnr, good.clone()).is_ok());
        let mut bad = vec![good.clone(), good.clone(), good.clone()];
        bad[0].meta.next_lpn = capacity;
        bad[1].meta.next_slot = pages;
        bad[2].meta.map[capacity] = Some(PageAddress { block: 0, page: 0 });
        for delta in [
            MetaDelta::NextLpn { value: capacity },
            MetaDelta::NextSlot { value: pages },
        ] {
            let mut cp = good.clone();
            cp.deltas.push(delta);
            bad.push(cp);
        }
        for cp in bad {
            let err = FlashController::restore(&gnr, cp).unwrap_err();
            assert!(matches!(err, ArrayError::Snapshot(_)), "{err}");
        }
    }

    #[test]
    fn restore_rejects_a_map_that_disagrees_with_page_states() {
        // Both directions of the map/state agreement, in the metadata
        // and in a journaled delta: a mapped lpn whose page is not live,
        // and a live page its lpn does not map to. Either would let a
        // later write reuse a page that is still referenced.
        let gnr = CellBackend::gnr(FloatingGateTransistor::mlgnr_cnt_paper());
        let mut c = FlashController::new(NandConfig {
            blocks: 3,
            pages_per_block: 2,
            page_width: 4,
        });
        c.write_logical(0, &[true; 4]).unwrap();
        c.write_logical(1, &[false; 4]).unwrap();
        let good = c.checkpoint();
        assert!(FlashController::restore(&gnr, good.clone()).is_ok());
        let (slot0, slot1) = (
            c.slot(c.physical_of(0).unwrap()),
            c.slot(c.physical_of(1).unwrap()),
        );
        let mut bad = vec![good.clone(), good.clone(), good.clone()];
        bad[0].meta.state[slot1] = PageState::Free;
        bad[1].meta.map[1] = None;
        bad[2].deltas.push(MetaDelta::StateSet {
            slot: slot0,
            state: PageState::Stale,
        });
        for cp in bad {
            let err = FlashController::restore(&gnr, cp).unwrap_err();
            assert!(matches!(err, ArrayError::Snapshot(_)), "{err}");
        }
    }

    #[test]
    fn gc_keeps_survivors_mapped_when_the_victim_refuses_its_erase() {
        // Without fault tolerance a refused GC erase surfaces as
        // `BlockRetired`, and the victim's survivor stays readable in
        // place: the medium left its cells alone.
        let mut c = FlashController::new(NandConfig {
            blocks: 3,
            pages_per_block: 2,
            page_width: 8,
        })
        .with_faults(Some(FaultPlan {
            bad_block_after_erases: vec![(0, 1)],
            ..FaultPlan::seeded(3)
        }));
        let data = |lpn: usize| crate::workload::PagePattern::Seeded { seed: lpn as u64 }.expand(8);
        for lpn in [0, 1, 2, 3, 0, 2] {
            c.write_logical(lpn, &data(lpn)).unwrap();
        }
        assert!(matches!(
            c.write_logical(3, &data(3)),
            Err(ArrayError::BlockRetired { block: 0 })
        ));
        assert_eq!(c.live_logical_pages(), vec![0, 1, 2, 3]);
        for lpn in 0..4 {
            assert_eq!(c.read_logical(lpn).unwrap(), data(lpn), "lpn {lpn}");
        }
    }

    #[test]
    fn retire_block_is_idempotent() {
        let mut c = controller_with_bad_page_over(4).with_fault_tolerance(2);
        let d = vec![true; 4];
        c.write_logical(0, &d).unwrap();
        let moved = c.retire_block(0).unwrap();
        assert_eq!(moved, 1);
        assert_eq!(c.retire_block(0).unwrap(), 0);
        assert_eq!(c.retired_blocks(), 1);
        assert_eq!(c.read_logical(0).unwrap(), d);
    }
}
