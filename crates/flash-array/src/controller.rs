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
//! # Crash consistency
//!
//! [`FlashController::enable_crash_consistency`] journals the volatile
//! FTL metadata as a periodic [`MetaCheckpoint`] plus a delta log
//! ([`MetaDelta`]) of every mutation since. Power loss at any op
//! boundary preserves exactly the array medium plus that checkpoint and
//! log (a [`CrashImage`]); [`FlashController::recover`] /
//! [`FlashController::recover_backend`] replay the deltas onto the
//! checkpoint and yield a controller whose [`state_digest`] equals the
//! uninterrupted run's at the cut — the equality the crash-recovery
//! sweep pins at every op index.
//!
//! [`state_digest`]: FlashController::state_digest

use std::collections::HashMap;

use gnr_flash::backend::CellBackend;
use gnr_flash::device::FloatingGateTransistor;
use gnr_numerics::hash::fnv1a_fold_bytes;

use crate::fault::FaultPlan;
use crate::nand::{ArraySnapshot, NandArray, NandConfig};
use crate::pe::scheduler::{CommandOutcome, PeCommand, PlaneScheduler};
use crate::{ArrayError, Result};

/// Physical address of a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
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

/// The controller's complete volatile metadata at one instant: the
/// logical map and page lifecycle columns (integer-encoded for the JSON
/// shim: `map[lpn]` holds the live copy's flat physical page slot
/// `block * pages_per_block + page` or `-1` for unmapped; `state[slot]`
/// holds the live logical page number, `-1` for a free page, `-2` for a
/// stale one), the allocation cursors, the wear-reason counters, the
/// scheduler configuration and the fault-tolerance bookkeeping.
///
/// This is both the metadata half of a [`ControllerSnapshot`] and the
/// periodic checkpoint the crash-consistency journal replays
/// [`MetaDelta`]s onto.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MetaCheckpoint {
    /// Logical page → flat physical slot of its live copy (`-1` = none).
    pub map: Vec<i64>,
    /// Per physical page: live lpn, `-1` free, `-2` stale.
    pub state: Vec<i64>,
    /// Rotating allocation scan start.
    pub next_slot: u64,
    /// Auto-assign logical-page cursor.
    pub next_lpn: u64,
    /// Erases initiated to reclaim fully-stale blocks.
    pub reclaim_erases: u64,
    /// Erases initiated by garbage collection.
    pub gc_erases: u64,
    /// Live pages rewritten during garbage collection.
    pub gc_relocations: u64,
    /// Plane count of the multi-plane scheduler (its entire round
    /// state: scheduling is stateless across rounds by design).
    pub planes: u64,
    /// Grown-bad table: `true` marks a retired block.
    pub bad_blocks: Vec<bool>,
    /// Spare blocks provisioned for retirements.
    pub spare_blocks: u64,
    /// Whether the hardened fault-tolerant FTL is armed.
    pub fault_tolerant: bool,
    /// Whether the controller has degraded to read-only mode.
    pub read_only: bool,
    /// Page programs that reported a failed status.
    pub program_fails: u64,
}

/// One journaled metadata mutation. Every delta carries **absolute**
/// values, so replay is idempotent and order within the log is the only
/// ordering that matters — the property that makes recovery replay
/// byte-exact.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum MetaDelta {
    /// `map[lpn]` now points at flat `slot` (`-1` = unmapped).
    MapSet {
        /// The logical page.
        lpn: u64,
        /// Flat physical slot of the live copy, `-1` for none.
        slot: i64,
    },
    /// `state[slot]` now holds `code` (live lpn, `-1` free, `-2` stale).
    StateSet {
        /// The flat physical slot.
        slot: u64,
        /// The lifecycle code.
        code: i64,
    },
    /// The rotating allocation cursor moved.
    NextSlot {
        /// Its new absolute value.
        value: u64,
    },
    /// The auto-assign logical-page cursor moved.
    NextLpn {
        /// Its new absolute value.
        value: u64,
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
        block: u64,
    },
    /// The controller degraded to read-only mode.
    ReadOnly,
    /// An epoch jump reset the page lifecycle: map cleared, every slot
    /// free, allocation scan restarted at slot 0.
    MetaReset,
}

/// Serializable full state of a [`FlashController`]: the wrapped
/// array's snapshot plus the FTL metadata (see [`MetaCheckpoint`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ControllerSnapshot {
    /// The wrapped array's full state.
    pub array: ArraySnapshot,
    /// The controller metadata.
    pub meta: MetaCheckpoint,
}

/// Everything that survives a power cut: the array medium (cells are
/// non-volatile), the last metadata checkpoint and the delta log
/// journaled since it. [`FlashController::recover`] replays the log
/// onto the checkpoint to rebuild the exact pre-crash controller.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CrashImage {
    /// The array medium at the instant of power loss.
    pub array: ArraySnapshot,
    /// The last metadata checkpoint.
    pub checkpoint: MetaCheckpoint,
    /// Metadata deltas journaled since the checkpoint, oldest first.
    pub deltas: Vec<MetaDelta>,
    /// The checkpoint cadence (ops between checkpoints), so recovery
    /// re-arms the journal identically.
    pub interval: u64,
}

/// The crash-consistency journal: the last checkpoint, the deltas since
/// and the checkpoint cadence.
#[derive(Debug, Clone)]
struct MetaJournal {
    interval: u64,
    since_checkpoint: u64,
    checkpoint: MetaCheckpoint,
    deltas: Vec<MetaDelta>,
}

/// Lifecycle of one physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    /// Erased and writable.
    Free,
    /// Holds the current copy of a logical page.
    Live(usize),
    /// Holds a superseded copy; reclaimed with its block.
    Stale,
}

#[allow(clippy::cast_possible_wrap)]
fn state_code(s: PageState) -> i64 {
    match s {
        PageState::Free => -1,
        PageState::Stale => -2,
        PageState::Live(lpn) => lpn as i64,
    }
}

/// The controller.
#[derive(Debug, Clone)]
pub struct FlashController {
    array: NandArray,
    /// Logical page → physical address of its live copy.
    map: Vec<Option<PageAddress>>,
    /// Per physical page (flat `block * pages_per_block + page`).
    state: Vec<PageState>,
    /// Rotating allocation scan start, for round-robin wear levelling.
    next_slot: usize,
    /// `write()` auto-assigns logical pages cycling through this range.
    next_lpn: usize,
    reclaim_erases: u64,
    gc_erases: u64,
    gc_relocations: u64,
    /// The multi-plane scheduler behind the batched entry points.
    scheduler: PlaneScheduler,
    /// Whether the hardened FTL (retire/retry/read-only) is armed.
    fault_tolerant: bool,
    /// Grown-bad table: `true` marks a retired block, excluded from
    /// every allocator path.
    bad_blocks: Vec<bool>,
    /// Spare blocks provisioned for retirements.
    spare_blocks: usize,
    /// Set when the spare pool is exhausted: writes fail, reads work.
    read_only: bool,
    /// Page programs that reported a failed status.
    program_fails: u64,
    /// The crash-consistency journal, when enabled.
    meta: Option<MetaJournal>,
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
            map: vec![None; pages],
            state: vec![PageState::Free; pages],
            next_slot: 0,
            next_lpn: 0,
            reclaim_erases: 0,
            gc_erases: 0,
            gc_relocations: 0,
            scheduler: PlaneScheduler::default(),
            fault_tolerant: false,
            bad_blocks: vec![false; blocks],
            spare_blocks: 0,
            read_only: false,
            program_fails: 0,
            meta: None,
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
        self.scheduler = PlaneScheduler::new(planes);
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
            self.state.iter().all(|s| *s == PageState::Free),
            "enable fault tolerance before writing"
        );
        self.fault_tolerant = true;
        self.spare_blocks = spare_blocks;
        self
    }

    /// Arms crash-consistent metadata: takes a checkpoint now and
    /// journals every subsequent metadata mutation, re-checkpointing
    /// every `interval` controller ops (clamped to at least 1). See
    /// [`Self::crash_image`].
    pub fn enable_crash_consistency(&mut self, interval: u64) {
        self.meta = Some(MetaJournal {
            interval: interval.max(1),
            since_checkpoint: 0,
            checkpoint: self.meta_checkpoint(),
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
        self.fault_tolerant
    }

    /// Whether the controller has degraded to read-only mode.
    #[must_use]
    pub fn read_only(&self) -> bool {
        self.read_only
    }

    /// Spare blocks provisioned for retirements.
    #[must_use]
    pub fn spare_blocks(&self) -> usize {
        self.spare_blocks
    }

    /// Blocks retired into the grown-bad table so far.
    #[must_use]
    pub fn retired_blocks(&self) -> usize {
        self.bad_blocks.iter().filter(|&&b| b).count()
    }

    /// Whether `block` is in the grown-bad table.
    #[must_use]
    pub fn is_block_retired(&self, block: usize) -> bool {
        self.bad_blocks.get(block).copied().unwrap_or(false)
    }

    /// Page programs that reported a failed status so far.
    #[must_use]
    pub fn program_fail_count(&self) -> u64 {
        self.program_fails
    }

    /// Whether crash-consistent metadata journaling is enabled.
    #[must_use]
    pub fn crash_consistent(&self) -> bool {
        self.meta.is_some()
    }

    /// Metadata deltas journaled since the last checkpoint (0 when
    /// crash consistency is disabled).
    #[must_use]
    pub fn pending_deltas(&self) -> usize {
        self.meta.as_ref().map_or(0, |j| j.deltas.len())
    }

    /// The multi-plane scheduler configuration.
    #[must_use]
    pub fn scheduler(&self) -> &PlaneScheduler {
        &self.scheduler
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
            - self.spare_blocks * self.array.config().pages_per_block
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
        let addr = self.write_logical_core(self.next_lpn, bits)?;
        self.set_next_lpn((self.next_lpn + 1) % self.logical_capacity());
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
                    if self.fault_tolerant =>
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
        if let Some(old) = self.map[lpn] {
            let slot = self.slot(old);
            self.set_state(slot, PageState::Stale);
        }
        self.set_map(lpn, Some(addr));
        let slot = self.slot(addr);
        self.set_state(slot, PageState::Live(lpn));
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
        // `self.next_lpn` commits per job as its program verifies (in
        // flush), so a verify failure leaves the cursor on the failed
        // logical page — `write`'s retry-the-same-page contract.
        let mut cursor = self.next_lpn;
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
            let prev = self.map[lpn];
            if let Some(old) = prev {
                let slot = self.slot(old);
                self.set_state(slot, PageState::Stale);
            }
            self.set_map(lpn, Some(addr));
            let slot = self.slot(addr);
            self.set_state(slot, PageState::Live(lpn));
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
        let keep_bits = self.fault_tolerant;
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
        let execution = self.scheduler.execute(&mut self.array, commands);
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
                    if self.map[lpn] == Some(addr) {
                        self.set_map(lpn, *good);
                        if let Some(g) = *good {
                            let slot = self.slot(g);
                            self.set_state(slot, PageState::Live(lpn));
                        }
                    }
                    out[job] = Some(Err(e.clone()));
                    failed.push(k);
                }
            }
        }
        if self.fault_tolerant && !failed.is_empty() {
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
            match self.map.get(lpn).copied().flatten() {
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
        let execution = self.scheduler.execute(&mut self.array, commands);
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
        let addr = self
            .map
            .get(lpn)
            .copied()
            .flatten()
            .ok_or(ArrayError::AddressOutOfRange {
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
        if self.read_only {
            return Err(ArrayError::ReadOnly);
        }
        let cfg = self.array.config();
        match self.array.erase_block(block) {
            Ok(()) => {
                for page in 0..cfg.pages_per_block {
                    let slot = block * cfg.pages_per_block + page;
                    if let PageState::Live(lpn) = self.state[slot] {
                        self.set_map(lpn, None);
                    }
                    self.set_state(slot, PageState::Free);
                }
            }
            Err(ArrayError::BlockRetired { .. }) if self.fault_tolerant => {
                // The medium refused the erase. The caller asked for the
                // data to go away, so clear the mappings, then retire
                // the grown-bad block (parking its slots stale).
                for page in 0..cfg.pages_per_block {
                    let slot = block * cfg.pages_per_block + page;
                    if let PageState::Live(lpn) = self.state[slot] {
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
        if self.bad_blocks[block] {
            return Ok(0);
        }
        if self.retired_blocks() >= self.spare_blocks {
            self.enter_read_only();
            return Err(ArrayError::ReadOnly);
        }
        self.mark_retired(block);
        let first = block * cfg.pages_per_block;
        // Park the free slots first so no relocation below can allocate
        // into the dying block.
        for page in 0..cfg.pages_per_block {
            if self.state[first + page] == PageState::Free {
                self.set_state(first + page, PageState::Stale);
            }
        }
        let mut relocated = 0usize;
        for page in 0..cfg.pages_per_block {
            if let PageState::Live(lpn) = self.state[first + page] {
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
            reclaim_erases: self.reclaim_erases,
            gc_erases: self.gc_erases,
            gc_relocations: self.gc_relocations,
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
        self.meta_reset();
        let cfg = self.array.config();
        for block in 0..cfg.blocks {
            if self.bad_blocks[block] {
                let first = block * cfg.pages_per_block;
                for slot in first..first + cfg.pages_per_block {
                    self.set_state(slot, PageState::Stale);
                }
            }
        }
        self.note_op();
        Ok(report)
    }

    /// Captures the controller's full serializable state: array state
    /// plus the FTL metadata (see [`ControllerSnapshot`]).
    ///
    /// Snapshots are only taken *between* operations, so there is no
    /// pending-program state to capture — batched writes flush inside
    /// one [`Self::write_batch`] call.
    #[must_use]
    pub fn snapshot(&self) -> ControllerSnapshot {
        ControllerSnapshot {
            array: self.array.snapshot_state(),
            meta: self.meta_checkpoint(),
        }
    }

    /// Encodes the current metadata as a checkpoint.
    #[must_use]
    #[allow(clippy::cast_possible_wrap)]
    fn meta_checkpoint(&self) -> MetaCheckpoint {
        let ppb = self.array.config().pages_per_block;
        MetaCheckpoint {
            map: self
                .map
                .iter()
                .map(|addr| addr.map_or(-1, |a| (a.block * ppb + a.page) as i64))
                .collect(),
            state: self.state.iter().map(|&s| state_code(s)).collect(),
            next_slot: self.next_slot as u64,
            next_lpn: self.next_lpn as u64,
            reclaim_erases: self.reclaim_erases,
            gc_erases: self.gc_erases,
            gc_relocations: self.gc_relocations,
            planes: self.scheduler.planes() as u64,
            bad_blocks: self.bad_blocks.clone(),
            spare_blocks: self.spare_blocks as u64,
            fault_tolerant: self.fault_tolerant,
            read_only: self.read_only,
            program_fails: self.program_fails,
        }
    }

    /// Captures everything that survives a power cut: the array medium
    /// plus the last metadata checkpoint and the deltas journaled since
    /// it. See [`CrashImage`].
    ///
    /// # Errors
    ///
    /// [`ArrayError::Snapshot`] when crash consistency was never
    /// enabled ([`Self::enable_crash_consistency`]).
    pub fn crash_image(&self) -> Result<CrashImage> {
        let journal = self.meta.as_ref().ok_or_else(|| {
            ArrayError::Snapshot("crash consistency is not enabled on this controller".into())
        })?;
        Ok(CrashImage {
            array: self.array.snapshot_state(),
            checkpoint: journal.checkpoint.clone(),
            deltas: journal.deltas.clone(),
            interval: journal.interval,
        })
    }

    /// Rebuilds a controller from a device blueprint and a snapshot —
    /// the inverse of [`Self::snapshot`]. The restored controller is
    /// digest-identical ([`Self::state_digest`]) to the snapshotted one
    /// and continues any workload bit-identically.
    ///
    /// # Errors
    ///
    /// [`ArrayError::Snapshot`] on shape mismatches or out-of-range
    /// encodings; array restore errors propagate.
    pub fn restore(
        blueprint: FloatingGateTransistor,
        snapshot: ControllerSnapshot,
    ) -> Result<Self> {
        let array = NandArray::restore_state(blueprint, snapshot.array)?;
        Self::finish_restore(array, &snapshot.meta)
    }

    /// Rebuilds a controller from a device backend and a snapshot — the
    /// backend-polymorphic sibling of [`Self::restore`]. GNR restores
    /// through this path are digest-identical to [`Self::restore`] over
    /// the same blueprint.
    ///
    /// # Errors
    ///
    /// As [`Self::restore`]; additionally
    /// [`ArrayError::UnsupportedBackend`] when a PCM backend is given a
    /// snapshot carrying floating-gate variation deltas.
    pub fn restore_backend(backend: &CellBackend, snapshot: ControllerSnapshot) -> Result<Self> {
        let array = NandArray::restore_state_backend(backend, snapshot.array)?;
        Self::finish_restore(array, &snapshot.meta)
    }

    fn finish_restore(array: NandArray, meta: &MetaCheckpoint) -> Result<Self> {
        let controller = Self::from_parts(array, meta)?;
        // The digest is a full-state fold — only pay for it when the
        // journal will actually keep the event.
        if gnr_telemetry::enabled() {
            gnr_telemetry::journal::record(gnr_telemetry::journal::EventKind::CheckpointRestore {
                digest: controller.state_digest(),
            });
        }
        Ok(controller)
    }

    /// Recovers a controller from a power-loss [`CrashImage`]: restores
    /// the array medium, applies the metadata checkpoint, replays the
    /// journaled deltas, and re-arms a fresh journal at the same
    /// cadence. The recovered controller is digest-identical to the one
    /// that lost power.
    ///
    /// # Errors
    ///
    /// [`ArrayError::Snapshot`] on shape mismatches or out-of-range
    /// encodings; array restore errors propagate.
    pub fn recover(blueprint: FloatingGateTransistor, image: &CrashImage) -> Result<Self> {
        let array = NandArray::restore_state(blueprint, image.array.clone())?;
        Self::finish_recover(array, image)
    }

    /// Backend-polymorphic sibling of [`Self::recover`].
    ///
    /// # Errors
    ///
    /// As [`Self::recover`]; additionally
    /// [`ArrayError::UnsupportedBackend`] when a PCM backend is given an
    /// image carrying floating-gate variation deltas.
    pub fn recover_backend(backend: &CellBackend, image: &CrashImage) -> Result<Self> {
        let array = NandArray::restore_state_backend(backend, image.array.clone())?;
        Self::finish_recover(array, image)
    }

    fn finish_recover(array: NandArray, image: &CrashImage) -> Result<Self> {
        let mut controller = Self::from_parts(array, &image.checkpoint)?;
        for delta in &image.deltas {
            controller.apply_delta(delta)?;
        }
        controller.meta = Some(MetaJournal {
            interval: image.interval.max(1),
            since_checkpoint: 0,
            checkpoint: controller.meta_checkpoint(),
            deltas: Vec::new(),
        });
        gnr_telemetry::counter_add!("ftl.recoveries", 1);
        gnr_telemetry::journal::record(gnr_telemetry::journal::EventKind::RecoveryReplay {
            deltas: image.deltas.len() as u64,
        });
        Ok(controller)
    }

    fn from_parts(array: NandArray, meta: &MetaCheckpoint) -> Result<Self> {
        let config = array.config();
        if config.blocks < 2 {
            return Err(ArrayError::Snapshot(
                "controller snapshots need >= 2 blocks".into(),
            ));
        }
        let pages = config.pages();
        let spare_blocks = usize::try_from(meta.spare_blocks)
            .ok()
            .filter(|&s| s + 2 <= config.blocks)
            .ok_or_else(|| ArrayError::Snapshot(format!("bad spare pool {}", meta.spare_blocks)))?;
        let logical = config.logical_pages() - spare_blocks * config.pages_per_block;
        if meta.map.len() != pages {
            return Err(ArrayError::Snapshot(format!(
                "map has {} entries, shape wants {pages}",
                meta.map.len()
            )));
        }
        if meta.state.len() != pages {
            return Err(ArrayError::Snapshot(format!(
                "state has {} entries, shape wants {pages}",
                meta.state.len()
            )));
        }
        if meta.bad_blocks.len() != config.blocks {
            return Err(ArrayError::Snapshot(format!(
                "bad-block table has {} entries, shape wants {}",
                meta.bad_blocks.len(),
                config.blocks
            )));
        }
        let ppb = config.pages_per_block;
        let map = meta
            .map
            .iter()
            .map(|&slot| match slot {
                -1 => Ok(None),
                s if s >= 0 && (s as usize) < pages => Ok(Some(PageAddress {
                    block: s as usize / ppb,
                    page: s as usize % ppb,
                })),
                s => Err(ArrayError::Snapshot(format!("bad map slot {s}"))),
            })
            .collect::<Result<Vec<Option<PageAddress>>>>()?;
        let state = meta
            .state
            .iter()
            .map(|&s| match s {
                -1 => Ok(PageState::Free),
                -2 => Ok(PageState::Stale),
                lpn if lpn >= 0 && (lpn as usize) < logical => Ok(PageState::Live(lpn as usize)),
                bad => Err(ArrayError::Snapshot(format!("bad page state {bad}"))),
            })
            .collect::<Result<Vec<PageState>>>()?;
        let cursor = |name: &str, v: u64, len: usize| -> Result<usize> {
            usize::try_from(v)
                .ok()
                .filter(|&c| c <= len)
                .ok_or_else(|| ArrayError::Snapshot(format!("bad cursor `{name}` = {v}")))
        };
        let planes = usize::try_from(meta.planes)
            .ok()
            .filter(|&p| p > 0)
            .ok_or_else(|| ArrayError::Snapshot(format!("bad plane count {}", meta.planes)))?;
        Ok(Self {
            array,
            map,
            state,
            next_slot: cursor("next_slot", meta.next_slot, pages)?,
            next_lpn: cursor("next_lpn", meta.next_lpn, logical)?,
            reclaim_erases: meta.reclaim_erases,
            gc_erases: meta.gc_erases,
            gc_relocations: meta.gc_relocations,
            scheduler: PlaneScheduler::new(planes),
            fault_tolerant: meta.fault_tolerant,
            bad_blocks: meta.bad_blocks.clone(),
            spare_blocks,
            read_only: meta.read_only,
            program_fails: meta.program_fails,
            meta: None,
        })
    }

    /// Replays one journaled delta onto the live metadata. Used only
    /// during recovery (the journal is not armed yet, so nothing is
    /// re-journaled).
    fn apply_delta(&mut self, delta: &MetaDelta) -> Result<()> {
        let cfg = self.array.config();
        let pages = cfg.pages();
        let logical = self.logical_capacity();
        let bad = |what: &str, v: i64| ArrayError::Snapshot(format!("bad delta {what} {v}"));
        match *delta {
            MetaDelta::MapSet { lpn, slot } => {
                let lpn = usize::try_from(lpn)
                    .ok()
                    .filter(|&l| l < logical)
                    .ok_or_else(|| ArrayError::Snapshot(format!("bad delta lpn {lpn}")))?;
                self.map[lpn] = match slot {
                    -1 => None,
                    s if s >= 0 && (s as usize) < pages => Some(PageAddress {
                        block: s as usize / cfg.pages_per_block,
                        page: s as usize % cfg.pages_per_block,
                    }),
                    s => return Err(bad("map slot", s)),
                };
            }
            MetaDelta::StateSet { slot, code } => {
                let slot = usize::try_from(slot)
                    .ok()
                    .filter(|&s| s < pages)
                    .ok_or_else(|| ArrayError::Snapshot(format!("bad delta slot {slot}")))?;
                self.state[slot] = match code {
                    -1 => PageState::Free,
                    -2 => PageState::Stale,
                    lpn if lpn >= 0 && (lpn as usize) < logical => PageState::Live(lpn as usize),
                    c => return Err(bad("state code", c)),
                };
            }
            MetaDelta::NextSlot { value } => {
                self.next_slot = usize::try_from(value)
                    .ok()
                    .filter(|&c| c <= pages)
                    .ok_or_else(|| ArrayError::Snapshot(format!("bad delta cursor {value}")))?;
            }
            MetaDelta::NextLpn { value } => {
                self.next_lpn = usize::try_from(value)
                    .ok()
                    .filter(|&c| c <= logical)
                    .ok_or_else(|| ArrayError::Snapshot(format!("bad delta cursor {value}")))?;
            }
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
            MetaDelta::BlockRetired { block } => {
                let block = usize::try_from(block)
                    .ok()
                    .filter(|&b| b < cfg.blocks)
                    .ok_or_else(|| ArrayError::Snapshot(format!("bad delta block {block}")))?;
                self.bad_blocks[block] = true;
            }
            MetaDelta::ReadOnly => self.read_only = true,
            MetaDelta::MetaReset => {
                self.map.fill(None);
                self.state.fill(PageState::Free);
                self.next_slot = 0;
            }
        }
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
        for addr in &self.map {
            let slot: i64 = addr.map_or(-1, |a| (a.block * ppb + a.page) as i64);
            h = fnv1a_fold_bytes(h, &slot.to_le_bytes());
        }
        for &s in &self.state {
            h = fnv1a_fold_bytes(h, &state_code(s).to_le_bytes());
        }
        for v in [
            self.next_slot as u64,
            self.next_lpn as u64,
            self.reclaim_erases,
            self.gc_erases,
            self.gc_relocations,
            self.program_fails,
            self.spare_blocks as u64,
        ] {
            h = fnv1a_fold_bytes(h, &v.to_le_bytes());
        }
        h = fnv1a_fold_bytes(
            h,
            &[u8::from(self.fault_tolerant), u8::from(self.read_only)],
        );
        for &b in &self.bad_blocks {
            h = fnv1a_fold_bytes(h, &[u8::from(b)]);
        }
        h
    }

    /// The physical address of logical page `lpn`'s live copy, if any.
    #[must_use]
    pub fn physical_of(&self, lpn: usize) -> Option<PageAddress> {
        self.map.get(lpn).copied().flatten()
    }

    /// Every logical page with a live copy, ascending — the scan order
    /// of background scrubbing.
    #[must_use]
    pub fn live_logical_pages(&self) -> Vec<usize> {
        self.map
            .iter()
            .enumerate()
            .filter_map(|(l, addr)| addr.map(|_| l))
            .collect()
    }

    /// Live pages currently mapped.
    #[must_use]
    pub fn live_pages(&self) -> usize {
        self.state
            .iter()
            .filter(|s| matches!(s, PageState::Live(_)))
            .count()
    }

    fn slot(&self, addr: PageAddress) -> usize {
        addr.block * self.array.config().pages_per_block + addr.page
    }

    // ---- journaled metadata mutation helpers -------------------------
    //
    // Every mutation of the volatile metadata goes through these, so the
    // crash-consistency delta log is complete by construction. All
    // deltas carry absolute values (idempotent replay).

    #[allow(clippy::cast_possible_wrap)]
    fn set_map(&mut self, lpn: usize, addr: Option<PageAddress>) {
        let ppb = self.array.config().pages_per_block;
        self.map[lpn] = addr;
        if let Some(journal) = self.meta.as_mut() {
            journal.deltas.push(MetaDelta::MapSet {
                lpn: lpn as u64,
                slot: addr.map_or(-1, |a| (a.block * ppb + a.page) as i64),
            });
        }
    }

    fn set_state(&mut self, slot: usize, s: PageState) {
        self.state[slot] = s;
        if let Some(journal) = self.meta.as_mut() {
            journal.deltas.push(MetaDelta::StateSet {
                slot: slot as u64,
                code: state_code(s),
            });
        }
    }

    fn set_next_slot(&mut self, value: usize) {
        self.next_slot = value;
        if let Some(journal) = self.meta.as_mut() {
            journal.deltas.push(MetaDelta::NextSlot {
                value: value as u64,
            });
        }
    }

    fn set_next_lpn(&mut self, value: usize) {
        self.next_lpn = value;
        if let Some(journal) = self.meta.as_mut() {
            journal.deltas.push(MetaDelta::NextLpn {
                value: value as u64,
            });
        }
    }

    fn journal_counters(&mut self) {
        let delta = MetaDelta::Counters {
            reclaim_erases: self.reclaim_erases,
            gc_erases: self.gc_erases,
            gc_relocations: self.gc_relocations,
            program_fails: self.program_fails,
        };
        if let Some(journal) = self.meta.as_mut() {
            journal.deltas.push(delta);
        }
    }

    fn mark_retired(&mut self, block: usize) {
        self.bad_blocks[block] = true;
        if let Some(journal) = self.meta.as_mut() {
            journal.deltas.push(MetaDelta::BlockRetired {
                block: block as u64,
            });
        }
    }

    fn enter_read_only(&mut self) {
        if self.read_only {
            return;
        }
        self.read_only = true;
        gnr_telemetry::counter_add!("ftl.read_only_entries", 1);
        if let Some(journal) = self.meta.as_mut() {
            journal.deltas.push(MetaDelta::ReadOnly);
        }
    }

    fn meta_reset(&mut self) {
        self.map.fill(None);
        self.state.fill(PageState::Free);
        self.next_slot = 0;
        if let Some(journal) = self.meta.as_mut() {
            journal.deltas.push(MetaDelta::MetaReset);
        }
    }

    fn note_program_fail(&mut self, addr: PageAddress) {
        self.program_fails += 1;
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
        let due = match self.meta.as_mut() {
            Some(journal) => {
                journal.since_checkpoint += 1;
                journal.since_checkpoint >= journal.interval
            }
            None => false,
        };
        if due {
            let checkpoint = self.meta_checkpoint();
            if let Some(journal) = self.meta.as_mut() {
                journal.checkpoint = checkpoint;
                journal.deltas.clear();
                journal.since_checkpoint = 0;
            }
            gnr_telemetry::counter_add!("ftl.meta_checkpoints", 1);
        }
    }

    // ---- allocation, reclaim and garbage collection ------------------

    /// Finds a free page, reclaiming or garbage-collecting when none is
    /// left. Advances the round-robin scan pointer on success. In
    /// fault-tolerant mode, blocks whose erase reports a grown-bad
    /// status are retired and the search continues.
    fn allocate(&mut self) -> Result<PageAddress> {
        if self.read_only {
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
                        self.reclaim_erases += 1;
                        self.journal_counters();
                        gnr_telemetry::counter_add!("ftl.reclaims", 1);
                        gnr_telemetry::journal::record(
                            gnr_telemetry::journal::EventKind::Reclaim {
                                block: block as u64,
                            },
                        );
                        self.free_block_state(block);
                    }
                    Err(ArrayError::BlockRetired { .. }) if self.fault_tolerant => {
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
            let slot = (self.next_slot + off) % pages;
            if self.state[slot] == PageState::Free && !self.bad_blocks[slot / cfg.pages_per_block] {
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
                !self.bad_blocks[b]
                    && self.state[first..first + cfg.pages_per_block]
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
    /// Failure atomicity: a mid-GC device failure (erase or reprogram
    /// verify) can lose the affected survivors — their mappings are
    /// *cleared* before the error propagates, so no logical page is
    /// ever left pointing at a freed or reallocated physical page; the
    /// loss is visible as a read miss, never as aliased data. In
    /// fault-tolerant mode nothing is lost at all: a grown-bad erase or
    /// a dried-out reprogram retires the victim and places the
    /// survivors on healthy blocks instead.
    fn collect_garbage(&mut self) -> Result<()> {
        let _zone = gnr_telemetry::zone!("ftl.gc");
        let cfg = self.array.config();
        let victim = (0..cfg.blocks)
            .filter_map(|b| {
                if self.bad_blocks[b] {
                    return None; // retired — never a GC victim
                }
                let first = b * cfg.pages_per_block;
                let states = &self.state[first..first + cfg.pages_per_block];
                if states.contains(&PageState::Free) {
                    return None; // not fully written — not a GC victim
                }
                let live = states
                    .iter()
                    .filter(|s| matches!(s, PageState::Live(_)))
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
        for page in 0..cfg.pages_per_block {
            if let PageState::Live(lpn) = self.state[first + page] {
                survivors.push((lpn, self.array.read_page(victim, page)?));
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
            Err(ArrayError::BlockRetired { .. }) if self.fault_tolerant => {
                // The medium refused the erase, so the victim's cells —
                // and the buffered survivors' originals — are intact.
                // Retire the victim and place the survivors on healthy
                // blocks instead.
                return self.retire_and_relocate(victim, &survivors);
            }
            // On erase failure the buffered survivors are the only
            // copies and there is nowhere safe to put them: they
            // surface as read misses (mappings already cleared), never
            // as aliased data.
            Err(e) => return Err(e),
        }
        self.gc_erases += 1;
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
                        self.set_state(slot, PageState::Live(*lpn));
                        self.set_map(
                            *lpn,
                            Some(PageAddress {
                                block: victim,
                                page,
                            }),
                        );
                        self.gc_relocations += 1;
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
                        if self.fault_tolerant {
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
                if self.fault_tolerant {
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
            self.gc_relocations += 1;
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
                !matches!(self.state[slot], PageState::Live(_)),
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
        // Power-loss model: the crash image (medium + checkpoint +
        // journaled deltas) recovers digest-identical to the running
        // controller at any point, including mid-delta-window.
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
            let image = c.crash_image().unwrap();
            let recovered =
                FlashController::recover(FloatingGateTransistor::mlgnr_cnt_paper(), &image)
                    .unwrap();
            assert_eq!(
                recovered.state_digest(),
                c.state_digest(),
                "recovery diverged at step {step}"
            );
            assert_eq!(recovered.live_pages(), c.live_pages());
        }
        // The crash image itself round-trips through JSON.
        let image = c.crash_image().unwrap();
        let json = serde_json::to_string(&image).unwrap();
        let decoded: CrashImage = serde_json::from_str(&json).unwrap();
        let recovered =
            FlashController::recover(FloatingGateTransistor::mlgnr_cnt_paper(), &decoded).unwrap();
        assert_eq!(recovered.state_digest(), c.state_digest());
        // The delta log is bounded by the checkpoint cadence.
        assert!(c.crash_consistent());
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
