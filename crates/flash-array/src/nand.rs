//! NAND organisation: strings of cells grouped into pages and blocks.
//!
//! FN programming is what makes NAND dense and parallel (§II of the
//! paper: "it requires very small programming current (< 1nA) per cell
//! thus allowing many cells to be programmed at a time"). This module
//! implements page-granularity programming with ISPP, block-granularity
//! erase, program-inhibit bias on unselected pages and the associated
//! disturb accounting, deferred through a
//! disturb ledger ([`crate::disturb`]) until something observes the cells.
//!
//! The cell state lives in a struct-of-arrays [`CellPopulation`]: flat
//! per-cell columns sharing one device blueprint, so the array scales to
//! millions of cells (64×64×256 and beyond) in memory proportional to
//! per-cell *state*. [`NandArray::cell`] materialises an owning
//! [`FlashCell`] view of one cell for analyses.
//!
//! Bit convention: `true` = erased = logic '1'; `false` = programmed =
//! logic '0' (matching the paper's state naming).

use gnr_flash::backend::CellBackend;
use gnr_flash::device::FloatingGateTransistor;
use gnr_flash::engine::BatchSimulator;
use gnr_flash::threshold::LogicState;
use gnr_numerics::hash::{fnv1a_fold_bytes, fnv1a_fold_f64, FNV1A_OFFSET};
use gnr_units::{Charge, Voltage};

use crate::cell::FlashCell;
use crate::disturb::{DisturbBias, DisturbLedger};
use crate::fault::FaultPlan;
use crate::ispp::{IsppEraser, IsppProgrammer};
use crate::pe::operation::{erase_verify_cells, BlockEraseReport, EraseVerify, SoftProgram};
use crate::population::{CellPopulation, PopulationSnapshot};
use crate::{ArrayError, Result};

/// Shape of a NAND array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NandConfig {
    /// Number of erase blocks.
    pub blocks: usize,
    /// Pages per block (wordlines).
    pub pages_per_block: usize,
    /// Cells per page (bitlines).
    pub page_width: usize,
}

impl NandConfig {
    /// Total cells in the array.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.blocks * self.pages_per_block * self.page_width
    }

    /// Total pages in the array.
    #[must_use]
    pub fn pages(&self) -> usize {
        self.blocks * self.pages_per_block
    }

    /// Logical pages a controller exposes over this shape: the physical
    /// page count less one block of over-provisioning (GC headroom) —
    /// the single home of that policy. A single-block shape has no
    /// over-provisioning to give and reports zero (the controller
    /// rejects such shapes up front rather than deadlocking later).
    #[must_use]
    pub fn logical_pages(&self) -> usize {
        self.blocks.saturating_sub(1) * self.pages_per_block
    }
}

impl Default for NandConfig {
    fn default() -> Self {
        Self {
            blocks: 4,
            pages_per_block: 4,
            page_width: 16,
        }
    }
}

/// Serializable full state of a [`NandArray`]: the shape, the per-cell
/// state columns, and the page/block bookkeeping. The disturb bias,
/// ISPP programmer/eraser and batch executor are non-configurable
/// nominals — [`NandArray::restore_state`] re-creates them exactly as
/// [`NandArray::with_population`] would, so a restored array behaves
/// bit-identically to the one that was snapshotted.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ArraySnapshot {
    /// The array shape.
    pub config: NandConfig,
    /// The per-cell state columns.
    pub population: PopulationSnapshot,
    /// Per-page erased flags, indexed `block * pages_per_block + page`.
    pub page_erased: Vec<bool>,
    /// Per-block erase counters.
    pub erase_count: Vec<u64>,
}

/// A NAND array of MLGNR-CNT cells over struct-of-arrays state.
#[derive(Debug, Clone)]
pub struct NandArray {
    config: NandConfig,
    pop: CellPopulation,
    /// Per-page erased flags, indexed `block * pages_per_block + page`.
    page_erased: Vec<bool>,
    /// Per-block erase counters (wear metric).
    erase_count: Vec<u64>,
    bias: DisturbBias,
    /// Pass-voltage exposures not yet replayed into the cells.
    ledger: DisturbLedger,
    programmer: IsppProgrammer,
    eraser: IsppEraser,
    batch: BatchSimulator,
    /// Injected fault schedule (None = fault-free). Not part of array
    /// snapshots: the plan is configuration, like the device backend,
    /// and is re-armed by whoever rebuilds the array.
    faults: Option<FaultPlan>,
}

impl NandArray {
    /// Builds an array of fresh paper cells.
    ///
    /// # Panics
    ///
    /// Panics if any dimension of `config` is zero.
    #[must_use]
    pub fn new(config: NandConfig) -> Self {
        Self::with_population(config, CellPopulation::paper(checked_cells(config)))
    }

    /// Builds an array of fresh cells of an arbitrary device backend
    /// (GNR-FG, CNT-FG, PCM) — the whole page/block machinery above is
    /// backend-agnostic, so ISPP programming, block erase, disturb and
    /// epoch jumps all work unchanged.
    ///
    /// # Panics
    ///
    /// Panics if any dimension of `config` is zero.
    #[must_use]
    pub fn with_backend(config: NandConfig, backend: &CellBackend) -> Self {
        Self::with_population(
            config,
            CellPopulation::uniform_backend(backend, checked_cells(config)),
        )
    }

    /// Builds an array over an explicit population (e.g. one carrying
    /// per-cell process-variation deltas).
    ///
    /// # Panics
    ///
    /// Panics if any dimension of `config` is zero or the population
    /// size does not match the array shape.
    #[must_use]
    pub fn with_population(config: NandConfig, pop: CellPopulation) -> Self {
        let cells = checked_cells(config);
        assert_eq!(
            pop.len(),
            cells,
            "population size must match the array shape"
        );
        Self {
            config,
            pop,
            page_erased: vec![true; config.pages()],
            erase_count: vec![0; config.blocks],
            bias: DisturbBias::default(),
            ledger: DisturbLedger::new(config.blocks, config.pages_per_block),
            programmer: IsppProgrammer::nominal(),
            eraser: IsppEraser::nominal(),
            batch: BatchSimulator::new(),
            faults: None,
        }
    }

    /// Installs (or clears) an injected fault schedule. Fault decisions
    /// are pure functions of the plan and local persistent state, so
    /// arming the same plan on a rebuilt array resumes the same fault
    /// behaviour.
    #[must_use]
    pub fn with_faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan;
        self
    }

    /// Replaces the injected fault schedule in place.
    pub fn set_faults(&mut self, plan: Option<FaultPlan>) {
        self.faults = plan;
    }

    /// The armed fault schedule, if any.
    #[must_use]
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The array shape.
    #[must_use]
    pub fn config(&self) -> NandConfig {
        self.config
    }

    /// Replaces the batch executor (e.g. [`BatchSimulator::sequential`]
    /// for parity testing or single-core profiling baselines).
    #[must_use]
    pub fn with_batch(mut self, batch: BatchSimulator) -> Self {
        self.batch = batch;
        self
    }

    /// The batch executor driving page programs and block erases.
    #[must_use]
    pub fn batch(&self) -> &BatchSimulator {
        &self.batch
    }

    /// The struct-of-arrays cell state (margin scans, wear analyses).
    ///
    /// # Panics
    ///
    /// Panics unless the array is settled ([`Self::is_settled`]): page
    /// reads and programs leave pass-voltage disturb pending on the
    /// rest of their block, so the raw columns are stale until
    /// [`Self::settle`] replays it.
    #[must_use]
    pub fn population(&self) -> &CellPopulation {
        assert!(
            self.is_settled(),
            "NandArray::population on an unsettled array: call settle() first"
        );
        &self.pop
    }

    /// Mutable cell-state access — the seam reliability models use to
    /// evolve the *analog* state between operations (retention bake,
    /// synthetic wear fluence). Settles the array first. Page
    /// bookkeeping (erased flags, wear counters) is untouched: callers
    /// model charge motion, not page lifecycle.
    pub fn population_mut(&mut self) -> &mut CellPopulation {
        self.settle();
        &mut self.pop
    }

    /// Settles every page: replays the pass-voltage disturb exposures
    /// each page owes into its cells, in order, and clears the logs.
    /// Call it before reading [`Self::population`]. The result is the
    /// same whenever it is called — settling changes when the disturb
    /// physics is evaluated, never its outcome — so the `&self` views
    /// ([`Self::state_digest`], [`Self::snapshot_state`], [`Self::cell`])
    /// read the same before and after it.
    pub fn settle(&mut self) {
        for block in 0..self.config.blocks {
            self.settle_block(block);
        }
    }

    /// `true` when no page owes a disturb exposure.
    #[must_use]
    pub fn is_settled(&self) -> bool {
        self.ledger.is_clear()
    }

    /// Disturb exposures logged against `block` since it was last
    /// settled. Never exceeds [`Self::disturb_log_bound`].
    ///
    /// # Panics
    ///
    /// Panics for a bad block index.
    #[must_use]
    pub fn disturb_log_len(&self, block: usize) -> usize {
        self.ledger.log_len(block)
    }

    /// The log length at which a block is settled whole: a fixed
    /// multiple of `pages_per_block`.
    #[must_use]
    pub fn disturb_log_bound(&self) -> usize {
        self.ledger.bound()
    }

    /// Captures the array's full serializable state (see
    /// [`ArraySnapshot`]), settled: the copied charge column takes every
    /// pending disturb exposure, so the snapshot restores to an array
    /// that owes nothing. The array itself is untouched.
    #[must_use]
    pub fn snapshot_state(&self) -> ArraySnapshot {
        let mut population = self.pop.snapshot();
        let width = self.config.page_width;
        for block in 0..self.config.blocks {
            for page in 0..self.config.pages_per_block {
                let base = self.cell_index(block, page, 0);
                let charges = &mut population.charge[base..base + width];
                self.replay_pending_into(block, page, base, charges);
            }
        }
        ArraySnapshot {
            config: self.config,
            population,
            page_erased: self.page_erased.clone(),
            erase_count: self.erase_count.clone(),
        }
    }

    /// FNV-1a digest of the array's settled state: the charge column
    /// (settled page by page into a scratch copy, the array untouched),
    /// the wear columns, the per-block erase counts and the page flags.
    /// Equal before and after [`Self::settle`].
    #[must_use]
    pub fn state_digest(&self) -> u64 {
        let mut h = FNV1A_OFFSET;
        let width = self.config.page_width;
        let mut scratch = vec![0.0; width];
        for block in 0..self.config.blocks {
            for page in 0..self.config.pages_per_block {
                let base = self.cell_index(block, page, 0);
                scratch.copy_from_slice(&self.pop.charge_column()[base..base + width]);
                self.replay_pending_into(block, page, base, &mut scratch);
                for &q in &scratch {
                    h = fnv1a_fold_f64(h, q);
                }
            }
        }
        for &w in self.pop.injected_charge_column() {
            h = fnv1a_fold_f64(h, w);
        }
        for &ops in self.pop.program_ops_column() {
            h = fnv1a_fold_bytes(h, &ops.to_le_bytes());
        }
        for &ops in self.pop.erase_ops_column() {
            h = fnv1a_fold_bytes(h, &ops.to_le_bytes());
        }
        for &e in &self.erase_count {
            h = fnv1a_fold_bytes(h, &e.to_le_bytes());
        }
        for &erased in &self.page_erased {
            h = fnv1a_fold_bytes(h, &[u8::from(erased)]);
        }
        h
    }

    /// Rebuilds an array from a device blueprint and a snapshot — the
    /// inverse of [`Self::snapshot_state`]. The population's variant
    /// table is re-derived from the delta columns; bias, programmer,
    /// eraser and batch executor come back as the nominals
    /// [`Self::with_population`] installs.
    ///
    /// # Errors
    ///
    /// [`ArrayError::Snapshot`] when the bookkeeping columns disagree
    /// with the shape; population restore errors propagate.
    pub fn restore_state(
        blueprint: FloatingGateTransistor,
        snapshot: ArraySnapshot,
    ) -> Result<Self> {
        let pop = CellPopulation::restore(blueprint, snapshot.population)?;
        Self::finish_restore(
            snapshot.config,
            pop,
            snapshot.page_erased,
            snapshot.erase_count,
        )
    }

    /// Rebuilds an array from a device backend and a snapshot — the
    /// backend-polymorphic sibling of [`Self::restore_state`]. GNR
    /// restores through this path are bit-identical to
    /// [`Self::restore_state`] over the same blueprint.
    ///
    /// # Errors
    ///
    /// As [`Self::restore_state`]; additionally
    /// [`ArrayError::UnsupportedBackend`] when a PCM backend is given a
    /// snapshot carrying floating-gate variation deltas.
    pub fn restore_state_backend(backend: &CellBackend, snapshot: ArraySnapshot) -> Result<Self> {
        let pop = CellPopulation::restore_backend(backend, snapshot.population)?;
        Self::finish_restore(
            snapshot.config,
            pop,
            snapshot.page_erased,
            snapshot.erase_count,
        )
    }

    fn finish_restore(
        config: NandConfig,
        pop: CellPopulation,
        page_erased: Vec<bool>,
        erase_count: Vec<u64>,
    ) -> Result<Self> {
        if pop.len() != config.cells() {
            return Err(ArrayError::Snapshot(format!(
                "population has {} cells, shape wants {}",
                pop.len(),
                config.cells()
            )));
        }
        if page_erased.len() != config.pages() {
            return Err(ArrayError::Snapshot(format!(
                "page_erased has {} entries, shape wants {}",
                page_erased.len(),
                config.pages()
            )));
        }
        if erase_count.len() != config.blocks {
            return Err(ArrayError::Snapshot(format!(
                "erase_count has {} entries, shape wants {}",
                erase_count.len(),
                config.blocks
            )));
        }
        let mut array = Self::with_population(config, pop);
        array.page_erased = page_erased;
        array.erase_count = erase_count;
        Ok(array)
    }

    /// Jumps every cell of the array through `cycles` composed P/E
    /// cycles of `recipe` (see
    /// [`CellPopulation::run_epoch`](crate::population::CellPopulation::run_epoch))
    /// and applies the closed-form page bookkeeping: the recipe ends
    /// with its erase rungs, so after the jump every page is erased and
    /// every block's erase counter has advanced by `cycles`. Any data
    /// the array held is gone — epoch jumps model cycling burn-in
    /// between workload windows, not in-place ageing of live data.
    ///
    /// # Errors
    ///
    /// Device errors from the composed cycles propagate.
    pub fn run_epoch(
        &mut self,
        recipe: &gnr_flash::engine::CycleRecipe,
        cycles: u64,
    ) -> Result<crate::population::EpochReport> {
        self.settle();
        let indices: Vec<usize> = (0..self.pop.len()).collect();
        let report = self.pop.run_epoch(&indices, &self.batch, recipe, cycles)?;
        self.page_erased.fill(true);
        for count in &mut self.erase_count {
            *count += cycles;
        }
        Ok(report)
    }

    /// Erase count of a block (wear metric).
    ///
    /// # Errors
    ///
    /// [`ArrayError::AddressOutOfRange`] for a bad block index.
    pub fn erase_count(&self, block: usize) -> Result<u64> {
        self.erase_count
            .get(block)
            .copied()
            .ok_or(ArrayError::AddressOutOfRange {
                kind: "block",
                index: block,
                len: self.config.blocks,
            })
    }

    /// `true` when the page has not been written since its last erase.
    ///
    /// # Errors
    ///
    /// [`ArrayError::AddressOutOfRange`] for bad indices.
    pub fn is_page_erased(&self, block: usize, page: usize) -> Result<bool> {
        Ok(self.page_erased[self.page_slot(block, page)?])
    }

    /// Programs a page: cells with `false` bits are ISPP-programmed,
    /// `true` bits are left erased (program-inhibited). The page is
    /// settled first; the pass-voltage exposure the *other* pages of the
    /// block receive is logged, and each of them takes it when it is
    /// next settled.
    ///
    /// # Errors
    ///
    /// [`ArrayError::WrongPageWidth`], [`ArrayError::PageNotErased`],
    /// address errors, and ISPP verify failures.
    pub fn program_page(&mut self, block: usize, page: usize, bits: &[bool]) -> Result<()> {
        if bits.len() != self.config.page_width {
            return Err(ArrayError::WrongPageWidth {
                got: bits.len(),
                expected: self.config.page_width,
            });
        }
        let slot = self.page_slot(block, page)?;
        if !self.page_erased[slot] {
            return Err(ArrayError::PageNotErased { block, page });
        }
        // FN programming "allows many cells to be programmed at a time"
        // (§II): the selected cells of the page fan out through the batch
        // engine, one full ISPP ladder per distinct cell state. The first
        // failure (if any) is reported after the whole page ran.
        let base = self.cell_index(block, page, 0);
        let selected: Vec<usize> = bits
            .iter()
            .enumerate()
            .filter_map(|(c, &bit)| (!bit).then_some(base + c))
            .collect();
        self.settle_page(block, page);
        let programmer = self.programmer;
        let batch = self.batch.clone();
        let reports = self.pop.program_cells(&programmer, &selected, &batch);
        // Pulses were applied whether or not every verify passed: the
        // page is no longer erased, and the unselected pages of the
        // block saw their pass-voltage exposure. Record both before
        // propagating the first error.
        self.page_erased[slot] = false;
        self.log_exposure(block, page, true);
        for report in reports {
            report?;
        }
        // Injected program-status failure: the pulses landed (the page
        // is consumed, disturb happened) but the device reports fail —
        // keyed on the block's erase generation so the decision is
        // replay-order-independent.
        if self
            .faults
            .as_ref()
            .is_some_and(|p| p.program_fails(block, page, self.erase_count[block]))
        {
            return Err(ArrayError::ProgramFailed { block, page });
        }
        Ok(())
    }

    /// Reads a page, settled first; the read-disturb exposure the
    /// unselected pages of the block receive is logged like a
    /// program's (see [`Self::program_page`]).
    ///
    /// # Errors
    ///
    /// Address errors.
    pub fn read_page(&mut self, block: usize, page: usize) -> Result<Vec<bool>> {
        self.page_slot(block, page)?;
        self.settle_page(block, page);
        let base = self.cell_index(block, page, 0);
        let mut bits = (base..base + self.config.page_width)
            .map(|i| Ok(self.pop.read(i)? == LogicState::Erased1))
            .collect::<Result<Vec<bool>>>()?;
        self.corrupt_read(block, base, &mut bits);
        self.log_exposure(block, page, false);
        Ok(bits)
    }

    /// Applies injected stuck-at and soft-flip faults to one page's
    /// sensed bits (no-op without an armed plan).
    fn corrupt_read(&self, block: usize, base: usize, bits: &mut [bool]) {
        if let Some(plan) = &self.faults {
            let generation = self.erase_count[block];
            for (k, bit) in bits.iter_mut().enumerate() {
                *bit = plan.corrupt_read_bit(base + k, generation, *bit);
            }
        }
    }

    /// Erases a whole block (the only erase granularity NAND offers).
    ///
    /// # Errors
    ///
    /// Address errors and ISPP verify failures.
    pub fn erase_block(&mut self, block: usize) -> Result<()> {
        if block >= self.config.blocks {
            return Err(ArrayError::AddressOutOfRange {
                kind: "block",
                index: block,
                len: self.config.blocks,
            });
        }
        self.settle_block(block);
        // Injected grown-bad block: the erase is attempted (the wear
        // counter advances) but the device reports a failed status and
        // the cells keep their state — the data stays readable so the
        // FTL can relocate it out of the dying block.
        if self
            .faults
            .as_ref()
            .is_some_and(|p| p.block_goes_bad(block, self.erase_count[block] + 1))
        {
            self.erase_count[block] += 1;
            return Err(ArrayError::BlockRetired { block });
        }
        // Block erase hits every cell of the block at once — one erase
        // transient (or ISPP ladder) per distinct cell state, fanned out
        // in parallel.
        let base = self.cell_index(block, 0, 0);
        let indices: Vec<usize> =
            (base..base + self.config.pages_per_block * self.config.page_width).collect();
        let eraser = self.eraser;
        let batch = self.batch.clone();
        let results =
            self.pop
                .erase_block_cells(&eraser, Voltage::from_volts(0.3), &indices, &batch);
        // The erase stress hit every cell of the block whether or not
        // every ladder verified, so the wear counter advances before any
        // error propagates; `page_erased` stays false on failure, which
        // forces a retry before the pages can be programmed again.
        self.erase_count[block] += 1;
        for result in results {
            result?;
        }
        let first = block * self.config.pages_per_block;
        self.page_erased[first..first + self.config.pages_per_block].fill(true);
        Ok(())
    }

    /// Programs several pages **on distinct blocks** as one merged
    /// submission: the selected cells of every page fan out through the
    /// batch engine together (one grouped run per distinct cell state
    /// across the whole round), then each block logs its pass-voltage
    /// disturb exposure. Per-job results are index-aligned with `jobs`.
    ///
    /// Because the pages sit on distinct blocks they touch disjoint
    /// cells, so the merged execution is bit-identical to calling
    /// [`Self::program_page`] per job in any order — the multi-plane
    /// scheduler's round primitive.
    ///
    /// # Panics
    ///
    /// Panics when two jobs target the same block (same-block ordering
    /// is the scheduler's responsibility; merging same-block work would
    /// silently reorder disturb).
    pub fn program_pages_multi(&mut self, jobs: &[(usize, usize, &[bool])]) -> Vec<Result<()>> {
        assert_distinct_blocks(jobs.iter().map(|&(b, ..)| b));
        let width = self.config.page_width;
        let mut results: Vec<Option<Result<()>>> = Vec::with_capacity(jobs.len());
        // Validate first; only valid jobs join the merged submission.
        let mut selected: Vec<usize> = Vec::new();
        let mut spans: Vec<Option<(usize, usize)>> = Vec::with_capacity(jobs.len());
        for &(block, page, bits) in jobs {
            if bits.len() != width {
                results.push(Some(Err(ArrayError::WrongPageWidth {
                    got: bits.len(),
                    expected: width,
                })));
                spans.push(None);
                continue;
            }
            match self.page_slot(block, page) {
                Err(e) => {
                    results.push(Some(Err(e)));
                    spans.push(None);
                    continue;
                }
                Ok(slot) if !self.page_erased[slot] => {
                    results.push(Some(Err(ArrayError::PageNotErased { block, page })));
                    spans.push(None);
                    continue;
                }
                Ok(_) => {}
            }
            self.settle_page(block, page);
            let base = self.cell_index(block, page, 0);
            let start = selected.len();
            selected.extend(
                bits.iter()
                    .enumerate()
                    .filter_map(|(c, &bit)| (!bit).then_some(base + c)),
            );
            spans.push(Some((start, selected.len())));
            results.push(None);
        }
        let programmer = self.programmer;
        let batch = self.batch.clone();
        let reports = self.pop.program_cells(&programmer, &selected, &batch);
        for (j, &(block, page, _)) in jobs.iter().enumerate() {
            let Some((start, end)) = spans[j] else {
                continue;
            };
            let slot = self.page_slot(block, page).expect("validated above");
            self.page_erased[slot] = false;
            self.log_exposure(block, page, true);
            let mut outcome = Ok(());
            for report in &reports[start..end] {
                if let Err(e) = report {
                    outcome = Err(e.clone());
                    break;
                }
            }
            // Same injected program-status check as the per-op path —
            // merged rounds must stay bit-identical to sequential calls.
            if outcome.is_ok()
                && self
                    .faults
                    .as_ref()
                    .is_some_and(|p| p.program_fails(block, page, self.erase_count[block]))
            {
                outcome = Err(ArrayError::ProgramFailed { block, page });
            }
            results[j] = Some(outcome);
        }
        results
            .into_iter()
            .map(|r| r.expect("every job was validated or executed"))
            .collect()
    }

    /// Reads several pages **on distinct blocks**: the bit computation
    /// fans out per plane queue (one queue per page) through
    /// [`BatchSimulator::scatter_queues`], then each block logs its
    /// read-disturb exposure. Results are index-aligned with `pages`.
    ///
    /// # Panics
    ///
    /// Panics when two pages share a block (see
    /// [`Self::program_pages_multi`]).
    pub fn read_pages_multi(&mut self, pages: &[(usize, usize)]) -> Vec<Result<Vec<bool>>> {
        assert_distinct_blocks(pages.iter().map(|&(b, _)| b));
        let width = self.config.page_width;
        let mut results: Vec<Option<Result<Vec<bool>>>> = Vec::with_capacity(pages.len());
        let mut queues: Vec<Vec<usize>> = Vec::new();
        let mut valid: Vec<usize> = Vec::new();
        for (j, &(block, page)) in pages.iter().enumerate() {
            match self.page_slot(block, page) {
                Err(e) => results.push(Some(Err(e))),
                Ok(_) => {
                    self.settle_page(block, page);
                    let base = self.cell_index(block, page, 0);
                    queues.push((base..base + width).collect());
                    valid.push(j);
                    results.push(None);
                }
            }
        }
        let pop = &self.pop;
        let bits: Vec<Vec<Result<bool>>> = self
            .batch
            .scatter_queues(queues, |_, i| Ok(pop.read(i)? == LogicState::Erased1));
        for (page_bits, &j) in bits.into_iter().zip(&valid) {
            let (block, page) = pages[j];
            self.log_exposure(block, page, false);
            let mut sensed = page_bits.into_iter().collect::<Result<Vec<bool>>>();
            if let Ok(bits) = &mut sensed {
                self.corrupt_read(block, self.cell_index(block, page, 0), bits);
            }
            results[j] = Some(sensed);
        }
        results
            .into_iter()
            .map(|r| r.expect("every page was validated or read"))
            .collect()
    }

    /// Erases several **distinct** blocks as one merged submission (one
    /// grouped erase run per distinct cell state across all of them).
    /// Per-block results are index-aligned with `blocks`; wear counters
    /// advance and page flags reset exactly as per-block
    /// [`Self::erase_block`] calls would.
    ///
    /// # Panics
    ///
    /// Panics on duplicate block indices.
    pub fn erase_blocks_multi(&mut self, blocks: &[usize]) -> Vec<Result<()>> {
        assert_distinct_blocks(blocks.iter().copied());
        let block_cells = self.config.pages_per_block * self.config.page_width;
        let mut results: Vec<Option<Result<()>>> = Vec::with_capacity(blocks.len());
        let mut indices: Vec<usize> = Vec::new();
        let mut spans: Vec<Option<(usize, usize)>> = Vec::with_capacity(blocks.len());
        for &block in blocks {
            if block >= self.config.blocks {
                results.push(Some(Err(ArrayError::AddressOutOfRange {
                    kind: "block",
                    index: block,
                    len: self.config.blocks,
                })));
                spans.push(None);
                continue;
            }
            self.settle_block(block);
            // Injected grown-bad block: attempted (wear advances) but
            // skipped from the merged submission — the per-op ordering
            // of `erase_block` exactly.
            if self
                .faults
                .as_ref()
                .is_some_and(|p| p.block_goes_bad(block, self.erase_count[block] + 1))
            {
                self.erase_count[block] += 1;
                results.push(Some(Err(ArrayError::BlockRetired { block })));
                spans.push(None);
                continue;
            }
            let base = self.cell_index(block, 0, 0);
            let start = indices.len();
            indices.extend(base..base + block_cells);
            spans.push(Some((start, indices.len())));
            results.push(None);
        }
        let eraser = self.eraser;
        let batch = self.batch.clone();
        let cell_results =
            self.pop
                .erase_block_cells(&eraser, Voltage::from_volts(0.3), &indices, &batch);
        for (j, &block) in blocks.iter().enumerate() {
            let Some((start, end)) = spans[j] else {
                continue;
            };
            self.erase_count[block] += 1;
            let mut outcome = Ok(());
            for r in &cell_results[start..end] {
                if let Err(e) = r {
                    outcome = Err(e.clone());
                    break;
                }
            }
            if outcome.is_ok() {
                let first = block * self.config.pages_per_block;
                self.page_erased[first..first + self.config.pages_per_block].fill(true);
            }
            results[j] = Some(outcome);
        }
        results
            .into_iter()
            .map(|r| r.expect("every block was validated or erased"))
            .collect()
    }

    /// Erases a block through the closed-loop erase-verify operation
    /// (collective pulses until every cell verifies erased) followed by
    /// optional soft-program compaction of the over-erased tail — the
    /// paper's erase analysis made operational. Wear accounting matches
    /// [`Self::erase_block`]: the counter advances whether or not the
    /// loop converged; page flags reset only on success.
    ///
    /// # Errors
    ///
    /// Address errors, [`ArrayError::VerifyFailed`] on a non-converging
    /// loop, and device errors.
    pub fn erase_block_verified(
        &mut self,
        block: usize,
        spec: &EraseVerify,
        soft: Option<&SoftProgram>,
    ) -> Result<BlockEraseReport> {
        if block >= self.config.blocks {
            return Err(ArrayError::AddressOutOfRange {
                kind: "block",
                index: block,
                len: self.config.blocks,
            });
        }
        self.settle_block(block);
        if self
            .faults
            .as_ref()
            .is_some_and(|p| p.block_goes_bad(block, self.erase_count[block] + 1))
        {
            self.erase_count[block] += 1;
            return Err(ArrayError::BlockRetired { block });
        }
        let base = self.cell_index(block, 0, 0);
        let indices: Vec<usize> =
            (base..base + self.config.pages_per_block * self.config.page_width).collect();
        let batch = self.batch.clone();
        self.erase_count[block] += 1;
        let report = erase_verify_cells(&mut self.pop, &indices, &batch, spec, soft)?;
        let first = block * self.config.pages_per_block;
        self.page_erased[first..first + self.config.pages_per_block].fill(true);
        Ok(report)
    }

    /// Materialises one cell as an owning [`FlashCell`] for analyses
    /// (threshold maps, disturb margins), with its settled charge; the
    /// array is untouched. Clones the shared device — bulk scans should
    /// use [`Self::population`] instead.
    ///
    /// # Errors
    ///
    /// Address errors.
    pub fn cell(&self, block: usize, page: usize, column: usize) -> Result<FlashCell> {
        self.page_slot(block, page)?;
        if column >= self.config.page_width {
            return Err(ArrayError::AddressOutOfRange {
                kind: "column",
                index: column,
                len: self.config.page_width,
            });
        }
        let i = self.cell_index(block, page, column);
        let mut cell = self.pop.cell(i)?;
        let mut charge = [cell.charge().as_coulombs()];
        self.replay_pending_into(block, page, i, &mut charge);
        cell.set_charge(Charge::from_coulombs(charge[0]));
        Ok(cell)
    }

    /// Flat population index of a cell address.
    #[must_use]
    pub fn cell_index(&self, block: usize, page: usize, column: usize) -> usize {
        (block * self.config.pages_per_block + page) * self.config.page_width + column
    }

    /// Logs the exposure a read or program of `page` gives the rest of
    /// `block`, and settles the block whole once its log reaches the
    /// bound.
    fn log_exposure(&mut self, block: usize, page: usize, program: bool) {
        gnr_telemetry::counter_add!("disturb.events", 1);
        if self.ledger.record(block, page, program) {
            self.settle_block(block);
        }
    }

    /// Replays the exposures one page owes into its cells.
    fn settle_page(&mut self, block: usize, page: usize) {
        let _zone = gnr_telemetry::zone!("nand.disturb_settle");
        self.replay_page(block, page);
    }

    /// Replays every exposure `block` logged into its pages, then clears
    /// the log.
    fn settle_block(&mut self, block: usize) {
        if self.ledger.log_len(block) == 0 {
            return;
        }
        let _zone = gnr_telemetry::zone!("nand.disturb_settle");
        for page in 0..self.config.pages_per_block {
            self.replay_page(block, page);
        }
        self.ledger.clear(block);
    }

    fn replay_page(&mut self, block: usize, page: usize) {
        let base = self.cell_index(block, page, 0);
        let cells = base..base + self.config.page_width;
        let replays = self
            .pop
            .replay_disturb(cells, self.ledger.pending(block, page, &self.bias));
        if replays > 0 {
            gnr_telemetry::counter_add!("disturb.page_settles", 1);
            gnr_telemetry::counter_add!("disturb.replays", replays);
        }
        self.ledger.mark_settled(block, page);
    }

    /// Replays the exposures `page` of `block` owes onto `charges`, a
    /// copy of the charges of cells `first..` of that page, leaving the
    /// array untouched.
    fn replay_pending_into(&self, block: usize, page: usize, first: usize, charges: &mut [f64]) {
        let pending = self.ledger.pending(block, page, &self.bias);
        self.pop.replay_disturb_into(first, charges, pending);
    }

    fn page_slot(&self, block: usize, page: usize) -> Result<usize> {
        if block >= self.config.blocks {
            return Err(ArrayError::AddressOutOfRange {
                kind: "block",
                index: block,
                len: self.config.blocks,
            });
        }
        if page >= self.config.pages_per_block {
            return Err(ArrayError::AddressOutOfRange {
                kind: "page",
                index: page,
                len: self.config.pages_per_block,
            });
        }
        Ok(block * self.config.pages_per_block + page)
    }
}

/// Multi-op contract check: merged rounds commute only across blocks.
fn assert_distinct_blocks(blocks: impl Iterator<Item = usize>) {
    let mut seen = std::collections::HashSet::new();
    for b in blocks {
        assert!(
            seen.insert(b),
            "multi-plane round targets block {b} twice: same-block commands must stay sequential"
        );
    }
}

fn checked_cells(config: NandConfig) -> usize {
    assert!(
        config.blocks > 0 && config.pages_per_block > 0 && config.page_width > 0,
        "array dimensions must be positive"
    );
    config.cells()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NandArray {
        NandArray::new(NandConfig {
            blocks: 2,
            pages_per_block: 2,
            page_width: 4,
        })
    }

    #[test]
    fn fresh_array_reads_all_ones() {
        let mut a = tiny();
        assert_eq!(a.read_page(0, 0).unwrap(), vec![true; 4]);
    }

    #[test]
    fn program_and_read_back_pattern() {
        let mut a = tiny();
        let pattern = vec![true, false, false, true];
        a.program_page(0, 0, &pattern).unwrap();
        assert_eq!(a.read_page(0, 0).unwrap(), pattern);
        // The other page of the block is untouched.
        assert_eq!(a.read_page(0, 1).unwrap(), vec![true; 4]);
    }

    #[test]
    fn erase_before_write_enforced() {
        let mut a = tiny();
        a.program_page(0, 0, &[false, false, false, false]).unwrap();
        let err = a.program_page(0, 0, &[true, true, true, true]).unwrap_err();
        assert!(matches!(err, ArrayError::PageNotErased { .. }));
        a.erase_block(0).unwrap();
        assert_eq!(a.read_page(0, 0).unwrap(), vec![true; 4]);
        a.program_page(0, 0, &[true, true, false, true]).unwrap();
    }

    #[test]
    fn erase_counts_track_wear() {
        let mut a = tiny();
        assert_eq!(a.erase_count(0).unwrap(), 0);
        a.erase_block(0).unwrap();
        a.erase_block(0).unwrap();
        assert_eq!(a.erase_count(0).unwrap(), 2);
        assert_eq!(a.erase_count(1).unwrap(), 0);
    }

    #[test]
    fn wrong_page_width_rejected() {
        let mut a = tiny();
        let err = a.program_page(0, 0, &[true]).unwrap_err();
        assert!(matches!(err, ArrayError::WrongPageWidth { .. }));
    }

    #[test]
    fn bad_addresses_rejected() {
        let mut a = tiny();
        assert!(a.read_page(5, 0).is_err());
        assert!(a.read_page(0, 9).is_err());
        assert!(a.cell(0, 0, 99).is_err());
        assert!(a.erase_block(7).is_err());
    }

    #[test]
    fn disturb_does_not_flip_neighbours() {
        let mut a = tiny();
        a.program_page(0, 0, &[false; 4]).unwrap();
        // Hammer page 0 with reads; page 1 cells accumulate read disturb
        // but must still read erased.
        for _ in 0..200 {
            let _ = a.read_page(0, 0).unwrap();
        }
        assert_eq!(a.read_page(0, 1).unwrap(), vec![true; 4]);
    }

    #[test]
    fn population_state_is_shared_not_cloned() {
        let a = NandArray::new(NandConfig {
            blocks: 4,
            pages_per_block: 8,
            page_width: 32,
        });
        assert_eq!(a.population().len(), 4 * 8 * 32);
        assert_eq!(a.population().variant_count(), 1);
    }

    #[test]
    fn cell_view_matches_population_row() {
        let mut a = tiny();
        a.program_page(0, 0, &[false; 4]).unwrap();
        let view = a.cell(0, 0, 2).unwrap();
        a.settle();
        let i = a.cell_index(0, 0, 2);
        assert_eq!(
            view.charge().as_coulombs(),
            a.population().charge(i).unwrap().as_coulombs()
        );
        assert_eq!(view.stats(), a.population().stats(i).unwrap());
    }
}
