//! Multi-plane command scheduling.
//!
//! Blocks are partitioned into planes by `block % planes` (the classic
//! NAND channel interleave). Queued commands execute in rounds: each
//! round pops at most one command per plane — necessarily on distinct
//! blocks — and merges the round's page programs, block erases and page
//! reads into single grouped submissions through the array's multi-op
//! primitives, so the batch engine fans the whole round out at once.
//!
//! # Ordering model
//!
//! Two invariants define the schedule:
//!
//! 1. **Per-block order is inviolate.** Commands touching the same block
//!    execute in issue order — disturb accumulation and page lifecycle
//!    depend on it. Since a block maps to exactly one plane, the
//!    per-plane FIFO enforces this naturally.
//! 2. **Reads have priority** (program-suspend-for-read): within a
//!    plane, a queued read jumps ahead of earlier program/erase commands
//!    *of other blocks*. It never crosses a command on its own block
//!    (which would change what it reads and the disturb it deals).
//!
//! Commands on distinct blocks touch disjoint cells and deterministic
//! physics, so they commute: any schedule obeying invariant 1 produces a
//! bit-identical final array state, whatever the plane count. That is
//! the parity property `tests/pe_scheduler.rs` pins.

use std::collections::VecDeque;

use crate::nand::NandArray;
use crate::{ArrayError, Result};

/// One physical command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeCommand {
    /// Program a page with explicit bits (`false` = programmed '0').
    Program {
        /// Block index.
        block: usize,
        /// Page index within the block.
        page: usize,
        /// Page contents.
        bits: Vec<bool>,
    },
    /// Erase a block.
    Erase {
        /// Block index.
        block: usize,
    },
    /// Read a page.
    Read {
        /// Block index.
        block: usize,
        /// Page index within the block.
        page: usize,
    },
}

impl PeCommand {
    /// The block the command targets.
    #[must_use]
    pub fn block(&self) -> usize {
        match *self {
            Self::Program { block, .. } | Self::Erase { block } | Self::Read { block, .. } => block,
        }
    }

    fn is_read(&self) -> bool {
        matches!(self, Self::Read { .. })
    }
}

/// Per-command outcome of a scheduled execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandOutcome {
    /// Page programmed and verified.
    Programmed,
    /// Block erased.
    Erased,
    /// Page read; the bits.
    Read(Vec<bool>),
}

/// What a scheduled execution did.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaneExecution {
    /// Scheduling rounds executed (≤ the longest plane queue).
    pub rounds: usize,
    /// Per-command results, index-aligned with the submitted commands.
    pub results: Vec<Result<CommandOutcome>>,
    /// Reads that jumped ahead of at least one queued program/erase on
    /// another block of their plane (the suspend-for-read events).
    pub reads_hoisted: usize,
}

impl PlaneExecution {
    /// The first error among the per-command results, if any.
    ///
    /// # Errors
    ///
    /// Clones out the first per-command failure.
    pub fn first_error(&self) -> Result<()> {
        for r in &self.results {
            if let Err(e) = r {
                return Err(e.clone());
            }
        }
        Ok(())
    }
}

/// The multi-plane scheduler. Cheap to copy; holds only the plane count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub struct PlaneScheduler {
    planes: usize,
}

impl Default for PlaneScheduler {
    /// A single plane: strictly sequential execution.
    fn default() -> Self {
        Self::new(1)
    }
}

impl PlaneScheduler {
    /// Creates a scheduler over `planes` planes.
    ///
    /// # Panics
    ///
    /// Panics when `planes` is zero.
    #[must_use]
    pub fn new(planes: usize) -> Self {
        assert!(planes > 0, "need at least one plane");
        Self { planes }
    }

    /// The plane count.
    #[must_use]
    pub fn planes(&self) -> usize {
        self.planes
    }

    /// The plane a block belongs to.
    #[must_use]
    pub fn plane_of(&self, block: usize) -> usize {
        block % self.planes
    }

    /// Executes a command stream against an array.
    ///
    /// State is applied command by command exactly as the per-command
    /// array API would (failures stay per-command: a verify failure on
    /// one page does not stop the round, matching
    /// [`NandArray::program_page`] semantics where pulses land whether or
    /// not every verify passes).
    #[must_use]
    pub fn execute(&self, array: &mut NandArray, commands: Vec<PeCommand>) -> PlaneExecution {
        let _zone = gnr_telemetry::zone!("scheduler.execute");
        gnr_telemetry::counter_add!("scheduler.executions", 1);
        gnr_telemetry::counter_add!("scheduler.commands", commands.len() as u64);
        let mut queues: Vec<VecDeque<(usize, PeCommand)>> = vec![VecDeque::new(); self.planes];
        let blocks = array.config().blocks;
        let mut results: Vec<Option<Result<CommandOutcome>>> = Vec::new();
        for (idx, cmd) in commands.into_iter().enumerate() {
            results.push(None);
            if cmd.block() >= blocks {
                results[idx] = Some(Err(ArrayError::AddressOutOfRange {
                    kind: "block",
                    index: cmd.block(),
                    len: blocks,
                }));
                continue;
            }
            queues[self.plane_of(cmd.block())].push_back((idx, cmd));
        }

        // Per-plane count of queued reads: the hoist scan only runs on
        // queues that still hold one, so pure write/erase streams (the
        // write_batch common case) pop the front in O(1).
        let mut pending_reads: Vec<usize> = queues
            .iter()
            .map(|q| q.iter().filter(|(_, c)| c.is_read()).count())
            .collect();
        let mut rounds = 0;
        let mut reads_hoisted = 0;
        while queues.iter().any(|q| !q.is_empty()) {
            rounds += 1;
            // Pop one command per plane: the earliest read that has no
            // earlier same-block command (suspend-for-read), else the
            // queue front. Distinct planes ⇒ distinct blocks, so the
            // round's commands commute and can be merged per kind.
            let mut programs: Vec<(usize, usize, usize, Vec<bool>)> = Vec::new();
            let mut erases: Vec<(usize, usize)> = Vec::new();
            let mut reads: Vec<(usize, usize, usize)> = Vec::new();
            for (queue, reads_left) in queues.iter_mut().zip(&mut pending_reads) {
                let Some(pick) = Self::pick(queue, *reads_left) else {
                    continue;
                };
                let (hoisted, (idx, cmd)) = pick;
                if cmd.is_read() {
                    *reads_left -= 1;
                }
                if hoisted {
                    reads_hoisted += 1;
                }
                match cmd {
                    PeCommand::Program { block, page, bits } => {
                        programs.push((idx, block, page, bits));
                    }
                    PeCommand::Erase { block } => erases.push((idx, block)),
                    PeCommand::Read { block, page } => reads.push((idx, block, page)),
                }
            }
            gnr_telemetry::histogram_record!(
                "scheduler.round_commands",
                (programs.len() + erases.len() + reads.len()) as u64
            );
            // Reads run first within the round — the priority the
            // hoisting already established; order across kinds cannot
            // change any outcome (disjoint blocks), only the latency
            // story the counters tell.
            if !reads.is_empty() {
                let pages: Vec<(usize, usize)> = reads.iter().map(|&(_, b, p)| (b, p)).collect();
                for (outcome, &(idx, ..)) in array.read_pages_multi(&pages).into_iter().zip(&reads)
                {
                    results[idx] = Some(outcome.map(CommandOutcome::Read));
                }
            }
            if !programs.is_empty() {
                let jobs: Vec<(usize, usize, &[bool])> = programs
                    .iter()
                    .map(|(_, b, p, bits)| (*b, *p, bits.as_slice()))
                    .collect();
                for (outcome, (idx, ..)) in
                    array.program_pages_multi(&jobs).into_iter().zip(&programs)
                {
                    results[*idx] = Some(outcome.map(|()| CommandOutcome::Programmed));
                }
            }
            if !erases.is_empty() {
                let blocks: Vec<usize> = erases.iter().map(|&(_, b)| b).collect();
                for (outcome, &(idx, _)) in
                    array.erase_blocks_multi(&blocks).into_iter().zip(&erases)
                {
                    results[idx] = Some(outcome.map(|()| CommandOutcome::Erased));
                }
            }
        }

        gnr_telemetry::counter_add!("scheduler.rounds", rounds as u64);
        gnr_telemetry::counter_add!("scheduler.reads_hoisted", reads_hoisted as u64);
        PlaneExecution {
            rounds,
            results: results
                .into_iter()
                .map(|r| r.expect("every command was executed or rejected"))
                .collect(),
            reads_hoisted,
        }
    }

    /// Pops the plane's next command: the earliest read not blocked by
    /// an earlier same-block command, else the front. A blocked read
    /// does not end the scan — a later read on an unobstructed block is
    /// still hoistable. `reads_left` is the caller-tracked count of
    /// reads still queued: zero skips the scan entirely (pure
    /// program/erase streams pop in O(1)). Returns whether the pick was
    /// a hoisted read.
    fn pick(
        queue: &mut VecDeque<(usize, PeCommand)>,
        reads_left: usize,
    ) -> Option<(bool, (usize, PeCommand))> {
        if reads_left == 0 {
            return queue.pop_front().map(|cmd| (false, cmd));
        }
        if queue.is_empty() {
            return None;
        }
        let mut chosen = 0;
        for pos in 0..queue.len() {
            let (_, cmd) = &queue[pos];
            if cmd.is_read() {
                let block = cmd.block();
                if !queue.iter().take(pos).any(|(_, c)| c.block() == block) {
                    chosen = pos;
                    break;
                }
            }
        }
        let hoisted = chosen > 0;
        Some((hoisted, queue.remove(chosen).expect("index in range")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nand::NandConfig;

    fn array() -> NandArray {
        NandArray::new(NandConfig {
            blocks: 4,
            pages_per_block: 2,
            page_width: 4,
        })
    }

    fn checker(phase: bool) -> Vec<bool> {
        (0..4).map(|i| (i % 2 == 0) != phase).collect()
    }

    #[test]
    fn scheduled_programs_land_and_read_back() {
        let mut a = array();
        let sched = PlaneScheduler::new(2);
        let exec = sched.execute(
            &mut a,
            vec![
                PeCommand::Program {
                    block: 0,
                    page: 0,
                    bits: checker(false),
                },
                PeCommand::Program {
                    block: 1,
                    page: 0,
                    bits: checker(true),
                },
                PeCommand::Read { block: 0, page: 0 },
                PeCommand::Read { block: 1, page: 0 },
            ],
        );
        assert_eq!(exec.results.len(), 4);
        assert_eq!(
            exec.results[2],
            Ok(CommandOutcome::Read(checker(false))),
            "{exec:?}"
        );
        assert_eq!(exec.results[3], Ok(CommandOutcome::Read(checker(true))));
        // Two planes, two commands per plane: two rounds.
        assert_eq!(exec.rounds, 2);
    }

    #[test]
    fn reads_hoist_past_other_blocks_programs_only() {
        let mut a = array();
        // Plane 0 owns blocks 0 and 2. The read of block 2 may jump the
        // program of block 0; the read of block 0 must wait for it.
        a.program_page(2, 0, &checker(false)).unwrap();
        let sched = PlaneScheduler::new(2);
        let exec = sched.execute(
            &mut a,
            vec![
                PeCommand::Program {
                    block: 0,
                    page: 0,
                    bits: checker(true),
                },
                PeCommand::Read { block: 2, page: 0 },
                PeCommand::Read { block: 0, page: 0 },
            ],
        );
        assert_eq!(exec.reads_hoisted, 1);
        assert_eq!(exec.results[1], Ok(CommandOutcome::Read(checker(false))));
        // The same-block read still sees the program's data.
        assert_eq!(exec.results[2], Ok(CommandOutcome::Read(checker(true))));
    }

    #[test]
    fn blocked_reads_do_not_shadow_later_hoistable_reads() {
        // Plane 0 queue: [Program b0, Read b0, Read b2]. The read of
        // block 0 is pinned behind its own block's program, but the
        // read of block 2 is unobstructed and must still jump the
        // program — a blocked read must not end the hoist scan.
        let mut a = array();
        a.program_page(2, 0, &checker(true)).unwrap();
        let sched = PlaneScheduler::new(2);
        let exec = sched.execute(
            &mut a,
            vec![
                PeCommand::Program {
                    block: 0,
                    page: 0,
                    bits: checker(false),
                },
                PeCommand::Read { block: 0, page: 0 },
                PeCommand::Read { block: 2, page: 0 },
            ],
        );
        assert_eq!(exec.reads_hoisted, 1);
        assert_eq!(exec.results[1], Ok(CommandOutcome::Read(checker(false))));
        assert_eq!(exec.results[2], Ok(CommandOutcome::Read(checker(true))));
    }

    #[test]
    fn per_command_failures_stay_local() {
        let mut a = array();
        a.program_page(1, 0, &checker(false)).unwrap();
        let sched = PlaneScheduler::new(4);
        let exec = sched.execute(
            &mut a,
            vec![
                // Not erased → rejected; the rest of the stream runs.
                PeCommand::Program {
                    block: 1,
                    page: 0,
                    bits: checker(true),
                },
                PeCommand::Program {
                    block: 2,
                    page: 0,
                    bits: checker(true),
                },
                PeCommand::Erase { block: 99 },
            ],
        );
        assert!(matches!(
            exec.results[0],
            Err(ArrayError::PageNotErased { .. })
        ));
        assert_eq!(exec.results[1], Ok(CommandOutcome::Programmed));
        assert!(matches!(
            exec.results[2],
            Err(ArrayError::AddressOutOfRange { .. })
        ));
        assert!(exec.first_error().is_err());
    }

    #[test]
    fn plane_partition_is_modular() {
        let sched = PlaneScheduler::new(3);
        assert_eq!(sched.plane_of(0), 0);
        assert_eq!(sched.plane_of(4), 1);
        assert_eq!(sched.plane_of(5), 2);
        assert_eq!(PlaneScheduler::default().planes(), 1);
    }
}
