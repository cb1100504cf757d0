//! Program/erase operation subsystem: multi-plane parity, erase-verify
//! convergence, and the replayer's terminal-snapshot contract.
//!
//! The load-bearing property: multi-plane scheduled execution preserves
//! per-block command order and merges only distinct-block work, so any
//! plane count — and any batch executor — produces a **bit-identical**
//! final array (population columns and margins digest).

use gnr_flash::engine::BatchSimulator;
use gnr_flash_array::controller::FlashController;
use gnr_flash_array::margins::{self, state_digest};
use gnr_flash_array::nand::{NandArray, NandConfig};
use gnr_flash_array::pe::{EraseVerify, PeCommand, PlaneScheduler, SoftProgram};
use gnr_flash_array::population::{CellPopulation, PopulationVariation};
use gnr_flash_array::workload::{replay, PagePattern, ReplayOptions, WorkloadOp, WorkloadTrace};

const CONFIG: NandConfig = NandConfig {
    blocks: 4,
    pages_per_block: 2,
    page_width: 8,
};

/// A mixed trace that exercises rewrites (reclaim + GC), reads
/// (including same-block sequences) and explicit erases.
fn mixed_trace(capacity: usize) -> WorkloadTrace {
    let mut ops = Vec::new();
    for lpn in 0..capacity {
        ops.push(WorkloadOp::Write {
            lpn: Some(lpn),
            pattern: PagePattern::Seeded { seed: lpn as u64 },
        });
    }
    for round in 0..3 {
        for lpn in (0..capacity).step_by(2) {
            ops.push(WorkloadOp::Write {
                lpn: Some(lpn),
                pattern: PagePattern::Seeded {
                    seed: (round * capacity + lpn) as u64,
                },
            });
        }
        for lpn in 0..capacity {
            ops.push(WorkloadOp::Read { lpn });
        }
    }
    ops.push(WorkloadOp::EraseBlock { block: 0 });
    WorkloadTrace {
        name: "mixed_parity".into(),
        ops,
    }
}

#[test]
fn multi_plane_replay_is_bit_identical_to_single_plane_sequential() {
    let trace = mixed_trace(CONFIG.logical_pages());

    // Reference: one plane, sequential executor — the historical per-op
    // path with no concurrency anywhere.
    let mut reference =
        FlashController::over(NandArray::new(CONFIG).with_batch(BatchSimulator::sequential()));
    let ref_report = replay(&mut reference, &trace, &ReplayOptions::default()).unwrap();

    // Every plane count, parallel executor included, must match bitwise.
    for planes in [1, 2, 4] {
        let mut scheduled = FlashController::new(CONFIG).with_planes(planes);
        let report = replay(&mut scheduled, &trace, &ReplayOptions::default()).unwrap();

        assert_eq!(report.writes, ref_report.writes, "planes {planes}");
        assert_eq!(report.reads, ref_report.reads, "planes {planes}");
        assert_eq!(
            scheduled.array().population().snapshot(),
            reference.array().population().snapshot(),
            "population columns diverged at {planes} planes"
        );
        assert_eq!(
            state_digest(scheduled.array()),
            state_digest(reference.array()),
            "margins digest diverged at {planes} planes"
        );
        assert_eq!(
            margins::analyze(scheduled.array()).unwrap(),
            margins::analyze(reference.array()).unwrap(),
            "margin report diverged at {planes} planes"
        );
        assert_eq!(
            scheduled.wear_stats().unwrap(),
            reference.wear_stats().unwrap(),
            "wear accounting diverged at {planes} planes"
        );
        assert_eq!(
            scheduled.live_logical_pages(),
            reference.live_logical_pages()
        );
        for lpn in scheduled.live_logical_pages() {
            assert_eq!(scheduled.physical_of(lpn), reference.physical_of(lpn));
        }
    }
}

#[test]
fn scheduled_command_streams_match_per_command_execution() {
    // The raw scheduler layer: the same command stream executed through
    // four planes and through the plain per-command array API.
    let checker: Vec<bool> = (0..CONFIG.page_width).map(|i| i % 2 == 0).collect();
    let inverse: Vec<bool> = checker.iter().map(|b| !b).collect();
    let commands = vec![
        PeCommand::Program {
            block: 0,
            page: 0,
            bits: checker.clone(),
        },
        PeCommand::Program {
            block: 1,
            page: 0,
            bits: inverse.clone(),
        },
        PeCommand::Read { block: 0, page: 0 },
        PeCommand::Program {
            block: 2,
            page: 1,
            bits: checker.clone(),
        },
        PeCommand::Erase { block: 1 },
        PeCommand::Read { block: 2, page: 1 },
        PeCommand::Program {
            block: 3,
            page: 0,
            bits: inverse.clone(),
        },
    ];

    let mut scheduled_array = NandArray::new(CONFIG);
    let execution = PlaneScheduler::new(4).execute(&mut scheduled_array, commands.clone());
    execution.first_error().unwrap();

    let mut reference = NandArray::new(CONFIG).with_batch(BatchSimulator::sequential());
    for cmd in commands {
        match cmd {
            PeCommand::Program { block, page, bits } => {
                reference.program_page(block, page, &bits).unwrap();
            }
            PeCommand::Erase { block } => reference.erase_block(block).unwrap(),
            PeCommand::Read { block, page } => {
                reference.read_page(block, page).unwrap();
            }
        }
    }
    scheduled_array.settle();
    reference.settle();
    assert_eq!(
        scheduled_array.population().snapshot(),
        reference.population().snapshot()
    );
    assert_eq!(state_digest(&scheduled_array), state_digest(&reference));
}

#[test]
fn erase_verify_with_soft_program_narrows_the_erased_distribution() {
    // A varied population spreads both the programmed and the erased
    // placement; erase-verify + soft-program must end strictly narrower
    // than the raw block erase on the same starting state.
    let variation = PopulationVariation {
        seed: 0x5eed_9ea5,
        ..PopulationVariation::default()
    };
    let build = || {
        let pop = CellPopulation::with_variation(
            gnr_flash::device::FloatingGateTransistor::mlgnr_cnt_paper(),
            CONFIG.cells(),
            &variation,
        )
        .unwrap();
        let mut array =
            NandArray::with_population(CONFIG, pop).with_batch(BatchSimulator::sequential());
        // Program every page of block 1 so the erase sees programmed and
        // (elsewhere in the block's pages) both bit polarities.
        for page in 0..CONFIG.pages_per_block {
            let bits: Vec<bool> = (0..CONFIG.page_width)
                .map(|i| (i + page) % 3 == 0)
                .collect();
            array.program_page(1, page, &bits).unwrap();
        }
        array
    };

    let erased_width = |array: &NandArray| {
        let column = array.population().vt_shift_column(array.batch());
        let base = CONFIG.pages_per_block * CONFIG.page_width;
        let block: &[f64] = &column[base..2 * base];
        let lo = block.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = block.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        hi - lo
    };

    let mut raw = build();
    raw.erase_block(1).unwrap();
    let raw_width = erased_width(&raw);

    let mut verified = build();
    let report = verified
        .erase_block_verified(1, &EraseVerify::nominal(), Some(&SoftProgram::nominal()))
        .unwrap();
    let verified_width = erased_width(&verified);

    assert!(report.erase_pulses >= 1);
    assert!(report.soft_programmed_cells > 0, "{report:?}");
    assert!(
        report.width_after_soft < report.width_before_soft,
        "soft-program must compact the collective-pulse tail: {report:?}"
    );
    assert!(
        verified_width < raw_width,
        "erase-verify + soft-program width {verified_width:.3} V must be strictly \
         narrower than raw block-erase width {raw_width:.3} V"
    );
    // Every cell of the block sits in the compacted window.
    let column = verified.population().vt_shift_column(verified.batch());
    let base = CONFIG.pages_per_block * CONFIG.page_width;
    for (i, &vt) in column[base..2 * base].iter().enumerate() {
        assert!(vt <= 0.3 + 1e-12, "cell {i} above erase target: {vt}");
        assert!(vt >= -0.5 - 1e-12, "cell {i} below soft floor: {vt}");
    }
    // The verified erase is a real erase: pages are writable again.
    let bits = vec![false; CONFIG.page_width];
    verified.program_page(1, 0, &bits).unwrap();
}

#[test]
fn replayer_records_exactly_one_terminal_snapshot() {
    // Op count not a multiple of the cadence: the final state must be
    // recorded (the historical replayer variant dropped or duplicated
    // it depending on alignment).
    let mut controller = FlashController::new(CONFIG);
    let capacity = controller.logical_capacity();
    let trace = WorkloadTrace::gc_churn(3, capacity, 11); // capacity + 3 ops
    let options = ReplayOptions {
        snapshot_interval: 4,
        margin_scan: false,
    };
    let report = replay(&mut controller, &trace, &options).unwrap();
    let indices: Vec<usize> = report.snapshots.iter().map(|s| s.op_index).collect();
    assert_eq!(*indices.last().unwrap(), trace.ops.len());
    let mut deduped = indices.clone();
    deduped.dedup();
    assert_eq!(indices, deduped, "no duplicate snapshot points");

    // Aligned op count: the cadence snapshot *is* the terminal one.
    let mut controller = FlashController::new(CONFIG);
    let trace = WorkloadTrace::sequential_fill(8, PagePattern::AllProgrammed);
    let report = replay(&mut controller, &trace, &options).unwrap();
    let indices: Vec<usize> = report.snapshots.iter().map(|s| s.op_index).collect();
    assert_eq!(indices, vec![4, 8]);
}
