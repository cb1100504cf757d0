//! Batch/sequential parity: the batched engine must be *bit-identical*
//! to the sequential path, at every level of the stack.
//!
//! The engine guarantees this by construction — immutable shared `J(E)`
//! tables, per-run integration state, order-preserving fan-out — and
//! these tests pin the guarantee end to end: spec batches against
//! `TransientSimulator`, a full 4×4×16 NAND page-program/block-erase
//! against the same array driven sequentially, and a controller churn
//! whose digest must not depend on the worker count.

use gnr_flash::device::FloatingGateTransistor;
use gnr_flash::engine::BatchSimulator;
use gnr_flash::transient::{ProgramPulseSpec, TransientSimulator};
use gnr_flash_array::controller::FlashController;
use gnr_flash_array::nand::{NandArray, NandConfig};
use gnr_flash_array::workload::{replay, ReplayOptions, WorkloadTrace};
use gnr_units::{Charge, Time, Voltage};

fn mixed_specs() -> Vec<ProgramPulseSpec> {
    let mut specs: Vec<ProgramPulseSpec> = (0..8)
        .map(|i| ProgramPulseSpec::program(Voltage::from_volts(13.0 + 0.5 * f64::from(i))))
        .collect();
    // Fixed-duration pulses and erases exercise both run() branches.
    specs.push(
        ProgramPulseSpec::program(Voltage::from_volts(15.0))
            .with_duration(Time::from_microseconds(100.0)),
    );
    specs.push(ProgramPulseSpec::erase(
        Voltage::from_volts(-15.0),
        Charge::from_electrons(-120.0),
    ));
    specs
}

#[test]
fn batched_specs_are_bit_identical_to_sequential_transient_runs() {
    let device = FloatingGateTransistor::mlgnr_cnt_paper();
    let specs = mixed_specs();

    let batched = BatchSimulator::new().run(&device, &specs);
    let simulator = TransientSimulator::new(&device);

    assert_eq!(batched.len(), specs.len());
    for (spec, batch_result) in specs.iter().zip(&batched) {
        let sequential = simulator.run(spec).expect("sequential run");
        let batched = batch_result.as_ref().expect("batched run");
        // Bit-identical: every sample of the trace, not just summaries.
        assert_eq!(
            batched.samples(),
            sequential.samples(),
            "trace diverged for {spec:?}"
        );
        assert_eq!(batched.saturation_time(), sequential.saturation_time());
        assert_eq!(
            batched.charge_at_saturation(),
            sequential.charge_at_saturation()
        );
        assert_eq!(batched.accepted_steps(), sequential.accepted_steps());
        assert_eq!(batched.rhs_evaluations(), sequential.rhs_evaluations());
    }
}

fn checkerboard(width: usize) -> Vec<bool> {
    (0..width).map(|i| i % 2 == 0).collect()
}

#[test]
fn nand_page_program_parallel_matches_sequential_exactly() {
    let config = NandConfig {
        blocks: 4,
        pages_per_block: 4,
        page_width: 16,
    };
    let pattern = checkerboard(config.page_width);

    let mut parallel = NandArray::new(config);
    let mut sequential = NandArray::new(config).with_batch(BatchSimulator::sequential());

    parallel
        .program_page(1, 2, &pattern)
        .expect("parallel program");
    sequential
        .program_page(1, 2, &pattern)
        .expect("sequential program");

    for block in 0..config.blocks {
        for page in 0..config.pages_per_block {
            for column in 0..config.page_width {
                let p = parallel.cell(block, page, column).unwrap();
                let s = sequential.cell(block, page, column).unwrap();
                assert_eq!(
                    p.charge().as_coulombs(),
                    s.charge().as_coulombs(),
                    "cell ({block},{page},{column}) charge diverged"
                );
                assert_eq!(p.read(), s.read());
            }
        }
    }
    assert_eq!(parallel.read_page(1, 2).unwrap(), pattern);
}

#[test]
fn nand_block_erase_parallel_matches_sequential_exactly() {
    let config = NandConfig {
        blocks: 2,
        pages_per_block: 2,
        page_width: 16,
    };
    let pattern = checkerboard(config.page_width);

    let mut parallel = NandArray::new(config);
    let mut sequential = NandArray::new(config).with_batch(BatchSimulator::sequential());
    for array in [&mut parallel, &mut sequential] {
        array.program_page(0, 0, &pattern).expect("program");
        array.program_page(0, 1, &pattern).expect("program");
    }

    parallel.erase_block(0).expect("parallel erase");
    sequential.erase_block(0).expect("sequential erase");

    for page in 0..config.pages_per_block {
        for column in 0..config.page_width {
            let p = parallel.cell(0, page, column).unwrap();
            let s = sequential.cell(0, page, column).unwrap();
            assert_eq!(
                p.charge().as_coulombs(),
                s.charge().as_coulombs(),
                "cell (0,{page},{column}) charge diverged after erase"
            );
        }
    }
    // Reads go last: read_page disturbs the unselected pages, which
    // would break the cell-by-cell comparison above.
    for page in 0..config.pages_per_block {
        assert_eq!(
            parallel.read_page(0, page).unwrap(),
            vec![true; config.page_width]
        );
    }
    assert_eq!(
        parallel.erase_count(0).unwrap(),
        sequential.erase_count(0).unwrap()
    );
}

/// A full-array program/erase cycle followed by a short GC churn on a
/// 4×4×16 controller driven by `batch`; returns the controller digest.
fn churn_digest(batch: BatchSimulator) -> u64 {
    let config = NandConfig {
        blocks: 4,
        pages_per_block: 4,
        page_width: 16,
    };
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
    replay(
        &mut controller,
        &WorkloadTrace::gc_churn(8, capacity, 0xbead),
        &options,
        &mut (),
    )
    .expect("gc churn replays");
    controller.state_digest()
}

/// Worker count may move wall clock, never state: the parallel executor
/// under 1-, 2-, 4- and 8-worker pools lands on the sequential digest.
/// Pools larger than the host's core count still run (OS threads
/// oversubscribe), so the interleavings are real on any host.
///
/// The shim's `install` swaps a process-wide worker count, so the whole
/// matrix stays in this one test, and no test in this binary asserts a
/// worker count.
#[test]
fn churn_digest_is_invariant_under_worker_count() {
    let want = churn_digest(BatchSimulator::sequential());
    for workers in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .expect("pool builds");
        let got = pool.install(|| churn_digest(BatchSimulator::new()));
        assert_eq!(got, want, "churn digest diverged under {workers} workers");
    }
}
