//! Population/per-cell parity: the struct-of-arrays refactor must be
//! *bit-identical* to the historical cell-by-cell array.
//!
//! The reference path below is the pre-refactor implementation, kept
//! alive cell by cell: one owning `FlashCell` per array position, ISPP
//! ladders through `IsppProgrammer::program_batch`, block erase through
//! the same per-cell closure `NandArray::erase_block` used to run, and
//! sequential `apply_disturb` loops. Every charge, wear counter and read
//! decision must match the `CellPopulation`-backed array exactly on the
//! 4×4×16 reference shape — NAND page-program, block-erase and MLC
//! placement.

use gnr_flash::engine::BatchSimulator;
use gnr_flash_array::cell::FlashCell;
use gnr_flash_array::disturb::{apply_disturb, DisturbBias};
use gnr_flash_array::ispp::{IsppEraser, IsppProgrammer};
use gnr_flash_array::mlc::{self, MlcCell, MlcLevels, MlcState};
use gnr_flash_array::nand::{NandArray, NandConfig};
use gnr_flash_array::population::{CellPopulation, PopulationSnapshot, PopulationVariation};
use gnr_units::Voltage;
use proptest::prelude::*;

const CONFIG: NandConfig = NandConfig {
    blocks: 4,
    pages_per_block: 4,
    page_width: 16,
};

/// The pre-refactor array: one owning cell per position.
struct ReferenceArray {
    /// `pages[block][page][column]`.
    pages: Vec<Vec<Vec<FlashCell>>>,
    bias: DisturbBias,
    programmer: IsppProgrammer,
    eraser: IsppEraser,
    batch: BatchSimulator,
}

impl ReferenceArray {
    fn new(config: NandConfig) -> Self {
        Self {
            pages: (0..config.blocks)
                .map(|_| {
                    (0..config.pages_per_block)
                        .map(|_| {
                            (0..config.page_width)
                                .map(|_| FlashCell::paper_cell())
                                .collect()
                        })
                        .collect()
                })
                .collect(),
            bias: DisturbBias::default(),
            programmer: IsppProgrammer::nominal(),
            eraser: IsppEraser::nominal(),
            batch: BatchSimulator::new(),
        }
    }

    /// The historical `NandArray::program_page` body.
    fn program_page(&mut self, block: usize, page: usize, bits: &[bool]) {
        let b = &mut self.pages[block];
        let selected: Vec<&mut FlashCell> = b[page]
            .iter_mut()
            .zip(bits)
            .filter_map(|(cell, &bit)| (!bit).then_some(cell))
            .collect();
        let reports = self.programmer.program_batch(selected, &self.batch);
        for (p, cells) in b.iter_mut().enumerate() {
            if p == page {
                continue;
            }
            for cell in cells {
                apply_disturb(
                    cell,
                    self.bias.v_pass_program,
                    self.bias.program_exposure,
                    1,
                );
            }
        }
        for report in reports {
            report.expect("reference program");
        }
    }

    /// The historical `NandArray::read_page` body.
    fn read_page(&mut self, block: usize, page: usize) -> Vec<bool> {
        let b = &mut self.pages[block];
        let bits = b[page]
            .iter()
            .map(|c| c.read() == gnr_flash::threshold::LogicState::Erased1)
            .collect();
        for (p, cells) in b.iter_mut().enumerate() {
            if p == page {
                continue;
            }
            for cell in cells {
                apply_disturb(cell, self.bias.v_pass_read, self.bias.read_exposure, 1);
            }
        }
        bits
    }

    /// The historical `NandArray::erase_block` body.
    fn erase_block(&mut self, block: usize) {
        let eraser = self.eraser;
        let batch = self.batch.clone();
        let cells: Vec<&mut FlashCell> = self.pages[block].iter_mut().flatten().collect();
        let results = batch.scatter(cells, |cell| {
            let engine = batch.engine_for(cell.device());
            if !cell.verify_erase(Voltage::from_volts(0.3)) {
                eraser.erase_with(cell, &engine).map(|_| ())
            } else {
                cell.erase_default_with(&engine)
            }
        });
        for result in results {
            result.expect("reference erase");
        }
    }

    fn cell(&self, block: usize, page: usize, column: usize) -> &FlashCell {
        &self.pages[block][page][column]
    }
}

fn assert_arrays_identical(array: &NandArray, reference: &ReferenceArray, context: &str) {
    let cfg = array.config();
    for b in 0..cfg.blocks {
        for p in 0..cfg.pages_per_block {
            for c in 0..cfg.page_width {
                let soa = array.cell(b, p, c).unwrap();
                let old = reference.cell(b, p, c);
                assert_eq!(
                    soa.charge().as_coulombs().to_bits(),
                    old.charge().as_coulombs().to_bits(),
                    "{context}: charge diverged at ({b},{p},{c})"
                );
                assert_eq!(
                    soa.stats(),
                    old.stats(),
                    "{context}: wear stats diverged at ({b},{p},{c})"
                );
                assert_eq!(
                    soa.read(),
                    old.read(),
                    "{context}: read diverged at ({b},{p},{c})"
                );
            }
        }
    }
}

#[test]
fn page_program_is_bit_identical_to_per_cell_path() {
    let mut array = NandArray::new(CONFIG);
    let mut reference = ReferenceArray::new(CONFIG);

    let checkerboard: Vec<bool> = (0..CONFIG.page_width).map(|i| i % 2 == 0).collect();
    let stripes: Vec<bool> = (0..CONFIG.page_width).map(|i| (i / 4) % 2 == 0).collect();

    array.program_page(1, 2, &checkerboard).unwrap();
    reference.program_page(1, 2, &checkerboard);
    array.program_page(3, 0, &stripes).unwrap();
    reference.program_page(3, 0, &stripes);

    assert_arrays_identical(&array, &reference, "page program");
}

#[test]
fn reads_and_read_disturb_are_bit_identical() {
    let mut array = NandArray::new(CONFIG);
    let mut reference = ReferenceArray::new(CONFIG);
    let pattern: Vec<bool> = (0..CONFIG.page_width).map(|i| i % 3 == 0).collect();
    array.program_page(0, 1, &pattern).unwrap();
    reference.program_page(0, 1, &pattern);

    for _ in 0..50 {
        assert_eq!(array.read_page(0, 1).unwrap(), reference.read_page(0, 1));
    }
    assert_arrays_identical(&array, &reference, "read disturb");
}

#[test]
fn block_erase_is_bit_identical_to_per_cell_path() {
    let mut array = NandArray::new(CONFIG);
    let mut reference = ReferenceArray::new(CONFIG);
    let pattern: Vec<bool> = (0..CONFIG.page_width).map(|i| i % 2 == 1).collect();

    // Program two pages of block 2 (leaving two erased) so the erase
    // exercises both branches of the per-cell closure.
    for page in [0, 3] {
        array.program_page(2, page, &pattern).unwrap();
        reference.program_page(2, page, &pattern);
    }
    array.erase_block(2).unwrap();
    reference.erase_block(2);

    assert_arrays_identical(&array, &reference, "block erase");
}

#[test]
fn mlc_placement_is_bit_identical_to_per_cell_path() {
    let levels = MlcLevels::default();
    let batch = BatchSimulator::new();
    // Walk through every state and a downgrade (which forces the
    // erase-then-program path) on both implementations.
    let sequence = [
        MlcState::Level10,
        MlcState::Level01,
        MlcState::Level00, // downgrade: erase + reprogram
        MlcState::Erased11,
        MlcState::Level01,
    ];
    let mut cell = MlcCell::paper_cell();
    let mut pop = CellPopulation::paper(4);
    for target in sequence {
        cell.program(target).unwrap();
        mlc::program_cell(&mut pop, 1, target, &levels, &batch).unwrap();
        assert_eq!(
            pop.charge(1).unwrap().as_coulombs().to_bits(),
            cell.cell().charge().as_coulombs().to_bits(),
            "MLC charge diverged at {target:?}"
        );
        assert_eq!(mlc::read_cell(&pop, 1, &levels).unwrap(), cell.read());
        assert_eq!(pop.stats(1).unwrap(), cell.cell().stats());
    }
    // Cells that never took part stay untouched.
    assert_eq!(pop.charge(0).unwrap().as_coulombs(), 0.0);
}

#[test]
fn parallel_and_sequential_population_paths_agree() {
    // The grouped ops must not depend on the executor either.
    let pattern: Vec<bool> = (0..CONFIG.page_width).map(|i| i % 5 != 0).collect();
    let mut parallel = NandArray::new(CONFIG);
    let mut sequential = NandArray::new(CONFIG).with_batch(BatchSimulator::sequential());
    for array in [&mut parallel, &mut sequential] {
        array.program_page(0, 0, &pattern).unwrap();
        array.erase_block(0).unwrap();
        array.program_page(0, 2, &pattern).unwrap();
    }
    for p in 0..CONFIG.pages_per_block {
        for c in 0..CONFIG.page_width {
            assert_eq!(
                parallel
                    .cell(0, p, c)
                    .unwrap()
                    .charge()
                    .as_coulombs()
                    .to_bits(),
                sequential
                    .cell(0, p, c)
                    .unwrap()
                    .charge()
                    .as_coulombs()
                    .to_bits(),
                "executor divergence at (0,{p},{c})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn variation_deltas_round_trip_through_serde(
        xtos in proptest::collection::vec(-0.08f64..0.08, 1..10),
        barriers in proptest::collection::vec(-0.12f64..0.12, 1..10),
        charges in proptest::collection::vec(-2.0e-17f64..0.0, 1..10),
    ) {
        let n = xtos.len().min(barriers.len()).min(charges.len());
        let mut pop = CellPopulation::paper(n);
        for i in 0..n {
            pop.set_cell_variation(i, xtos[i], barriers[i])
                .expect("physical deltas");
            pop.set_charge(i, gnr_units::Charge::from_coulombs(charges[i]))
                .expect("in range");
        }
        let json = serde_json::to_string_pretty(&pop.snapshot()).expect("serialize");
        let decoded: PopulationSnapshot = serde_json::from_str(&json).expect("parse");
        prop_assert_eq!(&decoded, &pop.snapshot());
        let rebuilt = CellPopulation::restore(
            gnr_flash::device::FloatingGateTransistor::mlgnr_cnt_paper(),
            decoded,
        )
        .expect("rebuild");
        for i in 0..n {
            let (x, b) = rebuilt.variation_deltas(i).expect("in range");
            prop_assert_eq!(x.to_bits(), xtos[i].to_bits());
            prop_assert_eq!(b.to_bits(), barriers[i].to_bits());
            prop_assert_eq!(
                rebuilt.charge(i).expect("in range").as_coulombs().to_bits(),
                charges[i].to_bits()
            );
        }
        // The rebuilt population is functionally the same object.
        prop_assert_eq!(&rebuilt, &pop);
    }
}

#[test]
fn variation_population_reuses_identical_deltas() {
    let mut pop = CellPopulation::paper(6);
    pop.set_cell_variation(0, 0.03, -0.02).unwrap();
    pop.set_cell_variation(3, 0.03, -0.02).unwrap();
    pop.set_cell_variation(5, -0.01, 0.0).unwrap();
    // nominal + two distinct builds, not one per touched cell.
    assert_eq!(pop.variant_count(), 3);
}

#[test]
fn seeded_variation_is_reproducible() {
    let spec = PopulationVariation::default();
    let blueprint = gnr_flash::device::FloatingGateTransistor::mlgnr_cnt_paper;
    let a = CellPopulation::with_variation(blueprint(), 30, &spec).unwrap();
    let b = CellPopulation::with_variation(blueprint(), 30, &spec).unwrap();
    assert_eq!(a, b);
}
