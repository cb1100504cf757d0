//! Combined reliability scenarios: the array, wear, disturb and margin
//! models interacting — the system-level consequences of the paper's
//! conclusion that programming speed trades against oxide reliability.

use gnr_flash_array::cell::FlashCell;
use gnr_flash_array::disturb::DisturbBias;
use gnr_flash_array::endurance::EnduranceModel;
use gnr_flash_array::margins::{analyze, vt_histogram};
use gnr_flash_array::nand::{NandArray, NandConfig};
use gnr_flash_array::population::{CellPopulation, PopulationVariation};
use gnr_flash_array::retention::RetentionModel;
use gnr_units::{Charge, Temperature, Voltage};

fn small_array() -> NandArray {
    NandArray::new(NandConfig {
        blocks: 1,
        pages_per_block: 2,
        page_width: 8,
    })
}

#[test]
fn margins_survive_disturb_hammering() {
    let mut array = small_array();
    let bits: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
    array.program_page(0, 0, &bits).unwrap();
    array.settle();
    let before = analyze(&array).unwrap().worst_case_margin.unwrap();

    // 2000 reads of page 1 disturb page 0 (and vice versa).
    for _ in 0..2000 {
        let _ = array.read_page(0, 1).unwrap();
    }
    array.settle();
    let after = analyze(&array).unwrap().worst_case_margin.unwrap();
    assert!(after > 0.5, "margin after hammering = {after} V");
    // Disturb adds electrons everywhere; the *relative* margin loss is
    // what matters and must be small at the design pass voltage.
    assert!(
        (before - after).abs() < 0.2 * before,
        "lost {} V",
        before - after
    );
}

#[test]
fn vt_histogram_tracks_programming() {
    let mut array = small_array();
    let fresh = vt_histogram(&array, -1.0, 4.0, 8).unwrap();
    // All mass in the erased bins initially.
    let erased_mass: usize = fresh.counts()[..2].iter().sum();
    assert_eq!(erased_mass, fresh.total());

    array.program_page(0, 0, &[false; 8]).unwrap();
    array.settle();
    let after = vt_histogram(&array, -1.0, 4.0, 8).unwrap();
    let programmed_mass: usize = after.counts()[4..].iter().sum();
    assert_eq!(programmed_mass, 8, "{:?}", after.counts());
}

#[test]
fn midlife_cell_still_passes_retention() {
    // Endurance says the window is open at 10^4 cycles. The trapped
    // charge sits in deep oxide traps (stable on retention timescales);
    // what must survive the bake is the *floating-gate* charge of the
    // programmed state. Check both pieces: the FG charge passes the
    // ten-year 85 °C bake, and the midlife trap offset has not consumed
    // the window.
    let cell = FlashCell::paper_cell();
    let model = EnduranceModel::default();
    let report = model
        .simulate(&cell, 10_000, Voltage::from_volts(1.0))
        .unwrap();
    let midpoint = report.points.last().unwrap();
    assert!(midpoint.window > 1.0);

    let mut programmed = FlashCell::paper_cell();
    programmed.program_default().unwrap();
    let retention = RetentionModel::default().ten_year_check(
        programmed.device(),
        programmed.charge(),
        Voltage::from_volts(1.0),
        Temperature::from_celsius(85.0),
    );
    assert!(
        retention.pass,
        "midlife retention: {} -> {} V",
        retention.initial_vt, retention.final_vt
    );

    // Sanity on the (stable) trap population at midlife: its VT offset is
    // real but below the remaining window.
    let injected = report.charge_per_cycle * midpoint.cycle as f64;
    let trapped = model.trapped_charge(injected);
    let offset = -(trapped / programmed.device().capacitances().cfc()).as_volts();
    assert!(offset > 0.0);
    assert!(offset < midpoint.window + midpoint.vt_erased.abs());
}

#[test]
fn pass_voltage_is_the_disturb_design_knob() {
    // Raising V_pass by 1 V must cost at least 5x in disturb rate — the
    // exponential sensitivity the array design balances.
    let device = gnr_flash::device::FloatingGateTransistor::mlgnr_cnt_paper();
    let bias = DisturbBias::default();
    let dq = |v: f64| {
        gnr_flash_array::disturb::disturb_charge(
            &device,
            Charge::ZERO,
            Voltage::from_volts(v),
            bias.program_exposure,
        )
        .as_coulombs()
        .abs()
    };
    let nominal = dq(bias.v_pass_program.as_volts());
    let raised = dq(bias.v_pass_program.as_volts() + 1.0);
    assert!(raised / nominal > 5.0, "sensitivity {}", raised / nominal);
}

#[test]
fn population_variation_agrees_with_monte_carlo_statistically() {
    // Two routes to the same physics: `gnr_flash::variation` clones and
    // rebuilds a mutated device per Monte-Carlo sample; the population
    // path stores per-cell deltas in SoA columns and shares one device
    // build per distinct delta. Same sigmas (the MC run's GCR spread
    // zeroed, since the columns model XTO and barrier), independent
    // seeds — the J-distribution statistics must agree.
    let device = gnr_flash::device::FloatingGateTransistor::mlgnr_cnt_paper();
    let vgs = gnr_flash::presets::program_vgs();

    let mc = gnr_flash::variation::run_variation(
        &device,
        vgs,
        &gnr_flash::variation::VariationSpec {
            samples: 600,
            gcr_sigma: 0.0,
            ..gnr_flash::variation::VariationSpec::default()
        },
    )
    .unwrap();

    let pop = CellPopulation::with_variation(
        device.clone(),
        600,
        &PopulationVariation {
            seed: 0x00dd_ba11,
            ..PopulationVariation::default()
        },
    )
    .unwrap();
    let (log_j, vfg) = pop.variation_stats(vgs).unwrap();

    assert!(
        (log_j.median - mc.log10_j_in.median).abs() < 0.25,
        "median log10 J: population {} vs MC {}",
        log_j.median,
        mc.log10_j_in.median
    );
    assert!(
        (log_j.std_dev / mc.log10_j_in.std_dev - 1.0).abs() < 0.35,
        "spread: population {} vs MC {}",
        log_j.std_dev,
        mc.log10_j_in.std_dev
    );
    assert!(
        (vfg.median - mc.vfg.median).abs() < 0.2,
        "VFG median: population {} vs MC {}",
        vfg.median,
        mc.vfg.median
    );
}

#[test]
fn variation_aware_array_keeps_margins_open() {
    // End-to-end: an array whose cells carry manufacturing spread still
    // programs and senses correctly — the ISPP verify loop absorbs the
    // per-cell current spread, which is its engineering purpose.
    let config = NandConfig {
        blocks: 1,
        pages_per_block: 2,
        page_width: 8,
    };
    let pop = CellPopulation::with_variation(
        gnr_flash::device::FloatingGateTransistor::mlgnr_cnt_paper(),
        config.blocks * config.pages_per_block * config.page_width,
        &PopulationVariation::default(),
    )
    .unwrap();
    let mut array = NandArray::with_population(config, pop);
    let bits: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
    array.program_page(0, 0, &bits).unwrap();
    assert_eq!(array.read_page(0, 0).unwrap(), bits);
    array.settle();
    let report = analyze(&array).unwrap();
    assert!(report.worst_case_margin.unwrap() > 0.5, "margin {report:?}");
}

#[test]
fn erase_block_restores_margins_after_wearless_cycling() {
    let mut array = small_array();
    for _ in 0..3 {
        array.program_page(0, 0, &[false; 8]).unwrap();
        array.erase_block(0).unwrap();
    }
    let report = analyze(&array).unwrap();
    // Everything erased again: one population, no programmed cells.
    assert!(report.programmed.is_none());
    assert_eq!(report.erased.unwrap().count, 16);
    assert_eq!(array.erase_count(0).unwrap(), 3);
}
