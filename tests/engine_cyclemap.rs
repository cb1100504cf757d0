//! P/E cycle-map contracts: composed jumps vs explicit pulse-by-pulse
//! replay.
//!
//! The cycle map answers "where is this cell after `n` P/E cycles" from
//! one precomposed charge-to-charge map per `(device, recipe)` — these
//! tests pin the two properties epoch jumping rests on:
//!
//! * **Parity** — `iterate(q0, n)` lands within ≤1e-6 relative charge
//!   error of `n` explicit [`cycle_once`] cycles (each of which is
//!   itself pulse-by-pulse flow-map replay), across the tabulated span
//!   and jump lengths spanning three decades;
//! * **Fallback bit-identity** — a query outside the tabulated span
//!   escapes to the explicit path and must match it bit-for-bit, wear
//!   included.
//!
//! A wall-clock test pins what the maps are for: an array epoch jump
//! beats explicit cycling by at least 20× in cell-cycles per second.

use std::time::Instant;

use gnr_flash::device::FloatingGateTransistor;
use gnr_flash::engine::{cycle_once, ChargeBalanceEngine, CycleRecipe};
use gnr_flash::pulse::SquarePulse;
use gnr_flash_array::controller::FlashController;
use gnr_flash_array::ispp::nominal_cycle_recipe;
use gnr_flash_array::nand::NandConfig;
use gnr_flash_array::workload::PagePattern;
use gnr_units::{Time, Voltage};
use proptest::prelude::*;

/// The ISPP-shaped cycle the array layer composes: three program rungs
/// then two erase rungs, 10 µs each — a fixed train so every proptest
/// case shares one cached map instead of building its own.
fn recipe() -> CycleRecipe {
    let rung = |v: f64| SquarePulse::new(Voltage::from_volts(v), Time::from_microseconds(10.0));
    CycleRecipe::new(vec![
        rung(13.0),
        rung(13.5),
        rung(14.0),
        rung(-13.0),
        rung(-13.5),
    ])
}

fn engine() -> ChargeBalanceEngine {
    ChargeBalanceEngine::new(&FloatingGateTransistor::mlgnr_cnt_paper())
}

/// `n` explicit cycles — by construction identical to pulse-by-pulse
/// flow-map replay of the whole train.
fn explicit(engine: &ChargeBalanceEngine, recipe: &CycleRecipe, q0: f64, n: u64) -> (f64, f64) {
    let mut q = q0;
    let mut wear = 0.0;
    for _ in 0..n {
        let out = cycle_once(engine, recipe, q).unwrap();
        q = out.charge;
        wear += out.wear;
    }
    (q, wear)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Composed jumps match explicit pulse-by-pulse cycling to ≤1e-6
    /// relative charge error anywhere in the tabulated span, for jump
    /// lengths from 1 to ~1000 cycles (covering several squaring
    /// levels and mixed-level greedy decompositions).
    #[test]
    fn iterate_matches_pulse_by_pulse_replay(
        frac in 0.02f64..0.98,
        n in 1u64..1000,
    ) {
        let engine = engine();
        let recipe = recipe();
        let map = engine.cycle_map(&recipe).expect("flow-map engine is eligible");
        let (lo, hi) = map.charge_range().expect("non-empty map");
        let q0 = lo + frac * (hi - lo);
        let fast = map.iterate(&engine, q0, n).unwrap();
        let (q_ref, wear_ref) = explicit(&engine, &recipe, q0, n);
        let rel = ((fast.charge - q_ref) / q_ref.abs().max(1e-30)).abs();
        prop_assert!(
            rel <= 1.0e-6,
            "q0 {q0:e}, n {n}: charge rel err {rel:e}"
        );
        // Wear is an interpolated running integral — hold it to the
        // same bar relative to its own (growing) magnitude.
        let wear_rel = ((fast.wear - wear_ref) / wear_ref.abs().max(1e-30)).abs();
        prop_assert!(
            wear_rel <= 1.0e-4,
            "q0 {q0:e}, n {n}: wear rel err {wear_rel:e}"
        );
    }

    /// Out-of-span starts escape to the explicit path bit-for-bit:
    /// charge AND wear of the fallback must equal pulse-by-pulse
    /// replay exactly, not approximately.
    #[test]
    fn fallback_escapes_are_bitwise_explicit(
        overhang in 0.1f64..3.0,
        n in 1u64..16,
        side in 0u8..2,
    ) {
        let engine = engine();
        let recipe = recipe();
        let map = engine.cycle_map(&recipe).expect("flow-map engine is eligible");
        let (lo, hi) = map.charge_range().expect("non-empty map");
        let span = hi - lo;
        let q0 = if side == 0 { hi + overhang * span } else { lo - overhang * span };
        let fast = map.iterate(&engine, q0, n).unwrap();
        let (q_ref, wear_ref) = explicit(&engine, &recipe, q0, n);
        prop_assert_eq!(fast.charge.to_bits(), q_ref.to_bits());
        prop_assert_eq!(fast.wear.to_bits(), wear_ref.to_bits());
    }

    /// Fixed-chunk advancement is deterministic: the same `(q0, n)`
    /// query through the shared cache answers bit-identically on every
    /// call — the property campaign resume leans on when it re-runs a
    /// chunk sequence.
    #[test]
    fn repeated_queries_are_bit_identical(
        frac in 0.05f64..0.95,
        n in 1u64..200,
    ) {
        let engine = engine();
        let recipe = recipe();
        let map = engine.cycle_map(&recipe).expect("flow-map engine is eligible");
        let (lo, hi) = map.charge_range().expect("non-empty map");
        let q0 = lo + frac * (hi - lo);
        let a = map.iterate(&engine, q0, n).unwrap();
        let b = map.iterate(&engine, q0, n).unwrap();
        prop_assert_eq!(a.charge.to_bits(), b.charge.to_bits());
        prop_assert_eq!(a.wear.to_bits(), b.wear.to_bits());
    }
}

/// Exact-mode engines must refuse to hand out interpolated jump maps —
/// their per-pulse contract is converged integration, and a composed
/// interpolant would silently break it.
#[test]
fn exact_mode_engines_are_ineligible_for_cycle_maps() {
    let exact = engine().with_mode(gnr_flash::engine::EngineMode::Exact);
    assert!(exact.cycle_map(&recipe()).is_none());
    assert!(engine().cycle_map(&recipe()).is_some());
}

/// An epoch jump of 1000 composed cycles over a filled 4×4×16
/// controller must beat explicit pulse-by-pulse cycling (`cycle_once`,
/// 5 cycles of every cell's charge) by at least 20× in cell-cycles per
/// second. Composition pays O(log n) lookups per *distinct* charge
/// instead of O(n · pulses) per cell, so the measured margin is orders
/// of magnitude above the bar, which keeps this wall-clock test robust
/// on a loaded host.
#[test]
#[allow(clippy::cast_precision_loss)]
fn epoch_jumps_beat_pulse_by_pulse_cycling_twentyfold() {
    let config = NandConfig {
        blocks: 4,
        pages_per_block: 4,
        page_width: 16,
    };
    let mut controller = FlashController::new(config);
    for lpn in 0..controller.logical_capacity() {
        let bits = PagePattern::Seeded { seed: lpn as u64 }.expand(config.page_width);
        controller.write_logical(lpn, &bits).unwrap();
    }
    controller.settle();
    let recipe = nominal_cycle_recipe().unwrap();
    // Warm the shared cycle map so the timed jump measures the jump.
    controller.clone().run_epoch(&recipe, 2).unwrap();

    let engine = engine();
    let charges = controller.array().population().charge_column().to_vec();
    let start = Instant::now();
    for &q0 in &charges {
        explicit(&engine, &recipe, q0, 5);
    }
    let explicit_rate = (charges.len() * 5) as f64 / start.elapsed().as_secs_f64();

    let start = Instant::now();
    controller.run_epoch(&recipe, 1000).unwrap();
    let epoch_rate = (config.cells() * 1000) as f64 / start.elapsed().as_secs_f64();
    let speedup = epoch_rate / explicit_rate;
    assert!(
        speedup >= 20.0,
        "epoch jumps must beat pulse-by-pulse cycling by >= 20x, got {speedup:.1}x"
    );
}
