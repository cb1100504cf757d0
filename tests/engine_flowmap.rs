//! Flow-map pulse-response cache: parity, semigroup and fallback
//! contracts.
//!
//! The flow map answers `(Q0, Δt)` pulse queries from one master
//! trajectory per `(device, bias)` — these tests pin the three
//! properties the fast path rests on:
//!
//! * **Parity** — flow-map final charge matches the exact engine to
//!   ≤1e-6 relative error across the realistic charge range, over random
//!   draws and a fixed amplitude × threshold × width grid;
//! * **Semigroup/nesting** — `Q(t1+t2; Q0) == Q(t2; Q(t1; Q0))`: two
//!   chained lookups land where one long lookup lands (what makes ISPP
//!   ladders, which re-enter the map with interpolated charges,
//!   trustworthy);
//! * **Monotone inverse + fallback boundary** — queries preserve charge
//!   order, leave the tabulated range as `None`, and the engine's
//!   fallback then reproduces the exact path bit-for-bit;
//! * **Batch/scalar bit-identity** — the column-batched merge walk
//!   answers every cell (including fallback flags) bit-identically to a
//!   scalar `final_charge` loop, for unsorted and duplicate-laden
//!   columns.

use gnr_flash::device::FloatingGateTransistor;
use gnr_flash::engine::{flowmap, ChargeBalanceEngine, EngineMode};
use gnr_flash::transient::ProgramPulseSpec;
use gnr_units::{Charge, Time, Voltage};
use proptest::prelude::*;

/// Pulse amplitudes drawn from the recipes the array layer actually
/// applies (ISPP rungs 13..16 V, erase rungs, the soft-program point) —
/// a small discrete set so the proptest cases share cached masters
/// instead of integrating a fresh one per case.
const AMPLITUDES: [f64; 6] = [13.0, 14.0, 15.0, 16.0, -15.0, 11.0];

fn engine() -> ChargeBalanceEngine {
    ChargeBalanceEngine::new(&FloatingGateTransistor::mlgnr_cnt_paper())
}

/// A converged exact reference: the default runtime tolerances (1e-8)
/// themselves drift a few ppm on shrinking charges, so the ≤1e-6 parity
/// bar is measured against an integration tightened past the bar.
fn reference_engine() -> ChargeBalanceEngine {
    ChargeBalanceEngine::new(&FloatingGateTransistor::mlgnr_cnt_paper())
        .with_mode(EngineMode::Exact)
        .with_ode_options(gnr_numerics::ode::OdeOptions::with_tolerances(
            1.0e-12, 1.0e-14,
        ))
}

/// Converged exact final charge of one fixed-duration pulse.
fn exact_final(reference: &ChargeBalanceEngine, vgs: f64, q0: f64, dt: f64) -> Option<f64> {
    let spec = ProgramPulseSpec::program(Voltage::from_volts(vgs))
        .with_initial_charge(Charge::from_coulombs(q0))
        .with_duration(Time::from_seconds(dt));
    reference
        .run(&spec)
        .ok()
        .map(|r| r.final_charge().as_coulombs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flow-map vs exact-engine parity: ≤1e-6 relative final-charge
    /// error over the realistic charge range and pulse widths.
    #[test]
    fn flow_map_matches_exact_engine(
        amp_idx in 0usize..AMPLITUDES.len(),
        vt0 in -1.0f64..5.0,
        dt_log in -7.0f64..-3.0,
    ) {
        let engine = engine();
        let vgs = AMPLITUDES[amp_idx];
        let cfc = engine.device().capacitances().cfc().as_farads();
        let q0 = -vt0 * cfc;
        let dt = 10.0f64.powf(dt_log);
        let map = flowmap::cached(&engine, Voltage::from_volts(vgs), Voltage::ZERO);
        if let (Some(fast), Some(exact)) =
            (map.final_charge(q0, dt), exact_final(&reference_engine(), vgs, q0, dt))
        {
            let rel = ((fast - exact) / exact.abs().max(1e-30)).abs();
            prop_assert!(rel <= 1.0e-6, "vgs {vgs} V, vt0 {vt0} V, dt {dt:e}: rel {rel:e}");
        }
    }

    /// Semigroup/nesting: answering one `t1 + t2` pulse must equal
    /// answering `t1` and feeding the result back in for `t2`.
    #[test]
    fn flow_map_composes_as_a_semigroup(
        amp_idx in 0usize..AMPLITUDES.len(),
        vt0 in -1.0f64..5.0,
        t1_log in -7.0f64..-4.0,
        t2_log in -7.0f64..-4.0,
    ) {
        let engine = engine();
        let vgs = AMPLITUDES[amp_idx];
        let cfc = engine.device().capacitances().cfc().as_farads();
        let q0 = -vt0 * cfc;
        let (t1, t2) = (10.0f64.powf(t1_log), 10.0f64.powf(t2_log));
        let map = flowmap::cached(&engine, Voltage::from_volts(vgs), Voltage::ZERO);
        let whole = map.final_charge(q0, t1 + t2);
        let step1 = map.final_charge(q0, t1);
        if let (Some(whole), Some(q_mid)) = (whole, step1) {
            if let Some(nested) = map.final_charge(q_mid, t2) {
                let rel = ((nested - whole) / whole.abs().max(1e-30)).abs();
                prop_assert!(
                    rel <= 2.0e-6,
                    "vgs {vgs} V, vt0 {vt0} V, t1 {t1:e}, t2 {t2:e}: rel {rel:e}"
                );
            }
        }
    }

    /// The inverse lookup is monotone: charge order is preserved under
    /// any shared pulse (trajectories of a 1-D autonomous flow cannot
    /// cross), and a longer hold never moves the charge backwards.
    #[test]
    fn flow_map_queries_preserve_order(
        amp_idx in 0usize..AMPLITUDES.len(),
        vt_a in -1.0f64..5.0,
        vt_gap in 0.01f64..2.0,
        dt_log in -7.0f64..-4.0,
    ) {
        let engine = engine();
        let vgs = AMPLITUDES[amp_idx];
        let cfc = engine.device().capacitances().cfc().as_farads();
        let (q_a, q_b) = (-vt_a * cfc, -(vt_a + vt_gap) * cfc); // q_b < q_a
        let dt = 10.0f64.powf(dt_log);
        let map = flowmap::cached(&engine, Voltage::from_volts(vgs), Voltage::ZERO);
        if let (Some(out_a), Some(out_b)) =
            (map.final_charge(q_a, dt), map.final_charge(q_b, dt))
        {
            prop_assert!(
                out_b <= out_a + 1e-24,
                "order flipped: Q({q_b:e}) -> {out_b:e} vs Q({q_a:e}) -> {out_a:e}"
            );
        }
        // Monotone in the hold time along the flow direction.
        if let (Some(short), Some(long)) =
            (map.final_charge(q_a, dt), map.final_charge(q_a, 2.0 * dt))
        {
            let d_short = short - q_a;
            let d_long = long - q_a;
            prop_assert!(
                d_long.abs() >= d_short.abs() - 1e-24 && d_short * d_long >= 0.0,
                "longer hold moved less: {d_short:e} vs {d_long:e}"
            );
        }
    }

    /// The column-batched merge walk is the scalar lookup, cell for
    /// cell: every answer — including the `None` fallback flags for
    /// out-of-span charges and past-horizon holds — is bit-identical to
    /// a `final_charge` loop. The drawn VT range deliberately overshoots
    /// the tabulated span on both sides, the hold range runs past the
    /// horizon, and a sampled suffix of duplicates keeps the column
    /// unsorted, so the cursors' re-seek path is exercised too.
    #[test]
    fn batched_queries_match_the_scalar_loop_bitwise(
        amp_idx in 0usize..AMPLITUDES.len(),
        vts in proptest::collection::vec(-4.0f64..9.0, 1..24),
        dups in proptest::collection::vec(0usize..1usize << 16, 0..8),
        dt_log in -7.0f64..-1.0,
    ) {
        let engine = engine();
        let vgs = AMPLITUDES[amp_idx];
        let cfc = engine.device().capacitances().cfc().as_farads();
        let mut q0s: Vec<f64> = vts.iter().map(|&vt| -vt * cfc).collect();
        for &pick in &dups {
            let repeat = q0s[pick % vts.len()];
            q0s.push(repeat);
        }
        let dt = 10.0f64.powf(dt_log);
        let map = flowmap::cached(&engine, Voltage::from_volts(vgs), Voltage::ZERO);

        let mut batch = vec![None; q0s.len()];
        map.final_charges_batch(&q0s, dt, &mut batch);
        for (i, (&q0, &got)) in q0s.iter().zip(&batch).enumerate() {
            let want = map.final_charge(q0, dt);
            prop_assert!(
                want.map(f64::to_bits) == got.map(f64::to_bits),
                "cell {i} (vgs {vgs} V, q0 {q0:e} C, dt {dt:e} s): \
                 scalar {want:?} vs batch {got:?}"
            );
        }
    }
}

/// A fixed grid of 5 amplitudes × 5 initial thresholds × 3 pulse widths
/// held to the ≤1e-6 bar against the converged reference. Every grid
/// point lies inside the map's span and both engine modes answer it —
/// one answering while the other rejects would break the `NoTunneling`
/// contract the flow map shares with exact mode — and the engine's hit
/// path returns the map's answer verbatim.
#[test]
fn flow_map_matches_the_converged_engine_on_a_fixed_grid() {
    let fast = engine();
    let reference = reference_engine();
    let cfc = fast.device().capacitances().cfc().as_farads();
    for vgs in [13.0, 14.5, 16.0, -15.0, 11.0] {
        let map = flowmap::cached(&fast, Voltage::from_volts(vgs), Voltage::ZERO);
        for vt0 in [-0.5, 0.0, 1.0, 2.5, 4.0] {
            for dt_us in [1.0, 10.0, 100.0] {
                let at = format!("vgs {vgs} V, vt0 {vt0} V, dt {dt_us} µs");
                let (q0, dt) = (-vt0 * cfc, dt_us * 1.0e-6);
                let qf = map
                    .final_charge(q0, dt)
                    .unwrap_or_else(|| panic!("{at}: outside the map's span"));
                let spec = ProgramPulseSpec::program(Voltage::from_volts(vgs))
                    .with_initial_charge(Charge::from_coulombs(q0))
                    .with_duration(Time::from_seconds(dt));
                let (hit, qe) = match (
                    fast.pulse_final_charge(&spec),
                    reference.pulse_final_charge(&spec),
                ) {
                    (Ok(f), Ok(e)) => (f.as_coulombs(), e.as_coulombs()),
                    (fast, exact) => panic!("{at}: flow map {fast:?} vs exact {exact:?}"),
                };
                assert_eq!(hit, qf, "{at}: the hit path must return the map's answer");
                let rel = ((qf - qe) / qe.abs().max(1e-30)).abs();
                assert!(rel <= 1.0e-6, "{at}: flow-map rel err {rel:e}");
            }
        }
    }
}

#[test]
fn out_of_range_queries_fall_back_to_the_exact_engine() {
    let engine = engine();
    let vgs = Voltage::from_volts(15.0);
    let map = flowmap::cached(&engine, vgs, Voltage::ZERO);
    let (lo, hi) = map.charge_range().expect("paper program bias tabulates");

    // Outside the tabulated charge range the map declines…
    let far = hi + (hi - lo);
    assert_eq!(map.final_charge(far, 1.0e-5), None);

    // …and the engine's fallback answers bit-identically to exact mode.
    let spec = ProgramPulseSpec::program(vgs)
        .with_initial_charge(Charge::from_coulombs(far))
        .with_duration(Time::from_microseconds(10.0));
    let exact_engine = ChargeBalanceEngine::new(&FloatingGateTransistor::mlgnr_cnt_paper())
        .with_mode(EngineMode::Exact);
    match (
        engine.pulse_final_charge(&spec),
        exact_engine.pulse_final_charge(&spec),
    ) {
        (Ok(fast), Ok(exact)) => assert_eq!(
            fast.as_coulombs(),
            exact.as_coulombs(),
            "fallback must be the exact path, bit for bit"
        ),
        (Err(_), Err(_)) => {} // both reject the bias the same way
        (fast, exact) => panic!("fallback diverged: {fast:?} vs {exact:?}"),
    }
}

#[test]
fn saturation_boundary_pulses_fall_back() {
    // A pulse long enough to ride past the integrated horizon (deep in
    // the balance tail) is declined by the map, and the engine's
    // fallback then answers bit-identically to exact mode.
    let engine = engine();
    let vgs = Voltage::from_volts(15.0);
    let map = flowmap::cached(&engine, vgs, Voltage::ZERO);
    // Any window ending past the horizon is declined, wherever it
    // starts.
    let dt = map.horizon_seconds().expect("non-empty map") * 1.01;
    assert_eq!(map.final_charge(0.0, dt), None);

    let spec = ProgramPulseSpec::program(vgs).with_duration(Time::from_seconds(dt));
    let fast = engine
        .pulse_final_charge(&spec)
        .expect("fallback integrates");
    let exact = ChargeBalanceEngine::new(&FloatingGateTransistor::mlgnr_cnt_paper())
        .with_mode(EngineMode::Exact)
        .pulse_final_charge(&spec)
        .expect("exact integrates");
    assert_eq!(fast.as_coulombs(), exact.as_coulombs());
}

#[test]
fn flow_map_cache_reports_traffic() {
    let engine = engine();
    let vgs = Voltage::from_volts(13.731);
    let before = gnr_flash::engine::cache::stats();
    let _ = flowmap::cached(&engine, vgs, Voltage::ZERO);
    let _ = flowmap::cached(&engine, vgs, Voltage::ZERO);
    let after = gnr_flash::engine::cache::stats();
    assert!(after.flow_maps.hits > before.flow_maps.hits);
    assert!(after.flow_maps.entries >= 1);
    assert!(after.flow_maps.misses >= before.flow_maps.misses);
}
