//! Property tests for the numerical substrate.

use gnr_numerics::integrate::{adaptive_simpson, gauss_legendre_composite, simpson};
use gnr_numerics::interp::CubicSpline;
use gnr_numerics::linalg::{solve_tridiagonal, Matrix};
use gnr_numerics::ode::{
    CrossingDirection, Dopri45, Event, EventOccurrence, OdeOptions, OdeRhs, OdeSolution, Rk4,
    Sdirk2,
};
use gnr_numerics::regression::{polyfit, polyval};
use gnr_numerics::roots::{bisect, brent};
use gnr_numerics::stats::Summary;
use proptest::prelude::*;

/// Every bit a fresh integration returns: node times, states and
/// derivatives, the solver counters, and each occurrence's time, state
/// and label.
fn solution_bits(sol: &OdeSolution, hits: &[EventOccurrence]) -> (Vec<u64>, Vec<String>) {
    let nodes = sol
        .times()
        .iter()
        .chain(sol.states().iter().flatten())
        .chain(sol.derivs().iter().flatten());
    let occurrences = hits
        .iter()
        .flat_map(|h| std::iter::once(&h.t).chain(&h.state));
    let counters = [
        sol.len(),
        hits.len(),
        sol.accepted_steps(),
        sol.rejected_steps(),
        sol.rhs_evaluations(),
    ];
    let bits = nodes
        .chain(occurrences)
        .map(|v| v.to_bits())
        .chain(counters.map(|c| c as u64))
        .collect();
    (bits, hits.iter().map(|h| h.label.clone()).collect())
}

/// Extends one run through `windows` and holds every window to a fresh
/// integration to its end: the same bits on success, the same error on
/// failure, after which the run must still hold the last completed
/// window. Returns how many windows failed.
fn resumes_like_fresh_runs<R: OdeRhs + Copy>(
    solver: &Dopri45,
    rhs: R,
    y0: &[f64],
    windows: &[f64],
    events: &[Event<'_>],
) -> Result<usize, TestCaseError> {
    let mut run = solver.start(rhs, 0.0, y0, events).unwrap();
    let mut completed: Option<f64> = None;
    let mut failed = 0;
    for &t_end in windows {
        match (
            run.advance_to(t_end),
            solver.integrate_with_events(rhs, 0.0, y0, t_end, events),
        ) {
            (Ok(_), Ok((sol, hits))) => {
                prop_assert!(
                    solution_bits(run.solution(), run.occurrences()) == solution_bits(&sol, &hits),
                    "window end {t_end:e}: the resumed run differs from a fresh one"
                );
                completed = Some(t_end);
            }
            (Err(resumed), Err(fresh)) => {
                prop_assert!(
                    resumed == fresh,
                    "window end {t_end:e}: resumed {resumed:?}, fresh {fresh:?}"
                );
                failed += 1;
                if let Some(t) = completed {
                    let (sol, hits) = solver
                        .integrate_with_events(rhs, 0.0, y0, t, events)
                        .unwrap();
                    prop_assert!(
                        solution_bits(run.solution(), run.occurrences())
                            == solution_bits(&sol, &hits),
                        "after failing at {t_end:e} the run no longer holds window {t:e}"
                    );
                }
            }
            (resumed, fresh) => prop_assert!(
                false,
                "window end {t_end:e}: resumed {resumed:?}, fresh {:?}",
                fresh.map(|(sol, _)| sol.len())
            ),
        }
    }
    Ok(failed)
}

/// The Fowler–Nordheim law `J = E²·exp(−b/E)` for `E > 0`.
fn fn_law(e: f64, b: f64) -> f64 {
    if e > 0.0 {
        e * e * (-b / e).exp()
    } else {
        0.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both bracketing root finders locate the root of a random monotone
    /// cubic.
    #[test]
    fn root_finders_agree(root in -5.0f64..5.0, scale in 0.1f64..10.0) {
        let f = move |x: f64| scale * ((x - root).powi(3) + (x - root));
        let lo = root - 10.0;
        let hi = root + 10.0;
        let rb = bisect(f, lo, hi, 1e-12, 500).unwrap();
        let rr = brent(f, lo, hi, 1e-12, 500).unwrap();
        prop_assert!((rb - root).abs() < 1e-9);
        prop_assert!((rr - root).abs() < 1e-9);
    }

    /// Simpson is exact for random cubics; Gauss for random quintics.
    #[test]
    fn quadrature_exactness(
        c0 in -3.0f64..3.0, c1 in -3.0f64..3.0, c2 in -3.0f64..3.0, c3 in -3.0f64..3.0,
        a in -2.0f64..0.0, b in 0.1f64..2.0,
    ) {
        let f = move |x: f64| c0 + c1 * x + c2 * x * x + c3 * x * x * x;
        let exact = |x: f64| c0 * x + c1 * x * x / 2.0 + c2 * x * x * x / 3.0
            + c3 * x * x * x * x / 4.0;
        let integral = exact(b) - exact(a);
        let s = simpson(f, a, b, 64);
        prop_assert!((s - integral).abs() <= 1e-9 * integral.abs().max(1.0));
        let g = gauss_legendre_composite(f, a, b, 2);
        prop_assert!((g - integral).abs() <= 1e-10 * integral.abs().max(1.0));
        let ad = adaptive_simpson(f, a, b, 1e-12, 40).unwrap();
        prop_assert!((ad - integral).abs() <= 1e-8 * integral.abs().max(1.0));
    }

    /// polyfit ∘ polyval is the identity on random quadratics.
    #[test]
    fn polyfit_round_trip(c0 in -5.0f64..5.0, c1 in -5.0f64..5.0, c2 in -5.0f64..5.0) {
        let xs: Vec<f64> = (0..12).map(|i| i as f64 / 2.0 - 3.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| c0 + c1 * x + c2 * x * x).collect();
        let c = polyfit(&xs, &ys, 2).unwrap();
        for &x in &xs {
            let err = (polyval(&c, x) - (c0 + c1 * x + c2 * x * x)).abs();
            prop_assert!(err < 1e-7, "err {err}");
        }
    }

    /// Tridiagonal Thomas and dense LU agree on random diagonally
    /// dominant systems.
    #[test]
    fn tridiagonal_matches_dense(
        diag_boost in 2.5f64..10.0,
        vals in proptest::collection::vec(-1.0f64..1.0, 12),
    ) {
        let n = 4;
        let sub: Vec<f64> = (0..n).map(|i| if i == 0 { 0.0 } else { vals[i] }).collect();
        let sup: Vec<f64> = (0..n).map(|i| if i == n - 1 { 0.0 } else { vals[4 + i] }).collect();
        let diag: Vec<f64> = (0..n).map(|i| diag_boost + vals[8 + i].abs()).collect();
        let rhs = [1.0, -2.0, 3.0, -4.0];

        let x_tri = solve_tridiagonal(&sub, &diag, &sup, &rhs).unwrap();

        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, diag[i]);
            if i > 0 {
                m.set(i, i - 1, sub[i]);
            }
            if i < n - 1 {
                m.set(i, i + 1, sup[i]);
            }
        }
        let x_dense = m.solve(&rhs).unwrap();
        for (a, b) in x_tri.iter().zip(&x_dense) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    /// All three production integrators agree on random linear systems.
    #[test]
    fn integrators_cross_validate(lambda in 0.1f64..3.0, y0 in 0.5f64..2.0) {
        let rhs = move |_t: f64, y: &[f64], d: &mut [f64]| d[0] = -lambda * y[0];
        let exact = y0 * (-lambda).exp();
        let dp = Dopri45::new(OdeOptions::with_tolerances(1e-10, 1e-12))
            .integrate(rhs, 0.0, &[y0], 1.0).unwrap().final_state()[0];
        let rk = Rk4::new(500).integrate(rhs, 0.0, &[y0], 1.0).unwrap().final_state()[0];
        let sd = Sdirk2::new(500).integrate(rhs, 0.0, &[y0], 1.0).unwrap().final_state()[0];
        prop_assert!((dp - exact).abs() < 1e-8);
        prop_assert!((rk - exact).abs() < 1e-8);
        prop_assert!((sd - exact).abs() < 1e-4);
    }

    /// Spline interpolation reproduces its nodes for random data.
    #[test]
    fn spline_hits_nodes(ys in proptest::collection::vec(-10.0f64..10.0, 5..10)) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let sp = CubicSpline::new(xs.clone(), ys.clone()).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            prop_assert!((sp.eval(*x) - y).abs() < 1e-9);
        }
    }

    /// Summary statistics are translation-equivariant.
    #[test]
    fn summary_translation(
        samples in proptest::collection::vec(-100.0f64..100.0, 5..40),
        shift in -50.0f64..50.0,
    ) {
        let s1 = Summary::from_samples(&samples).unwrap();
        let shifted: Vec<f64> = samples.iter().map(|x| x + shift).collect();
        let s2 = Summary::from_samples(&shifted).unwrap();
        prop_assert!((s2.mean - s1.mean - shift).abs() < 1e-9);
        prop_assert!((s2.std_dev - s1.std_dev).abs() < 1e-9);
        prop_assert!((s2.median - s1.median - shift).abs() < 1e-9);
    }

    /// A charge balance `dy/dt = J_in(y) − J_out(y)` between two FN
    /// flows, searched for its 1-ppm balance horizon the way the flow
    /// map searches: every ×`growth` widening resumes the run, and every
    /// window equals a fresh integration to its end.
    #[test]
    fn resumed_balance_search_matches_fresh_windows(
        drive in 4.0f64..8.0,
        bias in 0.0f64..2.0,
        barrier in 5.0f64..15.0,
        first in -3.0f64..-1.0,
        growth in 10.0f64..1.0e3,
        rtol_exp in -12.0f64..-7.0,
    ) {
        let rhs = move |_t: f64, y: &[f64], d: &mut [f64]| {
            d[0] = fn_law(drive - y[0], barrier) - fn_law(bias + y[0], barrier);
        };
        let condition = move |_t: f64, y: &[f64]| {
            let (j_in, j_out) = (fn_law(drive - y[0], barrier), fn_law(bias + y[0], barrier));
            (1.0 - 1.0e-6) * j_in.max(j_out) - j_in.min(j_out)
        };
        let events = [Event {
            label: "horizon",
            condition: &condition,
            direction: CrossingDirection::Falling,
            terminal: true,
        }];
        let rtol = 10f64.powf(rtol_exp);
        let solver = Dopri45::new(OdeOptions::with_tolerances(rtol, 1.0e-2 * rtol));
        let windows: Vec<f64> =
            std::iter::successors(Some(10f64.powf(first)), |t| Some(t * growth)).take(8).collect();
        prop_assert_eq!(resumes_like_fresh_runs(&solver, rhs, &[0.0], &windows, &events)?, 0);
    }

    /// A terminal event that fires inside the first window's last,
    /// clipped step: extending the run rewinds past the crossing, as a
    /// fresh integration to the longer end never clips there.
    #[test]
    fn terminal_event_in_a_clipped_tail_resumes_like_fresh_runs(
        rate in 0.1f64..5.0,
        first in 0.1f64..10.0,
        fraction in 0.05f64..0.95,
    ) {
        let rhs = move |t: f64, y: &[f64], d: &mut [f64]| d[0] = -rate * y[0] + t.sin();
        let solver = Dopri45::new(OdeOptions::with_tolerances(1.0e-8, 1.0e-10));
        let plain = solver.integrate(rhs, 0.0, &[1.0], first).unwrap();
        let times = plain.times();
        let (t_a, t_b) = (times[times.len() - 2], times[times.len() - 1]);
        let t_event = t_a + fraction * (t_b - t_a);
        let condition = move |t: f64, _y: &[f64]| t - t_event;
        let events = [Event {
            label: "late",
            condition: &condition,
            direction: CrossingDirection::Rising,
            terminal: true,
        }];
        let (_, hits) = solver.integrate_with_events(rhs, 0.0, &[1.0], first, &events).unwrap();
        prop_assert_eq!(hits.len(), 1);
        let windows = [first, 4.0 * first, 1.0e3 * first];
        prop_assert_eq!(resumes_like_fresh_runs(&solver, rhs, &[1.0], &windows, &events)?, 0);
    }

    /// A first window shorter than the automatic initial step: the
    /// next window must choose the initial step anew, with and without
    /// a fixed `h_init`.
    #[test]
    fn clipped_initial_step_is_chosen_anew(
        rate in 0.1f64..5.0,
        first_exp in -12.0f64..-6.0,
        fixed in 0u32..2,
    ) {
        let rhs = move |_t: f64, y: &[f64], d: &mut [f64]| d[0] = -rate * y[0];
        let first = 10f64.powf(first_exp);
        let opts = OdeOptions {
            h_init: (fixed == 1).then_some(1.0e-3),
            ..OdeOptions::with_tolerances(1.0e-9, 1.0e-12)
        };
        let solver = Dopri45::new(opts);
        // The whole first window is one step, shorter than the initial
        // step either way chooses.
        prop_assert_eq!(solver.integrate(rhs, 0.0, &[1.0], first).unwrap().len(), 2);
        let windows: Vec<f64> = std::iter::successors(Some(first), |t| Some(t * 1.0e3))
            .take_while(|&t| t <= 10.0)
            .collect();
        prop_assert_eq!(resumes_like_fresh_runs(&solver, rhs, &[1.0], &windows, &[])?, 0);
    }

    /// `y' = y²` from `y(0) = 1` blows up at `t = 1`: a window past it
    /// fails as a fresh run does, the run keeps its last completed
    /// window, and a later window short of the blow-up still resumes.
    #[test]
    fn failed_widening_keeps_the_last_completed_window(
        first in 0.1f64..0.9,
        near in 0.9f64..0.999,
        past in 1.5f64..4.0,
        rtol_exp in -10.0f64..-6.0,
    ) {
        let rhs = |_t: f64, y: &[f64], d: &mut [f64]| d[0] = y[0] * y[0];
        let rtol = 10f64.powf(rtol_exp);
        let solver = Dopri45::new(OdeOptions::with_tolerances(rtol, 1.0e-2 * rtol));
        let closer = 0.5 * (near + 1.0);
        let windows = [first, near, past, closer, 2.0 * past];
        prop_assert_eq!(resumes_like_fresh_runs(&solver, rhs, &[1.0], &windows, &[])?, 2);
    }
}
