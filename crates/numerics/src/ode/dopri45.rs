//! Adaptive Dormand–Prince 5(4) integrator with PI step control, FSAL and
//! cubic-Hermite event localisation.

use crate::ode::event::{Event, EventOccurrence};
use crate::ode::solution::{hermite, OdeSolution, SolutionMark};
use crate::ode::OdeRhs;
use crate::{NumericsError, Result};

/// Tuning options for [`Dopri45`].
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct OdeOptions {
    /// Relative tolerance per component.
    pub rtol: f64,
    /// Absolute tolerance per component.
    pub atol: f64,
    /// Initial step; chosen automatically when `None`.
    pub h_init: Option<f64>,
    /// Upper bound on the step; the full interval when `None`.
    pub h_max: Option<f64>,
    /// Hard cap on accepted + rejected steps.
    pub max_steps: usize,
    /// Safety factor of the step controller.
    pub safety: f64,
}

impl Default for OdeOptions {
    fn default() -> Self {
        Self {
            rtol: 1.0e-8,
            atol: 1.0e-12,
            h_init: None,
            h_max: None,
            max_steps: 1_000_000,
            safety: 0.9,
        }
    }
}

impl OdeOptions {
    /// Creates options with the given tolerances and defaults elsewhere.
    #[must_use]
    pub fn with_tolerances(rtol: f64, atol: f64) -> Self {
        Self {
            rtol,
            atol,
            ..Self::default()
        }
    }
}

/// The Dormand–Prince explicit Runge–Kutta 5(4) pair.
///
/// Fifth-order propagation with an embedded fourth-order error estimate,
/// first-same-as-last (FSAL) evaluation reuse, and a PI step-size
/// controller. This is the production integrator for the paper's
/// program/erase transients.
///
/// # Example
///
/// ```
/// use gnr_numerics::ode::{Dopri45, OdeOptions};
///
/// let sol = Dopri45::new(OdeOptions::with_tolerances(1e-10, 1e-14))
///     .integrate(|t: f64, _y: &[f64], d: &mut [f64]| d[0] = 3.0 * t * t, 0.0, &[0.0], 2.0)
///     .unwrap();
/// assert!((sol.final_state()[0] - 8.0).abs() < 1e-8);
/// ```
#[derive(Debug, Clone)]
pub struct Dopri45 {
    opts: OdeOptions,
}

// Butcher tableau (Dormand & Prince 1980).
const C: [f64; 7] = [0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];
const A: [[f64; 6]; 7] = [
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [
        19372.0 / 6561.0,
        -25360.0 / 2187.0,
        64448.0 / 6561.0,
        -212.0 / 729.0,
        0.0,
        0.0,
    ],
    [
        9017.0 / 3168.0,
        -355.0 / 33.0,
        46732.0 / 5247.0,
        49.0 / 176.0,
        -5103.0 / 18656.0,
        0.0,
    ],
    [
        35.0 / 384.0,
        0.0,
        500.0 / 1113.0,
        125.0 / 192.0,
        -2187.0 / 6784.0,
        11.0 / 84.0,
    ],
];
/// Fifth-order weights (row 7 of `A`, FSAL).
const B5: [f64; 7] = [
    35.0 / 384.0,
    0.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
    0.0,
];
/// Embedded fourth-order weights.
const B4: [f64; 7] = [
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
];

impl Dopri45 {
    /// Creates the integrator with the given options.
    #[must_use]
    pub fn new(opts: OdeOptions) -> Self {
        Self { opts }
    }

    /// Integrates `dy/dt = rhs(t, y)` from `(t0, y0)` to `t_end`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::StepSizeUnderflow`] when the controller
    /// cannot satisfy the tolerance, [`NumericsError::NoConvergence`] when
    /// `max_steps` is exhausted, and [`NumericsError::InvalidInput`] for a
    /// degenerate interval or empty state.
    pub fn integrate<R: OdeRhs>(
        &self,
        rhs: R,
        t0: f64,
        y0: &[f64],
        t_end: f64,
    ) -> Result<OdeSolution> {
        self.integrate_with_events(rhs, t0, y0, t_end, &[])
            .map(|(sol, _)| sol)
    }

    /// Integrates while monitoring zero-crossing [`Event`]s.
    ///
    /// Returns the solution and every localised occurrence, in time order.
    /// A `terminal` event stops the integration at the crossing and the
    /// solution is truncated there.
    ///
    /// # Errors
    ///
    /// As for [`Self::integrate`].
    pub fn integrate_with_events<R: OdeRhs>(
        &self,
        rhs: R,
        t0: f64,
        y0: &[f64],
        t_end: f64,
        events: &[Event<'_>],
    ) -> Result<(OdeSolution, Vec<EventOccurrence>)> {
        let mut run = self.start(rhs, t0, y0, events)?;
        run.advance_to(t_end)?;
        Ok(run.into_parts())
    }

    /// Starts an integration at `(t0, y0)` that successive, growing
    /// windows extend with [`Dopri45Run::advance_to`] — a search for a
    /// horizon whose end is not known in advance integrates each stretch
    /// once instead of restarting from `t0` for every wider window.
    ///
    /// # Errors
    ///
    /// [`NumericsError::InvalidInput`] for an empty state.
    pub fn start<'a, R: OdeRhs>(
        &'a self,
        rhs: R,
        t0: f64,
        y0: &[f64],
        events: &'a [Event<'a>],
    ) -> Result<Dopri45Run<'a, R>> {
        if y0.is_empty() {
            return Err(NumericsError::InvalidInput("empty initial state".into()));
        }
        let mut sol = OdeSolution::new();
        let mut k = vec![vec![0.0; y0.len()]; 7];
        rhs.eval(t0, y0, &mut k[0]);
        sol.record_rhs_evals(1);
        sol.push(t0, y0, &k[0]);
        let state = StepState {
            t: t0,
            y: y0.to_vec(),
            k,
            h: None,
            err_prev: 1.0,
            g_prev: events.iter().map(|e| (e.condition)(t0, y0)).collect(),
            steps: 0,
        };
        Ok(Dopri45Run {
            solver: self,
            rhs,
            events,
            t0,
            t_end: t0,
            resume: Some(Checkpoint {
                state,
                mark: sol.mark(),
                occurrences: 0,
            }),
            sol,
            occurrences: Vec::new(),
            rewound_rhs_evals: 0,
        })
    }

    /// Hairer-style automatic initial step selection. Also returns
    /// whether `t_end` bounded the step, so that a longer window must
    /// choose it anew.
    fn initial_step<R: OdeRhs>(
        &self,
        rhs: &R,
        t0: f64,
        y0: &[f64],
        f0: &[f64],
        t_end: f64,
        sol: &mut OdeSolution,
    ) -> (f64, bool) {
        let n = y0.len();
        let sc: Vec<f64> = y0
            .iter()
            .map(|&yi| self.opts.atol + self.opts.rtol * yi.abs())
            .collect();
        let d0 = rms(y0, &sc);
        let d1 = rms(f0, &sc);
        let h0 = if d0 < 1e-5 || d1 < 1e-5 {
            1e-6
        } else {
            0.01 * (d0 / d1)
        };
        let span = t_end - t0;
        let probe_bound = shortens(h0, span);
        let h0 = h0.min(span);

        // One explicit Euler probe to estimate the second derivative.
        let y1: Vec<f64> = (0..n).map(|i| y0[i] + h0 * f0[i]).collect();
        let mut f1 = vec![0.0; n];
        rhs.eval(t0 + h0, &y1, &mut f1);
        sol.record_rhs_evals(1);
        let diff: Vec<f64> = (0..n).map(|i| f1[i] - f0[i]).collect();
        let d2 = rms(&diff, &sc) / h0;

        let h1 = if d1.max(d2) <= 1e-15 {
            (h0 * 1e-3).max(1e-6)
        } else {
            (0.01 / d1.max(d2)).powf(1.0 / 5.0)
        };
        // `h0 = 0.01·d0/d1` collapses when the initial state is
        // atol-dominated (|y0| ≈ 0 relative to the dynamics): d0 is then
        // meaningless and `100·h0` can suppress the curvature-based `h1`
        // by tens of orders of magnitude, underflowing the very first
        // step. Never let it suppress `h1` by more than 1000x.
        let h = (100.0 * h0).min(h1);
        let h = if h1.is_finite() && h1 > 0.0 {
            h.max(1e-3 * h1)
        } else {
            h
        };
        (h.min(span), probe_bound || shortens(h, span))
    }
}

/// Whether `h.min(limit)` differs from `h`: `limit` bounds the step (a
/// NaN `h` gives way to any limit).
fn shortens(h: f64, limit: f64) -> bool {
    !(h <= limit)
}

/// Everything the next step attempt reads.
#[derive(Debug, Clone)]
struct StepState {
    t: f64,
    y: Vec<f64>,
    /// Stage derivatives; `k[0] = f(t, y)` carries over (FSAL).
    k: Vec<Vec<f64>>,
    /// The next trial step; `None` until the initial step is chosen,
    /// which may depend on the window's end.
    h: Option<f64>,
    err_prev: f64,
    /// The event functions at `(t, y)`.
    g_prev: Vec<f64>,
    steps: usize,
}

/// Where a later window resumes: the step state before a window's first
/// step that its end shortened, and how much solution and how many
/// event occurrences had been recorded by then.
#[derive(Debug, Clone)]
struct Checkpoint {
    state: StepState,
    mark: SolutionMark,
    occurrences: usize,
}

/// A Dopri45 integration that longer windows extend
/// ([`Dopri45::start`]).
///
/// After [`Self::advance_to`]`(t_end)` returns `Ok`, the run holds
/// bit for bit the solution, counters and occurrences that a fresh
/// [`Dopri45::integrate_with_events`] to `t_end` returns. Each window
/// clips its last steps to land on its end, so the run keeps the state
/// from before the window's first clipped step (before the initial step
/// when the end bounded that) and the next window rewinds to it: every
/// step before it is taken once over all windows.
pub struct Dopri45Run<'a, R> {
    solver: &'a Dopri45,
    rhs: R,
    events: &'a [Event<'a>],
    t0: f64,
    /// End of the last completed window (`t0` before the first).
    t_end: f64,
    sol: OdeSolution,
    occurrences: Vec<EventOccurrence>,
    /// Where the next window starts; `None` once a terminal event
    /// stopped a window before any clipped step, which every longer
    /// window repeats.
    resume: Option<Checkpoint>,
    /// Right-hand-side evaluations of rewound tails and failed windows.
    rewound_rhs_evals: usize,
}

impl<R: OdeRhs> Dopri45Run<'_, R> {
    /// Integrates on to `t_end`, no earlier than the last window's end.
    /// Returns whether a terminal event stopped the integration; once
    /// one has, the solution ends at the crossing, as a fresh run's
    /// would.
    ///
    /// # Errors
    ///
    /// As for [`Dopri45::integrate`], plus
    /// [`NumericsError::InvalidInput`] for an end before the last
    /// window's. A failed window leaves the run as the last completed
    /// window left it.
    pub fn advance_to(&mut self, t_end: f64) -> Result<bool> {
        let t0 = self.t0;
        if !(t_end - t0).is_finite() || t_end <= t0 {
            return Err(NumericsError::InvalidInput(format!(
                "integration interval [{t0}, {t_end}] must be finite and increasing"
            )));
        }
        if t_end < self.t_end {
            return Err(NumericsError::InvalidInput(format!(
                "window end {t_end} precedes the last window's end {}",
                self.t_end
            )));
        }
        let Some(from) = self.resume.take() else {
            return Ok(true);
        };
        // The last window's tail stays aside until this window completes.
        let tail = self.sol.split_off(from.mark);
        let tail_events = self.occurrences.split_off(from.occurrences);
        match self.step_window(&from, t_end) {
            Ok((stopped, resume)) => {
                self.rewound_rhs_evals += tail.rhs_evaluations();
                self.t_end = t_end;
                self.resume = resume;
                Ok(stopped)
            }
            Err(e) => {
                self.rewound_rhs_evals += self.sol.split_off(from.mark).rhs_evaluations();
                self.sol.append(tail);
                self.occurrences.truncate(from.occurrences);
                self.occurrences.extend(tail_events);
                self.resume = Some(from);
                Err(e)
            }
        }
    }

    /// The trajectory of the last completed window.
    #[must_use]
    pub fn solution(&self) -> &OdeSolution {
        &self.sol
    }

    /// The event occurrences of the last completed window, in time
    /// order.
    #[must_use]
    pub fn occurrences(&self) -> &[EventOccurrence] {
        &self.occurrences
    }

    /// Right-hand-side evaluations made so far: the solution's own
    /// count plus those of rewound window tails and failed windows.
    #[must_use]
    pub fn rhs_evaluations(&self) -> usize {
        self.sol.rhs_evaluations() + self.rewound_rhs_evals
    }

    /// The solution and event occurrences (in time order) of the last
    /// completed window.
    #[must_use]
    pub fn into_parts(self) -> (OdeSolution, Vec<EventOccurrence>) {
        (self.sol, self.occurrences)
    }

    /// Steps from `from` to `t_end`, recording nodes and occurrences.
    /// Returns whether a terminal event stopped the window, and where
    /// the next window resumes.
    fn step_window(&mut self, from: &Checkpoint, t_end: f64) -> Result<(bool, Option<Checkpoint>)> {
        let opts = &self.solver.opts;
        let h_max = opts.h_max.unwrap_or(t_end - self.t0);
        let mut s = from.state.clone();
        let n = s.y.len();
        let mut resume = None;
        let mut h = match s.h {
            Some(h) => h,
            None => {
                let (h, bound) = match opts.h_init {
                    Some(h) => (h.min(h_max), opts.h_max.is_none() && shortens(h, h_max)),
                    None => self.solver.initial_step(
                        &self.rhs,
                        s.t,
                        &s.y,
                        &s.k[0],
                        t_end,
                        &mut self.sol,
                    ),
                };
                if bound {
                    resume = Some(from.clone());
                }
                h
            }
        };

        let mut y_new = vec![0.0; n];
        let mut y_stage = vec![0.0; n];

        while s.t < t_end {
            if resume.is_none() && shortens(h, t_end - s.t) {
                resume = Some(Checkpoint {
                    state: StepState {
                        h: Some(h),
                        ..s.clone()
                    },
                    mark: self.sol.mark(),
                    occurrences: self.occurrences.len(),
                });
            }
            if s.steps >= opts.max_steps {
                return Err(NumericsError::NoConvergence {
                    method: "dopri45",
                    iterations: s.steps,
                });
            }
            s.steps += 1;
            h = h.min(t_end - s.t).min(h_max);
            if h <= f64::EPSILON * s.t.abs().max(1.0) {
                return Err(NumericsError::StepSizeUnderflow { t: s.t });
            }

            // Stages 2..7 (k[0] is FSAL from the previous step).
            for st in 1..7 {
                let (done, next) = s.k.split_at_mut(st);
                for i in 0..n {
                    let mut acc = 0.0;
                    for (j, kj) in done.iter().enumerate() {
                        acc += A[st][j] * kj[i];
                    }
                    y_stage[i] = s.y[i] + h * acc;
                }
                self.rhs.eval(s.t + C[st] * h, &y_stage, &mut next[0]);
            }
            self.sol.record_rhs_evals(6);

            // Fifth-order solution and embedded error.
            let mut err_sq = 0.0;
            for i in 0..n {
                let mut y5 = 0.0;
                let mut y4 = 0.0;
                for (st, k) in s.k.iter().enumerate() {
                    y5 += B5[st] * k[i];
                    y4 += B4[st] * k[i];
                }
                y_new[i] = s.y[i] + h * y5;
                let e = h * (y5 - y4);
                let scale = opts.atol + opts.rtol * s.y[i].abs().max(y_new[i].abs());
                err_sq += (e / scale) * (e / scale);
            }
            // A non-finite error estimate (overflow/NaN in a trial stage)
            // must count as a rejection: f64::max ignores NaN, so a naive
            // `.max()` would silently *accept* a poisoned step.
            let err_rms = (err_sq / n as f64).sqrt();
            let err = if err_rms.is_finite() {
                err_rms.max(1.0e-16)
            } else {
                f64::INFINITY
            };

            if err <= 1.0 {
                // Accept. PI controller (Gustafsson): h *= s * err^-a * prev^b.
                let t_new = s.t + h;

                // Event detection over [t, t_new].
                let mut terminal_hit: Option<(f64, Vec<f64>)> = None;
                for (ei, ev) in self.events.iter().enumerate() {
                    let g_hi = (ev.condition)(t_new, &y_new);
                    if ev.direction.matches(s.g_prev[ei], g_hi) {
                        let (te, ye) =
                            locate_crossing(ev, s.t, t_new, &s.y, &y_new, &s.k[0], &s.k[6]);
                        self.occurrences.push(EventOccurrence {
                            label: ev.label.to_string(),
                            t: te,
                            state: ye.clone(),
                        });
                        if ev.terminal {
                            match &terminal_hit {
                                Some((tt, _)) if *tt <= te => {}
                                _ => terminal_hit = Some((te, ye)),
                            }
                        }
                    }
                    s.g_prev[ei] = g_hi;
                }

                if let Some((te, ye)) = terminal_hit {
                    let mut dydt = vec![0.0; n];
                    self.rhs.eval(te, &ye, &mut dydt);
                    self.sol.record_rhs_evals(1);
                    self.sol.record_accept();
                    self.sol.truncate_at(te, ye, dydt);
                    self.occurrences.sort_by(|a, b| a.t.total_cmp(&b.t));
                    return Ok((true, resume));
                }

                s.t = t_new;
                core::mem::swap(&mut s.y, &mut y_new);
                // FSAL: k[6] = f(t+h, y_new) is the next step's k[0].
                s.k.swap(0, 6);
                self.sol.record_accept();
                self.sol.push(s.t, &s.y, &s.k[0]);

                let factor = opts.safety * err.powf(-0.7 / 5.0) * s.err_prev.powf(0.4 / 5.0);
                h *= factor.clamp(0.2, 5.0);
                s.err_prev = err;
            } else {
                self.sol.record_reject();
                h *= (opts.safety * err.powf(-0.2)).clamp(0.1, 0.9);
            }
        }

        self.occurrences.sort_by(|a, b| a.t.total_cmp(&b.t));
        // No step was clipped: a longer window goes on from here.
        let resume = resume.unwrap_or_else(|| Checkpoint {
            state: StepState { h: Some(h), ..s },
            mark: self.sol.mark(),
            occurrences: self.occurrences.len(),
        });
        Ok((false, Some(resume)))
    }
}

fn rms(v: &[f64], scale: &[f64]) -> f64 {
    let s: f64 = v
        .iter()
        .zip(scale)
        .map(|(&x, &sc)| (x / sc) * (x / sc))
        .sum();
    (s / v.len() as f64).sqrt()
}

/// Bisection on the cubic-Hermite interpolant to localise an event crossing.
fn locate_crossing(
    ev: &Event<'_>,
    t_lo: f64,
    t_hi: f64,
    y_lo: &[f64],
    y_hi: &[f64],
    f_lo: &[f64],
    f_hi: &[f64],
) -> (f64, Vec<f64>) {
    let n = y_lo.len();
    let mut buf = vec![0.0; n];
    let mut a = t_lo;
    let mut b = t_hi;
    let mut g_a = (ev.condition)(a, y_lo);
    // 80 bisections: interval shrinks below f64 resolution for any scale.
    for _ in 0..80 {
        let mid = 0.5 * (a + b);
        hermite(mid, t_lo, t_hi, y_lo, y_hi, f_lo, f_hi, &mut buf);
        let g_mid = (ev.condition)(mid, &buf);
        if ev.direction.matches(g_a, g_mid) {
            b = mid;
        } else {
            a = mid;
            g_a = g_mid;
        }
        if (b - a) <= f64::EPSILON * b.abs().max(1.0) {
            break;
        }
    }
    let te = 0.5 * (a + b);
    hermite(te, t_lo, t_hi, y_lo, y_hi, f_lo, f_hi, &mut buf);
    (te, buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ode::CrossingDirection;

    #[test]
    fn exponential_decay_high_accuracy() {
        let sol = Dopri45::new(OdeOptions::with_tolerances(1e-12, 1e-14))
            .integrate(
                |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0],
                0.0,
                &[1.0],
                5.0,
            )
            .unwrap();
        assert!((sol.final_state()[0] - (-5.0f64).exp()).abs() < 1e-11);
    }

    #[test]
    fn harmonic_oscillator_energy_conserved() {
        let rhs = |_t: f64, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = -y[0];
        };
        let sol = Dopri45::new(OdeOptions::with_tolerances(1e-10, 1e-12))
            .integrate(rhs, 0.0, &[1.0, 0.0], 20.0 * core::f64::consts::PI)
            .unwrap();
        let [x, v] = [sol.final_state()[0], sol.final_state()[1]];
        assert!((x * x + v * v - 1.0).abs() < 1e-6);
        assert!((x - 1.0).abs() < 1e-5, "x = {x}");
    }

    #[test]
    fn stiff_like_decay_does_not_underflow() {
        // Fast transient followed by slow drift; DP45 must survive via small
        // steps (a stiffness ablation for the device transient).
        let rhs = |_t: f64, y: &[f64], d: &mut [f64]| d[0] = -1e6 * (y[0] - 1.0);
        let sol = Dopri45::new(OdeOptions::with_tolerances(1e-6, 1e-9))
            .integrate(rhs, 0.0, &[0.0], 1e-3)
            .unwrap();
        assert!((sol.final_state()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn event_is_localised_accurately() {
        // y' = 1, event at y = 2.5.
        let ev = Event {
            label: "hit",
            condition: &|_t, y: &[f64]| y[0] - 2.5,
            direction: CrossingDirection::Rising,
            terminal: true,
        };
        let (sol, hits) = Dopri45::new(OdeOptions::default())
            .integrate_with_events(
                |_t, _y: &[f64], d: &mut [f64]| d[0] = 1.0,
                0.0,
                &[0.0],
                10.0,
                &[ev],
            )
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert!((hits[0].t - 2.5).abs() < 1e-9);
        assert!((sol.final_time() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn non_terminal_events_do_not_stop_integration() {
        let ev = Event {
            label: "osc-zero",
            condition: &|_t, y: &[f64]| y[0],
            direction: CrossingDirection::Any,
            terminal: false,
        };
        let rhs = |_t: f64, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = -y[0];
        };
        let (sol, hits) = Dopri45::new(OdeOptions::with_tolerances(1e-10, 1e-12))
            .integrate_with_events(rhs, 0.0, &[1.0, 0.0], 10.0, &[ev])
            .unwrap();
        // cos t has zeros at π/2 and 3π/2, 5π/2 within [0, 10].
        assert_eq!(hits.len(), 3);
        assert!((hits[0].t - core::f64::consts::FRAC_PI_2).abs() < 1e-7);
        assert!((sol.final_time() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_interval() {
        let r = Dopri45::new(OdeOptions::default()).integrate(
            |_t, _y: &[f64], d: &mut [f64]| d[0] = 0.0,
            1.0,
            &[0.0],
            1.0,
        );
        assert!(matches!(r, Err(NumericsError::InvalidInput(_))));
    }

    #[test]
    fn rejects_empty_state() {
        let r = Dopri45::new(OdeOptions::default()).integrate(
            |_t, _y: &[f64], _d: &mut [f64]| {},
            0.0,
            &[],
            1.0,
        );
        assert!(matches!(r, Err(NumericsError::InvalidInput(_))));
    }

    #[test]
    fn max_steps_is_enforced() {
        let opts = OdeOptions {
            max_steps: 3,
            ..OdeOptions::default()
        };
        let r = Dopri45::new(opts).integrate(
            |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0],
            0.0,
            &[1.0],
            1.0e6,
        );
        assert!(matches!(r, Err(NumericsError::NoConvergence { .. })));
    }

    #[test]
    fn tighter_tolerance_reduces_error() {
        let rhs = |t: f64, _y: &[f64], d: &mut [f64]| d[0] = t.cos();
        let loose = Dopri45::new(OdeOptions::with_tolerances(1e-4, 1e-6))
            .integrate(rhs, 0.0, &[0.0], 10.0)
            .unwrap();
        let tight = Dopri45::new(OdeOptions::with_tolerances(1e-12, 1e-14))
            .integrate(rhs, 0.0, &[0.0], 10.0)
            .unwrap();
        let exact = 10.0f64.sin();
        let e_loose = (loose.final_state()[0] - exact).abs();
        let e_tight = (tight.final_state()[0] - exact).abs();
        assert!(e_tight <= e_loose);
        assert!(e_tight < 1e-10);
    }

    #[test]
    fn nan_producing_overshoot_is_rejected_not_accepted() {
        // Reproduction of the device-transient failure: an oversized
        // trial step drives the intermediate stages into a region where
        // the RHS overflows to NaN. f64::max ignores NaN, so a naive
        // error test would silently *accept* the poisoned step. The
        // solver must instead reject and shrink.
        let rhs = |_t: f64, y: &[f64], d: &mut [f64]| {
            d[0] = if y[0].abs() > 100.0 {
                f64::NAN
            } else {
                -1.0e6 * y[0]
            };
        };
        let opts = OdeOptions {
            h_init: Some(1.0e-3), // ~1000x the stable step for λ = 1e6
            ..OdeOptions::with_tolerances(1e-8, 1e-10)
        };
        let sol = Dopri45::new(opts)
            .integrate(rhs, 0.0, &[1.0], 1.0e-3)
            .unwrap();
        let y = sol.final_state()[0];
        assert!(y.is_finite(), "solution must stay finite, got {y}");
        assert!(y.abs() < 1e-10, "fast decay must reach ~0, got {y}");
        assert!(
            sol.rejected_steps() > 0,
            "the oversized step must be rejected"
        );
    }

    #[test]
    fn atol_dominated_initial_state_does_not_underflow() {
        // Regression: an initial state that is nonzero but far below the
        // dynamics scale (|y0|·rtol << atol) must not collapse the
        // automatic initial step (observed as StepSizeUnderflow at t = 0
        // when erasing a flash cell holding 1e-12 stray electrons).
        let rhs = |_t: f64, y: &[f64], d: &mut [f64]| d[0] = 5.6e6 * (1.0 - y[0]);
        let sol = Dopri45::new(OdeOptions::with_tolerances(1e-8, 1e-10))
            .integrate(rhs, 0.0, &[-5.6e-14], 1e-4)
            .unwrap();
        assert!((sol.final_state()[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn solver_statistics_are_recorded() {
        let sol = Dopri45::new(OdeOptions::default())
            .integrate(
                |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0],
                0.0,
                &[1.0],
                1.0,
            )
            .unwrap();
        assert!(sol.accepted_steps() > 0);
        assert!(sol.rhs_evaluations() >= 6 * sol.accepted_steps());
        assert_eq!(sol.len(), sol.accepted_steps() + 1);
    }
}
