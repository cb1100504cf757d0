//! Initial-value ODE solvers.
//!
//! The program/erase charge-balance equation of the paper (Figures 4 and 5)
//! is a one-dimensional but *extremely* nonlinear ODE: the Fowler–Nordheim
//! currents on its right-hand side change by decades as the floating gate
//! charges. The fixed-step [`Rk4`] and the implicit [`Sdirk2`] are kept as
//! validation references; production integration uses the adaptive
//! Dormand–Prince 5(4) pair ([`Dopri45`]) with a PI step-size controller and
//! cubic-Hermite event localisation (the paper's `t_sat`).
//!
//! # Example
//!
//! Locate where a decaying oscillation first crosses zero from above:
//!
//! ```
//! use gnr_numerics::ode::{CrossingDirection, Dopri45, Event, OdeOptions};
//!
//! let rhs = |_t: f64, y: &[f64], dydt: &mut [f64]| {
//!     dydt[0] = y[1];
//!     dydt[1] = -y[0];
//! };
//! let event = Event {
//!     label: "zero crossing",
//!     condition: &|_t, y: &[f64]| y[0],
//!     direction: CrossingDirection::Falling,
//!     terminal: true,
//! };
//! let (sol, hits) = Dopri45::new(OdeOptions::default())
//!     .integrate_with_events(rhs, 0.0, &[1.0, 0.0], 10.0, &[event])
//!     .unwrap();
//! assert!((hits[0].t - core::f64::consts::FRAC_PI_2).abs() < 1e-6);
//! assert!(sol.final_time() <= 10.0);
//! ```

mod dopri45;
mod event;
mod rk4;
mod sdirk2;
mod solution;

pub use dopri45::{Dopri45, Dopri45Run, OdeOptions};
pub use event::{CrossingDirection, Event, EventOccurrence};
pub use rk4::Rk4;
pub use sdirk2::Sdirk2;
pub use solution::OdeSolution;

/// Right-hand side of an ODE system `dy/dt = f(t, y)`.
///
/// Implemented for any closure of signature
/// `Fn(f64, &[f64], &mut [f64])` that writes the derivative into its third
/// argument (the state dimension is taken from the initial condition).
pub trait OdeRhs {
    /// Evaluates the derivative at `(t, y)` into `dydt`.
    ///
    /// `dydt` has the same length as `y`.
    fn eval(&self, t: f64, y: &[f64], dydt: &mut [f64]);
}

impl<F> OdeRhs for F
where
    F: Fn(f64, &[f64], &mut [f64]),
{
    fn eval(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        self(t, y, dydt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both explicit integrators agree on dy/dt = -2y within their accuracy.
    #[test]
    fn integrators_agree_on_linear_decay() {
        let rhs = |_t: f64, y: &[f64], d: &mut [f64]| d[0] = -2.0 * y[0];
        let exact = (-2.0f64).exp();

        let rk4 = Rk4::new(1000).integrate(rhs, 0.0, &[1.0], 1.0).unwrap();
        let adaptive = Dopri45::new(OdeOptions::default())
            .integrate(rhs, 0.0, &[1.0], 1.0)
            .unwrap();

        assert!((rk4.final_state()[0] - exact).abs() < 1e-10);
        assert!((adaptive.final_state()[0] - exact).abs() < 1e-8);
    }

    /// The closure blanket impl satisfies the trait.
    #[test]
    fn closures_are_rhs() {
        fn takes_rhs<R: OdeRhs>(r: R) {
            let mut d = [0.0];
            r.eval(0.0, &[1.0], &mut d);
            assert_eq!(d[0], 1.0);
        }
        takes_rhs(|_t: f64, y: &[f64], d: &mut [f64]| d[0] = y[0]);
    }
}
