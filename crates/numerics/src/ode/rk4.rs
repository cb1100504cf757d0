//! Classical fixed-step fourth-order Runge–Kutta.

use crate::ode::solution::OdeSolution;
use crate::ode::OdeRhs;
use crate::{NumericsError, Result};

/// The classical fourth-order Runge–Kutta method with a fixed step count.
///
/// A fixed-step cross-check of the adaptive
/// [`Dopri45`](crate::ode::Dopri45), which integrates the device transients.
///
/// # Example
///
/// ```
/// use gnr_numerics::ode::Rk4;
///
/// let sol = Rk4::new(100)
///     .integrate(|_t, y: &[f64], d: &mut [f64]| d[0] = y[0], 0.0, &[1.0], 1.0)
///     .unwrap();
/// assert!((sol.final_state()[0] - 1.0f64.exp()).abs() < 1e-8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rk4 {
    steps: usize,
}

impl Rk4 {
    /// Creates an integrator that takes exactly `steps` equal steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    #[must_use]
    pub fn new(steps: usize) -> Self {
        assert!(steps > 0, "Rk4 requires at least one step");
        Self { steps }
    }

    /// Integrates `dy/dt = rhs(t, y)` from `(t0, y0)` to `t_end`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidInput`] for an empty state or a
    /// non-increasing interval.
    pub fn integrate<R: OdeRhs>(
        &self,
        rhs: R,
        t0: f64,
        y0: &[f64],
        t_end: f64,
    ) -> Result<OdeSolution> {
        if y0.is_empty() {
            return Err(NumericsError::InvalidInput("empty initial state".into()));
        }
        if !(t_end - t0).is_finite() || t_end <= t0 {
            return Err(NumericsError::InvalidInput(format!(
                "integration interval [{t0}, {t_end}] must be finite and increasing"
            )));
        }
        let n = y0.len();
        let h = (t_end - t0) / self.steps as f64;

        let mut sol = OdeSolution::new();
        let mut t = t0;
        let mut y = y0.to_vec();
        let mut k1 = vec![0.0; n];
        let mut k2 = vec![0.0; n];
        let mut k3 = vec![0.0; n];
        let mut k4 = vec![0.0; n];
        let mut tmp = vec![0.0; n];

        rhs.eval(t, &y, &mut k1);
        sol.record_rhs_evals(1);
        sol.push(t, &y, &k1);

        for step in 0..self.steps {
            for i in 0..n {
                tmp[i] = y[i] + 0.5 * h * k1[i];
            }
            rhs.eval(t + 0.5 * h, &tmp, &mut k2);
            for i in 0..n {
                tmp[i] = y[i] + 0.5 * h * k2[i];
            }
            rhs.eval(t + 0.5 * h, &tmp, &mut k3);
            for i in 0..n {
                tmp[i] = y[i] + h * k3[i];
            }
            rhs.eval(t + h, &tmp, &mut k4);
            for i in 0..n {
                y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
            t = t0 + (step + 1) as f64 * h;
            rhs.eval(t, &y, &mut k1);
            sol.record_rhs_evals(4);
            sol.record_accept();
            sol.push(t, &y, &k1);
        }
        Ok(sol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourth_order_convergence() {
        // Halving the step should reduce the error ~16x for smooth problems.
        let rhs = |t: f64, _y: &[f64], d: &mut [f64]| d[0] = (2.0 * t).sin();
        let exact = 0.5 * (1.0 - 2.0f64.cos());
        let err = |steps: usize| {
            let sol = Rk4::new(steps).integrate(rhs, 0.0, &[0.0], 1.0).unwrap();
            (sol.final_state()[0] - exact).abs()
        };
        let e1 = err(20);
        let e2 = err(40);
        let ratio = e1 / e2;
        assert!(ratio > 12.0 && ratio < 20.0, "observed order ratio {ratio}");
    }

    #[test]
    fn records_every_step() {
        let sol = Rk4::new(10)
            .integrate(|_t, _y: &[f64], d: &mut [f64]| d[0] = 1.0, 0.0, &[0.0], 1.0)
            .unwrap();
        assert_eq!(sol.len(), 11);
        assert_eq!(sol.accepted_steps(), 10);
        assert_eq!(sol.rejected_steps(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_panics() {
        let _ = Rk4::new(0);
    }

    #[test]
    fn two_dimensional_system() {
        let rhs = |_t: f64, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = -y[0];
        };
        let sol = Rk4::new(1000)
            .integrate(rhs, 0.0, &[0.0, 1.0], core::f64::consts::PI)
            .unwrap();
        // sin(π) = 0, cos(π) = -1.
        assert!(sol.final_state()[0].abs() < 1e-9);
        assert!((sol.final_state()[1] + 1.0).abs() < 1e-9);
    }
}
