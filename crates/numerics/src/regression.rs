//! Least-squares fitting: ordinary linear regression and polynomial fits.
//!
//! The Fowler–Nordheim plot technique (paper ref. \[9\], Chiou et al. 2001)
//! extracts the tunneling coefficients from the straight line
//! `ln(J/E²) = ln A − B/E`. [`fit_line`] provides the slope/intercept with
//! goodness-of-fit statistics; `gnr-tunneling::fn_plot` builds on it.
//!
//! # Example
//!
//! ```
//! use gnr_numerics::regression::fit_line;
//!
//! let xs = [0.0, 1.0, 2.0, 3.0];
//! let ys = [1.0, 3.0, 5.0, 7.0];
//! let fit = fit_line(&xs, &ys).unwrap();
//! assert!((fit.slope - 2.0).abs() < 1e-12);
//! assert!((fit.intercept - 1.0).abs() < 1e-12);
//! assert!((fit.r_squared - 1.0).abs() < 1e-12);
//! ```

use crate::linalg::Matrix;
use crate::{NumericsError, Result};

/// Result of an ordinary least-squares line fit `y = intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination R².
    pub r_squared: f64,
    /// Standard error of the slope estimate.
    pub slope_stderr: f64,
    /// Standard error of the intercept estimate.
    pub intercept_stderr: f64,
}

impl LinearFit {
    /// Predicts `y` at `x`.
    #[must_use]
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Ordinary least-squares fit of a straight line.
///
/// # Errors
///
/// [`NumericsError::InvalidInput`] for fewer than two points, mismatched
/// lengths, non-finite data, or degenerate (constant) abscissae.
pub fn fit_line(xs: &[f64], ys: &[f64]) -> Result<LinearFit> {
    if xs.len() != ys.len() {
        return Err(NumericsError::InvalidInput(format!(
            "x and y lengths differ: {} vs {}",
            xs.len(),
            ys.len()
        )));
    }
    let n = xs.len();
    if n < 2 {
        return Err(NumericsError::InvalidInput(
            "need at least two points".into(),
        ));
    }
    if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
        return Err(NumericsError::InvalidInput("data must be finite".into()));
    }
    let nf = n as f64;
    let mean_x = xs.iter().sum::<f64>() / nf;
    let mean_y = ys.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mean_x;
        let dy = ys[i] - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    if sxx == 0.0 {
        return Err(NumericsError::InvalidInput(
            "abscissae are constant; slope is undefined".into(),
        ));
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;

    // Residual variance and standard errors.
    let ss_res: f64 = (0..n)
        .map(|i| {
            let r = ys[i] - (intercept + slope * xs[i]);
            r * r
        })
        .sum();
    let r_squared = if syy == 0.0 { 1.0 } else { 1.0 - ss_res / syy };
    let dof = (n as i64 - 2).max(1) as f64;
    let sigma2 = ss_res / dof;
    let slope_stderr = (sigma2 / sxx).sqrt();
    let intercept_stderr = (sigma2 * (1.0 / nf + mean_x * mean_x / sxx)).sqrt();

    Ok(LinearFit {
        slope,
        intercept,
        r_squared,
        slope_stderr,
        intercept_stderr,
    })
}

/// Least-squares polynomial fit of the given `degree`; returns coefficients
/// lowest power first (`c[0] + c[1] x + …`).
///
/// Solved via the normal equations with the dense LU solver — adequate for
/// the small degrees used in device-curve fitting.
///
/// # Errors
///
/// [`NumericsError::InvalidInput`] when fewer than `degree + 1` points are
/// given or data is non-finite; [`NumericsError::SingularMatrix`] for
/// degenerate abscissae.
pub fn polyfit(xs: &[f64], ys: &[f64], degree: usize) -> Result<Vec<f64>> {
    if xs.len() != ys.len() {
        return Err(NumericsError::InvalidInput(format!(
            "x and y lengths differ: {} vs {}",
            xs.len(),
            ys.len()
        )));
    }
    if xs.len() < degree + 1 {
        return Err(NumericsError::InvalidInput(format!(
            "need at least {} points for degree {degree}",
            degree + 1
        )));
    }
    if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
        return Err(NumericsError::InvalidInput("data must be finite".into()));
    }
    let m = degree + 1;
    // Normal equations: (VᵀV) c = Vᵀ y with Vandermonde V.
    let mut ata = Matrix::zeros(m, m);
    let mut aty = vec![0.0; m];
    for (&x, &y) in xs.iter().zip(ys) {
        let mut powers = vec![1.0; m];
        for p in 1..m {
            powers[p] = powers[p - 1] * x;
        }
        for i in 0..m {
            aty[i] += powers[i] * y;
            for j in 0..m {
                ata.set(i, j, ata.get(i, j) + powers[i] * powers[j]);
            }
        }
    }
    ata.solve(&aty)
}

/// Evaluates a polynomial with coefficients lowest power first (Horner).
#[must_use]
pub fn polyval(coeffs: &[f64], x: f64) -> f64 {
    coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line_has_unit_r_squared() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| -3.0 * x + 7.0).collect();
        let fit = fit_line(&xs, &ys).unwrap();
        assert!((fit.slope + 3.0).abs() < 1e-12);
        assert!((fit.intercept - 7.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!(fit.slope_stderr < 1e-10);
    }

    #[test]
    fn noisy_line_recovers_slope() {
        // Deterministic pseudo-noise.
        let xs: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| 2.0 * x + 1.0 + 0.01 * ((i * 2654435761) % 100) as f64 / 100.0)
            .collect();
        let fit = fit_line(&xs, &ys).unwrap();
        assert!((fit.slope - 2.0).abs() < 0.01);
        assert!(fit.r_squared > 0.999);
    }

    #[test]
    fn constant_x_rejected() {
        assert!(fit_line(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn mismatched_lengths_rejected() {
        assert!(fit_line(&[1.0], &[1.0, 2.0]).is_err());
        assert!(polyfit(&[1.0], &[1.0, 2.0], 1).is_err());
    }

    #[test]
    fn polyfit_recovers_cubic() {
        let xs: Vec<f64> = (-5..=5).map(f64::from).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| 1.0 - 2.0 * x + 0.5 * x * x * x)
            .collect();
        let c = polyfit(&xs, &ys, 3).unwrap();
        let expect = [1.0, -2.0, 0.0, 0.5];
        for (ci, ei) in c.iter().zip(&expect) {
            assert!((ci - ei).abs() < 1e-9, "{c:?}");
        }
    }

    #[test]
    fn polyval_matches_horner_expansion() {
        let c = [1.0, -2.0, 3.0];
        assert!((polyval(&c, 2.0) - (1.0 - 4.0 + 12.0)).abs() < 1e-14);
    }

    #[test]
    fn underdetermined_polyfit_rejected() {
        assert!(polyfit(&[0.0, 1.0], &[1.0, 2.0], 2).is_err());
    }

    #[test]
    fn predict_is_affine() {
        let fit = fit_line(&[0.0, 1.0], &[1.0, 2.0]).unwrap();
        assert!((fit.predict(10.0) - 11.0).abs() < 1e-12);
    }
}
