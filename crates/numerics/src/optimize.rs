//! Derivative-free minimisation: golden-section (1-D) and Nelder–Mead
//! (N-D).
//!
//! Powers `gnr-flash::optimize`, the realisation of the paper's §V future
//! work ("optimizing the supply voltage, tunneling current density and
//! oxide thickness for optimum performance"). FN objectives are smooth
//! but wildly scaled, so derivative-free methods are the right tool.
//!
//! # Example
//!
//! ```
//! use gnr_numerics::optimize::golden_section;
//!
//! let m = golden_section(|x| (x - 2.0) * (x - 2.0) + 1.0, 0.0, 5.0, 1e-10, 200)
//!     .unwrap();
//! // Comparison-based search resolves a quadratic minimum to ~sqrt(eps).
//! assert!((m.x - 2.0).abs() < 1e-6);
//! assert!((m.value - 1.0).abs() < 1e-12);
//! ```

use crate::{NumericsError, Result};

/// A located minimum.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Minimum {
    /// Abscissa of the minimum.
    pub x: f64,
    /// Objective value at the minimum.
    pub value: f64,
    /// Iterations used.
    pub iterations: usize,
}

/// A located minimum in N dimensions.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct MinimumNd {
    /// Coordinates of the minimum.
    pub x: Vec<f64>,
    /// Objective value at the minimum.
    pub value: f64,
    /// Iterations used.
    pub iterations: usize,
}

/// Golden-section search for a unimodal minimum on `[lo, hi]`.
///
/// # Errors
///
/// [`NumericsError::InvalidInput`] for a degenerate interval or
/// non-positive tolerance; [`NumericsError::NoConvergence`] if the
/// interval does not shrink below `tol` within `max_iter`.
pub fn golden_section<F: Fn(f64) -> f64>(
    f: F,
    lo: f64,
    hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<Minimum> {
    if !(lo < hi) {
        return Err(NumericsError::InvalidInput(format!(
            "golden_section requires lo < hi, got [{lo}, {hi}]"
        )));
    }
    if tol <= 0.0 {
        return Err(NumericsError::InvalidInput(
            "tolerance must be positive".into(),
        ));
    }
    const INV_PHI: f64 = 0.618_033_988_749_894_8;
    let mut a = lo;
    let mut b = hi;
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let mut fc = f(c);
    let mut fd = f(d);
    for i in 0..max_iter {
        if (b - a).abs() < tol {
            let x = 0.5 * (a + b);
            return Ok(Minimum {
                x,
                value: f(x),
                iterations: i,
            });
        }
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d);
        }
    }
    Err(NumericsError::NoConvergence {
        method: "golden_section",
        iterations: max_iter,
    })
}

/// Nelder–Mead simplex minimisation from a starting point with initial
/// per-coordinate step sizes.
///
/// Standard coefficients (reflect 1, expand 2, contract ½, shrink ½);
/// converges when the simplex's value spread falls below `tol`.
///
/// # Errors
///
/// [`NumericsError::InvalidInput`] for an empty start, mismatched step
/// length or non-positive tolerance; [`NumericsError::NoConvergence`]
/// when `max_iter` is exhausted.
pub fn nelder_mead<F: Fn(&[f64]) -> f64>(
    f: F,
    start: &[f64],
    steps: &[f64],
    tol: f64,
    max_iter: usize,
) -> Result<MinimumNd> {
    let n = start.len();
    if n == 0 {
        return Err(NumericsError::InvalidInput("empty start point".into()));
    }
    if steps.len() != n {
        return Err(NumericsError::InvalidInput(format!(
            "steps length {} does not match dimension {n}",
            steps.len()
        )));
    }
    if tol <= 0.0 {
        return Err(NumericsError::InvalidInput(
            "tolerance must be positive".into(),
        ));
    }

    // Initial simplex: start + per-coordinate offsets.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n + 1);
    simplex.push((start.to_vec(), f(start)));
    for i in 0..n {
        let mut p = start.to_vec();
        p[i] += steps[i];
        let v = f(&p);
        simplex.push((p, v));
    }

    for iter in 0..max_iter {
        simplex.sort_by(|a, b| a.1.total_cmp(&b.1));
        let best = simplex[0].1;
        let worst = simplex[n].1;
        if (worst - best).abs() <= tol * (1.0 + best.abs()) {
            return Ok(MinimumNd {
                x: simplex[0].0.clone(),
                value: best,
                iterations: iter,
            });
        }

        // Centroid of all but the worst vertex.
        let mut centroid = vec![0.0; n];
        for (p, _) in simplex.iter().take(n) {
            for (ci, pi) in centroid.iter_mut().zip(p) {
                *ci += pi / n as f64;
            }
        }
        let worst_point = simplex[n].0.clone();
        let second_worst = simplex[n - 1].1;

        let blend = |alpha: f64| -> Vec<f64> {
            centroid
                .iter()
                .zip(&worst_point)
                .map(|(&c, &w)| c + alpha * (c - w))
                .collect()
        };

        // Reflect.
        let reflected = blend(1.0);
        let fr = f(&reflected);
        if fr < best {
            // Expand.
            let expanded = blend(2.0);
            let fe = f(&expanded);
            simplex[n] = if fe < fr {
                (expanded, fe)
            } else {
                (reflected, fr)
            };
            continue;
        }
        if fr < second_worst {
            simplex[n] = (reflected, fr);
            continue;
        }
        // Contract (outside if reflection helped over worst, else inside).
        let contracted = if fr < worst { blend(0.5) } else { blend(-0.5) };
        let fco = f(&contracted);
        if fco < worst.min(fr) {
            simplex[n] = (contracted, fco);
            continue;
        }
        // Shrink toward the best vertex.
        let best_point = simplex[0].0.clone();
        for entry in simplex.iter_mut().skip(1) {
            for (pi, bi) in entry.0.iter_mut().zip(&best_point) {
                *pi = bi + 0.5 * (*pi - bi);
            }
            entry.1 = f(&entry.0);
        }
    }
    Err(NumericsError::NoConvergence {
        method: "nelder_mead",
        iterations: max_iter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_section_quadratic() {
        let m = golden_section(|x| (x - 3.0).powi(2), -10.0, 10.0, 1e-10, 200).unwrap();
        assert!((m.x - 3.0).abs() < 1e-8);
    }

    #[test]
    fn golden_section_asymmetric_function() {
        // Minimum of x·exp(x) on [-5, 2] is at x = -1. Comparison-based
        // search is noise-limited to ~sqrt(eps) near a quadratic minimum.
        let m = golden_section(|x: f64| x * x.exp(), -5.0, 2.0, 1e-12, 300).unwrap();
        assert!((m.x + 1.0).abs() < 1e-6, "x = {}", m.x);
    }

    #[test]
    fn golden_section_validates_input() {
        assert!(golden_section(|x| x, 1.0, 0.0, 1e-8, 100).is_err());
        assert!(golden_section(|x| x, 0.0, 1.0, -1.0, 100).is_err());
    }

    #[test]
    fn nelder_mead_rosenbrock() {
        let rosen = |p: &[f64]| {
            let (x, y) = (p[0], p[1]);
            (1.0 - x).powi(2) + 100.0 * (y - x * x).powi(2)
        };
        let m = nelder_mead(rosen, &[-1.2, 1.0], &[0.5, 0.5], 1e-12, 5000).unwrap();
        assert!((m.x[0] - 1.0).abs() < 1e-4, "x = {:?}", m.x);
        assert!((m.x[1] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn nelder_mead_sphere_3d() {
        let sphere = |p: &[f64]| p.iter().map(|x| x * x).sum::<f64>();
        let m = nelder_mead(sphere, &[3.0, -2.0, 1.0], &[1.0, 1.0, 1.0], 1e-14, 5000).unwrap();
        assert!(m.value < 1e-10);
    }

    #[test]
    fn nelder_mead_validates_input() {
        let f = |p: &[f64]| p[0];
        assert!(nelder_mead(f, &[], &[], 1e-8, 10).is_err());
        assert!(nelder_mead(f, &[1.0], &[1.0, 2.0], 1e-8, 10).is_err());
        assert!(nelder_mead(f, &[1.0], &[1.0], 0.0, 10).is_err());
    }

    #[test]
    fn nelder_mead_exhausts_iterations_on_hard_problem() {
        let rosen = |p: &[f64]| (1.0 - p[0]).powi(2) + 100.0 * (p[1] - p[0] * p[0]).powi(2);
        let r = nelder_mead(rosen, &[-1.2, 1.0], &[0.5, 0.5], 1e-14, 5);
        assert!(matches!(r, Err(NumericsError::NoConvergence { .. })));
    }
}
