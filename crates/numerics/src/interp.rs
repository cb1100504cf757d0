//! One-dimensional interpolation: piecewise linear, natural cubic spline and
//! monotone PCHIP.
//!
//! Used for resampling transient traces onto plotting grids and for table
//! lookups (e.g. GNR band-gap vs ribbon width).
//!
//! # Example
//!
//! ```
//! use gnr_numerics::interp::LinearInterpolator;
//!
//! let li = LinearInterpolator::new(vec![0.0, 1.0, 2.0], vec![0.0, 10.0, 20.0]).unwrap();
//! assert_eq!(li.eval(0.5), 5.0);
//! ```

use crate::{NumericsError, Result};

fn validate_nodes(xs: &[f64], ys: &[f64], min_len: usize) -> Result<()> {
    if xs.len() != ys.len() {
        return Err(NumericsError::InvalidInput(format!(
            "x and y lengths differ: {} vs {}",
            xs.len(),
            ys.len()
        )));
    }
    if xs.len() < min_len {
        return Err(NumericsError::InvalidInput(format!(
            "need at least {min_len} nodes, got {}",
            xs.len()
        )));
    }
    if xs.windows(2).any(|w| w[1] <= w[0]) {
        return Err(NumericsError::InvalidInput(
            "x nodes must be strictly increasing".into(),
        ));
    }
    if xs.iter().chain(ys.iter()).any(|v| !v.is_finite()) {
        return Err(NumericsError::InvalidInput("nodes must be finite".into()));
    }
    Ok(())
}

/// Locates the segment index `i` with `xs[i] <= x < xs[i+1]`, clamped.
fn segment(xs: &[f64], x: f64) -> usize {
    match xs.binary_search_by(|p| p.partial_cmp(&x).expect("finite nodes")) {
        Ok(i) => i.min(xs.len() - 2),
        Err(0) => 0,
        Err(i) if i >= xs.len() => xs.len() - 2,
        Err(i) => i - 1,
    }
}

/// Piecewise-linear interpolation over strictly increasing nodes.
///
/// Evaluation clamps to the end values outside the hull (flat
/// extrapolation), which is the safe behaviour for physical lookup tables.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct LinearInterpolator {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl LinearInterpolator {
    /// Builds the interpolator.
    ///
    /// # Errors
    ///
    /// [`NumericsError::InvalidInput`] for mismatched lengths, fewer than
    /// two nodes, non-increasing or non-finite nodes.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self> {
        validate_nodes(&xs, &ys, 2)?;
        Ok(Self { xs, ys })
    }

    /// Evaluates at `x` (clamped to the node range).
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= *self.xs.last().expect("non-empty") {
            return *self.ys.last().expect("non-empty");
        }
        let i = segment(&self.xs, x);
        let t = (x - self.xs[i]) / (self.xs[i + 1] - self.xs[i]);
        self.ys[i] + t * (self.ys[i + 1] - self.ys[i])
    }

    /// The node abscissae.
    #[must_use]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The node ordinates.
    #[must_use]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }
}

/// Natural cubic spline (second derivative zero at both ends).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CubicSpline {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Second derivatives at the nodes.
    m: Vec<f64>,
}

impl CubicSpline {
    /// Builds a natural cubic spline through the nodes.
    ///
    /// # Errors
    ///
    /// [`NumericsError::InvalidInput`] for mismatched lengths, fewer than
    /// three nodes, non-increasing or non-finite nodes.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self> {
        validate_nodes(&xs, &ys, 3)?;
        let n = xs.len();
        // Solve the tridiagonal system for second derivatives (natural BCs).
        let mut sub = vec![0.0; n];
        let mut diag = vec![0.0; n];
        let mut sup = vec![0.0; n];
        let mut rhs = vec![0.0; n];
        diag[0] = 1.0;
        diag[n - 1] = 1.0;
        for i in 1..n - 1 {
            let h0 = xs[i] - xs[i - 1];
            let h1 = xs[i + 1] - xs[i];
            sub[i] = h0;
            diag[i] = 2.0 * (h0 + h1);
            sup[i] = h1;
            rhs[i] = 6.0 * ((ys[i + 1] - ys[i]) / h1 - (ys[i] - ys[i - 1]) / h0);
        }
        let m = crate::linalg::solve_tridiagonal(&sub, &diag, &sup, &rhs)?;
        Ok(Self { xs, ys, m })
    }

    /// Evaluates at `x` (clamped to the node range).
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let x = x.clamp(self.xs[0], *self.xs.last().expect("non-empty"));
        let i = segment(&self.xs, x);
        let h = self.xs[i + 1] - self.xs[i];
        let a = (self.xs[i + 1] - x) / h;
        let b = (x - self.xs[i]) / h;
        a * self.ys[i]
            + b * self.ys[i + 1]
            + ((a * a * a - a) * self.m[i] + (b * b * b - b) * self.m[i + 1]) * h * h / 6.0
    }
}

/// Monotone piecewise-cubic Hermite interpolation (Fritsch–Carlson).
///
/// Preserves monotonicity of the data — important when resampling the
/// strictly decreasing `Jin(t)` / increasing `Jout(t)` traces of Figure 5 so
/// that no spurious oscillation creates a fake crossing.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Pchip {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Node derivatives.
    d: Vec<f64>,
}

impl Pchip {
    /// Builds the monotone interpolant.
    ///
    /// # Errors
    ///
    /// [`NumericsError::InvalidInput`] for mismatched lengths, fewer than
    /// two nodes, non-increasing or non-finite nodes.
    pub fn new(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self> {
        validate_nodes(&xs, &ys, 2)?;
        let n = xs.len();
        let mut delta = vec![0.0; n - 1];
        for i in 0..n - 1 {
            delta[i] = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i]);
        }
        let mut d = vec![0.0; n];
        if n == 2 {
            d[0] = delta[0];
            d[1] = delta[0];
        } else {
            d[0] = end_slope(xs[1] - xs[0], xs[2] - xs[1], delta[0], delta[1]);
            d[n - 1] = end_slope(
                xs[n - 1] - xs[n - 2],
                xs[n - 2] - xs[n - 3],
                delta[n - 2],
                delta[n - 3],
            );
            for i in 1..n - 1 {
                if delta[i - 1] * delta[i] <= 0.0 {
                    d[i] = 0.0;
                } else {
                    let h0 = xs[i] - xs[i - 1];
                    let h1 = xs[i + 1] - xs[i];
                    let w1 = 2.0 * h1 + h0;
                    let w2 = h1 + 2.0 * h0;
                    d[i] = (w1 + w2) / (w1 / delta[i - 1] + w2 / delta[i]);
                }
            }
        }
        Ok(Self { xs, ys, d })
    }

    /// Evaluates at `x` (clamped to the node range).
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let x = x.clamp(self.xs[0], *self.xs.last().expect("non-empty"));
        let i = segment(&self.xs, x);
        let h = self.xs[i + 1] - self.xs[i];
        let t = (x - self.xs[i]) / h;
        let t2 = t * t;
        let t3 = t2 * t;
        let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
        let h10 = t3 - 2.0 * t2 + t;
        let h01 = -2.0 * t3 + 3.0 * t2;
        let h11 = t3 - t2;
        h00 * self.ys[i] + h * h10 * self.d[i] + h01 * self.ys[i + 1] + h * h11 * self.d[i + 1]
    }
}

/// Scalar cubic Hermite evaluation on one segment `[t0, t1]` with node
/// values `y0, y1` and node derivatives `d0, d1` — the dense-output
/// interpolant of the adaptive ODE solvers, exposed so trajectory caches
/// (e.g. the charge-balance flow map) can sample stored solutions
/// without re-integrating. A degenerate segment (`t1 == t0`) returns
/// `y1`.
#[must_use]
pub fn hermite_segment(t: f64, t0: f64, t1: f64, y0: f64, y1: f64, d0: f64, d1: f64) -> f64 {
    let h = t1 - t0;
    if h == 0.0 {
        return y1;
    }
    let s = (t - t0) / h;
    let s2 = s * s;
    let s3 = s2 * s;
    let h00 = 2.0 * s3 - 3.0 * s2 + 1.0;
    let h10 = s3 - 2.0 * s2 + s;
    let h01 = -2.0 * s3 + 3.0 * s2;
    let h11 = s3 - s2;
    h00 * y0 + h * h10 * d0 + h01 * y1 + h * h11 * d1
}

/// Inverse lookup on a monotone Hermite trajectory: the earliest `t`
/// with `y(t) == target`, where `y` is the piecewise cubic Hermite
/// through nodes `(ts, ys)` with derivatives `ds`.
///
/// `ts` must be strictly increasing and `ys` strictly monotone (either
/// direction); the nodes are the accepted steps of an ODE solve, so both
/// hold for a 1-D autonomous flow approaching an equilibrium. Returns
/// `None` when `target` lies outside the trajectory's value range or the
/// inputs are degenerate (fewer than two nodes, mismatched lengths).
///
/// Within the bracketing segment the crossing is localised by a guarded
/// Newton iteration on the Hermite interpolant (bisection fallback), which
/// needs only continuity and the node-value bracket and converges to f64
/// resolution in a handful of value+derivative evaluations.
#[must_use]
pub fn invert_monotone_hermite(ts: &[f64], ys: &[f64], ds: &[f64], target: f64) -> Option<f64> {
    if ts.len() < 2 || ts.len() != ys.len() || ts.len() != ds.len() {
        return None;
    }
    let first = ys[0];
    let last = *ys.last().expect("non-empty");
    // Orientation: map values onto an increasing axis.
    let sign = if last > first {
        1.0
    } else if last < first {
        -1.0
    } else {
        return None;
    };
    let tv = sign * target;
    if tv < sign * first || tv > sign * last {
        return None;
    }
    // Bracketing segment on the monotone node values.
    let idx =
        match ys.binary_search_by(|probe| (sign * probe).partial_cmp(&tv).expect("finite nodes")) {
            Ok(i) => return Some(ts[i]),
            Err(i) => i,
        };
    let hi = idx.min(ys.len() - 1).max(1);
    let lo = hi - 1;
    Some(invert_hermite_segment(
        ts[lo], ts[hi], ys[lo], ys[hi], ds[lo], ds[hi], target,
    ))
}

/// Inverse lookup on one monotone Hermite segment `[t0, t1]`: the `t`
/// with `y(t) == target`, localised by the same guarded Newton–bisection
/// hybrid as [`invert_monotone_hermite`] — which delegates here, so batched
/// callers that find the bracketing segment themselves (e.g. a sorted-query
/// merge walk over a trajectory) produce bit-identical results to the
/// scalar binary-search path. The caller must supply a segment whose node
/// values bracket `target`; on strictly monotone data the segment-local
/// orientation `y1 > y0` equals the trajectory-global one.
///
/// The iteration runs in the normalised coordinate `s ∈ [0, 1]` so the
/// cubic and its derivative cost one Horner pass each. A Newton step that
/// lands outside the current sign-change bracket (or divides by a vanishing
/// slope) is replaced by the bracket midpoint, so convergence never regresses
/// below bisection even on locally flat or slightly non-monotone segments.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn invert_hermite_segment(
    t0: f64,
    t1: f64,
    y0: f64,
    y1: f64,
    d0: f64,
    d1: f64,
    target: f64,
) -> f64 {
    let sign = if y1 > y0 { 1.0 } else { -1.0 };
    let tv = sign * target;
    let h = t1 - t0;
    // Hermite basis in the normalised coordinate s = (t - t0) / h.
    let val = |s: f64| {
        let s2 = s * s;
        let s3 = s2 * s;
        (2.0 * s3 - 3.0 * s2 + 1.0) * y0
            + h * (s3 - 2.0 * s2 + s) * d0
            + (3.0 * s2 - 2.0 * s3) * y1
            + h * (s3 - s2) * d1
    };
    let slope = |s: f64| {
        let s2 = s * s;
        (6.0 * s2 - 6.0 * s) * y0
            + h * (3.0 * s2 - 4.0 * s + 1.0) * d0
            + (6.0 * s - 6.0 * s2) * y1
            + h * (3.0 * s2 - 2.0 * s) * d1
    };
    // Invariant: g(a) and g(b) straddle zero on the sign-adjusted axis.
    let (mut a, mut b) = (0.0_f64, 1.0_f64);
    let mut s = 0.5;
    for _ in 0..64 {
        let g = sign * val(s) - tv;
        if g < 0.0 {
            a = s;
        } else if g > 0.0 {
            b = s;
        } else {
            return t0 + s * h;
        }
        let newton = s - g / (sign * slope(s));
        // NaN/inf and out-of-bracket steps all fail this test, falling
        // back to the bracket midpoint.
        let next = if newton > a && newton < b {
            newton
        } else {
            0.5 * (a + b)
        };
        if (next - s).abs() <= f64::EPSILON * next.abs() {
            return t0 + next * h;
        }
        s = next;
        if (b - a) <= f64::EPSILON {
            break;
        }
    }
    t0 + s * h
}

/// Fritsch–Carlson one-sided three-point end slope with monotonicity guard.
fn end_slope(h0: f64, h1: f64, d0: f64, d1: f64) -> f64 {
    let s = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1);
    if s * d0 <= 0.0 {
        0.0
    } else if d0 * d1 < 0.0 && s.abs() > 3.0 * d0.abs() {
        3.0 * d0
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_hits_nodes_and_midpoints() {
        let li = LinearInterpolator::new(vec![0.0, 2.0, 4.0], vec![1.0, 3.0, -1.0]).unwrap();
        assert_eq!(li.eval(0.0), 1.0);
        assert_eq!(li.eval(2.0), 3.0);
        assert_eq!(li.eval(1.0), 2.0);
        assert_eq!(li.eval(3.0), 1.0);
    }

    #[test]
    fn linear_clamps_outside_hull() {
        let li = LinearInterpolator::new(vec![0.0, 1.0], vec![5.0, 6.0]).unwrap();
        assert_eq!(li.eval(-10.0), 5.0);
        assert_eq!(li.eval(10.0), 6.0);
    }

    #[test]
    fn rejects_unsorted_nodes() {
        assert!(LinearInterpolator::new(vec![0.0, 0.0], vec![1.0, 2.0]).is_err());
        assert!(LinearInterpolator::new(vec![1.0, 0.0], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn rejects_nan_nodes() {
        assert!(LinearInterpolator::new(vec![0.0, f64::NAN], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn spline_reproduces_parabola_closely() {
        let xs: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0 * 2.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| x * x).collect();
        let sp = CubicSpline::new(xs, ys).unwrap();
        // Natural BCs distort the ends; check the interior.
        for &x in &[0.5, 0.77, 1.0, 1.3, 1.5] {
            assert!((sp.eval(x) - x * x).abs() < 2e-3, "x = {x}");
        }
    }

    #[test]
    fn spline_interpolates_nodes_exactly() {
        let sp = CubicSpline::new(vec![0.0, 1.0, 2.0, 3.0], vec![1.0, -1.0, 4.0, 2.0]).unwrap();
        for (x, y) in [(0.0, 1.0), (1.0, -1.0), (2.0, 4.0), (3.0, 2.0)] {
            assert!((sp.eval(x) - y).abs() < 1e-12);
        }
    }

    #[test]
    fn pchip_preserves_monotonicity() {
        // Data with a sharp knee that overshoots with an ordinary spline.
        let xs = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = vec![0.0, 0.0, 0.0, 1.0, 1.0];
        let p = Pchip::new(xs, ys).unwrap();
        let mut prev = p.eval(0.0);
        for i in 1..=400 {
            let x = i as f64 / 100.0;
            let y = p.eval(x);
            assert!(y >= prev - 1e-12, "not monotone at x = {x}");
            assert!((-1e-12..=1.0 + 1e-12).contains(&y), "overshoot at x = {x}");
            prev = y;
        }
    }

    #[test]
    fn pchip_two_points_is_linear() {
        let p = Pchip::new(vec![0.0, 2.0], vec![0.0, 4.0]).unwrap();
        assert!((p.eval(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pchip_interpolates_nodes_exactly() {
        let p = Pchip::new(vec![0.0, 1.0, 3.0], vec![2.0, 5.0, 4.0]).unwrap();
        assert!((p.eval(1.0) - 5.0).abs() < 1e-12);
        assert!((p.eval(3.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hermite_segment_reproduces_cubics_exactly() {
        // y = t^3 − 2t on [1, 3]: node values and derivatives exact.
        let f = |t: f64| t * t * t - 2.0 * t;
        let d = |t: f64| 3.0 * t * t - 2.0;
        for &t in &[1.0, 1.3, 2.0, 2.71, 3.0] {
            let y = hermite_segment(t, 1.0, 3.0, f(1.0), f(3.0), d(1.0), d(3.0));
            assert!((y - f(t)).abs() < 1e-12, "t = {t}");
        }
        assert_eq!(hermite_segment(5.0, 2.0, 2.0, 1.0, 7.0, 0.0, 0.0), 7.0);
    }

    /// Exponential-decay trajectory nodes for the inverse-lookup tests.
    fn decay_nodes() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let ts: Vec<f64> = (0..=20).map(|i| f64::from(i) * 0.25).collect();
        let ys: Vec<f64> = ts.iter().map(|&t| (-t).exp()).collect();
        let ds: Vec<f64> = ts.iter().map(|&t| -(-t).exp()).collect();
        (ts, ys, ds)
    }

    #[test]
    fn monotone_inverse_recovers_times() {
        let (ts, ys, ds) = decay_nodes();
        // Tolerance is the cubic-Hermite truncation error of the coarse
        // h = 0.25 node grid (~h⁴/384), not the bisection resolution.
        for &t_true in &[0.1f64, 0.9, 2.3, 4.99] {
            let t = invert_monotone_hermite(&ts, &ys, &ds, (-t_true).exp()).unwrap();
            assert!((t - t_true).abs() < 1e-4, "t = {t} vs {t_true}");
        }
        // Node values return node times exactly.
        assert_eq!(invert_monotone_hermite(&ts, &ys, &ds, ys[4]), Some(ts[4]));
    }

    #[test]
    fn monotone_inverse_handles_increasing_data() {
        let ts: Vec<f64> = (0..=10).map(f64::from).collect();
        let ys: Vec<f64> = ts.iter().map(|&t| t * t + 1.0).collect();
        let ds: Vec<f64> = ts.iter().map(|&t| 2.0 * t).collect();
        let t = invert_monotone_hermite(&ts, &ys, &ds, 26.0).unwrap();
        assert!((t - 5.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn segment_inverse_matches_scalar_path_bitwise() {
        let (ts, ys, ds) = decay_nodes();
        // A strictly interior target on a known segment: the scalar
        // binary search lands on [lo, hi] = [3, 4]; the segment helper
        // fed that same bracket must return the identical bits.
        let target = 0.5 * (ys[3] + ys[4]);
        let scalar = invert_monotone_hermite(&ts, &ys, &ds, target).unwrap();
        let seg = invert_hermite_segment(ts[3], ts[4], ys[3], ys[4], ds[3], ds[4], target);
        assert_eq!(scalar.to_bits(), seg.to_bits());
    }

    #[test]
    fn monotone_inverse_rejects_out_of_range_and_degenerate_input() {
        let (ts, ys, ds) = decay_nodes();
        assert_eq!(invert_monotone_hermite(&ts, &ys, &ds, 2.0), None);
        assert_eq!(invert_monotone_hermite(&ts, &ys, &ds, -0.5), None);
        assert_eq!(
            invert_monotone_hermite(&ts[..1], &ys[..1], &ds[..1], 1.0),
            None
        );
        assert_eq!(invert_monotone_hermite(&ts, &ys[..3], &ds, 0.5), None);
        // Constant data has no invertible direction.
        assert_eq!(
            invert_monotone_hermite(&[0.0, 1.0], &[3.0, 3.0], &[0.0, 0.0], 3.0),
            None
        );
    }
}
