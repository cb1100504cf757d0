//! Dense ODE solution storage with cubic-Hermite sampling.

/// The trajectory produced by an ODE integrator.
///
/// Stores every accepted step (time, state, derivative) plus solver
/// statistics. Between stored nodes the state can be [`sampled`](Self::sample)
/// with the third-order cubic Hermite interpolant, which matches the
/// integrator's own local model of the solution.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct OdeSolution {
    times: Vec<f64>,
    states: Vec<Vec<f64>>,
    derivs: Vec<Vec<f64>>,
    n_accepted: usize,
    n_rejected: usize,
    n_rhs_evals: usize,
}

impl OdeSolution {
    /// Creates an empty solution (used internally by integrators).
    pub(crate) fn new() -> Self {
        Self {
            times: Vec::new(),
            states: Vec::new(),
            derivs: Vec::new(),
            n_accepted: 0,
            n_rejected: 0,
            n_rhs_evals: 0,
        }
    }

    pub(crate) fn push(&mut self, t: f64, y: &[f64], dydt: &[f64]) {
        self.times.push(t);
        self.states.push(y.to_vec());
        self.derivs.push(dydt.to_vec());
    }

    pub(crate) fn record_accept(&mut self) {
        self.n_accepted += 1;
    }

    pub(crate) fn record_reject(&mut self) {
        self.n_rejected += 1;
    }

    pub(crate) fn record_rhs_evals(&mut self, n: usize) {
        self.n_rhs_evals += n;
    }

    /// Truncates the trajectory after a terminal event at time `t`,
    /// appending the event state as the final node.
    pub(crate) fn truncate_at(&mut self, t: f64, y: Vec<f64>, dydt: Vec<f64>) {
        while let Some(&last) = self.times.last() {
            if last > t {
                self.times.pop();
                self.states.pop();
                self.derivs.pop();
            } else {
                break;
            }
        }
        self.times.push(t);
        self.states.push(y);
        self.derivs.push(dydt);
    }

    /// Number of stored nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` when no nodes are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Stored node times.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Stored node states (one `Vec` per node).
    #[must_use]
    pub fn states(&self) -> &[Vec<f64>] {
        &self.states
    }

    /// Stored node derivatives.
    #[must_use]
    pub fn derivs(&self) -> &[Vec<f64>] {
        &self.derivs
    }

    /// One state component as a flat column, node by node — the
    /// dense-output extraction used by trajectory caches (which want
    /// contiguous scalar columns, not per-node `Vec`s).
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of range for the state dimension.
    #[must_use]
    pub fn state_column(&self, k: usize) -> Vec<f64> {
        self.states.iter().map(|y| y[k]).collect()
    }

    /// One derivative component as a flat column (see
    /// [`Self::state_column`]).
    ///
    /// # Panics
    ///
    /// Panics when `k` is out of range for the state dimension.
    #[must_use]
    pub fn deriv_column(&self, k: usize) -> Vec<f64> {
        self.derivs.iter().map(|y| y[k]).collect()
    }

    /// The last stored time.
    ///
    /// # Panics
    ///
    /// Panics if the solution is empty.
    #[must_use]
    pub fn final_time(&self) -> f64 {
        *self.times.last().expect("solution has at least one node")
    }

    /// The last stored state.
    ///
    /// # Panics
    ///
    /// Panics if the solution is empty.
    #[must_use]
    pub fn final_state(&self) -> &[f64] {
        self.states.last().expect("solution has at least one node")
    }

    /// Number of accepted integrator steps.
    #[must_use]
    pub fn accepted_steps(&self) -> usize {
        self.n_accepted
    }

    /// Number of rejected (re-tried) integrator steps.
    #[must_use]
    pub fn rejected_steps(&self) -> usize {
        self.n_rejected
    }

    /// Number of right-hand-side evaluations performed.
    #[must_use]
    pub fn rhs_evaluations(&self) -> usize {
        self.n_rhs_evals
    }

    /// Samples the trajectory at time `t` with cubic Hermite interpolation.
    ///
    /// `t` is clamped to the stored time range, so sampling slightly outside
    /// (e.g. plotting grids) is safe.
    ///
    /// # Panics
    ///
    /// Panics if the solution is empty.
    #[must_use]
    pub fn sample(&self, t: f64) -> Vec<f64> {
        assert!(!self.is_empty(), "cannot sample an empty solution");
        let t = t.clamp(self.times[0], self.final_time());
        // Binary search for the bracketing segment.
        let idx = match self
            .times
            .binary_search_by(|probe| probe.partial_cmp(&t).expect("times are finite"))
        {
            Ok(i) => return self.states[i].clone(),
            Err(i) => i,
        };
        let hi = idx.min(self.times.len() - 1).max(1);
        let lo = hi - 1;
        let mut out = vec![0.0; self.states[0].len()];
        hermite(
            t,
            self.times[lo],
            self.times[hi],
            &self.states[lo],
            &self.states[hi],
            &self.derivs[lo],
            &self.derivs[hi],
            &mut out,
        );
        out
    }
}

/// Cubic Hermite interpolation of the state at `t ∈ [t0, t1]`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn hermite(
    t: f64,
    t0: f64,
    t1: f64,
    y0: &[f64],
    y1: &[f64],
    f0: &[f64],
    f1: &[f64],
    out: &mut [f64],
) {
    let h = t1 - t0;
    if h == 0.0 {
        out.copy_from_slice(y1);
        return;
    }
    let s = (t - t0) / h;
    let s2 = s * s;
    let s3 = s2 * s;
    let h00 = 2.0 * s3 - 3.0 * s2 + 1.0;
    let h10 = s3 - 2.0 * s2 + s;
    let h01 = -2.0 * s3 + 3.0 * s2;
    let h11 = s3 - s2;
    for i in 0..out.len() {
        out[i] = h00 * y0[i] + h * h10 * f0[i] + h01 * y1[i] + h * h11 * f1[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cubic_solution() -> OdeSolution {
        // y = t^3 on [0, 2] sampled at 0, 1, 2 with exact derivatives 3t^2.
        let mut sol = OdeSolution::new();
        for &t in &[0.0, 1.0, 2.0] {
            sol.push(t, &[t * t * t], &[3.0 * t * t]);
        }
        sol
    }

    #[test]
    fn hermite_reproduces_cubics_exactly() {
        let sol = cubic_solution();
        for &t in &[0.25, 0.5, 0.75, 1.5, 1.99] {
            let y = sol.sample(t);
            assert!((y[0] - t * t * t).abs() < 1e-12, "t = {t}");
        }
    }

    #[test]
    fn sample_at_node_returns_node() {
        let sol = cubic_solution();
        assert_eq!(sol.sample(1.0), vec![1.0]);
    }

    #[test]
    fn sample_clamps_out_of_range() {
        let sol = cubic_solution();
        assert_eq!(sol.sample(-5.0), vec![0.0]);
        assert_eq!(sol.sample(99.0), vec![8.0]);
    }

    #[test]
    fn columns_extract_per_component() {
        let sol = cubic_solution();
        assert_eq!(sol.state_column(0), vec![0.0, 1.0, 8.0]);
        assert_eq!(sol.deriv_column(0), vec![0.0, 3.0, 12.0]);
    }

    #[test]
    fn truncate_drops_later_nodes() {
        let mut sol = cubic_solution();
        sol.truncate_at(1.2, vec![1.2f64.powi(3)], vec![3.0 * 1.2 * 1.2]);
        assert_eq!(sol.len(), 3); // nodes at 0, 1, 1.2
        assert!((sol.final_time() - 1.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn sampling_empty_solution_panics() {
        let sol = OdeSolution::new();
        let _ = sol.sample(0.0);
    }
}
