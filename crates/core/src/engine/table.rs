//! Memoized log-space `J(E)` lookup tables.
//!
//! The FN current `J = A·E²·exp(−B/E)` spans tens of decades over a
//! pulse, but it is a smooth, monotone function of the field, so the
//! engine samples `ln J` on a uniform `ln E` grid once per distinct
//! model and interpolates afterwards. In log-log coordinates the
//! curvature of the FN law is `|d²ln J/d(ln E)²| = B/E`, so the
//! interpolation error is largest at the low-field end and bounded by
//! `(h²/8)·B/E_lo` nats — with the default resolution that is well
//! below 0.1 % relative error everywhere in the table domain (the
//! `tests` here and the workspace-level proptest pin this down).

use std::sync::Arc;

use gnr_numerics::interp::LinearInterpolator;
use gnr_tunneling::TunnelingModel;
use gnr_units::{CurrentDensity, ElectricField};

/// Default number of interpolation nodes.
pub const DEFAULT_NODES: usize = 2048;

/// Hard ceiling of every table domain (V/m) — far beyond any physical
/// oxide field (breakdown is ~1 GV/m).
const E_MAX: f64 = 1.0e11;

/// Lowest field magnitude ever probed when locating the table floor
/// (V/m). Below that, FN current underflows `f64` for any realistic
/// barrier.
const E_PROBE_MIN: f64 = 1.0e6;

/// Current-density floor (A/m²): fields whose current falls below this
/// are left to the exact model (which typically underflows to zero
/// there anyway).
const J_FLOOR: f64 = 1.0e-250;

/// A [`TunnelingModel`] memoized as a log-space lookup table.
///
/// Inside the tabulated field range, `current_density` is two array
/// reads and an `exp`; outside it (tiny fields whose current underflows,
/// or absurdly large fields), the call falls through to the exact inner
/// model, so the table never changes *which* biases conduct.
pub struct TabulatedJ {
    inner: Arc<dyn TunnelingModel>,
    /// `ln J` over uniform `ln E`.
    table: LinearInterpolator,
    /// First node and reciprocal spacing of the uniform `ln E` grid,
    /// which compute a query's segment instead of searching for it.
    ln_lo: f64,
    inv_step: f64,
    e_lo: f64,
    e_hi: f64,
}

impl TabulatedJ {
    /// Tabulates `inner` at the default resolution.
    #[must_use]
    pub fn new(inner: Arc<dyn TunnelingModel>) -> Self {
        Self::with_resolution(inner, DEFAULT_NODES)
    }

    /// Tabulates `inner` with `nodes` log-spaced samples.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 8` or the model conducts nowhere below
    /// the table ceiling.
    #[must_use]
    pub fn with_resolution(inner: Arc<dyn TunnelingModel>, nodes: usize) -> Self {
        assert!(nodes >= 8, "a J(E) table needs at least 8 nodes");

        // Locate the lowest field whose current is representable: probe
        // upward in eighth-decades until the model conducts.
        let mut e_lo = E_PROBE_MIN;
        let step = 10.0f64.powf(0.125);
        while e_lo < E_MAX {
            let j = inner
                .current_density(ElectricField::from_volts_per_meter(e_lo))
                .as_amps_per_square_meter();
            if j > J_FLOOR {
                break;
            }
            e_lo *= step;
        }
        assert!(
            e_lo < E_MAX,
            "tunneling model conducts nowhere below {E_MAX} V/m"
        );

        let (ln_lo, ln_hi) = (e_lo.ln(), E_MAX.ln());
        let h = (ln_hi - ln_lo) / (nodes - 1) as f64;
        let xs: Vec<f64> = (0..nodes).map(|i| ln_lo + h * i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                let j = inner
                    .current_density(ElectricField::from_volts_per_meter(x.exp()))
                    .as_amps_per_square_meter();
                if j > 0.0 {
                    j.ln()
                } else {
                    J_FLOOR.ln()
                }
            })
            .collect();
        let table = LinearInterpolator::new(xs, ys).expect("log grid is strictly increasing");
        Self {
            inner,
            table,
            ln_lo,
            inv_step: 1.0 / h,
            e_lo,
            e_hi: E_MAX,
        }
    }

    /// The tabulated field-magnitude range (V/m); outside it the exact
    /// model is evaluated directly.
    #[must_use]
    pub fn domain(&self) -> (f64, f64) {
        (self.e_lo, self.e_hi)
    }

    /// Number of interpolation nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.table.xs().len()
    }

    /// The exact model backing this table.
    #[must_use]
    pub fn inner(&self) -> &Arc<dyn TunnelingModel> {
        &self.inner
    }

    /// `ln J` at `x = ln E` from the segment the uniform grid computes.
    /// A NaN `x` casts to node 0, and `eval_near` panics on it.
    fn ln_j(&self, x: f64) -> f64 {
        self.table
            .eval_near(x, ((x - self.ln_lo) * self.inv_step) as usize)
    }
}

impl TunnelingModel for TabulatedJ {
    fn current_density(&self, field: ElectricField) -> CurrentDensity {
        let e = field.as_volts_per_meter();
        let mag = e.abs();
        if mag <= self.e_lo || mag >= self.e_hi {
            return self.inner.current_density(field);
        }
        CurrentDensity::from_amps_per_square_meter(e.signum() * self.ln_j(mag.ln()).exp())
    }

    fn name(&self) -> &'static str {
        "tabulated"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnr_tunneling::fn_model::FnModel;
    use gnr_units::{Energy, Mass};

    fn paper_like_model() -> FnModel {
        FnModel::new(Energy::from_ev(3.6), Mass::from_electron_masses(0.42))
    }

    #[test]
    fn table_matches_direct_fn_within_a_tenth_of_a_percent() {
        let exact = paper_like_model();
        let table = TabulatedJ::new(Arc::new(exact));
        // The Figure 6–9 field range: 0.7–3 GV/m.
        for i in 0..500 {
            let e = 7.0e8 + 4.6e6 * f64::from(i);
            let field = ElectricField::from_volts_per_meter(e);
            let j_exact = exact.current_density(field).as_amps_per_square_meter();
            let j_table = table.current_density(field).as_amps_per_square_meter();
            let rel = ((j_table - j_exact) / j_exact).abs();
            assert!(rel < 1.0e-3, "rel err {rel:e} at E = {e:e}");
        }
    }

    #[test]
    fn table_is_odd_in_the_field() {
        let table = TabulatedJ::new(Arc::new(paper_like_model()));
        let field = ElectricField::from_volts_per_meter(1.8e9);
        let fwd = table.current_density(field).as_amps_per_square_meter();
        let rev = table.current_density(-field).as_amps_per_square_meter();
        assert!(fwd > 0.0);
        assert!((fwd + rev).abs() <= 1e-12 * fwd);
    }

    #[test]
    fn zero_and_tiny_fields_fall_through_to_the_exact_model() {
        let table = TabulatedJ::new(Arc::new(paper_like_model()));
        assert_eq!(
            table
                .current_density(ElectricField::from_volts_per_meter(0.0))
                .as_amps_per_square_meter(),
            0.0
        );
        let tiny = ElectricField::from_volts_per_meter(1.0e5);
        assert_eq!(
            table.current_density(tiny).as_amps_per_square_meter(),
            paper_like_model()
                .current_density(tiny)
                .as_amps_per_square_meter()
        );
    }

    #[test]
    fn computed_segment_matches_the_binary_search_bitwise() {
        for nodes in [8, 64, DEFAULT_NODES] {
            let table = TabulatedJ::with_resolution(Arc::new(paper_like_model()), nodes);
            let xs = table.table.xs();
            let (lo, hi) = (xs[0], xs[xs.len() - 1]);
            let mut probes = vec![lo, hi, table.e_lo.ln(), table.e_hi.ln(), lo - 1.0, hi + 1.0];
            for w in xs.windows(2) {
                probes.extend([w[0], w[0].next_up(), w[1].next_down(), 0.5 * (w[0] + w[1])]);
            }
            for i in 0..=10_000 {
                probes.push(lo + (hi - lo) * f64::from(i) / 1.0e4);
            }
            for x in probes {
                assert_eq!(
                    table.ln_j(x).to_bits(),
                    table.table.eval(x).to_bits(),
                    "{nodes} nodes, x = {x:e}"
                );
            }
            // Both field signs through the public lookup, against the
            // binary-search formula it replaced.
            let (e_lo, e_hi) = table.domain();
            for i in 0..=1000 {
                let mag = e_lo * (e_hi / e_lo).powf(f64::from(i) / 1000.0);
                for e in [mag, -mag] {
                    let want = if mag <= e_lo || mag >= e_hi {
                        table
                            .inner()
                            .current_density(ElectricField::from_volts_per_meter(e))
                    } else {
                        CurrentDensity::from_amps_per_square_meter(
                            e.signum() * table.table.eval(mag.ln()).exp(),
                        )
                    };
                    let got = table.current_density(ElectricField::from_volts_per_meter(e));
                    assert_eq!(
                        got.as_amps_per_square_meter().to_bits(),
                        want.as_amps_per_square_meter().to_bits(),
                        "{nodes} nodes, E = {e:e}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite nodes")]
    fn nan_field_panics() {
        let table = TabulatedJ::new(Arc::new(paper_like_model()));
        let _ = table.current_density(ElectricField::from_volts_per_meter(f64::NAN));
    }

    #[test]
    fn resolution_is_configurable() {
        let coarse = TabulatedJ::with_resolution(Arc::new(paper_like_model()), 64);
        let fine = TabulatedJ::with_resolution(Arc::new(paper_like_model()), 4096);
        assert_eq!(coarse.nodes(), 64);
        assert_eq!(fine.nodes(), 4096);
        let field = ElectricField::from_volts_per_meter(1.2e9);
        let exact = paper_like_model()
            .current_density(field)
            .as_amps_per_square_meter();
        let ec = (coarse.current_density(field).as_amps_per_square_meter() - exact).abs();
        let ef = (fine.current_density(field).as_amps_per_square_meter() - exact).abs();
        assert!(ef <= ec, "finer tables are at least as accurate");
    }
}
