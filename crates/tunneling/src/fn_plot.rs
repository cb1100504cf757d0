//! Fowler–Nordheim plot generation and parameter extraction.
//!
//! Plotting `ln(J/E²)` against `1/E` linearises the FN law:
//!
//! ```text
//! ln(J/E²) = ln A − B·(1/E)
//! ```
//!
//! The paper (§IV, ref. \[9\] Chiou–Gambino–Mohammad 2001) notes that `A`
//! and `B` "can be derived from FN plot". This module generates plot
//! points from any model and extracts `(A, B)` — and from `B`, the barrier
//! height for a known mass (or vice versa) — with regression statistics.

use gnr_numerics::regression::{fit_line, LinearFit};
use gnr_units::constants::{ELEMENTARY_CHARGE, REDUCED_PLANCK};
use gnr_units::{ElectricField, Energy, Mass};

use crate::models::TunnelingModel;

/// One FN-plot point.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct FnPlotPoint {
    /// Abscissa `1/E` in m/V.
    pub inverse_field: f64,
    /// Ordinate `ln(J/E²)` with J in A/m² and E in V/m.
    pub ln_j_over_e2: f64,
}

/// Extraction result: the `(A, B)` pair and the underlying fit.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ExtractedFnParams {
    /// Extracted pre-exponential `A` (A/V²).
    pub a: f64,
    /// Extracted slope coefficient `B` (V/m).
    pub b: f64,
    /// Regression diagnostics.
    pub fit: LinearFit,
}

/// Generates FN-plot points by evaluating `model` at the given fields.
///
/// Fields with non-positive forward current are skipped (their logarithm
/// is undefined) — callers sweeping into the sub-threshold region simply
/// get fewer points.
#[must_use]
pub fn generate_plot<M: TunnelingModel + ?Sized>(
    model: &M,
    fields: &[ElectricField],
) -> Vec<FnPlotPoint> {
    fields
        .iter()
        .filter_map(|&e| {
            let ev = e.as_volts_per_meter();
            if ev <= 0.0 {
                return None;
            }
            let j = model.current_density(e).as_amps_per_square_meter();
            if j <= 0.0 {
                return None;
            }
            Some(FnPlotPoint {
                inverse_field: 1.0 / ev,
                ln_j_over_e2: (j / (ev * ev)).ln(),
            })
        })
        .collect()
}

/// Extracts `(A, B)` from FN-plot points by least squares.
///
/// # Errors
///
/// Propagates [`gnr_numerics::NumericsError`] for degenerate inputs
/// (fewer than two points, constant abscissae).
pub fn extract_params(
    points: &[FnPlotPoint],
) -> core::result::Result<ExtractedFnParams, gnr_numerics::NumericsError> {
    let xs: Vec<f64> = points.iter().map(|p| p.inverse_field).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.ln_j_over_e2).collect();
    let fit = fit_line(&xs, &ys)?;
    Ok(ExtractedFnParams {
        a: fit.intercept.exp(),
        b: -fit.slope,
        fit,
    })
}

/// Infers the barrier height from an extracted `B` and a known effective
/// mass: inverts `B = 4·√(2·m_ox)·ΦB^{3/2}/(3·ħ·q)`.
///
/// # Panics
///
/// Panics when `b` or the mass is non-positive.
#[must_use]
pub fn barrier_from_b(b: f64, m_ox: Mass) -> Energy {
    assert!(b > 0.0, "B must be positive");
    let m = m_ox.as_kilograms();
    assert!(m > 0.0, "mass must be positive");
    let phi32 = 3.0 * REDUCED_PLANCK * ELEMENTARY_CHARGE * b / (4.0 * (2.0 * m).sqrt());
    Energy::from_joules(phi32.powf(2.0 / 3.0))
}

/// Infers the effective mass from an extracted `B` and a known barrier:
/// the complementary inversion to [`barrier_from_b`].
///
/// # Panics
///
/// Panics when `b` or the barrier is non-positive.
#[must_use]
pub fn mass_from_b(b: f64, barrier: Energy) -> Mass {
    assert!(b > 0.0, "B must be positive");
    let phi = barrier.as_joules();
    assert!(phi > 0.0, "barrier must be positive");
    let sqrt_2m = 3.0 * REDUCED_PLANCK * ELEMENTARY_CHARGE * b / (4.0 * phi.powf(1.5));
    Mass::from_kilograms(sqrt_2m * sqrt_2m / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fn_model::FnModel;

    fn fields() -> Vec<ElectricField> {
        (0..30)
            .map(|i| ElectricField::from_volts_per_meter(6.0e8 + 4.0e7 * f64::from(i)))
            .collect()
    }

    #[test]
    fn extraction_round_trips_exact_fn_model() {
        let model = FnModel::new(Energy::from_ev(3.2), Mass::from_electron_masses(0.42));
        let pts = generate_plot(&model, &fields());
        let ex = extract_params(&pts).unwrap();
        let c = model.coefficients();
        assert!((ex.a - c.a).abs() / c.a < 1e-6, "A: {} vs {}", ex.a, c.a);
        assert!((ex.b - c.b).abs() / c.b < 1e-9, "B: {} vs {}", ex.b, c.b);
        assert!(ex.fit.r_squared > 0.999_999);
    }

    #[test]
    fn barrier_recovered_from_extracted_slope() {
        let model = FnModel::new(Energy::from_ev(3.4), Mass::from_electron_masses(0.42));
        let pts = generate_plot(&model, &fields());
        let ex = extract_params(&pts).unwrap();
        let phi = barrier_from_b(ex.b, Mass::from_electron_masses(0.42));
        assert!((phi.as_ev() - 3.4).abs() < 1e-6, "ΦB = {}", phi.as_ev());
    }

    #[test]
    fn mass_recovered_from_extracted_slope() {
        let model = FnModel::new(Energy::from_ev(3.2), Mass::from_electron_masses(0.5));
        let pts = generate_plot(&model, &fields());
        let ex = extract_params(&pts).unwrap();
        let m = mass_from_b(ex.b, Energy::from_ev(3.2));
        assert!((m.as_electron_masses() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn non_positive_fields_skipped() {
        let model = FnModel::new(Energy::from_ev(3.2), Mass::from_electron_masses(0.42));
        let mixed = vec![
            ElectricField::from_volts_per_meter(-1.0e9),
            ElectricField::ZERO,
            ElectricField::from_volts_per_meter(1.0e9),
        ];
        let pts = generate_plot(&model, &mixed);
        assert_eq!(pts.len(), 1);
    }

    #[test]
    fn too_few_points_is_an_error() {
        let pts = vec![FnPlotPoint {
            inverse_field: 1e-9,
            ln_j_over_e2: -40.0,
        }];
        assert!(extract_params(&pts).is_err());
    }

    #[test]
    fn inversions_are_mutually_consistent() {
        let b = 2.54e10;
        let m = Mass::from_electron_masses(0.42);
        let phi = barrier_from_b(b, m);
        let m_back = mass_from_b(b, phi);
        assert!((m_back.as_electron_masses() - 0.42).abs() < 1e-9);
    }
}
