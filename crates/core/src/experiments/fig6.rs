//! Figure 6 — \[Program\] `JFN` vs `VGS` for four GCR values.
//!
//! Paper caption: *"Fowler Nordheim (FN) tunneling current density (JFN)
//! versus Control gate voltage (VGS) for four different GCR. VGS = 8-17V."*
//! Generated "from equations (3) and (7)" with `XTO = 5 nm`.
//!
//! Expected shape (§IV.a): "JFN during programming increases with the
//! increase of both the control gate voltage and GCR".

use crate::experiments::sweep_util::{device_with_gcr, j_vs_vgs, series};
use crate::experiments::{monotone_increasing, series_ordered_at, FigureData};
use crate::presets;
use crate::Result;

/// Generates the Figure 6 data.
///
/// # Errors
///
/// Propagates device-construction errors (none for the preset grids).
pub fn generate() -> Result<FigureData> {
    let grid = presets::vgs_grid(presets::FIG6_VGS_RANGE);
    let mut fig = FigureData {
        id: "fig6".into(),
        title: "[Program] FN current density vs control gate voltage, four GCR".into(),
        x_label: "VGS (V)".into(),
        y_label: "|JFN| (A/m^2)".into(),
        series: Vec::with_capacity(presets::GCR_SWEEP.len()),
    };
    for gcr in presets::GCR_SWEEP {
        let device = device_with_gcr(gcr)?;
        let y = j_vs_vgs(&device, &grid);
        fig.series
            .push(series(format!("GCR={:.0}%", gcr * 100.0), &grid, y));
    }
    Ok(fig)
}

/// Checks the paper-reported shape.
///
/// # Errors
///
/// Returns a description of the first violated property.
pub fn check(fig: &FigureData) -> core::result::Result<(), String> {
    if fig.series.len() != presets::GCR_SWEEP.len() {
        return Err(format!("expected {} GCR curves", presets::GCR_SWEEP.len()));
    }
    for s in &fig.series {
        if !monotone_increasing(&s.y) {
            return Err(format!("series {} must increase with VGS", s.label));
        }
    }
    // Higher GCR → higher JFN at every shared VGS.
    let n = fig.series[0].x.len();
    for i in [n / 2, n - 1] {
        if !series_ordered_at(fig, i) {
            return Err(format!("curves must be ordered by GCR at grid index {i}"));
        }
    }
    // Super-exponential growth: decades between 8 V and 17 V.
    let s = &fig.series[1]; // GCR = 60 %, the paper's nominal
    let growth = s.y.last().unwrap() / s.y.first().unwrap().max(1e-300);
    if growth < 1e3 {
        return Err(format!(
            "expected decades of growth over the sweep, got {growth:e}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_shape_matches_paper() {
        let fig = generate().unwrap();
        check(&fig).unwrap();
    }

    #[test]
    fn nominal_curve_is_gcr_60() {
        let fig = generate().unwrap();
        assert_eq!(fig.series[1].label, "GCR=60%");
    }

    #[test]
    fn csv_export_works() {
        let fig = generate().unwrap();
        let csv = fig.to_csv();
        assert!(csv.lines().count() == presets::SWEEP_POINTS + 1);
        assert!(csv.starts_with("x,GCR=50%"));
    }
}
