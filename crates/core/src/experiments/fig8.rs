//! Figure 8 — \[Erase\] `JFN` vs `VGS` for four GCR values.
//!
//! Paper caption: *"FN tunneling current density (JFN) versus Control gate
//! voltage (VGS) for four different GCR (%). XTO=5, VGS <0V."*
//!
//! Expected shape (§IV.b): "JFN increases as the control gate voltage
//! (VGS) becomes more negative for a given GCR. Higher GCR leads to
//! higher JFN" — during erase the emitter is the CNT floating gate.

use crate::experiments::sweep_util::{device_with_gcr, j_vs_vgs, series};
use crate::experiments::{monotone_decreasing, series_ordered_at, FigureData};
use crate::presets;
use crate::Result;

/// Generates the Figure 8 data (x runs from −17 V up to −8 V).
///
/// # Errors
///
/// Propagates device-construction errors (none for the preset grids).
pub fn generate() -> Result<FigureData> {
    let grid = presets::vgs_grid(presets::FIG8_VGS_RANGE);
    let mut fig = FigureData {
        id: "fig8".into(),
        title: "[Erase] FN current density vs control gate voltage, four GCR".into(),
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
        // x ascends from −17 to −8: |J| must *fall* along the grid
        // (more negative VGS → more current).
        if !monotone_decreasing(&s.y) {
            return Err(format!("series {} must grow toward negative VGS", s.label));
        }
        if s.x.iter().any(|&v| v >= 0.0) {
            return Err("erase sweep must be entirely negative".into());
        }
    }
    // Higher GCR → higher |JFN| (checked at the most negative point).
    if !series_ordered_at(fig, 0) {
        return Err("curves must be ordered by GCR at VGS = −17 V".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_shape_matches_paper() {
        let fig = generate().unwrap();
        check(&fig).unwrap();
    }

    #[test]
    fn erase_uses_fg_emitter_barrier() {
        // The erase current at |VGS| = 15 V is *lower* than the program
        // current at +15 V: the CNT floating gate presents a higher
        // barrier than the MLGNR channel.
        let prog = crate::experiments::fig6::generate().unwrap();
        let erase = generate().unwrap();
        let n_p = prog.series[1].x.len();
        // fig6 grid 8..17 → 15 V is at fraction (15-8)/9.
        let idx_p = ((15.0 - 8.0) / 9.0 * (n_p - 1) as f64).round() as usize;
        let n_e = erase.series[1].x.len();
        // fig8 grid −17..−8 → −15 V at fraction (−15+17)/9.
        let idx_e = ((17.0 - 15.0) / 9.0 * (n_e - 1) as f64).round() as usize;
        let j_p = prog.series[1].y[idx_p];
        let j_e = erase.series[1].y[idx_e];
        assert!(j_e < j_p, "erase J {j_e:e} must be below program J {j_p:e}");
    }
}
