//! Figure 7 — \[Program\] `JFN` vs `VGS` for five tunnel-oxide thicknesses.
//!
//! Paper caption: *"FN tunneling current density (JFN) versus Control gate
//! voltage (VGS) for five different tunnel oxide thickness (XTO).
//! GCR=60%, VGS = 10-17V."*
//!
//! Expected shape (§IV.a): for a given `XTO`, `JFN` increases with `VGS`;
//! "JFN increases significantly when XTO is less than 7nm".

use crate::experiments::sweep_util::{device_with_xto, j_vs_vgs, series};
use crate::experiments::{monotone_increasing, FigureData};
use crate::presets;
use crate::Result;

/// Generates the Figure 7 data (thickest oxide first, so curves ascend).
///
/// # Errors
///
/// Propagates device-construction errors (none for the preset grids).
pub fn generate() -> Result<FigureData> {
    let grid = presets::vgs_grid(presets::FIG7_VGS_RANGE);
    let mut fig = FigureData {
        id: "fig7".into(),
        title: "[Program] FN current density vs control gate voltage, five XTO".into(),
        x_label: "VGS (V)".into(),
        y_label: "|JFN| (A/m^2)".into(),
        series: Vec::with_capacity(presets::XTO_SWEEP_NM.len()),
    };
    let mut thicknesses = presets::XTO_SWEEP_NM;
    thicknesses.reverse(); // 8 nm first → series ordered thin-last (highest J last)
    for xto in thicknesses {
        let device = device_with_xto(xto)?;
        let y = j_vs_vgs(&device, &grid);
        fig.series.push(series(format!("XTO={xto:.0}nm"), &grid, y));
    }
    Ok(fig)
}

/// Checks the paper-reported shape.
///
/// # Errors
///
/// Returns a description of the first violated property.
pub fn check(fig: &FigureData) -> core::result::Result<(), String> {
    if fig.series.len() != presets::XTO_SWEEP_NM.len() {
        return Err(format!(
            "expected {} XTO curves",
            presets::XTO_SWEEP_NM.len()
        ));
    }
    for s in &fig.series {
        if !monotone_increasing(&s.y) {
            return Err(format!("series {} must increase with VGS", s.label));
        }
    }
    let n = fig.series[0].x.len();
    // Thinner oxide → higher current at every thickness step.
    for pair in fig.series.windows(2) {
        if pair[1].y[n - 1] <= pair[0].y[n - 1] {
            return Err(format!(
                "{} must exceed {} at the top of the sweep",
                pair[1].label, pair[0].label
            ));
        }
    }
    // "Significant increase below 7 nm": the 4 nm curve exceeds the 8 nm
    // curve by far more than the 6→8 nm step.
    let j8 = fig.series[0].y[n - 1];
    let j6 = fig.series[2].y[n - 1];
    let j4 = fig.series[4].y[n - 1];
    if j4 / j6 <= j6 / j8 {
        return Err("thin-oxide acceleration must grow as XTO shrinks".into());
    }
    if j4 / j8 < 1e3 {
        return Err(format!("4 nm vs 8 nm contrast too small: {:e}", j4 / j8));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_shape_matches_paper() {
        let fig = generate().unwrap();
        check(&fig).unwrap();
    }

    #[test]
    fn labels_run_thick_to_thin() {
        let fig = generate().unwrap();
        assert_eq!(fig.series.first().unwrap().label, "XTO=8nm");
        assert_eq!(fig.series.last().unwrap().label, "XTO=4nm");
    }
}
