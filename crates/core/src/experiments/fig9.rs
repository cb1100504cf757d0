//! Figure 9 — \[Erase\] `JFN` vs `VGS` for five tunnel-oxide thicknesses.
//!
//! Paper caption: *"FN tunneling current density (JFN) versus Control gate
//! voltage (VGS) for five different tunnel oxide thickness (XTO).
//! GCR=60%, VGS <0V."*
//!
//! Expected shape (§IV.b): `JFN` increases as `VGS` goes more negative
//! for a given `XTO`; "the tunneling current increases significantly when
//! XTO is less than 7nm similar to the programing operation".

use crate::experiments::sweep_util::{device_with_xto, j_vs_vgs, series};
use crate::experiments::{monotone_decreasing, FigureData};
use crate::presets;
use crate::Result;

/// Generates the Figure 9 data (thickest oxide first).
///
/// # Errors
///
/// Propagates device-construction errors (none for the preset grids).
pub fn generate() -> Result<FigureData> {
    let grid = presets::vgs_grid(presets::FIG8_VGS_RANGE);
    let mut fig = FigureData {
        id: "fig9".into(),
        title: "[Erase] FN current density vs control gate voltage, five XTO".into(),
        x_label: "VGS (V)".into(),
        y_label: "|JFN| (A/m^2)".into(),
        series: Vec::with_capacity(presets::XTO_SWEEP_NM.len()),
    };
    let mut thicknesses = presets::XTO_SWEEP_NM;
    thicknesses.reverse();
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
        if !monotone_decreasing(&s.y) {
            return Err(format!("series {} must grow toward negative VGS", s.label));
        }
    }
    // Thinner oxide → more current at the most negative bias.
    for pair in fig.series.windows(2) {
        if pair[1].y[0] <= pair[0].y[0] {
            return Err(format!(
                "{} must exceed {} at VGS = −17 V",
                pair[1].label, pair[0].label
            ));
        }
    }
    // The "below 7 nm" acceleration, mirroring Figure 7.
    let j8 = fig.series[0].y[0];
    let j6 = fig.series[2].y[0];
    let j4 = fig.series[4].y[0];
    if j4 / j6 <= j6 / j8 {
        return Err("thin-oxide acceleration must grow as XTO shrinks".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig9_shape_matches_paper() {
        let fig = generate().unwrap();
        check(&fig).unwrap();
    }

    #[test]
    fn program_and_erase_xto_trends_mirror() {
        // §IV.b: "similar to the programing operation".
        let fig9 = generate().unwrap();
        let fig7 = crate::experiments::fig7::generate().unwrap();
        // Contrast between thinnest and thickest curve, both figures.
        let c9 = fig9.series.last().unwrap().y[0] / fig9.series.first().unwrap().y[0];
        let n7 = fig7.series[0].y.len();
        let c7 = fig7.series.last().unwrap().y[n7 - 1] / fig7.series.first().unwrap().y[n7 - 1];
        assert!(c9 > 1e2 && c7 > 1e2, "c9 = {c9:e}, c7 = {c7:e}");
    }
}
