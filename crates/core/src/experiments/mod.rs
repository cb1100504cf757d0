//! Reproductions of every figure in the paper's evaluation.
//!
//! | module | paper figure |
//! |--------|--------------|
//! | [`band_diagram`] | Fig. 2 — FN triangular-barrier band diagram |
//! | [`fig4`] | Fig. 4 — `Jin` vs `Jout` at programming onset |
//! | [`fig5`] | Fig. 5 — `Jin(t)`/`Jout(t)` to saturation (`t_sat`) |
//! | [`fig6`] | Fig. 6 — program `JFN` vs `VGS` for four GCR |
//! | [`fig7`] | Fig. 7 — program `JFN` vs `VGS` for five `XTO` |
//! | [`fig8`] | Fig. 8 — erase `JFN` vs `VGS` for four GCR |
//! | [`fig9`] | Fig. 9 — erase `JFN` vs `VGS` for five `XTO` |
//! | [`fn_plot_fig`] | extension — §IV's FN-plot parameter extraction |
//! | [`temperature_fig`] | extension — Lenzlinger–Snow 250–400 K study |
//! | [`backend_transients`] | extension — GNR-FG vs CNT-FG transient comparison |
//!
//! Each generator returns serialisable series and a `check` function that
//! asserts the *shape* the paper reports (orderings, monotonicity,
//! crossovers) — absolute magnitudes depend on material constants the
//! paper does not tabulate (see EXPERIMENTS.md).

pub mod backend_transients;
pub mod band_diagram;
pub mod erase_transient;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fn_plot_fig;
pub mod registry;
pub mod saturation_sweep;
pub mod temperature_fig;

mod shape;
mod sweep_util;

pub use registry::{registry, Artifact, Experiment, ExperimentContext, ExperimentReport};
pub use shape::{monotone_decreasing, monotone_increasing, series_ordered_at};

/// One labelled data series (a curve of a figure).
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SweepSeries {
    /// Curve label (e.g. `"GCR=60%"`).
    pub label: String,
    /// Abscissae.
    pub x: Vec<f64>,
    /// Ordinates.
    pub y: Vec<f64>,
}

/// A complete figure: several series over a shared axis pair.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FigureData {
    /// Figure identifier (`"fig6"`, …).
    pub id: String,
    /// Human-readable title (matches the paper caption).
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The curves.
    pub series: Vec<SweepSeries>,
}

impl FigureData {
    /// Renders the figure as CSV: header `x,label1,label2,…`, one row per
    /// shared abscissa. All series of a figure share their x grid.
    ///
    /// # Panics
    ///
    /// Panics if the series have inconsistent lengths (generators always
    /// produce consistent grids).
    #[must_use]
    pub fn to_csv(&self) -> String {
        assert!(!self.series.is_empty(), "figure has no series");
        let n = self.series[0].x.len();
        for s in &self.series {
            assert_eq!(s.x.len(), n, "series grids differ");
            assert_eq!(s.y.len(), n, "series grids differ");
        }
        let mut out = String::from("x");
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label.replace(',', ";"));
        }
        out.push('\n');
        for i in 0..n {
            out.push_str(&format!("{:.6e}", self.series[0].x[i]));
            for s in &self.series {
                out.push_str(&format!(",{:.6e}", s.y[i]));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_layout_is_rectangular() {
        let fig = FigureData {
            id: "t".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![
                SweepSeries {
                    label: "a".into(),
                    x: vec![1.0, 2.0],
                    y: vec![10.0, 20.0],
                },
                SweepSeries {
                    label: "b".into(),
                    x: vec![1.0, 2.0],
                    y: vec![30.0, 40.0],
                },
            ],
        };
        let csv = fig.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "x,a,b");
        assert!(lines[1].starts_with("1.0"));
    }

    #[test]
    fn csv_escapes_commas_in_labels() {
        let fig = FigureData {
            id: "t".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![SweepSeries {
                label: "a,b".into(),
                x: vec![1.0],
                y: vec![2.0],
            }],
        };
        assert!(fig.to_csv().starts_with("x,a;b\n"));
    }
}
