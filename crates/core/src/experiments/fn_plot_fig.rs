//! Extension experiment: the FN plot of the device — §IV's "A and B can
//! be derived from FN plot (JFN/E² vs. 1/E)" (paper ref. \[9\], Chiou et
//! al. 2001) applied to our own simulated device.
//!
//! A straight FN plot with the right slope is the defining signature that
//! the simulated conduction *is* Fowler–Nordheim; this experiment is the
//! reproduction's self-consistency certificate.

use gnr_tunneling::fn_plot::{barrier_from_b, extract_params, generate_plot, FnPlotPoint};
use gnr_units::ElectricField;

use crate::device::FloatingGateTransistor;
use crate::Result;

/// The FN-plot experiment output.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FnPlotFigure {
    /// The plot points `(1/E, ln(J/E²))`.
    pub points: Vec<FnPlotPoint>,
    /// Extracted pre-exponential `A` (A/V²).
    pub extracted_a: f64,
    /// Extracted slope coefficient `B` (V/m).
    pub extracted_b: f64,
    /// The device's true `A` (for comparison).
    pub true_a: f64,
    /// The device's true `B`.
    pub true_b: f64,
    /// Barrier height recovered from `B` and the known mass (eV).
    pub recovered_barrier_ev: f64,
    /// The device's true barrier (eV).
    pub true_barrier_ev: f64,
    /// Goodness of fit.
    pub r_squared: f64,
}

/// Generates the FN plot over the Figure 6 field range of the device.
///
/// # Errors
///
/// Propagates regression failures (degenerate grids).
pub fn generate(device: &FloatingGateTransistor) -> Result<FnPlotFigure> {
    let model = device.channel_emission_model();
    // Fields spanning the Figure 6 VGS range through eq. (3)+(5).
    let xto = device.geometry().tunnel_oxide_thickness().as_meters();
    let gcr = device.capacitances().gcr();
    let fields: Vec<ElectricField> = crate::presets::vgs_grid(crate::presets::FIG6_VGS_RANGE)
        .iter()
        .map(|&vgs| ElectricField::from_volts_per_meter(gcr * vgs / xto))
        .collect();
    let points = generate_plot(model, &fields);
    let ex = extract_params(&points).map_err(crate::DeviceError::from)?;
    let c = model.coefficients();
    Ok(FnPlotFigure {
        points,
        extracted_a: ex.a,
        extracted_b: ex.b,
        true_a: c.a,
        true_b: c.b,
        recovered_barrier_ev: barrier_from_b(ex.b, model.effective_mass()).as_ev(),
        true_barrier_ev: model.barrier().as_ev(),
        r_squared: ex.fit.r_squared,
    })
}

/// Checks the self-consistency: straight line, parameters recovered.
///
/// # Errors
///
/// Returns a description of the first violated property.
pub fn check(fig: &FnPlotFigure) -> core::result::Result<(), String> {
    if fig.points.len() < 10 {
        return Err("too few FN-plot points".into());
    }
    if fig.r_squared < 0.9999 {
        return Err(format!("FN plot is not straight: R² = {}", fig.r_squared));
    }
    let b_err = (fig.extracted_b - fig.true_b).abs() / fig.true_b;
    if b_err > 1e-6 {
        return Err(format!("B extraction error {b_err:e}"));
    }
    let a_err = (fig.extracted_a - fig.true_a).abs() / fig.true_a;
    if a_err > 1e-3 {
        return Err(format!("A extraction error {a_err:e}"));
    }
    let phi_err = (fig.recovered_barrier_ev - fig.true_barrier_ev).abs();
    if phi_err > 0.01 {
        return Err(format!("barrier recovery off by {phi_err} eV"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_plot_is_straight_and_recovers_parameters() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let fig = generate(&device).unwrap();
        check(&fig).unwrap();
    }

    #[test]
    fn works_for_the_silicon_baseline_too() {
        let device = FloatingGateTransistor::silicon_conventional();
        let fig = generate(&device).unwrap();
        check(&fig).unwrap();
        // Si barrier ~3.15 eV < graphene ~3.64 eV.
        assert!(fig.recovered_barrier_ev < 3.3);
    }

    #[test]
    fn plot_points_descend_with_inverse_field() {
        // ln(J/E²) = ln A − B/E: strictly decreasing in 1/E.
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let mut fig = generate(&device).unwrap();
        fig.points
            .sort_by(|a, b| a.inverse_field.total_cmp(&b.inverse_field));
        for pair in fig.points.windows(2) {
            assert!(pair[1].ln_j_over_e2 < pair[0].ln_j_over_e2);
        }
    }
}
