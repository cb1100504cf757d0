//! Extension experiment: saturation time and stored charge vs programming
//! voltage.
//!
//! Quantifies the paper's conclusion — "for faster programming and
//! erasing higher FN tunneling current density (JFN) can be achieved by
//! higher control gate voltage" — as a `t_sat(VGS)` curve, together with
//! the maximum stored charge (the memory-window ceiling) at each bias.

use gnr_units::Voltage;

use crate::device::FloatingGateTransistor;
use crate::engine::BatchSimulator;
use crate::threshold::vt_shift;
use crate::transient::ProgramPulseSpec;
use crate::Result;

/// One point of the saturation sweep.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct SaturationPoint {
    /// Programming voltage (V).
    pub vgs: f64,
    /// Time to the `Jin = Jout` balance (s).
    pub t_sat: f64,
    /// Stored charge at balance (C, negative).
    pub charge_at_sat: f64,
    /// Threshold window at balance (V).
    pub window: f64,
}

/// The sweep output.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct SaturationSweep {
    /// Points in ascending VGS order.
    pub points: Vec<SaturationPoint>,
}

/// Default sweep grid: 13–17 V in 0.5 V steps.
#[must_use]
pub fn default_grid() -> Vec<f64> {
    (0..9).map(|i| 13.0 + 0.5 * f64::from(i)).collect()
}

/// Runs the sweep.
///
/// # Errors
///
/// Propagates transient failures (all preset grid points saturate).
pub fn generate(device: &FloatingGateTransistor, grid: &[f64]) -> Result<SaturationSweep> {
    generate_with(&BatchSimulator::new(), device, grid)
}

/// Runs the sweep through an explicit batch executor: every grid point
/// is an independent transient, fanned out across cores.
///
/// # Errors
///
/// Propagates the first transient failure in grid order.
pub fn generate_with(
    batch: &BatchSimulator,
    device: &FloatingGateTransistor,
    grid: &[f64],
) -> Result<SaturationSweep> {
    let specs: Vec<ProgramPulseSpec> = grid
        .iter()
        .map(|&vgs| ProgramPulseSpec::program(Voltage::from_volts(vgs)))
        .collect();
    let mut points = Vec::with_capacity(grid.len());
    for (&vgs, result) in grid.iter().zip(batch.run(device, &specs)) {
        let result = result?;
        let t_sat = result
            .saturation_time()
            .map_or(f64::INFINITY, |t| t.as_seconds());
        let q = result
            .charge_at_saturation()
            .unwrap_or_else(|| result.final_charge());
        points.push(SaturationPoint {
            vgs,
            t_sat,
            charge_at_sat: q.as_coulombs(),
            window: vt_shift(device, q).as_volts(),
        });
    }
    Ok(SaturationSweep { points })
}

/// Checks the conclusion's shape: `t_sat` strictly decreasing in VGS and
/// the stored charge (window) strictly increasing.
///
/// # Errors
///
/// Returns a description of the first violated property.
pub fn check(sweep: &SaturationSweep) -> core::result::Result<(), String> {
    if sweep.points.len() < 3 {
        return Err("sweep too short".into());
    }
    for pair in sweep.points.windows(2) {
        if !(pair[1].vgs > pair[0].vgs) {
            return Err("grid must ascend".into());
        }
        if !(pair[1].t_sat < pair[0].t_sat) {
            return Err(format!(
                "t_sat must fall with VGS: {} s at {} V vs {} s at {} V",
                pair[0].t_sat, pair[0].vgs, pair[1].t_sat, pair[1].vgs
            ));
        }
        if !(pair[1].window > pair[0].window) {
            return Err("window must grow with VGS".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_sweep_matches_the_conclusion() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        // A short grid keeps the test fast; the bench runs the full one.
        let sweep = generate(&device, &[13.0, 15.0, 17.0]).unwrap();
        check(&sweep).unwrap();
    }

    #[test]
    fn t_sat_spans_decades_over_the_voltage_range() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let sweep = generate(&device, &[13.0, 17.0]).unwrap();
        let ratio = sweep.points[0].t_sat / sweep.points[1].t_sat;
        assert!(ratio > 10.0, "t_sat contrast {ratio}");
    }
}
