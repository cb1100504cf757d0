//! Figure 5 — `Jin(t)` and `Jout(t)` through saturation.
//!
//! Paper caption: *"Tunneling current in time."* §III: "Jin decreases
//! gradually … the potential difference between the floating gate and the
//! control gate increases, which leads to higher Jout … At one time point
//! t = t_sat Jin will be equal to Jout. The negative charge accumulated at
//! t_sat … represents the maximum charge that can be accumulated on the
//! floating gate."
//!
//! The physical approach is asymptotic; `t_sat` is reported where the two
//! flows agree within the simulator's saturation tolerance (1 %).

use gnr_units::Voltage;

use crate::device::FloatingGateTransistor;
use crate::transient::{ProgramPulseSpec, TransientSample, TransientSimulator};
use crate::{presets, Result};

/// The Figure 5 data: the full programming transient.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Fig5Data {
    /// Programming gate voltage.
    pub vgs: f64,
    /// Samples through `1.5·t_sat`.
    pub samples: Vec<TransientSample>,
    /// Saturation time (s).
    pub t_sat: Option<f64>,
    /// Stored charge at saturation (C) — the paper's maximum charge.
    pub charge_at_sat: Option<f64>,
}

/// Generates Figure 5 at the paper's programming bias.
///
/// # Errors
///
/// Propagates transient-simulation failures.
pub fn generate(device: &FloatingGateTransistor) -> Result<Fig5Data> {
    generate_at(device, presets::program_vgs())
}

/// Generates Figure 5 at an arbitrary programming bias.
///
/// # Errors
///
/// Propagates transient-simulation failures.
pub fn generate_at(device: &FloatingGateTransistor, vgs: Voltage) -> Result<Fig5Data> {
    let result = TransientSimulator::new(device).run(&ProgramPulseSpec::program(vgs))?;
    Ok(Fig5Data {
        vgs: vgs.as_volts(),
        t_sat: result.saturation_time().map(|t| t.as_seconds()),
        charge_at_sat: result.charge_at_saturation().map(|q| q.as_coulombs()),
        samples: result.samples().to_vec(),
    })
}

/// Checks the Figure 5 shape: `Jin` monotone ↓, `Jout` monotone ↑, the
/// flows converge at `t_sat`, and the stored charge is negative
/// (electron accumulation).
///
/// # Errors
///
/// Returns a description of the first violated property.
pub fn check(data: &Fig5Data) -> core::result::Result<(), String> {
    if data.samples.len() < 8 {
        return Err("trace too short".into());
    }
    let j_in: Vec<f64> = data.samples.iter().map(|s| s.j_in).collect();
    let j_out: Vec<f64> = data.samples.iter().map(|s| s.j_out).collect();
    if !crate::experiments::monotone_decreasing(&j_in) {
        return Err("Jin(t) must decrease monotonically".into());
    }
    if !crate::experiments::monotone_increasing(&j_out) {
        return Err("Jout(t) must increase monotonically".into());
    }
    let Some(t_sat) = data.t_sat else {
        return Err("t_sat was not detected".into());
    };
    if t_sat <= 0.0 {
        return Err("t_sat must be positive".into());
    }
    let Some(q_sat) = data.charge_at_sat else {
        return Err("charge at saturation missing".into());
    };
    if q_sat >= 0.0 {
        return Err("programming must accumulate negative charge".into());
    }
    // Convergence: near the end of the trace the flows agree within 5 %.
    let last = data.samples.last().expect("non-empty");
    let mismatch = (last.j_in - last.j_out).abs() / last.j_in.max(1e-300);
    if mismatch > 0.05 {
        return Err(format!(
            "Jin and Jout must converge at saturation ({mismatch:e})"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shape_matches_paper() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let data = generate(&d).unwrap();
        check(&data).unwrap();
    }

    #[test]
    fn saturation_charge_bounds_the_trace() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let data = generate(&d).unwrap();
        let q_sat = data.charge_at_sat.unwrap();
        // No sample stores more charge than ~the saturation value.
        for s in &data.samples {
            assert!(s.charge >= q_sat * 1.02, "t = {}", s.t);
        }
    }

    #[test]
    fn silicon_baseline_also_saturates() {
        let d = FloatingGateTransistor::silicon_conventional();
        let data = generate(&d).unwrap();
        assert!(data.t_sat.is_some());
        check(&data).unwrap();
    }

    #[test]
    fn higher_bias_saturates_faster_with_more_charge() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let a = generate_at(&d, Voltage::from_volts(14.0)).unwrap();
        let b = generate_at(&d, Voltage::from_volts(16.0)).unwrap();
        assert!(b.t_sat.unwrap() < a.t_sat.unwrap());
        assert!(b.charge_at_sat.unwrap() < a.charge_at_sat.unwrap());
    }
}
