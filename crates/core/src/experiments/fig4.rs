//! Figure 4 — tunneling currents at the programming onset.
//!
//! Paper caption: *"Tunneling current in time. Tunneling mechanism is
//! shown in the insert at t=0 Sec."* The figure's message is the *initial
//! asymmetry*: `Jin` (channel → FG through the 5 nm tunnel oxide under a
//! 9 V drop) dwarfs `Jout` (FG → control gate through the thicker control
//! oxide under only 6 V), because of "the lower potential difference
//! (15V-9V=6V) and thicker insulating oxide layer" (§III).

use gnr_units::Voltage;

use crate::device::FloatingGateTransistor;
use crate::transient::{ProgramPulseSpec, TransientSample, TransientSimulator};
use crate::{presets, Result};

/// The Figure 4 data: the early-time window of the programming transient
/// plus the onset asymmetry.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Fig4Data {
    /// Programming gate voltage.
    pub vgs: f64,
    /// Early-time samples (up to 10 % of `t_sat`).
    pub samples: Vec<TransientSample>,
    /// `Jin(0)` (A/m²).
    pub j_in_onset: f64,
    /// `Jout(0)` (A/m²).
    pub j_out_onset: f64,
    /// Onset drop across the tunnel oxide (V) — the paper's 9 V.
    pub tunnel_drop: f64,
    /// Onset drop across the control oxide (V) — the paper's 6 V.
    pub control_drop: f64,
}

impl Fig4Data {
    /// `Jin(0)/Jout(0)` — the asymmetry the figure illustrates.
    #[must_use]
    pub fn onset_ratio(&self) -> f64 {
        self.j_in_onset / self.j_out_onset.max(1e-300)
    }
}

/// Generates Figure 4 at the paper's programming bias.
///
/// # Errors
///
/// Propagates transient-simulation failures.
pub fn generate(device: &FloatingGateTransistor) -> Result<Fig4Data> {
    generate_at(device, presets::program_vgs())
}

/// Generates Figure 4 at an arbitrary programming bias.
///
/// # Errors
///
/// Propagates transient-simulation failures.
pub fn generate_at(device: &FloatingGateTransistor, vgs: Voltage) -> Result<Fig4Data> {
    let result = TransientSimulator::new(device).run(&ProgramPulseSpec::program(vgs))?;
    let t_sat = result.saturation_time().map_or_else(
        || result.samples().last().expect("non-empty").t,
        |t| t.as_seconds(),
    );
    let window = 0.1 * t_sat;
    let samples: Vec<TransientSample> = result
        .samples()
        .iter()
        .copied()
        .take_while(|s| s.t <= window)
        .collect();
    let first = result.samples().first().expect("non-empty");
    let vfg0 = first.vfg;
    Ok(Fig4Data {
        vgs: vgs.as_volts(),
        j_in_onset: first.j_in,
        j_out_onset: first.j_out,
        tunnel_drop: vfg0,
        control_drop: vgs.as_volts() - vfg0,
        samples,
    })
}

/// Checks the Figure 4 shape: `Jin(0) ≫ Jout(0)` with the paper's 9 V /
/// 6 V drop split at GCR = 0.6.
///
/// # Errors
///
/// Returns a description of the first violated property.
pub fn check(data: &Fig4Data) -> core::result::Result<(), String> {
    if data.onset_ratio() < 1e3 {
        return Err(format!(
            "Jin(0)/Jout(0) = {:e}; the paper requires Jin >> Jout",
            data.onset_ratio()
        ));
    }
    if (data.tunnel_drop - 0.6 * data.vgs).abs() > 1e-6 {
        return Err(format!(
            "tunnel drop {} V must equal GCR·VGS = {} V",
            data.tunnel_drop,
            0.6 * data.vgs
        ));
    }
    if (data.tunnel_drop + data.control_drop - data.vgs).abs() > 1e-9 {
        return Err("oxide drops must sum to VGS".into());
    }
    if data.samples.is_empty() {
        return Err("empty onset window".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shape_matches_paper() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let data = generate(&d).unwrap();
        check(&data).unwrap();
    }

    #[test]
    fn onset_drops_are_9v_and_6v() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let data = generate(&d).unwrap();
        assert!((data.tunnel_drop - 9.0).abs() < 1e-6);
        assert!((data.control_drop - 6.0).abs() < 1e-6);
    }

    #[test]
    fn onset_window_precedes_saturation() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let data = generate(&d).unwrap();
        // Within the 10 % window Jin still dominates.
        let last = data.samples.last().unwrap();
        assert!(last.j_in > last.j_out);
    }
}
