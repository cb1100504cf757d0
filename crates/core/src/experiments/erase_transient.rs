//! Extension experiment: the erase-side transient.
//!
//! §IV.b: "We have performed the same set of analysis (as in Figure 6 and
//! Figure 7) for the erasing operation" — the paper shows the erase J–V
//! sweeps (Figures 8–9) but not the erase *transient*. This experiment
//! completes the symmetry: starting from a programmed cell at −15 V, the
//! dominant flow is floating gate → channel; it decays as electrons
//! deplete while the control-gate back-injection grows, and the two
//! balance at the erase saturation point (the paper's "depletion of
//! electrons", §I).

use gnr_units::{Charge, Voltage};

use crate::device::FloatingGateTransistor;
use crate::transient::{ProgramPulseSpec, TransientSample, TransientSimulator};
use crate::{presets, Result};

/// The erase-transient data.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct EraseTransientData {
    /// Erase gate voltage (negative).
    pub vgs: f64,
    /// Stored charge at the start (the programmed state, C).
    pub initial_charge: f64,
    /// Samples through 1.5·t_sat.
    pub samples: Vec<TransientSample>,
    /// Erase saturation time (s).
    pub t_sat: Option<f64>,
    /// Stored charge at erase saturation (C) — positive: depletion.
    pub charge_at_sat: Option<f64>,
}

/// Generates the erase transient: program at +15 V first, then erase at
/// the paper's −15 V.
///
/// # Errors
///
/// Propagates transient failures.
pub fn generate(device: &FloatingGateTransistor) -> Result<EraseTransientData> {
    let sim = TransientSimulator::new(device);
    let programmed = sim
        .run(&ProgramPulseSpec::program(presets::program_vgs()))?
        .final_charge();
    generate_from(device, presets::erase_vgs(), programmed)
}

/// Generates the erase transient from an explicit initial charge.
///
/// # Errors
///
/// Propagates transient failures.
pub fn generate_from(
    device: &FloatingGateTransistor,
    vgs: Voltage,
    initial: Charge,
) -> Result<EraseTransientData> {
    let result = TransientSimulator::new(device).run(&ProgramPulseSpec::erase(vgs, initial))?;
    Ok(EraseTransientData {
        vgs: vgs.as_volts(),
        initial_charge: initial.as_coulombs(),
        t_sat: result.saturation_time().map(|t| t.as_seconds()),
        charge_at_sat: result.charge_at_saturation().map(|q| q.as_coulombs()),
        samples: result.samples().to_vec(),
    })
}

/// Checks the erase-side mirror of the Figure 5 shape: the tunnel-oxide
/// flow (now FG → channel) decays monotonically, the stored charge rises
/// monotonically from negative through zero (electron depletion), and the
/// flows balance at `t_sat`.
///
/// # Errors
///
/// Returns a description of the first violated property.
pub fn check(data: &EraseTransientData) -> core::result::Result<(), String> {
    if data.vgs >= 0.0 {
        return Err("erase requires a negative gate voltage".into());
    }
    if data.samples.len() < 8 {
        return Err("trace too short".into());
    }
    let j_tunnel: Vec<f64> = data.samples.iter().map(|s| s.j_in).collect();
    if !crate::experiments::monotone_decreasing(&j_tunnel) {
        return Err("the FG->channel flow must decay during erase".into());
    }
    let charge: Vec<f64> = data.samples.iter().map(|s| s.charge).collect();
    if !crate::experiments::monotone_increasing(&charge) {
        return Err("stored charge must rise (deplete) monotonically".into());
    }
    let Some(q_sat) = data.charge_at_sat else {
        return Err("erase saturation not reached".into());
    };
    if q_sat <= 0.0 {
        return Err(format!(
            "erase must overshoot into depletion (logic '1'), got {q_sat:e} C"
        ));
    }
    if data.initial_charge >= 0.0 {
        return Err("the initial state must be programmed (negative charge)".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erase_transient_mirrors_figure5() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let data = generate(&device).unwrap();
        check(&data).unwrap();
    }

    #[test]
    fn erase_is_faster_than_programming_at_matched_bias() {
        // Starting from the programmed state the erase field is boosted
        // by the stored electrons (|VFG| = |GCR·VGS| + |Q|/CT), so the
        // initial erase flow exceeds the initial program flow.
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let prog = crate::experiments::fig5::generate(&device).unwrap();
        let erase = generate(&device).unwrap();
        let j_prog0 = prog.samples[0].j_in;
        let j_erase0 = erase.samples[0].j_in;
        assert!(
            j_erase0 > j_prog0,
            "erase onset {j_erase0:e} !> program onset {j_prog0:e}"
        );
    }

    #[test]
    fn deeper_erase_bias_depletes_more() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let programmed = TransientSimulator::new(&device)
            .run(&ProgramPulseSpec::program(presets::program_vgs()))
            .unwrap()
            .final_charge();
        let shallow = generate_from(&device, Voltage::from_volts(-14.0), programmed).unwrap();
        let deep = generate_from(&device, Voltage::from_volts(-16.0), programmed).unwrap();
        assert!(deep.charge_at_sat.unwrap() > shallow.charge_at_sat.unwrap());
    }
}
