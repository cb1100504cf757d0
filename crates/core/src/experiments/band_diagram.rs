//! Figure 2 — the Fowler–Nordheim band diagram of the programmed stack.
//!
//! Electron potential energy (eV, relative to the channel Fermi level)
//! across channel → tunnel oxide → CNT floating gate → control oxide →
//! control gate at a programming bias. The tunnel oxide shows the
//! triangular barrier of Figure 2; "at high electric field band-bending
//! takes place that results in apparent thinning of the barrier" (§II).

use gnr_units::{Charge, Voltage};

use crate::device::FloatingGateTransistor;

/// One region of the band diagram.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Region {
    /// Region name (`"channel"`, `"tunnel-oxide"`, …).
    pub name: String,
    /// `(position nm, conduction-band energy eV)` samples.
    pub points: Vec<(f64, f64)>,
}

/// The full band diagram.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct BandDiagramData {
    /// Bias at which the diagram was drawn.
    pub vgs: f64,
    /// Floating-gate potential at that bias.
    pub vfg: f64,
    /// The stack regions in order.
    pub regions: Vec<Region>,
}

/// Samples per oxide region.
const OXIDE_SAMPLES: usize = 40;
/// Electrode drawing width (nm) for the flat regions.
const ELECTRODE_WIDTH_NM: f64 = 2.0;

/// Generates the band diagram at a bias point.
#[must_use]
pub fn generate(device: &FloatingGateTransistor, vgs: Voltage, qfg: Charge) -> BandDiagramData {
    let vfg = device.floating_gate_voltage(vgs, qfg);
    let xto = device.geometry().tunnel_oxide_thickness().as_nanometers();
    let xco = device.geometry().control_oxide_thickness().as_nanometers();
    let phi_ch = device.channel_emission_model().barrier().as_ev();
    // FG → control-oxide barrier (CNT work function over the control
    // oxide's affinity).
    let phi_fg_cox = device.fg_emission_model().barrier().as_ev()
        + device.tunnel_oxide().electron_affinity().as_ev()
        - device.control_oxide().electron_affinity().as_ev();
    let v_fg = vfg.as_volts();
    let v_gs = vgs.as_volts();
    let fg_width = 1.4; // nm, a (10,10) CNT diameter

    let mut regions = Vec::with_capacity(5);

    // Channel electrode: Fermi level at 0 eV.
    regions.push(Region {
        name: "channel".into(),
        points: vec![(-ELECTRODE_WIDTH_NM, 0.0), (0.0, 0.0)],
    });

    // Tunnel oxide: triangular barrier from ΦB down by the oxide drop.
    let mut tox = Vec::with_capacity(OXIDE_SAMPLES + 1);
    for i in 0..=OXIDE_SAMPLES {
        let s = i as f64 / OXIDE_SAMPLES as f64;
        tox.push((s * xto, phi_ch - v_fg * s));
    }
    regions.push(Region {
        name: "tunnel-oxide".into(),
        points: tox,
    });

    // Floating gate: Fermi at −VFG.
    regions.push(Region {
        name: "floating-gate".into(),
        points: vec![(xto, -v_fg), (xto + fg_width, -v_fg)],
    });

    // Control oxide: barrier Φ_fg(cox) above the FG Fermi, tilted by the
    // control-oxide drop (VGS − VFG).
    let mut cox = Vec::with_capacity(OXIDE_SAMPLES + 1);
    for i in 0..=OXIDE_SAMPLES {
        let s = i as f64 / OXIDE_SAMPLES as f64;
        cox.push((
            xto + fg_width + s * xco,
            -v_fg + phi_fg_cox - (v_gs - v_fg) * s,
        ));
    }
    regions.push(Region {
        name: "control-oxide".into(),
        points: cox,
    });

    // Control gate: Fermi at −VGS.
    regions.push(Region {
        name: "control-gate".into(),
        points: vec![
            (xto + fg_width + xco, -v_gs),
            (xto + fg_width + xco + ELECTRODE_WIDTH_NM, -v_gs),
        ],
    });

    BandDiagramData {
        vgs: v_gs,
        vfg: v_fg,
        regions,
    }
}

/// Checks the Figure 2 shape: a triangular tunnel barrier starting at the
/// channel barrier height and band-bending that pulls the oxide band
/// below the channel Fermi level at the FG side when `VFG > ΦB/q`.
///
/// # Errors
///
/// Returns a description of the first violated property.
pub fn check(data: &BandDiagramData) -> core::result::Result<(), String> {
    let tox = data
        .regions
        .iter()
        .find(|r| r.name == "tunnel-oxide")
        .ok_or("missing tunnel-oxide region")?;
    let energies: Vec<f64> = tox.points.iter().map(|p| p.1).collect();
    if !crate::experiments::monotone_decreasing(&energies) {
        return Err("tunnel-oxide band must decrease monotonically (triangular)".into());
    }
    let peak = energies.first().copied().unwrap_or(0.0);
    if !(2.0..=5.0).contains(&peak) {
        return Err(format!(
            "barrier peak {peak} eV outside the plausible 2–5 eV range"
        ));
    }
    if data.vfg > peak && energies.last().copied().unwrap_or(0.0) > 0.0 {
        return Err("at FN bias the oxide band must dip below the emitter Fermi level".into());
    }
    let gate = data
        .regions
        .iter()
        .find(|r| r.name == "control-gate")
        .ok_or("missing control-gate region")?;
    if (gate.points[0].1 - (-data.vgs)).abs() > 1e-9 {
        return Err("control-gate Fermi level must sit at −VGS".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn program_bias_band_diagram_passes_checks() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let data = generate(&d, presets::program_vgs(), Charge::ZERO);
        check(&data).unwrap();
    }

    #[test]
    fn regions_are_contiguous_left_to_right() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let data = generate(&d, presets::program_vgs(), Charge::ZERO);
        let mut last_x = f64::NEG_INFINITY;
        for r in &data.regions {
            for p in &r.points {
                assert!(p.0 >= last_x - 1e-9, "x must not go backwards");
                last_x = p.0;
            }
        }
    }

    #[test]
    fn barrier_thins_with_higher_bias() {
        // "Apparent thinning": the distance from the interface to where the
        // band crosses the Fermi level shrinks as VGS rises.
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let width_at = |vgs: f64| {
            let data = generate(&d, Voltage::from_volts(vgs), Charge::ZERO);
            let tox = &data.regions[1];
            tox.points
                .iter()
                .find(|p| p.1 <= 0.0)
                .map_or(f64::INFINITY, |p| p.0)
        };
        let w12 = width_at(12.0);
        let w17 = width_at(17.0);
        assert!(w17 < w12, "w(17 V) = {w17} !< w(12 V) = {w12}");
    }

    #[test]
    fn stored_charge_raises_oxide_band_at_fg_side() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let neutral = generate(&d, presets::program_vgs(), Charge::ZERO);
        let ct = d.capacitances().total().as_farads();
        let charged = generate(&d, presets::program_vgs(), Charge::from_coulombs(-2.0 * ct));
        // VFG is 2 V lower with the stored electrons.
        assert!((neutral.vfg - charged.vfg - 2.0).abs() < 1e-9);
    }
}
