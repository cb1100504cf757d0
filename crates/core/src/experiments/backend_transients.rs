//! Extension — GNR-FG vs CNT-FG programming transients.
//!
//! The paper's cell stacks an MLGNR channel under the CNT control gate;
//! the CNT-channel variant ([`presets::cnt_floating_gate`]) swaps the
//! emitting electrode for a (17,0) zigzag tube. Its FN barrier
//! (work function − half the gap) sits below the MLGNR barrier, so at
//! the same programming bias the CNT cell injects harder and saturates
//! sooner. This experiment runs both devices through the identical
//! Figure-5 transient and asserts that ordering — the first
//! cross-backend figure of the device-backend abstraction.

use gnr_units::{Charge, Voltage};

use crate::device::FloatingGateTransistor;
use crate::experiments::fig5::{self, Fig5Data};
use crate::{presets, Result};

/// The comparison data: one Figure-5 transient per floating-gate
/// backend, at the same bias.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct BackendTransientData {
    /// Shared programming gate voltage (V).
    pub vgs: f64,
    /// The paper's MLGNR-channel transient.
    pub gnr: Fig5Data,
    /// The CNT-channel transient.
    pub cnt: Fig5Data,
}

/// Generates both transients at the paper's programming bias. The GNR
/// device is the caller's (normally the paper nominal); the CNT device
/// is always the [`presets::cnt_floating_gate`] preset.
///
/// # Errors
///
/// Propagates transient-simulation failures.
pub fn generate(gnr_device: &FloatingGateTransistor) -> Result<BackendTransientData> {
    let vgs = presets::program_vgs();
    Ok(BackendTransientData {
        vgs: vgs.as_volts(),
        gnr: fig5::generate_at(gnr_device, vgs)?,
        cnt: fig5::generate_at(&presets::cnt_floating_gate(), vgs)?,
    })
}

/// Generates the comparison at an arbitrary bias.
///
/// # Errors
///
/// Propagates transient-simulation failures.
pub fn generate_at(
    gnr_device: &FloatingGateTransistor,
    vgs: Voltage,
) -> Result<BackendTransientData> {
    Ok(BackendTransientData {
        vgs: vgs.as_volts(),
        gnr: fig5::generate_at(gnr_device, vgs)?,
        cnt: fig5::generate_at(&presets::cnt_floating_gate(), vgs)?,
    })
}

/// Checks the comparison shape: each transient individually passes the
/// Figure-5 checks, and the CNT cell — lower FN barrier — reaches
/// saturation strictly sooner while storing at least as much charge
/// magnitude as the MLGNR cell gives up per volt of window.
///
/// # Errors
///
/// Returns a description of the first violated property.
pub fn check(data: &BackendTransientData) -> core::result::Result<(), String> {
    fig5::check(&data.gnr).map_err(|e| format!("GNR transient: {e}"))?;
    fig5::check(&data.cnt).map_err(|e| format!("CNT transient: {e}"))?;
    let (Some(t_gnr), Some(t_cnt)) = (data.gnr.t_sat, data.cnt.t_sat) else {
        return Err("both transients must saturate".into());
    };
    if t_cnt >= t_gnr {
        return Err(format!(
            "CNT emitter has the lower FN barrier and must saturate first \
             (CNT {t_cnt:.3e} s vs GNR {t_gnr:.3e} s)"
        ));
    }
    let (Some(q_gnr), Some(q_cnt)) = (data.gnr.charge_at_sat, data.cnt.charge_at_sat) else {
        return Err("both saturation charges must be reported".into());
    };
    if q_gnr >= 0.0 || q_cnt >= 0.0 {
        return Err("programming must accumulate negative charge on both backends".into());
    }
    Ok(())
}

/// Renders the two transients as one CSV (`backend`, then the
/// per-sample columns) — the artifact the figures driver persists.
#[must_use]
pub fn to_csv(data: &BackendTransientData) -> String {
    let mut csv = String::from("backend,t_s,j_in,j_out,vfg,charge\n");
    for (backend, trace) in [
        ("gnr-floating-gate", &data.gnr),
        ("cnt-floating-gate", &data.cnt),
    ] {
        for s in &trace.samples {
            csv.push_str(&format!(
                "{backend},{:.6e},{:.6e},{:.6e},{:.6e},{:.6e}\n",
                s.t, s.j_in, s.j_out, s.vfg, s.charge
            ));
        }
    }
    csv
}

/// One-line summary per backend (electrons at saturation, `t_sat`).
#[must_use]
pub fn summary(data: &BackendTransientData) -> Vec<String> {
    [("GNR-FG", &data.gnr), ("CNT-FG", &data.cnt)]
        .into_iter()
        .map(|(label, trace)| {
            format!(
                "{label}: t_sat = {} s, {:.1} electrons at saturation",
                trace.t_sat.map_or("n/a".into(), |t| format!("{t:.3e}")),
                trace
                    .charge_at_sat
                    .map_or(f64::NAN, |q| Charge::from_coulombs(q).as_electrons())
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnt_programs_faster_than_gnr() {
        let data = generate(&FloatingGateTransistor::mlgnr_cnt_paper()).unwrap();
        check(&data).unwrap();
        assert!(data.cnt.t_sat.unwrap() < data.gnr.t_sat.unwrap());
    }

    #[test]
    fn csv_tags_every_row_with_its_backend() {
        let data = generate(&FloatingGateTransistor::mlgnr_cnt_paper()).unwrap();
        let csv = to_csv(&data);
        let gnr_rows = csv.lines().filter(|l| l.starts_with("gnr-")).count();
        let cnt_rows = csv.lines().filter(|l| l.starts_with("cnt-")).count();
        assert_eq!(gnr_rows, data.gnr.samples.len());
        assert_eq!(cnt_rows, data.cnt.samples.len());
    }
}
