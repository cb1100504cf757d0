//! Monte-Carlo process variation.
//!
//! The paper's conclusion calls for "optimization among these crucial
//! parameters" — which requires knowing how sensitive the cell is to
//! manufacturing spread. This module perturbs the tunnel-oxide thickness,
//! the channel barrier and the GCR with Gaussian variations and reports
//! the resulting distribution of programming current density (log-normal,
//! so statistics are computed in log₁₀ space) and floating-gate voltage.

use gnr_numerics::stats::Summary;
use gnr_units::{Charge, Energy, Length, Voltage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::device::{FgtBuilder, FloatingGateTransistor};
use crate::{DeviceError, Result};

/// Specification of the variation experiment.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct VariationSpec {
    /// Number of Monte-Carlo samples.
    pub samples: usize,
    /// RNG seed (runs are reproducible).
    pub seed: u64,
    /// Relative 1σ of the tunnel-oxide thickness (e.g. 0.04 = 4 %).
    pub xto_sigma_fraction: f64,
    /// Absolute 1σ of the channel barrier (work-function spread), eV.
    pub barrier_sigma_ev: f64,
    /// Absolute 1σ of the GCR.
    pub gcr_sigma: f64,
}

impl Default for VariationSpec {
    fn default() -> Self {
        Self {
            samples: 500,
            seed: 0x5eed_f1a5,
            xto_sigma_fraction: 0.04,
            barrier_sigma_ev: 0.05,
            gcr_sigma: 0.02,
        }
    }
}

/// Result of the variation experiment.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct VariationReport {
    /// Statistics of `log₁₀(J_in [A/m²])` at the programming bias.
    pub log10_j_in: Summary,
    /// Statistics of the floating-gate voltage (V).
    pub vfg: Summary,
    /// Number of valid samples (a sample is discarded if its perturbed
    /// parameters are unphysical, e.g. GCR ≥ 1).
    pub valid_samples: usize,
}

/// Standard-normal sample via Box–Muller (avoids an extra distribution
/// dependency). Public so array-level variation sampling (the
/// `CellPopulation` delta columns) draws from the same distribution.
pub fn standard_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
}

/// Runs the Monte-Carlo variation experiment around a template device at
/// the given programming bias.
///
/// # Errors
///
/// [`DeviceError::InvalidParameter`] when the spec requests zero samples
/// or fewer than 10 valid samples survive the physical-validity filter.
pub fn run_variation(
    template: &FloatingGateTransistor,
    vgs: Voltage,
    spec: &VariationSpec,
) -> Result<VariationReport> {
    if spec.samples == 0 {
        return Err(DeviceError::InvalidParameter {
            name: "samples",
            value: 0.0,
            constraint: "must be positive",
        });
    }
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let geometry = *template.geometry();
    let xto_nominal = geometry.tunnel_oxide_thickness().as_nanometers();
    let gcr_nominal = template.capacitances().gcr();
    let barrier_nominal = template.channel_emission_model().barrier().as_ev();
    let mass = template.channel_emission_model().effective_mass();
    let oxide_affinity = template.tunnel_oxide().electron_affinity().as_ev();

    let mut log_j = Vec::with_capacity(spec.samples);
    let mut vfgs = Vec::with_capacity(spec.samples);

    for _ in 0..spec.samples {
        let xto = xto_nominal * (1.0 + spec.xto_sigma_fraction * standard_normal(&mut rng));
        let gcr = gcr_nominal + spec.gcr_sigma * standard_normal(&mut rng);
        let barrier = barrier_nominal + spec.barrier_sigma_ev * standard_normal(&mut rng);
        if xto <= 0.5 || !(0.05..=0.95).contains(&gcr) || barrier <= 0.5 {
            continue;
        }
        let Ok(geom) = geometry.with_tunnel_oxide(Length::from_nanometers(xto)) else {
            continue;
        };
        // Perturb the barrier via the channel work function (barrier =
        // WF − χ_oxide).
        let wf = Energy::from_ev(barrier + oxide_affinity);
        let Ok(dev) = FgtBuilder::default()
            .name("mc-sample")
            .geometry(geom)
            .gcr(gcr)
            .total_capacitance(template.capacitances().total())
            .channel_work_function(wf)
            .build()
        else {
            continue;
        };
        let _ = mass; // the mass rides along unchanged; perturbing ΦB dominates

        let state = dev.tunneling_state(vgs, Voltage::ZERO, Charge::ZERO);
        let j = state.tunnel_flow.abs().as_amps_per_square_meter();
        if j > 0.0 {
            log_j.push(j.log10());
            vfgs.push(state.vfg.as_volts());
        }
    }

    if log_j.len() < 10 {
        return Err(DeviceError::InvalidParameter {
            name: "valid_samples",
            value: log_j.len() as f64,
            constraint: "need at least 10 valid Monte-Carlo samples",
        });
    }
    Ok(VariationReport {
        log10_j_in: Summary::from_samples(&log_j)?,
        vfg: Summary::from_samples(&vfgs)?,
        valid_samples: log_j.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn variation_is_reproducible() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let spec = VariationSpec {
            samples: 100,
            ..VariationSpec::default()
        };
        let a = run_variation(&d, presets::program_vgs(), &spec).unwrap();
        let b = run_variation(&d, presets::program_vgs(), &spec).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn median_matches_nominal_device() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let spec = VariationSpec {
            samples: 400,
            ..VariationSpec::default()
        };
        let report = run_variation(&d, presets::program_vgs(), &spec).unwrap();
        let nominal = d
            .tunneling_state(presets::program_vgs(), Voltage::ZERO, Charge::ZERO)
            .tunnel_flow
            .as_amps_per_square_meter()
            .log10();
        assert!(
            (report.log10_j_in.median - nominal).abs() < 0.5,
            "median log10 J = {} vs nominal {}",
            report.log10_j_in.median,
            nominal
        );
        assert!((report.vfg.median - 9.0).abs() < 0.5);
    }

    #[test]
    fn wider_xto_spread_widens_current_spread() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let tight = run_variation(
            &d,
            presets::program_vgs(),
            &VariationSpec {
                samples: 300,
                xto_sigma_fraction: 0.01,
                ..VariationSpec::default()
            },
        )
        .unwrap();
        let wide = run_variation(
            &d,
            presets::program_vgs(),
            &VariationSpec {
                samples: 300,
                xto_sigma_fraction: 0.08,
                ..VariationSpec::default()
            },
        )
        .unwrap();
        assert!(wide.log10_j_in.std_dev > tight.log10_j_in.std_dev);
    }

    #[test]
    fn zero_samples_rejected() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let r = run_variation(
            &d,
            presets::program_vgs(),
            &VariationSpec {
                samples: 0,
                ..VariationSpec::default()
            },
        );
        assert!(r.is_err());
    }
}
