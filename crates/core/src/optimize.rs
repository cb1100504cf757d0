//! Design-point optimisation — the paper's §V future work, implemented.
//!
//! > "Our future work will involve optimizing the supply voltage,
//! > tunneling current density and oxide thickness for optimum
//! > performance."
//!
//! The trade-off the conclusion describes: higher `VGS` / thinner `XTO`
//! program faster but overstress the oxide. This module searches the
//! (VGS, XTO) plane for the **fastest programming point whose oxide
//! stress stays below a reliability budget**, using a penalised
//! Nelder–Mead over the continuous design space with a coarse-grid seed.

use gnr_numerics::optimize::nelder_mead;
use gnr_units::{Charge, Length, Voltage};

use crate::device::FgtBuilder;
use crate::geometry::FgtGeometry;
use crate::{DeviceError, Result};

/// The optimisation constraints and bounds.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct DesignSpec {
    /// Allowed VGS range (V).
    pub vgs_range: (f64, f64),
    /// Allowed tunnel-oxide range (nm); the upper bound must stay below
    /// the control-oxide thickness.
    pub xto_range_nm: (f64, f64),
    /// Gate-coupling ratio (held fixed; the paper's sweeps treat GCR as a
    /// discrete design choice).
    pub gcr: f64,
    /// Maximum tolerated tunnel-oxide stress (fraction of breakdown
    /// field; < 1 for any margin).
    pub max_stress: f64,
}

impl Default for DesignSpec {
    fn default() -> Self {
        Self {
            vgs_range: (8.0, 17.0),
            xto_range_nm: (4.0, 8.0),
            gcr: crate::presets::PAPER_GCR,
            max_stress: 0.95,
        }
    }
}

/// The optimised design point.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct OptimalDesign {
    /// Programming voltage (V).
    pub vgs: f64,
    /// Tunnel-oxide thickness (nm).
    pub xto_nm: f64,
    /// Programming current density at the point (A/m²) — the speed
    /// figure of merit (programming time ∝ 1/J).
    pub j_program: f64,
    /// Tunnel-oxide stress ratio at the point.
    pub stress: f64,
}

/// Evaluates one design point: `(J_program, stress)`; `None` when the
/// device cannot be built (XTO ≥ XCO etc.).
fn evaluate(spec: &DesignSpec, vgs: f64, xto_nm: f64) -> Option<(f64, f64)> {
    let geometry = FgtGeometry::paper_nominal()
        .with_tunnel_oxide(Length::from_nanometers(xto_nm))
        .ok()?;
    let device = FgtBuilder::default()
        .geometry(geometry)
        .gcr(spec.gcr)
        .build()
        .ok()?;
    let v = Voltage::from_volts(vgs);
    let state = device.tunneling_state(v, Voltage::ZERO, Charge::ZERO);
    let (stress, _) = device.stress_ratios(v, Voltage::ZERO, Charge::ZERO);
    Some((state.tunnel_flow.abs().as_amps_per_square_meter(), stress))
}

/// Finds the fastest programming point under the stress budget.
///
/// # Errors
///
/// [`DeviceError::InvalidParameter`] when the spec bounds are degenerate
/// or no feasible point exists; numerical errors propagate.
pub fn fastest_reliable_program(spec: &DesignSpec) -> Result<OptimalDesign> {
    let (v_lo, v_hi) = spec.vgs_range;
    let (x_lo, x_hi) = spec.xto_range_nm;
    if !(v_lo < v_hi) || !(x_lo < x_hi) {
        return Err(DeviceError::InvalidParameter {
            name: "design bounds",
            value: v_lo,
            constraint: "ranges must be non-degenerate and increasing",
        });
    }
    if !(spec.max_stress > 0.0) {
        return Err(DeviceError::InvalidParameter {
            name: "max_stress",
            value: spec.max_stress,
            constraint: "must be positive",
        });
    }

    // Coarse feasibility grid: seed the simplex from the best feasible
    // cell (the objective is monotone in VGS but the stress boundary cuts
    // a curve through the plane).
    let mut best: Option<(f64, f64, f64, f64)> = None; // (vgs, xto, j, stress)
    for i in 0..12 {
        for j in 0..12 {
            let vgs = v_lo + (v_hi - v_lo) * i as f64 / 11.0;
            let xto = x_lo + (x_hi - x_lo) * j as f64 / 11.0;
            if let Some((jf, stress)) = evaluate(spec, vgs, xto) {
                if stress <= spec.max_stress {
                    match best {
                        Some((_, _, jb, _)) if jb >= jf => {}
                        _ => best = Some((vgs, xto, jf, stress)),
                    }
                }
            }
        }
    }
    let (v0, x0, _, _) = best.ok_or(DeviceError::InvalidParameter {
        name: "design space",
        value: spec.max_stress,
        constraint: "no feasible point satisfies the stress budget",
    })?;

    // Penalised continuous refinement: minimise −log10(J) + penalty.
    let objective = |p: &[f64]| -> f64 {
        let vgs = p[0];
        let xto = p[1];
        if vgs < v_lo || vgs > v_hi || xto < x_lo || xto > x_hi {
            return 1.0e6;
        }
        match evaluate(spec, vgs, xto) {
            Some((j, stress)) if j > 0.0 => {
                let violation = (stress - spec.max_stress).max(0.0);
                -j.log10() + 1.0e4 * violation * violation + 1.0e2 * violation
            }
            _ => 1.0e6,
        }
    };
    let result = nelder_mead(
        objective,
        &[v0, x0],
        &[0.2 * (v_hi - v_lo), 0.2 * (x_hi - x_lo)],
        1e-10,
        2000,
    )
    .map_err(DeviceError::from)?;

    let vgs = result.x[0].clamp(v_lo, v_hi);
    let xto = result.x[1].clamp(x_lo, x_hi);
    let (j_program, stress) = evaluate(spec, vgs, xto).ok_or(DeviceError::InvalidParameter {
        name: "optimum",
        value: xto,
        constraint: "optimiser left the buildable region",
    })?;
    Ok(OptimalDesign {
        vgs,
        xto_nm: xto,
        j_program,
        stress,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimum_is_feasible_and_on_the_stress_boundary() {
        let spec = DesignSpec::default();
        let opt = fastest_reliable_program(&spec).unwrap();
        assert!(
            opt.stress <= spec.max_stress + 1e-3,
            "stress {}",
            opt.stress
        );
        // The FN objective is monotone in field, so the optimum pushes
        // against the stress budget.
        assert!(opt.stress > 0.85 * spec.max_stress, "stress {}", opt.stress);
        assert!(opt.j_program > 0.0);
        assert!((spec.vgs_range.0..=spec.vgs_range.1).contains(&opt.vgs));
        assert!((spec.xto_range_nm.0..=spec.xto_range_nm.1).contains(&opt.xto_nm));
    }

    #[test]
    fn tighter_stress_budget_means_slower_programming() {
        let strict = DesignSpec {
            max_stress: 0.7,
            ..DesignSpec::default()
        };
        let loose = DesignSpec {
            max_stress: 0.95,
            ..DesignSpec::default()
        };
        let s = fastest_reliable_program(&strict).unwrap();
        let l = fastest_reliable_program(&loose).unwrap();
        assert!(
            l.j_program > s.j_program,
            "loose {} !> strict {}",
            l.j_program,
            s.j_program
        );
    }

    #[test]
    fn infeasible_budget_is_reported() {
        // A stress budget of 1e-6 cannot be met anywhere in the range
        // where tunneling is on.
        let spec = DesignSpec {
            max_stress: 1.0e-6,
            ..DesignSpec::default()
        };
        assert!(matches!(
            fastest_reliable_program(&spec),
            Err(DeviceError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn degenerate_bounds_rejected() {
        let spec = DesignSpec {
            vgs_range: (10.0, 10.0),
            ..DesignSpec::default()
        };
        assert!(fastest_reliable_program(&spec).is_err());
    }

    #[test]
    fn higher_gcr_allows_lower_voltage_at_same_stress() {
        // More coupling means the same oxide field at lower VGS: the
        // optimum VGS must not increase with GCR.
        let lo = fastest_reliable_program(&DesignSpec {
            gcr: 0.5,
            ..DesignSpec::default()
        })
        .unwrap();
        let hi = fastest_reliable_program(&DesignSpec {
            gcr: 0.7,
            ..DesignSpec::default()
        })
        .unwrap();
        assert!(hi.vgs <= lo.vgs + 1e-6, "hi {} vs lo {}", hi.vgs, lo.vgs);
    }
}
