//! Program/erase endurance with phenomenological oxide wear.
//!
//! The paper's conclusion: "higher tunneling current will severely damage
//! the oxide's reliability. Therefore, an optimization among these
//! crucial parameters is recommended." The wear mechanism (after Olivio
//! et al., the paper's ref. \[2\]) is charge-to-breakdown: every coulomb
//! driven through the tunnel oxide generates interface traps. Trapped
//! electrons raise the erased threshold faster than the programmed one,
//! closing the memory window; enough cumulative fluence breaks the oxide
//! down entirely.
//!
//! The model here is deliberately *phenomenological* (trap generation
//! `∝ √fluence`, a standard empirical exponent) — calibrated so the
//! default cell survives ~10⁵ cycles, the NAND ballpark.

use gnr_numerics::stats::Summary;
use gnr_units::{Charge, Voltage};

use crate::cell::FlashCell;
use crate::population::CellPopulation;
use crate::{ArrayError, Result};

/// Oxide-wear parameters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct EnduranceModel {
    /// Trapped electrons per √(injected electrons) (empirical √ law).
    pub trap_sqrt_coefficient: f64,
    /// Fraction of the trap-induced threshold offset that afflicts the
    /// *programmed* state (< 1: the erased state degrades faster, so the
    /// window closes).
    pub programmed_state_fraction: f64,
    /// Charge-to-breakdown per cell (C).
    pub breakdown_charge: f64,
}

impl Default for EnduranceModel {
    fn default() -> Self {
        // Calibration: the nominal cell moves ~6×10⁻¹⁷ C per cycle; with
        // a √-law coefficient of 0.05 the trap-induced offset reaches the
        // ~11 V initial window after a few ×10⁵ cycles (NAND-class
        // endurance), and Q_BD = 5 pC corresponds to ~10⁵ cycles of
        // fluence — breakdown and window closure compete realistically.
        Self {
            trap_sqrt_coefficient: 0.05,
            programmed_state_fraction: 0.5,
            breakdown_charge: 5.0e-12,
        }
    }
}

/// One endurance checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct EndurancePoint {
    /// Cycle number.
    pub cycle: u64,
    /// Programmed-state threshold shift (V).
    pub vt_programmed: f64,
    /// Erased-state threshold shift (V).
    pub vt_erased: f64,
    /// Remaining memory window (V).
    pub window: f64,
}

/// The endurance simulation result.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct EnduranceReport {
    /// Log-spaced checkpoints.
    pub points: Vec<EndurancePoint>,
    /// First cycle at which the window fell below the margin, if any.
    pub cycles_to_window_close: Option<u64>,
    /// First cycle at which cumulative fluence exceeded `Q_BD`, if any.
    pub cycles_to_breakdown: Option<u64>,
    /// Charge moved per cycle (C).
    pub charge_per_cycle: f64,
}

impl EnduranceModel {
    /// Trapped charge (C, negative = electrons) after a cumulative
    /// injected fluence.
    #[must_use]
    pub fn trapped_charge(&self, injected: f64) -> Charge {
        let injected_electrons = injected.abs() / gnr_units::constants::ELEMENTARY_CHARGE;
        Charge::from_electrons(-self.trap_sqrt_coefficient * injected_electrons.sqrt())
    }

    /// Simulates `max_cycles` program/erase cycles of a fresh cell.
    ///
    /// One representative program and erase transient are run (the
    /// per-cycle charge swing is bias-determined, not history-determined);
    /// wear then evolves analytically, checked at log-spaced checkpoints.
    ///
    /// # Errors
    ///
    /// Propagates transient failures from the representative cycle.
    pub fn simulate(
        &self,
        cell_template: &FlashCell,
        max_cycles: u64,
        window_margin: Voltage,
    ) -> Result<EnduranceReport> {
        // Representative cycle.
        let mut cell = cell_template.clone();
        cell.program_default()?;
        let q_prog = cell.charge();
        let vt_prog0 = cell.vt_shift().as_volts();
        cell.erase_default()?;
        let q_erased = cell.charge();
        let vt_erased0 = cell.vt_shift().as_volts();
        let charge_per_cycle = 2.0 * (q_prog.as_coulombs() - q_erased.as_coulombs()).abs();

        let cfc = cell.device().capacitances().cfc();
        let mut points = Vec::new();
        let mut window_close = None;
        let mut breakdown = None;

        for &cycle in log_spaced_cycles(max_cycles).iter() {
            let injected = charge_per_cycle * cycle as f64;
            let q_trap = self.trapped_charge(injected);
            // Trap-induced threshold offset (positive: electrons).
            let offset = -(q_trap / cfc).as_volts();
            let vt_p = vt_prog0 + self.programmed_state_fraction * offset;
            let vt_e = vt_erased0 + offset;
            let window = vt_p - vt_e;
            points.push(EndurancePoint {
                cycle,
                vt_programmed: vt_p,
                vt_erased: vt_e,
                window,
            });
            if window_close.is_none() && window < window_margin.as_volts() {
                window_close = Some(cycle);
            }
            if breakdown.is_none() && injected > self.breakdown_charge {
                breakdown = Some(cycle);
            }
        }

        Ok(EnduranceReport {
            points,
            cycles_to_window_close: window_close,
            cycles_to_breakdown: breakdown,
            charge_per_cycle,
        })
    }
}

/// Array-level wear view built from a population's injected-charge
/// column — the struct-of-arrays path: no per-cell transients, just the
/// analytic trap model applied to the recorded fluence of every cell.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct PopulationWearReport {
    /// Injected-charge fluence across cells (C).
    pub injected: Summary,
    /// Trap-induced threshold offset across cells (V).
    pub trap_offset: Summary,
    /// Fraction of cells whose trap offset already exceeds `margin`.
    pub cells_past_margin: f64,
}

impl EnduranceModel {
    /// Evaluates the wear model over every cell of a population.
    ///
    /// # Errors
    ///
    /// Statistics errors (populations are never empty).
    pub fn population_wear(
        &self,
        pop: &CellPopulation,
        margin: Voltage,
    ) -> Result<PopulationWearReport> {
        let n = pop.len();
        let mut injected = Vec::with_capacity(n);
        let mut offsets = Vec::with_capacity(n);
        let mut past = 0usize;
        for i in 0..n {
            let fluence = pop.stats(i)?.injected_charge;
            let cfc = pop.device(i)?.capacitances().cfc();
            let offset = -(self.trapped_charge(fluence) / cfc).as_volts();
            if offset > margin.as_volts() {
                past += 1;
            }
            injected.push(fluence);
            offsets.push(offset);
        }
        let to_err = |e: gnr_numerics::NumericsError| ArrayError::Device(e.into());
        Ok(PopulationWearReport {
            injected: Summary::from_samples(&injected).map_err(to_err)?,
            trap_offset: Summary::from_samples(&offsets).map_err(to_err)?,
            cells_past_margin: past as f64 / n as f64,
        })
    }
}

/// 1-2-5 log-spaced cycle checkpoints up to `max`.
fn log_spaced_cycles(max: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut decade = 1u64;
    loop {
        for m in [1u64, 2, 5] {
            let c = decade.saturating_mul(m);
            if c > max {
                if out.last() != Some(&max) {
                    out.push(max);
                }
                return out;
            }
            out.push(c);
        }
        decade = decade.saturating_mul(10);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_closes_monotonically() {
        let report = EnduranceModel::default()
            .simulate(
                &FlashCell::paper_cell(),
                1_000_000,
                Voltage::from_volts(1.0),
            )
            .unwrap();
        for pair in report.points.windows(2) {
            assert!(pair[1].window <= pair[0].window + 1e-9);
        }
    }

    #[test]
    fn default_cell_survives_nand_class_cycling() {
        let report = EnduranceModel::default()
            .simulate(
                &FlashCell::paper_cell(),
                10_000_000,
                Voltage::from_volts(1.0),
            )
            .unwrap();
        let close = report
            .cycles_to_window_close
            .expect("window closes eventually");
        assert!(close > 10_000, "window closed too early: {close} cycles");
    }

    #[test]
    fn harsher_trapping_closes_window_sooner() {
        let gentle = EnduranceModel::default();
        let harsh = EnduranceModel {
            trap_sqrt_coefficient: 3.5,
            ..gentle
        };
        let cell = FlashCell::paper_cell();
        let margin = Voltage::from_volts(1.0);
        let g = gentle.simulate(&cell, 10_000_000, margin).unwrap();
        let h = harsh.simulate(&cell, 10_000_000, margin).unwrap();
        match (h.cycles_to_window_close, g.cycles_to_window_close) {
            (Some(hc), Some(gc)) => assert!(hc < gc),
            (Some(_), None) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn breakdown_tracks_fluence() {
        let model = EnduranceModel {
            breakdown_charge: 1.0e-15,
            ..EnduranceModel::default()
        };
        let report = model
            .simulate(
                &FlashCell::paper_cell(),
                1_000_000,
                Voltage::from_volts(0.5),
            )
            .unwrap();
        assert!(report.cycles_to_breakdown.is_some());
        // Q_BD threshold: fluence per cycle × cycles > 1e-15.
        let c = report.cycles_to_breakdown.unwrap();
        assert!(report.charge_per_cycle * c as f64 > 1.0e-15);
    }

    #[test]
    fn population_wear_tracks_injected_column() {
        use gnr_flash::engine::BatchSimulator;
        let mut pop = CellPopulation::paper(8);
        let batch = BatchSimulator::sequential();
        let programmer = crate::ispp::IsppProgrammer::nominal();
        let _ = pop.program_cells(&programmer, &[0, 1, 2, 3], &batch);
        let report = EnduranceModel::default()
            .population_wear(&pop, Voltage::from_volts(1.0))
            .unwrap();
        assert_eq!(report.injected.count, 8);
        assert!(report.injected.max > 0.0, "programmed cells carry wear");
        assert_eq!(report.injected.min, 0.0, "untouched cells carry none");
        assert!(report.trap_offset.max > 0.0);
        assert_eq!(report.cells_past_margin, 0.0);
    }

    #[test]
    fn checkpoints_are_log_spaced() {
        let cs = log_spaced_cycles(1000);
        assert_eq!(cs, vec![1, 2, 5, 10, 20, 50, 100, 200, 500, 1000]);
        let cs2 = log_spaced_cycles(30);
        assert_eq!(cs2.last(), Some(&30));
    }
}
