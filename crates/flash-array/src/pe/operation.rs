//! Closed-loop program and erase operations.
//!
//! Two algorithms on top of the raw pulse primitives:
//!
//! * [`AdaptiveIspp`] — ISPP whose step size adapts to the previous
//!   rung's observed threshold gain: far from target the step grows (up
//!   to `max_step`) to save rungs, and once the predicted next gain
//!   would overshoot, the step tightens toward `min_step` so the cell
//!   lands in a narrow band just above the verify level.
//! * [`EraseVerify`] + [`SoftProgram`] — block-granularity erase as real
//!   NAND does it: every erase pulse hits *every* cell of the block, the
//!   loop repeats (stepping the amplitude) until the slowest cell
//!   verifies erased, and the over-erased tail that collective pulsing
//!   produces is then compacted with low-amplitude soft-program pulses.
//!   The result is an erased distribution bounded between the
//!   soft-program floor and the erase target — far narrower than what
//!   raw per-cell erase leaves behind.

use gnr_flash::engine::{BatchSimulator, ChargeBalanceEngine};
use gnr_flash::pulse::SquarePulse;
use gnr_units::{Time, Voltage};

use crate::cell::FlashCell;
use crate::column::{GroupState, PulseColumns};
use crate::ispp::IsppReport;
use crate::population::CellPopulation;
use crate::{ArrayError, Result};

/// FN charging self-limits: at an unchanged step the next ISPP rung
/// gains roughly this fraction of the last one (the stored charge
/// lowers the oxide field). The adaptive step controller divides by it
/// when predicting the next rung's gain.
const GAIN_DECAY: f64 = 0.45;

/// Adaptive incremental-step-pulse programming.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct AdaptiveIspp {
    /// First rung amplitude (V).
    pub start: Voltage,
    /// Initial step between rungs (V).
    pub initial_step: Voltage,
    /// Smallest step the controller will tighten to (V).
    pub min_step: Voltage,
    /// Largest step the controller will stretch to (V).
    pub max_step: Voltage,
    /// Amplitude ceiling (V).
    pub max_amplitude: Voltage,
    /// Rung width.
    pub width: Time,
    /// Verify target (threshold shift, V).
    pub target: Voltage,
    /// Pulse-count safety bound (the fixed ladder is bounded by its rung
    /// count; the adaptive one is bounded here).
    pub max_pulses: usize,
}

impl AdaptiveIspp {
    /// The adaptive counterpart of
    /// [`crate::ispp::IsppProgrammer::nominal`]: same 13 V entry, same
    /// 16 V ceiling, same 10 µs rungs and the same +2 V verify target,
    /// with the step free to move between 0.25 V and 1.5 V.
    #[must_use]
    pub fn nominal() -> Self {
        Self {
            start: Voltage::from_volts(13.0),
            initial_step: Voltage::from_volts(0.5),
            min_step: Voltage::from_volts(0.25),
            max_step: Voltage::from_volts(1.5),
            max_amplitude: Voltage::from_volts(16.0),
            width: Time::from_microseconds(10.0),
            target: Voltage::from_volts(2.0),
            max_pulses: 32,
        }
    }

    /// Programs one cell: verify first (a passing cell receives zero
    /// pulses), then pulse/verify with the step scaled each rung by
    /// `remaining / (gain × decay)` — the distance still to cover over
    /// the decayed gain the next rung is expected to deliver — clamped
    /// to `[min_step, max_step]`.
    ///
    /// # Errors
    ///
    /// [`ArrayError::VerifyFailed`] when the amplitude ceiling or the
    /// pulse bound is hit before the target; device errors propagate.
    pub fn program_with(
        &self,
        cell: &mut FlashCell,
        engine: &ChargeBalanceEngine,
    ) -> Result<IsppReport> {
        let mut verify_vt = vec![cell.vt_shift().as_volts()];
        if cell.verify_program(self.target) {
            return Ok(IsppReport {
                pulses: 0,
                final_amplitude: 0.0,
                final_vt_shift: verify_vt[0],
                verify_vt,
            });
        }
        let mut amplitude = self.start.as_volts();
        let mut step = self.initial_step.as_volts();
        let max = self.max_amplitude.as_volts();
        let mut pulses = 0;
        loop {
            cell.apply_pulse_with(
                engine,
                SquarePulse::new(Voltage::from_volts(amplitude), self.width),
            )?;
            pulses += 1;
            let vt = cell.vt_shift().as_volts();
            let gain = vt - verify_vt[pulses - 1];
            verify_vt.push(vt);
            if cell.verify_program(self.target) {
                return Ok(IsppReport {
                    pulses,
                    final_amplitude: amplitude,
                    final_vt_shift: vt,
                    verify_vt,
                });
            }
            if amplitude >= max || pulses >= self.max_pulses {
                return Err(ArrayError::VerifyFailed {
                    pulses,
                    reached_volts: vt,
                    target_volts: self.target.as_volts(),
                });
            }
            // The adaptation: scale the step by the ratio of the
            // distance still to cover to the gain the *next* rung is
            // expected to deliver — `gain × GAIN_DECAY`, not the raw
            // gain. Far from target the step stretches (fewer rungs
            // than the fixed ladder); with the target within one decayed
            // gain it tightens toward `min_step`, trimming the overshoot
            // past the verify level without spending an extra rung.
            let remaining = self.target.as_volts() - vt;
            if gain > 1e-9 {
                step = (step * remaining / (gain * GAIN_DECAY))
                    .clamp(self.min_step.as_volts(), self.max_step.as_volts());
            }
            amplitude = (amplitude + step).min(max);
        }
    }

    /// Columnar [`Self::program_with`] over the listed state groups:
    /// the groups run in lockstep (every active group is pulsed each
    /// iteration, so one shared counter tracks per-group pulse counts),
    /// each carrying its own amplitude/step track — groups that happen
    /// to share an amplitude land in the same flow-map column that
    /// iteration. Control flow replicates the scalar loop verbatim.
    pub(crate) fn program_column(
        &self,
        cols: &mut PulseColumns<'_>,
        states: &mut [GroupState],
        members: &[usize],
    ) -> Vec<Result<IsppReport>> {
        let target = self.target.as_volts();
        let max = self.max_amplitude.as_volts();
        let mut results: Vec<Option<Result<IsppReport>>> = members.iter().map(|_| None).collect();
        let mut trajectories: Vec<Vec<f64>> = Vec::with_capacity(members.len());
        let mut tracks: Vec<(f64, f64)> = members
            .iter()
            .map(|_| (self.start.as_volts(), self.initial_step.as_volts()))
            .collect();
        let mut active: Vec<usize> = Vec::new();
        for (pos, &g) in members.iter().enumerate() {
            let vt = cols.vt_shift(&states[g]);
            trajectories.push(vec![vt]);
            if vt >= target {
                results[pos] = Some(Ok(IsppReport {
                    pulses: 0,
                    final_amplitude: 0.0,
                    final_vt_shift: vt,
                    verify_vt: std::mem::take(&mut trajectories[pos]),
                }));
            } else {
                active.push(pos);
            }
        }
        let mut pulses = 0;
        while !active.is_empty() {
            let jobs: Vec<(usize, SquarePulse)> = active
                .iter()
                .map(|&pos| {
                    (
                        members[pos],
                        SquarePulse::new(Voltage::from_volts(tracks[pos].0), self.width),
                    )
                })
                .collect();
            let outcomes = cols.apply(states, &jobs);
            pulses += 1;
            let mut still: Vec<usize> = Vec::new();
            for (&pos, outcome) in active.iter().zip(outcomes) {
                if let Err(e) = outcome {
                    results[pos] = Some(Err(e));
                    continue;
                }
                let vt = cols.vt_shift(&states[members[pos]]);
                let gain = vt - *trajectories[pos].last().expect("pre-verify entry");
                trajectories[pos].push(vt);
                let (amplitude, step) = &mut tracks[pos];
                if vt >= target {
                    results[pos] = Some(Ok(IsppReport {
                        pulses,
                        final_amplitude: *amplitude,
                        final_vt_shift: vt,
                        verify_vt: std::mem::take(&mut trajectories[pos]),
                    }));
                    continue;
                }
                if *amplitude >= max || pulses >= self.max_pulses {
                    results[pos] = Some(Err(ArrayError::VerifyFailed {
                        pulses,
                        reached_volts: vt,
                        target_volts: target,
                    }));
                    continue;
                }
                let remaining = target - vt;
                if gain > 1e-9 {
                    *step = (*step * remaining / (gain * GAIN_DECAY))
                        .clamp(self.min_step.as_volts(), self.max_step.as_volts());
                }
                *amplitude = (*amplitude + *step).min(max);
                still.push(pos);
            }
            active = still;
        }
        results
            .into_iter()
            .map(|r| r.expect("every group resolves"))
            .collect()
    }

    /// Programs many cells of a population (grouped by distinct state,
    /// driven columnar — the same machinery as the fixed-ladder path,
    /// so results are index-aligned and bit-deterministic).
    pub fn program_cells(
        &self,
        pop: &mut CellPopulation,
        indices: &[usize],
        batch: &BatchSimulator,
    ) -> Vec<Result<IsppReport>> {
        pop.run_columnar(indices, batch, |cols, states| {
            let members: Vec<usize> = (0..states.len()).collect();
            self.program_column(cols, states, &members)
        })
    }
}

/// Block-granularity erase-verify: collective pulses until every cell
/// of the block verifies erased.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct EraseVerify {
    /// First erase pulse amplitude (negative, V).
    pub start: Voltage,
    /// Amplitude step per loop iteration (magnitude, V).
    pub step: Voltage,
    /// Most negative amplitude (V).
    pub max_amplitude: Voltage,
    /// Pulse width per iteration.
    pub width: Time,
    /// Erased verify ceiling: the loop ends when every cell's threshold
    /// shift is at or below this (V).
    pub erased_target: Voltage,
    /// Iteration bound.
    pub max_loops: usize,
}

impl EraseVerify {
    /// The nominal recipe matching [`crate::ispp::IsppEraser::nominal`]:
    /// −13 → −16 V in 0.5 V steps, 10 µs pulses, verify at ≤ +0.3 V.
    #[must_use]
    pub fn nominal() -> Self {
        Self {
            start: Voltage::from_volts(-13.0),
            step: Voltage::from_volts(0.5),
            max_amplitude: Voltage::from_volts(-16.0),
            width: Time::from_microseconds(10.0),
            erased_target: Voltage::from_volts(0.3),
            max_loops: 24,
        }
    }
}

/// Post-erase soft-program: low-amplitude pulses that lift the deeply
/// erased tail back up to a floor, compacting the erased distribution.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct SoftProgram {
    /// Soft pulse amplitude (low — well under the programming point, V).
    pub amplitude: Voltage,
    /// Soft pulse width (short).
    pub width: Time,
    /// Compaction floor: every cell below this threshold shift is
    /// soft-programmed up until it clears the floor (V).
    pub floor: Voltage,
    /// Per-cell pulse bound.
    pub max_pulses: usize,
}

impl SoftProgram {
    /// A nominal compaction recipe: 11 V / 1 µs pulses (≈ +0.1–0.2 V per
    /// pulse near the floor, FN-self-limiting) lifting the tail to
    /// −0.5 V — together with the +0.3 V erase target this bounds the
    /// erased distribution to well under a volt.
    #[must_use]
    pub fn nominal() -> Self {
        Self {
            amplitude: Voltage::from_volts(11.0),
            width: Time::from_microseconds(1.0),
            floor: Voltage::from_volts(-0.5),
            max_pulses: 64,
        }
    }

    /// Soft-programs one standalone cell up to the floor — the per-cell
    /// mirror of the columnar block path, returning the pulse count.
    ///
    /// # Errors
    ///
    /// [`ArrayError::VerifyFailed`] when the pulse bound is exhausted
    /// below the floor; device errors propagate.
    pub fn compact(&self, cell: &mut FlashCell) -> Result<usize> {
        let engine = ChargeBalanceEngine::new(cell.device());
        self.compact_with(cell, &engine)
    }

    /// Soft-programs one cell up to the floor.
    ///
    /// # Errors
    ///
    /// [`ArrayError::VerifyFailed`] when the pulse bound is exhausted
    /// below the floor; device errors propagate.
    fn compact_with(&self, cell: &mut FlashCell, engine: &ChargeBalanceEngine) -> Result<usize> {
        let mut pulses = 0;
        while cell.vt_shift() < self.floor {
            if pulses >= self.max_pulses {
                return Err(ArrayError::VerifyFailed {
                    pulses,
                    reached_volts: cell.vt_shift().as_volts(),
                    target_volts: self.floor.as_volts(),
                });
            }
            cell.apply_pulse_with(engine, SquarePulse::new(self.amplitude, self.width))?;
            pulses += 1;
        }
        Ok(pulses)
    }

    /// Columnar [`Self::compact_with`] over the listed state groups —
    /// every still-low group is pulsed each iteration (one shared
    /// flow-map column, since the soft pulse is a fixed bias), so the
    /// shared iteration counter is each group's own pulse count.
    pub(crate) fn compact_column(
        &self,
        cols: &mut PulseColumns<'_>,
        states: &mut [GroupState],
        members: &[usize],
    ) -> Vec<Result<usize>> {
        let floor = self.floor.as_volts();
        let mut results: Vec<Option<Result<usize>>> = members.iter().map(|_| None).collect();
        let mut active: Vec<usize> = (0..members.len()).collect();
        let mut pulses = 0;
        while !active.is_empty() {
            let mut pending: Vec<usize> = Vec::new();
            for &pos in &active {
                let vt = cols.vt_shift(&states[members[pos]]);
                if vt >= floor {
                    results[pos] = Some(Ok(pulses));
                } else if pulses >= self.max_pulses {
                    results[pos] = Some(Err(ArrayError::VerifyFailed {
                        pulses,
                        reached_volts: vt,
                        target_volts: floor,
                    }));
                } else {
                    pending.push(pos);
                }
            }
            if pending.is_empty() {
                break;
            }
            let pulse = SquarePulse::new(self.amplitude, self.width);
            let jobs: Vec<(usize, SquarePulse)> =
                pending.iter().map(|&pos| (members[pos], pulse)).collect();
            let outcomes = cols.apply(states, &jobs);
            pulses += 1;
            let mut still: Vec<usize> = Vec::new();
            for (&pos, outcome) in pending.iter().zip(outcomes) {
                match outcome {
                    Err(e) => results[pos] = Some(Err(e)),
                    Ok(()) => still.push(pos),
                }
            }
            active = still;
        }
        results
            .into_iter()
            .map(|r| r.expect("every group resolves"))
            .collect()
    }
}

/// What one verified block erase did.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct BlockEraseReport {
    /// Collective erase pulses applied to the block.
    pub erase_pulses: usize,
    /// Cells below the soft-program floor after the erase loop (the
    /// over-erased tail that got compacted).
    pub soft_programmed_cells: usize,
    /// Total soft-program pulses across those cells.
    pub soft_pulses: usize,
    /// Erased-distribution width `max(VT) − min(VT)` right after the
    /// erase loop, before compaction (V).
    pub width_before_soft: f64,
    /// Erased-distribution width after compaction (V).
    pub width_after_soft: f64,
}

/// Threshold spread `max − min` over the listed cells (V).
fn vt_spread(pop: &CellPopulation, indices: &[usize]) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &i in indices {
        let vt = pop
            .vt_shift(i)
            .expect("spread over valid indices")
            .as_volts();
        lo = lo.min(vt);
        hi = hi.max(vt);
    }
    hi - lo
}

/// Verified block erase with optional soft-program compaction over the
/// listed cells (one block's worth): collective pulses until every cell
/// verifies at or below `spec.erased_target`, then cells below
/// `soft.floor` are pulsed back up. Each cell's erase-op counter
/// advances once for the whole operation.
///
/// # Errors
///
/// [`ArrayError::VerifyFailed`] when the loop bound is exhausted with
/// cells still above target (wear and pulse stress remain applied, as on
/// real silicon); soft-program and device errors propagate.
pub fn erase_verify_cells(
    pop: &mut CellPopulation,
    indices: &[usize],
    batch: &BatchSimulator,
    spec: &EraseVerify,
    soft: Option<&SoftProgram>,
) -> Result<BlockEraseReport> {
    let above = |pop: &CellPopulation| -> bool {
        indices
            .iter()
            .any(|&i| pop.vt_shift(i).expect("erase over valid indices") > spec.erased_target)
    };
    let mut amplitude = spec.start.as_volts();
    let mut erase_pulses = 0;
    while above(pop) {
        if erase_pulses >= spec.max_loops {
            pop.note_erase_ops(indices);
            let worst = indices
                .iter()
                .map(|&i| pop.vt_shift(i).expect("valid index").as_volts())
                .fold(f64::NEG_INFINITY, f64::max);
            return Err(ArrayError::VerifyFailed {
                pulses: erase_pulses,
                reached_volts: worst,
                target_volts: spec.erased_target.as_volts(),
            });
        }
        // The collective pulse: every cell of the block sees it, passing
        // cells included — that is what digs the over-erased tail the
        // soft-program stage exists to fix.
        let pulse = SquarePulse::new(Voltage::from_volts(amplitude), spec.width);
        for result in pop.apply_pulse_cells(indices, pulse, batch) {
            result?;
        }
        erase_pulses += 1;
        amplitude = (amplitude - spec.step.as_volts()).max(spec.max_amplitude.as_volts());
    }
    pop.note_erase_ops(indices);
    let width_before_soft = vt_spread(pop, indices);

    let mut soft_programmed_cells = 0;
    let mut soft_pulses = 0;
    if let Some(soft) = soft {
        let tail: Vec<usize> = indices
            .iter()
            .copied()
            .filter(|&i| pop.vt_shift(i).expect("valid index") < soft.floor)
            .collect();
        soft_programmed_cells = tail.len();
        let results = pop.run_columnar(&tail, batch, |cols, states| {
            let members: Vec<usize> = (0..states.len()).collect();
            soft.compact_column(cols, states, &members)
        });
        for result in results {
            soft_pulses += result?;
        }
    }
    Ok(BlockEraseReport {
        erase_pulses,
        soft_programmed_cells,
        soft_pulses,
        width_before_soft,
        width_after_soft: vt_spread(pop, indices),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ispp::IsppProgrammer;

    #[test]
    fn adaptive_ispp_reaches_the_nominal_target() {
        let mut cell = FlashCell::paper_cell();
        let engine = ChargeBalanceEngine::new(cell.device());
        let report = AdaptiveIspp::nominal()
            .program_with(&mut cell, &engine)
            .unwrap();
        assert!(report.pulses >= 1);
        assert!(report.final_vt_shift >= 2.0);
        assert_eq!(report.verify_vt.len(), report.pulses + 1);
    }

    #[test]
    fn adaptive_ispp_needs_no_more_pulses_than_the_fixed_ladder() {
        let mut fixed_cell = FlashCell::paper_cell();
        let fixed = IsppProgrammer::nominal().program(&mut fixed_cell).unwrap();
        let mut adaptive_cell = FlashCell::paper_cell();
        let engine = ChargeBalanceEngine::new(adaptive_cell.device());
        let adaptive = AdaptiveIspp::nominal()
            .program_with(&mut adaptive_cell, &engine)
            .unwrap();
        assert!(
            adaptive.pulses <= fixed.pulses,
            "adaptive {} vs fixed {}",
            adaptive.pulses,
            fixed.pulses
        );
    }

    #[test]
    fn adaptive_ispp_verifies_before_the_first_rung() {
        let mut cell = FlashCell::paper_cell();
        let engine = ChargeBalanceEngine::new(cell.device());
        let spec = AdaptiveIspp::nominal();
        spec.program_with(&mut cell, &engine).unwrap();
        let vt = cell.vt_shift().as_volts();
        let again = spec.program_with(&mut cell, &engine).unwrap();
        assert_eq!(again.pulses, 0);
        assert_eq!(cell.vt_shift().as_volts(), vt);
    }

    #[test]
    fn adaptive_ispp_fails_cleanly_on_unreachable_targets() {
        let mut cell = FlashCell::paper_cell();
        let engine = ChargeBalanceEngine::new(cell.device());
        let spec = AdaptiveIspp {
            target: Voltage::from_volts(9.0),
            ..AdaptiveIspp::nominal()
        };
        let err = spec.program_with(&mut cell, &engine).unwrap_err();
        assert!(matches!(err, ArrayError::VerifyFailed { .. }));
    }

    #[test]
    fn erase_verify_converges_and_soft_program_compacts() {
        let mut pop = CellPopulation::paper(8);
        let batch = BatchSimulator::sequential();
        // Program half the block; the other half stays fresh — the
        // worst case for collective pulsing (fresh cells over-erase
        // while programmed cells catch up).
        let programmer = IsppProgrammer::nominal();
        for r in pop.program_cells(&programmer, &[0, 1, 2, 3], &batch) {
            r.unwrap();
        }
        let indices: Vec<usize> = (0..8).collect();
        let report = erase_verify_cells(
            &mut pop,
            &indices,
            &batch,
            &EraseVerify::nominal(),
            Some(&SoftProgram::nominal()),
        )
        .unwrap();
        assert!(report.erase_pulses >= 1);
        assert!(report.soft_programmed_cells > 0);
        assert!(
            report.width_after_soft < report.width_before_soft || report.width_before_soft == 0.0,
            "{report:?}"
        );
        for &i in &indices {
            let vt = pop.vt_shift(i).unwrap();
            assert!(vt <= Voltage::from_volts(0.3), "cell {i} vt {vt:?}");
            assert!(
                vt >= Voltage::from_volts(-0.5) - Voltage::from_volts(1e-9),
                "cell {i} below the soft floor: {vt:?}"
            );
            assert_eq!(pop.stats(i).unwrap().erase_ops, 1);
        }
    }

    #[test]
    fn columnar_adaptive_ispp_matches_the_scalar_cell_path_bitwise() {
        let mut pop = CellPopulation::paper(2);
        let batch = BatchSimulator::sequential();
        let spec = AdaptiveIspp::nominal();
        let reports = spec.program_cells(&mut pop, &[0, 1], &batch);

        let mut cell = FlashCell::paper_cell();
        let engine = batch.engine_for(cell.device());
        let expected = spec.program_with(&mut cell, &engine).unwrap();

        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.as_ref().unwrap(), &expected, "cell {i}");
            assert_eq!(
                pop.charge(i).unwrap().as_coulombs().to_bits(),
                cell.charge().as_coulombs().to_bits(),
                "cell {i}"
            );
            assert_eq!(pop.stats(i).unwrap(), cell.stats());
        }
    }

    #[test]
    fn columnar_soft_program_matches_the_scalar_cell_path_bitwise() {
        let batch = BatchSimulator::sequential();
        let soft = SoftProgram::nominal();
        // Over-erase first so the compaction has work to do.
        let deep_erase =
            SquarePulse::new(Voltage::from_volts(-15.0), Time::from_microseconds(300.0));

        let mut pop = CellPopulation::paper(2);
        for r in pop.apply_pulse_cells(&[0, 1], deep_erase, &batch) {
            r.unwrap();
        }
        let results = pop.run_columnar(&[0, 1], &batch, |cols, states| {
            let members: Vec<usize> = (0..states.len()).collect();
            soft.compact_column(cols, states, &members)
        });

        let mut cell = FlashCell::paper_cell();
        let engine = batch.engine_for(cell.device());
        cell.apply_pulse_with(&engine, deep_erase).unwrap();
        assert!(cell.vt_shift() < soft.floor, "setup must over-erase");
        let expected = soft.compact_with(&mut cell, &engine).unwrap();
        assert!(expected >= 1);

        for (i, result) in results.iter().enumerate() {
            assert_eq!(*result.as_ref().unwrap(), expected, "cell {i}");
            assert_eq!(
                pop.charge(i).unwrap().as_coulombs().to_bits(),
                cell.charge().as_coulombs().to_bits(),
                "cell {i}"
            );
        }
    }

    #[test]
    fn erase_verify_loop_bound_reports_the_worst_cell() {
        let mut pop = CellPopulation::paper(2);
        let batch = BatchSimulator::sequential();
        let programmer = IsppProgrammer::nominal();
        for r in pop.program_cells(&programmer, &[0, 1], &batch) {
            r.unwrap();
        }
        // An erase too weak to move the cells in one allowed loop.
        let spec = EraseVerify {
            start: Voltage::from_volts(-10.0),
            max_amplitude: Voltage::from_volts(-10.5),
            width: Time::from_microseconds(0.1),
            max_loops: 1,
            ..EraseVerify::nominal()
        };
        let err = erase_verify_cells(&mut pop, &[0, 1], &batch, &spec, None).unwrap_err();
        assert!(matches!(err, ArrayError::VerifyFailed { pulses: 1, .. }));
    }
}
