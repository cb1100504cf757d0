//! Incremental step pulse programming (ISPP) with verify.
//!
//! The standard NAND programming algorithm: apply a pulse, read back,
//! step the amplitude up, repeat until the target threshold is reached.
//! This realises the paper's §II point that FN programming allows tight
//! threshold placement with tiny per-cell current.
//!
//! Every rung goes through [`FlashCell::apply_pulse_with`], so in the
//! engine's default flow-map mode a whole verify ladder costs two
//! interpolations per rung against the per-`(device, amplitude)` master
//! trajectories — the rung amplitudes are shared across every cell and
//! reprogram of the array, so the integrations amortise to ~zero.

use gnr_flash::engine::{BatchSimulator, ChargeBalanceEngine};
use gnr_flash::pulse::{IsppLadder, SquarePulse};
use gnr_units::Voltage;

use crate::cell::FlashCell;
use crate::column::{GroupState, PulseColumns};
use crate::{ArrayError, Result};

/// Result of one ISPP operation.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct IsppReport {
    /// Pulses applied (including the passing one); `0` when the cell
    /// already verified before the first rung.
    pub pulses: usize,
    /// Final gate amplitude applied (V); `0` when no pulse was applied.
    pub final_amplitude: f64,
    /// Threshold shift after the operation (V).
    pub final_vt_shift: f64,
    /// The verify trajectory: the VT shift (V) observed at every verify
    /// read, starting with the pre-rung-0 verify — `verify_vt.len()` is
    /// always `pulses + 1` and `verify_vt.last()` equals
    /// [`Self::final_vt_shift`] for successful operations.
    pub verify_vt: Vec<f64>,
}

/// ISPP programmer: a ladder plus a verify target.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct IsppProgrammer {
    ladder: IsppLadder,
    target: Voltage,
}

impl IsppProgrammer {
    /// Creates a programmer.
    #[must_use]
    pub fn new(ladder: IsppLadder, target: Voltage) -> Self {
        Self { ladder, target }
    }

    /// A nominal NAND-class recipe for the paper cell: 13 → 16 V in
    /// 0.5 V steps, 10 µs rungs, verify at +2 V threshold shift.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(
            IsppLadder::new(
                Voltage::from_volts(13.0),
                Voltage::from_volts(0.5),
                Voltage::from_volts(16.0),
                gnr_units::Time::from_microseconds(10.0),
            ),
            Voltage::from_volts(2.0),
        )
    }

    /// The verify target.
    #[must_use]
    pub fn target(&self) -> Voltage {
        self.target
    }

    /// The rung ladder.
    #[must_use]
    pub fn ladder(&self) -> IsppLadder {
        self.ladder
    }

    /// Programs the cell, verifying after every rung.
    ///
    /// # Errors
    ///
    /// [`ArrayError::VerifyFailed`] when the ladder is exhausted before
    /// the target is reached; device errors propagate.
    pub fn program(&self, cell: &mut FlashCell) -> Result<IsppReport> {
        let engine = ChargeBalanceEngine::new(cell.device());
        self.program_with(cell, &engine)
    }

    /// [`Self::program`] with a prepared engine, so the whole verify
    /// ladder pays the engine setup once (the per-cell unit of work the
    /// batch layer fans out).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::program`].
    pub fn program_with(
        &self,
        cell: &mut FlashCell,
        engine: &ChargeBalanceEngine,
    ) -> Result<IsppReport> {
        // Verify before rung 0: a cell already at or above target (a
        // reprogram, or an MLC level the cell already sits on) must not
        // receive a single pulse — the historical first-pulse-then-verify
        // loop over-programmed it past the target window.
        let mut verify_vt = vec![cell.vt_shift().as_volts()];
        if cell.verify_program(self.target) {
            return Ok(IsppReport {
                pulses: 0,
                final_amplitude: 0.0,
                final_vt_shift: verify_vt[0],
                verify_vt,
            });
        }
        let mut pulses = 0;
        for pulse in self.ladder {
            cell.apply_pulse_with(engine, pulse)?;
            pulses += 1;
            let vt = cell.vt_shift().as_volts();
            verify_vt.push(vt);
            if cell.verify_program(self.target) {
                return Ok(IsppReport {
                    pulses,
                    final_amplitude: pulse.amplitude.as_volts(),
                    final_vt_shift: vt,
                    verify_vt,
                });
            }
        }
        Err(ArrayError::VerifyFailed {
            pulses,
            reached_volts: cell.vt_shift().as_volts(),
            target_volts: self.target.as_volts(),
        })
    }

    /// Programs many independent cells through the batch engine, one
    /// full verify ladder per cell, fanned out across cores. Results are
    /// in cell order and failures are per-cell.
    #[must_use]
    pub fn program_batch(
        &self,
        cells: Vec<&mut FlashCell>,
        batch: &BatchSimulator,
    ) -> Vec<Result<IsppReport>> {
        batch.scatter(cells, |cell| {
            let engine = batch.engine_for(cell.device());
            self.program_with(cell, &engine)
        })
    }
}

/// The columnar fixed-ladder driver shared by [`IsppProgrammer`] and
/// [`IsppEraser`]: the listed groups run the ladder in lockstep — every
/// still-active group receives rung `k` at step `k`, so one shared pulse
/// counter tracks every group's pulse count, and each rung's pulses are
/// one [`PulseColumns::apply`] call (one sorted flow-map column per
/// variant). Per-group control flow replicates the scalar
/// `program_with`/`erase_with` verbatim: verify before rung 0, verify
/// after every rung, `VerifyFailed` on ladder exhaustion, device errors
/// freeze the group's state where the scalar path would have returned.
fn ladder_column(
    ladder: IsppLadder,
    target: Voltage,
    erase: bool,
    cols: &mut PulseColumns<'_>,
    states: &mut [GroupState],
    members: &[usize],
) -> Vec<Result<IsppReport>> {
    let target_volts = target.as_volts();
    let verified = |vt: f64| {
        if erase {
            vt <= target_volts
        } else {
            vt >= target_volts
        }
    };
    let mut results: Vec<Option<Result<IsppReport>>> = members.iter().map(|_| None).collect();
    let mut trajectories: Vec<Vec<f64>> = Vec::with_capacity(members.len());
    // Positions (into `members`) still running the ladder.
    let mut active: Vec<usize> = Vec::new();
    for (pos, &g) in members.iter().enumerate() {
        let vt = cols.vt_shift(&states[g]);
        trajectories.push(vec![vt]);
        if verified(vt) {
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
    for pulse in ladder {
        if active.is_empty() {
            break;
        }
        let jobs: Vec<(usize, SquarePulse)> =
            active.iter().map(|&pos| (members[pos], pulse)).collect();
        let outcomes = cols.apply(states, &jobs);
        pulses += 1;
        let mut still: Vec<usize> = Vec::new();
        for (&pos, outcome) in active.iter().zip(outcomes) {
            if let Err(e) = outcome {
                results[pos] = Some(Err(e));
                continue;
            }
            let vt = cols.vt_shift(&states[members[pos]]);
            trajectories[pos].push(vt);
            if verified(vt) {
                results[pos] = Some(Ok(IsppReport {
                    pulses,
                    final_amplitude: pulse.amplitude.as_volts(),
                    final_vt_shift: vt,
                    verify_vt: std::mem::take(&mut trajectories[pos]),
                }));
            } else {
                still.push(pos);
            }
        }
        active = still;
    }
    for pos in active {
        results[pos] = Some(Err(ArrayError::VerifyFailed {
            pulses,
            reached_volts: cols.vt_shift(&states[members[pos]]),
            target_volts,
        }));
    }
    results
        .into_iter()
        .map(|r| r.expect("every group resolves to a report or an error"))
        .collect()
}

impl IsppProgrammer {
    /// Columnar [`Self::program_with`] over the listed state groups —
    /// results align with `members`.
    pub(crate) fn program_column(
        &self,
        cols: &mut PulseColumns<'_>,
        states: &mut [GroupState],
        members: &[usize],
    ) -> Vec<Result<IsppReport>> {
        ladder_column(self.ladder, self.target, false, cols, states, members)
    }
}

/// ISPP eraser: a negative ladder plus a verify ceiling.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct IsppEraser {
    ladder: IsppLadder,
    target: Voltage,
}

impl IsppEraser {
    /// Creates an eraser.
    #[must_use]
    pub fn new(ladder: IsppLadder, target: Voltage) -> Self {
        Self { ladder, target }
    }

    /// A nominal erase recipe: −13 → −16 V in 0.5 V steps, 10 µs rungs,
    /// verify at ≤ +0.3 V shift.
    #[must_use]
    pub fn nominal() -> Self {
        Self::new(
            IsppLadder::new(
                Voltage::from_volts(-13.0),
                Voltage::from_volts(0.5),
                Voltage::from_volts(-16.0),
                gnr_units::Time::from_microseconds(10.0),
            ),
            Voltage::from_volts(0.3),
        )
    }

    /// The rung ladder.
    #[must_use]
    pub fn ladder(&self) -> IsppLadder {
        self.ladder
    }

    /// Erases the cell, verifying after every rung.
    ///
    /// # Errors
    ///
    /// [`ArrayError::VerifyFailed`] when the ladder is exhausted before
    /// the threshold falls to the target; device errors propagate.
    pub fn erase(&self, cell: &mut FlashCell) -> Result<IsppReport> {
        let engine = ChargeBalanceEngine::new(cell.device());
        self.erase_with(cell, &engine)
    }

    /// [`Self::erase`] with a prepared engine (see
    /// [`IsppProgrammer::program_with`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::erase`].
    pub fn erase_with(
        &self,
        cell: &mut FlashCell,
        engine: &ChargeBalanceEngine,
    ) -> Result<IsppReport> {
        // Symmetric to the program path: verify before rung 0, so an
        // already-erased cell is not driven deeper (over-erase).
        let mut verify_vt = vec![cell.vt_shift().as_volts()];
        if cell.verify_erase(self.target) {
            return Ok(IsppReport {
                pulses: 0,
                final_amplitude: 0.0,
                final_vt_shift: verify_vt[0],
                verify_vt,
            });
        }
        let mut pulses = 0;
        for pulse in self.ladder {
            cell.apply_pulse_with(engine, pulse)?;
            pulses += 1;
            let vt = cell.vt_shift().as_volts();
            verify_vt.push(vt);
            if cell.verify_erase(self.target) {
                return Ok(IsppReport {
                    pulses,
                    final_amplitude: pulse.amplitude.as_volts(),
                    final_vt_shift: vt,
                    verify_vt,
                });
            }
        }
        Err(ArrayError::VerifyFailed {
            pulses,
            reached_volts: cell.vt_shift().as_volts(),
            target_volts: self.target.as_volts(),
        })
    }

    /// Columnar [`Self::erase_with`] over the listed state groups —
    /// results align with `members`.
    pub(crate) fn erase_column(
        &self,
        cols: &mut PulseColumns<'_>,
        states: &mut [GroupState],
        members: &[usize],
    ) -> Vec<Result<IsppReport>> {
        ladder_column(self.ladder, self.target, true, cols, states, members)
    }

    /// Erases many independent cells through the batch engine (the
    /// block-erase fan-out). Results are in cell order.
    #[must_use]
    pub fn erase_batch(
        &self,
        cells: Vec<&mut FlashCell>,
        batch: &BatchSimulator,
    ) -> Vec<Result<IsppReport>> {
        batch.scatter(cells, |cell| {
            let engine = batch.engine_for(cell.device());
            self.erase_with(cell, &engine)
        })
    }
}

/// Freezes one program→erase verify outcome into a fixed pulse train:
/// runs `programmer` then `eraser` on a fresh scratch cell of `cell`'s
/// device and records exactly the rungs each ladder applied. The result
/// is the [`gnr_flash::engine::CycleRecipe`] an epoch-jumping
/// [`crate::population::CellPopulation::run_epoch`] composes — a P/E
/// cycle with the verify decisions *pinned* to the fresh-cell
/// trajectory, which is the steady-state rung count because the recipe
/// ends erased (each composed cycle starts where the scratch cycle
/// did).
///
/// # Errors
///
/// Propagates verify/device failures from the scratch cycle.
pub fn cycle_recipe(
    cell: &FlashCell,
    programmer: &IsppProgrammer,
    eraser: &IsppEraser,
) -> Result<gnr_flash::engine::CycleRecipe> {
    let mut scratch = FlashCell::new(cell.device().clone());
    let programmed = programmer.program(&mut scratch)?;
    let erased = eraser.erase(&mut scratch)?;
    let pulses: Vec<SquarePulse> = programmer
        .ladder()
        .take(programmed.pulses)
        .chain(eraser.ladder().take(erased.pulses))
        .collect();
    Ok(gnr_flash::engine::CycleRecipe::new(pulses))
}

/// [`cycle_recipe`] of the nominal program/erase pair on the paper cell.
///
/// # Errors
///
/// Same contract as [`cycle_recipe`].
pub fn nominal_cycle_recipe() -> Result<gnr_flash::engine::CycleRecipe> {
    cycle_recipe(
        &FlashCell::paper_cell(),
        &IsppProgrammer::nominal(),
        &IsppEraser::nominal(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_ispp_programs_the_paper_cell() {
        let mut cell = FlashCell::paper_cell();
        let report = IsppProgrammer::nominal().program(&mut cell).unwrap();
        assert!(report.pulses >= 1);
        assert!(report.final_vt_shift >= 2.0);
        assert!(cell.verify_program(Voltage::from_volts(2.0)));
    }

    #[test]
    fn ispp_stops_at_first_passing_rung() {
        // A generous target passes on the very first rung.
        let mut cell = FlashCell::paper_cell();
        let p = IsppProgrammer::new(
            IsppLadder::new(
                Voltage::from_volts(15.0),
                Voltage::from_volts(0.5),
                Voltage::from_volts(16.0),
                gnr_units::Time::from_microseconds(50.0),
            ),
            Voltage::from_volts(0.5),
        );
        let report = p.program(&mut cell).unwrap();
        assert_eq!(report.pulses, 1);
        assert!((report.final_amplitude - 15.0).abs() < 1e-12);
    }

    #[test]
    fn reprogramming_a_passing_cell_applies_no_pulse() {
        // Regression: the historical loop applied rung 0 before any
        // verify, so a cell already at/above target was over-programmed
        // on every reprogram. The second program must be a no-op.
        let mut cell = FlashCell::paper_cell();
        let programmer = IsppProgrammer::nominal();
        let first = programmer.program(&mut cell).unwrap();
        assert!(first.pulses >= 1);
        let vt_after_first = cell.vt_shift().as_volts();

        let second = programmer.program(&mut cell).unwrap();
        assert_eq!(second.pulses, 0, "verified cell must not be pulsed");
        assert_eq!(second.final_amplitude, 0.0);
        assert_eq!(second.final_vt_shift, vt_after_first);
        assert_eq!(second.verify_vt, vec![vt_after_first]);
        assert_eq!(
            cell.vt_shift().as_volts(),
            vt_after_first,
            "reprogram must leave the threshold untouched"
        );
    }

    #[test]
    fn erasing_an_erased_cell_applies_no_pulse() {
        let mut cell = FlashCell::paper_cell();
        let report = IsppEraser::nominal().erase(&mut cell).unwrap();
        assert_eq!(report.pulses, 0);
        assert_eq!(cell.vt_shift().as_volts(), 0.0);
    }

    #[test]
    fn reports_record_the_verify_trajectory() {
        let mut cell = FlashCell::paper_cell();
        let report = IsppProgrammer::nominal().program(&mut cell).unwrap();
        assert_eq!(report.verify_vt.len(), report.pulses + 1);
        assert_eq!(
            report.verify_vt[0], 0.0,
            "pre-rung-0 verify of a fresh cell"
        );
        assert_eq!(*report.verify_vt.last().unwrap(), report.final_vt_shift);
        // The trajectory climbs monotonically toward the target.
        for pair in report.verify_vt.windows(2) {
            assert!(pair[1] > pair[0], "trajectory {:?}", report.verify_vt);
        }
    }

    #[test]
    fn unreachable_target_fails_verify() {
        let mut cell = FlashCell::paper_cell();
        let p = IsppProgrammer::new(
            IsppLadder::new(
                Voltage::from_volts(10.0),
                Voltage::from_volts(0.5),
                Voltage::from_volts(11.0),
                gnr_units::Time::from_microseconds(1.0),
            ),
            Voltage::from_volts(8.0),
        );
        let err = p.program(&mut cell).unwrap_err();
        assert!(matches!(err, ArrayError::VerifyFailed { .. }));
    }

    #[test]
    fn erase_returns_programmed_cell_below_target() {
        let mut cell = FlashCell::paper_cell();
        IsppProgrammer::nominal().program(&mut cell).unwrap();
        let report = IsppEraser::nominal().erase(&mut cell).unwrap();
        assert!(report.final_vt_shift <= 0.3);
        assert!(cell.verify_erase(Voltage::from_volts(0.3)));
    }

    #[test]
    fn ispp_uses_fewer_volts_than_worst_case() {
        // The point of ISPP: most cells pass before the ladder top.
        let mut cell = FlashCell::paper_cell();
        let report = IsppProgrammer::nominal().program(&mut cell).unwrap();
        assert!(report.final_amplitude <= 16.0);
    }
}
