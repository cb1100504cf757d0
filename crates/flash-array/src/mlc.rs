//! Multi-level cell (MLC) operation: two bits per cell.
//!
//! The paper's cell stores one bit ('0' programmed / '1' erased, §I).
//! Because the stored charge is continuous, the same device supports
//! multi-level operation — the density lever of commercial NAND. Four
//! threshold states are placed with fine-step ISPP and discriminated by
//! three read reference levels:
//!
//! ```text
//! VT:   |  11  |   |  10  |   |  01  |   |  00  |
//!            R1         R2         R3
//! ```
//!
//! Gray coding between adjacent states keeps single-level read errors to
//! one bit, as in real MLC parts.

use gnr_flash::engine::BatchSimulator;
use gnr_flash::pulse::IsppLadder;
use gnr_units::{Time, Voltage};

use crate::cell::FlashCell;
use crate::ispp::IsppProgrammer;
use crate::population::CellPopulation;
use crate::{ArrayError, Result};

/// The four MLC states in threshold order (Gray-coded bit pairs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum MlcState {
    /// Lowest threshold — fully erased, bits `11`.
    Erased11,
    /// First programmed level, bits `10`.
    Level10,
    /// Second programmed level, bits `00`.
    Level00,
    /// Highest programmed level, bits `01`.
    Level01,
}

impl MlcState {
    /// The stored bit pair `(msb, lsb)`.
    #[must_use]
    pub fn bits(self) -> (bool, bool) {
        match self {
            Self::Erased11 => (true, true),
            Self::Level10 => (true, false),
            Self::Level00 => (false, false),
            Self::Level01 => (false, true),
        }
    }

    /// All states in threshold order.
    #[must_use]
    pub fn all() -> [Self; 4] {
        [Self::Erased11, Self::Level10, Self::Level00, Self::Level01]
    }

    /// Threshold rank: 0 (erased) to 3 (highest level).
    #[must_use]
    pub fn rank(self) -> usize {
        match self {
            Self::Erased11 => 0,
            Self::Level10 => 1,
            Self::Level00 => 2,
            Self::Level01 => 3,
        }
    }
}

/// The MLC level placement: verify targets for the three programmed
/// states and the three read references between states.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct MlcLevels {
    /// ISPP verify targets for `Level10`, `Level00`, `Level01` (V).
    pub verify: [f64; 3],
    /// Read references `R1 < R2 < R3` separating the four states (V).
    pub read_refs: [f64; 3],
}

impl Default for MlcLevels {
    fn default() -> Self {
        Self {
            verify: [1.2, 2.4, 3.6],
            read_refs: [0.6, 1.8, 3.0],
        }
    }
}

impl MlcLevels {
    /// Validates the placement: references interleave the verify targets.
    ///
    /// # Errors
    ///
    /// [`ArrayError::VerifyFailed`]-free; returns `InvalidLevels` via
    /// `AddressOutOfRange` kind misuse is avoided — a dedicated message
    /// through [`ArrayError::WrongPageWidth`] would be misleading, so the
    /// validation panics on construction misuse instead.
    ///
    /// # Panics
    ///
    /// Panics when the orderings `R1 < V1 < R2 < V2 < R3 < V3` are
    /// violated.
    pub fn validate(&self) {
        let [v1, v2, v3] = self.verify;
        let [r1, r2, r3] = self.read_refs;
        assert!(
            r1 < v1 && v1 < r2 && r2 < v2 && v2 < r3 && r3 < v3,
            "MLC levels must interleave: R1 < V1 < R2 < V2 < R3 < V3"
        );
    }
}

/// The fine-step MLC placement ladder for a verify `level` (0.25 V
/// steps, 5 µs rungs) — shared by the single-cell and population paths
/// so they stay bit-identical.
fn placement_programmer(level: f64) -> IsppProgrammer {
    IsppProgrammer::new(
        IsppLadder::new(
            Voltage::from_volts(12.0),
            Voltage::from_volts(0.25),
            Voltage::from_volts(16.5),
            Time::from_microseconds(5.0),
        ),
        Voltage::from_volts(level),
    )
}

/// Reads the MLC state of population cell `index` against the three
/// read references.
///
/// # Errors
///
/// Address errors.
pub fn read_cell(pop: &CellPopulation, index: usize, levels: &MlcLevels) -> Result<MlcState> {
    let vt = pop.vt_shift(index)?.as_volts();
    let [r1, r2, r3] = levels.read_refs;
    Ok(if vt < r1 {
        MlcState::Erased11
    } else if vt < r2 {
        MlcState::Level10
    } else if vt < r3 {
        MlcState::Level00
    } else {
        MlcState::Level01
    })
}

/// Programs population cell `index` to `target` — the struct-of-arrays
/// mirror of [`MlcCell::program`], including the monotone-up rule
/// (erase before any downward move) and the overshoot ceiling check.
///
/// # Errors
///
/// Verify failures and device errors propagate.
///
/// # Panics
///
/// Panics if `levels` are not properly interleaved.
pub fn program_cell(
    pop: &mut CellPopulation,
    index: usize,
    target: MlcState,
    levels: &MlcLevels,
    batch: &BatchSimulator,
) -> Result<()> {
    levels.validate();
    if target.rank() <= read_cell(pop, index, levels)?.rank() {
        pop.erase_cells_default(&[index], batch)
            .pop()
            .expect("one result per index")?;
    }
    let level = match target {
        MlcState::Erased11 => return Ok(()),
        MlcState::Level10 => levels.verify[0],
        MlcState::Level00 => levels.verify[1],
        MlcState::Level01 => levels.verify[2],
    };
    pop.program_cells(&placement_programmer(level), &[index], batch)
        .pop()
        .expect("one result per index")?;
    let vt = pop.vt_shift(index)?.as_volts();
    let ceiling = match target {
        MlcState::Erased11 => unreachable!("handled above"),
        MlcState::Level10 => levels.read_refs[1],
        MlcState::Level00 => levels.read_refs[2],
        MlcState::Level01 => f64::INFINITY,
    };
    if vt >= ceiling {
        return Err(ArrayError::VerifyFailed {
            pulses: 0,
            reached_volts: vt,
            target_volts: ceiling,
        });
    }
    Ok(())
}

/// A two-bit cell.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct MlcCell {
    cell: FlashCell,
    levels: MlcLevels,
}

impl MlcCell {
    /// Wraps a flash cell with the default level placement.
    ///
    /// # Panics
    ///
    /// Panics if `levels` are not properly interleaved.
    #[must_use]
    pub fn new(cell: FlashCell, levels: MlcLevels) -> Self {
        levels.validate();
        Self { cell, levels }
    }

    /// A paper cell with default levels.
    #[must_use]
    pub fn paper_cell() -> Self {
        Self::new(FlashCell::paper_cell(), MlcLevels::default())
    }

    /// The wrapped single-bit cell.
    #[must_use]
    pub fn cell(&self) -> &FlashCell {
        &self.cell
    }

    /// Reads the state by comparing the threshold shift against the three
    /// references.
    #[must_use]
    pub fn read(&self) -> MlcState {
        let vt = self.cell.vt_shift().as_volts();
        let [r1, r2, r3] = self.levels.read_refs;
        if vt < r1 {
            MlcState::Erased11
        } else if vt < r2 {
            MlcState::Level10
        } else if vt < r3 {
            MlcState::Level00
        } else {
            MlcState::Level01
        }
    }

    /// Programs the cell to `target` from the erased state.
    ///
    /// MLC programming is monotone: levels can only move *up* without an
    /// erase. Writing `Erased11` erases; writing a level at or below the
    /// current one first erases, then programs.
    ///
    /// # Errors
    ///
    /// Verify failures and device errors propagate.
    pub fn program(&mut self, target: MlcState) -> Result<()> {
        if target.rank() <= self.read().rank() {
            self.erase()?;
        }
        let level = match target {
            MlcState::Erased11 => return Ok(()),
            MlcState::Level10 => self.levels.verify[0],
            MlcState::Level00 => self.levels.verify[1],
            MlcState::Level01 => self.levels.verify[2],
        };
        // Fine-grained ladder for tight placement: 0.25 V steps, 5 µs.
        placement_programmer(level).program(&mut self.cell)?;
        // Placement check: the cell must not overshoot past the next read
        // reference (the ladder step bounds the overshoot).
        let vt = self.cell.vt_shift().as_volts();
        let ceiling = match target {
            MlcState::Erased11 => unreachable!("handled above"),
            MlcState::Level10 => self.levels.read_refs[1],
            MlcState::Level00 => self.levels.read_refs[2],
            MlcState::Level01 => f64::INFINITY,
        };
        if vt >= ceiling {
            return Err(ArrayError::VerifyFailed {
                pulses: 0,
                reached_volts: vt,
                target_volts: ceiling,
            });
        }
        Ok(())
    }

    /// Erases to `Erased11`.
    ///
    /// # Errors
    ///
    /// Device errors propagate.
    pub fn erase(&mut self) -> Result<()> {
        self.cell.erase_default()?;
        Ok(())
    }

    /// Writes a bit pair (Gray-decoded to the matching state).
    ///
    /// # Errors
    ///
    /// As for [`Self::program`].
    pub fn write_bits(&mut self, msb: bool, lsb: bool) -> Result<()> {
        let state = match (msb, lsb) {
            (true, true) => MlcState::Erased11,
            (true, false) => MlcState::Level10,
            (false, false) => MlcState::Level00,
            (false, true) => MlcState::Level01,
        };
        self.program(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_four_states_round_trip() {
        for target in MlcState::all() {
            let mut cell = MlcCell::paper_cell();
            cell.program(target).unwrap();
            assert_eq!(cell.read(), target, "target {target:?}");
        }
    }

    #[test]
    fn bit_pairs_round_trip() {
        for (msb, lsb) in [(true, true), (true, false), (false, false), (false, true)] {
            let mut cell = MlcCell::paper_cell();
            cell.write_bits(msb, lsb).unwrap();
            assert_eq!(cell.read().bits(), (msb, lsb));
        }
    }

    #[test]
    fn upgrade_without_erase_downgrade_with() {
        let mut cell = MlcCell::paper_cell();
        cell.program(MlcState::Level10).unwrap();
        let erases_before = cell.cell().stats().erase_ops;
        // Up: no erase needed.
        cell.program(MlcState::Level01).unwrap();
        assert_eq!(cell.cell().stats().erase_ops, erases_before);
        assert_eq!(cell.read(), MlcState::Level01);
        // Down: must erase first.
        cell.program(MlcState::Level10).unwrap();
        assert!(cell.cell().stats().erase_ops > erases_before);
        assert_eq!(cell.read(), MlcState::Level10);
    }

    #[test]
    fn gray_coding_differs_by_one_bit_between_neighbours() {
        let states = MlcState::all();
        for pair in states.windows(2) {
            let (a1, a0) = pair[0].bits();
            let (b1, b0) = pair[1].bits();
            let flips = usize::from(a1 != b1) + usize::from(a0 != b0);
            assert_eq!(flips, 1, "{:?} -> {:?}", pair[0], pair[1]);
        }
    }

    #[test]
    fn placement_margins_hold() {
        // Each programmed state's VT must sit strictly between its
        // bracketing read references.
        let levels = MlcLevels::default();
        for (target, lo, hi) in [
            (MlcState::Level10, levels.read_refs[0], levels.read_refs[1]),
            (MlcState::Level00, levels.read_refs[1], levels.read_refs[2]),
            (MlcState::Level01, levels.read_refs[2], f64::INFINITY),
        ] {
            let mut cell = MlcCell::paper_cell();
            cell.program(target).unwrap();
            let vt = cell.cell().vt_shift().as_volts();
            assert!(vt > lo && vt < hi, "{target:?}: vt = {vt}");
        }
    }

    #[test]
    fn population_placement_matches_mlc_cell_bitwise() {
        let levels = MlcLevels::default();
        let batch = BatchSimulator::new();
        for target in MlcState::all() {
            let mut cell = MlcCell::paper_cell();
            cell.program(target).unwrap();

            let mut pop = CellPopulation::paper(2);
            program_cell(&mut pop, 0, target, &levels, &batch).unwrap();
            assert_eq!(read_cell(&pop, 0, &levels).unwrap(), target);
            assert_eq!(
                pop.charge(0).unwrap().as_coulombs(),
                cell.cell().charge().as_coulombs(),
                "target {target:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "interleave")]
    fn bad_level_placement_panics() {
        let levels = MlcLevels {
            verify: [1.0, 2.0, 3.0],
            read_refs: [1.5, 1.8, 2.5],
        };
        let _ = MlcCell::new(FlashCell::paper_cell(), levels);
    }
}
