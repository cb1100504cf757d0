//! Threshold-voltage analysis, read model and logic-state classification.
//!
//! §I of the paper: accumulated electrons (programming) encode logic '0';
//! depleted electrons (erase) encode logic '1'. The observable is the
//! threshold-voltage shift of the transistor,
//!
//! ```text
//! ΔVT = −QFG / CFC
//! ```
//!
//! (stored electrons screen the control gate, so a *negative* `QFG`
//! *raises* the threshold). The read model is a simple ambipolar
//! graphene-FET conductance law — enough to turn charge into current and
//! current into a read decision, which is all the array layer needs.

use gnr_units::{Charge, Current, Voltage};

use crate::device::FloatingGateTransistor;

/// The logic state of a cell, paper §I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize)]
pub enum LogicState {
    /// Electrons accumulated on the FG → high threshold → logic '0'.
    Programmed0,
    /// Electrons depleted → low threshold → logic '1'.
    Erased1,
}

/// Threshold shift produced by a stored charge: `ΔVT = −QFG/CFC`.
#[must_use]
pub fn vt_shift(device: &FloatingGateTransistor, qfg: Charge) -> Voltage {
    -(qfg / device.capacitances().cfc())
}

/// Classifies the logic state from a threshold shift against a decision
/// level (half the nominal window is typical).
#[must_use]
pub fn classify(shift: Voltage, decision_level: Voltage) -> LogicState {
    if shift > decision_level {
        LogicState::Programmed0
    } else {
        LogicState::Erased1
    }
}

/// The programmed/erased threshold pair of one cell.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct MemoryWindow {
    /// Threshold shift in the programmed state.
    pub programmed_shift: Voltage,
    /// Threshold shift in the erased state.
    pub erased_shift: Voltage,
}

impl MemoryWindow {
    /// The window width (programmed − erased shift).
    #[must_use]
    pub fn width(&self) -> Voltage {
        self.programmed_shift - self.erased_shift
    }

    /// Whether the window exceeds a sensing margin.
    #[must_use]
    pub fn is_open(&self, margin: Voltage) -> bool {
        self.width() > margin
    }

    /// The midpoint decision level for reads.
    #[must_use]
    pub fn decision_level(&self) -> Voltage {
        Voltage::from_volts(0.5 * (self.programmed_shift.as_volts() + self.erased_shift.as_volts()))
    }
}

/// A minimal electron-branch read model for the MLGNR channel:
/// `I_D = I_leak + gm·max(V_read − V_dirac − ΔVT, 0)`.
///
/// Reads sense the electron branch only — a programmed cell (threshold
/// shifted above the read voltage) is simply *off*. The hole branch of
/// the ambipolar graphene FET is suppressed by the n-type source/drain
/// doping assumed for the cell.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ReadModel {
    /// Charge-neutrality (Dirac) point of the fresh channel.
    pub dirac_voltage: Voltage,
    /// Transconductance of the electron branch (A per volt of overdrive).
    pub transconductance: f64,
    /// Off-state leakage floor.
    pub leakage: Current,
}

impl ReadModel {
    /// A read model scaled to the 22 nm cell: µA-class on-current at 1 V
    /// overdrive, nA leakage.
    #[must_use]
    pub fn paper_nominal() -> Self {
        Self {
            dirac_voltage: Voltage::from_volts(0.0),
            transconductance: 2.0e-6,
            leakage: Current::from_nanoamps(1.0),
        }
    }

    /// Drain current at a read gate voltage for a cell with threshold
    /// shift `shift`: electron-branch conduction, clamped to the leakage
    /// floor once the shift pushes the cell past the read point.
    #[must_use]
    pub fn drain_current(&self, v_read: Voltage, shift: Voltage) -> Current {
        let overdrive = v_read.as_volts() - self.dirac_voltage.as_volts() - shift.as_volts();
        Current::from_amps(self.leakage.as_amps() + self.transconductance * overdrive.max(0.0))
    }

    /// Read decision: programmed cells (large positive shift) conduct
    /// *less* than the reference current at the read point.
    #[must_use]
    pub fn read_state(&self, v_read: Voltage, shift: Voltage, reference: Current) -> LogicState {
        if self.drain_current(v_read, shift) < reference {
            LogicState::Programmed0
        } else {
            LogicState::Erased1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> FloatingGateTransistor {
        FloatingGateTransistor::mlgnr_cnt_paper()
    }

    #[test]
    fn stored_electrons_raise_threshold() {
        let d = device();
        let shift = vt_shift(&d, Charge::from_electrons(-50.0));
        assert!(shift.as_volts() > 0.0);
    }

    #[test]
    fn shift_is_linear_in_charge() {
        let d = device();
        let s1 = vt_shift(&d, Charge::from_electrons(-10.0));
        let s2 = vt_shift(&d, Charge::from_electrons(-20.0));
        assert!((s2.as_volts() / s1.as_volts() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn window_width_and_decision() {
        let w = MemoryWindow {
            programmed_shift: Voltage::from_volts(4.0),
            erased_shift: Voltage::from_volts(-1.0),
        };
        assert!((w.width().as_volts() - 5.0).abs() < 1e-12);
        assert!(w.is_open(Voltage::from_volts(1.0)));
        assert!(!w.is_open(Voltage::from_volts(6.0)));
        assert!((w.decision_level().as_volts() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn classify_by_decision_level() {
        let dl = Voltage::from_volts(1.5);
        assert_eq!(
            classify(Voltage::from_volts(4.0), dl),
            LogicState::Programmed0
        );
        assert_eq!(classify(Voltage::from_volts(-1.0), dl), LogicState::Erased1);
    }

    #[test]
    fn programmed_cell_conducts_less() {
        let rm = ReadModel::paper_nominal();
        let v_read = Voltage::from_volts(2.0);
        let i_erased = rm.drain_current(v_read, Voltage::ZERO);
        let i_prog = rm.drain_current(v_read, Voltage::from_volts(1.8));
        assert!(i_prog < i_erased);
    }

    #[test]
    fn read_state_matches_shift() {
        let rm = ReadModel::paper_nominal();
        let v_read = Voltage::from_volts(2.0);
        let reference = rm.drain_current(v_read, Voltage::from_volts(1.0));
        assert_eq!(
            rm.read_state(v_read, Voltage::from_volts(1.9), reference),
            LogicState::Programmed0
        );
        assert_eq!(
            rm.read_state(v_read, Voltage::ZERO, reference),
            LogicState::Erased1
        );
    }

    #[test]
    fn full_program_gives_multi_volt_window() {
        use crate::presets;
        use crate::transient::{ProgramPulseSpec, TransientSimulator};
        let d = device();
        let q = TransientSimulator::new(&d)
            .run(&ProgramPulseSpec::program(presets::program_vgs()))
            .unwrap()
            .final_charge();
        let shift = vt_shift(&d, q);
        assert!(shift.as_volts() > 1.0, "window = {} V", shift.as_volts());
    }
}
