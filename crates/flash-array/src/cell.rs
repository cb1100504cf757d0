//! A stateful flash cell: the device model plus its stored charge.

use gnr_flash::backend::{BackendKind, CellBackend, PcmDevice};
use gnr_flash::device::FloatingGateTransistor;
use gnr_flash::engine::ChargeBalanceEngine;
use gnr_flash::pulse::SquarePulse;
use gnr_flash::threshold::{LogicState, ReadModel};
use gnr_flash::transient::ProgramPulseSpec;
use gnr_units::{Charge, Time, Voltage};

use crate::Result;

/// Default program/erase pulse width used by the convenience operations
/// (100 µs — a realistic NAND-class pulse; full `Jin = Jout` equilibrium
/// would take seconds, see `gnr-flash::transient`).
pub const DEFAULT_PULSE_WIDTH_S: f64 = 1.0e-4;

/// Lifetime counters of one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct CellStats {
    /// Completed program operations.
    pub program_ops: u64,
    /// Completed erase operations.
    pub erase_ops: u64,
    /// Total magnitude of charge driven through the tunnel oxide (C) —
    /// the wear variable of the endurance model.
    pub injected_charge: f64,
}

/// One flash cell: device + stored 1-D state + read model.
///
/// The `charge` column is the backend's state variable: floating-gate
/// coulombs for the FN backends, the (dimensionless) amorphous fraction
/// for [`BackendKind::PcmResistive`] — exactly the contract of
/// [`gnr_flash::backend::DeviceBackend`].
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct FlashCell {
    device: FloatingGateTransistor,
    charge: Charge,
    read_model: ReadModel,
    read_voltage: Voltage,
    decision_level: Voltage,
    stats: CellStats,
    kind: BackendKind,
    pcm: Option<PcmDevice>,
}

impl FlashCell {
    /// Creates a cell around a device with the nominal read setup.
    #[must_use]
    pub fn new(device: FloatingGateTransistor) -> Self {
        Self {
            device,
            charge: Charge::ZERO,
            read_model: ReadModel::paper_nominal(),
            read_voltage: Voltage::from_volts(2.0),
            decision_level: Voltage::from_volts(1.0),
            stats: CellStats::default(),
            kind: BackendKind::GnrFloatingGate,
            pcm: None,
        }
    }

    /// The paper's MLGNR-CNT cell.
    #[must_use]
    pub fn paper_cell() -> Self {
        Self::new(FloatingGateTransistor::mlgnr_cnt_paper())
    }

    /// Creates a cell over an arbitrary device backend. For floating
    /// gates this is [`Self::new`] plus the material tag; for PCM the
    /// device slot holds the paper's FG device purely as a placeholder
    /// (its capacitances are never consulted — the PCM element owns the
    /// threshold map).
    #[must_use]
    pub fn with_backend(backend: &CellBackend) -> Self {
        let mut cell = match backend.floating_gate_device() {
            Some(device) => Self::new(device.clone()),
            None => Self::new(FloatingGateTransistor::mlgnr_cnt_paper()),
        };
        cell.kind = backend.kind();
        cell.pcm = backend.pcm_device().copied();
        cell
    }

    /// Rebuilds a cell from raw state — the materialisation path of
    /// [`crate::population::CellPopulation`] views: the population owns
    /// the state columns, this turns one row back into an owning cell.
    #[must_use]
    pub fn restore(device: FloatingGateTransistor, charge: Charge, stats: CellStats) -> Self {
        let mut cell = Self::new(device);
        cell.charge = charge;
        cell.stats = stats;
        cell
    }

    /// [`Self::restore`] with an explicit backend tag — the population's
    /// materialisation path for non-GNR backends.
    #[must_use]
    pub(crate) fn restore_backend(
        kind: BackendKind,
        pcm: Option<PcmDevice>,
        device: FloatingGateTransistor,
        charge: Charge,
        stats: CellStats,
    ) -> Self {
        let mut cell = Self::restore(device, charge, stats);
        cell.kind = kind;
        cell.pcm = pcm;
        cell
    }

    /// Re-points an existing cell at new raw state — the scratch-reuse
    /// path of the population layer. Bit-identical to [`Self::restore`]
    /// around the same device: the read setup is a construction
    /// constant, so only the charge and counters change.
    pub(crate) fn reset(&mut self, charge: Charge, stats: CellStats) {
        self.charge = charge;
        self.stats = stats;
    }

    /// The conventional-silicon baseline cell.
    #[must_use]
    pub fn silicon_cell() -> Self {
        Self::new(FloatingGateTransistor::silicon_conventional())
    }

    /// The underlying device (for PCM cells: the placeholder FG device,
    /// see [`Self::with_backend`]).
    #[must_use]
    pub fn device(&self) -> &FloatingGateTransistor {
        &self.device
    }

    /// Which device backend this cell evolves under.
    #[must_use]
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// The PCM element, when this is a PCM-backed cell.
    #[must_use]
    pub fn pcm_device(&self) -> Option<&PcmDevice> {
        self.pcm.as_ref()
    }

    /// Current stored charge.
    #[must_use]
    pub fn charge(&self) -> Charge {
        self.charge
    }

    /// Directly sets the stored charge (trap-injection models and tests).
    pub fn set_charge(&mut self, charge: Charge) {
        self.charge = charge;
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> CellStats {
        self.stats
    }

    /// Threshold shift of the current state.
    #[must_use]
    pub fn vt_shift(&self) -> Voltage {
        match &self.pcm {
            Some(pcm) => Voltage::from_volts(pcm.vt_shift_volts(self.charge.as_coulombs())),
            None => gnr_flash::threshold::vt_shift(&self.device, self.charge),
        }
    }

    /// Applies one gate pulse, advancing the stored charge through the
    /// transient simulator.
    ///
    /// # Errors
    ///
    /// Propagates device errors; a bias too low to tunnel
    /// ([`gnr_flash::DeviceError::NoTunneling`]) leaves the charge
    /// unchanged and is *not* an error here — sub-threshold pulses are
    /// legitimate array biases (inhibit levels).
    pub fn apply_pulse(&mut self, pulse: SquarePulse) -> Result<()> {
        if let Some(pcm) = self.pcm {
            return self.apply_pulse_pcm(&pcm, pulse);
        }
        let engine = ChargeBalanceEngine::new_for(self.kind, &self.device);
        self.apply_pulse_with(&engine, pulse)
    }

    /// The PCM pulse path: closed-form set/reset kinetics, sub-threshold
    /// biases are no-ops — the same contract the FN path exposes.
    fn apply_pulse_pcm(&mut self, pcm: &PcmDevice, pulse: SquarePulse) -> Result<()> {
        let a0 = self.charge.as_coulombs();
        match pcm.pulse_final_fraction(pulse.amplitude.as_volts(), pulse.width.as_seconds(), a0) {
            Some(a1) => {
                self.stats.injected_charge += pcm.wear_increment(a0, a1);
                self.charge = Charge::from_coulombs(a1);
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Like [`Self::apply_pulse`] but reusing a prepared engine — the
    /// hot path for ISPP ladders, which apply many pulses to one cell
    /// and should pay the engine setup (device clone + table-cache
    /// lookups) once, not per rung. Fixed-width pulses route through
    /// [`ChargeBalanceEngine::pulse_final_charge`], so in the engine's
    /// default flow-map mode a pulse costs two interpolations against
    /// the process-wide master trajectory instead of an integration.
    ///
    /// The engine must have been built for this cell's device (e.g. via
    /// [`ChargeBalanceEngine::new`] or
    /// [`gnr_flash::engine::BatchSimulator::engine_for`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::apply_pulse`].
    pub fn apply_pulse_with(
        &mut self,
        engine: &ChargeBalanceEngine,
        pulse: SquarePulse,
    ) -> Result<()> {
        if let Some(pcm) = self.pcm {
            // PCM has no FN engine; the prepared engine is simply unused.
            return self.apply_pulse_pcm(&pcm, pulse);
        }
        let spec = ProgramPulseSpec::from_pulse(pulse, self.charge);
        match engine.pulse_final_charge(&spec) {
            Ok(q_new) => {
                self.stats.injected_charge +=
                    (q_new.as_coulombs() - self.charge.as_coulombs()).abs();
                self.charge = q_new;
                Ok(())
            }
            Err(gnr_flash::DeviceError::NoTunneling { .. }) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Programs with the paper's nominal 15 V / 100 µs pulse.
    ///
    /// # Errors
    ///
    /// Propagates transient failures.
    pub fn program_default(&mut self) -> Result<()> {
        self.apply_pulse(SquarePulse::new(
            gnr_flash::presets::program_vgs(),
            Time::from_seconds(DEFAULT_PULSE_WIDTH_S),
        ))?;
        self.stats.program_ops += 1;
        Ok(())
    }

    /// Erases with the paper's nominal −15 V / 100 µs pulse.
    ///
    /// # Errors
    ///
    /// Propagates transient failures.
    pub fn erase_default(&mut self) -> Result<()> {
        if let Some(pcm) = self.pcm {
            self.apply_pulse_pcm(
                &pcm,
                SquarePulse::new(
                    gnr_flash::presets::erase_vgs(),
                    Time::from_seconds(DEFAULT_PULSE_WIDTH_S),
                ),
            )?;
            self.stats.erase_ops += 1;
            return Ok(());
        }
        let engine = ChargeBalanceEngine::new_for(self.kind, &self.device);
        self.erase_default_with(&engine)
    }

    /// [`Self::erase_default`] with a prepared engine (block-erase hot
    /// path).
    ///
    /// # Errors
    ///
    /// Propagates transient failures.
    pub fn erase_default_with(&mut self, engine: &ChargeBalanceEngine) -> Result<()> {
        self.apply_pulse_with(
            engine,
            SquarePulse::new(
                gnr_flash::presets::erase_vgs(),
                Time::from_seconds(DEFAULT_PULSE_WIDTH_S),
            ),
        )?;
        self.stats.erase_ops += 1;
        Ok(())
    }

    /// Reads the logic state through the read model.
    #[must_use]
    pub fn read(&self) -> LogicState {
        gnr_flash::threshold::classify(self.vt_shift(), self.decision_level)
    }

    /// Drain current at the read point (sense-amp input).
    #[must_use]
    pub fn read_current(&self) -> gnr_units::Current {
        self.read_model
            .drain_current(self.read_voltage, self.vt_shift())
    }

    /// Verify comparison used by ISPP: `true` when the threshold shift
    /// has reached `target`.
    #[must_use]
    pub fn verify_program(&self, target: Voltage) -> bool {
        self.vt_shift() >= target
    }

    /// Verify comparison for erase: `true` when the shift is at or below
    /// `target`.
    #[must_use]
    pub fn verify_erase(&self, target: Voltage) -> bool {
        self.vt_shift() <= target
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_cell_reads_erased() {
        let cell = FlashCell::paper_cell();
        assert_eq!(cell.read(), LogicState::Erased1);
        assert_eq!(cell.vt_shift().as_volts(), 0.0);
    }

    #[test]
    fn program_erase_cycle_flips_state() {
        let mut cell = FlashCell::paper_cell();
        cell.program_default().unwrap();
        assert_eq!(cell.read(), LogicState::Programmed0);
        assert!(cell.vt_shift().as_volts() > 1.0);
        cell.erase_default().unwrap();
        assert_eq!(cell.read(), LogicState::Erased1);
        assert_eq!(cell.stats().program_ops, 1);
        assert_eq!(cell.stats().erase_ops, 1);
        assert!(cell.stats().injected_charge > 0.0);
    }

    #[test]
    fn programmed_cell_draws_less_read_current() {
        let mut cell = FlashCell::paper_cell();
        let i_erased = cell.read_current();
        cell.program_default().unwrap();
        let i_prog = cell.read_current();
        assert!(i_prog < i_erased);
    }

    #[test]
    fn sub_threshold_pulse_is_a_noop() {
        let mut cell = FlashCell::paper_cell();
        cell.apply_pulse(SquarePulse::new(
            Voltage::from_volts(0.5),
            Time::from_microseconds(100.0),
        ))
        .unwrap();
        assert_eq!(cell.charge().as_coulombs(), 0.0);
    }

    #[test]
    fn longer_pulse_stores_more_charge() {
        let mut short = FlashCell::paper_cell();
        let mut long = FlashCell::paper_cell();
        short
            .apply_pulse(SquarePulse::new(
                Voltage::from_volts(15.0),
                Time::from_microseconds(10.0),
            ))
            .unwrap();
        long.apply_pulse(SquarePulse::new(
            Voltage::from_volts(15.0),
            Time::from_milliseconds(1.0),
        ))
        .unwrap();
        assert!(long.charge().as_coulombs() < short.charge().as_coulombs());
    }

    #[test]
    fn pcm_cell_cycles_through_the_same_api() {
        let backend = CellBackend::preset(BackendKind::PcmResistive);
        let mut cell = FlashCell::with_backend(&backend);
        assert_eq!(cell.kind(), BackendKind::PcmResistive);
        assert_eq!(cell.read(), LogicState::Erased1);
        // The default ±15 V / 100 µs pulses sit far above the 12 V
        // switching threshold, so the stock cycle works unmodified.
        cell.program_default().unwrap();
        assert!(cell.verify_program(Voltage::from_volts(2.0)));
        assert_eq!(cell.read(), LogicState::Programmed0);
        let programmed_state = cell.charge();
        // Pass-bias pulses (7 V) disturb nothing on PCM.
        cell.apply_pulse(SquarePulse::new(
            Voltage::from_volts(7.0),
            Time::from_microseconds(100.0),
        ))
        .unwrap();
        assert_eq!(cell.charge(), programmed_state);
        cell.erase_default().unwrap();
        assert!(cell.verify_erase(Voltage::from_volts(0.3)));
        assert_eq!(cell.stats().program_ops, 1);
        assert_eq!(cell.stats().erase_ops, 1);
        assert!(cell.stats().injected_charge > 0.0);
    }

    #[test]
    fn verify_levels_behave() {
        let mut cell = FlashCell::paper_cell();
        assert!(!cell.verify_program(Voltage::from_volts(1.0)));
        assert!(cell.verify_erase(Voltage::from_volts(0.5)));
        cell.program_default().unwrap();
        assert!(cell.verify_program(Voltage::from_volts(1.0)));
        assert!(!cell.verify_erase(Voltage::from_volts(0.5)));
    }
}
