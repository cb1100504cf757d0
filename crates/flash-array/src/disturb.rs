//! Read- and pass-disturb accumulation.
//!
//! Unselected cells in a NAND string see moderate gate biases (the pass
//! voltage during program/read). The resulting field is far below the FN
//! programming point, but over many operations the weak tunneling shifts
//! thresholds. Because the per-event charge is minuscule, the disturb
//! model uses the *instantaneous* current (linear in time) instead of the
//! full transient — the error is second order in the disturb charge.
//!
//! A NAND array does not apply an exposure when it happens. Every page
//! read or program exposes the other pages of its block, so
//! [`crate::nand::NandArray`] keeps a `DisturbLedger`: each block logs
//! its exposures since it was last settled, and each page keeps a cursor
//! into that log. A page is *settled* — its pending exposures replayed
//! in order — right before anything observes or changes its cells. Its
//! own exposures are never pending: a page is settled right before its
//! read or program, and logging that command's exposure moves the
//! page's cursor past it. The replay evaluates
//! [`disturb_charge`] once per distinct `(variant, charge)` state and
//! exposure and adds it exactly as an immediate one-event sweep would,
//! so deferral changes when the physics is evaluated, never its result.
//! [`crate::population::CellPopulation::apply_disturb_cells`] remains the
//! immediate sweep for callers that want one.

use gnr_flash::device::FloatingGateTransistor;
use gnr_units::{Charge, Time, Voltage};

use crate::cell::FlashCell;

/// Standard NAND bias levels for disturb accounting.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DisturbBias {
    /// Pass voltage applied to unselected wordlines during program.
    pub v_pass_program: Voltage,
    /// Pass voltage during read.
    pub v_pass_read: Voltage,
    /// Duration of one program pulse seen by inhibited cells.
    pub program_exposure: Time,
    /// Duration of one read seen by unselected cells.
    pub read_exposure: Time,
}

impl Default for DisturbBias {
    fn default() -> Self {
        // V_pass is a design compromise: high enough to turn on unselected
        // cells, low enough that the pass-disturb margin supports ~10⁵
        // page operations (7 V keeps the inhibited-cell oxide field under
        // ~8.5 MV/cm on this 5 nm stack).
        Self {
            v_pass_program: Voltage::from_volts(7.0),
            v_pass_read: Voltage::from_volts(5.0),
            program_exposure: Time::from_microseconds(100.0),
            read_exposure: Time::from_microseconds(10.0),
        }
    }
}

impl DisturbBias {
    /// Gate bias and duration of the exposure a page read
    /// (`program == false`) or program gives the rest of its block.
    #[must_use]
    pub fn exposure(&self, program: bool) -> (Voltage, Time) {
        if program {
            (self.v_pass_program, self.program_exposure)
        } else {
            (self.v_pass_read, self.read_exposure)
        }
    }
}

/// Exposures a block logs before it is settled whole and its log
/// cleared, per page of the block. Bounds both the log's memory and the
/// replay a single page can owe.
const LOG_PAGES_MULTIPLE: usize = 4;

/// Deferred pass-voltage disturb of a NAND array (see the module docs):
/// a per-block log of exposures since the block was last settled, and a
/// per-page cursor to the first exposure the page has not taken yet.
#[derive(Debug, Clone)]
pub(crate) struct DisturbLedger {
    pages_per_block: usize,
    /// Per block, one entry per exposure: `true` for a program's.
    logs: Vec<Vec<bool>>,
    /// Indexed `block * pages_per_block + page`.
    cursors: Vec<u32>,
}

impl DisturbLedger {
    /// An empty ledger: every page settled.
    pub(crate) fn new(blocks: usize, pages_per_block: usize) -> Self {
        Self {
            pages_per_block,
            logs: vec![Vec::new(); blocks],
            cursors: vec![0; blocks * pages_per_block],
        }
    }

    /// Log length at which [`Self::record`] asks for a block settle.
    pub(crate) fn bound(&self) -> usize {
        LOG_PAGES_MULTIPLE * self.pages_per_block
    }

    /// Exposures logged against `block` since it was last settled.
    pub(crate) fn log_len(&self, block: usize) -> usize {
        self.logs[block].len()
    }

    /// `true` when no block has a logged exposure.
    pub(crate) fn is_clear(&self) -> bool {
        self.logs.iter().all(Vec::is_empty)
    }

    /// Logs the exposure a read or program of `page` gives the rest of
    /// `block`; `page` itself must be settled. Returns `true` when the
    /// log has reached [`Self::bound`] and the block should be settled.
    pub(crate) fn record(&mut self, block: usize, page: usize, program: bool) -> bool {
        self.logs[block].push(program);
        // The exposure is the page's own, so it stays settled.
        self.mark_settled(block, page);
        self.log_len(block) >= self.bound()
    }

    /// The exposures `page` of `block` has not taken yet, in log order,
    /// as `(gate bias, duration)` under `bias`.
    pub(crate) fn pending<'a>(
        &'a self,
        block: usize,
        page: usize,
        bias: &'a DisturbBias,
    ) -> impl Iterator<Item = (Voltage, Time)> + Clone + 'a {
        let from = self.cursors[block * self.pages_per_block + page] as usize;
        self.logs[block][from..]
            .iter()
            .map(move |&program| bias.exposure(program))
    }

    /// Marks every logged exposure of `block` as taken by `page`.
    pub(crate) fn mark_settled(&mut self, block: usize, page: usize) {
        self.cursors[block * self.pages_per_block + page] =
            u32::try_from(self.logs[block].len()).expect("log length fits u32");
    }

    /// Drops `block`'s log once every page of it has taken every
    /// exposure.
    pub(crate) fn clear(&mut self, block: usize) {
        self.logs[block].clear();
        let first = block * self.pages_per_block;
        self.cursors[first..first + self.pages_per_block].fill(0);
    }
}

/// Charge gained by a cell exposed to `vgs` for `duration` (linearised).
#[must_use]
pub fn disturb_charge(
    device: &FloatingGateTransistor,
    stored: Charge,
    vgs: Voltage,
    duration: Time,
) -> Charge {
    let state = device.tunneling_state(vgs, Voltage::ZERO, stored);
    Charge::from_coulombs(state.charge_rate_amps * duration.as_seconds())
}

/// Applies `events` disturb exposures at `vgs` to a cell.
pub fn apply_disturb(cell: &mut FlashCell, vgs: Voltage, duration: Time, events: u64) {
    let dq = disturb_charge(cell.device(), cell.charge(), vgs, duration);
    cell.set_charge(Charge::from_coulombs(
        cell.charge().as_coulombs() + dq.as_coulombs() * events as f64,
    ));
}

/// Number of disturb events at `vgs` before the threshold drifts by
/// `margin` volts (linearised; `None` when the drift direction never
/// consumes the margin or the rate is zero).
#[must_use]
pub fn events_to_margin(
    device: &FloatingGateTransistor,
    stored: Charge,
    vgs: Voltage,
    duration: Time,
    margin: Voltage,
) -> Option<u64> {
    let dq = disturb_charge(device, stored, vgs, duration);
    if dq.as_coulombs() == 0.0 {
        return None;
    }
    // ΔVT per event = −dq/CFC; drift magnitude consumes the margin.
    let dvt = (dq / device.capacitances().cfc()).as_volts().abs();
    if dvt == 0.0 {
        return None;
    }
    Some((margin.as_volts().abs() / dvt) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_bias_disturb_is_tiny_per_event() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let bias = DisturbBias::default();
        let dq = disturb_charge(&d, Charge::ZERO, bias.v_pass_program, bias.program_exposure);
        // Far less than one electron per exposure.
        assert!(
            dq.as_electrons().abs() < 1.0,
            "dq = {} e",
            dq.as_electrons()
        );
    }

    #[test]
    fn disturb_accumulates_linearly() {
        let mut cell = FlashCell::paper_cell();
        let bias = DisturbBias::default();
        apply_disturb(&mut cell, bias.v_pass_program, bias.program_exposure, 1000);
        let q1000 = cell.charge().as_coulombs();
        let mut cell2 = FlashCell::paper_cell();
        apply_disturb(&mut cell2, bias.v_pass_program, bias.program_exposure, 2000);
        assert!((cell2.charge().as_coulombs() / q1000 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn margin_supports_many_operations() {
        // A healthy cell tolerates a large number of pass exposures before
        // losing 0.5 V of margin — the array design target.
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let bias = DisturbBias::default();
        let events = events_to_margin(
            &d,
            Charge::ZERO,
            bias.v_pass_program,
            bias.program_exposure,
            Voltage::from_volts(0.5),
        )
        .expect("finite disturb rate");
        assert!(events > 10_000, "events = {events}");
    }

    #[test]
    fn read_disturb_weaker_than_pass_disturb() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let bias = DisturbBias::default();
        let dq_pass = disturb_charge(&d, Charge::ZERO, bias.v_pass_program, bias.program_exposure);
        let dq_read = disturb_charge(&d, Charge::ZERO, bias.v_pass_read, bias.program_exposure);
        assert!(dq_read.as_coulombs().abs() < dq_pass.as_coulombs().abs());
    }

    #[test]
    fn zero_bias_no_disturb() {
        let d = FloatingGateTransistor::mlgnr_cnt_paper();
        let dq = disturb_charge(&d, Charge::ZERO, Voltage::ZERO, Time::from_seconds(1.0));
        assert_eq!(dq.as_coulombs(), 0.0);
        assert!(events_to_margin(
            &d,
            Charge::ZERO,
            Voltage::ZERO,
            Time::from_seconds(1.0),
            Voltage::from_volts(0.5)
        )
        .is_none());
    }
}
