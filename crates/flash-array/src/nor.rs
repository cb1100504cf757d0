//! NOR-style programming with channel hot electrons.
//!
//! §II of the paper: "Most NOR-type Flash memories utilize CHE
//! programming", drawing 0.3–1 mA per cell at 4–6 V drain — against FN's
//! sub-nanoamp. This module programs the same MLGNR-CNT cell through the
//! lucky-electron model so benches can reproduce the paper's
//! current/energy comparison.

use gnr_tunneling::che::CheModel;
use gnr_units::{Charge, Current, ElectricField, Time, Voltage};

use crate::cell::FlashCell;
use crate::population::CellPopulation;

/// CHE bias conditions for one programming pulse.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct CheBias {
    /// Drain current during the pulse (paper: 0.3–1 mA).
    pub drain_current: Current,
    /// Drain voltage (paper: 4–6 V).
    pub drain_voltage: Voltage,
    /// Peak lateral channel field near the drain.
    pub lateral_field: ElectricField,
    /// Pulse width.
    pub width: Time,
}

impl Default for CheBias {
    fn default() -> Self {
        Self {
            drain_current: Current::from_milliamps(0.5),
            drain_voltage: Voltage::from_volts(5.0),
            lateral_field: ElectricField::from_volts_per_meter(6.0e7),
            width: Time::from_microseconds(1.0),
        }
    }
}

/// A NOR cell: the flash cell plus a CHE injection model.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct NorCell {
    cell: FlashCell,
    che: CheModel,
}

impl NorCell {
    /// Wraps a cell with the silicon NOR CHE preset.
    #[must_use]
    pub fn new(cell: FlashCell) -> Self {
        Self {
            cell,
            che: CheModel::silicon_nor_cell(),
        }
    }

    /// The wrapped flash cell.
    #[must_use]
    pub fn cell(&self) -> &FlashCell {
        &self.cell
    }

    /// Mutable access (for erase via FN, which NOR also uses).
    #[must_use]
    pub fn cell_mut(&mut self) -> &mut FlashCell {
        &mut self.cell
    }

    /// Applies one CHE programming pulse.
    ///
    /// The injection is **self-limiting**: hot electrons carry at most
    /// `q·V_D` of excess energy, so collection stops once the floating
    /// gate sits about `V_D` below the channel. The stored charge
    /// therefore relaxes exponentially toward the floor
    /// `Q_floor = −CT·V_D` with the raw injected charge as the drive —
    /// one healthy CHE pulse is enough to saturate a nanoscale gate (the
    /// reason CHE programming is fast *and* power-hungry, §II).
    pub fn program_che(&mut self, bias: &CheBias) {
        let i_gate = self
            .che
            .gate_current(bias.drain_current, bias.lateral_field);
        let raw = (i_gate * bias.width).as_coulombs();
        let ct = self.cell.device().capacitances().total().as_farads();
        let floor = -ct * bias.drain_voltage.as_volts().abs();
        let q0 = self.cell.charge().as_coulombs();
        if q0 <= floor || floor == 0.0 {
            return;
        }
        let q_new = floor + (q0 - floor) * (-raw / floor.abs()).exp();
        self.cell.set_charge(Charge::from_coulombs(q_new));
    }

    /// Channel energy consumed by one CHE pulse (J).
    #[must_use]
    pub fn che_pulse_energy(&self, bias: &CheBias) -> f64 {
        self.che.programming_energy_joules(
            bias.drain_current,
            bias.drain_voltage.as_volts(),
            bias.width.as_seconds(),
        )
    }
}

/// Applies one CHE programming pulse to every listed cell of a
/// population — the struct-of-arrays mirror of [`NorCell::program_che`]:
/// the same self-limiting exponential relaxation toward the
/// `−CT·V_D` floor, evaluated per cell against its *shared* device
/// (the floor depends on the variant's `CT`), with no per-cell clones.
pub fn program_che_cells(
    pop: &mut CellPopulation,
    indices: &[usize],
    che: &CheModel,
    bias: &CheBias,
) {
    let i_gate = che.gate_current(bias.drain_current, bias.lateral_field);
    let raw = (i_gate * bias.width).as_coulombs();
    pop.map_charge(indices, |device, charge| {
        let ct = device.capacitances().total().as_farads();
        let floor = -ct * bias.drain_voltage.as_volts().abs();
        let q0 = charge.as_coulombs();
        if q0 <= floor || floor == 0.0 {
            return charge;
        }
        Charge::from_coulombs(floor + (q0 - floor) * (-raw / floor.abs()).exp())
    });
}

/// Energy of an FN programming pulse for comparison: gate displacement
/// current is negligible, so the energy is the tunneling charge times the
/// programming voltage.
#[must_use]
pub fn fn_pulse_energy(charge_moved: Charge, vgs: Voltage) -> f64 {
    (charge_moved.as_coulombs() * vgs.as_volts()).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn che_pulse_stores_electrons() {
        let mut nor = NorCell::new(FlashCell::paper_cell());
        nor.program_che(&CheBias::default());
        assert!(nor.cell().charge().as_coulombs() < 0.0);
    }

    #[test]
    fn repeated_pulses_converge_to_the_drain_voltage_floor() {
        let mut nor = NorCell::new(FlashCell::paper_cell());
        let bias = CheBias::default();
        let ct = nor.cell().device().capacitances().total().as_farads();
        let floor = -ct * bias.drain_voltage.as_volts();
        nor.program_che(&bias);
        let q1 = nor.cell().charge().as_coulombs();
        for _ in 0..10 {
            nor.program_che(&bias);
        }
        let q11 = nor.cell().charge().as_coulombs();
        assert!(q11 <= q1); // monotone toward the floor
        assert!(q11 >= floor - 1e-30); // never past it
        assert!(
            (q11 - floor).abs() / floor.abs() < 0.05,
            "q = {q11:e}, floor = {floor:e}"
        );
    }

    #[test]
    fn weak_pulse_injects_partially() {
        let mut nor = NorCell::new(FlashCell::paper_cell());
        // A very short pulse at low lateral field injects little.
        let bias = CheBias {
            lateral_field: ElectricField::from_volts_per_meter(1.5e7),
            width: Time::from_nanoseconds(1.0),
            ..CheBias::default()
        };
        nor.program_che(&bias);
        let ct = nor.cell().device().capacitances().total().as_farads();
        let floor = -ct * bias.drain_voltage.as_volts();
        let q = nor.cell().charge().as_coulombs();
        assert!(q < 0.0, "some injection must occur");
        assert!(q > 0.5 * floor, "weak pulse must not saturate: {q:e}");
    }

    #[test]
    fn che_energy_dwarfs_fn_energy_per_cell() {
        // The paper's §II current comparison, as energy per operation.
        let mut fn_cell = FlashCell::paper_cell();
        fn_cell.program_default().unwrap();
        let e_fn = fn_pulse_energy(fn_cell.charge(), Voltage::from_volts(15.0));

        let nor = NorCell::new(FlashCell::paper_cell());
        let e_che = nor.che_pulse_energy(&CheBias::default());
        assert!(
            e_che / e_fn > 1e3,
            "CHE {e_che:e} J vs FN {e_fn:e} J, ratio {:e}",
            e_che / e_fn
        );
    }

    #[test]
    fn population_che_matches_nor_cell_bitwise() {
        let bias = CheBias::default();
        let mut nor = NorCell::new(FlashCell::paper_cell());
        let mut pop = CellPopulation::paper(4);
        for _ in 0..3 {
            nor.program_che(&bias);
            program_che_cells(&mut pop, &[0, 2], &nor.che, &bias);
        }
        assert_eq!(
            pop.charge(0).unwrap().as_coulombs(),
            nor.cell().charge().as_coulombs()
        );
        assert_eq!(pop.charge(1).unwrap().as_coulombs(), 0.0);
    }

    #[test]
    fn fn_erase_clears_che_programming() {
        let mut nor = NorCell::new(FlashCell::paper_cell());
        let bias = CheBias::default();
        for _ in 0..20 {
            nor.program_che(&bias);
        }
        let q_prog = nor.cell().charge().as_coulombs();
        nor.cell_mut().erase_default().unwrap();
        assert!(nor.cell().charge().as_coulombs() > q_prog);
    }
}
