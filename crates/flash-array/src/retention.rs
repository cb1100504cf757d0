//! Data retention: stored-charge leakage at rest.
//!
//! With all terminals grounded, a programmed floating gate sits a few
//! volts below the channel — a *sub-barrier* drop, so the loss path is
//! direct tunneling (the paper's §II thin-oxide regime), evaluated here
//! with the unified direct/FN model through both oxides. The standard
//! requirement is a still-open window after ten years at 85 °C; elevated
//! temperature is modelled with an Arrhenius acceleration factor.

use std::collections::HashMap;

use gnr_tunneling::direct::DirectTunnelingModel;
use gnr_units::constants::BOLTZMANN;
use gnr_units::{Charge, Temperature, Voltage};

use gnr_flash::device::FloatingGateTransistor;

use crate::population::CellPopulation;

/// Retention-model parameters.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct RetentionModel {
    /// Activation energy of the (trap-assisted) leakage, eV.
    pub activation_energy_ev: f64,
    /// Reference temperature at which the tunneling models are evaluated.
    pub reference: Temperature,
}

impl Default for RetentionModel {
    fn default() -> Self {
        Self {
            activation_energy_ev: 0.6,
            reference: Temperature::room(),
        }
    }
}

/// One point of a retention trace.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct RetentionPoint {
    /// Elapsed time (s).
    pub t: f64,
    /// Remaining stored charge (C).
    pub charge: f64,
    /// Threshold shift at this charge (V).
    pub vt_shift: f64,
}

/// Retention verdict for a ten-year bake.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct RetentionReport {
    /// The trace, log-spaced in time.
    pub trace: Vec<RetentionPoint>,
    /// Initial threshold shift (V).
    pub initial_vt: f64,
    /// Threshold shift after the full horizon (V).
    pub final_vt: f64,
    /// `true` when at least `margin` of shift survives the horizon.
    pub pass: bool,
}

impl RetentionModel {
    /// Arrhenius acceleration of the leakage at temperature `t` relative
    /// to the reference.
    #[must_use]
    pub fn acceleration(&self, t: Temperature) -> f64 {
        let ea = self.activation_energy_ev * gnr_units::constants::ELECTRON_VOLT;
        (ea / BOLTZMANN * (1.0 / self.reference.as_kelvin() - 1.0 / t.as_kelvin())).exp()
    }

    /// Quasi-static leakage integration of a resting cell over log-spaced
    /// times up to `horizon_s`, at temperature `t`.
    ///
    /// All terminals grounded: the only field is the stored charge's own
    /// `VFG = QFG/CT`, and the loss is direct tunneling through both
    /// oxides. Quasi-static stepping is exact in the limit of slowly
    /// varying leakage — retention currents change on the same decade
    /// scale as the time grid.
    #[must_use]
    pub fn trace(
        &self,
        device: &FloatingGateTransistor,
        initial: Charge,
        horizon_s: f64,
        t: Temperature,
    ) -> Vec<RetentionPoint> {
        let accel = self.acceleration(t);
        let geometry = device.geometry();
        let tunnel = DirectTunnelingModel::new(
            device.channel_emission_model().barrier(),
            device.channel_emission_model().effective_mass(),
            geometry.tunnel_oxide_thickness(),
        );
        let tunnel_rev = DirectTunnelingModel::new(
            device.fg_emission_model().barrier(),
            device.fg_emission_model().effective_mass(),
            geometry.tunnel_oxide_thickness(),
        );
        let control = DirectTunnelingModel::new(
            device.fg_emission_model().barrier(),
            device.fg_emission_model().effective_mass(),
            geometry.control_oxide_thickness(),
        );
        let area = geometry.gate_area().as_square_meters();
        let ct = device.capacitances().total();

        // Log grid: 100 points per ten-year horizon scale.
        let n = 100usize;
        let t0: f64 = 1.0; // first checkpoint at 1 s
        let ratio = (horizon_s / t0).powf(1.0 / (n - 1) as f64);

        let mut q = initial.as_coulombs();
        let mut out = Vec::with_capacity(n + 1);
        let record = |q: f64, t: f64| RetentionPoint {
            t,
            charge: q,
            vt_shift: gnr_flash::threshold::vt_shift(device, Charge::from_coulombs(q)).as_volts(),
        };
        out.push(record(q, 0.0));
        let mut t_prev = 0.0;
        let mut t_now = t0;
        for _ in 0..n {
            let vfg = Charge::from_coulombs(q) / ct;
            // Electron flow channel→FG (positive) through the tunnel oxide.
            let j_t = if vfg.as_volts() >= 0.0 {
                tunnel
                    .current_density_for_drop(vfg)
                    .as_amps_per_square_meter()
            } else {
                -tunnel_rev
                    .current_density_for_drop(-vfg)
                    .as_amps_per_square_meter()
            };
            // Electron flow FG→gate (positive) through the control oxide:
            // drop is (0 − VFG).
            let j_c = control
                .current_density_for_drop(-vfg)
                .as_amps_per_square_meter();
            let dq_dt = accel * area * (j_c - j_t);
            q += dq_dt * (t_now - t_prev);
            // Leakage can only relax the charge toward zero, never flip it.
            if initial.as_coulombs() < 0.0 {
                q = q.min(0.0);
            } else {
                q = q.max(0.0);
            }
            out.push(record(q, t_now));
            t_prev = t_now;
            t_now *= ratio;
        }
        out
    }

    /// The ten-year retention check at the given temperature: passes when
    /// at least `margin` of threshold shift remains.
    #[must_use]
    pub fn ten_year_check(
        &self,
        device: &FloatingGateTransistor,
        programmed: Charge,
        margin: Voltage,
        t: Temperature,
    ) -> RetentionReport {
        let horizon = gnr_units::Time::from_years(10.0).as_seconds();
        let trace = self.trace(device, programmed, horizon, t);
        let initial_vt = trace.first().map_or(0.0, |p| p.vt_shift);
        let final_vt = trace.last().map_or(0.0, |p| p.vt_shift);
        RetentionReport {
            initial_vt,
            final_vt,
            pass: final_vt >= margin.as_volts(),
            trace,
        }
    }
}

/// Ten-year retention verdict across a whole population.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct PopulationRetentionReport {
    /// Cells evaluated.
    pub cells: usize,
    /// Cells whose shift survives the margin.
    pub passing: usize,
    /// Distinct `(device variant, stored charge)` states actually
    /// integrated — the struct-of-arrays win: a million identical
    /// programmed cells cost one trace.
    pub distinct_states: usize,
    /// Smallest final threshold shift across the population (V).
    pub worst_final_vt: f64,
}

impl RetentionModel {
    /// Runs the ten-year check over every cell of a population,
    /// integrating one leakage trace per distinct `(variant, charge)`
    /// state and sharing the verdict across all cells in that state.
    #[must_use]
    pub fn population_check(
        &self,
        pop: &CellPopulation,
        margin: Voltage,
        t: Temperature,
    ) -> PopulationRetentionReport {
        let mut memo: HashMap<(u64, u64, u64), (bool, f64)> = HashMap::new();
        let mut passing = 0usize;
        let mut worst = f64::INFINITY;
        for i in 0..pop.len() {
            let charge = pop.charge(i).expect("index in range");
            let device = pop.device(i).expect("index in range");
            // The variant is identified by its delta pair (collision-free
            // bit patterns); charge bits complete the state key.
            let (xto, barrier) = pop.variation_deltas(i).expect("index in range");
            let key = (
                xto.to_bits(),
                barrier.to_bits(),
                charge.as_coulombs().to_bits(),
            );
            let (pass, final_vt) = *memo.entry(key).or_insert_with(|| {
                let report = self.ten_year_check(device, charge, margin, t);
                (report.pass, report.final_vt)
            });
            if pass {
                passing += 1;
            }
            worst = worst.min(final_vt);
        }
        PopulationRetentionReport {
            cells: pop.len(),
            passing,
            distinct_states: memo.len(),
            worst_final_vt: worst,
        }
    }
}

impl RetentionModel {
    /// Applies `duration_s` of resting charge loss at temperature `t` to
    /// every cell of the population — the *mutating* counterpart of
    /// [`Self::population_check`], used to bake arrays before reliability
    /// scans. One leakage trace is integrated per distinct
    /// `(variant, charge)` state and the final charge is shared across
    /// all cells in that state. Returns the number of distinct states
    /// integrated. Durations below one second are a no-op (the trace's
    /// first checkpoint).
    pub fn bake_population(
        &self,
        pop: &mut CellPopulation,
        duration_s: f64,
        t: Temperature,
    ) -> usize {
        if duration_s < 1.0 {
            return 0;
        }
        let mut memo: HashMap<(u64, u64, u64), f64> = HashMap::new();
        for i in 0..pop.len() {
            let charge = pop.charge(i).expect("index in range");
            if charge.as_coulombs() == 0.0 {
                continue; // nothing stored, nothing to lose
            }
            let (xto, barrier) = pop.variation_deltas(i).expect("index in range");
            let key = (
                xto.to_bits(),
                barrier.to_bits(),
                charge.as_coulombs().to_bits(),
            );
            let baked = if let Some(&q) = memo.get(&key) {
                q
            } else {
                let device = pop.device(i).expect("index in range");
                let trace = self.trace(device, charge, duration_s, t);
                let q = trace.last().map_or(charge.as_coulombs(), |p| p.charge);
                memo.insert(key, q);
                q
            };
            pop.set_charge(i, Charge::from_coulombs(baked))
                .expect("index in range");
        }
        memo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::FlashCell;

    fn programmed_charge() -> (FloatingGateTransistor, Charge) {
        let mut cell = FlashCell::paper_cell();
        cell.program_default().unwrap();
        (cell.device().clone(), cell.charge())
    }

    #[test]
    fn charge_decays_monotonically() {
        let (device, q0) = programmed_charge();
        let model = RetentionModel::default();
        let trace = model.trace(&device, q0, 3.2e8, Temperature::room());
        for pair in trace.windows(2) {
            // Stored charge is negative; it relaxes toward zero.
            assert!(pair[1].charge >= pair[0].charge - 1e-30);
            assert!(pair[1].charge <= 0.0);
        }
    }

    #[test]
    fn ten_year_room_temperature_retention_passes() {
        let (device, q0) = programmed_charge();
        let report = RetentionModel::default().ten_year_check(
            &device,
            q0,
            Voltage::from_volts(1.0),
            Temperature::room(),
        );
        assert!(
            report.pass,
            "retention failed: {} V -> {} V",
            report.initial_vt, report.final_vt
        );
    }

    #[test]
    fn bake_accelerates_loss() {
        let (device, q0) = programmed_charge();
        let model = RetentionModel::default();
        let room = model.trace(&device, q0, 3.2e8, Temperature::room());
        let bake = model.trace(&device, q0, 3.2e8, Temperature::from_celsius(85.0));
        let lost = |tr: &[RetentionPoint]| tr.first().unwrap().charge - tr.last().unwrap().charge;
        assert!(lost(&bake).abs() >= lost(&room).abs());
    }

    #[test]
    fn acceleration_factor_is_arrhenius() {
        let model = RetentionModel::default();
        assert!((model.acceleration(Temperature::room()) - 1.0).abs() < 1e-12);
        let a85 = model.acceleration(Temperature::from_celsius(85.0));
        // 0.6 eV between 300 K and 358 K: exp(0.6/k·(1/300−1/358)) ≈ 43×.
        assert!(a85 > 10.0 && a85 < 200.0, "a85 = {a85}");
    }

    #[test]
    fn population_check_shares_traces_across_identical_cells() {
        use crate::population::CellPopulation;
        use gnr_flash::engine::BatchSimulator;

        let mut pop = CellPopulation::paper(64);
        let programmer = crate::ispp::IsppProgrammer::nominal();
        let indices: Vec<usize> = (0..32).collect();
        let _ = pop.program_cells(&programmer, &indices, &BatchSimulator::sequential());

        let report = RetentionModel::default().population_check(
            &pop,
            Voltage::from_volts(1.0),
            Temperature::from_celsius(85.0),
        );
        assert_eq!(report.cells, 64);
        // Two states: programmed and fresh — two traces, not 64.
        assert_eq!(report.distinct_states, 2);
        // Programmed cells pass; erased cells have no shift to retain.
        assert_eq!(report.passing, 32);
        assert!(report.worst_final_vt < 1.0);
    }

    #[test]
    fn bake_population_matches_single_cell_trace() {
        use crate::population::CellPopulation;
        use gnr_flash::engine::BatchSimulator;

        let mut pop = CellPopulation::paper(16);
        let programmer = crate::ispp::IsppProgrammer::nominal();
        let indices: Vec<usize> = (0..8).collect();
        let _ = pop.program_cells(&programmer, &indices, &BatchSimulator::sequential());
        let q0 = pop.charge(0).unwrap();

        let model = RetentionModel::default();
        let bake_s = 3.2e7; // one year
        let t = Temperature::from_celsius(85.0);
        let states = model.bake_population(&mut pop, bake_s, t);
        // Programmed cells share one state; fresh cells are skipped.
        assert_eq!(states, 1);

        let expected = model
            .trace(pop.device(0).unwrap(), q0, bake_s, t)
            .last()
            .unwrap()
            .charge;
        for i in 0..8 {
            assert_eq!(pop.charge(i).unwrap().as_coulombs(), expected, "cell {i}");
        }
        // Fresh cells untouched; charge decayed toward zero.
        assert_eq!(pop.charge(12).unwrap().as_coulombs(), 0.0);
        assert!(expected >= q0.as_coulombs() && expected < 0.0);

        // Sub-second bakes are a no-op.
        let mut pop2 = CellPopulation::paper(2);
        assert_eq!(model.bake_population(&mut pop2, 0.5, t), 0);
    }

    #[test]
    fn erased_cell_has_nothing_to_lose() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let report = RetentionModel::default().ten_year_check(
            &device,
            Charge::ZERO,
            Voltage::from_volts(0.5),
            Temperature::room(),
        );
        assert!(!report.pass); // no stored shift to retain
        assert_eq!(report.initial_vt, 0.0);
    }
}
