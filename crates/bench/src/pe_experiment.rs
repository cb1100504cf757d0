//! The P/E operations experiment: closed-loop program and erase against
//! their open-loop counterparts, on process-varied cells.
//!
//! * **Adaptive ISPP** — mean pulses per program and mean overshoot past
//!   the +2 V verify target, adaptive step control vs the fixed nominal
//!   ladder, over 32 varied cells.
//! * **Erase-verify + soft-program** — erased-distribution width
//!   (max − min ΔVT) of a varied 1×2×32 block after the closed-loop erase
//!   vs a raw block erase.
//!
//! Both run the exact engine: per-cell-unique variants make flow-map
//! keys single-use (see `gnr_flash::engine::flowmap`). The checks pin
//! what the closed loops exist for: adaptive ISPP needs no more pulses
//! than the fixed ladder, and a verified erase narrows the distribution.

use gnr_flash::device::FloatingGateTransistor;
use gnr_flash::engine::{BatchSimulator, EngineMode};
use gnr_flash::experiments::{Artifact, Experiment, ExperimentContext, ExperimentReport};
use gnr_flash_array::ispp::{IsppProgrammer, IsppReport};
use gnr_flash_array::nand::{NandArray, NandConfig};
use gnr_flash_array::pe::{AdaptiveIspp, EraseVerify, SoftProgram};
use gnr_flash_array::population::{CellOutcomes, CellPopulation, PopulationVariation};
use serde_json::Value;

use crate::array_error;

/// Cells in the ISPP comparison.
const ISPP_CELLS: usize = 32;
/// The block the erase comparison programs and erases.
const ERASE_BLOCK: NandConfig = NandConfig {
    blocks: 1,
    pages_per_block: 2,
    page_width: 32,
};

pub(crate) struct PeOperationsExperiment;

impl Experiment for PeOperationsExperiment {
    fn id(&self) -> &'static str {
        "pe-operations"
    }
    fn title(&self) -> &'static str {
        "P/E operations (adaptive vs fixed ISPP, erase-verify vs raw erase)"
    }
    #[allow(clippy::cast_precision_loss)]
    fn run(&self, _ctx: &ExperimentContext) -> gnr_flash::Result<ExperimentReport> {
        let exact = BatchSimulator::new().with_mode(EngineMode::Exact);
        let varied = |cells: usize| {
            CellPopulation::with_variation(
                FloatingGateTransistor::mlgnr_cnt_paper(),
                cells,
                &PopulationVariation::default(),
            )
            .map_err(array_error)
        };

        // Adaptive vs fixed ISPP on identically varied cells.
        let indices: Vec<usize> = (0..ISPP_CELLS).collect();
        let fixed = varied(ISPP_CELLS)?.program_cells(&IsppProgrammer::nominal(), &indices, &exact);
        let adaptive =
            AdaptiveIspp::nominal().program_cells(&mut varied(ISPP_CELLS)?, &indices, &exact);
        let target = IsppProgrammer::nominal().target().as_volts();
        let means = |reports: CellOutcomes<IsppReport>| {
            let reports = reports
                .iter()
                .map(Result::as_ref)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| array_error(e.clone()))?;
            let n = reports.len() as f64;
            let pulses = reports.iter().map(|r| r.pulses as f64).sum::<f64>() / n;
            let overshoot = reports
                .iter()
                .map(|r| r.final_vt_shift - target)
                .sum::<f64>()
                / n;
            Ok::<_, gnr_flash::DeviceError>((pulses, overshoot))
        };
        let (fixed_pulses, fixed_overshoot) = means(fixed)?;
        let (adaptive_pulses, adaptive_overshoot) = means(adaptive)?;

        // Erase-verify + soft-program vs a raw erase of the same block.
        let programmed_block = || {
            let mut array = NandArray::with_population(ERASE_BLOCK, varied(ERASE_BLOCK.cells())?)
                .with_batch(exact.clone());
            for page in 0..ERASE_BLOCK.pages_per_block {
                let bits: Vec<bool> = (0..ERASE_BLOCK.page_width)
                    .map(|i| (i + page).is_multiple_of(3))
                    .collect();
                array.program_page(0, page, &bits).map_err(array_error)?;
            }
            Ok::<_, gnr_flash::DeviceError>(array)
        };
        let width = |array: &NandArray| {
            let column = array.population().vt_shift_column(array.batch());
            let (lo, hi) = column
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            hi - lo
        };
        let mut raw = programmed_block()?;
        raw.erase_block(0).map_err(array_error)?;
        let raw_width = width(&raw);
        let mut verified = programmed_block()?;
        let erase = verified
            .erase_block_verified(0, &EraseVerify::nominal(), Some(&SoftProgram::nominal()))
            .map_err(array_error)?;
        let verified_width = width(&verified);

        let summary = vec![
            format!(
                "adaptive ISPP: {adaptive_pulses:.3} pulses/program vs fixed {fixed_pulses:.3} \
                 (mean overshoot {adaptive_overshoot:+.3} vs {fixed_overshoot:+.3} V past the \
                 {target:+.1} V target), {ISPP_CELLS} varied cells"
            ),
            format!(
                "erase-verify + soft-program: erased width {verified_width:.3} V vs raw erase \
                 {raw_width:.3} V ({} erase pulses, {} cells soft-programmed), {} varied cells",
                erase.erase_pulses,
                erase.soft_programmed_cells,
                ERASE_BLOCK.cells(),
            ),
        ];

        let check = if adaptive_pulses > fixed_pulses {
            Err(format!(
                "adaptive ISPP needs more pulses than the fixed ladder: \
                 {adaptive_pulses:.3} vs {fixed_pulses:.3}"
            ))
        } else if verified_width >= raw_width {
            Err(format!(
                "erase-verify + soft-program did not narrow the erased distribution: \
                 {verified_width:.3} vs {raw_width:.3} V"
            ))
        } else {
            Ok(())
        };

        let record = Value::Object(vec![
            ("ispp_cells".into(), serde_json::to_value(&ISPP_CELLS)),
            ("fixed_mean_pulses".into(), Value::Number(fixed_pulses)),
            (
                "adaptive_mean_pulses".into(),
                Value::Number(adaptive_pulses),
            ),
            (
                "fixed_mean_overshoot_volts".into(),
                Value::Number(fixed_overshoot),
            ),
            (
                "adaptive_mean_overshoot_volts".into(),
                Value::Number(adaptive_overshoot),
            ),
            (
                "erase_block_cells".into(),
                serde_json::to_value(&ERASE_BLOCK.cells()),
            ),
            ("raw_erase_width_volts".into(), Value::Number(raw_width)),
            (
                "verified_erase_width_volts".into(),
                Value::Number(verified_width),
            ),
            ("erase".into(), serde_json::to_value(&erase)),
        ]);
        Ok(ExperimentReport {
            summary,
            artifacts: vec![Artifact {
                name: "pe_operations.json".into(),
                contents: record.to_json_pretty(),
            }],
            check,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_operations_experiment_runs_and_checks_pass() {
        let report = PeOperationsExperiment
            .run(&ExperimentContext::paper())
            .unwrap();
        assert!(report.check.is_ok(), "{:?}", report.check);
        assert_eq!(report.artifacts.len(), 1);
        assert!(report.summary.iter().any(|l| l.contains("adaptive ISPP")));
    }
}
