//! The reliability experiment: the margins → RBER → ECC → UBER pipeline
//! for the figures binary.
//!
//! One seeded 4×4×32 array, scanned over a wear × retention grid and
//! decoded raw versus BCH-corrected: three wear levels (0, 0.12 and
//! 0.35 V of trap-induced erased-state drift, injected as the P/E-cycle
//! fluence the endurance model's √-law needs for it) × three 85 °C
//! bakes (none, one year, ten years). Shape checks pin the structural
//! properties any healthy pipeline must show — deterministic sampling,
//! ECC never above raw, retention never *improving* the raw rate.

use gnr_flash::experiments::{Artifact, Experiment, ExperimentContext, ExperimentReport};
use gnr_flash_array::cell::FlashCell;
use gnr_flash_array::endurance::EnduranceModel;
use gnr_flash_array::nand::{NandArray, NandConfig};
use gnr_flash_array::retention::RetentionModel;
use gnr_flash_array::workload::PagePattern;
use gnr_reliability::ber::BerModel;
use gnr_reliability::codec::EccConfig;
use gnr_reliability::uber::{scan_array, ReliabilityPoint};
use gnr_units::{Temperature, Voltage};
use serde_json::Value;

use crate::array_error;

/// Trap-induced erased-state drift of each wear level (V).
const WEAR_OFFSETS_VOLTS: [f64; 3] = [0.0, 0.12, 0.35];
/// One year, in seconds.
const YEAR_SECONDS: f64 = 3.156e7;
/// Retention bakes at [`BAKE_CELSIUS`] (s).
const BAKE_SECONDS: [f64; 3] = [0.0, YEAR_SECONDS, 10.0 * YEAR_SECONDS];
/// Retention bake temperature.
const BAKE_CELSIUS: f64 = 85.0;

/// P/E cycles whose cumulative fluence produces a given trap-induced
/// threshold offset — the inverse of the endurance model's √-law, so
/// wear levels are stated in volts of erased-state drift and recorded
/// in cycles.
fn cycles_for_offset(
    model: &EnduranceModel,
    cfc_farads: f64,
    charge_per_cycle: f64,
    offset_volts: f64,
) -> f64 {
    if offset_volts <= 0.0 {
        return 0.0;
    }
    let e = gnr_units::constants::ELEMENTARY_CHARGE;
    let trap_electrons = offset_volts * cfc_farads / e;
    let injected_electrons = (trap_electrons / model.trap_sqrt_coefficient).powi(2);
    injected_electrons * e / charge_per_cycle
}

pub(crate) struct ReliabilityExperiment;

impl Experiment for ReliabilityExperiment {
    fn id(&self) -> &'static str {
        "reliability"
    }
    fn title(&self) -> &'static str {
        "Reliability pipeline (raw BER vs post-ECC UBER over wear × retention bake)"
    }
    fn run(&self, _ctx: &ExperimentContext) -> gnr_flash::Result<ExperimentReport> {
        let config = NandConfig {
            blocks: 4,
            pages_per_block: 4,
            page_width: 32,
        };
        let mut array = NandArray::new(config);
        for block in 0..config.blocks {
            for page in 0..config.pages_per_block {
                let seed = (block * config.pages_per_block + page) as u64;
                let bits = PagePattern::Seeded { seed }.expand(config.page_width);
                array
                    .program_page(block, page, &bits)
                    .map_err(array_error)?;
            }
        }
        array.settle();

        // σ high enough that the 512-cell array shows raw errors.
        let ber = BerModel {
            read_noise_sigma: 0.55,
            ..BerModel::default()
        };
        let codec = EccConfig::bch_for_width(config.page_width, 2)
            .and_then(|ecc| ecc.build())
            .map_err(reliability_error)?;
        let truth = ber.noiseless_bits(array.population(), array.batch());

        // Wear levels as P/E-cycle fluence: a representative cycle gives
        // the charge moved per cycle.
        let endurance = EnduranceModel::default();
        let cell = FlashCell::paper_cell();
        let charge_per_cycle = endurance
            .simulate(&cell, 1, Voltage::from_volts(1.0))
            .map_err(array_error)?
            .charge_per_cycle;
        let cfc = cell.device().capacitances().cfc().as_farads();
        let all_cells: Vec<usize> = (0..array.population().len()).collect();

        let scan = |array: &NandArray, pass: u64| -> gnr_flash::Result<ReliabilityPoint> {
            scan_array(array, &truth, codec.as_ref(), &ber, None, pass).map_err(reliability_error)
        };
        let mut summary = Vec::new();
        let mut grid = Vec::new();
        let mut corners = Vec::new();
        for (wi, &offset) in WEAR_OFFSETS_VOLTS.iter().enumerate() {
            let cycles = cycles_for_offset(&endurance, cfc, charge_per_cycle, offset);
            for (bi, &bake) in BAKE_SECONDS.iter().enumerate() {
                let mut corner = array.clone();
                if cycles > 0.0 {
                    corner
                        .population_mut()
                        .add_injected_charge(&all_cells, cycles * charge_per_cycle);
                }
                if bake > 0.0 {
                    RetentionModel::default().bake_population(
                        corner.population_mut(),
                        bake,
                        Temperature::from_celsius(BAKE_CELSIUS),
                    );
                }
                let point = scan(&corner, (wi * BAKE_SECONDS.len() + bi) as u64)?;
                let label = match (offset > 0.0, bake > 0.0) {
                    (false, false) => "fresh".to_string(),
                    (_, false) => format!("wear {offset:.2} V ({cycles:.0} cycles), no bake"),
                    _ => format!(
                        "wear {offset:.2} V ({cycles:.0} cycles), {:.0} y @ {BAKE_CELSIUS:.0} °C",
                        bake / YEAR_SECONDS
                    ),
                };
                summary.push(format!(
                    "{label}: RBER {:.3e} → UBER {:.3e} with {} \
                     ({} corrected bits, {} uncorrectable pages, ref {:.2} V)",
                    point.rber,
                    point.uber,
                    codec.name(),
                    point.decode.corrected_bits,
                    point.decode.uncorrectable_pages,
                    point.reference,
                ));
                corners.push(Value::Object(vec![
                    ("wear_offset_volts".into(), Value::Number(offset)),
                    ("wear_cycles".into(), Value::Number(cycles)),
                    ("retention_seconds".into(), Value::Number(bake)),
                    ("point".into(), serde_json::to_value(&point)),
                ]));
                grid.push(point);
            }
        }
        // The wear-0 row comes first: its no-bake and ten-year corners.
        let fresh = grid[0];
        let ten_year_bake = grid[BAKE_SECONDS.len() - 1];
        let rescan = scan(&array, 0)?;

        let mut check = Ok(());
        if rescan != fresh {
            check = Err("BER sampling not reproducible under a fixed seed".to_string());
        } else if fresh.raw_errors == 0 {
            check = Err("no raw errors: noise model produced nothing to correct".to_string());
        } else if grid.iter().any(|p| p.uber > p.rber) {
            check = Err("post-ECC UBER exceeded raw BER".to_string());
        } else if ten_year_bake.rber < fresh.rber {
            check = Err(format!(
                "retention bake improved raw BER ({:.3e} -> {:.3e})",
                fresh.rber, ten_year_bake.rber
            ));
        }

        let artifacts = vec![
            Artifact {
                name: "reliability_fresh.json".into(),
                contents: serde_json::to_string_pretty(&fresh).expect("serializable"),
            },
            Artifact {
                name: "reliability_grid.json".into(),
                contents: Value::Array(corners).to_json_pretty(),
            },
        ];
        Ok(ExperimentReport {
            summary,
            artifacts,
            check,
        })
    }
}

fn reliability_error(e: gnr_reliability::ReliabilityError) -> gnr_flash::DeviceError {
    gnr_flash::DeviceError::Numerics(gnr_numerics::NumericsError::InvalidInput(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnr_flash::experiments::ExperimentContext;

    #[test]
    fn reliability_experiment_runs_and_checks_pass() {
        let report = ReliabilityExperiment
            .run(&ExperimentContext::paper())
            .unwrap();
        assert!(report.check.is_ok(), "{:?}", report.check);
        assert_eq!(report.artifacts.len(), 2);
        assert!(report.summary.iter().any(|l| l.contains("fresh")));
    }
}
