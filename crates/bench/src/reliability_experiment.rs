//! The reliability experiment: the margins → RBER → ECC → UBER pipeline
//! for the figures binary.
//!
//! A small trace of the `reliability_sweep` bench: one seeded 4×4×32
//! array, scanned fresh and after an accelerated ten-year 85 °C bake,
//! raw versus BCH-corrected. Shape checks pin the structural properties
//! any healthy pipeline must show — deterministic sampling, ECC never
//! above raw, retention never *improving* the raw rate.

use gnr_flash::experiments::{Artifact, Experiment, ExperimentContext, ExperimentReport};
use gnr_flash_array::nand::{NandArray, NandConfig};
use gnr_flash_array::retention::RetentionModel;
use gnr_flash_array::workload::PagePattern;
use gnr_reliability::ber::BerModel;
use gnr_reliability::codec::EccConfig;
use gnr_reliability::uber::{scan_array, ReliabilityPoint};
use gnr_units::Temperature;

pub(crate) struct ReliabilityExperiment;

impl Experiment for ReliabilityExperiment {
    fn id(&self) -> &'static str {
        "reliability"
    }
    fn title(&self) -> &'static str {
        "Reliability pipeline (raw BER vs post-ECC UBER, fresh and baked)"
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

        let scan = |array: &NandArray, pass: u64| -> gnr_flash::Result<ReliabilityPoint> {
            scan_array(array, &truth, codec.as_ref(), &ber, None, pass).map_err(reliability_error)
        };
        let fresh = scan(&array, 0)?;
        let rescan = scan(&array, 0)?;

        let mut baked = array.clone();
        RetentionModel::default().bake_population(
            baked.population_mut(),
            3.156e8, // ten years
            Temperature::from_celsius(85.0),
        );
        let baked_point = scan(&baked, 1)?;

        let describe = |label: &str, p: &ReliabilityPoint| {
            format!(
                "{label}: RBER {:.3e} → UBER {:.3e} with {} \
                 ({} corrected bits, {} uncorrectable pages, ref {:.2} V)",
                p.rber,
                p.uber,
                codec.name(),
                p.decode.corrected_bits,
                p.decode.uncorrectable_pages,
                p.reference,
            )
        };
        let summary = vec![
            describe("fresh", &fresh),
            describe("10 y @ 85 °C", &baked_point),
        ];

        let mut check = Ok(());
        if rescan != fresh {
            check = Err("BER sampling not reproducible under a fixed seed".to_string());
        } else if fresh.raw_errors == 0 {
            check = Err("no raw errors: noise model produced nothing to correct".to_string());
        } else if fresh.uber > fresh.rber || baked_point.uber > baked_point.rber {
            check = Err("post-ECC UBER exceeded raw BER".to_string());
        } else if baked_point.rber < fresh.rber {
            check = Err(format!(
                "retention bake improved raw BER ({:.3e} -> {:.3e})",
                fresh.rber, baked_point.rber
            ));
        }

        let artifacts = vec![
            Artifact {
                name: "reliability_fresh.json".into(),
                contents: serde_json::to_string_pretty(&fresh).expect("serializable"),
            },
            Artifact {
                name: "reliability_baked.json".into(),
                contents: serde_json::to_string_pretty(&baked_point).expect("serializable"),
            },
        ];
        Ok(ExperimentReport {
            summary,
            artifacts,
            check,
        })
    }
}

fn array_error(e: gnr_flash_array::ArrayError) -> gnr_flash::DeviceError {
    match e {
        gnr_flash_array::ArrayError::Device(inner) => inner,
        other => gnr_flash::DeviceError::Numerics(gnr_numerics::NumericsError::InvalidInput(
            other.to_string(),
        )),
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
