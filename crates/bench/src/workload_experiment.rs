//! The workload experiment: a trace-driven array run for the figures
//! binary.
//!
//! The core registry (`gnr_flash::experiments::registry`) holds the
//! device-physics figures; this experiment lives in `gnr-bench` because
//! it needs the array layer on top. The figures binary appends it (see
//! [`extra_experiments`]), so workload summaries land in `results/`
//! alongside the paper figures.

use gnr_flash::experiments::{Artifact, Experiment, ExperimentContext, ExperimentReport};
use gnr_flash_array::controller::FlashController;
use gnr_flash_array::nand::NandConfig;
use gnr_flash_array::workload::{replay, ReplayOptions, WorkloadTrace};

/// Array- and reliability-layer experiments the figures binary runs
/// beyond the core registry.
#[must_use]
pub fn extra_experiments() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(WorkloadExperiment),
        Box::new(crate::reliability_experiment::ReliabilityExperiment),
        Box::new(crate::pe_experiment::PeOperationsExperiment),
    ]
}

struct WorkloadExperiment;

impl Experiment for WorkloadExperiment {
    fn id(&self) -> &'static str {
        "workload"
    }
    fn title(&self) -> &'static str {
        "Trace-driven array workloads (fill / GC churn / read-heavy)"
    }
    fn run(&self, _ctx: &ExperimentContext) -> gnr_flash::Result<ExperimentReport> {
        let config = NandConfig {
            blocks: 4,
            pages_per_block: 4,
            page_width: 16,
        };
        let capacity = config.logical_pages();
        let traces = [
            WorkloadTrace::full_array_cycle(config),
            WorkloadTrace::gc_churn(2 * capacity, capacity, 0x6e_0c),
            WorkloadTrace::read_heavy(4, 32, capacity, 0x6e_0d),
        ];

        let mut summary = Vec::new();
        let mut artifacts = Vec::new();
        let mut check = Ok(());
        for trace in traces {
            let mut controller = FlashController::new(config);
            let report = replay(&mut controller, &trace, &ReplayOptions::default(), &mut ())
                .map_err(crate::array_error)?;
            let wear = &report.snapshots.last().expect("final snapshot").wear;
            summary.push(format!(
                "{}: {} ops ({} writes, {} reads, {} erases) in {:.1} ms; \
                 {:.0} cells/s, wear spread {}, {} GC relocations",
                report.trace,
                report.ops,
                report.writes,
                report.reads,
                report.erases,
                report.wall_seconds * 1e3,
                report.cells_per_second,
                wear.spread(),
                wear.gc_relocations,
            ));
            if check.is_ok() {
                check = check_report(&trace.name, wear.spread(), &report);
            }
            artifacts.push(Artifact {
                name: format!("workload_{}.json", report.trace),
                contents: serde_json::to_string_pretty(&report).expect("serializable"),
            });
        }
        Ok(ExperimentReport {
            summary,
            artifacts,
            check,
        })
    }
}

fn check_report(
    name: &str,
    wear_spread: u64,
    report: &gnr_flash_array::workload::WorkloadReport,
) -> Result<(), String> {
    // Shape checks in the spirit of the figure checks: structural
    // properties any healthy run must show.
    if report.writes == 0 {
        return Err(format!("{name}: no writes completed"));
    }
    if wear_spread > 1 && name != "read_heavy" {
        return Err(format!("{name}: wear spread {wear_spread} exceeds 1"));
    }
    let last = report.snapshots.last().expect("final snapshot");
    if let Some(margins) = &last.margins {
        if let Some(margin) = margins.worst_case_margin {
            if margin <= 0.0 {
                return Err(format!("{name}: read margin collapsed ({margin:.2} V)"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnr_flash::experiments::ExperimentContext;

    #[test]
    fn workload_experiment_runs_and_checks_pass() {
        let report = WorkloadExperiment.run(&ExperimentContext::paper()).unwrap();
        assert!(report.check.is_ok(), "{:?}", report.check);
        assert_eq!(report.artifacts.len(), 3);
        assert!(report.summary.iter().any(|l| l.contains("gc_churn")));
    }
}
