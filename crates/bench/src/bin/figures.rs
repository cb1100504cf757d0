//! Regenerates every figure of the paper and records the reproduction.
//!
//! ```text
//! cargo run -p gnr-bench --bin figures
//! ```
//!
//! Iterates the [`gnr_flash::experiments::registry()`] — every paper
//! figure plus the extension studies — through the batched engine,
//! writes each experiment's artifacts under `results/`, runs every
//! shape check and prints the per-figure summaries that EXPERIMENTS.md
//! quotes. Array-layer experiments (the trace-driven workloads) are
//! appended from [`gnr_bench::extra_experiments`], since the core
//! registry cannot depend on the array crate. Adding an experiment to
//! either list adds it here with no changes to this binary.

use gnr_bench::{ascii_table, extra_experiments, write_results_file};
use gnr_flash::experiments::ExperimentContext;
use gnr_flash::presets;
use gnr_units::Charge;

fn main() {
    let ctx = ExperimentContext::paper();
    let mut failures = 0usize;

    let experiments = gnr_flash::experiments::registry()
        .into_iter()
        .chain(extra_experiments());
    for experiment in experiments {
        println!("== {}: {} ==", experiment.id(), experiment.title());
        let report = match experiment.run(&ctx) {
            Ok(report) => report,
            Err(e) => {
                failures += 1;
                println!("  [check] {}: FAILED to run — {e}", experiment.id());
                continue;
            }
        };
        for line in &report.summary {
            println!("  {line}");
        }
        match &report.check {
            Ok(()) => println!("  [check] {}: OK", experiment.id()),
            Err(e) => {
                failures += 1;
                println!("  [check] {}: FAILED — {e}", experiment.id());
            }
        }
        for artifact in &report.artifacts {
            match write_results_file(&artifact.name, &artifact.contents) {
                Ok(path) => println!("  [data] {} -> {}", artifact.name, path.display()),
                Err(e) => println!("  [data] {}: write failed ({e})", artifact.name),
            }
        }
        println!();
    }

    // Headline comparison table: the worked example of §III.
    println!("== Worked example (§III) ==");
    let device = &ctx.device;
    let vfg = device
        .floating_gate_voltage(presets::program_vgs(), Charge::ZERO)
        .as_volts();
    let rows = vec![
        vec!["VGS".into(), "15 V".into(), "15 V".into()],
        vec![
            "GCR".into(),
            "0.6".into(),
            format!("{:.2}", device.capacitances().gcr()),
        ],
        vec!["VFG (QFG=0)".into(), "9 V".into(), format!("{vfg:.2} V")],
        vec![
            "control-oxide drop".into(),
            "6 V".into(),
            format!("{:.2} V", 15.0 - vfg),
        ],
    ];
    print!(
        "{}",
        ascii_table(&["quantity", "paper", "simulated"], &rows)
    );

    if failures > 0 {
        eprintln!("\n{failures} figure check(s) FAILED");
        std::process::exit(1);
    }
    println!("\nAll figure checks passed. CSVs under results/.");
}
