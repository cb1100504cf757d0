//! Regenerates every figure of the paper and records the reproduction.
//!
//! ```text
//! cargo run -p gnr-bench --bin figures
//! ```
//!
//! Iterates the [`gnr_flash::experiments::registry()`] — every paper
//! figure plus the extension studies — through the batched engine,
//! writes each experiment's artifacts under `results/`, runs every
//! shape check and prints the per-figure summaries; it exits 1 when a
//! check fails or an artifact cannot be written. Array-layer
//! experiments (trace-driven workloads, the reliability grid, the P/E
//! operation comparisons) are appended from
//! [`gnr_bench::extra_experiments`], since the core registry cannot
//! depend on the array crate. Adding an experiment to either list adds
//! it here with no changes to this binary.

use std::path::{Path, PathBuf};

use gnr_bench::extra_experiments;
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
                Err(e) => {
                    failures += 1;
                    println!("  [data] {}: write FAILED ({e})", artifact.name);
                }
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
        eprintln!("\n{failures} figure check(s) or result write(s) FAILED");
        std::process::exit(1);
    }
    println!("\nAll figure checks passed. CSVs under results/.");
}

/// Renders rows as a fixed-width ASCII table with a header rule.
///
/// # Panics
///
/// Panics when rows are ragged with respect to the header.
fn ascii_table(header: &[&str], rows: &[Vec<String>]) -> String {
    for r in rows {
        assert_eq!(r.len(), header.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<&str>, widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (c, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {c:<w$} |"));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(header.to_vec(), &widths));
    out.push('|');
    for w in &widths {
        out.push_str(&format!("{:-<1$}|", "", w + 2));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.iter().map(String::as_str).collect(), &widths));
    }
    out
}

/// Writes `contents` under `results/` (created on demand) and returns the
/// path.
///
/// # Errors
///
/// Propagates filesystem errors.
fn write_results_file(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = ascii_table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = ascii_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }
}
