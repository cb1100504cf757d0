//! Trace-driven workload replay: the array stack as a storage device
//! under load.
//!
//! Builds a small NAND array behind the flash-translation controller,
//! generates three canonical workload mixes (sequential fill, hot/cold
//! skew, steady-state GC churn), replays them and prints the latency,
//! wear and margin trajectories the replayer records. The repository
//! benchmark (`perfbench/`) drives the same controller on a
//! million-cell array, one host op per call (workloads `gc_churn` and
//! `read_mix`).
//!
//! ```text
//! cargo run --release --example workload_replay
//! ```

use gnr_flash_array::controller::FlashController;
use gnr_flash_array::nand::NandConfig;
use gnr_flash_array::workload::{replay, ReplayOptions, WorkloadTrace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = NandConfig {
        blocks: 8,
        pages_per_block: 8,
        page_width: 32,
    };
    println!(
        "array: {}x{}x{} = {} cells, {} B/cell of state\n",
        config.blocks,
        config.pages_per_block,
        config.page_width,
        config.cells(),
        FlashController::new(config)
            .array()
            .population()
            .bytes_per_cell(),
    );

    let capacity = FlashController::new(config).logical_capacity();
    let traces = [
        WorkloadTrace::full_array_cycle(config),
        WorkloadTrace::hot_cold(2 * capacity, capacity, 0.9, 0.1, 0xcafe),
        WorkloadTrace::gc_churn(2 * capacity, capacity, 0xf00d),
    ];

    println!(
        "{:>18} {:>6} {:>7} {:>7} {:>9} {:>11} {:>8} {:>7} {:>7}",
        "trace", "ops", "writes", "erases", "gc-reloc", "cells/s", "p95 µs", "spread", "margin"
    );
    for trace in traces {
        let mut controller = FlashController::new(config);
        let options = ReplayOptions {
            snapshot_interval: 16,
            margin_scan: true,
        };
        let report = replay(&mut controller, &trace, &options, &mut ())?;
        let last = report.snapshots.last().expect("final snapshot");
        println!(
            "{:>18} {:>6} {:>7} {:>7} {:>9} {:>11.0} {:>8.0} {:>7} {:>7}",
            report.trace,
            report.ops,
            report.writes,
            last.wear.total_erases,
            last.wear.gc_relocations,
            report.cells_per_second,
            report.write_latency_us.map_or(f64::NAN, |l| l.p95),
            last.wear.spread(),
            last.margins
                .as_ref()
                .and_then(|m| m.worst_case_margin)
                .map_or("n/a".into(), |m| format!("{m:.2}V")),
        );
    }

    println!("\ntrajectory detail (gc_churn, every 16 ops): wear spread and");
    println!("erased-population VT drift (the disturb signature) over time:");
    let mut controller = FlashController::new(config);
    let trace = WorkloadTrace::gc_churn(3 * capacity, capacity, 0xf00d);
    let report = replay(
        &mut controller,
        &trace,
        &ReplayOptions {
            snapshot_interval: 32,
            margin_scan: true,
        },
        &mut (),
    )?;
    println!(
        "{:>8} {:>8} {:>8} {:>14} {:>14}",
        "op", "erases", "spread", "erased VT max", "mean fluence"
    );
    for snap in &report.snapshots {
        let erased_max = snap
            .margins
            .as_ref()
            .and_then(|m| m.erased.as_ref())
            .map_or(f64::NAN, |e| e.vt.max);
        println!(
            "{:>8} {:>8} {:>8} {:>13.4}V {:>13.2e}C",
            snap.op_index,
            snap.wear.total_erases,
            snap.wear.spread(),
            erased_max,
            snap.mean_injected_charge,
        );
    }

    // Traces serialize: persist one for replaying elsewhere.
    let json = serde_json::to_string_pretty(&trace)?;
    std::fs::create_dir_all("results")?;
    std::fs::write("results/workload_trace_gc_churn.json", &json)?;
    println!(
        "\nwrote results/workload_trace_gc_churn.json ({} bytes)",
        json.len()
    );
    Ok(())
}
