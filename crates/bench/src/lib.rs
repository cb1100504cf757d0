//! # gnr-bench
//!
//! Figure-regeneration harness for the `gnr-flash` reproduction.
//!
//! Its consumer is the `figures` binary: it regenerates every paper
//! figure and the array-layer experiments of [`extra_experiments`],
//! writes `results/*.csv`/`results/*.json`, runs the shape checks and
//! prints a compact report.
//!
//! Timing is not done here: the standalone `perfbench/` workspace (the
//! repository benchmark declared in `BENCHMARK.json`) is the one timing
//! harness for the simulator stack.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pe_experiment;
mod reliability_experiment;
mod workload_experiment;

pub use workload_experiment::extra_experiments;

/// Maps an array-layer error onto the device error an
/// [`gnr_flash::experiments::Experiment`] returns.
pub(crate) fn array_error(e: gnr_flash_array::ArrayError) -> gnr_flash::DeviceError {
    match e {
        gnr_flash_array::ArrayError::Device(inner) => inner,
        other => gnr_flash::DeviceError::Numerics(gnr_numerics::NumericsError::InvalidInput(
            other.to_string(),
        )),
    }
}
