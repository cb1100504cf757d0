//! # gnr-reliability
//!
//! The digital reliability pipeline over the MLGNR-CNT flash array: the
//! layer that turns analog threshold margins into the numbers flash
//! products are actually judged by — raw bit-error rate (RBER), and the
//! uncorrectable bit-error rate (UBER) that survives error correction
//! and read management.
//!
//! The companion JETC analysis frames the GNR floating-gate cell as a
//! nonvolatile flash candidate; van-der-Waals flash work evaluates such
//! devices by retention-limited error behaviour. The array layer already
//! computes margins, retention decay, disturb and per-cell wear; this
//! crate closes the loop:
//!
//! ```text
//!  CellPopulation columns          this crate
//!  ─────────────────────   ────────────────────────────
//!  ΔVT column ┐
//!  wear column├─► [ber]  noisy read sampling ─► raw BER
//!  charge col ┘      │
//!                    ▼
//!             [codec]/[hamming]/[bch]  per-page decode ─► corrected /
//!                    │                                    uncorrectable
//!                    ▼
//!             [readpath]  reference re-centering + read-retry
//!                    │
//!                    ▼
//!             [scrub]  background refresh through the controller
//!                    │
//!                    ▼
//!             [uber]  RBER/UBER reporting + workload trajectories
//! ```
//!
//! * [`ber`] — threshold-noise → raw-BER model: deterministic, seeded,
//!   column-vectorised read sampling from population state.
//! * [`gf`] — GF(2^m) arithmetic tables for the BCH codec.
//! * [`hamming`] — Hamming SEC-DED on page-sized codewords.
//! * [`bch`] — configurable binary BCH(n, k, t) encode/decode.
//! * [`codec`] — the shared page-codec trait, codec selection and
//!   per-page syndrome statistics.
//! * [`readpath`] — reference-voltage re-centering from margin
//!   histograms and a read-retry ladder.
//! * [`scrub`] — background scrubbing through the flash controller.
//! * [`uber`] — the RBER/UBER reporter and the workload-replay observer.
//!
//! # Example
//!
//! ```
//! use gnr_flash_array::nand::{NandArray, NandConfig};
//! use gnr_reliability::ber::BerModel;
//! use gnr_reliability::codec::EccConfig;
//! use gnr_reliability::uber::scan_array;
//!
//! let mut array = NandArray::new(NandConfig {
//!     blocks: 2,
//!     pages_per_block: 2,
//!     page_width: 16,
//! });
//! array.program_page(0, 0, &[false; 16]).unwrap();
//! array.settle(); // replay the pending pass-voltage disturb
//!
//! let codec = EccConfig::Bch { m: 4, t: 2 }.build().unwrap();
//! let ber = BerModel::default();
//! let truth = ber.noiseless_bits(array.population(), array.batch());
//! let point = scan_array(&array, &truth, codec.as_ref(), &ber, None, 0).unwrap();
//! assert!(point.uber <= point.rber);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bch;
pub mod ber;
pub mod codec;
pub mod gf;
pub mod hamming;
pub mod readpath;
pub mod scrub;
pub mod uber;

mod error;

pub use error::ReliabilityError;

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, ReliabilityError>;
