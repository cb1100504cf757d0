//! Read-path management: reference re-centering and read-retry.
//!
//! Real flash read paths do two things this module reproduces:
//!
//! * **Re-centering** — the sense reference is not a constant: it is
//!   placed in the valley of the measured threshold histogram, so as
//!   retention decay and wear drag the populations toward each other the
//!   reference tracks the midpoint instead of clipping one tail.
//! * **Read-retry** — when a page fails ECC, the read is retried with a
//!   fresh noise sample at reference voltages stepped around the
//!   nominal one; a marginal page usually recovers within a few steps.

use gnr_flash::engine::BatchSimulator;
use gnr_flash_array::margins::decision_valley;
use gnr_flash_array::population::CellPopulation;
use gnr_numerics::stats::Histogram;

use crate::ber::{BerModel, ReadContext};
use crate::codec::{DecodeOutcome, PageCodec};
use crate::{ReliabilityError, Result};

/// The retry ladder: how far and how often to step the reference when a
/// page fails to decode.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ReadRetryPolicy {
    /// Reference step per retry (V); retries alternate −step, +step,
    /// −2·step, +2·step, …
    pub step_volts: f64,
    /// Maximum retries after the initial read.
    pub max_retries: usize,
}

impl Default for ReadRetryPolicy {
    fn default() -> Self {
        Self {
            step_volts: 0.1,
            max_retries: 4,
        }
    }
}

impl ReadRetryPolicy {
    /// The reference offset of retry `k` (1-based): −s, +s, −2s, +2s, …
    #[must_use]
    pub fn offset(&self, k: usize) -> f64 {
        let magnitude = self.step_volts * k.div_ceil(2) as f64;
        if k % 2 == 1 {
            -magnitude
        } else {
            magnitude
        }
    }
}

/// Re-centers the read reference from an already-built [`ReadContext`]:
/// the deepest valley of the sensed-threshold (stored charge plus wear
/// offsets) histogram. Returns `None` when the histogram is unimodal (a
/// blank or fully-programmed array has no valley to sit in) or
/// degenerate.
#[must_use]
pub fn recenter_from(ctx: &ReadContext, bins: usize) -> Option<f64> {
    let vt = &ctx.effective_vt;
    let (lo, hi) = vt
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    if !(hi > lo) {
        return None;
    }
    // Pad the range so the extreme cells land inside the histogram.
    let pad = 0.01 * (hi - lo);
    let h = Histogram::new(vt, lo - pad, hi + pad, bins).ok()?;
    decision_valley(&h)
}

/// [`recenter_from`] on a freshly-built context — for one-shot callers;
/// scans that also *sample* should build the context once and use
/// [`recenter_from`] so the column work is not done twice.
#[must_use]
pub fn recenter_reference(
    ber: &BerModel,
    pop: &CellPopulation,
    batch: &BatchSimulator,
    bins: usize,
) -> Option<f64> {
    recenter_from(&ber.context(pop, batch), bins)
}

/// One page read through the managed path.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRead {
    /// The page's bits after decoding (codec region corrected in place;
    /// any tail bits beyond the codeword pass through as sampled).
    pub bits: Vec<bool>,
    /// The final decode outcome.
    pub outcome: DecodeOutcome,
    /// Retries consumed after the initial read (0 = first read decoded).
    pub retries: usize,
    /// The reference voltage that produced the final outcome (V).
    pub reference: f64,
}

/// The managed read path: a nominal reference plus a retry policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadPath {
    /// Nominal read reference (V).
    pub reference: f64,
    /// The retry ladder.
    pub retry: ReadRetryPolicy,
}

impl ReadPath {
    /// A read path at a fixed nominal reference with the default ladder.
    #[must_use]
    pub fn new(reference: f64) -> Self {
        Self {
            reference,
            retry: ReadRetryPolicy::default(),
        }
    }

    /// A read path re-centered on the population's margin histogram,
    /// falling back to the population's own decision level when the
    /// histogram has no valley.
    #[must_use]
    pub fn recentered(
        ber: &BerModel,
        pop: &CellPopulation,
        batch: &BatchSimulator,
        bins: usize,
    ) -> Self {
        let reference = recenter_reference(ber, pop, batch, bins)
            .unwrap_or_else(|| pop.decision_level().as_volts());
        Self::new(reference)
    }

    /// Reads and decodes the page whose cells occupy
    /// `start..start + width`, retrying with stepped references and
    /// fresh noise on ECC failure. `base_pass` seeds the first read;
    /// retry `k` samples pass `base_pass + k` — deterministic, but every
    /// retry sees new noise, as hardware re-reads do.
    ///
    /// # Errors
    ///
    /// [`ReliabilityError::CodeTooWide`] when the codec's codeword does
    /// not fit the page.
    pub fn read_page(
        &self,
        ctx: &ReadContext,
        codec: &dyn PageCodec,
        start: usize,
        width: usize,
        base_pass: u64,
    ) -> Result<PageRead> {
        let n = codec.code_bits();
        if n > width {
            return Err(ReliabilityError::CodeTooWide {
                code_bits: n,
                page_width: width,
            });
        }
        let mut last: Option<PageRead> = None;
        for k in 0..=self.retry.max_retries {
            let reference = self.reference + if k == 0 { 0.0 } else { self.retry.offset(k) };
            let mut bits = ctx.sample_window(reference, base_pass + k as u64, start, width);
            let outcome = codec.decode(&mut bits[..n])?;
            let read = PageRead {
                bits,
                outcome,
                retries: k,
                reference,
            };
            if !matches!(outcome, DecodeOutcome::Detected) {
                Self::record_retry_telemetry(k);
                return Ok(read);
            }
            last = Some(read);
        }
        Self::record_retry_telemetry(self.retry.max_retries);
        Ok(last.expect("at least the initial read ran"))
    }

    /// Telemetry of one completed read: the retry-depth histogram, the
    /// cumulative retry counter, and one journal event per read that had
    /// to step past the nominal reference.
    fn record_retry_telemetry(depth: usize) {
        gnr_telemetry::histogram_record!("reliability.retry_depth", depth as u64);
        gnr_telemetry::counter_add!("reliability.read_retries", depth as u64);
        if depth > 0 {
            gnr_telemetry::journal::record(gnr_telemetry::journal::EventKind::ReadRetryStep {
                depth: depth as u64,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::EccConfig;
    use gnr_flash_array::ispp::IsppProgrammer;

    fn programmed_population() -> CellPopulation {
        let mut pop = CellPopulation::paper(64);
        let programmer = IsppProgrammer::nominal();
        let indices: Vec<usize> = (0..32).collect();
        let _ = pop.program_cells(&programmer, &indices, &BatchSimulator::sequential());
        pop
    }

    #[test]
    fn retry_ladder_alternates_and_widens() {
        let policy = ReadRetryPolicy {
            step_volts: 0.2,
            max_retries: 4,
        };
        let offsets: Vec<f64> = (1..=4).map(|k| policy.offset(k)).collect();
        assert_eq!(offsets, vec![-0.2, 0.2, -0.4, 0.4]);
    }

    #[test]
    fn recentering_lands_between_the_populations() {
        let pop = programmed_population();
        let ber = BerModel::default();
        let reference = recenter_reference(&ber, &pop, &BatchSimulator::new(), 64).unwrap();
        // Erased mode ~0 V, programmed mode ~2.3 V.
        assert!(reference > 0.2 && reference < 2.2, "reference {reference}");
    }

    #[test]
    fn blank_arrays_have_no_valley_and_fall_back() {
        let pop = CellPopulation::paper(32);
        let ber = BerModel::default();
        let batch = BatchSimulator::new();
        assert_eq!(recenter_reference(&ber, &pop, &batch, 32), None);
        let path = ReadPath::recentered(&ber, &pop, &batch, 32);
        assert_eq!(path.reference, pop.decision_level().as_volts());
    }

    #[test]
    fn clean_pages_decode_on_the_first_read() {
        // The first 32 cells are programmed: the decoded 31-bit window
        // is the all-zero word — a codeword of every linear code.
        let pop = programmed_population();
        let ber = BerModel {
            read_noise_sigma: 0.01,
            ..BerModel::default()
        };
        let batch = BatchSimulator::new();
        let ctx = ber.context(&pop, &batch);
        let codec = EccConfig::Bch { m: 5, t: 2 }.build().unwrap();
        let path = ReadPath::recentered(&ber, &pop, &batch, 64);
        let read = path.read_page(&ctx, codec.as_ref(), 0, 64, 0).unwrap();
        assert_eq!(read.retries, 0);
        assert!(!matches!(read.outcome, DecodeOutcome::Detected));
    }

    #[test]
    fn hopeless_pages_exhaust_the_ladder() {
        /// A codec that never succeeds — pins the ladder length exactly.
        struct AlwaysFail;
        impl PageCodec for AlwaysFail {
            fn name(&self) -> String {
                "always-fail".into()
            }
            fn code_bits(&self) -> usize {
                31
            }
            fn data_bits(&self) -> usize {
                1
            }
            fn correctable(&self) -> usize {
                0
            }
            fn encode(&self, _data: &[bool]) -> crate::Result<Vec<bool>> {
                Ok(vec![false; 31])
            }
            fn decode(&self, _word: &mut [bool]) -> crate::Result<DecodeOutcome> {
                Ok(DecodeOutcome::Detected)
            }
            fn extract(&self, _word: &[bool]) -> crate::Result<Vec<bool>> {
                Ok(vec![false])
            }
        }

        let pop = programmed_population();
        let ber = BerModel::default();
        let batch = BatchSimulator::new();
        let ctx = ber.context(&pop, &batch);
        let path = ReadPath::new(pop.decision_level().as_volts());
        let read = path.read_page(&ctx, &AlwaysFail, 0, 64, 0).unwrap();
        assert_eq!(read.retries, path.retry.max_retries);
        assert_eq!(read.outcome, DecodeOutcome::Detected);
        // The last attempt ran at the widest ladder offset.
        let expected = path.reference + path.retry.offset(path.retry.max_retries);
        assert!((read.reference - expected).abs() < 1e-12);
        // Oversized codewords are rejected.
        assert!(matches!(
            path.read_page(&ctx, &AlwaysFail, 0, 16, 0),
            Err(ReliabilityError::CodeTooWide { .. })
        ));
    }
}
