//! RBER/UBER reporting: the pipeline's output numbers.
//!
//! * **RBER** — raw bit-error rate: mismatches between a sampled read
//!   and the stored data, before any correction.
//! * **UBER** — uncorrectable bit-error rate: the errors still present
//!   after per-page ECC decode (decoder failures leave their page's
//!   errors in place; miscorrections add the decoder's own flips).
//!
//! Both are measured over the *coded* region of every page so the two
//! rates divide meaningfully.
//!
//! The scan exploits linearity: for a linear code, decoding a received
//! word `r = c + e` is exactly decoding the error pattern `e` against
//! the zero codeword (syndromes of `r` and `e` are equal — pinned in
//! `bch::tests`). So the scan decodes per-page *error patterns* directly
//! and never needs the stored data to be literal codewords — any
//! workload's pages can be scored as if ECC-managed, which is what lets
//! [`ReliabilityObserver`] ride along arbitrary trace replays.

use gnr_flash_array::controller::FlashController;
use gnr_flash_array::nand::NandArray;
use gnr_flash_array::population::CellPopulation;
use gnr_flash_array::workload::ReplayObserver;
use gnr_flash_array::ArrayError;

use crate::ber::BerModel;
use crate::codec::{DecodeStats, EccConfig, PageCodec};
use crate::readpath::recenter_from;
use crate::{ReliabilityError, Result};

/// One reliability measurement of an array state.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct ReliabilityPoint {
    /// Ops completed when the point was taken (0 for standalone scans).
    pub op_index: usize,
    /// Coded bits scanned (pages × codeword length).
    pub coded_bits: usize,
    /// Raw bit errors in the coded region.
    pub raw_errors: usize,
    /// `raw_errors / coded_bits`.
    pub rber: f64,
    /// Bit errors remaining after per-page decode.
    pub residual_errors: usize,
    /// `residual_errors / coded_bits`.
    pub uber: f64,
    /// Per-page decode statistics.
    pub decode: DecodeStats,
    /// The reference voltage the scan sensed at (V).
    pub reference: f64,
    /// Mean injected-charge wear per cell (C) — the wear axis of
    /// error-trajectory plots.
    pub mean_injected_charge: f64,
}

/// Scans every page of an array: sample a read at `pass`, diff against
/// `truth` (the data as written — capture it with
/// [`BerModel::noiseless_bits`] *before* ageing the array), decode each
/// page's error pattern, and report raw vs post-ECC error rates.
///
/// `reference` fixes the sense voltage; `None` re-centers on the margin
/// histogram (falling back to the population's decision level).
///
/// # Errors
///
/// [`ReliabilityError::CodeTooWide`] when the codec does not fit the
/// page width; statistics errors propagate as array errors.
///
/// # Panics
///
/// Panics unless the array is settled ([`NandArray::population`]).
pub fn scan_array(
    array: &NandArray,
    truth: &[bool],
    codec: &dyn PageCodec,
    ber: &BerModel,
    reference: Option<f64>,
    pass: u64,
) -> Result<ReliabilityPoint> {
    scan(
        array,
        array.population(),
        truth,
        codec,
        ber,
        reference,
        pass,
    )
}

/// [`scan_array`] over `pop`, the settled cells of `array` (which
/// supplies the shape and the batch executor).
fn scan(
    array: &NandArray,
    pop: &CellPopulation,
    truth: &[bool],
    codec: &dyn PageCodec,
    ber: &BerModel,
    reference: Option<f64>,
    pass: u64,
) -> Result<ReliabilityPoint> {
    let _zone = gnr_telemetry::zone!("reliability.scan");
    let config = array.config();
    let width = config.page_width;
    let n = codec.code_bits();
    if n > width {
        return Err(ReliabilityError::CodeTooWide {
            code_bits: n,
            page_width: width,
        });
    }
    if truth.len() != pop.len() {
        return Err(ReliabilityError::WrongLength {
            what: "truth column",
            got: truth.len(),
            expected: pop.len(),
        });
    }
    let batch = array.batch();
    // One context build serves both the re-centering histogram and the
    // sampled read — the columnar work is the scan's dominant cost.
    let ctx = ber.context(pop, batch);
    let reference = reference.unwrap_or_else(|| {
        recenter_from(&ctx, 64).unwrap_or_else(|| pop.decision_level().as_volts())
    });
    let read = ctx.sample_all(batch, reference, pass);

    // Per-page error patterns, decoded in parallel page chunks but
    // reduced in page order — deterministic regardless of scheduling.
    let pages = config.pages();
    let page_results: Vec<Result<(usize, usize, crate::codec::DecodeOutcome)>> =
        batch.map_chunks(pages, 1, |page, _| {
            let start = page * width;
            let mut pattern: Vec<bool> = (start..start + n).map(|i| truth[i] != read[i]).collect();
            let raw = pattern.iter().filter(|&&b| b).count();
            let outcome = codec.decode(&mut pattern)?;
            let residual = pattern.iter().filter(|&&b| b).count();
            Ok((raw, residual, outcome))
        });

    let mut decode = DecodeStats::default();
    let mut raw_errors = 0usize;
    let mut residual_errors = 0usize;
    for result in page_results {
        let (raw, residual, outcome) = result?;
        raw_errors += raw;
        residual_errors += residual;
        decode.record(outcome);
    }
    // Telemetry lands after the page-ordered reduction, on the caller
    // thread, so the journal stays deterministic under rayon.
    gnr_telemetry::counter_add!("reliability.scans", 1);
    gnr_telemetry::counter_add!("reliability.decode.pages", decode.pages as u64);
    gnr_telemetry::counter_add!(
        "reliability.decode.uncorrectable",
        decode.uncorrectable_pages as u64
    );
    if decode.uncorrectable_pages > 0 {
        gnr_telemetry::journal::record(gnr_telemetry::journal::EventKind::DecodeFailure {
            pages: decode.uncorrectable_pages as u64,
        });
    }
    let coded_bits = pages * n;
    #[allow(clippy::cast_precision_loss)]
    Ok(ReliabilityPoint {
        op_index: 0,
        coded_bits,
        raw_errors,
        rber: raw_errors as f64 / coded_bits as f64,
        residual_errors,
        uber: residual_errors as f64 / coded_bits as f64,
        decode,
        reference,
        mean_injected_charge: pop
            .mean_injected_charge()
            .map_err(ReliabilityError::Array)?,
    })
}

/// A [`ReplayObserver`] recording raw vs post-ECC error trajectories on
/// the replayer's snapshot cadence: every observation scans the whole
/// array against its *current* stored data, so the trajectory tracks how
/// wear and disturb accumulated by the trace move both error rates.
/// Each observation reads one [`NandArray::settled_population`] view for
/// both the stored data and the scan, so it is exact at any cadence,
/// including mid-window campaign steps whose disturb is still pending.
pub struct ReliabilityObserver {
    codec: Box<dyn PageCodec>,
    ber: BerModel,
    reference: Option<f64>,
    next_pass: u64,
    /// The recorded trajectory, one point per observation.
    pub trajectory: Vec<ReliabilityPoint>,
}

impl ReliabilityObserver {
    /// Builds an observer sampling with `ber` and decoding with the
    /// configured codec. `reference = None` re-centers at every
    /// observation.
    ///
    /// # Errors
    ///
    /// Codec construction errors.
    pub fn new(ecc: &EccConfig, ber: BerModel, reference: Option<f64>) -> Result<Self> {
        Ok(Self {
            codec: ecc.build()?,
            ber,
            reference,
            next_pass: 0,
            trajectory: Vec::new(),
        })
    }

    /// The codec in use.
    #[must_use]
    pub fn codec(&self) -> &dyn PageCodec {
        self.codec.as_ref()
    }

    /// The pass counter the next observation will sample with — the
    /// piece of observer state a campaign checkpoint must carry: the
    /// read-noise stream is seeded per pass, so a resumed observer
    /// continues the *same* noise sequence only if its counter is
    /// restored (the trajectory itself may restart empty; trajectories
    /// concatenate across a resume, noise streams must not).
    #[must_use]
    pub fn next_pass(&self) -> u64 {
        self.next_pass
    }

    /// Restores the pass counter after a checkpoint resume (see
    /// [`Self::next_pass`]).
    pub fn set_next_pass(&mut self, pass: u64) {
        self.next_pass = pass;
    }
}

impl core::fmt::Debug for ReliabilityObserver {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ReliabilityObserver")
            .field("codec", &self.codec.name())
            .field("ber", &self.ber)
            .field("reference", &self.reference)
            .field("points", &self.trajectory.len())
            .finish()
    }
}

impl ReplayObserver for ReliabilityObserver {
    fn observe(
        &mut self,
        controller: &FlashController,
        op_index: usize,
    ) -> gnr_flash_array::Result<()> {
        let array = controller.array();
        let pop = array.settled_population();
        let truth = self.ber.noiseless_bits(&pop, array.batch());
        let pass = self.next_pass;
        self.next_pass += 1;
        let mut point = scan(
            array,
            &pop,
            &truth,
            self.codec.as_ref(),
            &self.ber,
            self.reference,
            pass,
        )
        // The observer seam speaks the array layer's error type.
        .map_err(|e| ArrayError::Snapshot(format!("reliability scan: {e}")))?;
        point.op_index = op_index;
        self.trajectory.push(point);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnr_flash::engine::BatchSimulator;
    use gnr_flash_array::nand::NandConfig;
    use gnr_flash_array::workload::{replay, PagePattern, ReplayOptions, WorkloadTrace};

    fn programmed_array() -> NandArray {
        let mut array = NandArray::new(NandConfig {
            blocks: 2,
            pages_per_block: 2,
            page_width: 32,
        });
        for block in 0..2 {
            for page in 0..2 {
                let bits = PagePattern::Seeded {
                    seed: (block * 2 + page) as u64,
                }
                .expand(32);
                array.program_page(block, page, &bits).unwrap();
            }
        }
        array.settle();
        array
    }

    #[test]
    fn quiet_arrays_have_zero_error_rates() {
        let array = programmed_array();
        let ber = BerModel {
            read_noise_sigma: 0.02,
            ..BerModel::default()
        };
        let codec = EccConfig::Bch { m: 4, t: 2 }.build().unwrap();
        let truth = ber.noiseless_bits(array.population(), array.batch());
        let point = scan_array(&array, &truth, codec.as_ref(), &ber, None, 0).unwrap();
        assert_eq!(point.raw_errors, 0);
        assert_eq!(point.residual_errors, 0);
        assert_eq!(point.decode.clean_pages, 4);
        assert_eq!(point.coded_bits, 4 * 15);
    }

    #[test]
    fn ecc_pushes_uber_below_rber() {
        let array = programmed_array();
        // Noisy enough for raw errors, quiet enough that t=2 over 15
        // bits corrects nearly every page.
        let ber = BerModel {
            read_noise_sigma: 0.45,
            ..BerModel::default()
        };
        let codec = EccConfig::Bch { m: 4, t: 2 }.build().unwrap();
        let truth = ber.noiseless_bits(array.population(), array.batch());
        // Accumulate over passes for statistics.
        let mut raw = 0usize;
        let mut residual = 0usize;
        for pass in 0..200 {
            let point = scan_array(&array, &truth, codec.as_ref(), &ber, None, pass).unwrap();
            raw += point.raw_errors;
            residual += point.residual_errors;
        }
        assert!(raw > 0, "noise must produce raw errors");
        assert!(
            residual * 4 < raw,
            "ECC must remove most errors: raw {raw}, residual {residual}"
        );
    }

    #[test]
    fn scans_are_bit_identical_across_runs_and_layouts() {
        let array = programmed_array();
        let ber = BerModel::default();
        let codec = EccConfig::Bch { m: 4, t: 2 }.build().unwrap();
        let truth = ber.noiseless_bits(array.population(), array.batch());
        let a = scan_array(&array, &truth, codec.as_ref(), &ber, None, 5).unwrap();
        let b = scan_array(&array, &truth, codec.as_ref(), &ber, None, 5).unwrap();
        assert_eq!(a, b);
        let sequential = array.clone().with_batch(BatchSimulator::sequential());
        let c = scan_array(&sequential, &truth, codec.as_ref(), &ber, None, 5).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn observer_records_trajectories_during_replay() {
        let config = NandConfig {
            blocks: 3,
            pages_per_block: 2,
            page_width: 16,
        };
        let mut controller = FlashController::new(config);
        let capacity = controller.logical_capacity();
        let trace = WorkloadTrace::gc_churn(2 * capacity, capacity, 9);
        let mut observer =
            ReliabilityObserver::new(&EccConfig::Bch { m: 4, t: 2 }, BerModel::default(), None)
                .unwrap();
        let options = ReplayOptions {
            snapshot_interval: 4,
            margin_scan: false,
        };
        let report = replay(&mut controller, &trace, &options, &mut observer).unwrap();
        assert_eq!(observer.trajectory.len(), report.snapshots.len());
        // Wear accumulates monotonically along the trajectory.
        for pair in observer.trajectory.windows(2) {
            assert!(pair[1].mean_injected_charge >= pair[0].mean_injected_charge - 1e-30);
            assert!(pair[1].op_index >= pair[0].op_index);
        }
        assert!(observer.trajectory.iter().all(|p| p.uber <= p.rber));
    }
}
