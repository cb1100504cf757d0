//! Background scrubbing: patrol reads that refresh decaying pages.
//!
//! Retention decay and disturb are *cumulative* — left alone, a page's
//! margins erode until its error count outruns the codec. A scrubber
//! walks the live logical pages on idle time, reads each one through the
//! managed read path, and when correction was needed beyond a threshold
//! (or only a retry saved the page) rewrites the corrected data through
//! the controller. The rewrite allocates a fresh physical page at full
//! margins and marks the old copy stale — which is exactly the
//! controller's reclaim/GC machinery, so scrubbing pressure shows up as
//! reclaims and relocations in [`gnr_flash_array::controller::WearStats`].
//!
//! Scrubbing presumes pages hold codewords: [`write_encoded`] is the
//! ECC-aware ingest path (encode, pad with erased bits, write through
//! the controller).

use gnr_flash_array::controller::{FlashController, PageAddress};

use crate::ber::BerModel;
use crate::codec::{DecodeOutcome, DecodeStats, PageCodec};
use crate::readpath::{ReadPath, ReadRetryPolicy};
use crate::{ReliabilityError, Result};

/// When to refresh a page.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScrubPolicy {
    /// Refresh a page whose decode corrected at least this many bits
    /// (1 = refresh on any correction).
    pub corrected_bits_threshold: usize,
    /// The retry ladder for pages that fail the first decode.
    pub retry: ReadRetryPolicy,
    /// Bins for the re-centering histogram.
    pub histogram_bins: usize,
    /// Fixed read reference (V); `None` re-centers on the margin
    /// histogram each pass.
    pub reference: Option<f64>,
    /// Read-reclaim escalation: when at least this many pages of one
    /// physical block needed the retry ladder (or stayed uncorrectable)
    /// in a single pass, the block is decaying as a unit — *every* live
    /// page on it is relocated through the refresh seam instead of
    /// waiting for each to fail alone. `None` disables escalation.
    pub read_reclaim_threshold: Option<usize>,
}

impl Default for ScrubPolicy {
    fn default() -> Self {
        Self {
            corrected_bits_threshold: 2,
            retry: ReadRetryPolicy::default(),
            histogram_bins: 64,
            reference: None,
            read_reclaim_threshold: None,
        }
    }
}

/// What one scrub pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScrubReport {
    /// Live pages scanned.
    pub pages_scanned: usize,
    /// Pages rewritten to fresh physical locations.
    pub pages_refreshed: usize,
    /// Pages that needed the retry ladder to decode at all.
    pub pages_recovered_by_retry: usize,
    /// Pages that stayed uncorrectable after every retry (left in
    /// place; the data is what it is).
    pub pages_uncorrectable: usize,
    /// The reference voltage the pass sensed at (V).
    pub reference: f64,
    /// Blocks whose live pages were wholesale-relocated by read-reclaim
    /// escalation ([`ScrubPolicy::read_reclaim_threshold`]).
    pub blocks_read_reclaimed: usize,
    /// Decode statistics over the scanned pages.
    pub decode: DecodeStats,
}

/// Encodes `data` (`codec.data_bits()` bits), pads the codeword to the
/// page width with erased bits and writes it to logical page `lpn` —
/// the ECC-aware ingest path scrubbing presumes.
///
/// # Errors
///
/// Codec length errors, [`ReliabilityError::CodeTooWide`], and
/// controller write failures.
pub fn write_encoded(
    controller: &mut FlashController,
    codec: &dyn PageCodec,
    lpn: usize,
    data: &[bool],
) -> Result<PageAddress> {
    let width = controller.array().config().page_width;
    let mut bits = codec.encode(data)?;
    if bits.len() > width {
        return Err(ReliabilityError::CodeTooWide {
            code_bits: bits.len(),
            page_width: width,
        });
    }
    bits.resize(width, true); // pad bits stay erased — they cost nothing
    controller
        .write_logical(lpn, &bits)
        .map_err(ReliabilityError::Array)
}

/// The noise lane of one page's reads within a scrub pass: the crate's
/// [`crate::ber::splitmix64`] avalanche over `(pass, lpn)`, so no
/// arithmetic combination of pass and page number can collide with a
/// neighbouring page's lane (retries only ever add `k ≤ max_retries`).
fn scrub_lane(pass: u64, lpn: usize) -> u64 {
    crate::ber::splitmix64(pass ^ (lpn as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One background scrub pass over every live logical page.
///
/// Reads happen against the policy reference (re-centered on the margin
/// histogram by default). `pass` seeds the read noise; successive scrub
/// passes should use distinct values so each patrol sees fresh noise.
///
/// # Errors
///
/// [`ReliabilityError::CodeTooWide`] when the codec does not fit the
/// array's page width; rewrite failures propagate as array errors.
pub fn scrub(
    controller: &mut FlashController,
    codec: &dyn PageCodec,
    ber: &BerModel,
    policy: &ScrubPolicy,
    pass: u64,
) -> Result<ScrubReport> {
    let config = controller.array().config();
    let width = config.page_width;
    if codec.code_bits() > width {
        return Err(ReliabilityError::CodeTooWide {
            code_bits: codec.code_bits(),
            page_width: width,
        });
    }
    controller.settle();
    let batch = controller.array().batch().clone();
    let pop = controller.array().population();
    // One context build serves the re-centering histogram and every
    // page read of the pass.
    let ctx = ber.context(pop, &batch);
    let reference = policy.reference.unwrap_or_else(|| {
        crate::readpath::recenter_from(&ctx, policy.histogram_bins)
            .unwrap_or_else(|| pop.decision_level().as_volts())
    });
    let path = ReadPath {
        reference,
        retry: policy.retry,
    };

    let mut report = ScrubReport {
        reference,
        ..ScrubReport::default()
    };
    // Scan first (immutable), then rewrite (mutable): the refresh list
    // is decided against one consistent snapshot of the array.
    let mut refresh: Vec<(usize, Vec<bool>)> = Vec::new();
    // Per-block count of pages that needed the deep end of the read
    // path (retry-recovered or uncorrectable) — the read-reclaim
    // escalation signal.
    let mut deep_hits = vec![0usize; config.blocks];
    for lpn in controller.live_logical_pages() {
        let Some(addr) = controller.physical_of(lpn) else {
            continue;
        };
        let start = controller.array().cell_index(addr.block, addr.page, 0);
        let read = path.read_page(&ctx, codec, start, width, scrub_lane(pass, lpn))?;
        report.pages_scanned += 1;
        report.decode.record(read.outcome);
        if read.retries > 0 || matches!(read.outcome, DecodeOutcome::Detected) {
            deep_hits[addr.block] += 1;
        }
        if read.retries > 0 && !matches!(read.outcome, DecodeOutcome::Detected) {
            report.pages_recovered_by_retry += 1;
        }
        match read.outcome {
            DecodeOutcome::Detected => report.pages_uncorrectable += 1,
            DecodeOutcome::Clean | DecodeOutcome::Corrected(_) => {
                let corrected = match read.outcome {
                    DecodeOutcome::Corrected(bits) => bits,
                    _ => 0,
                };
                // Refresh on heavy correction — or whenever only the
                // retry ladder produced a decodable read (a
                // retry-recovered page that decodes *Clean* at a shifted
                // reference is still sitting on decayed cells).
                if corrected >= policy.corrected_bits_threshold || read.retries > 0 {
                    // Rewrite the corrected codeword; the uncoded tail
                    // is re-padded erased (the `write_encoded` layout)
                    // rather than persisting its *sampled* bits, which
                    // would slowly program noise into the pad region.
                    let mut bits = read.bits;
                    let n = codec.code_bits();
                    bits[n..].fill(true);
                    refresh.push((lpn, bits));
                }
            }
        }
    }
    // Read-reclaim escalation: the last rung of the read-retry → ECC →
    // reclaim ladder. A block where `read_reclaim_threshold` pages hit
    // the deep end of the read path this pass is decaying as a unit, so
    // every live page on it joins the refresh list — rewriting them all
    // marks the block stale and the ordinary reclaim/GC machinery
    // erases (or, under fault injection, retires) it.
    if let Some(threshold) = policy.read_reclaim_threshold {
        let threshold = threshold.max(1);
        let queued: std::collections::HashSet<usize> =
            refresh.iter().map(|(lpn, _)| *lpn).collect();
        for (block, hits) in deep_hits.iter().enumerate() {
            if *hits < threshold {
                continue;
            }
            let mut pages = 0u64;
            for lpn in controller.live_logical_pages() {
                let Some(addr) = controller.physical_of(lpn) else {
                    continue;
                };
                if addr.block != block {
                    continue;
                }
                pages += 1;
                if queued.contains(&lpn) {
                    continue;
                }
                // Re-reading with the same noise lane is deterministic,
                // so this sees exactly the scan's bits.
                let start = controller.array().cell_index(addr.block, addr.page, 0);
                let read = path.read_page(&ctx, codec, start, width, scrub_lane(pass, lpn))?;
                let mut bits = read.bits;
                let n = codec.code_bits();
                bits[n..].fill(true);
                refresh.push((lpn, bits));
            }
            report.blocks_read_reclaimed += 1;
            gnr_telemetry::counter_add!("ftl.read_reclaims", 1);
            gnr_telemetry::journal::record(gnr_telemetry::journal::EventKind::ReadReclaim {
                block: block as u64,
                pages,
            });
        }
    }
    // The refresh traffic flows through the controller's batched entry
    // point: rewrites of pages on distinct blocks execute as multi-plane
    // rounds (and the reclaim pressure they generate still lands on the
    // ordinary reclaim/GC machinery at the flush boundaries).
    if !refresh.is_empty() {
        let jobs: Vec<(Option<usize>, Vec<bool>)> = refresh
            .into_iter()
            .map(|(lpn, bits)| (Some(lpn), bits))
            .collect();
        report.pages_refreshed = jobs.len();
        for result in controller.write_batch(jobs) {
            result.map_err(ReliabilityError::Array)?;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::EccConfig;
    use gnr_flash::threshold::LogicState;
    use gnr_flash_array::nand::NandConfig;
    use gnr_flash_array::workload::PagePattern;
    use gnr_units::Charge;

    /// BCH(15, 7, t=2) on 32-bit pages.
    fn codec() -> Box<dyn PageCodec> {
        EccConfig::Bch { m: 4, t: 2 }.build().unwrap()
    }

    /// A 3×2×32 controller with every logical page holding an encoded
    /// seeded payload; returns the payloads for integrity checks.
    fn loaded_controller(codec: &dyn PageCodec) -> (FlashController, Vec<Vec<bool>>) {
        let mut c = FlashController::new(NandConfig {
            blocks: 3,
            pages_per_block: 2,
            page_width: 32,
        });
        let mut payloads = Vec::new();
        for lpn in 0..c.logical_capacity() {
            let data = PagePattern::Seeded { seed: lpn as u64 }.expand(codec.data_bits());
            write_encoded(&mut c, codec, lpn, &data).unwrap();
            payloads.push(data);
        }
        (c, payloads)
    }

    fn quiet_ber() -> BerModel {
        BerModel {
            read_noise_sigma: 0.02,
            ..BerModel::default()
        }
    }

    #[test]
    fn healthy_arrays_scrub_clean() {
        let codec = codec();
        let (mut c, _) = loaded_controller(codec.as_ref());
        let erases_before = c.wear_stats().unwrap().total_erases;
        let report = scrub(
            &mut c,
            codec.as_ref(),
            &quiet_ber(),
            &ScrubPolicy::default(),
            1,
        )
        .unwrap();
        assert_eq!(report.pages_scanned, 4);
        assert_eq!(report.pages_refreshed, 0);
        assert_eq!(report.pages_uncorrectable, 0);
        assert_eq!(report.decode.clean_pages, 4);
        // The reference re-centered into the window, not at a tail.
        assert!(report.reference > 0.3 && report.reference < 2.2);
        // No refresh traffic → no reclaim pressure.
        assert_eq!(c.wear_stats().unwrap().total_erases, erases_before);
    }

    #[test]
    fn degraded_pages_are_refreshed_through_the_controller() {
        let codec = codec();
        let (mut c, payloads) = loaded_controller(codec.as_ref());
        // Retention-style degradation: one stored-charge bit per page
        // decays toward the reference until its read flips.
        c.settle();
        for lpn in 0..c.logical_capacity() {
            let addr = c.physical_of(lpn).unwrap();
            let start = c.array().cell_index(addr.block, addr.page, 0);
            let pop = c.array().population();
            let victim = (start..start + 32)
                .find(|&i| pop.read(i).unwrap() == LogicState::Programmed0)
                .expect("every codeword programs some cell");
            let q = pop.charge(victim).unwrap().as_coulombs();
            c.population_mut()
                .set_charge(victim, Charge::from_coulombs(0.28 * q))
                .unwrap();
        }
        let policy = ScrubPolicy {
            corrected_bits_threshold: 1,
            reference: Some(1.0),
            ..ScrubPolicy::default()
        };
        let report = scrub(&mut c, codec.as_ref(), &quiet_ber(), &policy, 7).unwrap();
        assert_eq!(report.pages_scanned, 4);
        assert_eq!(report.pages_refreshed, 4, "{report:?}");
        assert!(report.decode.corrected_bits >= 4);
        assert_eq!(report.pages_uncorrectable, 0);
        // Refreshing 4 pages on a 6-page array forces reclaim — the
        // scrubber leans on the controller's reclaim machinery.
        let wear = c.wear_stats().unwrap();
        assert!(wear.total_erases > 0, "{wear:?}");
        // A second patrol sees fully-restored pages and the payloads
        // survived end to end.
        let second = scrub(&mut c, codec.as_ref(), &quiet_ber(), &policy, 8).unwrap();
        assert_eq!(second.decode.clean_pages, 4, "{second:?}");
        for (lpn, data) in payloads.iter().enumerate() {
            let bits = c.read_logical(lpn).unwrap();
            assert_eq!(
                &codec.extract(&bits[..codec.code_bits()]).unwrap(),
                data,
                "payload {lpn}"
            );
        }
    }

    #[test]
    fn retry_recovered_clean_pages_are_still_refreshed() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Fails the first decode it sees, then reports Clean: the first
        /// page scanned is "recovered by retry" without any correction.
        struct FlakyFirstRead(AtomicUsize);
        impl PageCodec for FlakyFirstRead {
            fn name(&self) -> String {
                "flaky-first-read".into()
            }
            fn code_bits(&self) -> usize {
                15
            }
            fn data_bits(&self) -> usize {
                7
            }
            fn correctable(&self) -> usize {
                2
            }
            fn encode(&self, data: &[bool]) -> crate::Result<Vec<bool>> {
                let mut word = data.to_vec();
                word.resize(15, false);
                Ok(word)
            }
            fn decode(&self, _word: &mut [bool]) -> crate::Result<DecodeOutcome> {
                if self.0.fetch_add(1, Ordering::SeqCst) == 0 {
                    Ok(DecodeOutcome::Detected)
                } else {
                    Ok(DecodeOutcome::Clean)
                }
            }
            fn extract(&self, word: &[bool]) -> crate::Result<Vec<bool>> {
                Ok(word[..7].to_vec())
            }
        }

        let (mut c, _) = loaded_controller(codec().as_ref());
        let flaky = FlakyFirstRead(AtomicUsize::new(0));
        let report = scrub(&mut c, &flaky, &quiet_ber(), &ScrubPolicy::default(), 3).unwrap();
        // Page one took a retry and decoded Clean — decayed cells read
        // marginally, so it must be rewritten even with nothing to
        // correct; the other pages decoded clean first try and stay put.
        assert_eq!(report.pages_recovered_by_retry, 1, "{report:?}");
        assert_eq!(report.pages_refreshed, 1, "{report:?}");
        assert_eq!(report.pages_uncorrectable, 0);
    }

    #[test]
    fn read_reclaim_escalation_relocates_the_whole_block() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// Fails the first decode it sees, then reports Clean — the
        /// first page scanned (lpn 0, on block 0) needs the retry
        /// ladder while every other page decodes clean first try.
        struct FlakyFirstRead(AtomicUsize);
        impl PageCodec for FlakyFirstRead {
            fn name(&self) -> String {
                "flaky-first-read".into()
            }
            fn code_bits(&self) -> usize {
                15
            }
            fn data_bits(&self) -> usize {
                7
            }
            fn correctable(&self) -> usize {
                2
            }
            fn encode(&self, data: &[bool]) -> crate::Result<Vec<bool>> {
                let mut word = data.to_vec();
                word.resize(15, false);
                Ok(word)
            }
            fn decode(&self, _word: &mut [bool]) -> crate::Result<DecodeOutcome> {
                if self.0.fetch_add(1, Ordering::SeqCst) == 0 {
                    Ok(DecodeOutcome::Detected)
                } else {
                    Ok(DecodeOutcome::Clean)
                }
            }
            fn extract(&self, word: &[bool]) -> crate::Result<Vec<bool>> {
                Ok(word[..7].to_vec())
            }
        }

        let (mut c, payloads) = loaded_controller(codec().as_ref());
        let block0 = c.physical_of(0).unwrap().block;
        let flaky = FlakyFirstRead(AtomicUsize::new(0));
        let policy = ScrubPolicy {
            read_reclaim_threshold: Some(1),
            ..ScrubPolicy::default()
        };
        let report = scrub(&mut c, &flaky, &quiet_ber(), &policy, 3).unwrap();
        // Only lpn 0 needed the ladder, but escalation drags its whole
        // block along: the healthy neighbour (lpn 1) relocates too.
        assert_eq!(report.pages_recovered_by_retry, 1, "{report:?}");
        assert_eq!(report.blocks_read_reclaimed, 1, "{report:?}");
        assert_eq!(report.pages_refreshed, 2, "{report:?}");
        assert_ne!(c.physical_of(0).unwrap().block, block0);
        assert_ne!(c.physical_of(1).unwrap().block, block0);
        // The relocated payloads survive bit-exact (BCH pages still
        // decode to the original data through the real codec).
        let real = codec();
        for (lpn, data) in payloads.iter().enumerate() {
            let bits = c.read_logical(lpn).unwrap();
            assert_eq!(
                &real.extract(&bits[..real.code_bits()]).unwrap(),
                data,
                "payload {lpn}"
            );
        }
    }

    #[test]
    fn oversized_codecs_are_rejected() {
        let small = codec();
        let (mut c, _) = loaded_controller(small.as_ref());
        let wide = EccConfig::Bch { m: 8, t: 2 }.build().unwrap();
        let ber = BerModel::default();
        assert!(matches!(
            scrub(&mut c, wide.as_ref(), &ber, &ScrubPolicy::default(), 0),
            Err(ReliabilityError::CodeTooWide { .. })
        ));
        let data = vec![true; wide.data_bits()];
        assert!(matches!(
            write_encoded(&mut c, wide.as_ref(), 0, &data),
            Err(ReliabilityError::CodeTooWide { .. })
        ));
    }
}
