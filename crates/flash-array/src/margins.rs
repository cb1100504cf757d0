//! Array-level threshold-distribution and read-margin analysis.
//!
//! A single cell has a clean window; an *array* has distributions — of
//! programmed and erased thresholds, smeared by disturb history. The read
//! margin is the gap between the lowest programmed and the highest erased
//! threshold; sensing fails when it closes. This module extracts those
//! statistics from a [`NandArray`].

use gnr_flash::threshold::LogicState;
use gnr_numerics::stats::{Histogram, Summary};

use crate::nand::NandArray;
use crate::Result;

/// Threshold statistics of one logic population in the array.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PopulationStats {
    /// Number of cells in the population.
    pub count: usize,
    /// Threshold summary (V).
    pub vt: Summary,
}

/// The array margin report.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MarginReport {
    /// Programmed ('0') population, when non-empty.
    pub programmed: Option<PopulationStats>,
    /// Erased ('1') population, when non-empty.
    pub erased: Option<PopulationStats>,
    /// Worst-case read margin: `min(programmed VT) − max(erased VT)` (V);
    /// `None` unless both populations exist.
    pub worst_case_margin: Option<f64>,
}

impl MarginReport {
    /// `true` when both populations exist and the margin exceeds
    /// `required` volts.
    #[must_use]
    pub fn is_readable(&self, required: f64) -> bool {
        self.worst_case_margin.is_some_and(|m| m > required)
    }
}

/// Scans every cell of the array and builds the margin report.
///
/// Reads the struct-of-arrays columns directly (one ΔVT column sweep
/// fanned out over the array's batch executor) — no per-cell device
/// clones, so the scan stays cheap on million-cell arrays.
///
/// # Errors
///
/// Propagates statistics errors for pathological (empty) arrays.
pub fn analyze(array: &NandArray) -> Result<MarginReport> {
    let pop = array.population();
    let shifts = pop.vt_shift_column(array.batch());
    let mut programmed = Vec::new();
    let mut erased = Vec::new();
    for (i, &vt) in shifts.iter().enumerate() {
        match pop.read(i)? {
            LogicState::Programmed0 => programmed.push(vt),
            LogicState::Erased1 => erased.push(vt),
        }
    }
    let stats = |v: &[f64]| -> Result<Option<PopulationStats>> {
        if v.is_empty() {
            return Ok(None);
        }
        Ok(Some(PopulationStats {
            count: v.len(),
            vt: Summary::from_samples(v).map_err(gnr_flash::DeviceError::from)?,
        }))
    };
    let programmed_stats = stats(&programmed)?;
    let erased_stats = stats(&erased)?;
    let margin = match (&programmed_stats, &erased_stats) {
        (Some(p), Some(e)) => Some(p.vt.min - e.vt.max),
        _ => None,
    };
    Ok(MarginReport {
        programmed: programmed_stats,
        erased: erased_stats,
        worst_case_margin: margin,
    })
}

/// Threshold histogram of every cell in the array (for VT-distribution
/// plots), over `[lo, hi]` volts with `bins` bins. Column scan — no
/// per-cell materialisation.
///
/// # Errors
///
/// Propagates histogram-construction errors for invalid ranges.
pub fn vt_histogram(array: &NandArray, lo: f64, hi: f64, bins: usize) -> Result<Histogram> {
    let samples = array.population().vt_shift_column(array.batch());
    Histogram::new(&samples, lo, hi, bins).map_err(|e| gnr_flash::DeviceError::from(e).into())
}

/// FNV-1a digest over the bit patterns of the array's full ΔVT column —
/// the cheap state fingerprint multi-plane parity checks compare (used
/// by `tests/pe_scheduler.rs` and asserted by the `pe_scheduler` bench
/// on every run, CI smoke included).
#[must_use]
pub fn state_digest(array: &NandArray) -> u64 {
    use gnr_numerics::hash::{fnv1a_fold_f64, FNV1A_OFFSET};
    array
        .population()
        .vt_shift_column(array.batch())
        .into_iter()
        .fold(FNV1A_OFFSET, fnv1a_fold_f64)
}

/// The deepest valley of a (bimodal) threshold histogram: the bin center
/// minimising counts strictly *between* the two tallest genuinely
/// distinct modes — the reference voltage a re-centering read path
/// should sense at. Returns `None` for unimodal or empty histograms (no
/// valley to sit in).
///
/// Mode selection is deliberately conservative: the second mode must be
/// a *local* maximum (a tall peak's shoulder is monotone and never
/// qualifies), sit more than one bin from the first, carry at least 5 %
/// of the first mode's count (a handful of outlier cells is a tail, not
/// a population), and the gap between the modes must dip strictly below
/// the smaller one.
#[must_use]
pub fn decision_valley(h: &Histogram) -> Option<f64> {
    let counts = h.counts();
    let is_local_max = |i: usize| {
        counts[i] > 0
            && (i == 0 || counts[i] >= counts[i - 1])
            && (i + 1 == counts.len() || counts[i] >= counts[i + 1])
    };
    let (first, &first_count) = counts
        .iter()
        .enumerate()
        .max_by_key(|&(i, &c)| (c, core::cmp::Reverse(i)))?;
    let (second, &second_count) = counts
        .iter()
        .enumerate()
        .filter(|&(i, _)| i.abs_diff(first) > 1 && is_local_max(i))
        .max_by_key(|&(i, &c)| (c, core::cmp::Reverse(i)))?;
    if second_count == 0 || 20 * second_count < first_count {
        return None;
    }
    let (lo, hi) = (first.min(second), first.max(second));
    let min_count = (lo + 1..hi).map(|i| counts[i]).min()?;
    if min_count >= second_count {
        return None; // no dip between the "modes": one sloped population
    }
    // The middle of the flattest stretch between the modes: a reference
    // centred in the gap, not hugging one population's tail. Tie bins can
    // appear in several disjoint runs (equal dips with a bump between);
    // the reference sits at the midpoint of the *longest contiguous* run
    // of minimum-count bins — `(first + last) / 2` of its bin centers, so
    // an even-length flat stretch centres exactly between its two middle
    // bins instead of snapping to the right one of them.
    let ties: Vec<usize> = (lo + 1..hi).filter(|&i| counts[i] == min_count).collect();
    let mut best = (ties[0], ties[0]);
    let mut run = (ties[0], ties[0]);
    for &i in &ties[1..] {
        if i == run.1 + 1 {
            run.1 = i;
        } else {
            run = (i, i);
        }
        if run.1 - run.0 > best.1 - best.0 {
            best = run;
        }
    }
    Some(0.5 * (h.bin_center(best.0) + h.bin_center(best.1)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nand::NandConfig;

    fn half_programmed_array() -> NandArray {
        let mut array = NandArray::new(NandConfig {
            blocks: 1,
            pages_per_block: 2,
            page_width: 8,
        });
        // Alternate bits on page 0; page 1 stays erased.
        let bits: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
        array.program_page(0, 0, &bits).unwrap();
        array.settle();
        array
    }

    #[test]
    fn populations_are_counted_correctly() {
        let array = half_programmed_array();
        let report = analyze(&array).unwrap();
        let p = report.programmed.unwrap();
        let e = report.erased.unwrap();
        assert_eq!(p.count, 4); // half of page 0
        assert_eq!(e.count, 12); // other half + page 1
    }

    #[test]
    fn margin_is_open_after_ispp_programming() {
        let array = half_programmed_array();
        let report = analyze(&array).unwrap();
        let margin = report.worst_case_margin.unwrap();
        assert!(margin > 0.5, "margin = {margin} V");
        assert!(report.is_readable(0.5));
        assert!(!report.is_readable(margin + 1.0));
    }

    #[test]
    fn fresh_array_has_single_population() {
        let array = NandArray::new(NandConfig {
            blocks: 1,
            pages_per_block: 1,
            page_width: 4,
        });
        let report = analyze(&array).unwrap();
        assert!(report.programmed.is_none());
        assert!(report.erased.is_some());
        assert!(report.worst_case_margin.is_none());
        assert!(!report.is_readable(0.0));
    }

    #[test]
    fn valley_sits_between_the_two_populations() {
        let array = half_programmed_array();
        let h = vt_histogram(&array, -1.0, 4.0, 50).unwrap();
        let valley = decision_valley(&h).unwrap();
        // Between the erased mode (~0 V) and the programmed mode (~2.3 V).
        assert!(valley > 0.3 && valley < 2.2, "valley = {valley} V");
    }

    /// Samples placed exactly on the centers of 0.1 V bins over [0, 5):
    /// `(center, count)` pairs give full control of the histogram shape.
    fn synthetic_histogram(spec: &[(f64, usize)]) -> Histogram {
        let mut samples = Vec::new();
        for &(center, count) in spec {
            samples.extend((0..count).map(|_| center));
        }
        Histogram::new(&samples, 0.0, 5.0, 50).unwrap()
    }

    #[test]
    fn imbalanced_modes_still_get_a_centred_valley() {
        // 87 % programmed in a peaked mode around 2.45 V with broad
        // monotone shoulders, 13 % erased at 0.05 V: the second mode
        // must be the minority *population*, not the majority's flank.
        let h = synthetic_histogram(&[
            (0.05, 100),
            (2.05, 40),
            (2.15, 80),
            (2.25, 120),
            (2.35, 200),
            (2.45, 120),
            (2.55, 80),
            (2.65, 40),
        ]);
        let valley = decision_valley(&h).unwrap();
        assert!(valley > 0.3 && valley < 1.9, "valley = {valley} V");
    }

    #[test]
    fn symmetric_two_mode_histogram_centres_exactly() {
        // Regression: the old `ties[ties.len() / 2]` pick lands one bin
        // right of centre for even-length flat stretches. Two equal
        // modes at 1.05 V and 3.95 V leave an even run of empty gap bins
        // whose exact middle is 2.50 V — pin it to the bin-width scale.
        let h = synthetic_histogram(&[(1.05, 100), (3.95, 100)]);
        let valley = decision_valley(&h).unwrap();
        assert!(
            (valley - 2.5).abs() < 1e-12,
            "valley = {valley} V, expected the exact gap centre 2.5 V"
        );
        // A shifted pair keeps the property: the valley is the exact
        // midpoint of the two modes wherever the gap sits.
        let shifted = synthetic_histogram(&[(0.75, 100), (3.05, 100)]);
        let shifted_valley = decision_valley(&shifted).unwrap();
        assert!(
            (shifted_valley - 1.9).abs() < 1e-12,
            "valley = {shifted_valley} V, expected 1.9 V"
        );
    }

    #[test]
    fn equal_dips_prefer_the_longest_flat_stretch() {
        // Every bin between the modes is populated; two disjoint runs
        // share the minimum count 10 — a short one (0.75–0.85) and a
        // long one (1.05–1.25). The reference must sit at the centre of
        // the longest run, not at an index-midpoint across both runs.
        let h = synthetic_histogram(&[
            (0.25, 200),
            (0.35, 20),
            (0.45, 20),
            (0.55, 20),
            (0.65, 20),
            (0.75, 10),
            (0.85, 10),
            (0.95, 20),
            (1.05, 10),
            (1.15, 10),
            (1.25, 10),
            (1.35, 20),
            (1.45, 20),
            (1.55, 20),
            (1.65, 180),
        ]);
        let valley = decision_valley(&h).unwrap();
        assert!(
            (valley - 1.15).abs() < 1e-12,
            "valley = {valley} V, expected the long stretch centre 1.15 V"
        );
    }

    #[test]
    fn outlier_blips_are_a_tail_not_a_mode() {
        // A peaked majority plus 5 stray cells: below the 5 % prominence
        // bar, so no valley — the reference must not chase outliers.
        let h = synthetic_histogram(&[(0.05, 5), (2.25, 120), (2.35, 200), (2.45, 120)]);
        assert_eq!(decision_valley(&h), None);
    }

    #[test]
    fn unimodal_histograms_have_no_valley() {
        let array = NandArray::new(NandConfig {
            blocks: 1,
            pages_per_block: 2,
            page_width: 8,
        });
        let h = vt_histogram(&array, -1.0, 4.0, 50).unwrap();
        assert_eq!(decision_valley(&h), None);
    }

    #[test]
    fn histogram_is_bimodal_after_programming() {
        let array = half_programmed_array();
        let h = vt_histogram(&array, -1.0, 4.0, 10).unwrap();
        assert_eq!(h.total(), 16);
        // Mass near 0 V (erased) and near the ISPP target ~2.3 V.
        let counts = h.counts();
        let low_mass: usize = counts[..4].iter().sum();
        let high_mass: usize = counts[5..].iter().sum();
        assert!(low_mass >= 12, "low bins {counts:?}");
        assert!(high_mass >= 4, "high bins {counts:?}");
    }
}
