//! Summary statistics and histograms for Monte-Carlo variation studies.
//!
//! # Example
//!
//! ```
//! use gnr_numerics::stats::Summary;
//!
//! let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
//! assert_eq!(s.mean, 3.0);
//! assert_eq!(s.median, 3.0);
//! ```

use crate::{NumericsError, Result};

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased (n−1) standard deviation; 0 for a single sample.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 5th percentile.
    pub p05: f64,
    /// 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Computes summary statistics.
    ///
    /// # Errors
    ///
    /// [`NumericsError::InvalidInput`] for an empty sample or non-finite
    /// values.
    pub fn from_samples(samples: &[f64]) -> Result<Self> {
        if samples.is_empty() {
            return Err(NumericsError::InvalidInput("empty sample".into()));
        }
        if samples.iter().any(|v| !v.is_finite()) {
            return Err(NumericsError::InvalidInput("samples must be finite".into()));
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            samples
                .iter()
                .map(|&x| (x - mean) * (x - mean))
                .sum::<f64>()
                / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Ok(Self {
            count: n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            median: percentile_sorted(&sorted, 50.0),
            p05: percentile_sorted(&sorted, 5.0),
            p95: percentile_sorted(&sorted, 95.0),
        })
    }
}

/// Linear-interpolation percentile of an already sorted slice.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `[0, 100]`.
#[must_use]
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!(
        (0.0..=100.0).contains(&p),
        "percentile must be within [0, 100]"
    );
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// A fixed-width histogram.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
}

impl Histogram {
    /// Builds a histogram of `samples` with `bins` equal-width bins over
    /// `[lo, hi]`; out-of-range samples clamp to the edge bins.
    ///
    /// # Errors
    ///
    /// [`NumericsError::InvalidInput`] when `bins == 0` or `lo >= hi`.
    pub fn new(samples: &[f64], lo: f64, hi: f64, bins: usize) -> Result<Self> {
        if bins == 0 {
            return Err(NumericsError::InvalidInput("need at least one bin".into()));
        }
        if !(lo < hi) {
            return Err(NumericsError::InvalidInput(format!(
                "histogram range [{lo}, {hi}] must be increasing"
            )));
        }
        let mut counts = vec![0usize; bins];
        let width = (hi - lo) / bins as f64;
        for &s in samples {
            let idx = (((s - lo) / width).floor() as i64).clamp(0, bins as i64 - 1) as usize;
            counts[idx] += 1;
        }
        Ok(Self { lo, hi, counts })
    }

    /// Per-bin counts.
    #[must_use]
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Center of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    #[must_use]
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * width
    }

    /// Total number of counted samples.
    #[must_use]
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Unbiased std dev of this classic sample is sqrt(32/7).
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::from_samples(&[42.0]).unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 42.0);
        assert_eq!(s.p05, 42.0);
    }

    #[test]
    fn summary_rejects_nan() {
        assert!(Summary::from_samples(&[1.0, f64::NAN]).is_err());
        assert!(Summary::from_samples(&[]).is_err());
    }

    #[test]
    fn percentile_interpolates() {
        let sorted = [0.0, 10.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(percentile_sorted(&sorted, 50.0), 5.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 10.0);
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let h = Histogram::new(&[-1.0, 0.1, 0.5, 0.9, 2.0], 0.0, 1.0, 2).unwrap();
        assert_eq!(h.counts(), &[2, 3]); // -1.0 clamps left; 0.5 lands in the right bin; 2.0 clamps right
        assert_eq!(h.total(), 5);
        assert!((h.bin_center(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn histogram_rejects_bad_range() {
        assert!(Histogram::new(&[1.0], 1.0, 1.0, 4).is_err());
        assert!(Histogram::new(&[1.0], 0.0, 1.0, 0).is_err());
    }
}
