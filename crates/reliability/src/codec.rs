//! The shared page-codec interface, codec selection and per-page
//! syndrome statistics.
//!
//! Every codec of the pipeline — [`crate::hamming::HammingSecDed`], the
//! configurable [`crate::bch::BchCode`] and the pass-through [`NoEcc`]
//! baseline — presents the same [`PageCodec`] surface: encode `k` data
//! bits into an `n`-bit codeword that is stored as one page (plus
//! padding), and decode a received word in place, reporting what the
//! syndromes said. [`DecodeStats`] aggregates those outcomes per page so
//! reports can separate clean, corrected and uncorrectable traffic.

use crate::{ReliabilityError, Result};

/// What one page decode concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// All syndromes zero — the word is a codeword.
    Clean,
    /// Errors found and corrected in place (the count).
    Corrected(usize),
    /// Errors found but beyond the codec's strength; the word is left
    /// as received.
    Detected,
}

/// A block code operating on page-sized codewords.
pub trait PageCodec: Send + Sync {
    /// Human-readable codec name, e.g. `bch(255,223,t=4)`.
    fn name(&self) -> String;

    /// Codeword length `n` in bits.
    fn code_bits(&self) -> usize;

    /// Payload length `k` in bits.
    fn data_bits(&self) -> usize;

    /// Guaranteed correctable errors per codeword (`t`).
    fn correctable(&self) -> usize;

    /// Encodes `k` data bits into an `n`-bit codeword.
    ///
    /// # Errors
    ///
    /// [`ReliabilityError::WrongLength`] for a bad buffer.
    fn encode(&self, data: &[bool]) -> Result<Vec<bool>>;

    /// Decodes an `n`-bit received word in place.
    ///
    /// # Errors
    ///
    /// [`ReliabilityError::WrongLength`] for a bad buffer.
    fn decode(&self, word: &mut [bool]) -> Result<DecodeOutcome>;

    /// Extracts the `k` data bits from a (decoded) codeword.
    ///
    /// # Errors
    ///
    /// [`ReliabilityError::WrongLength`] for a bad buffer.
    fn extract(&self, word: &[bool]) -> Result<Vec<bool>>;

    /// Code rate `k / n`.
    #[allow(clippy::cast_precision_loss)]
    fn rate(&self) -> f64 {
        self.data_bits() as f64 / self.code_bits() as f64
    }
}

/// The pass-through baseline: every bit is payload, nothing is
/// corrected — raw BER *is* the output error rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoEcc {
    bits: usize,
}

impl NoEcc {
    /// A pass-through "codec" of `bits` bits.
    #[must_use]
    pub fn new(bits: usize) -> Self {
        Self { bits }
    }
}

impl PageCodec for NoEcc {
    fn name(&self) -> String {
        "raw".into()
    }
    fn code_bits(&self) -> usize {
        self.bits
    }
    fn data_bits(&self) -> usize {
        self.bits
    }
    fn correctable(&self) -> usize {
        0
    }
    fn encode(&self, data: &[bool]) -> Result<Vec<bool>> {
        if data.len() != self.bits {
            return Err(ReliabilityError::WrongLength {
                what: "data",
                got: data.len(),
                expected: self.bits,
            });
        }
        Ok(data.to_vec())
    }
    fn decode(&self, word: &mut [bool]) -> Result<DecodeOutcome> {
        if word.len() != self.bits {
            return Err(ReliabilityError::WrongLength {
                what: "codeword",
                got: word.len(),
                expected: self.bits,
            });
        }
        Ok(DecodeOutcome::Clean)
    }
    fn extract(&self, word: &[bool]) -> Result<Vec<bool>> {
        Ok(word.to_vec())
    }
}

/// Serializable codec selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum EccConfig {
    /// No correction: the raw baseline over `bits` bits.
    None {
        /// Bits per page treated as payload.
        bits: usize,
    },
    /// Hamming SEC-DED carrying `data_bits` of payload.
    HammingSecDed {
        /// Payload bits per codeword.
        data_bits: usize,
    },
    /// Binary BCH over GF(2^m) correcting `t` errors per codeword.
    Bch {
        /// Field degree: codeword length is `2^m − 1`.
        m: u32,
        /// Correction strength.
        t: usize,
    },
}

impl EccConfig {
    /// Builds the configured codec.
    ///
    /// # Errors
    ///
    /// [`ReliabilityError::InvalidCode`] for unusable parameters.
    pub fn build(&self) -> Result<Box<dyn PageCodec>> {
        Ok(match *self {
            Self::None { bits } => Box::new(NoEcc::new(bits)),
            Self::HammingSecDed { data_bits } => {
                Box::new(crate::hamming::HammingSecDed::new(data_bits)?)
            }
            Self::Bch { m, t } => Box::new(crate::bch::BchCode::new(m, t)?),
        })
    }

    /// The widest BCH codeword fitting `width` bits (`n = 2^m − 1 ≤
    /// width`), at strength `t`.
    ///
    /// # Errors
    ///
    /// [`ReliabilityError::InvalidCode`] when no supported field fits or
    /// `t` eats the whole payload.
    pub fn bch_for_width(width: usize, t: usize) -> Result<Self> {
        let m = (3..=12u32)
            .rev()
            .find(|&m| (1usize << m) - 1 <= width)
            .ok_or_else(|| ReliabilityError::InvalidCode {
                reason: format!("no BCH codeword fits a {width}-bit page"),
            })?;
        // Validate the strength up front so the config is usable as-is.
        crate::bch::BchCode::new(m, t)?;
        Ok(Self::Bch { m, t })
    }
}

// The serde shim derives no tuple variants, so `Corrected(bits)`
// serializes by hand.
impl serde::Serialize for DecodeOutcome {
    fn to_value(&self) -> serde::Value {
        let outcome = |name: &str| ("outcome".to_string(), serde::Value::String(name.into()));
        serde::Value::Object(match *self {
            Self::Clean => vec![outcome("clean")],
            Self::Corrected(bits) => vec![
                outcome("corrected"),
                ("bits".to_string(), serde::Serialize::to_value(&bits)),
            ],
            Self::Detected => vec![outcome("detected")],
        })
    }
}

/// Aggregated per-page decode statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct DecodeStats {
    /// Pages decoded.
    pub pages: usize,
    /// Pages with all-zero syndromes.
    pub clean_pages: usize,
    /// Pages corrected in place.
    pub corrected_pages: usize,
    /// Total bits corrected across all pages.
    pub corrected_bits: usize,
    /// Pages whose errors exceeded the codec strength.
    pub uncorrectable_pages: usize,
}

impl DecodeStats {
    /// Folds one page outcome into the statistics.
    pub fn record(&mut self, outcome: DecodeOutcome) {
        self.pages += 1;
        match outcome {
            DecodeOutcome::Clean => self.clean_pages += 1,
            DecodeOutcome::Corrected(bits) => {
                self.corrected_pages += 1;
                self.corrected_bits += bits;
            }
            DecodeOutcome::Detected => self.uncorrectable_pages += 1,
        }
    }

    /// Fraction of pages that could not be corrected.
    #[allow(clippy::cast_precision_loss)]
    #[must_use]
    pub fn page_failure_rate(&self) -> f64 {
        if self.pages == 0 {
            0.0
        } else {
            self.uncorrectable_pages as f64 / self.pages as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_ecc_is_transparent() {
        let codec = NoEcc::new(8);
        let data = vec![true, false, true, false, true, true, false, false];
        let word = codec.encode(&data).unwrap();
        assert_eq!(word, data);
        let mut received = word;
        assert_eq!(codec.decode(&mut received).unwrap(), DecodeOutcome::Clean);
        assert_eq!(codec.extract(&received).unwrap(), data);
        assert_eq!(codec.rate(), 1.0);
        assert!(codec.encode(&[true]).is_err());
    }

    #[test]
    fn configs_build_their_codecs() {
        assert_eq!(EccConfig::None { bits: 4 }.build().unwrap().name(), "raw");
        let h = EccConfig::HammingSecDed { data_bits: 11 }.build().unwrap();
        assert_eq!(h.code_bits(), 16);
        let b = EccConfig::Bch { m: 4, t: 2 }.build().unwrap();
        assert_eq!(b.code_bits(), 15);
        assert!(EccConfig::Bch { m: 99, t: 1 }.build().is_err());
    }

    #[test]
    fn bch_width_fitting_picks_the_largest_field() {
        assert_eq!(
            EccConfig::bch_for_width(256, 4).unwrap(),
            EccConfig::Bch { m: 8, t: 4 }
        );
        assert_eq!(
            EccConfig::bch_for_width(16, 2).unwrap(),
            EccConfig::Bch { m: 4, t: 2 }
        );
        assert!(EccConfig::bch_for_width(4, 1).is_err());
    }

    #[test]
    fn stats_aggregate_outcomes() {
        let mut stats = DecodeStats::default();
        stats.record(DecodeOutcome::Clean);
        stats.record(DecodeOutcome::Corrected(3));
        stats.record(DecodeOutcome::Detected);
        stats.record(DecodeOutcome::Detected);
        assert_eq!(stats.pages, 4);
        assert_eq!(stats.corrected_bits, 3);
        assert_eq!(stats.page_failure_rate(), 0.5);
        assert_eq!(DecodeStats::default().page_failure_rate(), 0.0);
    }
}
