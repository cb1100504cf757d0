//! Threshold-noise → raw bit-error-rate model.
//!
//! A read senses a cell's threshold against a reference voltage. The
//! margin analysis says how far each population sits from that
//! reference; this module turns distance into *error probability* by
//! sampling a per-read threshold perturbation on every cell:
//!
//! * a baseline Gaussian read noise (comparator noise, short-term RTN,
//!   cell-to-cell sensing variation folded into one 1σ knob);
//! * a wear-coupled component: the endurance model's trapped charge both
//!   *shifts* the sensed threshold (erased cells drift up faster than
//!   programmed ones, exactly as in [`gnr_flash_array::endurance`]) and
//!   *broadens* the noise (trap-induced RTN grows with fluence).
//!
//! Sampling is deterministic and batch-layout independent: every cell's
//! draw comes from its own generator seeded by an avalanche mix of
//! `(model seed, cell index, read pass)`, so a parallel chunked scan is
//! bit-identical to a sequential one, a window read agrees with the
//! full-array read at the same pass, and re-running a pass reproduces
//! the same errors exactly (pinned by `tests/ecc_reliability.rs`).

use gnr_flash::engine::BatchSimulator;
use gnr_flash::variation::standard_normal;
use gnr_flash_array::endurance::EnduranceModel;
use gnr_flash_array::population::CellPopulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The raw bit-error model over a population's analog state.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct BerModel {
    /// 1σ of the baseline per-read threshold noise (V).
    pub read_noise_sigma: f64,
    /// Extra noise σ per volt of trap-induced threshold offset — the
    /// wear-coupled RTN broadening.
    pub trap_noise_fraction: f64,
    /// The oxide-wear model coupling the injected-charge column to
    /// threshold offsets at read time.
    pub endurance: EnduranceModel,
    /// RNG seed; together with the cell index and read pass it fully
    /// determines every draw.
    pub seed: u64,
}

impl Default for BerModel {
    fn default() -> Self {
        Self {
            // Wide enough that a ~1 V margin sits at a few σ — the
            // regime where raw BER is measurable on million-cell arrays
            // (a 3.5σ margin ≈ 2×10⁻⁴) and ECC visibly earns its keep.
            read_noise_sigma: 0.30,
            trap_noise_fraction: 0.5,
            endurance: EnduranceModel::default(),
            seed: 0xb17e_5eed,
        }
    }
}

/// The SplitMix64 finalizer: the one avalanche every seed/lane
/// derivation in this crate goes through, so the determinism contract
/// (the pinned digest in `tests/ecc_reliability.rs`) has a single
/// implementation to drift.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-cell generator seed: [`splitmix64`] over `(seed, cell, pass)` —
/// cells and passes decorrelate regardless of how the scan is chunked.
fn cell_seed(seed: u64, cell: u64, pass: u64) -> u64 {
    splitmix64(
        seed ^ cell.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pass.wrapping_mul(0xd134_2543_de82_ef95),
    )
}

/// Precomputed per-cell read state: the sensed threshold (stored charge
/// plus wear-coupled trap offset) and the per-cell noise σ. Built once
/// per array state, then sampled any number of times (passes, retries,
/// window reads) without touching the population again.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadContext {
    /// Sensed (noise-free) threshold per cell (V).
    pub effective_vt: Vec<f64>,
    /// Per-cell noise 1σ (V).
    pub sigma: Vec<f64>,
    seed: u64,
}

impl ReadContext {
    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.effective_vt.len()
    }

    /// `true` for an empty context.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.effective_vt.is_empty()
    }

    /// The sampled read decision of cell `i` at `reference` volts on
    /// read pass `pass`.
    #[must_use]
    pub fn sample_bit(&self, i: usize, reference: f64, pass: u64) -> bool {
        let mut rng = StdRng::seed_from_u64(cell_seed(self.seed, i as u64, pass));
        self.effective_vt[i] + self.sigma[i] * standard_normal(&mut rng) <= reference
    }

    /// Samples a read of cells `start..start + len` (one page of a retry
    /// or scrub scan). Per-cell seeding keys on the absolute index, so a
    /// window read at pass `p` returns exactly the bits a full-array
    /// read at pass `p` would return for those cells.
    #[must_use]
    pub fn sample_window(&self, reference: f64, pass: u64, start: usize, len: usize) -> Vec<bool> {
        (start..start + len)
            .map(|i| self.sample_bit(i, reference, pass))
            .collect()
    }

    /// Samples one full read at `reference` volts, fanned out over
    /// `batch` in deterministic chunks.
    #[must_use]
    pub fn sample_all(&self, batch: &BatchSimulator, reference: f64, pass: u64) -> Vec<bool> {
        let mut bits = vec![false; self.len()];
        let chunk = 16 * 1024;
        batch.for_each_chunk_mut(&mut bits, chunk, |start, slice| {
            for (offset, bit) in slice.iter_mut().enumerate() {
                *bit = self.sample_bit(start + offset, reference, pass);
            }
        });
        bits
    }
}

impl BerModel {
    /// Builds the per-cell read state of a population: effective
    /// thresholds and noise widths, column-vectorised over `batch`.
    #[must_use]
    pub fn context(&self, pop: &CellPopulation, batch: &BatchSimulator) -> ReadContext {
        let mut vt = pop.vt_shift_column(batch);
        let cfc = pop.cfc_column(batch);
        let fluence = pop.injected_charge_column();
        let decision = pop.decision_level().as_volts();
        let fraction = self.endurance.programmed_state_fraction;
        let mut sigma = vec![0.0f64; pop.len()];
        let chunk = 16 * 1024;
        batch.for_each_chunk_mut(&mut sigma, chunk, |start, slice| {
            for (offset, s) in slice.iter_mut().enumerate() {
                let i = start + offset;
                let trap = -(self.endurance.trapped_charge(fluence[i]).as_coulombs() / cfc[i]);
                let wear = self.trap_noise_fraction * trap;
                *s = (self.read_noise_sigma * self.read_noise_sigma + wear * wear).sqrt();
            }
        });
        batch.for_each_chunk_mut(&mut vt, chunk, |start, slice| {
            for (offset, v) in slice.iter_mut().enumerate() {
                let i = start + offset;
                let trap = -(self.endurance.trapped_charge(fluence[i]).as_coulombs() / cfc[i]);
                // The erased population drifts up at full strength, the
                // programmed one at the endurance model's fraction — the
                // window-closing asymmetry.
                let weight = if *v > decision { fraction } else { 1.0 };
                *v += weight * trap;
            }
        });
        ReadContext {
            effective_vt: vt,
            sigma,
            seed: self.seed,
        }
    }

    /// The stored data as an ideal (noiseless) read at the population's
    /// own decision level would return it — the ground truth raw-BER
    /// comparisons run against. Bit `true` = erased = logic '1'.
    #[must_use]
    pub fn noiseless_bits(&self, pop: &CellPopulation, batch: &BatchSimulator) -> Vec<bool> {
        let decision = pop.decision_level().as_volts();
        pop.vt_shift_column(batch)
            .iter()
            .map(|&v| v <= decision)
            .collect()
    }

    /// One full sampled read of the population (convenience for
    /// [`BerModel::context`] + [`ReadContext::sample_all`]).
    #[must_use]
    pub fn sample_read_bits(
        &self,
        pop: &CellPopulation,
        batch: &BatchSimulator,
        reference: f64,
        pass: u64,
    ) -> Vec<bool> {
        self.context(pop, batch).sample_all(batch, reference, pass)
    }

    /// Counts mismatches between a truth column and a sampled read,
    /// reduced deterministically over batch chunks.
    ///
    /// # Panics
    ///
    /// Panics when the columns disagree in length.
    #[must_use]
    pub fn count_errors(truth: &[bool], read: &[bool], batch: &BatchSimulator) -> usize {
        assert_eq!(truth.len(), read.len(), "column lengths must match");
        batch
            .map_chunks(truth.len(), 64 * 1024, |start, len| {
                (start..start + len)
                    .filter(|&i| truth[i] != read[i])
                    .count()
            })
            .into_iter()
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnr_flash_array::ispp::IsppProgrammer;

    fn programmed_population() -> CellPopulation {
        let mut pop = CellPopulation::paper(64);
        let programmer = IsppProgrammer::nominal();
        let indices: Vec<usize> = (0..32).collect();
        let _ = pop.program_cells(&programmer, &indices, &BatchSimulator::sequential());
        pop
    }

    #[test]
    fn sampling_is_deterministic_and_layout_independent() {
        let pop = programmed_population();
        // σ large enough that passes visibly disagree on 64 cells.
        let model = BerModel {
            read_noise_sigma: 1.0,
            ..BerModel::default()
        };
        let reference = pop.decision_level().as_volts();
        let parallel = model.sample_read_bits(&pop, &BatchSimulator::new(), reference, 3);
        let sequential = model.sample_read_bits(&pop, &BatchSimulator::sequential(), reference, 3);
        assert_eq!(parallel, sequential);
        // A different pass draws different noise.
        let other = model.sample_read_bits(&pop, &BatchSimulator::new(), reference, 4);
        assert_ne!(parallel, other);
    }

    #[test]
    fn window_reads_agree_with_full_reads() {
        let pop = programmed_population();
        let model = BerModel::default();
        let batch = BatchSimulator::new();
        let ctx = model.context(&pop, &batch);
        let reference = pop.decision_level().as_volts();
        let full = ctx.sample_all(&batch, reference, 7);
        let window = ctx.sample_window(reference, 7, 16, 24);
        assert_eq!(window, &full[16..40]);
    }

    #[test]
    fn zero_noise_reads_are_exact() {
        let pop = programmed_population();
        let model = BerModel {
            read_noise_sigma: 0.0,
            trap_noise_fraction: 0.0,
            ..BerModel::default()
        };
        let batch = BatchSimulator::new();
        let truth = model.noiseless_bits(&pop, &batch);
        let read = model.sample_read_bits(&pop, &batch, pop.decision_level().as_volts(), 0);
        assert_eq!(BerModel::count_errors(&truth, &read, &batch), 0);
        // Programmed cells read '0', fresh cells '1'.
        assert!(!truth[0] && truth[40]);
    }

    #[test]
    fn noise_produces_errors_at_tight_margins() {
        let pop = programmed_population();
        let model = BerModel {
            read_noise_sigma: 1.5,
            ..BerModel::default()
        };
        let batch = BatchSimulator::new();
        let truth = model.noiseless_bits(&pop, &batch);
        let read = model.sample_read_bits(&pop, &batch, pop.decision_level().as_volts(), 0);
        assert!(BerModel::count_errors(&truth, &read, &batch) > 0);
    }

    #[test]
    fn wear_raises_the_erased_population_faster() {
        let mut pop = programmed_population();
        let model = BerModel::default();
        let batch = BatchSimulator::new();
        let fresh = model.context(&pop, &batch);
        // A heavy synthetic fluence on every cell: erased cells (full
        // offset) must rise ~2× faster than programmed ones (half), and
        // the per-cell noise must broaden.
        let all: Vec<usize> = (0..pop.len()).collect();
        pop.add_injected_charge(&all, 2.0e-14);
        let worn = model.context(&pop, &batch);
        let erased_rise = worn.effective_vt[40] - fresh.effective_vt[40];
        let programmed_rise = worn.effective_vt[0] - fresh.effective_vt[0];
        assert!(erased_rise > 0.0);
        assert!(programmed_rise > 0.0);
        assert!(erased_rise > 1.9 * programmed_rise);
        assert!(worn.sigma[40] > fresh.sigma[40]);
    }
}
