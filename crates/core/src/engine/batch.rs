//! Rayon fan-out of independent charge-balance runs.
//!
//! A NAND page program, a block erase, an ISPP ladder per cell, a
//! `t_sat(VGS)` sweep — all are embarrassingly parallel collections of
//! independent transients. [`BatchSimulator`] fans them out across
//! cores while sharing the process-wide `J(E)` table cache, and its
//! output order always matches input order, so a batched run is
//! bit-identical to the equivalent sequential loop (asserted by
//! `tests/batch_parity.rs`).

use rayon::prelude::*;

use crate::backend::BackendKind;
use crate::device::FloatingGateTransistor;
use crate::transient::{ProgramPulseSpec, TransientResult};
use crate::Result;

use super::{ChargeBalanceEngine, EngineMode};

/// Fan-out executor for independent simulation work.
///
/// Construction is cheap; the expensive state (the `J(E)` tables) lives
/// in the process-wide cache and is shared by every batch and thread.
#[derive(Debug, Clone)]
pub struct BatchSimulator {
    parallel: bool,
    mode: EngineMode,
}

impl Default for BatchSimulator {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchSimulator {
    /// A parallel batch simulator with the engine's default tolerances.
    #[must_use]
    pub fn new() -> Self {
        Self {
            parallel: true,
            mode: EngineMode::default(),
        }
    }

    /// Forces sequential execution (parity testing, profiling baselines).
    #[must_use]
    pub fn sequential() -> Self {
        Self {
            parallel: false,
            mode: EngineMode::default(),
        }
    }

    /// Selects the pulse-query mode ([`EngineMode`]) of every engine
    /// this batch builds — [`EngineMode::Exact`] is the whole-array
    /// escape hatch for flow-map cross-checks.
    #[must_use]
    pub fn with_mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// The pulse-query mode this batch's engines run in.
    #[must_use]
    pub fn mode(&self) -> EngineMode {
        self.mode
    }

    /// Builds the engine this batch would use for `device`, with every
    /// configured override applied. Consumers that fan out stateful work
    /// (the ISPP ladders) build one engine per unit of work through this
    /// so the batch configuration reaches every transient.
    #[must_use]
    pub fn engine_for(&self, device: &FloatingGateTransistor) -> ChargeBalanceEngine {
        self.engine_for_kind(BackendKind::GnrFloatingGate, device)
    }

    /// [`Self::engine_for`] under an explicit floating-gate backend —
    /// the array layer routes its per-variant engine construction here
    /// so a CNT population never shares a cache entry with a GNR one.
    #[must_use]
    pub fn engine_for_kind(
        &self,
        kind: BackendKind,
        device: &FloatingGateTransistor,
    ) -> ChargeBalanceEngine {
        ChargeBalanceEngine::new_for(kind, device).with_mode(self.mode)
    }

    /// Runs every spec against one shared device, in input order.
    ///
    /// Each element of the output corresponds to the spec at the same
    /// index; failures are per-spec, not batch-wide.
    #[must_use]
    pub fn run(
        &self,
        device: &FloatingGateTransistor,
        specs: &[ProgramPulseSpec],
    ) -> Vec<Result<TransientResult>> {
        let engine = self.engine_for(device);
        self.scatter(specs.to_vec(), |spec| engine.run(&spec))
    }

    /// Generic order-preserving fan-out of `op` over independent work
    /// items — the primitive the array layer (ISPP, page program, block
    /// erase) routes through.
    pub fn scatter<T, R, F>(&self, items: Vec<T>, op: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if self.parallel {
            items.into_par_iter().map(op).collect()
        } else {
            items.into_iter().map(op).collect()
        }
    }

    /// Order-preserving fan-out of `op` over contiguous index chunks of
    /// `0..n`: `op` receives each chunk's `(start, len)` and the results
    /// come back in chunk order regardless of scheduling. The batched
    /// *sampling* primitive: per-chunk partial results (error counts,
    /// RNG draws keyed on absolute index) reduce deterministically, so a
    /// parallel scan is bit-identical to the sequential one.
    ///
    /// `n == 0` is an explicit no-op: `op` is never called and the
    /// result is empty — grouped-submission paths (merged multi-plane
    /// rounds whose every job failed validation) rely on this.
    pub fn map_chunks<R, F>(&self, n: usize, chunk: usize, op: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, usize) -> R + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        let spans: Vec<(usize, usize)> = (0..n)
            .step_by(chunk)
            .map(|start| (start, chunk.min(n - start)))
            .collect();
        self.scatter(spans, |(start, len)| op(start, len))
    }

    /// Order-preserving fan-out over independent work *queues*: items of
    /// one queue run sequentially in queue order, while distinct queues
    /// run concurrently — the plane-parallel execution primitive of the
    /// array layer's P/E scheduler (each NAND plane is a queue whose
    /// commands must stay ordered, but planes are mutually independent).
    /// `op` receives `(queue_index, item)`; `output[q][k]` corresponds to
    /// `queues[q][k]` regardless of scheduling.
    ///
    /// Empty input is an explicit no-op: no queues (or only empty
    /// queues) call `op` zero times and return the same shape back —
    /// the contract an idle scheduler round depends on.
    pub fn scatter_queues<T, R, F>(&self, queues: Vec<Vec<T>>, op: F) -> Vec<Vec<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.scatter(
            queues.into_iter().enumerate().collect(),
            |(q, items): (usize, Vec<T>)| items.into_iter().map(|item| op(q, item)).collect(),
        )
    }

    /// In-place fan-out over disjoint contiguous chunks of a state
    /// column. `op` receives the chunk's starting index in the full
    /// column and the mutable chunk, so per-element work can still be
    /// addressed globally (e.g. to read sibling read-only columns).
    ///
    /// # Panics
    ///
    /// Panics when `chunk` is zero.
    pub fn for_each_chunk_mut<T, F>(&self, column: &mut [T], chunk: usize, op: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        if self.parallel {
            let pieces: Vec<(usize, &mut [T])> = column
                .chunks_mut(chunk)
                .enumerate()
                .map(|(i, c)| (i * chunk, c))
                .collect();
            pieces.into_par_iter().for_each(|(start, c)| op(start, c));
        } else {
            for (i, c) in column.chunks_mut(chunk).enumerate() {
                op(i * chunk, c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use gnr_units::Voltage;

    #[test]
    fn batched_specs_match_sequential_exactly() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let specs: Vec<ProgramPulseSpec> = (0..6)
            .map(|i| ProgramPulseSpec::program(Voltage::from_volts(13.0 + 0.5 * f64::from(i))))
            .collect();
        let parallel = BatchSimulator::new().run(&device, &specs);
        let sequential = BatchSimulator::sequential().run(&device, &specs);
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.iter().zip(&sequential) {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(
                p.samples(),
                s.samples(),
                "batched trace must be bit-identical"
            );
            assert_eq!(p.saturation_time(), s.saturation_time());
        }
    }

    #[test]
    fn per_spec_failures_stay_local() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let specs = vec![
            ProgramPulseSpec::program(Voltage::from_volts(1.0)), // no tunneling
            ProgramPulseSpec::program(presets::program_vgs()),
        ];
        let results = BatchSimulator::new().run(&device, &specs);
        assert!(results[0].is_err());
        assert!(results[1].is_ok());
    }

    #[test]
    fn scatter_preserves_order() {
        let batch = BatchSimulator::new();
        let doubled = batch.scatter((0..100).collect::<Vec<i64>>(), |x| x * 2);
        for (i, d) in doubled.iter().enumerate() {
            assert_eq!(*d, 2 * i as i64);
        }
    }

    #[test]
    fn queue_fan_out_preserves_per_queue_order() {
        for batch in [BatchSimulator::new(), BatchSimulator::sequential()] {
            let queues: Vec<Vec<u64>> = (0..7).map(|q| (0..=q).collect()).collect();
            let out = batch.scatter_queues(queues.clone(), |q, item| (q as u64) * 100 + item);
            assert_eq!(out.len(), 7);
            for (q, results) in out.iter().enumerate() {
                let expected: Vec<u64> = (0..=q as u64).map(|k| q as u64 * 100 + k).collect();
                assert_eq!(*results, expected, "queue {q}");
            }
        }
        assert!(BatchSimulator::new()
            .scatter_queues(Vec::<Vec<u8>>::new(), |_, x| x)
            .is_empty());
    }

    #[test]
    fn chunked_mutation_covers_every_element_once() {
        for batch in [BatchSimulator::new(), BatchSimulator::sequential()] {
            let mut column = vec![0u64; 1000];
            batch.for_each_chunk_mut(&mut column, 64, |start, chunk| {
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    *slot += (start + offset) as u64;
                }
            });
            for (i, v) in column.iter().enumerate() {
                assert_eq!(*v, i as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        BatchSimulator::new().for_each_chunk_mut(&mut [0u8; 4], 0, |_, _| {});
    }

    #[test]
    fn map_chunks_empty_input_is_a_noop() {
        for batch in [BatchSimulator::new(), BatchSimulator::sequential()] {
            let out = batch.map_chunks(0, 64, |_, _| panic!("op must not run on empty input"));
            assert!(out.is_empty());
        }
    }

    #[test]
    fn scatter_queues_empty_input_is_a_noop() {
        for batch in [BatchSimulator::new(), BatchSimulator::sequential()] {
            // No queues at all.
            let out = batch.scatter_queues(Vec::<Vec<u8>>::new(), |_, _: u8| -> u8 {
                panic!("op must not run on empty input")
            });
            assert!(out.is_empty());
            // Queues present but all empty: shape is preserved, op never
            // runs.
            let out = batch.scatter_queues(vec![Vec::<u8>::new(); 3], |_, _: u8| -> u8 {
                panic!("op must not run on empty queues")
            });
            assert_eq!(out.len(), 3);
            assert!(out.iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn batch_mode_reaches_built_engines() {
        let device = FloatingGateTransistor::mlgnr_cnt_paper();
        let batch = BatchSimulator::new().with_mode(crate::engine::EngineMode::Exact);
        assert_eq!(batch.mode(), crate::engine::EngineMode::Exact);
        assert_eq!(
            batch.engine_for(&device).mode(),
            crate::engine::EngineMode::Exact
        );
        assert_eq!(
            BatchSimulator::new().engine_for(&device).mode(),
            crate::engine::EngineMode::FlowMap
        );
    }

    #[test]
    fn map_chunks_covers_the_range_in_order() {
        for batch in [BatchSimulator::new(), BatchSimulator::sequential()] {
            let sums = batch.map_chunks(1000, 64, |start, len| {
                (start..start + len).map(|i| i as u64).sum::<u64>()
            });
            assert_eq!(sums.len(), 16); // ceil(1000 / 64)
            assert_eq!(sums.iter().sum::<u64>(), 999 * 1000 / 2);
            // First chunk is exactly 0..64 — order is positional.
            assert_eq!(sums[0], (0..64).sum::<u64>());
        }
        assert!(BatchSimulator::new().map_chunks(0, 8, |_, _| 1).is_empty());
    }
}
