//! Struct-of-arrays cell state: the scalable backbone of the array layer.
//!
//! The paper's §II argument — FN programming draws "< 1 nA per cell,
//! thus allowing many cells to be programmed at a time" — is an
//! *array-level* claim, and simulating arrays of realistic size (millions
//! of cells) is impossible when every cell owns a cloned
//! `FloatingGateTransistor`, read model and engine handle. A
//! [`CellPopulation`] stores per-cell **state** as flat columns
//! (`Vec<f64>`/`Vec<u64>`): stored charge, wear counters and per-cell
//! process-variation deltas. Everything *derivable* — the device model,
//! the `J(E)` tables, the charge-balance engine — is shared: one
//! [`FloatingGateTransistor`] blueprint, and one device per **distinct**
//! variation delta pair (deduplicated), with engines built on demand
//! through the process-wide table cache.
//!
//! # Memory model
//!
//! Per cell the population holds exactly the state columns: charge,
//! injected-charge wear, two op counters and a 4-byte variant index —
//! [`CellPopulation::bytes_per_cell`] reports the figure (36 B). The
//! variation deltas live once per variant, not per cell; snapshots
//! expand them back into per-cell columns. A million-cell NAND array is
//! ~36 MB of state instead of gigabytes of cloned device structs.
//!
//! Each grouped op adds a transient of one group id (8 B) per listed
//! cell plus one result per distinct state group — the pair a
//! [`CellOutcomes`] holds, lending every member its group's result by
//! reference. A 1M-cell epoch jump so costs 8 MB of group ids, not a
//! 48 MB column of cloned per-cell results.
//!
//! # Determinism and parity
//!
//! Simulation ops (`program_cells`, `erase_block_cells`, pulse and
//! disturb application) group cells by their full state — variant,
//! charge bits *and* wear counters — and run **one** representative
//! simulation per group, then write the absolute outcome back to every
//! member. Because the engine is deterministic, two cells with
//! bit-identical state get bit-identical results whether simulated
//! separately or shared — which is what makes the grouped path *exactly*
//! equal to the historical cell-by-cell loop
//! (`tests/population_parity.rs` pins this end to end, wear accumulation
//! included: the representative carries the members' own stats, so every
//! floating-point addition happens in per-cell order).
//!
//! # When the column path engages
//!
//! Every *fixed-width-pulse* operation — one gate pulse
//! ([`CellPopulation::apply_pulse_cells`]), page program and block erase
//! (both ISPP ladders), the default erase, erase-verify and soft-program
//! (via [`crate::pe`]) — runs **columnar**: the groups become
//! `GroupState` rows, and every rung's pulses are
//! bucketed by `(variant, pulse bias)` and dispatched as one sorted
//! column through [`ChargeBalanceEngine::pulse_final_charges`]. That
//! turns per-group scalar flow-map queries (each a cache probe, a
//! binary search and a Hermite sample) into one cache probe and one
//! amortised monotone segment walk per column. Disturb needs no engine
//! at all: [`crate::nand::NandArray`] logs pass-voltage exposures per
//! block and replays a page's pending ones, once per distinct
//! `(variant, charge)` state, only when something observes the page
//! (see `replay_disturb` below and [`crate::disturb`]).

use std::collections::HashMap;
use std::ops::{Range, RangeBounds};
use std::sync::Arc;

use gnr_flash::backend::{BackendKind, CellBackend, PcmDevice};
use gnr_flash::device::{FgtBuilder, FloatingGateTransistor};
use gnr_flash::engine::cyclemap;
use gnr_flash::engine::{BatchSimulator, ChargeBalanceEngine, CycleMap, CycleOutcome, CycleRecipe};
use gnr_flash::pulse::SquarePulse;
use gnr_flash::threshold::{classify, LogicState, ReadModel};
use gnr_flash::variation::standard_normal;
use gnr_numerics::hash::FnvHashMap;
use gnr_numerics::stats::Summary;
use gnr_units::{Charge, Energy, Length, Time, Voltage};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::cell::{CellStats, FlashCell};
use crate::column::{GroupState, PulseColumns};
use crate::disturb::disturb_charge;
use crate::ispp::{IsppEraser, IsppProgrammer, IsppReport};
use crate::{ArrayError, Result};

/// One distinct device build shared by every cell with the same
/// variation deltas. The engine is *not* stored: ops build it on demand
/// via [`BatchSimulator::engine_for`], which hits the process-wide
/// `J(E)` table cache — and, in the default flow-map mode, answers each
/// group's fixed-width pulses from the per-`(variant, pulse)` master
/// trajectory cache — so the marginal cost is one device clone per
/// group per operation (and ~one integration per *pulse bias*, not per
/// group) — never per cell.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub(crate) struct DeviceVariant {
    /// Fractional tunnel-oxide thickness delta this variant was built at.
    xto_delta: f64,
    /// Channel-barrier delta (eV) this variant was built at.
    barrier_delta_ev: f64,
    /// The built device.
    pub(crate) device: FloatingGateTransistor,
    /// Cached `CFC` in farads for the `ΔVT = −Q/CFC` hot path.
    pub(crate) cfc_farads: f64,
}

/// Telemetry of one [`CellPopulation::run_epoch`] jump.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct EpochReport {
    /// Cells the epoch covered.
    pub cells: usize,
    /// Distinct full-state groups among them.
    pub groups: usize,
    /// Unique `(variant, charge)` cycle-map probes after deduplication
    /// (the jump outcome depends only on those).
    pub map_probes: usize,
    /// Probes that could not answer from a cycle-map table (no map for
    /// the engine, or the start charge outside the tabulated span) and
    /// therefore iterated their cycles explicitly.
    pub fallback_probes: usize,
}

/// Gaussian per-cell process variation for a population.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct PopulationVariation {
    /// Relative 1σ of the tunnel-oxide thickness (e.g. 0.04 = 4 %).
    pub xto_sigma_fraction: f64,
    /// Absolute 1σ of the channel barrier (work-function spread), eV.
    pub barrier_sigma_ev: f64,
    /// RNG seed — populations are reproducible.
    pub seed: u64,
}

impl Default for PopulationVariation {
    fn default() -> Self {
        // Matches the 1σ values of `gnr_flash::variation::VariationSpec`.
        Self {
            xto_sigma_fraction: 0.04,
            barrier_sigma_ev: 0.05,
            seed: 0x5eed_f1a5,
        }
    }
}

/// Serializable per-cell state of a population: the six state columns.
///
/// The variant table and devices are *not* serialized — they are
/// derivable from the device plus the delta columns, which is exactly
/// what [`CellPopulation::restore_backend`] rebuilds.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PopulationSnapshot {
    /// Stored charge per cell (C).
    pub charge: Vec<f64>,
    /// Cumulative injected-charge wear per cell (C).
    pub injected_charge: Vec<f64>,
    /// Completed program operations per cell.
    pub program_ops: Vec<u64>,
    /// Completed erase operations per cell.
    pub erase_ops: Vec<u64>,
    /// Fractional tunnel-oxide thickness delta per cell.
    pub xto_delta: Vec<f64>,
    /// Channel-barrier delta per cell (eV).
    pub barrier_delta_ev: Vec<f64>,
}

/// A struct-of-arrays population of flash cells sharing one device
/// blueprint. See the module docs for the memory and determinism model.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct CellPopulation {
    blueprint: FloatingGateTransistor,
    read_model: ReadModel,
    read_voltage: Voltage,
    decision_level: Voltage,
    // --- per-cell state columns (the only O(n) storage) ---
    charge: Vec<f64>,
    injected_charge: Vec<f64>,
    program_ops: Vec<u64>,
    erase_ops: Vec<u64>,
    variant_of: Vec<u32>,
    // --- shared, deduplicated device builds ---
    variants: Vec<DeviceVariant>,
    // --- device backend (shared by every cell) ---
    backend_kind: BackendKind,
    pcm: Option<PcmDevice>,
}

/// Bit-exact identity of a variation delta pair — variant equality and
/// hashing both key on this.
fn variant_key(xto: f64, barrier_ev: f64) -> (u64, u64) {
    (xto.to_bits(), barrier_ev.to_bits())
}

/// The kernel of [`CellPopulation::replay_disturb`]: `charges[k]` is a
/// cell of variant `variant_of[k]`.
fn replay_disturb<I>(
    variants: &[DeviceVariant],
    pcm: Option<PcmDevice>,
    variant_of: &[u32],
    charges: &mut [f64],
    exposures: I,
) -> u64
where
    I: Iterator<Item = (Voltage, Time)> + Clone,
{
    if exposures.clone().next().is_none() {
        return 0;
    }
    // A page's cells arrive in long runs of one state, so the same
    // last-key register and FNV memo as `apply_disturb_cells`.
    let mut settled: FnvHashMap<(u32, u64), f64> = FnvHashMap::default();
    let mut last: Option<((u32, u64), f64)> = None;
    let mut replays = 0;
    for (q, &variant) in charges.iter_mut().zip(variant_of) {
        let key = (variant, q.to_bits());
        let end = match last {
            Some((k, end)) if k == key => end,
            _ => {
                let end = *settled.entry(key).or_insert_with(|| {
                    let device = &variants[variant as usize].device;
                    exposures.clone().fold(*q, |x, (vgs, duration)| {
                        replays += 1;
                        match pcm {
                            // Sub-threshold biases leave PCM untouched.
                            Some(pcm) => pcm
                                .pulse_final_fraction(vgs.as_volts(), duration.as_seconds(), x)
                                .unwrap_or(x),
                            None => {
                                x + disturb_charge(device, Charge::from_coulombs(x), vgs, duration)
                                    .as_coulombs()
                            }
                        }
                    })
                });
                last = Some((key, end));
                end
            }
        };
        *q = end;
    }
    replays
}

/// Per-cell results of one grouped op, stored once per state group.
///
/// Every member of a group ran the same simulation from the same state,
/// so the group's result *is* each member's result: the outcome keeps
/// one result per group plus each listed cell's group, and lends a
/// cell its group's result by reference. Positions are positions in
/// the op's index list, not population indices.
#[derive(Debug)]
pub struct CellOutcomes<R> {
    /// Group of each listed cell, in input order.
    group_of: Vec<usize>,
    /// One result per group.
    results: Vec<Result<R>>,
}

impl<R> CellOutcomes<R> {
    /// Number of listed cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.group_of.len()
    }

    /// `true` when the op listed no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.group_of.is_empty()
    }

    /// Result of the listed cell at position `pos`.
    #[must_use]
    pub fn get(&self, pos: usize) -> Option<&Result<R>> {
        self.group_of.get(pos).map(|&g| &self.results[g])
    }

    /// Per-cell results in input order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &Result<R>> + '_ {
        self.group_of.iter().map(|&g| &self.results[g])
    }

    /// The status of the listed cells at positions `cells`: their first
    /// error in input order — what a per-cell loop over that span
    /// returns when it stops at its first failure — or `Ok(())`.
    ///
    /// # Errors
    ///
    /// A clone of the span's first error.
    ///
    /// # Panics
    ///
    /// Panics when `cells` runs past [`Self::len`].
    pub fn check(&self, cells: impl RangeBounds<usize>) -> Result<()> {
        let span = &self.group_of[(cells.start_bound().cloned(), cells.end_bound().cloned())];
        // The common case costs one pass over the groups, not the cells.
        if self.results.iter().all(Result::is_ok) {
            return Ok(());
        }
        span.iter()
            .find_map(|&g| self.results[g].as_ref().err())
            .map_or(Ok(()), |e| Err(e.clone()))
    }
}

/// Full-state grouping key of [`CellPopulation::group_states`]:
/// `(variant, charge bits, injected-charge bits, program ops, erase ops)`.
type GroupKey = (u32, u64, u64, u64, u64);

impl CellPopulation {
    /// A population of `n` identical cells of the blueprint device —
    /// one variant, one shared device build.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    #[must_use]
    pub fn uniform(blueprint: FloatingGateTransistor, n: usize) -> Self {
        assert!(n > 0, "population must have at least one cell");
        let nominal = DeviceVariant {
            xto_delta: 0.0,
            barrier_delta_ev: 0.0,
            cfc_farads: blueprint.capacitances().cfc().as_farads(),
            device: blueprint.clone(),
        };
        Self {
            blueprint,
            read_model: ReadModel::paper_nominal(),
            read_voltage: Voltage::from_volts(2.0),
            decision_level: Voltage::from_volts(1.0),
            charge: vec![0.0; n],
            injected_charge: vec![0.0; n],
            program_ops: vec![0; n],
            erase_ops: vec![0; n],
            variant_of: vec![0; n],
            variants: vec![nominal],
            backend_kind: BackendKind::GnrFloatingGate,
            pcm: None,
        }
    }

    /// `n` fresh paper cells.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    #[must_use]
    pub fn paper(n: usize) -> Self {
        Self::uniform(FloatingGateTransistor::mlgnr_cnt_paper(), n)
    }

    /// A population of `n` identical cells of an arbitrary device
    /// backend. For floating gates this is [`Self::uniform`] over the
    /// backend's device plus the material tag; for PCM the blueprint
    /// slot holds the paper's FG device purely as a placeholder and the
    /// cached per-variant `CFC` is the PCM element's *effective*
    /// capacitance, so the reliability models' charge→threshold
    /// conversions keep working column-wise.
    ///
    /// Also stamps the backend's stable name into the process-wide
    /// telemetry tag ([`gnr_telemetry::set_active_backend`]) so journal
    /// events and snapshots attribute to the right technology.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    #[must_use]
    pub fn uniform_backend(backend: &CellBackend, n: usize) -> Self {
        let mut pop = match backend.floating_gate_device() {
            Some(device) => Self::uniform(device.clone(), n),
            None => Self::uniform(FloatingGateTransistor::mlgnr_cnt_paper(), n),
        };
        pop.adopt_backend(backend);
        pop
    }

    /// Tags a freshly-built (single-variant) population with a backend.
    fn adopt_backend(&mut self, backend: &CellBackend) {
        self.backend_kind = backend.kind();
        self.pcm = backend.pcm_device().copied();
        if let Some(pcm) = &self.pcm {
            self.variants[0].cfc_farads = pcm.effective_cfc_farads();
        }
        gnr_telemetry::set_active_backend(self.backend_kind.name());
    }

    /// A population with Gaussian per-cell variation of the tunnel-oxide
    /// thickness and channel barrier, sampled reproducibly from
    /// `variation.seed`. Unphysical draws (oxide below 0.5 nm, barrier
    /// below 0.5 eV, failed device build) are resampled.
    ///
    /// # Errors
    ///
    /// Propagates device-build failures that persist after resampling.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn with_variation(
        blueprint: FloatingGateTransistor,
        n: usize,
        variation: &PopulationVariation,
    ) -> Result<Self> {
        let mut pop = Self::uniform(blueprint, n);
        let mut index = pop.variant_index();
        let mut rng = StdRng::seed_from_u64(variation.seed);
        for i in 0..n {
            // Resample until the perturbed device is physical; bound the
            // retries so a pathological spec fails instead of spinning.
            let mut last_err = None;
            let mut placed = false;
            for _ in 0..64 {
                let xto = variation.xto_sigma_fraction * standard_normal(&mut rng);
                let barrier = variation.barrier_sigma_ev * standard_normal(&mut rng);
                match pop.set_cell_variation_indexed(&mut index, i, xto, barrier) {
                    Ok(()) => {
                        placed = true;
                        break;
                    }
                    Err(e) => last_err = Some(e),
                }
            }
            if !placed {
                return Err(last_err.expect("resample loop records its failure"));
            }
        }
        Ok(pop)
    }

    /// Rebuilds a population under a device backend from a serialized
    /// state snapshot (the inverse of [`Self::snapshot`]): the variant
    /// table is re-derived from the delta columns. Floating-gate
    /// backends restore around the backend's own device (GNR callers
    /// pass [`CellBackend::gnr`]); PCM snapshots must carry all-zero
    /// variation deltas — process variation is a floating-gate concept
    /// here.
    ///
    /// # Errors
    ///
    /// [`ArrayError::Snapshot`] on ragged columns;
    /// [`ArrayError::UnsupportedBackend`] for a PCM snapshot with
    /// nonzero variation deltas; device-build failures propagate.
    pub fn restore_backend(backend: &CellBackend, snapshot: PopulationSnapshot) -> Result<Self> {
        if backend.pcm_device().is_some() {
            let varied = snapshot
                .xto_delta
                .iter()
                .chain(snapshot.barrier_delta_ev.iter())
                .any(|&d| d != 0.0);
            if varied {
                return Err(ArrayError::UnsupportedBackend {
                    backend: backend.kind().name(),
                    operation: "restore with floating-gate variation deltas",
                });
            }
        }
        let n = snapshot.charge.len();
        if n == 0 {
            return Err(ArrayError::Snapshot("empty snapshot".into()));
        }
        for (name, len) in [
            ("injected_charge", snapshot.injected_charge.len()),
            ("program_ops", snapshot.program_ops.len()),
            ("erase_ops", snapshot.erase_ops.len()),
            ("xto_delta", snapshot.xto_delta.len()),
            ("barrier_delta_ev", snapshot.barrier_delta_ev.len()),
        ] {
            if len != n {
                return Err(ArrayError::Snapshot(format!(
                    "column `{name}` has {len} rows, expected {n}"
                )));
            }
        }
        let blueprint = backend
            .floating_gate_device()
            .cloned()
            .unwrap_or_else(FloatingGateTransistor::mlgnr_cnt_paper);
        let mut pop = Self::uniform(blueprint, n);
        let mut index = pop.variant_index();
        for i in 0..n {
            pop.set_cell_variation_indexed(
                &mut index,
                i,
                snapshot.xto_delta[i],
                snapshot.barrier_delta_ev[i],
            )?;
        }
        pop.charge = snapshot.charge;
        pop.injected_charge = snapshot.injected_charge;
        pop.program_ops = snapshot.program_ops;
        pop.erase_ops = snapshot.erase_ops;
        pop.adopt_backend(backend);
        Ok(pop)
    }

    /// Captures the per-cell state columns for serialization; the
    /// variation deltas expand from the variant table into per-cell
    /// columns.
    #[must_use]
    pub fn snapshot(&self) -> PopulationSnapshot {
        let delta_column = |delta: fn(&DeviceVariant) -> f64| -> Vec<f64> {
            self.variant_of
                .iter()
                .map(|&v| delta(&self.variants[v as usize]))
                .collect()
        };
        PopulationSnapshot {
            charge: self.charge.clone(),
            injected_charge: self.injected_charge.clone(),
            program_ops: self.program_ops.clone(),
            erase_ops: self.erase_ops.clone(),
            xto_delta: delta_column(|v| v.xto_delta),
            barrier_delta_ev: delta_column(|v| v.barrier_delta_ev),
        }
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.charge.len()
    }

    /// `true` when the population has no cells (never, post-construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.charge.is_empty()
    }

    /// Bytes of per-cell *state* this population stores — the
    /// peak-RSS-proxy of the SoA refactor (device builds are shared and
    /// amortise to zero per cell).
    #[must_use]
    pub fn bytes_per_cell(&self) -> usize {
        // charge, injected_charge (f64); program_ops, erase_ops (u64);
        // variant_of (u32).
        2 * core::mem::size_of::<f64>()
            + 2 * core::mem::size_of::<u64>()
            + core::mem::size_of::<u32>()
    }

    /// Number of distinct device builds shared across the population.
    #[must_use]
    pub fn variant_count(&self) -> usize {
        self.variants.len()
    }

    /// The shared blueprint device.
    #[must_use]
    pub fn blueprint(&self) -> &FloatingGateTransistor {
        &self.blueprint
    }

    /// Which device backend every cell of this population evolves under.
    #[must_use]
    pub fn backend_kind(&self) -> BackendKind {
        self.backend_kind
    }

    /// The PCM element, when this is a PCM-backed population.
    #[must_use]
    pub fn pcm_device(&self) -> Option<&PcmDevice> {
        self.pcm.as_ref()
    }

    /// The (shared) device of cell `i`.
    ///
    /// # Errors
    ///
    /// [`ArrayError::AddressOutOfRange`] for a bad index;
    /// [`ArrayError::UnsupportedBackend`] on a PCM population, whose
    /// placeholder FG device must never leak into physics.
    pub fn device(&self, i: usize) -> Result<&FloatingGateTransistor> {
        if self.pcm.is_some() {
            return Err(ArrayError::UnsupportedBackend {
                backend: self.backend_kind.name(),
                operation: "floating-gate device access",
            });
        }
        Ok(&self.variants[self.variant(i)?].device)
    }

    /// Stored charge of cell `i`.
    ///
    /// # Errors
    ///
    /// [`ArrayError::AddressOutOfRange`] for a bad index.
    pub fn charge(&self, i: usize) -> Result<Charge> {
        self.check(i)?;
        Ok(Charge::from_coulombs(self.charge[i]))
    }

    /// Directly sets the stored charge of cell `i` (trap-injection
    /// models and tests — the column mirror of [`FlashCell::set_charge`]).
    ///
    /// # Errors
    ///
    /// [`ArrayError::AddressOutOfRange`] for a bad index.
    pub fn set_charge(&mut self, i: usize, charge: Charge) -> Result<()> {
        self.check(i)?;
        self.charge[i] = charge.as_coulombs();
        Ok(())
    }

    /// Lifetime counters of cell `i`.
    ///
    /// # Errors
    ///
    /// [`ArrayError::AddressOutOfRange`] for a bad index.
    pub fn stats(&self, i: usize) -> Result<CellStats> {
        self.check(i)?;
        Ok(CellStats {
            program_ops: self.program_ops[i],
            erase_ops: self.erase_ops[i],
            injected_charge: self.injected_charge[i],
        })
    }

    /// Variation deltas `(xto_fraction, barrier_ev)` of cell `i`.
    ///
    /// # Errors
    ///
    /// [`ArrayError::AddressOutOfRange`] for a bad index.
    pub fn variation_deltas(&self, i: usize) -> Result<(f64, f64)> {
        let v = &self.variants[self.variant(i)?];
        Ok((v.xto_delta, v.barrier_delta_ev))
    }

    /// Threshold shift of cell `i` — identical arithmetic to
    /// [`gnr_flash::threshold::vt_shift`] on the cell's shared device.
    ///
    /// # Errors
    ///
    /// [`ArrayError::AddressOutOfRange`] for a bad index.
    pub fn vt_shift(&self, i: usize) -> Result<Voltage> {
        let v = self.variant(i)?;
        Ok(Voltage::from_volts(match &self.pcm {
            Some(pcm) => pcm.vt_shift_volts(self.charge[i]),
            None => -(self.charge[i] / self.variants[v].cfc_farads),
        }))
    }

    /// The whole ΔVT column, fanned out over `batch` in contiguous
    /// chunks — the margin/histogram scan path, with no per-cell device
    /// access at all.
    #[must_use]
    pub fn vt_shift_column(&self, batch: &BatchSimulator) -> Vec<f64> {
        let mut out = vec![0.0f64; self.len()];
        let chunk = 16 * 1024;
        if let Some(pcm) = &self.pcm {
            batch.for_each_chunk_mut(&mut out, chunk, |start, slice| {
                for (offset, slot) in slice.iter_mut().enumerate() {
                    *slot = pcm.vt_shift_volts(self.charge[start + offset]);
                }
            });
            return out;
        }
        batch.for_each_chunk_mut(&mut out, chunk, |start, slice| {
            for (offset, slot) in slice.iter_mut().enumerate() {
                let i = start + offset;
                let inv = self.variants[self.variant_of[i] as usize].cfc_farads;
                *slot = -(self.charge[i] / inv);
            }
        });
        out
    }

    /// The stored-charge column (C per cell) — read-only bulk access for
    /// reliability models that post-process the analog state.
    #[must_use]
    pub fn charge_column(&self) -> &[f64] {
        &self.charge
    }

    /// The stored-charge column, writable — for the array's settled
    /// copies, which replay pending disturb into it.
    pub(crate) fn charge_column_mut(&mut self) -> &mut [f64] {
        &mut self.charge
    }

    /// The injected-charge wear column (C per cell) — the oxide-fluence
    /// input of trap-noise and endurance models.
    #[must_use]
    pub fn injected_charge_column(&self) -> &[f64] {
        &self.injected_charge
    }

    /// The per-cell completed-program-operation counters.
    #[must_use]
    pub fn program_ops_column(&self) -> &[u64] {
        &self.program_ops
    }

    /// The per-cell completed-erase-operation counters.
    #[must_use]
    pub fn erase_ops_column(&self) -> &[u64] {
        &self.erase_ops
    }

    /// Per-cell `CFC` (F), fanned out over `batch` — the denominators of
    /// `ΔVT = −Q/CFC`, needed by models that convert trapped charge into
    /// threshold offsets column-wise.
    #[must_use]
    pub fn cfc_column(&self, batch: &BatchSimulator) -> Vec<f64> {
        let mut out = vec![0.0f64; self.len()];
        let chunk = 16 * 1024;
        batch.for_each_chunk_mut(&mut out, chunk, |start, slice| {
            for (offset, slot) in slice.iter_mut().enumerate() {
                *slot = self.variants[self.variant_of[start + offset] as usize].cfc_farads;
            }
        });
        out
    }

    /// The population's read decision level (V) — the reference the
    /// noiseless [`Self::read`] classification uses.
    #[must_use]
    pub fn decision_level(&self) -> Voltage {
        self.decision_level
    }

    /// Adds externally-modelled injected-charge fluence (C) to every
    /// listed cell without moving stored charge — the synthetic-wear
    /// path of reliability sweeps (like [`Self::set_charge`], the caller
    /// owns the physics: here, `fluence = charge_per_cycle × cycles` from
    /// the endurance model's analytic wear evolution).
    pub fn add_injected_charge(&mut self, indices: &[usize], coulombs: f64) {
        for &i in indices {
            debug_assert!(i < self.len(), "add_injected_charge index {i} out of range");
            self.injected_charge[i] += coulombs;
        }
    }

    /// Logic state of cell `i` through the population's decision level.
    ///
    /// # Errors
    ///
    /// [`ArrayError::AddressOutOfRange`] for a bad index.
    pub fn read(&self, i: usize) -> Result<LogicState> {
        Ok(classify(self.vt_shift(i)?, self.decision_level))
    }

    /// Drain current of cell `i` at the read point.
    ///
    /// # Errors
    ///
    /// [`ArrayError::AddressOutOfRange`] for a bad index.
    pub fn read_current(&self, i: usize) -> Result<gnr_units::Current> {
        Ok(self
            .read_model
            .drain_current(self.read_voltage, self.vt_shift(i)?))
    }

    /// Materialises cell `i` as an owning [`FlashCell`] (clones the
    /// shared device — a per-call convenience for analyses and demos,
    /// not a bulk path).
    ///
    /// # Errors
    ///
    /// [`ArrayError::AddressOutOfRange`] for a bad index.
    pub fn cell(&self, i: usize) -> Result<FlashCell> {
        let v = self.variant(i)?;
        Ok(FlashCell::restore_backend(
            self.backend_kind,
            self.pcm,
            self.variants[v].device.clone(),
            Charge::from_coulombs(self.charge[i]),
            self.stats(i)?,
        ))
    }

    /// Sets the variation deltas of cell `i`, building (or sharing) the
    /// matching device variant.
    ///
    /// One-off API: looks the variant up with a table scan. Bulk
    /// construction ([`Self::with_variation`],
    /// [`Self::restore_backend`]) keeps a hash index instead, so varied
    /// million-cell populations intern in O(n).
    ///
    /// # Errors
    ///
    /// Rejects unphysical deltas and propagates device-build failures;
    /// [`ArrayError::UnsupportedBackend`] on a PCM population.
    pub fn set_cell_variation(&mut self, i: usize, xto: f64, barrier_ev: f64) -> Result<()> {
        if self.pcm.is_some() {
            return Err(ArrayError::UnsupportedBackend {
                backend: self.backend_kind.name(),
                operation: "floating-gate process variation",
            });
        }
        self.check(i)?;
        let key = variant_key(xto, barrier_ev);
        let variant = match self
            .variants
            .iter()
            .position(|v| variant_key(v.xto_delta, v.barrier_delta_ev) == key)
        {
            Some(idx) => u32::try_from(idx).expect("variant table fits u32"),
            None => self.push_variant(xto, barrier_ev)?,
        };
        self.variant_of[i] = variant;
        Ok(())
    }

    /// [`Self::set_cell_variation`] against a caller-maintained hash
    /// index of the variant table — the O(1)-interning bulk path.
    fn set_cell_variation_indexed(
        &mut self,
        index: &mut HashMap<(u64, u64), u32>,
        i: usize,
        xto: f64,
        barrier_ev: f64,
    ) -> Result<()> {
        self.check(i)?;
        let key = variant_key(xto, barrier_ev);
        let variant = match index.get(&key) {
            Some(&v) => v,
            None => {
                let v = self.push_variant(xto, barrier_ev)?;
                index.insert(key, v);
                v
            }
        };
        self.variant_of[i] = variant;
        Ok(())
    }

    /// Hash index over the current variant table, keyed on delta bits.
    fn variant_index(&self) -> HashMap<(u64, u64), u32> {
        self.variants
            .iter()
            .enumerate()
            .map(|(i, v)| {
                (
                    variant_key(v.xto_delta, v.barrier_delta_ev),
                    u32::try_from(i).expect("variant table fits u32"),
                )
            })
            .collect()
    }

    /// Applies one gate pulse to every listed cell (grouped, columnar;
    /// same per-cell semantics as [`FlashCell::apply_pulse_with`]:
    /// sub-threshold bias is a no-op, not an error). All groups share
    /// one pulse bias, so the whole call is a single sorted flow-map
    /// column per variant.
    ///
    /// # Errors
    ///
    /// Per-cell results, position-aligned with `indices`.
    pub fn apply_pulse_cells(
        &mut self,
        indices: &[usize],
        pulse: SquarePulse,
        batch: &BatchSimulator,
    ) -> CellOutcomes<()> {
        self.run_columnar(indices, batch, |cols, states| {
            let jobs: Vec<(usize, SquarePulse)> = (0..states.len()).map(|g| (g, pulse)).collect();
            cols.apply(states, &jobs)
        })
    }

    /// Runs one full ISPP verify ladder per listed cell (grouped,
    /// columnar: every rung is one sorted flow-map column over the
    /// still-active groups). Per-cell reports, position-aligned with
    /// `indices`.
    pub fn program_cells(
        &mut self,
        programmer: &IsppProgrammer,
        indices: &[usize],
        batch: &BatchSimulator,
    ) -> CellOutcomes<IsppReport> {
        self.run_columnar(indices, batch, |cols, states| {
            let members: Vec<usize> = (0..states.len()).collect();
            programmer.program_column(cols, states, &members)
        })
    }

    /// The block-erase unit of work per listed cell: cells still above
    /// `already_erased_target` run the full erase ladder; already-erased
    /// cells take the single default erase pulse (erase stress hits every
    /// cell of a block regardless). Mirrors the historical
    /// `NandArray::erase_block` per-cell closure exactly.
    pub fn erase_block_cells(
        &mut self,
        eraser: &IsppEraser,
        already_erased_target: Voltage,
        indices: &[usize],
        batch: &BatchSimulator,
    ) -> CellOutcomes<()> {
        let target = already_erased_target.as_volts();
        self.run_columnar(indices, batch, |cols, states| {
            let (mut erased, mut laddered) = (Vec::new(), Vec::new());
            for (g, state) in states.iter().enumerate() {
                if cols.vt_shift(state) <= target {
                    erased.push(g);
                } else {
                    laddered.push(g);
                }
            }
            let mut out: Vec<Result<()>> = (0..states.len()).map(|_| Ok(())).collect();
            for (&g, r) in erased.iter().zip(cols.erase_default(states, &erased)) {
                out[g] = r;
            }
            for (&g, r) in laddered
                .iter()
                .zip(eraser.erase_column(cols, states, &laddered))
            {
                out[g] = r.map(|_| ());
            }
            out
        })
    }

    /// Applies the default erase pulse to every listed cell (the MLC
    /// pre-erase path; per-cell semantics of [`FlashCell::erase_default`]).
    pub fn erase_cells_default(
        &mut self,
        indices: &[usize],
        batch: &BatchSimulator,
    ) -> CellOutcomes<()> {
        self.run_columnar(indices, batch, |cols, states| {
            let members: Vec<usize> = (0..states.len()).collect();
            cols.erase_default(states, &members)
        })
    }

    /// Accumulates `events` disturb exposures at `vgs` on every listed
    /// cell at once — the linearised model of [`crate::disturb`],
    /// evaluated once per distinct `(variant, charge)` state instead of
    /// once per cell. NAND commands defer their exposures instead (see
    /// `replay_disturb`); this is the immediate sweep.
    pub fn apply_disturb_cells(
        &mut self,
        indices: &[usize],
        vgs: Voltage,
        duration: gnr_units::Time,
        events: u64,
    ) {
        if let Some(pcm) = self.pcm {
            // PCM: `events` identical exposures compose in closed form —
            // the exponential relaxation at a fixed bias over n pulses is
            // one pulse of n-fold width — so the whole accumulation is a
            // single kinetics evaluation per cell. Sub-threshold biases
            // (every stock pass/read level) return `None`: PCM cells do
            // not disturb below the switching threshold. Like the FG
            // path, disturb moves state without charging the wear column.
            let volts = vgs.as_volts();
            let width = duration.as_seconds() * events as f64;
            for &i in indices {
                debug_assert!(i < self.len(), "disturb index {i} out of range");
                if let Some(a1) = pcm.pulse_final_fraction(volts, width, self.charge[i]) {
                    self.charge[i] = a1;
                }
            }
            return;
        }
        // A sweep over a block's sibling pages is ~10⁴ cells. Two layers
        // keep the per-cell cost at a few nanoseconds: a last-key
        // register for the long runs of identical (variant, charge)
        // state that page-granular operations leave behind, and a
        // word-folding FNV map (not SipHash) for the handful of distinct
        // states that remain.
        let mut memo: FnvHashMap<(u32, u64), f64> = FnvHashMap::default();
        let mut last: Option<((u32, u64), f64)> = None;
        let scale = events as f64;
        for &i in indices {
            debug_assert!(i < self.len(), "disturb index {i} out of range");
            let key = (self.variant_of[i], self.charge[i].to_bits());
            let dq = match last {
                Some((k, dq)) if k == key => dq,
                _ => {
                    let dq = *memo.entry(key).or_insert_with(|| {
                        disturb_charge(
                            &self.variants[key.0 as usize].device,
                            Charge::from_coulombs(self.charge[i]),
                            vgs,
                            duration,
                        )
                        .as_coulombs()
                    });
                    last = Some((key, dq));
                    dq
                }
            };
            // Bit-identical to `disturb::apply_disturb` on a FlashCell.
            self.charge[i] += dq * scale;
        }
    }

    /// Replays pass-voltage disturb `exposures`, in order, on the cells
    /// `cells`: one [`disturb_charge`] evaluation per distinct
    /// `(variant, charge)` state and exposure, each added exactly as a
    /// one-event [`Self::apply_disturb_cells`] sweep adds it, so the
    /// cells end bit-identical to taking the exposures one sweep at a
    /// time. Returns the evaluations made.
    pub(crate) fn replay_disturb<I>(&mut self, cells: Range<usize>, exposures: I) -> u64
    where
        I: Iterator<Item = (Voltage, Time)> + Clone,
    {
        replay_disturb(
            &self.variants,
            self.pcm,
            &self.variant_of[cells.clone()],
            &mut self.charge[cells],
            exposures,
        )
    }

    /// [`Self::replay_disturb`] onto a copy, leaving the population
    /// untouched: `charges` holds the charges of the cells `first..` and
    /// receives their replayed values.
    pub(crate) fn replay_disturb_into<I>(&self, first: usize, charges: &mut [f64], exposures: I)
    where
        I: Iterator<Item = (Voltage, Time)> + Clone,
    {
        let variant_of = &self.variant_of[first..first + charges.len()];
        replay_disturb(&self.variants, self.pcm, variant_of, charges, exposures);
    }

    /// Marks one completed erase *operation* on every listed cell — the
    /// bookkeeping mirror of [`FlashCell::erase_default`]'s counter bump
    /// for block-level verified erases, where the pulse train is applied
    /// collectively ([`Self::apply_pulse_cells`] tracks only injected
    /// charge) and the operation completes for the block as a whole.
    pub fn note_erase_ops(&mut self, indices: &[usize]) {
        for &i in indices {
            debug_assert!(i < self.len(), "note_erase_ops index {i} out of range");
            self.erase_ops[i] += 1;
        }
    }

    /// Rewrites the charge of every listed cell through a closed-form
    /// per-cell update `f(device, charge) -> charge` (the CHE injection
    /// path and custom trap models). Does not touch the wear counters —
    /// like [`FlashCell::set_charge`], the caller models the physics.
    pub fn map_charge(
        &mut self,
        indices: &[usize],
        f: impl Fn(&FloatingGateTransistor, Charge) -> Charge,
    ) {
        for &i in indices {
            debug_assert!(i < self.len(), "map_charge index {i} out of range");
            let device = &self.variants[self.variant_of[i] as usize].device;
            self.charge[i] = f(device, Charge::from_coulombs(self.charge[i])).as_coulombs();
        }
    }

    /// Per-variant statistics of the programming-current spread — the
    /// population-column equivalent of `gnr_flash::variation`'s
    /// Monte-Carlo report: `log₁₀ J_in` and `VFG` at bias `vgs`, one
    /// exact-device evaluation per distinct variant, weighted per cell.
    ///
    /// # Errors
    ///
    /// Statistics errors for degenerate populations (e.g. every variant
    /// below the tunneling floor);
    /// [`ArrayError::UnsupportedBackend`] on a PCM population.
    pub fn variation_stats(&self, vgs: Voltage) -> Result<(Summary, Summary)> {
        if self.pcm.is_some() {
            return Err(ArrayError::UnsupportedBackend {
                backend: self.backend_kind.name(),
                operation: "FN programming-current statistics",
            });
        }
        // One evaluation per variant...
        let per_variant: Vec<Option<(f64, f64)>> = self
            .variants
            .iter()
            .map(|v| {
                let state = v.device.tunneling_state(vgs, Voltage::ZERO, Charge::ZERO);
                let j = state.tunnel_flow.abs().as_amps_per_square_meter();
                (j > 0.0).then(|| (j.log10(), state.vfg.as_volts()))
            })
            .collect();
        // ...expanded per cell so the statistics weight each draw.
        let mut log_j = Vec::with_capacity(self.len());
        let mut vfg = Vec::with_capacity(self.len());
        for &v in &self.variant_of {
            if let Some((j, f)) = per_variant[v as usize] {
                log_j.push(j);
                vfg.push(f);
            }
        }
        let to_err = |e: gnr_numerics::NumericsError| ArrayError::Device(e.into());
        Ok((
            Summary::from_samples(&log_j).map_err(to_err)?,
            Summary::from_samples(&vfg).map_err(to_err)?,
        ))
    }

    /// Mean injected-charge wear per cell (C) — the oxide-fluence axis
    /// of wear trajectories. No copy and no sort: the same `sum / n` as
    /// the mean of a [`Summary`] of the column, bit for bit.
    ///
    /// # Errors
    ///
    /// A statistics error when a cell's wear is not finite.
    pub fn mean_injected_charge(&self) -> Result<f64> {
        let wear = &self.injected_charge;
        if wear.iter().any(|w| !w.is_finite()) {
            let e = gnr_numerics::NumericsError::InvalidInput("samples must be finite".into());
            return Err(ArrayError::Device(e.into()));
        }
        #[allow(clippy::cast_precision_loss)]
        Ok(wear.iter().sum::<f64>() / wear.len() as f64)
    }

    /// Groups `indices` by full cell state (variant, charge bits, wear
    /// counters) — the shared front half of [`Self::run_columnar`] and
    /// [`Self::run_epoch`]. Returns each index's group plus one
    /// [`GroupState`] representative per group. The key is
    /// [`GroupKey`]: `(variant, charge, injected charge, program ops,
    /// erase ops)` with the floats as exact bit patterns.
    ///
    /// Groups key on the *entire* cell state — variant, charge AND
    /// wear counters — and the representative carries the members'
    /// actual stats, so the write-back can be absolute. Cells with
    /// equal charge but different wear histories simply land in
    /// different groups (rare outside aged mixed workloads).
    fn group_states(&self, indices: &[usize]) -> (Vec<usize>, Vec<GroupState>) {
        let _zone = gnr_telemetry::zone!("population.group");
        let mut group_of: Vec<usize> = Vec::with_capacity(indices.len());
        let mut states: Vec<GroupState> = Vec::new();
        // Same two-layer lookup as `apply_disturb_cells`: block-granular
        // ops (erase, soft-program) group tens of thousands of cells whose
        // states arrive in long identical runs.
        let mut seen: FnvHashMap<GroupKey, usize> = FnvHashMap::default();
        let mut last: Option<(GroupKey, usize)> = None;
        for &i in indices {
            debug_assert!(i < self.len(), "op index {i} out of range");
            let key = (
                self.variant_of[i],
                self.charge[i].to_bits(),
                self.injected_charge[i].to_bits(),
                self.program_ops[i],
                self.erase_ops[i],
            );
            let g = match last {
                Some((k, g)) if k == key => g,
                _ => {
                    let g = *seen.entry(key).or_insert_with(|| {
                        states.push(GroupState {
                            variant: key.0,
                            charge: self.charge[i],
                            stats: CellStats {
                                program_ops: self.program_ops[i],
                                erase_ops: self.erase_ops[i],
                                injected_charge: self.injected_charge[i],
                            },
                        });
                        states.len() - 1
                    });
                    last = Some((key, g));
                    g
                }
            };
            group_of.push(g);
        }
        gnr_telemetry::counter_add!("population.ops", 1);
        gnr_telemetry::counter_add!("population.cells", indices.len() as u64);
        gnr_telemetry::counter_add!("population.groups", states.len() as u64);
        gnr_telemetry::histogram_record!("population.groups_per_op", states.len() as u64);
        (group_of, states)
    }

    /// Writes the absolute post-op group states back to every member.
    /// Absolute (not delta) write-back is what keeps the grouped path
    /// bit-identical to a dedicated per-cell loop — a delta would
    /// re-associate the wear accumulation (`w + (d₁ + d₂)` instead of
    /// `(w + d₁) + d₂`) and drift in the last ulp over multi-pulse
    /// operations.
    fn write_back(&mut self, indices: &[usize], group_of: &[usize], states: &[GroupState]) {
        for (&i, &g) in indices.iter().zip(group_of) {
            let s = &states[g];
            self.charge[i] = s.charge;
            self.injected_charge[i] = s.stats.injected_charge;
            self.program_ops[i] = s.stats.program_ops;
            self.erase_ops[i] = s.stats.erase_ops;
        }
    }

    /// Runs a *columnar* driver over the state groups of `indices`: the
    /// driver mutates the [`GroupState`] column through a
    /// [`PulseColumns`] executor (one engine per variant, one sorted
    /// flow-map column per `(variant, pulse)` bucket) and returns one
    /// result per group; the absolute outcome is written back to every
    /// member, and the results come back as [`CellOutcomes`]. This is
    /// the fixed-width-pulse fast path — see the module docs for when
    /// it engages.
    ///
    /// Crate-visible so the [`crate::pe`] operation layer can run its
    /// own columnar algorithms (adaptive ISPP, soft-program compaction)
    /// through the same machinery.
    pub(crate) fn run_columnar<R, F>(
        &mut self,
        indices: &[usize],
        batch: &BatchSimulator,
        driver: F,
    ) -> CellOutcomes<R>
    where
        F: for<'a> FnOnce(&mut PulseColumns<'a>, &mut [GroupState]) -> Vec<Result<R>>,
    {
        let (group_of, mut states) = self.group_states(indices);
        let results = {
            let mut cols = PulseColumns::new(&self.variants, batch, self.backend_kind, self.pcm);
            driver(&mut cols, &mut states)
        };
        debug_assert_eq!(results.len(), states.len(), "one result per group");
        self.write_back(indices, &group_of, &states);
        CellOutcomes { group_of, results }
    }

    /// Jumps `cycles` whole P/E cycles of `recipe` for every cell in
    /// `indices` — the epoch kernel of long-horizon endurance
    /// campaigns.
    ///
    /// Cells are state-grouped exactly like the pulse kernels, then the
    /// group probes are **deduplicated by `(variant, charge bits)`**: a
    /// cycle jump depends only on where the charge starts, so groups
    /// that differ merely in wear history share one probe. Each unique
    /// probe answers through the variant's cached
    /// [`CycleMap`] (O(log cycles) Hermite
    /// evaluations, explicit pulse-by-pulse fallback outside its span);
    /// batch-ineligible engines (exact mode, custom tolerances) iterate
    /// every cycle explicitly through [`cyclemap::cycle_once`], which
    /// honours their per-pulse contract. Probes fan out over `batch`
    /// order-preserving, so parallel and sequential runs agree bitwise.
    ///
    /// Counters advance in closed form for the identical-recipe run:
    /// per cycle one program op, one erase op, and the composed wear
    /// table's `Σ|ΔQ|` onto the injected-charge column.
    ///
    /// # Errors
    ///
    /// The first listed cell's engine failure ([`ArrayError::Device`])
    /// from a fallback integration; failed groups keep their pre-epoch
    /// state.
    pub fn run_epoch(
        &mut self,
        indices: &[usize],
        batch: &BatchSimulator,
        recipe: &CycleRecipe,
        cycles: u64,
    ) -> Result<EpochReport> {
        let mut report = EpochReport {
            cells: indices.len(),
            ..EpochReport::default()
        };
        if indices.is_empty() || cycles == 0 {
            return Ok(report);
        }
        if let Some(pcm) = self.pcm {
            return self.run_epoch_pcm(&pcm, indices, batch, recipe, cycles, report);
        }
        let (group_of, mut states) = self.group_states(indices);
        report.groups = states.len();

        // One engine (and, when eligible, one shared cycle map) per
        // variant actually present.
        let mut lanes: Vec<Option<(ChargeBalanceEngine, Option<Arc<CycleMap>>)>> =
            vec![None; self.variants.len()];
        for s in &states {
            let v = s.variant as usize;
            if lanes[v].is_none() {
                let engine = batch.engine_for(&self.variants[v].device);
                let map = engine.cycle_map(recipe);
                lanes[v] = Some((engine, map));
            }
        }

        // Unique (variant, charge) probes, in first-seen order.
        let mut probe_of: FnvHashMap<(u32, u64), usize> = FnvHashMap::default();
        let mut probes: Vec<(u32, f64)> = Vec::new();
        for s in &states {
            probe_of
                .entry((s.variant, s.charge.to_bits()))
                .or_insert_with(|| {
                    probes.push((s.variant, s.charge));
                    probes.len() - 1
                });
        }
        report.map_probes = probes.len();
        for &(v, q) in &probes {
            let covered = lanes[v as usize]
                .as_ref()
                .and_then(|(_, map)| map.as_ref())
                .is_some_and(|map| map.covers(q));
            if !covered {
                report.fallback_probes += 1;
            }
        }
        // Recorded here, on the caller thread before the probe fan-out,
        // so the journal stays deterministic under rayon.
        gnr_telemetry::counter_add!("population.epoch.probes", report.map_probes as u64);
        gnr_telemetry::counter_add!("population.epoch.fallbacks", report.fallback_probes as u64);
        if report.fallback_probes > 0 {
            gnr_telemetry::journal::record(gnr_telemetry::journal::EventKind::CycleMapFallback {
                probes: report.fallback_probes as u64,
            });
        }

        // Answer the probes over the batch fan-out (order-preserving).
        let lanes_ref = &lanes;
        let probes_ref = &probes;
        const PROBE_CHUNK: usize = 64;
        let answers: Vec<Result<CycleOutcome>> = batch
            .map_chunks(probes.len(), PROBE_CHUNK, |start, len| {
                probes_ref[start..start + len]
                    .iter()
                    .map(|&(v, q)| {
                        let (engine, map) = lanes_ref[v as usize]
                            .as_ref()
                            .expect("variant lane built above");
                        let out = match map {
                            Some(map) => map.iterate(engine, q, cycles),
                            None => (|| {
                                let mut q = q;
                                let mut wear = 0.0;
                                for _ in 0..cycles {
                                    let step = cyclemap::cycle_once(engine, recipe, q)?;
                                    q = step.charge;
                                    wear += step.wear;
                                }
                                Ok(CycleOutcome { charge: q, wear })
                            })(),
                        };
                        out.map_err(ArrayError::Device)
                    })
                    .collect::<Vec<Result<CycleOutcome>>>()
            })
            .into_iter()
            .flatten()
            .collect();

        let results: Vec<Result<()>> = states
            .iter_mut()
            .map(|s| {
                let probe = probe_of[&(s.variant, s.charge.to_bits())];
                match &answers[probe] {
                    Ok(out) => {
                        s.charge = out.charge;
                        s.stats.injected_charge += out.wear;
                        s.stats.program_ops += cycles;
                        s.stats.erase_ops += cycles;
                        Ok(())
                    }
                    Err(e) => Err(e.clone()),
                }
            })
            .collect();
        self.write_back(indices, &group_of, &states);
        CellOutcomes { group_of, results }.check(..)?;
        Ok(report)
    }

    /// The PCM arm of [`Self::run_epoch`]: no cycle maps apply, so
    /// **every** deduplicated `(variant, charge)` probe is a fallback
    /// that iterates its cycles through the closed-form kinetics —
    /// with one shortcut the physics licenses: the exponential
    /// relaxation converges to a bitwise fixed point within a few
    /// cycles, after which every remaining cycle repeats the same state
    /// and wear exactly, so the loop jumps the tail in one multiply.
    fn run_epoch_pcm(
        &mut self,
        pcm: &PcmDevice,
        indices: &[usize],
        batch: &BatchSimulator,
        recipe: &CycleRecipe,
        cycles: u64,
        mut report: EpochReport,
    ) -> Result<EpochReport> {
        let (group_of, mut states) = self.group_states(indices);
        report.groups = states.len();

        // Unique charge probes, in first-seen order (single variant:
        // PCM populations never carry FG process variation).
        let mut probe_of: FnvHashMap<u64, usize> = FnvHashMap::default();
        let mut probes: Vec<f64> = Vec::new();
        for s in &states {
            probe_of.entry(s.charge.to_bits()).or_insert_with(|| {
                probes.push(s.charge);
                probes.len() - 1
            });
        }
        report.map_probes = probes.len();
        report.fallback_probes = probes.len();
        gnr_telemetry::counter_add!("population.epoch.probes", report.map_probes as u64);
        gnr_telemetry::counter_add!("population.epoch.fallbacks", report.fallback_probes as u64);
        gnr_telemetry::journal::record(gnr_telemetry::journal::EventKind::CycleMapFallback {
            probes: report.fallback_probes as u64,
        });

        let probes_ref = &probes;
        const PROBE_CHUNK: usize = 64;
        let answers: Vec<CycleOutcome> = batch
            .map_chunks(probes.len(), PROBE_CHUNK, |start, len| {
                probes_ref[start..start + len]
                    .iter()
                    .map(|&a0| {
                        let mut a = a0;
                        let mut wear = 0.0;
                        let mut remaining = cycles;
                        while remaining > 0 {
                            let mut next = a;
                            let mut cycle_wear = 0.0;
                            for pulse in recipe.pulses() {
                                if let Some(a1) = pcm.pulse_final_fraction(
                                    pulse.amplitude.as_volts(),
                                    pulse.width.as_seconds(),
                                    next,
                                ) {
                                    cycle_wear += pcm.wear_increment(next, a1);
                                    next = a1;
                                }
                            }
                            remaining -= 1;
                            if next.to_bits() == a.to_bits() {
                                // Bitwise fixed point: every further
                                // cycle repeats this one exactly.
                                wear += cycle_wear * (remaining as f64 + 1.0);
                                break;
                            }
                            wear += cycle_wear;
                            a = next;
                        }
                        CycleOutcome { charge: a, wear }
                    })
                    .collect::<Vec<CycleOutcome>>()
            })
            .into_iter()
            .flatten()
            .collect();

        for s in &mut states {
            let out = &answers[probe_of[&s.charge.to_bits()]];
            s.charge = out.charge;
            s.stats.injected_charge += out.wear;
            s.stats.program_ops += cycles;
            s.stats.erase_ops += cycles;
        }
        self.write_back(indices, &group_of, &states);
        Ok(report)
    }

    fn check(&self, i: usize) -> Result<()> {
        if i < self.len() {
            Ok(())
        } else {
            Err(ArrayError::AddressOutOfRange {
                kind: "cell",
                index: i,
                len: self.len(),
            })
        }
    }

    /// The shared variant table — the columnar executor's device source
    /// ([`crate::column`] tests build a [`PulseColumns`] directly).
    #[cfg(test)]
    pub(crate) fn variants_for_columns(&self) -> &[DeviceVariant] {
        &self.variants
    }

    fn variant(&self, i: usize) -> Result<usize> {
        self.check(i)?;
        Ok(self.variant_of[i] as usize)
    }

    /// Builds the device for a delta pair and appends it to the variant
    /// table (no lookup — callers have already checked for sharing).
    fn push_variant(&mut self, xto: f64, barrier_ev: f64) -> Result<u32> {
        let device = self.build_variant_device(xto, barrier_ev)?;
        let cfc_farads = device.capacitances().cfc().as_farads();
        self.variants.push(DeviceVariant {
            xto_delta: xto,
            barrier_delta_ev: barrier_ev,
            device,
            cfc_farads,
        });
        Ok(u32::try_from(self.variants.len() - 1).expect("variant table fits u32"))
    }

    /// Builds the blueprint with a perturbed tunnel oxide and channel
    /// barrier — the same perturbation model as
    /// `gnr_flash::variation::run_variation`, applied around *this*
    /// population's blueprint.
    fn build_variant_device(&self, xto: f64, barrier_ev: f64) -> Result<FloatingGateTransistor> {
        if xto == 0.0 && barrier_ev == 0.0 {
            return Ok(self.blueprint.clone());
        }
        let geometry = *self.blueprint.geometry();
        let xto_nm = geometry.tunnel_oxide_thickness().as_nanometers() * (1.0 + xto);
        let barrier = self.blueprint.channel_emission_model().barrier().as_ev() + barrier_ev;
        let oxide_affinity = self.blueprint.tunnel_oxide().electron_affinity().as_ev();
        if xto_nm <= 0.5 || barrier <= 0.5 {
            return Err(ArrayError::Snapshot(format!(
                "unphysical variation deltas: xto {xto:+.3}, barrier {barrier_ev:+.3} eV"
            )));
        }
        let geom = geometry.with_tunnel_oxide(Length::from_nanometers(xto_nm))?;
        let device = FgtBuilder::default()
            .name(format!("{}+var", self.blueprint.name()))
            .geometry(geom)
            .gcr(self.blueprint.capacitances().gcr())
            .total_capacitance(self.blueprint.capacitances().total())
            .tunnel_oxide(self.blueprint.tunnel_oxide().clone())
            .control_oxide(self.blueprint.control_oxide().clone())
            .channel_work_function(Energy::from_ev(barrier + oxide_affinity))
            .floating_gate_work_function(self.blueprint.floating_gate_work_function())
            .control_gate_work_function(self.blueprint.control_gate_work_function())
            .build()?;
        Ok(device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnr_units::Time;

    #[test]
    fn uniform_population_shares_one_variant() {
        let pop = CellPopulation::paper(1000);
        assert_eq!(pop.len(), 1000);
        assert_eq!(pop.variant_count(), 1);
        assert_eq!(pop.bytes_per_cell(), 36);
        assert_eq!(pop.read(0).unwrap(), LogicState::Erased1);
    }

    #[test]
    fn grouped_program_matches_single_cell_bitwise() {
        let mut pop = CellPopulation::paper(8);
        let programmer = IsppProgrammer::nominal();
        let batch = BatchSimulator::sequential();
        let reports = pop.program_cells(&programmer, &[0, 1, 2, 3], &batch);

        let mut reference = FlashCell::paper_cell();
        let engine = batch.engine_for(reference.device());
        let expected = programmer.program_with(&mut reference, &engine).unwrap();

        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.as_ref().unwrap(), &expected);
            assert_eq!(
                pop.charge(i).unwrap().as_coulombs(),
                reference.charge().as_coulombs(),
                "cell {i}"
            );
            assert_eq!(pop.stats(i).unwrap(), reference.stats());
        }
        // Unselected cells untouched.
        assert_eq!(pop.charge(5).unwrap().as_coulombs(), 0.0);
        assert_eq!(pop.stats(5).unwrap().program_ops, 0);
    }

    /// A paper-cell population whose cell `k` starts at threshold shift
    /// `vts[layout[k]]`, with the starting charges.
    fn population_at(vts: [f64; 3], layout: &[usize]) -> (CellPopulation, Vec<Charge>) {
        let mut pop = CellPopulation::paper(layout.len());
        let cfc = pop.blueprint().capacitances().cfc().as_farads();
        let starts: Vec<Charge> = layout
            .iter()
            .map(|&s| Charge::from_coulombs(-vts[s] * cfc))
            .collect();
        for (i, &q) in starts.iter().enumerate() {
            pop.set_charge(i, q).unwrap();
        }
        (pop, starts)
    }

    /// `outcomes` against the scalar path — `reference` run on a
    /// standalone cell from each listed cell's starting charge: results
    /// (errors included) and state columns bitwise, and every span's
    /// `check` against the first `Err` that `iter()` yields there.
    fn assert_matches_scalar<R: PartialEq + std::fmt::Debug>(
        pop: &CellPopulation,
        starts: &[Charge],
        outcomes: &CellOutcomes<R>,
        reference: impl Fn(&mut FlashCell, &ChargeBalanceEngine) -> Result<R>,
    ) {
        let batch = BatchSimulator::sequential();
        assert_eq!(outcomes.len(), starts.len());
        for (i, (got, &q)) in outcomes.iter().zip(starts).enumerate() {
            let mut cell = FlashCell::paper_cell();
            cell.set_charge(q);
            let engine = batch.engine_for(cell.device());
            assert_eq!(got, &reference(&mut cell, &engine), "cell {i}");
            assert_eq!(outcomes.get(i), Some(got), "cell {i}");
            assert_eq!(
                pop.charge(i).unwrap().as_coulombs().to_bits(),
                cell.charge().as_coulombs().to_bits(),
                "cell {i}"
            );
            let (a, b) = (pop.stats(i).unwrap(), cell.stats());
            assert_eq!(
                (a.program_ops, a.erase_ops, a.injected_charge.to_bits()),
                (b.program_ops, b.erase_ops, b.injected_charge.to_bits()),
                "cell {i}"
            );
        }
        assert!(outcomes.get(starts.len()).is_none());
        for start in 0..=starts.len() {
            for end in start..=starts.len() {
                let expected = outcomes
                    .iter()
                    .skip(start)
                    .take(end - start)
                    .find_map(|r| r.as_ref().err())
                    .map_or(Ok(()), |e| Err(e.clone()));
                assert_eq!(outcomes.check(start..end), expected, "span {start}..{end}");
            }
        }
    }

    #[test]
    fn outcomes_match_the_scalar_path_under_verify_failures() {
        // Cell k starts in state LAYOUT[k]. Under the one shallow rung,
        // state 0 verifies before the rung and states 1 and 2 fail with
        // different reached thresholds, so the first failing cell
        // (position 1) is not in the first group.
        const LAYOUT: [usize; 8] = [0, 1, 2, 0, 2, 1, 0, 0];
        let one_rung = |volts: f64| {
            gnr_flash::pulse::IsppLadder::new(
                Voltage::from_volts(volts),
                Voltage::from_volts(0.5),
                Voltage::from_volts(volts),
                Time::from_microseconds(0.1),
            )
        };
        let batch = BatchSimulator::sequential();
        let indices: Vec<usize> = (0..LAYOUT.len()).collect();

        let programmer = IsppProgrammer::new(one_rung(13.0), Voltage::from_volts(2.0));
        let (mut pop, starts) = population_at([2.5, 0.0, -1.0], &LAYOUT);
        let outcomes = pop.program_cells(&programmer, &indices, &batch);
        assert!(outcomes.get(0).unwrap().is_ok());
        assert!(matches!(
            outcomes.check(..),
            Err(ArrayError::VerifyFailed { pulses: 1, .. })
        ));
        assert_matches_scalar(&pop, &starts, &outcomes, |cell, engine| {
            programmer.program_with(cell, engine)
        });

        // An already-erased level below every start sends each cell
        // through the erase ladder.
        let eraser = IsppEraser::new(one_rung(-13.0), Voltage::from_volts(0.3));
        let (mut pop, starts) = population_at([0.0, 2.5, 4.0], &LAYOUT);
        let outcomes =
            pop.erase_block_cells(&eraser, Voltage::from_volts(-100.0), &indices, &batch);
        assert!(outcomes.get(0).unwrap().is_ok());
        assert!(matches!(
            outcomes.check(..),
            Err(ArrayError::VerifyFailed { pulses: 1, .. })
        ));
        assert_matches_scalar(&pop, &starts, &outcomes, |cell, engine| {
            eraser.erase_with(cell, engine).map(|_| ())
        });
    }

    #[test]
    fn grouped_disturb_matches_cell_path_bitwise() {
        let mut pop = CellPopulation::paper(4);
        let bias = crate::disturb::DisturbBias::default();
        pop.apply_disturb_cells(&[0, 1], bias.v_pass_program, bias.program_exposure, 250);

        let mut cell = FlashCell::paper_cell();
        crate::disturb::apply_disturb(&mut cell, bias.v_pass_program, bias.program_exposure, 250);
        assert_eq!(
            pop.charge(0).unwrap().as_coulombs(),
            cell.charge().as_coulombs()
        );
        assert_eq!(pop.charge(2).unwrap().as_coulombs(), 0.0);
    }

    #[test]
    fn pulse_noop_below_threshold() {
        let mut pop = CellPopulation::paper(3);
        let results = pop.apply_pulse_cells(
            &[0, 1, 2],
            SquarePulse::new(Voltage::from_volts(0.5), Time::from_microseconds(100.0)),
            &BatchSimulator::sequential(),
        );
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(pop.charge(0).unwrap().as_coulombs(), 0.0);
    }

    #[test]
    fn variation_builds_shared_variants() {
        let pop = CellPopulation::with_variation(
            FloatingGateTransistor::mlgnr_cnt_paper(),
            50,
            &PopulationVariation::default(),
        )
        .unwrap();
        // Gaussian draws are distinct, so ~every cell gets its own build.
        assert!(pop.variant_count() > 1);
        let (stats_j, stats_vfg) = pop
            .variation_stats(gnr_flash::presets::program_vgs())
            .unwrap();
        assert_eq!(stats_j.count, 50);
        assert!(stats_j.std_dev > 0.0);
        assert!((stats_vfg.median - 9.0).abs() < 1.0);
    }

    #[test]
    fn snapshot_round_trips_state_through_json() {
        let mut pop = CellPopulation::with_variation(
            FloatingGateTransistor::mlgnr_cnt_paper(),
            6,
            &PopulationVariation::default(),
        )
        .unwrap();
        pop.set_charge(3, Charge::from_electrons(-120.0)).unwrap();
        let json = serde_json::to_string(&pop.snapshot()).unwrap();
        let decoded: PopulationSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(decoded, pop.snapshot());
        let gnr = CellBackend::gnr(FloatingGateTransistor::mlgnr_cnt_paper());
        let rebuilt = CellPopulation::restore_backend(&gnr, decoded).unwrap();
        assert_eq!(rebuilt, pop);
    }

    #[test]
    fn vt_column_matches_scalar_accessor() {
        let mut pop = CellPopulation::paper(40);
        pop.set_charge(7, Charge::from_electrons(-80.0)).unwrap();
        let column = pop.vt_shift_column(&BatchSimulator::new());
        for (i, vt) in column.iter().enumerate() {
            assert_eq!(*vt, pop.vt_shift(i).unwrap().as_volts());
        }
    }

    #[test]
    fn out_of_range_indices_rejected() {
        let pop = CellPopulation::paper(2);
        assert!(matches!(
            pop.charge(2),
            Err(ArrayError::AddressOutOfRange { .. })
        ));
        assert!(pop.cell(5).is_err());
    }
}
