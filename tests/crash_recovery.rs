//! Power-loss crash consistency, swept exhaustively: a GC-churn trace
//! is cut at **every** op-clock index, and the controller restored from
//! its checkpoint (array medium + the journal's metadata copy +
//! journaled deltas) must be digest-identical to the uninterrupted run
//! at the cut — and finish the trace to the identical final digest.
//!
//! The sweep runs under fault injection (a grown-bad block retires and
//! relocates mid-trace), so retirement, relocation and spare-pool
//! bookkeeping all cross the power cut through the delta journal.

use gnr_flash::backend::{BackendKind, CellBackend};
use gnr_flash_array::controller::{Checkpoint, FlashController};
use gnr_flash_array::fault::{crash_and_recover, replay_ops, FaultPlan};
use gnr_flash_array::nand::NandConfig;
use gnr_flash_array::workload::{GcChurnSource, TraceSource};

fn shape() -> NandConfig {
    NandConfig {
        blocks: 4,
        pages_per_block: 2,
        page_width: 8,
    }
}

/// A short checkpoint interval so power cuts land mid-delta-window —
/// the interesting case: recovery must replay journaled deltas, not
/// just reload a fresh checkpoint.
const CHECKPOINT_INTERVAL: u64 = 3;

fn plan(trace_len: usize) -> FaultPlan {
    FaultPlan {
        // Block 2 grows bad on its second erase: one mid-trace
        // retirement with live-page relocation, within the one spare.
        bad_block_after_erases: vec![(2, 2)],
        power_loss_ops: (0..trace_len as u64).collect(),
        ..FaultPlan::seeded(0x00c0_ffee)
    }
}

fn build_controller(backend: &CellBackend, plan: &FaultPlan) -> FlashController {
    FlashController::with_backend(shape(), backend)
        .with_fault_tolerance(1)
        .with_crash_consistency(CHECKPOINT_INTERVAL)
        .with_faults(Some(plan.clone()))
}

#[test]
fn power_loss_at_every_op_recovers_digest_identical() {
    let backend = CellBackend::preset(BackendKind::GnrFloatingGate);
    let capacity = {
        let probe = FlashController::with_backend(shape(), &backend).with_fault_tolerance(1);
        probe.logical_capacity()
    };
    let source = GcChurnSource::new(capacity, 5 * capacity, 0x5eed);
    let len = source.len();
    let plan = plan(len);

    // The uninterrupted reference run, with its digest pinned at every
    // op-clock prefix.
    let mut reference = build_controller(&backend, &plan);
    let mut prefix_digests = Vec::with_capacity(len + 1);
    prefix_digests.push(reference.state_digest());
    for i in 0..len {
        replay_ops(&mut reference, &source, i, i + 1).unwrap();
        prefix_digests.push(reference.state_digest());
    }
    let final_digest = reference.state_digest();
    assert!(
        reference.retired_blocks() >= 1,
        "the trace must exercise retirement across the cut"
    );

    // Cut power at every injected op-clock point of the plan.
    let mut cuts = 0;
    for (crash_op, prefix) in prefix_digests.iter().take(len).enumerate() {
        if !plan.loses_power_at(crash_op as u64) {
            continue;
        }
        cuts += 1;
        let outcome = crash_and_recover(
            &backend,
            &|| build_controller(&backend, &plan),
            &plan,
            &source,
            crash_op,
        )
        .unwrap_or_else(|e| panic!("crash at op {crash_op} failed: {e}"));
        assert_eq!(
            outcome.digest_at_crash, *prefix,
            "running digest diverged before the cut at op {crash_op}"
        );
        assert_eq!(
            outcome.recovered_digest, outcome.digest_at_crash,
            "recovery lost state at op {crash_op} ({} deltas replayed)",
            outcome.deltas_replayed
        );
        assert_eq!(
            outcome.final_digest, final_digest,
            "post-recovery replay diverged after the cut at op {crash_op}"
        );
    }
    assert_eq!(cuts, len, "the sweep must cut at every op index");
}

#[test]
fn crash_image_round_trips_through_json() {
    let backend = CellBackend::preset(BackendKind::CntFloatingGate);
    let plan = FaultPlan::seeded(9);
    let mut c = build_controller(&backend, &plan);
    let capacity = c.logical_capacity();
    let source = GcChurnSource::new(capacity, capacity, 0xfeed);
    // Stop mid-delta-window so the checkpoint carries live deltas.
    replay_ops(&mut c, &source, 0, capacity + 1).unwrap();

    let json = serde_json::to_string(&c.checkpoint()).unwrap();
    let decoded: Checkpoint = serde_json::from_str(&json).unwrap();
    let recovered = FlashController::restore(&backend, decoded).unwrap();
    assert_eq!(recovered.state_digest(), c.state_digest());
    assert_eq!(recovered.live_pages(), c.live_pages());

    // And the recovered controller keeps going bit-identically.
    let mut recovered = recovered;
    recovered.set_faults(Some(plan.clone()));
    replay_ops(&mut c, &source, capacity + 1, source.len()).unwrap();
    replay_ops(&mut recovered, &source, capacity + 1, source.len()).unwrap();
    assert_eq!(recovered.state_digest(), c.state_digest());
}

#[test]
fn restored_journal_survives_a_second_power_cut() {
    // A checkpoint of a crash-consistent controller restores
    // crash-consistent: the journal is re-armed with an empty delta log,
    // so a second power cut shortly after the restore still recovers
    // digest-identical to the run that never lost power.
    let backend = CellBackend::preset(BackendKind::GnrFloatingGate);
    let plan = FaultPlan::seeded(3);
    let mut reference = build_controller(&backend, &plan);
    let capacity = reference.logical_capacity();
    let source = GcChurnSource::new(capacity, 2 * capacity, 0xbeef);
    replay_ops(&mut reference, &source, 0, capacity + 1).unwrap();

    let mut restored = FlashController::restore(&backend, reference.checkpoint()).unwrap();
    restored.set_faults(Some(plan.clone()));
    assert!(restored.crash_consistent());
    assert_eq!(restored.pending_deltas(), 0);
    let bits = vec![true; shape().page_width];
    restored.write_logical(0, &bits).unwrap();
    reference.write_logical(0, &bits).unwrap();
    assert!(restored.pending_deltas() > 0);

    // The second cut lands two ops after the restore, inside the
    // re-armed journal's first delta window.
    replay_ops(&mut restored, &source, capacity + 1, capacity + 2).unwrap();
    replay_ops(&mut reference, &source, capacity + 1, capacity + 2).unwrap();
    assert!(restored.pending_deltas() > 0);
    let recovered = FlashController::restore(&backend, restored.checkpoint()).unwrap();
    assert!(recovered.crash_consistent());
    assert_eq!(recovered.state_digest(), restored.state_digest());
    assert_eq!(recovered.state_digest(), reference.state_digest());
}
