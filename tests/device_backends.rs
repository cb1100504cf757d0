//! The device-backend abstraction, exercised end to end: one array
//! stack (population → NAND → FTL → workload replay → reliability
//! scan) over three cell physics.
//!
//! * **GNR-FG** — the paper device; the backend-threaded constructor
//!   path must be *bit-identical* to the pre-refactor blueprint path.
//! * **CNT-FG** — the `materials::cnt` preset through the same FN
//!   flow-map machinery.
//! * **PCM** — set/reset dynamics over a crystalline-fraction state
//!   variable, exercising the closed-form escape where no FN flow map
//!   applies (recorded in the journal as `flow_map_escape`).
//!
//! Several globals (the telemetry journal, the active-backend tag) are
//! process-wide, and constructing any backend population re-stamps the
//! tag — every test here serializes on one mutex.

use std::sync::Mutex;

use gnr_flash::backend::{BackendKind, CellBackend};
use gnr_flash::device::FloatingGateTransistor;
use gnr_flash::telemetry;
use gnr_flash::telemetry::journal::{self, EventKind};
use gnr_flash_array::controller::FlashController;
use gnr_flash_array::nand::{NandArray, NandConfig};
use gnr_flash_array::workload::{replay, ReplayOptions, WorkloadTrace};
use gnr_reliability::ber::BerModel;
use gnr_reliability::codec::EccConfig;
use gnr_reliability::uber::scan_array;

static BACKEND_TESTS: Mutex<()> = Mutex::new(());

fn shape() -> NandConfig {
    NandConfig {
        blocks: 4,
        pages_per_block: 4,
        page_width: 16,
    }
}

/// A fresh controller of the given backend, churned through the same
/// seeded GC workload, reduced to its full-state digest.
fn churn_digest(backend: &CellBackend, seed: u64) -> u64 {
    let mut controller = FlashController::with_backend(shape(), backend);
    let capacity = controller.logical_capacity();
    replay(
        &mut controller,
        &WorkloadTrace::gc_churn(2 * capacity, capacity, seed),
        &ReplayOptions {
            snapshot_interval: 0,
            margin_scan: false,
        },
        &mut (),
    )
    .expect("churn replays");
    controller.state_digest()
}

#[test]
fn every_backend_replays_churn_deterministically() {
    let _lock = BACKEND_TESTS.lock().unwrap();
    let mut digests = Vec::new();
    for kind in [
        BackendKind::GnrFloatingGate,
        BackendKind::CntFloatingGate,
        BackendKind::PcmResistive,
    ] {
        let backend = CellBackend::preset(kind);
        let a = churn_digest(&backend, 0xbead);
        let b = churn_digest(&backend, 0xbead);
        assert_eq!(a, b, "{}: same seed must reproduce the digest", kind.name());
        let c = churn_digest(&backend, 0xf00d);
        assert_ne!(a, c, "{}: the digest must track the workload", kind.name());
        digests.push((kind, a));
    }
    // Different cell physics under the identical workload must land on
    // different states — the backends are not aliases of each other.
    for (i, &(ka, da)) in digests.iter().enumerate() {
        for &(kb, db) in &digests[i + 1..] {
            assert_ne!(da, db, "{} vs {}", ka.name(), kb.name());
        }
    }
}

#[test]
fn gnr_backend_path_is_bit_identical_to_the_blueprint_path() {
    let _lock = BACKEND_TESTS.lock().unwrap();
    let config = shape();
    let options = ReplayOptions {
        snapshot_interval: 0,
        margin_scan: true,
    };
    let trace = WorkloadTrace::gc_churn(24, config.logical_pages(), 0x5eed);

    // Pre-refactor construction: blueprint-typed all the way down.
    let mut old = FlashController::new(config);
    replay(&mut old, &trace, &options, &mut ()).expect("blueprint path replays");

    // Backend-threaded construction over the same device.
    let gnr = CellBackend::gnr(FloatingGateTransistor::mlgnr_cnt_paper());
    let mut new = FlashController::with_backend(config, &gnr);
    replay(&mut new, &trace, &options, &mut ()).expect("backend path replays");

    assert_eq!(old.state_digest(), new.state_digest());
    let old_pop = old.array().population();
    let new_pop = new.array().population();
    for i in 0..old_pop.len() {
        assert_eq!(
            old_pop.charge(i).unwrap().as_coulombs().to_bits(),
            new_pop.charge(i).unwrap().as_coulombs().to_bits(),
            "cell {i} charge must match bitwise"
        );
    }

    // And the snapshot seam: a blueprint snapshot restores through the
    // backend entry point to the identical digest.
    let snapshot = old.snapshot();
    let restored = FlashController::restore_backend(&gnr, snapshot).expect("backend restore");
    assert_eq!(restored.state_digest(), old.state_digest());
}

#[test]
fn pcm_programs_escape_the_flow_map_and_journal_it() {
    let _lock = BACKEND_TESTS.lock().unwrap();
    let was_enabled = telemetry::enabled();
    telemetry::set_enabled(true);
    journal::clear();

    // ISPP programming rides rungs above the 12 V switching threshold,
    // so every columnar batch escapes the flow-map tier.
    let pcm = CellBackend::preset(BackendKind::PcmResistive);
    let mut array = NandArray::with_backend(shape(), &pcm);
    array
        .program_page(0, 0, &vec![false; shape().page_width])
        .expect("PCM page programs");

    let snap = journal::snapshot();
    journal::clear();
    telemetry::set_enabled(was_enabled);

    let escapes: Vec<_> = snap
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::FlowMapEscape { .. }))
        .collect();
    assert!(
        !escapes.is_empty(),
        "PCM programming must record flow_map_escape events, journal: {snap:?}"
    );
    for event in escapes {
        assert_eq!(event.backend, "pcm-resistive");
        let EventKind::FlowMapEscape { queries } = event.kind else {
            unreachable!()
        };
        assert!(queries > 0, "escape events must count escaped queries");
    }
}

/// Programs every page of a backend array with seeded patterns and
/// scans it; returns the reliability point.
fn uber_point(backend: &CellBackend) -> gnr_reliability::uber::ReliabilityPoint {
    let config = shape();
    let mut array = NandArray::with_backend(config, backend);
    for block in 0..config.blocks {
        for page in 0..config.pages_per_block {
            let seed = (block * config.pages_per_block + page) as u64;
            let bits: Vec<bool> = (0..config.page_width)
                .map(|c| (seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (c % 60)) & 1 == 1)
                .collect();
            array.program_page(block, page, &bits).expect("programs");
        }
    }
    array.settle();
    let ber = BerModel::default();
    let truth = ber.noiseless_bits(array.population(), array.batch());
    let codec = EccConfig::HammingSecDed { data_bits: 11 }
        .build()
        .expect("codec builds");
    scan_array(&array, &truth, codec.as_ref(), &ber, None, 0).expect("scan runs")
}

#[test]
fn cnt_and_pcm_uber_scans_are_deterministic() {
    let _lock = BACKEND_TESTS.lock().unwrap();
    for kind in [BackendKind::CntFloatingGate, BackendKind::PcmResistive] {
        let backend = CellBackend::preset(kind);
        let a = uber_point(&backend);
        let b = uber_point(&backend);
        assert_eq!(a, b, "{}: scan must be deterministic", kind.name());
        assert!(
            a.rber.is_finite() && (0.0..=1.0).contains(&a.rber),
            "{}: rber {}",
            kind.name(),
            a.rber
        );
        assert!(a.uber <= a.rber, "{}: ECC must not add errors", kind.name());
    }
}

#[test]
fn backend_populations_announce_themselves_to_telemetry() {
    let _lock = BACKEND_TESTS.lock().unwrap();
    for kind in [
        BackendKind::PcmResistive,
        BackendKind::CntFloatingGate,
        BackendKind::GnrFloatingGate,
    ] {
        let _array = NandArray::with_backend(shape(), &CellBackend::preset(kind));
        assert_eq!(telemetry::active_backend(), kind.name());
        assert_eq!(telemetry::snapshot().backend, kind.name());
    }
}
