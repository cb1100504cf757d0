//! Fault-injection integration: seeded [`FaultPlan`]s drive grown-bad
//! blocks, program-status failures, stuck cells and soft read flips
//! through the hardened FTL.
//!
//! The acceptance floors pinned here mirror the robustness criteria:
//! a fault-churn run that retires ≥5 % of blocks and absorbs ≥1 %
//! program-fails must complete with **zero lost live logical pages**,
//! and spare-pool exhaustion must degrade to a clean
//! [`ArrayError::ReadOnly`] — reads keep succeeding — on every device
//! backend. Fault decisions are pure functions of `(seed, local
//! state)`, so the proptests can demand bit-exact determinism and
//! query-order independence.

use gnr_flash::backend::{BackendKind, CellBackend};
use gnr_flash_array::controller::FlashController;
use gnr_flash_array::fault::{replay_ops, FaultPlan};
use gnr_flash_array::nand::NandConfig;
use gnr_flash_array::workload::{GcChurnSource, PagePattern, TraceSource};
use gnr_flash_array::ArrayError;
use proptest::prelude::*;

/// SplitMix64 finalizer for picking churn targets without a stateful
/// RNG.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn fault_churn_retires_blocks_without_losing_live_pages() {
    let config = NandConfig {
        blocks: 24,
        pages_per_block: 4,
        page_width: 16,
    };
    let plan = FaultPlan {
        // Two explicit grown-bad blocks guarantee the retirement floor;
        // the seeded program-fail lottery supplies the rest.
        bad_block_after_erases: vec![(1, 2), (5, 3)],
        program_fail_probability: 0.015,
        ..FaultPlan::seeded(0x000f_a117)
    };
    let mut c = FlashController::new(config)
        .with_fault_tolerance(14)
        .with_faults(Some(plan));
    let capacity = c.logical_capacity();
    assert!(capacity > 0);

    let writes = 400usize;
    let mut mirror: Vec<Option<Vec<bool>>> = vec![None; capacity];
    for i in 0..writes {
        let lpn = (mix(0xc4a1, i as u64) % capacity as u64) as usize;
        let data = PagePattern::Seeded { seed: i as u64 }.expand(config.page_width);
        c.write_logical(lpn, &data)
            .unwrap_or_else(|e| panic!("write {i} (lpn {lpn}) failed: {e}"));
        mirror[lpn] = Some(data);
    }

    // ≥5 % of blocks retired, ≥1 % of host writes hit a program fail.
    assert!(
        c.retired_blocks() * 100 >= config.blocks * 5,
        "only {} of {} blocks retired",
        c.retired_blocks(),
        config.blocks
    );
    assert!(
        c.program_fail_count() as usize * 100 >= writes,
        "only {} program fails across {writes} writes",
        c.program_fail_count()
    );
    assert!(!c.read_only(), "spare pool sized to absorb this churn");

    // Zero lost live logical pages: every page reads back its last
    // committed copy, bit-exact.
    for (lpn, data) in mirror.iter().enumerate() {
        let Some(data) = data else { continue };
        assert_eq!(
            c.read_logical(lpn).unwrap(),
            *data,
            "live logical page {lpn} lost or corrupted"
        );
    }
    assert_eq!(
        c.live_logical_pages().len(),
        mirror.iter().filter(|d| d.is_some()).count()
    );
}

#[test]
fn spare_exhaustion_degrades_to_read_only_on_every_backend() {
    let config = NandConfig {
        blocks: 4,
        pages_per_block: 2,
        page_width: 8,
    };
    let capacity = FlashController::new(config)
        .with_fault_tolerance(1)
        .logical_capacity();
    // Each case: the fault plan, a block retired up front (spending the
    // single spare) and the logical pages written, in order.
    let cases: Vec<(FaultPlan, Option<usize>, Vec<usize>)> = vec![
        // Every block grows bad on its first erase: the second
        // retirement overruns the single spare.
        (
            FaultPlan {
                bad_block_after_erases: (0..config.blocks).map(|b| (b, 1)).collect(),
                ..FaultPlan::seeded(3)
            },
            None,
            (0..64).map(|i| i % capacity).collect(),
        ),
        // The spare is already spent when GC picks block 0 (one live
        // page, lpn 1) as its victim and the medium refuses the erase:
        // the survivor's cells are intact, so it must stay readable.
        (
            FaultPlan {
                bad_block_after_erases: vec![(0, 1)],
                ..FaultPlan::seeded(3)
            },
            Some(3),
            vec![0, 1, 2, 3, 0, 2, 3],
        ),
    ];
    for kind in [
        BackendKind::GnrFloatingGate,
        BackendKind::CntFloatingGate,
        BackendKind::PcmResistive,
    ] {
        for (plan, retire_first, lpns) in &cases {
            let backend = CellBackend::preset(kind);
            let mut c = FlashController::with_backend(config, &backend)
                .with_fault_tolerance(1)
                .with_faults(Some(plan.clone()));
            if let Some(block) = *retire_first {
                c.retire_block(block).unwrap();
            }

            let mut mirror: Vec<Option<Vec<bool>>> = vec![None; capacity];
            let mut read_only_seen = false;
            for (i, &lpn) in lpns.iter().enumerate() {
                let data = PagePattern::Seeded { seed: i as u64 }.expand(config.page_width);
                match c.write_logical(lpn, &data) {
                    Ok(_) => mirror[lpn] = Some(data),
                    Err(ArrayError::ReadOnly) => {
                        read_only_seen = true;
                        break;
                    }
                    Err(e) => panic!("{}: unexpected write error: {e}", kind.name()),
                }
            }
            // Degradation is an error, not a panic — and it is sticky.
            assert!(read_only_seen, "{}: never degraded", kind.name());
            assert!(c.read_only(), "{}", kind.name());
            assert!(matches!(
                c.write_logical(0, &vec![false; config.page_width]),
                Err(ArrayError::ReadOnly)
            ));
            // Reads still succeed after degradation: grown-bad blocks fail
            // erase, not read, so every committed copy stays reachable.
            for (lpn, data) in mirror.iter().enumerate() {
                let Some(data) = data else { continue };
                assert_eq!(
                    c.read_logical(lpn).unwrap(),
                    *data,
                    "{}: lpn {lpn} unreadable after read-only degradation",
                    kind.name()
                );
            }
        }
    }
}

/// The seeded faulted churn of an 8×4×16 controller with a quarter of
/// its blocks held as spares — one explicit grown-bad block, 5 % more
/// growing bad within [2, 8] erases and a 0.5 % program-fail lottery —
/// keeps every live logical page readable on every device backend.
#[test]
fn faulted_churn_keeps_live_pages_readable_on_every_backend() {
    let config = NandConfig {
        blocks: 8,
        pages_per_block: 4,
        page_width: 16,
    };
    let plan = FaultPlan {
        bad_block_after_erases: vec![(1, 2)],
        grown_bad_fraction: 0.05,
        grown_bad_min_erases: 2,
        grown_bad_max_erases: 8,
        program_fail_probability: 0.005,
        ..FaultPlan::seeded(0xfa17_b3c4)
    };
    for kind in [
        BackendKind::GnrFloatingGate,
        BackendKind::CntFloatingGate,
        BackendKind::PcmResistive,
    ] {
        let mut c = FlashController::with_backend(config, &CellBackend::preset(kind))
            .with_fault_tolerance(config.blocks / 4)
            .with_faults(Some(plan.clone()));
        let capacity = c.logical_capacity();
        let source = GcChurnSource::new(capacity, 2 * capacity, 0xbead);
        replay_ops(&mut c, &source, 0, source.len())
            .unwrap_or_else(|e| panic!("{}: faulted churn failed: {e}", kind.name()));
        assert!(
            c.retired_blocks() >= 1,
            "{}: the explicit grown-bad block must retire",
            kind.name()
        );
        for lpn in c.live_logical_pages() {
            assert!(
                c.read_logical(lpn).is_ok(),
                "{}: live logical page {lpn} unreadable after the faulted churn",
                kind.name()
            );
        }
    }
}

#[test]
fn stuck_cells_and_read_flips_are_deterministic_and_visible() {
    let config = NandConfig {
        blocks: 3,
        pages_per_block: 2,
        page_width: 16,
    };
    let plan = FaultPlan {
        stuck_cell_fraction: 0.3,
        read_flip_probability: 0.1,
        ..FaultPlan::seeded(11)
    };
    let mut c = FlashController::new(config).with_faults(Some(plan.clone()));
    let written = PagePattern::Seeded { seed: 77 }.expand(config.page_width);
    c.write_logical(0, &written).unwrap();

    // Re-reads inside one erase generation reproduce the same bits —
    // flips are drawn per (cell, generation), not per read.
    let first = c.read_logical(0).unwrap();
    let second = c.read_logical(0).unwrap();
    assert_eq!(first, second);
    assert_ne!(first, written, "a 30 % stuck fraction must be visible");

    // Stuck cells dominate whatever was programmed, at exactly the
    // columns the plan's pure lottery names.
    let addr = c.physical_of(0).unwrap();
    let mut stuck_seen = 0;
    for (column, bit) in first.iter().enumerate() {
        let cell = c.array().cell_index(addr.block, addr.page, column);
        if let Some(stuck) = plan.stuck_bit(cell) {
            assert_eq!(*bit, stuck, "column {column} ignores its stuck-at");
            stuck_seen += 1;
        }
    }
    assert!(
        stuck_seen > 0,
        "seed 11 must stick at least one of 16 cells"
    );

    // The same array without a plan reads back clean.
    let mut clean = FlashController::new(config);
    clean.write_logical(0, &written).unwrap();
    assert_eq!(clean.read_logical(0).unwrap(), written);
}

/// A faulted churn run reduced to its digest; errors (e.g. spare
/// exhaustion under an aggressive plan) truncate the run identically
/// on every replay, so the digest is still well-defined.
fn faulted_churn_digest(plan: &FaultPlan, trace_seed: u64) -> u64 {
    let config = NandConfig {
        blocks: 8,
        pages_per_block: 2,
        page_width: 8,
    };
    let mut c = FlashController::new(config)
        .with_fault_tolerance(2)
        .with_faults(Some(plan.clone()));
    let capacity = c.logical_capacity();
    let source = GcChurnSource::new(capacity, 2 * capacity, trace_seed);
    let _ = replay_ops(&mut c, &source, 0, capacity + 2 * capacity);
    c.state_digest()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fault decisions are pure functions of `(seed, local state)`:
    /// evaluating any query set forwards and backwards gives identical
    /// answers — no hidden sequencing state.
    #[test]
    fn fault_decisions_are_query_order_independent(
        seed in 0u64..u64::MAX,
        raw_queries in proptest::collection::vec(0u64..u64::MAX, 1..64),
    ) {
        // Each raw word unpacks into one (block, page, generation)
        // query — the shim has no tuple strategies.
        let queries: Vec<(usize, usize, u64)> = raw_queries
            .iter()
            .map(|q| ((q % 64) as usize, ((q >> 8) % 8) as usize, (q >> 16) % 4))
            .collect();
        let plan = FaultPlan {
            grown_bad_fraction: 0.3,
            grown_bad_min_erases: 1,
            grown_bad_max_erases: 4,
            stuck_cell_fraction: 0.1,
            read_flip_probability: 0.1,
            program_fail_probability: 0.1,
            ..FaultPlan::seeded(seed)
        };
        let ask = |&(block, page, generation): &(usize, usize, u64)| {
            (
                plan.program_fails(block, page, generation),
                plan.block_goes_bad(block, generation),
                plan.stuck_bit(block * 8 + page),
                plan.read_flips(block * 8 + page, generation),
                plan.grown_bad_threshold(block),
            )
        };
        let forward: Vec<_> = queries.iter().map(ask).collect();
        let mut backward: Vec<_> = queries.iter().rev().map(ask).collect();
        backward.reverse();
        prop_assert_eq!(forward, backward);
    }

    /// The same seeded plan over the same trace reproduces the full
    /// controller state digest; a different fault seed diverges the
    /// trajectory.
    #[test]
    fn seeded_fault_plans_replay_deterministically(seed in 0u64..u64::MAX) {
        let plan = FaultPlan {
            program_fail_probability: 0.05,
            read_flip_probability: 0.02,
            ..FaultPlan::seeded(seed)
        };
        let a = faulted_churn_digest(&plan, 0x5eed);
        let b = faulted_churn_digest(&plan, 0x5eed);
        prop_assert_eq!(a, b);
        let c = faulted_churn_digest(&plan, 0x5eed ^ 0x5a5a);
        prop_assert_ne!(a, c);
    }
}
