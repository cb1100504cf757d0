//! Property tests of the telemetry event journal: JSON round-trips are
//! bit-identical and capacity pressure always evicts oldest-first.

use gnr_flash::telemetry;
use gnr_flash::telemetry::journal::{
    self, EventKind, JournalEvent, JournalSnapshot, DEFAULT_CAPACITY,
};
use proptest::prelude::*;

/// One of the fourteen event kinds, derived deterministically from a
/// seed.
fn event_for(selector: u64, p: u64) -> EventKind {
    match selector % 14 {
        0 => EventKind::Reclaim { block: p },
        1 => EventKind::GcErase {
            block: p,
            survivors: p / 3,
        },
        2 => EventKind::GcRelocation {
            lpn: p,
            block: p % 64,
            page: p % 4,
        },
        3 => EventKind::EpochJump { cycles: p },
        4 => EventKind::CheckpointRestore { digest: p },
        5 => EventKind::FlowMapEscape { queries: p },
        6 => EventKind::CycleMapFallback { probes: p },
        7 => EventKind::DecodeFailure { pages: p },
        8 => EventKind::ReadRetryStep { depth: p % 5 },
        9 => EventKind::ProgramFail {
            block: p % 64,
            page: p % 8,
        },
        10 => EventKind::BlockRetired {
            block: p % 64,
            relocated: p % 8,
        },
        11 => EventKind::PowerLoss { pending_deltas: p },
        12 => EventKind::RecoveryReplay { deltas: p },
        _ => EventKind::ReadReclaim {
            block: p % 64,
            pages: p % 8,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serialize → parse → decode → re-serialize is the identity, and
    /// the two JSON strings are bit-identical.
    #[test]
    fn journal_snapshot_json_round_trips(
        seed in 0u64..u64::MAX,
        len in 0usize..24,
    ) {
        let events: Vec<JournalEvent> = (0..len)
            .map(|i| {
                let s = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64);
                JournalEvent {
                    op: s,
                    backend: match s % 3 {
                        0 => "gnr-floating-gate",
                        1 => "cnt-floating-gate",
                        _ => "pcm-resistive",
                    },
                    kind: event_for(s, s.rotate_left(17)),
                }
            })
            .collect();
        let snapshot = JournalSnapshot {
            recorded: len as u64 + (seed & 0xffff),
            dropped: seed & 0xffff,
            capacity: DEFAULT_CAPACITY as u64,
            events,
        };

        let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
        let decoded: JournalSnapshot = serde_json::from_str(&json).expect("snapshot decodes");
        prop_assert_eq!(&decoded, &snapshot);
        let json_again = serde_json::to_string(&decoded).expect("decoded re-serializes");
        prop_assert_eq!(json, json_again);
    }

    /// Under capacity pressure the ring keeps exactly the newest
    /// `capacity` events, and the recorded/dropped totals account for
    /// every eviction.
    #[test]
    fn ring_keeps_the_newest_events_under_capacity_pressure(
        capacity in 1usize..16,
        total in 0usize..48,
    ) {
        struct Cleanup;
        impl Drop for Cleanup {
            fn drop(&mut self) {
                journal::set_capacity(DEFAULT_CAPACITY);
                journal::clear();
                telemetry::set_op_index(0);
                telemetry::set_enabled(false);
            }
        }
        let _cleanup = Cleanup;

        telemetry::set_enabled(true);
        journal::clear();
        journal::set_capacity(capacity);
        for i in 0..total {
            telemetry::set_op_index(i as u64);
            journal::record(EventKind::Reclaim { block: i as u64 });
        }

        let snap = journal::snapshot();
        let kept = total.min(capacity);
        prop_assert_eq!(snap.recorded, total as u64);
        prop_assert_eq!(snap.dropped, (total - kept) as u64);
        prop_assert_eq!(snap.events.len(), kept);
        for (offset, event) in snap.events.iter().enumerate() {
            prop_assert_eq!(event.op, (total - kept + offset) as u64);
        }
    }
}
