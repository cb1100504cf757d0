//! The bounded event journal: a fixed-capacity ring of structured
//! FTL/engine events.
//!
//! Events are recorded only from code that runs on the replay caller
//! thread (controller bookkeeping, the column-kernel escape summary,
//! epoch pre-fan-out aggregation, replay observers) — never from inside
//! a rayon fan-out — so the journal of an identical replay is
//! bit-identical. Each event is stamped with the op clock
//! ([`crate::set_op_index`]) at record time. When the ring is full the
//! oldest event is evicted; `recorded`/`dropped` totals keep the loss
//! visible.

use std::collections::VecDeque;

use parking_lot::Mutex;

/// Default ring capacity; override with [`set_capacity`].
pub const DEFAULT_CAPACITY: usize = 1024;

/// A structured FTL/engine event. Payload fields are the minimum needed
/// to replay-diff a trace; bulk statistics live in the metrics
/// registry, not here. Serializes as `{"kind": "<snake_case variant>",
/// ...fields}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum EventKind {
    /// The FTL ran out of free blocks on allocation and erased a
    /// fully-invalid block in place.
    Reclaim {
        /// Physical block erased.
        block: u64,
    },
    /// Garbage collection erased a victim block.
    GcErase {
        /// Physical block erased.
        block: u64,
        /// Live pages relocated out of the victim before the erase.
        survivors: u64,
    },
    /// Garbage collection relocated one live page.
    GcRelocation {
        /// Logical page moved.
        lpn: u64,
        /// Destination physical block.
        block: u64,
        /// Destination page within the block.
        page: u64,
    },
    /// The endurance campaign jumped the P/E epoch forward.
    EpochJump {
        /// Cycles advanced in the jump.
        cycles: u64,
    },
    /// Controller state was restored from a checkpoint.
    CheckpointRestore {
        /// State digest of the restored controller.
        digest: u64,
    },
    /// A flow-map batch left queries unanswered and fell back to exact
    /// ODE integration (one event per batch, aggregated).
    FlowMapEscape {
        /// Queries that escaped to the exact engine.
        queries: u64,
    },
    /// A cycle-map epoch batch had probes outside the map's domain and
    /// fell back per probe (one event per epoch, aggregated).
    CycleMapFallback {
        /// Probes that fell back.
        probes: u64,
    },
    /// An ECC decode scan saw uncorrectable pages.
    DecodeFailure {
        /// Uncorrectable pages in the scan.
        pages: u64,
    },
    /// A read-retry ladder had to step past the nominal threshold.
    ReadRetryStep {
        /// Deepest retry rung used (1 = first retry).
        depth: u64,
    },
    /// A page program reported a failed status (media or injected).
    ProgramFail {
        /// Block of the failed page.
        block: u64,
        /// Page index within the block.
        page: u64,
    },
    /// The FTL retired a grown-bad block into the spare pool.
    BlockRetired {
        /// The retired physical block.
        block: u64,
        /// Live pages relocated out of the block before retirement.
        relocated: u64,
    },
    /// Power was cut at an injected op-clock point; volatile FTL
    /// metadata past the last checkpoint survives only as journaled
    /// deltas.
    PowerLoss {
        /// Metadata deltas pending (not yet folded into a checkpoint)
        /// at the moment power was lost.
        pending_deltas: u64,
    },
    /// Crash recovery replayed the metadata delta journal onto the last
    /// checkpoint.
    RecoveryReplay {
        /// Deltas replayed onto the checkpoint.
        deltas: u64,
    },
    /// Read-reclaim escalation relocated a whole block's live pages
    /// (decode failures past threshold).
    ReadReclaim {
        /// The reclaimed physical block.
        block: u64,
        /// Live pages relocated out of it.
        pages: u64,
    },
}

/// One journal entry: an event stamped with the replay op index current
/// at record time. Serializes flat, as `op` and `backend` followed by
/// the [`EventKind`] object's fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalEvent {
    /// Op clock value when the event fired.
    pub op: u64,
    /// Active device backend ([`crate::active_backend`]) when the event
    /// fired.
    pub backend: &'static str,
    /// The structured event.
    pub kind: EventKind,
}

impl serde::Serialize for JournalEvent {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("op".to_string(), self.op.to_value()),
            ("backend".to_string(), self.backend.to_value()),
        ];
        if let serde::Value::Object(kind) = self.kind.to_value() {
            fields.extend(kind);
        }
        serde::Value::Object(fields)
    }
}

impl serde::Deserialize for JournalEvent {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        // Traces written before backend attribution existed decode as
        // the default backend.
        let backend = match value.get("backend") {
            Some(name) => intern_backend(&String::from_value(name)?),
            None => crate::DEFAULT_BACKEND,
        };
        Ok(Self {
            op: value.field("op")?,
            backend,
            kind: EventKind::from_value(value)?,
        })
    }
}

/// Maps a decoded backend name onto a `'static` string: the known
/// backends intern to their canonical literals, anything else is leaked
/// once (the set of names in any trace is tiny and fixed).
fn intern_backend(name: &str) -> &'static str {
    match name {
        "gnr-floating-gate" => "gnr-floating-gate",
        "cnt-floating-gate" => "cnt-floating-gate",
        "pcm-resistive" => "pcm-resistive",
        other => Box::leak(other.to_string().into_boxed_str()),
    }
}

struct Journal {
    events: VecDeque<JournalEvent>,
    capacity: usize,
    recorded: u64,
    dropped: u64,
}

static JOURNAL: Mutex<Journal> = Mutex::new(Journal {
    events: VecDeque::new(),
    capacity: DEFAULT_CAPACITY,
    recorded: 0,
    dropped: 0,
});

/// Records an event (stamped with the current op clock) if telemetry is
/// enabled; evicts the oldest entry when the ring is full.
pub fn record(kind: EventKind) {
    if !crate::enabled() {
        return;
    }
    let event = JournalEvent {
        op: crate::op_index(),
        backend: crate::active_backend(),
        kind,
    };
    let mut journal = JOURNAL.lock();
    journal.recorded += 1;
    if journal.events.len() >= journal.capacity {
        journal.events.pop_front();
        journal.dropped += 1;
    }
    journal.events.push_back(event);
}

/// Resizes the ring, evicting oldest entries if shrinking below the
/// current length. Capacity 0 is clamped to 1.
pub fn set_capacity(capacity: usize) {
    let capacity = capacity.max(1);
    let mut journal = JOURNAL.lock();
    while journal.events.len() > capacity {
        journal.events.pop_front();
        journal.dropped += 1;
    }
    journal.capacity = capacity;
}

/// Clears the ring and zeroes the `recorded`/`dropped` totals; the
/// capacity is kept.
pub fn clear() {
    let mut journal = JOURNAL.lock();
    journal.events.clear();
    journal.recorded = 0;
    journal.dropped = 0;
}

/// The retained events, oldest first.
#[must_use]
pub fn events() -> Vec<JournalEvent> {
    JOURNAL.lock().events.iter().copied().collect()
}

/// Frozen view of the journal ring in a [`crate::TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct JournalSnapshot {
    /// Events recorded since the last [`clear`], evicted ones included.
    pub recorded: u64,
    /// Events evicted by capacity pressure.
    pub dropped: u64,
    /// Ring capacity at snapshot time.
    pub capacity: u64,
    /// Retained events, oldest first.
    pub events: Vec<JournalEvent>,
}

/// Captures the current ring state.
#[must_use]
pub fn snapshot() -> JournalSnapshot {
    let journal = JOURNAL.lock();
    JournalSnapshot {
        recorded: journal.recorded,
        dropped: journal.dropped,
        capacity: journal.capacity as u64,
        events: journal.events.iter().copied().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize as _, Serialize as _};

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        crate::set_enabled(true);
        clear();
        set_capacity(4);
        for i in 0..10 {
            crate::set_op_index(i);
            record(EventKind::Reclaim { block: i });
        }
        let snap = snapshot();
        assert_eq!(snap.recorded, 10);
        assert_eq!(snap.dropped, 6);
        assert_eq!(snap.events.len(), 4);
        assert_eq!(snap.events[0].op, 6, "oldest retained event");
        assert_eq!(snap.events[3].op, 9, "newest event kept");
        crate::set_enabled(false);
        set_capacity(DEFAULT_CAPACITY);
        clear();
        crate::set_op_index(0);
    }

    #[test]
    fn digest_survives_json_round_trip() {
        let event = JournalEvent {
            op: 3,
            backend: "pcm-resistive",
            kind: EventKind::CheckpointRestore {
                digest: 0xc36e_c1a2_b87d_0fee,
            },
        };
        let parsed = JournalEvent::from_value(&event.to_value()).unwrap();
        assert_eq!(parsed, event);
    }

    #[test]
    fn unknown_backend_names_survive_decode() {
        let event = JournalEvent {
            op: 0,
            backend: "some-future-backend",
            kind: EventKind::Reclaim { block: 7 },
        };
        let parsed = JournalEvent::from_value(&event.to_value()).unwrap();
        assert_eq!(parsed, event);
    }
}
