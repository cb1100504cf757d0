//! JSON decoding of every persisted type: the values an `f64`-only
//! number model would corrupt round-trip exactly, and malformed input
//! is an `Err` — never a panic, and never a defaulted, rounded or
//! saturated value.

use std::fmt::Debug;

use gnr_flash::device::FloatingGateTransistor;
use gnr_flash::telemetry::journal::{EventKind, JournalEvent, JournalSnapshot};
use gnr_flash::telemetry::DEFAULT_BACKEND;
use gnr_flash_array::controller::{
    ControllerSnapshot, CrashImage, FlashController, MetaCheckpoint, MetaDelta,
};
use gnr_flash_array::nand::{ArraySnapshot, NandConfig};
use gnr_flash_array::population::{CellPopulation, PopulationSnapshot, PopulationVariation};
use gnr_flash_array::workload::{
    CampaignCheckpoint, CampaignPhase, CampaignState, PagePattern, WorkloadOp, WorkloadTrace,
};
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Serializes, parses and decodes `value`, asserting the decoded value
/// equals it and re-serializes to the same text.
fn round_trip<T: Serialize + Deserialize + PartialEq + Debug>(value: &T) -> String {
    let json = serde_json::to_string(value).unwrap();
    let decoded: T = serde_json::from_str(&json).unwrap();
    assert_eq!(&decoded, value);
    assert_eq!(serde_json::to_string(&decoded).unwrap(), json);
    json
}

/// A controller over a tiny array with crash consistency on, after a
/// write, an overwrite (one stale page) and a second logical page.
fn controller() -> FlashController {
    let config = NandConfig {
        blocks: 2,
        pages_per_block: 2,
        page_width: 2,
    };
    let mut c = FlashController::new(config).with_crash_consistency(100);
    c.write_logical(0, &[false, true]).unwrap();
    c.write_logical(0, &[true, false]).unwrap();
    c.write_logical(1, &[false, false]).unwrap();
    c
}

fn campaign_state() -> CampaignState {
    CampaignState {
        round: 1,
        phase: CampaignPhase::Window { ops_done: 3 },
    }
}

fn meta_deltas() -> Vec<MetaDelta> {
    vec![
        MetaDelta::MapSet { lpn: 2, slot: -1 },
        MetaDelta::StateSet { slot: 3, code: -2 },
        MetaDelta::NextSlot { value: 1 },
        MetaDelta::NextLpn { value: 4 },
        MetaDelta::Counters {
            reclaim_erases: 1,
            gc_erases: 2,
            gc_relocations: 3,
            program_fails: 4,
        },
        MetaDelta::BlockRetired { block: 1 },
        MetaDelta::ReadOnly,
        MetaDelta::MetaReset,
    ]
}

fn event_kinds() -> Vec<EventKind> {
    vec![
        EventKind::Reclaim { block: 1 },
        EventKind::GcErase {
            block: 1,
            survivors: 2,
        },
        EventKind::GcRelocation {
            lpn: 3,
            block: 1,
            page: 0,
        },
        EventKind::EpochJump { cycles: 1000 },
        EventKind::CheckpointRestore { digest: u64::MAX },
        EventKind::FlowMapEscape { queries: 5 },
        EventKind::CycleMapFallback { probes: 6 },
        EventKind::DecodeFailure { pages: 7 },
        EventKind::ReadRetryStep { depth: 2 },
        EventKind::ProgramFail { block: 1, page: 1 },
        EventKind::BlockRetired {
            block: 1,
            relocated: 2,
        },
        EventKind::PowerLoss { pending_deltas: 3 },
        EventKind::RecoveryReplay { deltas: 4 },
        EventKind::ReadReclaim { block: 1, pages: 2 },
    ]
}

fn patterns() -> Vec<PagePattern> {
    vec![
        PagePattern::AllProgrammed,
        PagePattern::AllErased,
        PagePattern::Checkerboard { phase: true },
        PagePattern::Seeded { seed: 9 },
    ]
}

fn trace() -> WorkloadTrace {
    WorkloadTrace {
        name: "mixed".into(),
        ops: vec![
            WorkloadOp::Write {
                lpn: None,
                pattern: PagePattern::AllErased,
            },
            WorkloadOp::Write {
                lpn: Some(2),
                pattern: PagePattern::Seeded { seed: 5 },
            },
            WorkloadOp::Read { lpn: 1 },
            WorkloadOp::EraseBlock { block: 0 },
        ],
    }
}

#[test]
fn u64_max_seeds_round_trip_exactly() {
    let json = round_trip(&PagePattern::Seeded { seed: u64::MAX });
    assert!(json.contains("18446744073709551615"), "{json}");

    let variation = PopulationVariation {
        seed: u64::MAX,
        ..PopulationVariation::default()
    };
    let json = serde_json::to_string(&variation).unwrap();
    let value: Value = serde_json::from_str(&json).unwrap();
    assert_eq!(value.field::<u64>("seed"), Ok(u64::MAX));
}

#[test]
fn negative_state_codes_round_trip_exactly() {
    let meta: MetaCheckpoint = controller().snapshot().meta;
    assert!(
        meta.state.contains(&-1) && meta.state.contains(&-2),
        "{meta:?}"
    );
    assert!(meta.map.contains(&-1), "{meta:?}");
    round_trip(&meta);
    for delta in meta_deltas() {
        round_trip(&delta);
    }
}

#[test]
fn checkpoint_digests_above_2_pow_53_round_trip_exactly() {
    for digest in [(1u64 << 53) + 1, 0xc36e_c1a2_b87d_0fee, u64::MAX] {
        let event = JournalEvent {
            op: u64::MAX,
            backend: "cnt-floating-gate",
            kind: EventKind::CheckpointRestore { digest },
        };
        let json = round_trip(&event);
        assert!(json.contains(&digest.to_string()), "{json}");
    }
}

#[test]
fn negative_zero_keeps_its_sign_bit() {
    let mut snapshot = CellPopulation::paper(2).snapshot();
    snapshot.charge[1] = -0.0;
    snapshot.injected_charge[0] = -0.0;
    round_trip(&snapshot);
    let decoded: PopulationSnapshot =
        serde_json::from_str(&serde_json::to_string(&snapshot).unwrap()).unwrap();
    assert_eq!(decoded.charge[1].to_bits(), (-0.0f64).to_bits());
    assert_eq!(decoded.injected_charge[0].to_bits(), (-0.0f64).to_bits());
    assert_eq!(decoded.charge[0].to_bits(), snapshot.charge[0].to_bits());
}

#[test]
fn journal_events_without_a_backend_decode_as_the_default() {
    let json = r#"{"op":4,"kind":"reclaim","block":2}"#;
    let event: JournalEvent = serde_json::from_str(json).unwrap();
    assert_eq!(event.backend, DEFAULT_BACKEND);
    assert_eq!(event.kind, EventKind::Reclaim { block: 2 });
}

#[test]
fn newtypes_and_unit_enums_derive_both_ways() {
    // Shapes the derive supports that no persisted type uses today.
    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    #[serde(transparent)]
    struct Volts(f64);
    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    enum Mode {
        Exact,
        FlowMap,
    }
    assert_eq!(round_trip(&Volts(-2.5)), "-2.5");
    assert_eq!(round_trip(&Mode::FlowMap), "\"FlowMap\"");
    assert!(serde_json::from_str::<Mode>("\"flow_map\"").is_err());
    assert!(serde_json::from_str::<Volts>("\"2.5\"").is_err());
}

/// Every single-point corruption of a JSON tree, each paired with
/// whether decoding it must fail outright. The others may decode only
/// to a value that re-serializes to exactly the corrupted tree, such as
/// `-1` in a signed field or another trace name.
fn corruptions(value: &Value) -> Vec<(Value, bool)> {
    let mut out = match value {
        Value::Int(_) => vec![
            (Value::Number(0.5), true),
            (Value::String("7".into()), true),
            (Value::Int(-1), false),
            (Value::Int(1 << 32), false),
            (Value::Int(1 << 64), false),
        ],
        Value::Number(_) => vec![(Value::String("0.5".into()), true), (Value::Null, true)],
        Value::Bool(_) => vec![(Value::Int(1), true)],
        Value::String(_) => vec![
            (Value::Int(0), true),
            (Value::String("no_such_kind".into()), false),
        ],
        Value::Null => vec![(Value::Bool(true), true)],
        Value::Array(_) => vec![(Value::Object(Vec::new()), true)],
        Value::Object(_) => vec![(Value::Array(Vec::new()), true)],
    };
    match value {
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                for (bad, strict) in corruptions(item) {
                    let mut items = items.clone();
                    items[i] = bad;
                    out.push((Value::Array(items), strict));
                }
            }
        }
        Value::Object(fields) => {
            for (i, (name, field)) in fields.iter().enumerate() {
                // A missing `backend` is the documented default (see
                // `journal_events_without_a_backend_decode_as_the_default`).
                if name != "backend" {
                    let mut fields = fields.clone();
                    fields.remove(i);
                    out.push((Value::Object(fields), true));
                }
                for (bad, strict) in corruptions(field) {
                    let mut fields = fields.clone();
                    fields[i].1 = bad;
                    out.push((Value::Object(fields), strict));
                }
            }
        }
        _ => {}
    }
    out
}

/// Decodes every corruption of `sample`'s JSON; returns how many were
/// rejected.
fn reject_corruptions<T: Serialize + Deserialize + Debug>(sample: &T) -> usize {
    let mut rejected = 0;
    for (bad, strict) in corruptions(&sample.to_value()) {
        let text = bad.to_json();
        match serde_json::from_str::<T>(&text) {
            Err(_) => rejected += 1,
            Ok(decoded) => {
                assert!(!strict, "decoded {decoded:?} from malformed {text}");
                assert_eq!(
                    serde_json::to_string(&decoded).unwrap(),
                    text,
                    "decoding altered a value instead of rejecting it"
                );
            }
        }
    }
    rejected
}

#[test]
fn malformed_input_is_rejected_for_every_decoded_type() {
    let c = controller();
    let snapshot: ControllerSnapshot = c.snapshot();
    let image: CrashImage = c.crash_image().unwrap();
    assert!(!image.deltas.is_empty());
    let array: ArraySnapshot = snapshot.array.clone();
    let population = CellPopulation::with_variation(
        FloatingGateTransistor::mlgnr_cnt_paper(),
        2,
        &PopulationVariation::default(),
    )
    .unwrap()
    .snapshot();
    let events: Vec<JournalEvent> = event_kinds()
        .into_iter()
        .enumerate()
        .map(|(op, kind)| JournalEvent {
            op: op as u64,
            backend: "pcm-resistive",
            kind,
        })
        .collect();

    let mut rejected = vec![
        reject_corruptions(&array.config),
        reject_corruptions(&population),
        reject_corruptions(&array),
        reject_corruptions(&snapshot.meta),
        reject_corruptions(&snapshot),
        reject_corruptions(&image),
        reject_corruptions(&campaign_state()),
        reject_corruptions(&CampaignPhase::Epoch { cycles_done: 7 }),
        reject_corruptions(&CampaignCheckpoint {
            controller: snapshot,
            state: campaign_state(),
        }),
        reject_corruptions(&trace()),
        reject_corruptions(&JournalSnapshot {
            recorded: 20,
            dropped: 6,
            capacity: 14,
            events: events.clone(),
        }),
    ];
    rejected.extend(meta_deltas().iter().map(reject_corruptions));
    rejected.extend(patterns().iter().map(reject_corruptions));
    rejected.extend(trace().ops.iter().map(reject_corruptions));
    rejected.extend(event_kinds().iter().map(reject_corruptions));
    rejected.extend(events.iter().map(reject_corruptions));
    assert!(rejected.iter().all(|&n| n > 0), "{rejected:?}");
}

#[test]
fn specific_malformations_are_errors() {
    // A missing field and a wrong JSON type.
    assert!(serde_json::from_str::<NandConfig>(r#"{"blocks":2,"pages_per_block":2}"#).is_err());
    let config = r#"{"blocks":"2","pages_per_block":2,"page_width":2}"#;
    assert!(serde_json::from_str::<NandConfig>(config).is_err());
    // An unknown kind, and a tagged enum written as a bare name.
    assert!(serde_json::from_str::<WorkloadOp>(r#"{"kind":"teleport","lpn":1}"#).is_err());
    assert!(serde_json::from_str::<CampaignState>(r#"{"round":0,"phase":"Epoch"}"#).is_err());
    // Fractional and negative numbers in unsigned fields.
    assert!(serde_json::from_str::<WorkloadOp>(r#"{"kind":"read","lpn":1.5}"#).is_err());
    assert!(serde_json::from_str::<MetaDelta>(r#"{"kind":"next_slot","value":-1}"#).is_err());
    // Past the usize range, and past every integer width.
    let block = r#"{"kind":"erase_block","block":18446744073709551616}"#;
    assert!(serde_json::from_str::<WorkloadOp>(block).is_err());
    assert!(serde_json::from_str::<EventKind>(r#"{"kind":"reclaim","block":1e30}"#).is_err());
    // A seed in the old string layout is a type error, not a number.
    assert!(serde_json::from_str::<PagePattern>(r#"{"kind":"seeded","seed":"42"}"#).is_err());
}
