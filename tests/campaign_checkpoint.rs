//! Campaign checkpointing: restore-equals-uninterrupted, bit for bit.
//!
//! An endurance campaign checkpointed at *any* step boundary — mid-epoch
//! (between cycle chunks) or mid-observation-window (between replay
//! segments) — and resumed from the serialized JSON in a "fresh process"
//! (everything rebuilt from the blueprint + checkpoint alone) must land
//! on the same final controller digest, the same margin digest and the
//! same reliability trajectory as the run that never stopped.

use gnr_flash::device::FloatingGateTransistor;
use gnr_flash_array::controller::FlashController;
use gnr_flash_array::ispp::nominal_cycle_recipe;
use gnr_flash_array::margins;
use gnr_flash_array::nand::NandConfig;
use gnr_flash_array::workload::{CampaignCheckpoint, CampaignRunner, EnduranceCampaign};
use gnr_reliability::ber::BerModel;
use gnr_reliability::codec::EccConfig;
use gnr_reliability::uber::{ReliabilityObserver, ReliabilityPoint};

fn config() -> NandConfig {
    NandConfig {
        blocks: 3,
        pages_per_block: 2,
        page_width: 16,
    }
}

fn campaign() -> EnduranceCampaign {
    EnduranceCampaign {
        rounds: 2,
        cycles_per_round: 5,
        // Chunked epochs: steps advance 2, 2, 1 cycles, so checkpoints
        // can land mid-epoch.
        epoch_chunk: 2,
        recipe: nominal_cycle_recipe().unwrap(),
        // Window length = capacity (4) + 5 = 9 ops; segments of 3 put
        // checkpoints mid-window too.
        window_overwrites: 5,
        window_segment: 3,
        window_seed: 0xC0FFEE,
    }
}

fn observer() -> ReliabilityObserver {
    ReliabilityObserver::new(&EccConfig::Bch { m: 4, t: 2 }, BerModel::default(), None).unwrap()
}

/// Runs the whole campaign in one process; returns the final digests
/// and the full reliability trajectory.
fn uninterrupted() -> (u64, u64, Vec<ReliabilityPoint>) {
    let c = campaign();
    let mut controller = FlashController::new(config());
    let mut obs = observer();
    let mut runner = CampaignRunner::new(&c);
    runner.run_to_end(&mut controller, &mut obs).unwrap();
    (
        controller.state_digest(),
        margins::state_digest(controller.array()),
        obs.trajectory,
    )
}

/// Runs `prefix` steps, checkpoints through JSON, then resumes from the
/// decoded checkpoint as a fresh process would (new controller, new
/// runner, new observer with only the pass counter restored) and
/// finishes the campaign.
fn resumed_after(prefix: usize) -> (u64, u64, Vec<ReliabilityPoint>) {
    let c = campaign();
    let mut controller = FlashController::new(config());
    let mut obs = observer();
    let mut runner = CampaignRunner::new(&c);
    for _ in 0..prefix {
        runner
            .step(&mut controller, &mut obs)
            .unwrap()
            .expect("prefix must not exhaust the campaign");
    }
    let checkpoint = CampaignCheckpoint {
        controller: controller.snapshot(),
        state: runner.state(),
    };
    let json = serde_json::to_string(&checkpoint).unwrap();
    let passes = obs.next_pass();
    let mut prefix_trajectory = obs.trajectory;

    // "New process": everything below is rebuilt from the blueprint and
    // the JSON alone.
    let decoded: CampaignCheckpoint = serde_json::from_str(&json).unwrap();
    let mut controller = FlashController::restore(
        FloatingGateTransistor::mlgnr_cnt_paper(),
        decoded.controller,
    )
    .unwrap();
    let c2 = campaign();
    let mut runner = CampaignRunner::resume(&c2, decoded.state);
    let mut obs = observer();
    obs.set_next_pass(passes);
    runner.run_to_end(&mut controller, &mut obs).unwrap();
    prefix_trajectory.extend(obs.trajectory);
    (
        controller.state_digest(),
        margins::state_digest(controller.array()),
        prefix_trajectory,
    )
}

#[test]
fn resume_is_digest_identical_to_uninterrupted() {
    let (digest, margin_digest, trajectory) = uninterrupted();
    // Step layout per round: 3 epoch chunks + 3 window segments.
    // Prefix 1/2 checkpoint mid-epoch, 4/5 mid-window, 7 mid-epoch of
    // round 2, 10 mid-window of round 2.
    for prefix in [1, 2, 4, 5, 7, 10] {
        let (r_digest, r_margin, r_trajectory) = resumed_after(prefix);
        assert_eq!(
            r_digest, digest,
            "controller digest diverged after resume at step {prefix}"
        );
        assert_eq!(
            r_margin, margin_digest,
            "margin digest diverged after resume at step {prefix}"
        );
        assert_eq!(
            r_trajectory, trajectory,
            "reliability trajectory diverged after resume at step {prefix}"
        );
    }
}

#[test]
fn snapshot_restore_round_trips_without_stepping() {
    let mut controller = FlashController::new(config());
    let c = campaign();
    let mut runner = CampaignRunner::new(&c);
    let mut obs = observer();
    for _ in 0..3 {
        runner.step(&mut controller, &mut obs).unwrap();
    }
    let digest = controller.state_digest();
    let snap = controller.snapshot();
    let json = serde_json::to_string(&snap).unwrap();
    let decoded: gnr_flash_array::controller::ControllerSnapshot =
        serde_json::from_str(&json).unwrap();
    let restored =
        FlashController::restore(FloatingGateTransistor::mlgnr_cnt_paper(), decoded).unwrap();
    assert_eq!(restored.state_digest(), digest);
    assert_eq!(restored.live_pages(), controller.live_pages());
    assert_eq!(
        restored.wear_stats().unwrap().total_erases,
        controller.wear_stats().unwrap().total_erases
    );
}
