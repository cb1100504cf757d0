//! The repository benchmark: three workloads on the 64×64×256
//! (1,048,576-cell) GNR floating-gate array, driven through the public
//! API of `gnr_flash_array`, `gnr_flash::engine` and `gnr_reliability`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <gc_churn|read_mix|endurance> --seconds S [--seed N] [--trace 0|1]
//! ```
//!
//! `--seed` (default 1) fixes every generated input, `--seconds` bounds
//! the measured phase, and `--trace 1` alternates untraced and traced
//! rounds and prints the per-layer metrics instead of the end-to-end
//! ones.
//!
//! A run sets its workload up anew before every round, so the set-ups
//! spread over the run like the rounds (set-up time is their median),
//! and runs set-up and round while one more pair still fits in
//! `--seconds` (at least two rounds). The output is checked outside the
//! timed op stream: every untraced round reads back every logical page
//! and compares it with the last data written, no op may fail, every
//! set-up must build the same state, and every round must end in the
//! same state digest, GC/erase counts and RBER/UBER trajectory as every
//! other round. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; a header (shape,
//! backend, cores, rayon threads, git revision), the round summary with
//! its op counts and, when traced, the zone profile go to standard
//! error.
//!
//! Latencies are per host op (host wall time). Each round replays the
//! same ops, so each op's latency is its lower quartile over the rounds
//! (see `workloads::per_op` for why not the median), and the
//! percentiles are taken over ops. `round_s` is the lower-quartile
//! round (one pass of the op stream, or one whole campaign on
//! `endurance`) and `ops_per_s` the op stream's length over its
//! lower-quartile wall time. Read latencies are the op stream's reads,
//! or the read-back's on workloads without any. Failed ops are the
//! result's `failed` over `attempted`.

mod layers;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use gnr_flash_array::controller::FlashController;

use crate::stats::{median, peak_rss_mib, quantile};
use crate::workloads::{
    latencies, lower_quartile_of, read_latencies, run_round, setup, OpKind, Prepared, Round,
    Workload, BACKEND, SHAPE,
};

/// Rounds per run at the least, so the cross-round checks always compare.
const MIN_ROUNDS: usize = 2;
const DEFAULT_SEED: u64 = 1;
/// Rayon workers; see [`pin_rayon`].
const RAYON_THREADS: usize = 1;
const USAGE: &str = "usage: perfbench --workload <gc_churn|read_mix|endurance> \
                     --seconds S [--seed N] [--trace 0|1]";

/// One named metric with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, None, false);
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| *s > 0.0 && s.is_finite())
                            .ok_or_else(|| format!("bad seconds `{value}`"))?,
                    );
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad trace `{value}`")),
                    };
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// Pins the rayon pool to one worker and returns the worker count.
///
/// The vendored rayon spawns fresh OS threads for every parallel call
/// once it has more than one worker, so each host op would pay thread
/// start-up and a wake-up on every core. On a shared host that cost
/// follows the neighbours' load, not the program: with two workers on
/// two cores, per-op latencies of one seed moved by 20–25% from run to
/// run. One worker runs every pipeline on the client thread.
fn pin_rayon() -> usize {
    rayon::ThreadPoolBuilder::new()
        .num_threads(RAYON_THREADS)
        .build_global()
        .expect("the rayon pool is sized before first use");
    rayon::current_num_threads()
}

/// Fixes glibc's mmap threshold at the ceiling its dynamic rule may
/// raise it to, 32 MiB. Left dynamic, it rises after the first large
/// free, and whether later large blocks are mapped or kept in a thread's
/// arena then depends on thread timing: the peak resident set of one
/// seed moved by ~50 MiB from run to run. At the ceiling, blocks stay in
/// the arenas as in a warmed-up dynamic process, and the timings match
/// the dynamic ones.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_mmap_threshold() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two integers and only changes allocator
    // tuning; it runs once, before this process starts any thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_mmap_threshold() {}

/// The checked-out commit, when the benchmark runs inside a git work
/// tree; `unknown` otherwise.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let revision = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let revision = revision.trim();
    if revision.is_empty() {
        "unknown".to_string()
    } else {
        revision.to_string()
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Whether a pass that started at `start` runs another step as long as
/// its last one, `last_s`: while it still ends within `seconds`, and at
/// least until `done` reaches [`MIN_ROUNDS`].
fn another(start: Instant, seconds: f64, last_s: f64, done: usize) -> bool {
    done < MIN_ROUNDS || start.elapsed().as_secs_f64() + last_s <= seconds
}

/// Every set-up of a run: its time and the digest of the state it built.
#[derive(Default)]
struct SetUps {
    seconds: Vec<f64>,
    digests: Vec<u64>,
}

impl SetUps {
    /// Sets `workload` up anew for `seed`, timing the set-up.
    fn next(&mut self, workload: Workload, seed: u64) -> Result<Prepared, String> {
        let t0 = Instant::now();
        let prepared = setup(workload, seed)?;
        self.seconds.push(t0.elapsed().as_secs_f64());
        self.digests.push(prepared.controller.state_digest());
        Ok(prepared)
    }
}

/// The untraced pass: set-up and a whole round with the read-back
/// check, while another pair fits in `seconds`.
fn untraced_pass(args: &Args, setups: &mut SetUps) -> Result<Vec<Round>, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut last_s = 0.0;
    while another(start, args.seconds, last_s, rounds.len()) {
        let t0 = Instant::now();
        let prepared = setups.next(args.workload, args.seed)?;
        rounds.push(run_round(prepared, true).0);
        last_s = t0.elapsed().as_secs_f64();
    }
    Ok(rounds)
}

fn set_tracing(on: bool) {
    gnr_telemetry::set_enabled(on);
    gnr_telemetry::set_profiling(on);
}

/// The traced pass: untraced and traced rounds, each on its own
/// set-up, alternate while another pair fits in `seconds`, so drift in
/// host speed hits both alike and their ratio is the tracing overhead.
/// Set-ups run untraced, and only the untraced rounds run the read-back
/// check, so the traced counts cover the op stream alone. Returns the
/// untraced rounds, the traced rounds, the engine cache deltas of the
/// traced rounds and the last traced round's final controller.
type TracedPass = (Vec<Round>, Vec<Round>, layers::CacheDelta, FlashController);

fn traced_pass(args: &Args, setups: &mut SetUps) -> Result<TracedPass, String> {
    gnr_telemetry::reset();
    let start = Instant::now();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut cache = layers::CacheDelta::default();
    let mut last = None;
    let mut last_s = 0.0;
    while another(start, args.seconds, last_s, traced.len()) {
        let t0 = Instant::now();
        let prepared = setups.next(args.workload, args.seed)?;
        untraced.push(run_round(prepared, true).0);
        let prepared = setups.next(args.workload, args.seed)?;
        set_tracing(true);
        let before = gnr_flash::engine::cache::stats();
        let (round, controller) = {
            let _span = gnr_telemetry::zone!("bench.round");
            run_round(prepared, false)
        };
        cache.add(&before, &gnr_flash::engine::cache::stats());
        set_tracing(false);
        traced.push(round);
        last = Some(controller);
        last_s = t0.elapsed().as_secs_f64();
    }
    let last = last.expect("at least one traced round");
    Ok((untraced, traced, cache, last))
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(rounds: &[Round], setup_s: f64) -> Vec<Metric> {
    let writes = latencies(rounds, OpKind::is_write);
    let reads = read_latencies(rounds);
    // Every round sends the same op stream (the checks reject runs whose
    // rounds disagree), so its length is the first round's.
    let stream_ops = rounds[0].op_kinds.len() as f64;
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("setup_s", setup_s, "s"),
        m(
            "ops_per_s",
            stream_ops / lower_quartile_of(rounds, |r| r.stream_s),
            "1/s",
        ),
        m("write_p50_ms", quantile(&writes, 0.50), "ms"),
        m("write_p99_ms", quantile(&writes, 0.99), "ms"),
        m("read_p50_ms", quantile(&reads, 0.50), "ms"),
        m("read_p99_ms", quantile(&reads, 0.99), "ms"),
        m("round_s", lower_quartile_of(rounds, |r| r.round_s), "s"),
        m("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// Cross-round checks: every round of one seed, traced or not, must do
/// exactly the same work and end in exactly the same state.
fn check(workload: Workload, setup_digests: &[u64], rounds: &[Round]) -> Vec<String> {
    let mut problems = Vec::new();
    if setup_digests.windows(2).any(|w| w[0] != w[1]) {
        problems.push(format!("set-up digests differ: {setup_digests:x?}"));
    }
    let first = &rounds[0];
    for (i, round) in rounds.iter().enumerate() {
        if round.failed > 0 {
            problems.push(format!("round {i}: {} failed ops", round.failed));
        }
        if round.mismatches > 0 {
            problems.push(format!(
                "round {i}: {} read-back mismatches",
                round.mismatches
            ));
        }
        if round.digest != first.digest
            || round.gc != first.gc
            || round.trajectory != first.trajectory
            || round.op_kinds != first.op_kinds
        {
            problems.push(format!("round {i} diverged from round 0"));
        }
    }
    let gc_expected = workload == Workload::GcChurn;
    if (first.gc.relocations > 0) != gc_expected {
        problems.push(format!(
            "{} GC relocations on {}",
            first.gc.relocations,
            workload.name()
        ));
    }
    problems
}

fn run(args: &Args) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let mut setups = SetUps::default();
    let mut problems = Vec::new();
    let (metrics, rounds) = if args.trace {
        let (mut rounds, traced, cache, last) = traced_pass(args, &mut setups)?;
        let snapshot = gnr_telemetry::snapshot();
        let probes = layers::probe(&last)?;
        // The NAND counts assume every host op is one scheduled command.
        let scheduled = snapshot.counter("scheduler.commands").unwrap_or(0);
        let host_ops: u64 = traced.iter().map(|r| r.op_kinds.len() as u64).sum();
        if scheduled != host_ops {
            problems.push(format!(
                "scheduler saw {scheduled} commands for {host_ops} host ops"
            ));
        }
        let metrics = layers::per_layer(
            &layers::Trace {
                rounds: &traced,
                snapshot: &snapshot,
                cache,
                untraced_round_s: lower_quartile_of(&rounds, |r| r.round_s),
            },
            &probes,
        );
        let zones: Vec<String> = snapshot
            .zones
            .iter()
            .filter(|z| z.calls > 0)
            .map(|z| {
                format!(
                    "\"{}\": {{\"calls\": {}, \"total_s\": {}, \"self_s\": {}}}",
                    z.name,
                    z.calls,
                    z.total_ns as f64 * 1e-9,
                    z.self_ns as f64 * 1e-9
                )
            })
            .collect();
        eprintln!("{{\"zones\": {{{}}}}}", zones.join(", "));
        rounds.extend(traced);
        (metrics, rounds)
    } else {
        let rounds = untraced_pass(args, &mut setups)?;
        (end_to_end(&rounds, median(&setups.seconds)), rounds)
    };

    problems.extend(check(args.workload, &setups.digests, &rounds));
    for problem in &problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let first = &rounds[0];
    let trajectory: Vec<String> = first
        .trajectory
        .iter()
        .map(|(rber, uber)| format!("[{rber:e}, {uber:e}]"))
        .collect();
    eprintln!(
        "{{\"rounds\": {}, \"round_s\": {:?}, \"write_ops\": {}, \"read_ops\": {}, \
         \"digest\": \"{:016x}\", \"gc_relocations\": {}, \"gc_erases\": {}, \"reclaim_erases\": {}, \
         \"rber_uber\": [{}]}}",
        rounds.len(),
        rounds.iter().map(|r| r.round_s).collect::<Vec<_>>(),
        latencies(&rounds, OpKind::is_write).len(),
        read_latencies(&rounds).len(),
        first.digest,
        first.gc.relocations,
        first.gc.gc_erases,
        first.gc.reclaim_erases,
        trajectory.join(", ")
    );
    let attempted = rounds.iter().map(|r| r.attempted).sum();
    let failed = rounds.iter().map(|r| r.failed).sum();
    Ok((problems.is_empty(), attempted, failed, metrics))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    fix_mmap_threshold();
    let threads = pin_rayon();
    eprintln!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"shape\": \"{}x{}x{}\", \"cells\": {}, \"backend\": \"{}\", \"cores\": {}, \
         \"rayon_threads\": {}, \"git_revision\": \"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        SHAPE.blocks,
        SHAPE.pages_per_block,
        SHAPE.page_width,
        SHAPE.cells(),
        BACKEND.name(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        threads,
        git_revision()
    );
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            println!("{}", result_json(correct, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
