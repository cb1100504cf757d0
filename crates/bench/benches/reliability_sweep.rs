//! Reliability sweep at array scale: margins → raw BER → ECC → UBER.
//!
//! Builds the acceptance-criterion 64×64×256 NAND array (≥1M cells),
//! programs every page with seeded data, then measures raw and post-ECC
//! error rates over a grid of wear levels (synthetic P/E-cycle fluence
//! through the endurance model's charge-per-cycle) × retention bake
//! times (85 °C, through the retention model's charge decay). Each
//! corner re-centers the read reference on its margin histogram and
//! samples one full deterministic read; per-page error patterns are
//! decoded by a BCH codec sized to the page. The fresh-cell corner is
//! scanned twice to assert bit-identical sampling, and the whole grid
//! lands in `BENCH_reliability_sweep.json` at the workspace root.
//!
//! Environment:
//!
//! * `GNR_BENCH_SHAPE=BxPxW` overrides the array shape;
//! * `GNR_BENCH_SMOKE=1` shrinks to a 4×4×16 smoke run (CI bit-rot
//!   guard, seconds).

use criterion::{criterion_group, criterion_main, Criterion};
use gnr_bench::{bench_config, bench_threads, telemetry_phase};
use gnr_flash::engine::cache::EngineCacheStats;
use gnr_flash_array::cell::FlashCell;
use gnr_flash_array::endurance::EnduranceModel;
use gnr_flash_array::nand::{NandArray, NandConfig};
use gnr_flash_array::retention::RetentionModel;
use gnr_flash_array::workload::PagePattern;
use gnr_reliability::ber::BerModel;
use gnr_reliability::codec::EccConfig;
use gnr_reliability::uber::{scan_array, ReliabilityPoint};
use gnr_units::{Temperature, Voltage};

/// One corner of the sweep grid.
#[derive(Debug, Clone, serde::Serialize)]
struct SweepCorner {
    wear_cycles: f64,
    trap_offset_volts: f64,
    retention_seconds: f64,
    point: ReliabilityPoint,
}

/// The committed sweep record.
#[derive(Debug, Clone, serde::Serialize)]
struct SweepReport {
    bench: String,
    config: String,
    smoke: bool,
    backend: String,
    cores: usize,
    threads: usize,
    cells: usize,
    codec: String,
    code_bits: usize,
    data_bits: usize,
    correctable: usize,
    read_noise_sigma: f64,
    seed: u64,
    wear_offsets_volts: Vec<f64>,
    wear_cycles: Vec<f64>,
    retention_seconds: Vec<f64>,
    bake_temperature_celsius: f64,
    grid: Vec<SweepCorner>,
    fresh_rber: f64,
    fresh_uber: f64,
    /// `rber / max(uber, 1/coded_bits)` in the fresh corner — a
    /// measured-zero UBER reports its resolution floor, not infinity.
    fresh_uber_improvement_min: f64,
    deterministic: bool,
    fill_seconds: f64,
    sweep_seconds: f64,
    engine_cache: EngineCacheStats,
    telemetry: gnr_flash::telemetry::TelemetrySnapshot,
}

/// Programs every page of a fresh array with seeded pseudo-random data.
fn fill_array(config: NandConfig) -> NandArray {
    let mut array = NandArray::new(config);
    let width = config.page_width;
    for block in 0..config.blocks {
        for page in 0..config.pages_per_block {
            let seed = (block * config.pages_per_block + page) as u64;
            let bits = PagePattern::Seeded { seed }.expand(width);
            array
                .program_page(block, page, &bits)
                .expect("fresh pages program");
        }
    }
    array.settle();
    array
}

/// P/E cycles whose cumulative fluence produces a given trap-induced
/// threshold offset — the inverse of the endurance model's √-law, so
/// wear levels are stated in volts of erased-state drift and recorded
/// in cycles.
fn cycles_for_offset(
    model: &EnduranceModel,
    cfc_farads: f64,
    charge_per_cycle: f64,
    offset_volts: f64,
) -> f64 {
    if offset_volts <= 0.0 {
        return 0.0;
    }
    let e = gnr_units::constants::ELEMENTARY_CHARGE;
    let trap_electrons = offset_volts * cfc_farads / e;
    let injected_electrons = (trap_electrons / model.trap_sqrt_coefficient).powi(2);
    injected_electrons * e / charge_per_cycle
}

#[allow(clippy::too_many_lines)]
fn measure_reliability_sweep() {
    let (config, smoke) = bench_config(
        NandConfig {
            blocks: 4,
            pages_per_block: 4,
            page_width: 16,
        },
        NandConfig {
            blocks: 64,
            pages_per_block: 64,
            page_width: 256,
        },
    );

    // BCH sized to the page: t = 8 on 256-bit pages (255, 191) — the
    // NAND-class rate-¾ point; t = 2 on narrow pages (the 16-bit smoke
    // shape). Keyed on the page width, not the smoke flag, so a
    // `GNR_BENCH_SHAPE` override measures the same operating point
    // whether or not the run is a smoke run.
    let strength = if config.page_width < 64 { 2 } else { 8 };
    let ecc = EccConfig::bch_for_width(config.page_width, strength).expect("codec fits page");
    let codec = ecc.build().expect("codec builds");

    let ber = BerModel {
        read_noise_sigma: 0.40,
        ..BerModel::default()
    };
    let endurance = EnduranceModel::default();
    let retention = RetentionModel::default();
    let bake_temp = Temperature::from_celsius(85.0);

    // Representative P/E cycle → charge moved per cycle, for the
    // synthetic-wear fluence.
    let cycle_report = endurance
        .simulate(&FlashCell::paper_cell(), 1, Voltage::from_volts(1.0))
        .expect("representative cycle");
    let charge_per_cycle = cycle_report.charge_per_cycle;
    let cfc = FlashCell::paper_cell()
        .device()
        .capacitances()
        .cfc()
        .as_farads();

    let wear_offsets = [0.0, 0.12, 0.35];
    let wear_cycles: Vec<f64> = wear_offsets
        .iter()
        .map(|&v| cycles_for_offset(&endurance, cfc, charge_per_cycle, v))
        .collect();
    let year = 3.156e7;
    let retention_seconds = [0.0, year, 10.0 * year];

    // Stats cover the measured fill + sweep only.
    gnr_flash::engine::cache::reset();
    let t0 = std::time::Instant::now();
    let base = fill_array(config);
    let fill_seconds = t0.elapsed().as_secs_f64();
    let truth = ber.noiseless_bits(base.population(), base.batch());
    let all_cells: Vec<usize> = (0..base.population().len()).collect();

    let t1 = std::time::Instant::now();
    let mut grid = Vec::new();
    for (wi, (&offset, &cycles)) in wear_offsets.iter().zip(&wear_cycles).enumerate() {
        for (ri, &bake_s) in retention_seconds.iter().enumerate() {
            let mut corner = base.clone();
            if cycles > 0.0 {
                corner
                    .population_mut()
                    .add_injected_charge(&all_cells, cycles * charge_per_cycle);
            }
            if bake_s > 0.0 {
                retention.bake_population(corner.population_mut(), bake_s, bake_temp);
            }
            let pass = (wi * retention_seconds.len() + ri) as u64;
            let point = scan_array(&corner, &truth, codec.as_ref(), &ber, None, pass)
                .expect("corner scans");
            println!(
                "wear {cycles:>10.0} cycles ({offset:.2} V) × bake {bake_s:>9.2e} s: \
                 RBER {:.3e}, UBER {:.3e}, {} uncorrectable pages, ref {:.3} V",
                point.rber, point.uber, point.decode.uncorrectable_pages, point.reference,
            );
            grid.push(SweepCorner {
                wear_cycles: cycles,
                trap_offset_volts: offset,
                retention_seconds: bake_s,
                point,
            });
        }
    }
    let sweep_seconds = t1.elapsed().as_secs_f64();

    // Determinism: the fresh corner re-scanned at the same pass must be
    // bit-identical (the acceptance criterion of the seeded BER model).
    let rescan = scan_array(&base, &truth, codec.as_ref(), &ber, None, 0).expect("rescan");
    let deterministic = rescan == grid[0].point;
    assert!(deterministic, "fresh-corner scan must be reproducible");

    let fresh = grid[0].point;
    #[allow(clippy::cast_precision_loss)]
    let floor = 1.0 / fresh.coded_bits as f64;
    let fresh_uber_improvement_min = fresh.rber / fresh.uber.max(floor);
    println!(
        "fresh corner: RBER {:.3e} → UBER {:.3e} ({}≥{:.0}× with {})",
        fresh.rber,
        fresh.uber,
        if fresh.uber == 0.0 { "" } else { "=" },
        fresh_uber_improvement_min,
        codec.name(),
    );

    // Telemetry pass: one fully-instrumented smoke-shaped fill + scan —
    // the measured fill/sweep above stay telemetry-off.
    let (_, telemetry) = telemetry_phase(|| {
        let config = NandConfig {
            blocks: 4,
            pages_per_block: 4,
            page_width: 16,
        };
        let array = fill_array(config);
        let ber = BerModel {
            read_noise_sigma: 0.40,
            ..BerModel::default()
        };
        let ecc = EccConfig::bch_for_width(config.page_width, 2).expect("codec fits page");
        let codec = ecc.build().expect("codec builds");
        let truth = ber.noiseless_bits(array.population(), array.batch());
        scan_array(&array, &truth, codec.as_ref(), &ber, None, 0).expect("telemetry scan")
    });

    let report = SweepReport {
        bench: "reliability_sweep".into(),
        config: format!(
            "{}x{}x{}",
            config.blocks, config.pages_per_block, config.page_width
        ),
        smoke,
        backend: gnr_flash::backend::BackendKind::GnrFloatingGate
            .name()
            .into(),
        cores: rayon::current_num_threads(),
        threads: bench_threads(),
        cells: config.cells(),
        codec: codec.name(),
        code_bits: codec.code_bits(),
        data_bits: codec.data_bits(),
        correctable: codec.correctable(),
        read_noise_sigma: ber.read_noise_sigma,
        seed: ber.seed,
        wear_offsets_volts: wear_offsets.to_vec(),
        wear_cycles,
        retention_seconds: retention_seconds.to_vec(),
        bake_temperature_celsius: 85.0,
        grid,
        fresh_rber: fresh.rber,
        fresh_uber: fresh.uber,
        fresh_uber_improvement_min,
        deterministic,
        fill_seconds,
        sweep_seconds,
        engine_cache: gnr_flash::engine::cache::stats(),
        telemetry,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_reliability_sweep.json"
    );
    match std::fs::write(path, format!("{json}\n")) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn bench_reliability(c: &mut Criterion) {
    measure_reliability_sweep();

    // Criterion timings on a small fixed shape so numbers are
    // comparable across hosts regardless of the env overrides above.
    let config = NandConfig {
        blocks: 4,
        pages_per_block: 4,
        page_width: 16,
    };
    let array = fill_array(config);
    let ber = BerModel::default();
    let codec = EccConfig::Bch { m: 4, t: 2 }.build().expect("codec");
    let truth = ber.noiseless_bits(array.population(), array.batch());
    let mut group = c.benchmark_group("reliability_sweep");
    group.sample_size(20);
    group.bench_function("scan_array_4x4x16", |b| {
        let mut pass = 0u64;
        b.iter(|| {
            pass += 1;
            scan_array(&array, &truth, codec.as_ref(), &ber, None, pass).expect("scan")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_reliability);
criterion_main!(benches);
