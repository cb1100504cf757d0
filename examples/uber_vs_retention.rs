//! UBER versus retention bake time, across ECC strengths.
//!
//! Programs a small seeded NAND array, ages copies of it through the
//! retention model (85 °C bake), and scans each copy with the
//! reliability pipeline under four codecs — no ECC, Hamming SEC-DED,
//! BCH t = 2 and BCH t = 4 — printing the raw BER and post-ECC UBER
//! table. The same machinery drives the million-cell sweep
//! (`cargo bench -p gnr-bench --bench reliability_sweep`).
//!
//! ```text
//! cargo run --release --example uber_vs_retention
//! ```

use gnr_flash_array::nand::{NandArray, NandConfig};
use gnr_flash_array::retention::RetentionModel;
use gnr_flash_array::workload::PagePattern;
use gnr_reliability::ber::BerModel;
use gnr_reliability::codec::EccConfig;
use gnr_reliability::uber::scan_array;
use gnr_units::Temperature;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = NandConfig {
        blocks: 2,
        pages_per_block: 8,
        page_width: 64,
    };
    let mut array = NandArray::new(config);
    for block in 0..config.blocks {
        for page in 0..config.pages_per_block {
            let seed = (block * config.pages_per_block + page) as u64;
            let bits = PagePattern::Seeded { seed }.expand(config.page_width);
            array.program_page(block, page, &bits)?;
        }
    }
    array.settle();

    // σ sized so a 1k-cell array shows measurable raw error rates.
    let ber = BerModel {
        read_noise_sigma: 0.5,
        ..BerModel::default()
    };
    let truth = ber.noiseless_bits(array.population(), array.batch());

    let codecs: Vec<(&str, EccConfig)> = vec![
        ("raw", EccConfig::None { bits: 63 }),
        ("hamming", EccConfig::HammingSecDed { data_bits: 57 }),
        ("bch t=2", EccConfig::Bch { m: 6, t: 2 }),
        ("bch t=4", EccConfig::Bch { m: 6, t: 4 }),
    ];
    let month = 2.63e6;
    let year = 3.156e7;
    let bakes: Vec<(&str, f64)> = vec![
        ("fresh", 0.0),
        ("1 month", month),
        ("1 year", year),
        ("10 years", 10.0 * year),
    ];
    let retention = RetentionModel::default();
    let bake_temp = Temperature::from_celsius(85.0);
    // Average over passes: each pass is one deterministic full-array
    // read with fresh noise, so the table is reproducible *and* smooth.
    let passes = 32u64;

    println!(
        "array {}x{}x{} ({} cells), bake at 85 °C, σ_read = {} V, {} read passes per point\n",
        config.blocks,
        config.pages_per_block,
        config.page_width,
        config.cells(),
        ber.read_noise_sigma,
        passes,
    );
    println!(
        "{:>10} | {:>10} | {:>12} | {:>12}",
        "bake", "codec", "RBER", "UBER"
    );
    println!("{}", "-".repeat(55));

    for (bi, &(bake_label, bake_s)) in bakes.iter().enumerate() {
        let mut aged = array.clone();
        retention.bake_population(aged.population_mut(), bake_s, bake_temp);
        for (ci, (codec_label, ecc)) in codecs.iter().enumerate() {
            let codec = ecc.build()?;
            let mut raw = 0usize;
            let mut residual = 0usize;
            let mut bits = 0usize;
            for pass in 0..passes {
                let lane = ((bi * codecs.len() + ci) as u64) * passes + pass;
                let point = scan_array(&aged, &truth, codec.as_ref(), &ber, None, lane)?;
                raw += point.raw_errors;
                residual += point.residual_errors;
                bits += point.coded_bits;
            }
            #[allow(clippy::cast_precision_loss)]
            let (rber, uber) = (raw as f64 / bits as f64, residual as f64 / bits as f64);
            println!(
                "{:>10} | {:>10} | {:>12.3e} | {:>12.3e}",
                bake_label, codec_label, rber, uber
            );
        }
        println!("{}", "-".repeat(55));
    }
    println!("\nEvery pass is seeded: re-running this example reproduces the table bit for bit.");
    Ok(())
}
