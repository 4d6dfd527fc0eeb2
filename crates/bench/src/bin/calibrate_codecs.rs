//! UTILITY — measures this repository's real codecs on the generated
//! corpus: compress/decompress MB/s and wire ratio per (class, codec), the
//! paper's four levels and then the two portfolio codecs. It produces and
//! checks the committed host profile (`adcomp_vcloud::speed::HOST_LADDER`,
//! behind `SpeedModel::host_fit`): `ROUNDS` interleaved rounds, each
//! visiting every cell once, give each cell's median and IQR; each ladder
//! cell prints its drift from the profile (live ÷ committed), and the
//! ladder's 12 rows are printed in `HOST_LADDER`'s syntax, so re-pinning
//! the profile is a paste. `--quick` runs one round.
//!
//! Run: `cargo run --release -p adcomp-bench --bin calibrate_codecs [--quick]`

use adcomp_bench::quick_mode;
use adcomp_codecs::calibrate::measure;
use adcomp_codecs::CodecId;
use adcomp_corpus::{generate, Class};
use adcomp_metrics::{Summary, Table};
use adcomp_vcloud::speed::HOST_LADDER;

const ROUNDS: usize = 5;
/// Minimum wall time of each compress and each decompress pass.
const PASS_SECS: f64 = 0.1;

fn main() {
    let rounds = if quick_mode() { 1 } else { ROUNDS };
    println!("Real-codec calibration on 4 MiB of each corpus class, {rounds} round(s)\n");
    let samples = Class::ALL.map(|class| generate(class, 4 * 1024 * 1024, 42));
    // runs[class][codec]: one (compress, decompress, ratio) per round.
    let mut runs = Class::ALL.map(|_| CodecId::REGISTRY.map(|_| Vec::new()));
    for _ in 0..rounds {
        for (ci, sample) in samples.iter().enumerate() {
            for (k, &id) in CodecId::REGISTRY.iter().enumerate() {
                let p = measure(id, sample, PASS_SECS);
                runs[ci][k].push([p.compress_mbps, p.decompress_mbps, p.ratio]);
            }
        }
    }
    let stat = |xs: Vec<f64>| Summary::from_samples(&xs).expect("at least one round");
    let mut table = Table::new(vec![
        "class", "level", "compress [MB/s]", "IQR", "decompress [MB/s]", "IQR", "ratio", "drift",
    ]);
    let mut rows = String::new();
    for (ci, class) in Class::ALL.iter().enumerate() {
        rows += &format!("    // {}\n    [\n", class.name());
        for (k, id) in CodecId::REGISTRY.iter().enumerate() {
            let cell = &runs[ci][k];
            let [c, d] = [0, 1].map(|i| stat(cell.iter().map(|r| r[i]).collect()));
            // Every round gives the same ratio: the codecs are deterministic.
            let ratio = cell[0][2];
            let drift = HOST_LADDER[ci].get(k).map_or("-".to_string(), |&(hc, hd, _)| {
                format!("{:.2} / {:.2}", c.median / hc, d.median / hd)
            });
            table.row(vec![
                class.name().to_string(),
                id.level_name().to_string(),
                format!("{:.1}", c.median),
                format!("{:.1}", c.iqr()),
                format!("{:.1}", d.median),
                format!("{:.1}", d.iqr()),
                format!("{ratio:.4}"),
                drift,
            ]);
            if k < CodecId::ALL.len() {
                rows += &format!(
                    "        ({:.1}, {:.1}, {ratio:.6}), // {}: IQR {:.1} / {:.1}\n",
                    c.median,
                    d.median,
                    id.level_name(),
                    c.iqr(),
                    d.iqr()
                );
            }
        }
        rows += "    ],\n";
    }
    println!("{}", table.render());
    println!(
        "Drift: live median / committed (HOST_LADDER), compress / decompress.\n\
         Compare with the paper's stack: QuickLZ-class speeds at LIGHT/MEDIUM with\n\
         moderate ratios; LZMA-class at HEAVY — an order of magnitude slower with the\n\
         best ratios. Ratios should fall in the quoted bands: ptt5 ≈ 0.10–0.15,\n\
         alice29 ≈ 0.30–0.50, image.jpg ≈ 0.90–0.95.\n\n\
         pub const HOST_LADDER: [[Cell; 4]; 3] = [\n{rows}];"
    );
}
