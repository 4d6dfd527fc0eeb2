//! UTILITY — measures this repository's real codecs on the generated
//! corpus: compression/decompression throughput and wire ratio per
//! (class, codec) — the paper's four levels, which back the
//! `SpeedModel::measure` pathway of the simulator and document how the
//! from-scratch codecs compare with the paper's QuickLZ/LZMA stack, then
//! the two portfolio codecs beside them.
//!
//! Run: `cargo run --release -p adcomp-bench --bin calibrate_codecs`

use adcomp_codecs::calibrate::measure;
use adcomp_codecs::CodecId;
use adcomp_corpus::{generate, Class};
use adcomp_metrics::Table;

fn main() {
    println!("Real-codec calibration on 4 MiB of each corpus class (0.2 s per cell)\n");
    let mut table = Table::new(vec![
        "class", "level", "compress [MB/s]", "decompress [MB/s]", "wire ratio",
    ]);
    for class in Class::ALL {
        let data = generate(class, 4 * 1024 * 1024, 42);
        for p in CodecId::REGISTRY.map(|id| measure(id, &data, 0.2)) {
            table.row(vec![
                class.name().to_string(),
                p.codec.level_name().to_string(),
                format!("{:.1}", p.compress_mbps),
                format!("{:.1}", p.decompress_mbps),
                format!("{:.4}", p.ratio),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "Compare with the paper's stack: QuickLZ-class speeds at LIGHT/MEDIUM with\n\
         moderate ratios; LZMA-class at HEAVY — an order of magnitude slower with the\n\
         best ratios. Ratios should fall in the quoted bands: ptt5 ≈ 0.10–0.15,\n\
         alice29 ≈ 0.30–0.50, image.jpg ≈ 0.90–0.95."
    );
}
