//! ABLATION — the exponential backoff (the paper calls it "a fundamental
//! aspect of our algorithm").
//!
//! With the backoff disabled (`max_backoff_exp = 0`), the controller
//! probes a neighbouring level on *every* stable epoch, paying the price of
//! bad levels (e.g. HEAVY at ~27 MB/s instead of LIGHT at ~200 MB/s) far
//! more often. This run quantifies the probing overhead the backoff
//! removes.
//!
//! Cells run in parallel on the deterministic experiment runner
//! (`ADCOMP_THREADS` pins the worker count; output is bit-identical for any
//! setting — see `adcomp_bench::runner`).
//!
//! Run: `cargo run --release -p adcomp-bench --bin ablation_backoff [--quick]`

use adcomp_bench::{experiment_bytes, runner, to_paper_scale};
use adcomp_core::controller::ControllerConfig;
use adcomp_core::model::RateBasedModel;
use adcomp_corpus::Class;
use adcomp_metrics::Table;
use adcomp_vcloud::{run_transfer, ConstantClass, SpeedModel, TransferConfig};

const VARIANTS: [(&str, u32); 2] = [("with backoff (paper)", 16), ("no backoff", 0)];
const CLASSES: [Class; 2] = [Class::High, Class::Moderate];

fn main() {
    let total = experiment_bytes();
    let speed = SpeedModel::paper_fit();
    println!("ABLATION backoff: completion time [s, 50 GB scale] and probing volume\n");
    // 2 variants × 2 classes fan out at once; the seed is fixed per cell.
    let cells = runner::run_cells(VARIANTS.len() * CLASSES.len(), |idx| {
        let (vi, ci) = (idx / CLASSES.len(), idx % CLASSES.len());
        let (_, max_exp) = VARIANTS[vi];
        let cfg = TransferConfig { total_bytes: total, seed: 41, ..TransferConfig::paper_default() };
        let model = RateBasedModel::new(ControllerConfig {
            max_backoff_exp: max_exp,
            ..Default::default()
        });
        let out = run_transfer(&cfg, &speed, &mut ConstantClass(CLASSES[ci]), Box::new(model));
        (
            to_paper_scale(out.completion_secs),
            out.level_trace.len().saturating_sub(1),
            out.blocks_per_level[3],
        )
    });
    let mut table = Table::new(vec![
        "variant",
        "class",
        "time [s]",
        "level switches",
        "blocks at HEAVY",
    ]);
    for (vi, (label, _)) in VARIANTS.iter().enumerate() {
        for (ci, class) in CLASSES.iter().enumerate() {
            let (secs, switches, heavy_blocks) = cells[vi * CLASSES.len() + ci];
            table.row(vec![
                label.to_string(),
                class.name().to_string(),
                format!("{secs:.0}"),
                format!("{switches}"),
                format!("{heavy_blocks}"),
            ]);
        }
    }
    println!("{}", table.render());
    println!(
        "Expected shape: without backoff the controller keeps re-probing expensive\n\
         levels, multiplying level switches and losing completion time — the paper's\n\
         justification for rewarding good levels with exponentially rarer probes."
    );
}
