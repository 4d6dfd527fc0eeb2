//! ABLATION — sensitivity to the dead-band parameter α.
//!
//! The paper (§III-A): "Small values of α allow our algorithm to detect the
//! best compression level even if the performance gains [...] are rather
//! small. However, they also make the decision algorithm more prone to
//! incorrect decisions [...]. During our experiments we found 0.2 to be a
//! reasonable value." This sweep quantifies that trade-off on two
//! scenarios: clearly separated levels (HIGH, no contention) and nearly
//! indistinguishable levels under fluctuation (LOW, two connections).
//!
//! Cells run in parallel on the deterministic experiment runner
//! (`ADCOMP_THREADS` pins the worker count; output is bit-identical for any
//! setting — see `adcomp_bench::runner`).
//!
//! Run: `cargo run --release -p adcomp-bench --bin ablation_alpha [--quick]`

use adcomp_bench::{experiment_bytes, runner, to_paper_scale};
use adcomp_core::controller::ControllerConfig;
use adcomp_core::model::RateBasedModel;
use adcomp_corpus::Class;
use adcomp_metrics::Table;
use adcomp_vcloud::{run_transfer, ConstantClass, SpeedModel, TransferConfig};

const ALPHAS: [f64; 4] = [0.05, 0.10, 0.20, 0.40];
const SCENARIOS: [(Class, usize); 2] = [(Class::High, 0), (Class::Low, 2)];

fn main() {
    let total = experiment_bytes();
    let speed = SpeedModel::paper_fit();
    println!("ABLATION α: completion time [s, 50 GB scale] and level switches\n");
    // 4 α values × 2 scenarios fan out at once; every cell's seed is fixed
    // in its TransferConfig, so the grid is independent of scheduling.
    let cells = runner::run_cells(ALPHAS.len() * SCENARIOS.len(), |idx| {
        let (ai, si) = (idx / SCENARIOS.len(), idx % SCENARIOS.len());
        let (class, flows) = SCENARIOS[si];
        let cfg = TransferConfig {
            total_bytes: total,
            background_flows: flows,
            seed: 21,
            ..TransferConfig::paper_default()
        };
        let model = RateBasedModel::new(ControllerConfig { alpha: ALPHAS[ai], ..Default::default() });
        let out = run_transfer(&cfg, &speed, &mut ConstantClass(class), Box::new(model));
        (to_paper_scale(out.completion_secs), out.level_trace.len().saturating_sub(1))
    });
    let mut table = Table::new(vec![
        "alpha",
        "HIGH/0conn time",
        "HIGH/0conn switches",
        "LOW/2conn time",
        "LOW/2conn switches",
    ]);
    for (ai, alpha) in ALPHAS.iter().enumerate() {
        let mut row = vec![format!("{alpha:.2}")];
        for si in 0..SCENARIOS.len() {
            let (secs, switches) = cells[ai * SCENARIOS.len() + si];
            row.push(format!("{secs:.0}"));
            row.push(format!("{switches}"));
        }
        table.row(row);
    }
    println!("{}", table.render());
    println!(
        "Expected shape: very small α over-reacts to fluctuations (more switches on\n\
         LOW/2conn); very large α tolerates bad levels longer. α = 0.2 balances both,\n\
         matching the paper's choice."
    );
}
