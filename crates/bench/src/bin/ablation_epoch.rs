//! ABLATION — sensitivity to the epoch length t.
//!
//! The paper fixes t = 2 s and motivates a coarse (MB-scale) granularity:
//! "our decision model shall focus on a granularity level of MB in order to
//! allow for the possible throughput fluctuations". Short epochs observe
//! noisy rates (especially under EC2-style fluctuation); long epochs adapt
//! sluggishly to compressibility changes. This sweep shows both ends.
//!
//! Cells run in parallel on the deterministic experiment runner
//! (`ADCOMP_THREADS` pins the worker count; output is bit-identical for any
//! setting — see `adcomp_bench::runner`).
//!
//! Run: `cargo run --release -p adcomp-bench --bin ablation_epoch [--quick]`

use adcomp_bench::{experiment_bytes, runner, to_paper_scale};
use adcomp_core::model::RateBasedModel;
use adcomp_corpus::Class;
use adcomp_metrics::Table;
use adcomp_vcloud::{
    run_transfer, AlternatingClass, ConstantClass, Platform, SpeedModel, TransferConfig,
};

const TS: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 8.0];
/// Steady HIGH on KVM, HIGH under EC2 fluctuation, HIGH<->LOW switching.
const SCENARIOS: usize = 3;

fn main() {
    let total = experiment_bytes();
    let speed = SpeedModel::paper_fit();
    println!("ABLATION t (epoch length): completion time [s, 50 GB scale]\n");
    // 5 epoch lengths × 3 scenarios fan out at once; per-cell seeds are
    // fixed below, so the grid is independent of scheduling.
    let cells = runner::run_cells(TS.len() * SCENARIOS, |idx| {
        let (ti, si) = (idx / SCENARIOS, idx % SCENARIOS);
        let t = TS[ti];
        let out = match si {
            0 => {
                // Steady scenario.
                let cfg = TransferConfig {
                    total_bytes: total,
                    epoch_secs: t,
                    seed: 31,
                    ..TransferConfig::paper_default()
                };
                run_transfer(
                    &cfg,
                    &speed,
                    &mut ConstantClass(Class::High),
                    Box::new(RateBasedModel::paper_default()),
                )
            }
            1 => {
                // Violent fluctuation (EC2 regime).
                let cfg = TransferConfig {
                    total_bytes: total,
                    epoch_secs: t,
                    platform: Platform::Ec2,
                    seed: 32,
                    ..TransferConfig::paper_default()
                };
                run_transfer(
                    &cfg,
                    &speed,
                    &mut ConstantClass(Class::High),
                    Box::new(RateBasedModel::paper_default()),
                )
            }
            _ => {
                // Changing compressibility.
                let cfg = TransferConfig {
                    total_bytes: total,
                    epoch_secs: t,
                    seed: 33,
                    ..TransferConfig::paper_default()
                };
                let mut sched = AlternatingClass {
                    classes: vec![Class::High, Class::Low],
                    period_bytes: total / 5,
                };
                run_transfer(&cfg, &speed, &mut sched, Box::new(RateBasedModel::paper_default()))
            }
        };
        to_paper_scale(out.completion_secs)
    });
    let mut table = Table::new(vec![
        "t [s]",
        "HIGH steady (KVM)",
        "HIGH on EC2 fluct.",
        "HIGH<->LOW switching",
    ]);
    for (ti, t) in TS.iter().enumerate() {
        let mut row = vec![format!("{t:.1}")];
        for si in 0..SCENARIOS {
            row.push(format!("{:.0}", cells[ti * SCENARIOS + si]));
        }
        table.row(row);
    }
    println!("{}", table.render());
    println!(
        "Expected shape: t around the paper's 2 s is near-optimal across scenarios;\n\
         sub-second epochs suffer under EC2-style fluctuation, long epochs lose time\n\
         on the switching workload."
    );
}
