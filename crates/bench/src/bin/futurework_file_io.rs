//! FUTURE WORK — adaptive compression for file I/O under host page-cache
//! distortion, which the paper excluded from its evaluation and named as
//! future work ("the aggressive caching mechanisms of some virtualization
//! technologies \[are\] a major obstacle which we intend to address").
//!
//! The experiment writes compressed data to the XEN-style virtual disk
//! whose host write-back cache absorbs writes at memory speed. Reported
//! per scheme: time to *durability* (final fsync included) and the level
//! mix — contrasting the naive rate-based controller (misled by the cache
//! mirage) with the sync-aware variant (fsync per epoch, so the controller
//! observes the durable rate).
//!
//! Run: `cargo run --release -p adcomp-bench --bin futurework_file_io [--quick]`

use adcomp_bench::{experiment_bytes, make_model, schemes};
use adcomp_core::model::RateBasedModel;
use adcomp_corpus::Class;
use adcomp_metrics::Table;
use adcomp_vcloud::{run_file_transfer, SpeedModel};

fn main() {
    let total = experiment_bytes().max(10_000_000_000);
    let speed = SpeedModel::paper_fit();
    println!(
        "FUTURE WORK: {} GB compressed file write on XEN (host write-back cache)\n",
        total / 1_000_000_000
    );
    for class in [Class::High, Class::Moderate, Class::Low] {
        println!("== {} data ==", class.name());
        let mut table = Table::new(vec![
            "scheme",
            "durable [s]",
            "apparent [s]",
            "durable rate [MB/s]",
            "level mix [% of blocks]",
        ]);
        let mut add = |name: &str, sync_aware: bool, model| {
            let out = run_file_transfer(total, &speed, class, model, sync_aware);
            let total_blocks: u64 = out.blocks_per_level.iter().sum::<u64>().max(1);
            let mix: Vec<String> = out
                .blocks_per_level
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(l, &c)| {
                    format!(
                        "{} {:.0}%",
                        ["NO", "LIGHT", "MEDIUM", "HEAVY"][l],
                        100.0 * c as f64 / total_blocks as f64
                    )
                })
                .collect();
            table.row(vec![
                name.to_string(),
                format!("{:.0}", out.durable_secs),
                format!("{:.0}", out.apparent_secs),
                format!("{:.1}", out.durable_rate() / 1e6),
                mix.join(", "),
            ]);
        };
        for (name, level) in schemes() {
            if name == "DYNAMIC" {
                continue;
            }
            add(name, false, make_model(level));
        }
        add("DYNAMIC (naive)", false, Box::new(RateBasedModel::paper_default()));
        add("DYNAMIC (sync-aware)", true, Box::new(RateBasedModel::paper_default()));
        println!("{}", table.render());
    }
    println!(
        "Expected shape: on compressible data the cache mirage keeps the naive\n\
         controller at NO (its *apparent* rate is memory speed), while the sync-aware\n\
         controller converges to LIGHT and approaches the best static durable time.\n\
         On LOW data both variants correctly avoid compression."
    );
}
