//! FIG6 — Responsiveness to changes in data compressibility (paper
//! Figure 6).
//!
//! The stream alternates between the highly compressible HIGH class and the
//! incompressible LOW class every 10 GB (scaled with `--quick`), with no
//! background traffic. The trace shows the compression level tracking the
//! switches — with the paper's noted asymmetry: leaving level 0 after a LOW
//! phase is delayed by the backoff accumulated at level 0, while drops in
//! the data rate are detected within one epoch.
//!
//! Run: `cargo run --release -p adcomp-bench --bin fig6_switching [--quick]`

use adcomp_bench::{experiment_bytes, render_timeseries, trace_path, write_run_trace};
use adcomp_core::model::RateBasedModel;
use adcomp_corpus::Class;
use adcomp_trace::{RunManifest, TraceHandle};
use adcomp_vcloud::{run_transfer_traced, AlternatingClass, SpeedModel, TransferConfig};

fn main() {
    // Phases must span dozens of epochs for the adaptation dynamics to show
    // (the paper's 10 GB phases last 50-100 s); keep at least 20 GB.
    let total = experiment_bytes().max(20_000_000_000);
    let period = total / 5; // the paper switches every 10 GB of its 50 GB
    let cfg = TransferConfig {
        total_bytes: total,
        background_flows: 0,
        seed: 6,
        ..TransferConfig::paper_default()
    };
    let speed = SpeedModel::paper_fit();
    let mut schedule =
        AlternatingClass { classes: vec![Class::High, Class::Low], period_bytes: period };
    let trace = trace_path();
    let handle = if trace.is_some() { TraceHandle::collecting() } else { TraceHandle::disabled() };
    let out = run_transfer_traced(
        &cfg,
        &speed,
        &mut schedule,
        Box::new(RateBasedModel::paper_default()),
        handle.clone(),
    );
    if let Some(path) = trace {
        let manifest = RunManifest::new("fig6_switching", cfg.seed)
            .coord("classes", "HIGH/LOW")
            .coord("flows", cfg.background_flows)
            .cfg("model", "rate_based")
            .cfg("period_bytes", period)
            .volume(total);
        write_run_trace(&path, &manifest, &handle.take());
    }

    println!(
        "FIG6: adaptive scheme, HIGH ↔ LOW every {} GB, no background traffic\n",
        period / 1_000_000_000
    );
    println!("{}", render_timeseries(&out, 48));
    println!(
        "completion: {:.0} s, epochs {}, level changes {}",
        out.completion_secs,
        out.epochs,
        out.level_trace.len().saturating_sub(1)
    );
    let names = ["NO", "LIGHT", "MEDIUM", "HEAVY"];
    let mix: Vec<String> = out
        .blocks_per_level
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(l, c)| format!("{}×{}", names[l], c))
        .collect();
    println!("block mix: {}", mix.join(", "));
    println!(
        "\nPaper findings to compare against:\n\
         - The level follows the compressibility switches (LIGHT during HIGH phases,\n\
           mostly NO during LOW phases).\n\
         - HIGH→LOW is detected immediately (rate degrades within one epoch);\n\
           LOW→HIGH can lag because level 0 accumulated backoff during the LOW phase."
    );
}
