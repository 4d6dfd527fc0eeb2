//! FIG5 — Performance of the adaptive compression scheme with hardly
//! compressible data (LOW) and two concurrent TCP connections (paper
//! Figure 5).
//!
//! With small performance differences between levels on incompressible
//! data, the algorithm "may spuriously consider changes in the application
//! data rate as fluctuations and continue the probing process" — the trace
//! shows sustained probing rather than Fig. 4's quick lock-in.
//!
//! Run: `cargo run --release -p adcomp-bench --bin fig5_timeseries [--quick]`

use adcomp_bench::{
    experiment_bytes, probes_per_window, render_timeseries, trace_path, write_run_trace,
};
use adcomp_core::model::RateBasedModel;
use adcomp_corpus::Class;
use adcomp_trace::{RunManifest, TraceHandle};
use adcomp_vcloud::{run_transfer_traced, ConstantClass, SpeedModel, TransferConfig};

fn main() {
    let total = experiment_bytes();
    let cfg = TransferConfig {
        total_bytes: total,
        background_flows: 2,
        seed: 5,
        ..TransferConfig::paper_default()
    };
    let speed = SpeedModel::paper_fit();
    let trace = trace_path();
    let handle = if trace.is_some() { TraceHandle::collecting() } else { TraceHandle::disabled() };
    let out = run_transfer_traced(
        &cfg,
        &speed,
        &mut ConstantClass(Class::Low),
        Box::new(RateBasedModel::paper_default()),
        handle.clone(),
    );
    if let Some(path) = trace {
        let manifest = RunManifest::new("fig5_timeseries", cfg.seed)
            .coord("class", Class::Low.name())
            .coord("flows", cfg.background_flows)
            .cfg("model", "rate_based")
            .volume(total);
        write_run_trace(&path, &manifest, &handle.take());
    }

    println!(
        "FIG5: adaptive scheme, LOW data, two concurrent TCP connections ({} GB)\n",
        total / 1_000_000_000
    );
    println!("{}", render_timeseries(&out, 40));
    println!(
        "completion: {:.0} s, mean app rate {:.0} MBit/s, wire ratio {:.3}, epochs {}",
        out.completion_secs,
        out.mean_app_rate() * 8.0 / 1e6,
        out.wire_ratio(),
        out.epochs
    );
    let fig4_like_windows = probes_per_window(&out, out.completion_secs / 5.0);
    println!("\nlevel switches per fifth of the run: {fig4_like_windows:?}");
    println!(
        "\nPaper findings to compare against:\n\
         - No stable lock-in: the level keeps being probed because the differences\n\
           between levels are close to the α = 0.2 dead band under fluctuation.\n\
         - Lowering α would reduce this at the risk of reacting to TCP noise."
    );
}
