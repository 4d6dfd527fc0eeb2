//! FIG4 — Performance of the adaptive compression scheme with highly
//! compressible data (HIGH) and no background traffic (paper Figure 4).
//!
//! Prints the per-epoch time series (sender CPU utilization, application
//! throughput, network throughput, chosen compression level) and the
//! probe-frequency decay that demonstrates the exponential backoff.
//!
//! Run: `cargo run --release -p adcomp-bench --bin fig4_timeseries [--quick]`

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
        background_flows: 0,
        seed: 4,
        ..TransferConfig::paper_default()
    };
    let speed = SpeedModel::paper_fit();
    let trace = trace_path();
    let handle = if trace.is_some() { TraceHandle::collecting() } else { TraceHandle::disabled() };
    let out = run_transfer_traced(
        &cfg,
        &speed,
        &mut ConstantClass(Class::High),
        Box::new(RateBasedModel::paper_default()),
        handle.clone(),
    );
    if let Some(path) = trace {
        let manifest = RunManifest::new("fig4_timeseries", cfg.seed)
            .coord("class", Class::High.name())
            .coord("flows", cfg.background_flows)
            .cfg("model", "rate_based")
            .volume(total);
        write_run_trace(&path, &manifest, &handle.take());
    }

    println!(
        "FIG4: adaptive scheme, HIGH data, no background traffic ({} GB, t = 2 s, α = 0.2)\n",
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
    let names = ["NO", "LIGHT", "MEDIUM", "HEAVY"];
    let mix: Vec<String> = out
        .blocks_per_level
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(l, c)| format!("{}×{}", names[l], c))
        .collect();
    println!("block mix: {}", mix.join(", "));

    let windows = probes_per_window(&out, out.completion_secs / 5.0);
    println!("\nlevel switches per fifth of the run (backoff should damp them): {windows:?}");
    println!(
        "\nPaper findings to compare against:\n\
         - The scheme quickly settles on LIGHT (QuickLZ, best speed) for ptt5-like data.\n\
         - Optimistic switches to other levels decay exponentially over time."
    );
}
