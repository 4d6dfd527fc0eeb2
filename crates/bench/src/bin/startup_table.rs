//! STARTUP — DYNAMIC ÷ best static level on short streams.
//!
//! The paper's transfers last about 25 000 epochs, so the controller's
//! start-up costs nothing there. This table shortens the Table II job to
//! 1, 2, 4 … 64 epochs — a stream of `n` epochs carries what the idle link
//! moves uncompressed in `n · t` (200 MB per epoch at t = 2 s) — and
//! reports DYNAMIC's completion time over the best static level's, per
//! class (mean over the four contention settings) and over all twelve
//! class × contention cells. What the start-up costs is the gap between a
//! row and the long-stream rows.
//!
//! Cells run in parallel on the deterministic experiment runner; output is
//! bit-identical for any `ADCOMP_THREADS`.
//!
//! Run: `cargo run --release -p adcomp-bench --bin startup_table`

use adcomp_bench::table2::FLOW_SETTINGS;
use adcomp_bench::{make_model, runner, schemes};
use adcomp_corpus::Class;
use adcomp_metrics::Table;
use adcomp_vcloud::{run_transfer, ConstantClass, SpeedModel, TransferConfig};

const LENGTHS: [u64; 7] = [1, 2, 4, 8, 16, 32, 64];
const REPS: usize = 3;

fn main() {
    let speed = SpeedModel::paper_fit();
    let base = TransferConfig::paper_default();
    let epoch_bytes = (base.epoch_secs * base.platform.net_bandwidth_bps()) as u64;
    let schemes = schemes();
    let nclasses = Class::ALL.len();
    let per_length = FLOW_SETTINGS * nclasses * schemes.len();
    // Mean completion time per (length, flows, class, scheme); seeds follow
    // Table II's, so every scheme of a cell faces the same contention draws.
    let secs = runner::run_cells(LENGTHS.len() * per_length, |idx| {
        let (li, rest) = (idx / per_length, idx % per_length);
        let (cell, si) = (rest / schemes.len(), rest % schemes.len());
        let (flows, ci) = (cell / nclasses, cell % nclasses);
        let mut sum = 0.0;
        for rep in 0..REPS {
            let cfg = TransferConfig {
                total_bytes: LENGTHS[li] * epoch_bytes,
                background_flows: flows,
                seed: 1000 + rep as u64 * 7919 + flows as u64 * 31 + ci as u64,
                ..base.clone()
            };
            let model = make_model(schemes[si].1);
            sum += run_transfer(&cfg, &speed, &mut ConstantClass(Class::ALL[ci]), model)
                .completion_secs;
        }
        sum / REPS as f64
    });

    println!(
        "STARTUP: DYNAMIC / best static completion time by stream length\n\
         (t = {} s; one epoch = {} MB, what the idle link carries uncompressed in t;\n\
         mean of {REPS} repetitions per cell; class columns average 0-3 connections)\n",
        base.epoch_secs,
        epoch_bytes / 1_000_000
    );
    let mut table =
        Table::new(vec!["epochs", "HIGH", "MODERATE", "LOW", "all: mean", "worst cell"]);
    for (li, n) in LENGTHS.iter().enumerate() {
        let cell = |flows: usize, ci: usize| {
            let at = li * per_length + (flows * nclasses + ci) * schemes.len();
            let times = &secs[at..at + schemes.len()];
            let (statics, dynamic) = times.split_at(schemes.len() - 1);
            dynamic[0] / statics.iter().copied().fold(f64::INFINITY, f64::min)
        };
        let mut row = vec![n.to_string()];
        let (mut sum, mut worst) = (0.0, (0.0, 0, 0));
        for ci in 0..nclasses {
            let ratios: Vec<f64> = (0..FLOW_SETTINGS).map(|f| cell(f, ci)).collect();
            let total: f64 = ratios.iter().sum();
            row.push(format!("{:.3}", total / FLOW_SETTINGS as f64));
            sum += total;
            for (flows, &r) in ratios.iter().enumerate() {
                if r > worst.0 {
                    worst = (r, ci, flows);
                }
            }
        }
        row.push(format!("{:.3}", sum / (nclasses * FLOW_SETTINGS) as f64));
        row.push(format!("{:.3} ({}, {} conn)", worst.0, Class::ALL[worst.1].name(), worst.2));
        table.row(row);
    }
    println!("{}", table.render());
}
