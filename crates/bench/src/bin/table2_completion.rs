//! TAB2 — Average completion times of the sample job (paper Table II).
//!
//! The full grid: compression level {NO, LIGHT, MEDIUM, HEAVY, DYNAMIC} ×
//! data compressibility {HIGH, MODERATE, LOW} × concurrent TCP connections
//! {0, 1, 2, 3}, several repetitions per cell, reported as `mean (sd)`
//! seconds — the exact shape of the paper's table.
//!
//! Cells run in parallel on the deterministic experiment runner
//! (`ADCOMP_THREADS` pins the worker count; the printed table is
//! bit-identical for any setting — see `adcomp_bench::runner`).
//!
//! Completion times are rescaled to the paper's 50 GB volume when `--quick`
//! reduces the simulated volume, so cells remain directly comparable.
//!
//! Run: `cargo run --release -p adcomp-bench --bin table2_completion [--quick]`

use adcomp_bench::table2::{
    cell, compute_grid, compute_grid_traced, write_cell_traces, FLOW_SETTINGS,
};
use adcomp_bench::{experiment_bytes, repetitions, runner, schemes, trace_path};
use adcomp_corpus::Class;
use adcomp_metrics::{mean_sd_cell, Table};
use adcomp_trace::JsonlWriter;
use adcomp_vcloud::SpeedModel;

/// Paper Table II reference values (seconds), `[flows][scheme][class]`.
const PAPER: [[[f64; 3]; 5]; 4] = [
    // 0 connections
    [
        [569.0, 567.0, 566.0],
        [252.0, 629.0, 688.0],
        [347.0, 795.0, 1095.0],
        [1881.0, 5760.0, 9011.0],
        [265.0, 635.0, 602.0],
    ],
    // 1 connection
    [
        [908.0, 896.0, 903.0],
        [258.0, 624.0, 927.0],
        [367.0, 840.0, 1241.0],
        [1974.0, 5979.0, 9326.0],
        [273.0, 648.0, 920.0],
    ],
    // 2 connections
    [
        [1393.0, 1292.0, 1313.0],
        [312.0, 756.0, 1440.0],
        [378.0, 896.0, 1481.0],
        [1985.0, 6130.0, 9597.0],
        [363.0, 920.0, 1452.0],
    ],
    // 3 connections
    [
        [1642.0, 1584.0, 1638.0],
        [358.0, 1027.0, 1555.0],
        [397.0, 953.0, 1829.0],
        [1994.0, 6218.0, 9278.0],
        [411.0, 1075.0, 1865.0],
    ],
];

fn main() {
    let total = experiment_bytes();
    let reps = repetitions();
    let speed = SpeedModel::paper_fit();
    let workers = runner::threads();
    // Worker count goes to stderr so stdout is bit-identical for any
    // ADCOMP_THREADS setting (the determinism contract we regression-test).
    eprintln!("TAB2: fanning 60 cells across {workers} runner worker(s)");
    println!(
        "TAB2: completion time [s] of the sample job, {} GB per run, {} repetitions per cell.\n\
         Measured values are rescaled to the paper's 50 GB volume; paper values in brackets.\n",
        total / 1_000_000_000,
        reps
    );

    // The whole grid fans out at once: 4 contention settings × 5 schemes ×
    // 3 classes = 60 independent cells.
    let grid = if let Some(path) = trace_path() {
        let (grid, traces) = compute_grid_traced(total, reps, &speed, workers);
        let mut w = JsonlWriter::create(&path).expect("create trace file");
        write_cell_traces(&mut w, &traces).expect("write cell traces");
        let counts = w.counts();
        w.finish().expect("flush trace file");
        eprintln!(
            "TAB2: wrote {} cell traces ({} events) to {}",
            traces.len(),
            counts.total(),
            path.display()
        );
        grid
    } else {
        compute_grid(total, reps, &speed, workers)
    };

    for (flows, paper_block) in PAPER.iter().enumerate().take(FLOW_SETTINGS) {
        println!("-- {flows} concurrent TCP connection(s) --");
        let mut table = Table::new(vec![
            "Compression Level",
            "HIGH mean (SD) [paper]",
            "MODERATE mean (SD) [paper]",
            "LOW mean (SD) [paper]",
        ]);
        let mut best_static = [f64::INFINITY; 3];
        let mut dynamic_mean = [0.0f64; 3];
        for (si, (name, level)) in schemes().into_iter().enumerate() {
            let mut cells = vec![name.to_string()];
            for ci in 0..Class::ALL.len() {
                let c = cell(&grid, flows, si, ci);
                if level.is_some() {
                    best_static[ci] = best_static[ci].min(c.mean);
                } else {
                    dynamic_mean[ci] = c.mean;
                }
                cells.push(format!(
                    "{} [{:.0}]",
                    mean_sd_cell(c.mean, c.sd),
                    paper_block[si][ci]
                ));
            }
            table.row(cells);
        }
        println!("{}", table.render());
        for (ci, class) in Class::ALL.into_iter().enumerate() {
            println!(
                "   DYNAMIC vs best static on {}: {:+.0}% (paper bound: at most +22%)",
                class.name(),
                (dynamic_mean[ci] / best_static[ci] - 1.0) * 100.0
            );
        }
        println!();
    }
}
