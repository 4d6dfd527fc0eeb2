//! EXTENSION — what the paper leaves open: every co-located VM deploys the
//! adaptive scheme at once. Do the controllers interfere, and does the
//! aggregate benefit survive?
//!
//! Three co-located senders share the paravirtualized 1 GbE link. We sweep
//! the deployment mix (none / one / all adaptive) for homogeneous and
//! heterogeneous compressibilities and report per-flow goodput, aggregate
//! goodput, makespan, and Jain's fairness index.
//!
//! Cells run in parallel on the deterministic experiment runner
//! (`ADCOMP_THREADS` pins the worker count; output is bit-identical for any
//! setting — see `adcomp_bench::runner`).
//!
//! Run: `cargo run --release -p adcomp-bench --bin ext_all_adaptive [--quick]`

use adcomp_bench::{experiment_bytes, runner, trace_path};
use adcomp_core::model::{RateBasedModel, StaticModel};
use adcomp_corpus::Class;
use adcomp_metrics::Table;
use adcomp_trace::{JsonlWriter, RunManifest, TraceHandle};
use adcomp_vcloud::{run_multiflow_traced, ConstantClass, FlowSpec, SpeedModel};

/// One flow per schedule, DYNAMIC where `adaptive` says so and NO
/// elsewhere, `bytes` each.
fn flows<'a>(
    schedules: &'a mut [ConstantClass],
    adaptive: &[bool],
    bytes: u64,
) -> Vec<FlowSpec<'a>> {
    schedules
        .iter_mut()
        .zip(adaptive)
        .map(|(schedule, &a)| FlowSpec {
            schedule,
            model: if a {
                Box::new(RateBasedModel::paper_default())
            } else {
                Box::new(StaticModel::new(0, 4))
            },
            total_bytes: bytes,
        })
        .collect()
}

/// Every cell runs the same fluctuating link.
const SEED: u64 = 61;

const CORPORA: [(&str, [Class; 3]); 2] = [
    ("homogeneous HIGH", [Class::High; 3]),
    ("heterogeneous HIGH/MODERATE/LOW", [Class::High, Class::Moderate, Class::Low]),
];

const DEPLOYMENTS: [(&str, [bool; 3]); 3] = [
    ("none adaptive", [false, false, false]),
    ("one adaptive", [true, false, false]),
    ("all adaptive", [true, true, true]),
];

fn main() {
    let bytes = experiment_bytes() / 10; // per flow; 3 flows share the link
    let speed = SpeedModel::paper_fit();
    println!(
        "EXT: three co-located senders, {:.1} GB each, shared KVM-para link\n",
        bytes as f64 / 1e9
    );
    // 2 corpora × 3 deployment mixes fan out at once; every cell carries
    // its own fixed seed, so the tables are independent of scheduling.
    let traced = trace_path();
    let want_trace = traced.is_some();
    let cells = runner::run_cells(CORPORA.len() * DEPLOYMENTS.len(), |idx| {
        let (ti, di) = (idx / DEPLOYMENTS.len(), idx % DEPLOYMENTS.len());
        let (title, classes) = CORPORA[ti];
        let (label, mask) = DEPLOYMENTS[di];
        let handle = if want_trace { TraceHandle::collecting() } else { TraceHandle::disabled() };
        let mut schedules = classes.map(ConstantClass);
        let out =
            run_multiflow_traced(SEED, &speed, flows(&mut schedules, &mask, bytes), handle.clone());
        let rates: Vec<String> =
            out.flows.iter().map(|f| format!("{:.0}", f.mean_app_rate() / 1e6)).collect();
        let row = vec![
            label.to_string(),
            format!("{:.0}", out.aggregate_goodput() / 1e6),
            format!("{:.0}", out.makespan_secs),
            format!("{:.3}", out.jain_fairness()),
            rates.join(" / "),
        ];
        let cell_trace = want_trace.then(|| {
            let manifest = RunManifest::new("ext_all_adaptive_cell", SEED)
                .coord("corpus", title)
                .coord("deployment", label)
                .cfg("flows", classes.len())
                .volume(bytes * classes.len() as u64);
            (manifest, handle.take())
        });
        (row, cell_trace)
    });
    // Per-cell traces serialize in canonical cell order, so the JSONL bytes
    // are independent of ADCOMP_THREADS.
    if let Some(path) = traced {
        let mut w = JsonlWriter::create(&path).expect("create trace file");
        for (_, cell_trace) in &cells {
            let (manifest, events) = cell_trace.as_ref().expect("traced cell");
            w.write_run(manifest, events).expect("write cell trace");
        }
        let n = w.counts().total();
        w.finish().expect("flush trace file");
        eprintln!("EXT: wrote {} cell traces ({} events) to {}", cells.len(), n, path.display());
    }
    let cells: Vec<Vec<String>> = cells.into_iter().map(|(row, _)| row).collect();
    for (ti, (title, _)) in CORPORA.iter().enumerate() {
        println!("== {title} ==");
        let mut table = Table::new(vec![
            "deployment",
            "aggregate goodput [MB/s]",
            "makespan [s]",
            "Jain fairness",
            "per-flow rates [MB/s]",
        ]);
        for di in 0..DEPLOYMENTS.len() {
            table.row(cells[ti * DEPLOYMENTS.len() + di].clone());
        }
        println!("{}", table.render());
    }
    println!(
        "Expected shape: adopting the adaptive scheme never hurts the other tenants —\n\
         a compressing flow *releases* wire capacity. With everyone adaptive, aggregate\n\
         goodput rises further and fairness stays high: the controllers do not fight,\n\
         because each one only chases its own application data rate."
    );
}
