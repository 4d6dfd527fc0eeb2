//! CHECK — self-verification of DESIGN.md's result-shape acceptance
//! criteria. Runs fast, deterministic versions of every experiment and
//! prints PASS/FAIL per criterion; exits non-zero if anything fails.
//!
//! The ten criteria that read a speed model (TAB2 ×7, Conclusion, FIG4,
//! FIG6) are judged on two committed profiles side by side:
//! `SpeedModel::paper_fit` and `SpeedModel::host_fit` (this repository's
//! codecs as measured on the reference host). The exit status reads
//! `paper_fit`'s verdicts only; `host_fit`'s are reported.
//!
//! The simulation cells fan out on the deterministic experiment runner
//! (`ADCOMP_THREADS` pins the worker count; verdicts are bit-identical for
//! any setting — see `adcomp_bench::runner`). `--quick` scales simulated
//! volumes down 2× for CI smoke runs; the shape criteria are volume-robust.
//!
//! Run: `cargo run --release -p adcomp-bench --bin check_shapes [--quick]`

use adcomp_bench::{quick_mode, runner, trace_path, write_run_trace};
use adcomp_core::model::{DecisionModel, RateBasedModel, StaticModel};
use adcomp_corpus::Class;
use adcomp_metrics::Table;
use adcomp_trace::{RunManifest, TraceHandle};
use adcomp_vcloud::experiments::{fig1_cpu_accuracy, fig2_net_throughput, fig3_file_write};
use adcomp_vcloud::platform::IoOp;
use adcomp_vcloud::{
    run_transfer, run_transfer_traced, AlternatingClass, ConstantClass, Platform, SpeedModel,
    TransferConfig,
};

const GB: u64 = 1_000_000_000;
const NFLOWS: usize = 4;
const NLEVELS: usize = 4;

/// What a criterion observed and whether that passes.
type Verdict = (String, bool);

struct Checker {
    table: Table,
    /// `paper_fit` failures: the exit status.
    failures: u32,
    /// `host_fit` criteria that hold.
    host_held: u32,
}

impl Checker {
    /// One row: the `paper_fit` verdict (the only one for a criterion that
    /// reads no speed model) and, for one that does, `host_fit`'s.
    fn check(&mut self, name: &str, (observed, pass): Verdict, host: Option<Verdict>) {
        let verdict = |pass: bool| if pass { "PASS" } else { "FAIL" }.to_string();
        self.failures += u32::from(!pass);
        self.host_held += u32::from(host.as_ref().is_some_and(|h| h.1));
        let (host, host_pass) = host.map_or(("-".into(), "-".into()), |(o, p)| (o, verdict(p)));
        self.table.row(vec![name.to_string(), observed, verdict(pass), host, host_pass]);
    }
}

/// Completion time of one deterministic TAB2 cell.
fn secs(speed: &SpeedModel, vol: u64, class: Class, flows: usize, m: Box<dyn DecisionModel>) -> f64 {
    let cfg = TransferConfig {
        total_bytes: vol,
        background_flows: flows,
        deterministic: true,
        cpu_jitter: 0.0,
        ..TransferConfig::paper_default()
    };
    run_transfer(&cfg, speed, &mut ConstantClass(class), m).completion_secs
}

/// The ten criteria that read a speed model, judged on `speed` at volumes
/// divided by `scale`: TAB2 ×7, Conclusion, FIG4, FIG6, in that order,
/// each `(name, verdict)`.
fn speed_criteria(speed: &SpeedModel, scale: u64) -> Vec<(String, Verdict)> {
    let gb = |x: u64| x * GB / scale;
    let mut c = Vec::new();
    let mut check = |name: &str, observed, pass| c.push((name.to_string(), (observed, pass)));
    // The two TAB2 grids fan out on the runner: 3 classes × 4 contention
    // settings × 4 static levels, plus 3 × 4 dynamic cells. Everything
    // below reads from these precomputed grids.
    let statics = runner::run_cells(Class::ALL.len() * NFLOWS * NLEVELS, |i| {
        let (ci, fl, l) = (i / (NFLOWS * NLEVELS), (i / NLEVELS) % NFLOWS, i % NLEVELS);
        secs(speed, gb(2), Class::ALL[ci], fl, Box::new(StaticModel::new(l, 4)))
    });
    let dynamics = runner::run_cells(Class::ALL.len() * NFLOWS, |i| {
        let model = Box::new(RateBasedModel::paper_default());
        secs(speed, gb(2), Class::ALL[i / NFLOWS], i % NFLOWS, model)
    });
    let cidx = |class: Class| Class::ALL.iter().position(|&c| c == class).unwrap();
    let sgrid = |class: Class, flows: usize, level: usize| {
        statics[(cidx(class) * NFLOWS + flows) * NLEVELS + level]
    };
    let dgrid = |class: Class, flows: usize| dynamics[cidx(class) * NFLOWS + flows];
    let best_level = |class: Class, flows: usize| {
        (0..NLEVELS).min_by(|&a, &b| sgrid(class, flows, a).total_cmp(&sgrid(class, flows, b)))
    };

    // TAB2 shapes.
    for flows in 0..NFLOWS {
        let best = best_level(Class::High, flows).unwrap();
        check(
            &format!("TAB2: LIGHT fastest on HIGH, {flows} conn"),
            format!("best level = {best}"),
            best == 1,
        );
    }
    let best = best_level(Class::Low, 0).unwrap();
    check("TAB2: NO fastest on LOW, 0 conn", format!("best level = {best}"), best == 0);
    {
        let mut worst_margin = f64::INFINITY;
        for class in Class::ALL {
            let heavy = sgrid(class, 0, 3);
            let others = (0..3).map(|l| sgrid(class, 0, l)).fold(f64::INFINITY, f64::min);
            worst_margin = worst_margin.min(heavy / others);
        }
        check(
            "TAB2: HEAVY worst by >= 3x (vs best)",
            format!("min margin {worst_margin:.1}x"),
            worst_margin >= 3.0,
        );
    }
    {
        let mut worst = 0.0f64;
        for class in Class::ALL {
            for flows in [0usize, 2] {
                let best =
                    (0..NLEVELS).map(|l| sgrid(class, flows, l)).fold(f64::INFINITY, f64::min);
                let dynamic = dgrid(class, flows);
                worst = worst.max(dynamic / best - 1.0);
            }
        }
        check(
            "TAB2: DYNAMIC within +25% of best static",
            format!("worst {:+.1}%", worst * 100.0),
            worst <= 0.25,
        );
    }
    {
        let no = sgrid(Class::High, 3, 0);
        let dynamic = dgrid(Class::High, 3);
        check(
            "Conclusion: up to ~4x throughput improvement",
            format!("{:.1}x on HIGH/3conn", no / dynamic),
            no / dynamic > 3.0,
        );
    }

    // FIG4 probe decay. Full volume even under `--quick`: the criterion
    // counts switches in the two halves of the run, which only separates
    // once the backoff has had enough epochs to stretch.
    {
        let cfg = TransferConfig {
            total_bytes: 5 * GB,
            deterministic: true,
            cpu_jitter: 0.0,
            ..TransferConfig::paper_default()
        };
        let out = run_transfer(
            &cfg,
            speed,
            &mut ConstantClass(Class::High),
            Box::new(RateBasedModel::paper_default()),
        );
        let half = out.completion_secs / 2.0;
        let first = out.level_trace.points().iter().skip(1).filter(|&&(t, _)| t < half).count();
        let second = out.level_trace.points().iter().skip(1).filter(|&&(t, _)| t >= half).count();
        check(
            "FIG4: probing decays over the run",
            format!("switches {first} -> {second}"),
            first >= second,
        );
    }

    // FIG6 level tracking.
    {
        let cfg = TransferConfig {
            total_bytes: gb(10),
            deterministic: true,
            cpu_jitter: 0.0,
            ..TransferConfig::paper_default()
        };
        let mut sched =
            AlternatingClass { classes: vec![Class::High, Class::Low], period_bytes: gb(2) };
        let out = run_transfer(&cfg, speed, &mut sched, Box::new(RateBasedModel::paper_default()));
        let total: u64 = out.blocks_per_level.iter().sum();
        let no_share = out.blocks_per_level[0] as f64 / total as f64;
        let light_share = out.blocks_per_level[1] as f64 / total as f64;
        check(
            "FIG6: level follows compressibility",
            format!("NO {:.1}%, LIGHT {:.1}%", no_share * 100.0, light_share * 100.0),
            no_share > 0.10 && light_share > 0.10,
        );
    }

    c
}

fn main() -> std::process::ExitCode {
    // `--quick` shrinks the simulated volumes 2× (CI smoke); the checked
    // *shapes* (orderings, ratios, variance structure) are volume-robust at
    // that scale. FIG4's probe-decay criterion is inherently about run
    // *length* and keeps its full volume.
    let scale = if quick_mode() { 2 } else { 1 };
    let gb = |x: u64| x * GB / scale;
    let speed = SpeedModel::paper_fit();
    let mut c = Checker {
        table: Table::new(vec!["criterion", "paper_fit", "verdict", "host_fit", "verdict"]),
        failures: 0,
        host_held: 0,
    };

    let host = speed_criteria(&SpeedModel::host_fit(), scale);
    for ((name, paper), (_, host)) in speed_criteria(&speed, scale).into_iter().zip(host) {
        c.check(&name, paper, Some(host));
    }

    let mut others = Vec::new();
    let mut check = |name: &str, observed, pass| others.push((name.to_string(), (observed, pass)));
    // FIG1 shapes. The per-(platform, op) accuracy probes are independent —
    // fan them out too.
    {
        let send = fig1_cpu_accuracy(Platform::KvmPara, IoOp::NetSend, 200, 1).gap().unwrap();
        let read = fig1_cpu_accuracy(Platform::XenPara, IoOp::FileRead, 200, 1).gap().unwrap();
        check("FIG1: KVM-para net send gap ~15x", format!("{send:.1}x"), send > 10.0);
        check("FIG1: XEN file read gap ~15x", format!("{read:.1}x"), read > 10.0);
        let cells: Vec<(Platform, IoOp)> = [Platform::KvmFull, Platform::KvmPara, Platform::XenPara]
            .into_iter()
            .flat_map(|p| IoOp::ALL.into_iter().map(move |op| (p, op)))
            .collect();
        let gaps = runner::map_cells(&cells, |_, &(p, op)| {
            fig1_cpu_accuracy(p, op, 120, 2).gap().unwrap()
        });
        let all_under = gaps.iter().all(|&g| g > 1.0);
        check("FIG1: every virtualized guest under-reports", format!("{all_under}"), all_under);
    }

    // FIG2 / FIG3 shapes.
    {
        let native = fig2_net_throughput(Platform::Native, gb(2), 3).summary();
        let ec2 = fig2_net_throughput(Platform::Ec2, gb(2), 3).summary();
        let ratio = (ec2.sd / ec2.mean) / (native.sd / native.mean);
        check("FIG2: EC2 variance >> native", format!("CV ratio {ratio:.0}x"), ratio > 5.0);
        let xen = fig3_file_write(Platform::XenPara, gb(20), 7).summary();
        check(
            "FIG3: XEN cache bursts and stalls",
            format!("min {:.1}, max {:.0} MB/s", xen.min / 1e6, xen.max / 1e6),
            xen.min / 1e6 < 30.0 && xen.max / 1e6 > 300.0,
        );
    }
    for (name, verdict) in others {
        c.check(&name, verdict, None);
    }

    // `--trace <path>`: emit the structured trace of one representative
    // Table-2 cell (DYNAMIC, HIGH, 2 connections, deterministic) — the CI
    // smoke step lints this JSONL against the event schema.
    if let Some(path) = trace_path() {
        let trace = TraceHandle::collecting();
        let cfg = TransferConfig {
            total_bytes: gb(2),
            background_flows: 2,
            deterministic: true,
            cpu_jitter: 0.0,
            ..TransferConfig::paper_default()
        };
        let out = run_transfer_traced(
            &cfg,
            &speed,
            &mut ConstantClass(Class::High),
            Box::new(RateBasedModel::paper_default()),
            trace.clone(),
        );
        let manifest = RunManifest::new("check_shapes_cell", cfg.seed)
            .coord("scheme", "DYNAMIC")
            .coord("class", Class::High.name())
            .coord("flows", cfg.background_flows)
            .cfg("deterministic", true)
            .volume(cfg.total_bytes);
        write_run_trace(&path, &manifest, &trace.take());
        eprintln!(
            "CHECK: traced cell completed in {:.0} s over {} epochs",
            out.completion_secs, out.epochs
        );
    }

    println!("{}", c.table.render());
    println!("host_fit: {} of 10 criteria hold (reported, not gated).", c.host_held);
    if c.failures == 0 {
        println!("All result-shape criteria hold.");
        std::process::ExitCode::SUCCESS
    } else {
        println!("{} criterion(s) FAILED.", c.failures);
        std::process::ExitCode::FAILURE
    }
}
