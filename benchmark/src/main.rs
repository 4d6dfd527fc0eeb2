//! The repo's benchmark. See README.md beside this package.
//!
//! ```text
//! adcomp-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, one JSON line
//! adcomp-benchmark run [--seed N] [--seconds S] [--runs K] [--traced] [--smoke] [--out FILE]
//! adcomp-benchmark compare A.json B.json [--benchmark BENCHMARK.json]
//! ```

mod compare;
mod gen;
mod harness;
mod json;
mod layers;
mod span;
mod stats;
mod suite;
mod workloads;

use harness::{Cfg, Outcome};
use std::process::ExitCode;
use std::time::Instant;

pub const WORKLOADS: [&str; 4] = [
    "file_roundtrip",
    "shared_link",
    "serve_ingest",
    "serve_read",
];

/// Seconds of timed rounds when `--seconds` is not given; `BENCHMARK.json`
/// passes the same number.
pub const DEFAULT_SECONDS: f64 = 20.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: adcomp-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--registry]\n\
         \x20      adcomp-benchmark run [--seed N] [--seconds S] [--runs K] [--traced] [--smoke] [--out FILE]\n\
         \x20      adcomp-benchmark compare A.json B.json [--benchmark BENCHMARK.json]\n\
         workloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare flags, in any order.
pub struct Args(Vec<String>);

impl Args {
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    pub fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {flag}: {v}")),
        }
    }

    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    /// Arguments that are neither a `--flag` nor the value of one.
    pub fn positional(&self, valued: &[&str]) -> Vec<&str> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.0.len() {
            let a = self.0[i].as_str();
            if valued.contains(&a) {
                i += 2;
            } else {
                if !a.starts_with("--") {
                    out.push(a);
                }
                i += 1;
            }
        }
        out
    }
}

/// Marks a process that [`pinned`] already moved onto one CPU.
const PINNED_ENV: &str = "ADCOMP_BENCH_PINNED";

/// Re-runs this command line under `taskset` on the last CPU and returns
/// its exit code; `None` when this process is the pinned one already, the
/// host has a single CPU, or `taskset` cannot be started (the workload then
/// runs unpinned).
///
/// Why: a request wakes the daemon's thread on the other vCPU, and on this
/// host that wake-up costs 100-200 us and doubles when the host is busy —
/// more than everything the program does for a small request. With client
/// and daemon on one CPU a small `put` takes 0.16-0.20 ms instead of
/// 0.41-0.50 ms and repeats from run to run; the price is that the two
/// halves of a large transfer no longer overlap.
fn pinned(argv: &[String]) -> Option<ExitCode> {
    if std::env::var_os(PINNED_ENV).is_some() {
        return None;
    }
    let cpus = layers::cores();
    if cpus < 2 {
        return None;
    }
    let status = std::process::Command::new("taskset")
        .args(["-c", &(cpus - 1).to_string()])
        .arg(std::env::current_exe().ok()?)
        .args(argv)
        .env(PINNED_ENV, "1")
        .status()
        .ok()?;
    Some(ExitCode::from(status.code().unwrap_or(1) as u8))
}

/// Runs one workload in this process and prints its metrics; the last line
/// of standard output is the result object.
fn run_workload(args: &Args, process_start: Instant) -> Result<ExitCode, String> {
    if let Some(code) = pinned(&args.0) {
        return Ok(code);
    }
    let name = args.value("--workload").ok_or("--workload needs a name")?;
    if !WORKLOADS.contains(&name) {
        return Err(format!("unknown workload {name}"));
    }
    let traced = match args.parsed("--trace", 0u8)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    let dir = std::path::PathBuf::from("benchmark/out").join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let cfg = Cfg {
        seed: args.parsed("--seed", 1u64)?,
        seconds,
        smoke: args.has("--smoke"),
        registry: args.has("--registry"),
        dir,
        process_start,
    };
    if args.has("--light-probe") {
        let outcome = workloads::file_roundtrip::light_probe(&cfg);
        let _ = std::fs::remove_dir_all(&cfg.dir);
        return Ok(if outcome.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }
    let outcome = workloads::run(name, traced, &cfg);
    let _ = std::fs::remove_dir_all(&cfg.dir);
    let expected: &[_] = if traced {
        &suite::PER_LAYER
    } else {
        &suite::END_TO_END
    };
    let line = suite::result_line(&outcome, expected)?;
    print_metrics(name, &outcome);
    println!("{line}");
    Ok(if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn print_metrics(workload: &str, outcome: &Outcome) {
    println!(
        "# {workload}: {} operations attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for m in &outcome.metrics {
        println!("{:<34} {:>14.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => suite::run_all(&Args(argv.split_off(1))),
        Some("compare") => compare::main(&Args(argv.split_off(1))),
        Some(_) if argv.iter().any(|a| a == "--workload") => {
            run_workload(&Args(argv), process_start)
        }
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("adcomp-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
