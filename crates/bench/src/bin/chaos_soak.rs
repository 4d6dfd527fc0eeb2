//! CHAOS SOAK — the repo's standing fault-injection gauntlet.
//!
//! Fans a seeded grid of chaos cases (frame, record, indexed and
//! portfolio layers × all four compression levels × corruption rates from
//! quiet to 20 % × truncation variants) across the deterministic
//! experiment runner, and holds every case to the soak contract:
//!
//! 1. **no panic, no hang** — every run terminates through `Ok` or a
//!    typed error;
//! 2. **no silent corruption** — every record the reader hands back is
//!    byte-identical to the one that was written (items embed their index
//!    and are regenerated from the pure generator for comparison);
//! 3. **order preserved** — survivors appear in write order;
//! 4. what the faults did is *accounted for* in `InjectStats`, and the
//!    incident that stopped a reader in `RecoveryStats`.
//!
//! The summary JSON on stdout is a commutative fold over per-case
//! results, so it is **bit-identical for any `ADCOMP_THREADS` setting**
//! — CI runs the quick grid twice (1 worker, then 4) and diffs the two
//! lines. `--cases` additionally streams one JSON line per case (in
//! deterministic grid order) before the summary.
//!
//! Run: `cargo run --release -p adcomp-bench --bin chaos_soak [--quick] \
//!       [--seed S] [--cases]`
//!
//! Exits non-zero if any case breaks the contract.

use adcomp_bench::{quick_mode, runner};
use adcomp_faults::soak::{grid, run_case, summarize};
use std::process::ExitCode;

/// Default grid sizes: `--quick` stays CI-friendly (< a few seconds),
/// the full soak clears the ≥200-run bar from DESIGN.md's fault-model
/// acceptance criteria.
const QUICK_RUNS: usize = 48;
const FULL_RUNS: usize = 256;
const DEFAULT_SEED: u64 = 0xC4405;

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn main() -> ExitCode {
    let runs = if quick_mode() { QUICK_RUNS } else { FULL_RUNS };
    let seed = match arg_value("--seed") {
        Some(v) => match v.parse() {
            Ok(s) => s,
            Err(_) => {
                eprintln!("--seed must be a u64");
                return ExitCode::from(2);
            }
        },
        None => DEFAULT_SEED,
    };
    let emit_cases = std::env::args().any(|a| a == "--cases");

    let cases = grid(seed, runs);
    let start = std::time::Instant::now();
    let results = runner::map_cells(&cases, |_, case| run_case(case));
    let wall = start.elapsed().as_secs_f64();

    if emit_cases {
        for r in &results {
            println!("{}", r.to_json());
        }
    }

    let summary = summarize(&results);
    println!("{}", summary.to_json());

    let mut first_failures = 0u32;
    for r in results.iter().filter(|r| !r.ok()) {
        first_failures += 1;
        if first_failures <= 8 {
            eprintln!("CONTRACT BROKEN: {}", r.to_json());
        }
    }
    eprintln!(
        "chaos_soak: {} runs (seed {:#x}) on {} worker(s) in {:.2} s: \
         {} recovered, {} typed errors, {} panics; \
         {}/{} items intact, {} corrupt frames, {} truncations, {} frames dropped on the wire{}",
        summary.runs,
        seed,
        runner::threads(),
        wall,
        summary.recovered_runs,
        summary.typed_errors,
        summary.panics,
        summary.items_recovered,
        summary.items_written,
        summary.recovery.corrupt_frames,
        summary.recovery.truncations,
        summary.injected.drops,
        if summary.all_ok() { "" } else { " — CONTRACT BROKEN" },
    );
    if summary.all_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
