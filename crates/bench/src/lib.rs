//! # adcomp-bench — experiment harness
//!
//! One binary per figure/table of the paper (see DESIGN.md's experiment
//! index). This library holds shared helpers: argument parsing, scaled
//! experiment volumes, and model construction.

pub mod runner;
pub mod table2;

use adcomp_core::controller::ControllerConfig;
use adcomp_core::model::{DecisionModel, RateBasedModel, StaticModel};

/// The paper transfers 50 GB per cell; a full-fidelity sweep simulates in
/// minutes. `--quick` scales volumes down ~10× for smoke runs.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// `--trace <path>` on any experiment binary: where to write the JSONL
/// structured trace for the run, or `None` when tracing is off.
pub fn trace_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trace" {
            match args.next() {
                Some(p) => return Some(std::path::PathBuf::from(p)),
                None => {
                    eprintln!("--trace requires a file path argument");
                    std::process::exit(2);
                }
            }
        }
    }
    None
}

/// Serializes one run's manifest + events to a JSONL trace file and reports
/// the event count on stderr (stdout stays machine-parseable). Shared by the
/// single-transfer experiment binaries' `--trace` paths.
pub fn write_run_trace(
    path: &std::path::Path,
    manifest: &adcomp_trace::RunManifest,
    events: &[adcomp_trace::TraceEvent],
) {
    let mut w = adcomp_trace::JsonlWriter::create(path).expect("create trace file");
    w.write_run(manifest, events).expect("write trace events");
    let n = w.counts().total();
    w.finish().expect("flush trace file");
    eprintln!("trace: wrote {} events to {}", n, path.display());
}

/// Converts a throughput distribution's per-20 MB samples into `"sample"`
/// sim events on a reconstructed virtual-time axis (cumulative seconds per
/// sample interval). Used by the Figure 2/3 binaries' `--trace` paths,
/// whose experiment generators return sample vectors rather than running an
/// instrumented epoch driver.
pub fn distribution_events(
    dist: &adcomp_vcloud::experiments::ThroughputDistribution,
) -> Vec<adcomp_trace::TraceEvent> {
    use adcomp_vcloud::experiments::SAMPLE_INTERVAL_BYTES;
    let mut t = 0.0f64;
    dist.samples
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            t += SAMPLE_INTERVAL_BYTES as f64 / rate.max(1e-9);
            adcomp_trace::SimEvent {
                epoch: i as u64,
                t,
                kind: "sample",
                flow: adcomp_trace::SimEvent::NO_FLOW,
                value: rate,
                aux: ((i as u64 + 1) * SAMPLE_INTERVAL_BYTES) as f64,
            }
            .into()
        })
        .collect()
}

/// Experiment volume in bytes: the paper's 50 GB, or 5 GB in quick mode.
pub fn experiment_bytes() -> u64 {
    if quick_mode() {
        5_000_000_000
    } else {
        50_000_000_000
    }
}

/// Repetitions per cell (the paper averages several runs).
pub fn repetitions() -> usize {
    if quick_mode() {
        2
    } else {
        3
    }
}

/// Volume scale factor vs the paper (for side-by-side expectations).
pub fn volume_scale() -> f64 {
    experiment_bytes() as f64 / 50_000_000_000.0
}

/// The five Table II schemes in paper order.
pub fn schemes() -> Vec<(&'static str, Option<usize>)> {
    vec![
        ("NO", Some(0)),
        ("LIGHT", Some(1)),
        ("MEDIUM", Some(2)),
        ("HEAVY", Some(3)),
        ("DYNAMIC", None),
    ]
}

/// Builds a decision model for a Table II scheme.
pub fn make_model(level: Option<usize>) -> Box<dyn DecisionModel> {
    match level {
        Some(l) => Box::new(StaticModel::new(l, 4)),
        None => Box::new(RateBasedModel::new(ControllerConfig::default())),
    }
}

/// Formats seconds scaled back to the paper's 50 GB volume so numbers are
/// directly comparable to Table II regardless of `--quick`.
pub fn to_paper_scale(secs: f64) -> f64 {
    secs / volume_scale()
}

/// Renders a transfer's per-epoch time series the way the paper's Figs. 4–6
/// plot them: CPU utilization, application throughput, network throughput
/// and the chosen compression level over time.
pub fn render_timeseries(out: &adcomp_vcloud::TransferOutcome, max_rows: usize) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "{:>8} {:>8} {:>12} {:>12}  {:<7}",
        "t [s]", "CPU [%]", "app [MBit/s]", "net [MBit/s]", "level"
    )
    .unwrap();
    let level_names = ["NO", "LIGHT", "MEDIUM", "HEAVY"];
    let n = out.app_rate_trace.len();
    let stride = (n / max_rows.max(1)).max(1);
    let level_at = |t: f64| -> usize {
        let mut lvl = 0usize;
        for &(lt, lv) in out.level_trace.points() {
            if lt <= t {
                lvl = lv as usize;
            } else {
                break;
            }
        }
        lvl
    };
    for (i, &(t, rate)) in out.app_rate_trace.points().iter().enumerate() {
        if i % stride != 0 {
            continue;
        }
        let cpu = out
            .cpu_trace
            .points()
            .get(i.min(out.cpu_trace.len().saturating_sub(1)))
            .map_or(0.0, |&(_, v)| v);
        let net = out
            .net_rate_trace
            .points()
            .get(i.min(out.net_rate_trace.len().saturating_sub(1)))
            .map_or(0.0, |&(_, v)| v);
        let lvl = level_at(t);
        writeln!(
            s,
            "{:>8.1} {:>8.1} {:>12.0} {:>12.0}  {:<7}",
            t,
            cpu,
            rate * 8.0 / 1e6,
            net * 8.0 / 1e6,
            level_names[lvl.min(3)]
        )
        .unwrap();
    }
    s
}

/// Counts level *changes* in consecutive windows — used to show the
/// exponential decay of optimistic probing (Fig. 4's key property).
pub fn probes_per_window(out: &adcomp_vcloud::TransferOutcome, window_secs: f64) -> Vec<usize> {
    let end = out.completion_secs;
    let mut windows = vec![0usize; (end / window_secs).ceil().max(1.0) as usize];
    for &(t, _) in out.level_trace.points().iter().skip(1) {
        let idx = ((t / window_secs) as usize).min(windows.len() - 1);
        windows[idx] += 1;
    }
    windows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_roundtrip() {
        let s = volume_scale();
        assert!(s > 0.0 && s <= 1.0);
        assert!((to_paper_scale(s * 100.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn schemes_match_paper_rows() {
        let names: Vec<&str> = schemes().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["NO", "LIGHT", "MEDIUM", "HEAVY", "DYNAMIC"]);
    }

    #[test]
    fn models_have_four_levels() {
        for (_, level) in schemes() {
            assert_eq!(make_model(level).num_levels(), 4);
        }
    }
}
