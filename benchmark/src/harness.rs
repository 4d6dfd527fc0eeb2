//! What every workload shares: run configuration, the round loop, metric
//! records and the process-level measurements.

use crate::gen::BLOCK_LEN;
use crate::stats::{self, Summary};
use adcomp::core::{AdaptiveWriter, StaticModel, StreamStats, WallClock};
use adcomp::prelude::LevelSet;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct Cfg {
    pub seed: u64,
    /// How long the timed rounds last; a round in progress is finished.
    pub seconds: f64,
    /// Tiny sizes and two timed rounds: checks the plumbing, not the speed.
    pub smoke: bool,
    /// Install the wall-clock metrics registry before the first round.
    pub registry: bool,
    /// Scratch directory of this process, inside the checkout.
    pub dir: PathBuf,
    pub process_start: Instant,
}

impl Cfg {
    /// Where the traced pass of `workload` writes its spans.
    pub fn trace_file(&self, workload: &str) -> PathBuf {
        self.dir.with_file_name(format!("trace-{workload}.jsonl"))
    }
}

/// A static-level writer with the benchmark's block length over `sink`:
/// what `adcomp compress -l LEVEL` and `serve::put(level: Some(..))` build.
pub fn static_writer<W: Write>(sink: W, level: usize, portfolio: bool) -> AdaptiveWriter<W> {
    let mut w = AdaptiveWriter::with_params(
        sink,
        LevelSet::paper_default(),
        Box::new(StaticModel::new(level, 4)),
        BLOCK_LEN,
        2.0,
        Box::new(WallClock::new()),
    );
    w.set_portfolio(portfolio);
    w
}

/// Streams `data` through a [`static_writer`] into an in-memory or
/// counting sink, one `write_all` per block as `serve::put` does.
pub fn write_stream<W: Write>(
    sink: W,
    data: &[u8],
    level: usize,
    portfolio: bool,
) -> (W, StreamStats) {
    let mut w = static_writer(sink, level, portfolio);
    for chunk in data.chunks(BLOCK_LEN) {
        w.write_all(chunk).expect("in-memory sink");
    }
    w.finish().expect("in-memory sink")
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Shown beside the value: what it means on this workload, quartiles
    /// and sample count.
    pub note: String,
}

#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (an `Err` or a checksum mismatch).
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Reports 0 for every metric of `names` not reported yet: the layers
    /// that are not on this workload's path.
    pub fn zero_fill(&mut self, names: &[(&'static str, &'static str)]) {
        for &(name, unit) in names {
            if !self.metrics.iter().any(|m| m.name == name) {
                self.push(name, 0.0, unit, "layer not on this workload's path".into());
            }
        }
    }

    /// Counts one verified operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Runs `setup` three times and returns the last result with the median
/// set-up time; the first run's time starts at process start.
pub fn median_setup<T>(cfg: &Cfg, mut setup: impl FnMut() -> T) -> (T, f64) {
    let repeats = if cfg.smoke { 1 } else { 3 };
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..repeats {
        drop(last.take());
        let t = if i == 0 {
            cfg.process_start
        } else {
            Instant::now()
        };
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Round loop: round 0 warms up and is discarded, then timed rounds run
/// until `cfg.seconds` have passed (at least three). `round(timed)` runs
/// every phase of the workload once.
pub fn run_rounds(cfg: &Cfg, mut round: impl FnMut(bool)) -> usize {
    round(false);
    let min_rounds = if cfg.smoke { 2 } else { 3 };
    let budget = Duration::from_secs_f64(if cfg.smoke { 0.0 } else { cfg.seconds });
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || start.elapsed() < budget {
        round(true);
        rounds += 1;
    }
    rounds
}

/// The value reported for a metric measured once per timed round: the
/// second-fastest round. This host's speed swings by 15 % from one second
/// to the next (a pure compute loop timed for a minute: quartiles 208 and
/// 249 ms around a median of 233 ms, fastest 187 ms), and it is the fast
/// rounds that repeat from run to run: over ten runs the spread of the
/// median of rounds was 0.11-0.13 on `file_roundtrip`, that of the second
/// fastest 0.04-0.07. The fastest alone would trust a single sample. The
/// median and quartiles of the rounds are printed beside the value.
pub fn over_rounds(per_round: &[f64]) -> f64 {
    let mut v = per_round.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(1).or(v.first()).copied().unwrap_or(f64::NAN)
}

/// Quartiles and count of the per-round values, for the note.
pub fn rounds_note(per_round: &[f64]) -> String {
    let s = Summary::of(per_round);
    format!(
        "rounds: fastest {:.4} q1 {:.4} median {:.4} q3 {:.4} n {}",
        stats::percentile(per_round, 0.0),
        s.q1,
        s.median,
        s.q3,
        s.n
    )
}

/// Peak resident set of this process (`VmHWM`), in MB of 10^6 bytes.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

pub fn mbps(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / 1e6 / secs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn over_rounds_takes_the_second_fastest_round() {
        assert_eq!(over_rounds(&[5.0, 3.0, 9.0, 4.0]), 4.0);
        assert_eq!(over_rounds(&[7.0]), 7.0);
        assert!(over_rounds(&[]).is_nan());
    }

    #[test]
    fn peak_rss_reads_this_process() {
        assert!(peak_rss_mb() > 0.5);
    }
}
