//! The metric names of `BENCHMARK.json`, the result line of one workload
//! run, and `run`: every workload, each in a child process of its own.

use crate::harness::Outcome;
use crate::json::{self, Value};
use crate::{Args, DEFAULT_SECONDS, WORKLOADS};
use adcomp::trace::json::{write_f64, write_str};
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// `op1_ms`..`op5_ms` are the wall times of the workload's own user-visible
/// operations; which operation each slot holds is in the workload's `why`
/// in `BENCHMARK.json` and in README.md.
pub const END_TO_END: [(&str, &str); 8] = [
    ("op1_ms", "ms"),
    ("op2_ms", "ms"),
    ("op3_ms", "ms"),
    ("op4_ms", "ms"),
    ("op5_ms", "ms"),
    ("wire_ratio", "B/B"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A layer
/// the workload does not run reports 0 for its shares and counts; rates and
/// per-call times are measured on the workload's own blocks everywhere.
pub const PER_LAYER: [(&str, &str); 67] = [
    ("codecs.qlz.light_compress_mbps", "MB/s"),
    ("codecs.qlz.medium_compress_mbps", "MB/s"),
    ("codecs.qlz.decompress_mbps", "MB/s"),
    ("codecs.qlz.busy_frac", "frac"),
    ("codecs.heavy.compress_mbps", "MB/s"),
    ("codecs.heavy.decompress_mbps", "MB/s"),
    ("codecs.heavy.busy_frac", "frac"),
    ("codecs.huff.compress_mbps", "MB/s"),
    ("codecs.huff.decompress_mbps", "MB/s"),
    ("codecs.huff.busy_frac", "frac"),
    ("codecs.columnar.compress_mbps", "MB/s"),
    ("codecs.columnar.decompress_mbps", "MB/s"),
    ("codecs.columnar.busy_frac", "frac"),
    ("codecs.crc32.mbps", "MB/s"),
    ("codecs.crc32.busy_frac", "frac"),
    ("codecs.frame.encode_mbps", "MB/s"),
    ("codecs.frame.decode_mbps", "MB/s"),
    ("codecs.frame.self_frac", "frac"),
    ("codecs.frame.blocks", "count"),
    ("codecs.frame.raw_fallback_frac", "frac"),
    ("codecs.seek.busy_frac", "frac"),
    ("codecs.seek.index_overhead_frac", "frac"),
    ("core.portfolio.probe_mbps", "MB/s"),
    ("core.portfolio.busy_frac", "frac"),
    ("core.portfolio.frac_raw", "frac"),
    ("core.portfolio.frac_qlz", "frac"),
    ("core.portfolio.frac_huff", "frac"),
    ("core.portfolio.frac_columnar", "frac"),
    ("core.portfolio.frac_heavy", "frac"),
    ("core.stream.self_frac", "frac"),
    ("core.stream.read_light_mbps", "MB/s"),
    ("core.stream.read_portfolio_mbps", "MB/s"),
    ("core.pipeline.j2_speedup", "ratio"),
    ("core.controller.epochs", "count"),
    ("core.controller.switches", "count"),
    ("core.controller.level0_frac", "frac"),
    ("core.controller.level1_frac", "frac"),
    ("core.controller.level2_frac", "frac"),
    ("core.controller.level3_frac", "frac"),
    ("core.controller.regret_frac", "frac"),
    ("core.throttle.wait_frac", "frac"),
    ("core.throttle.link_util_frac", "frac"),
    ("core.seek.read_range_us_p50", "us"),
    ("core.seek.self_frac", "frac"),
    ("serve.proto.busy_frac", "frac"),
    ("serve.server.request_floor_us_p50", "us"),
    ("serve.server.busy_frac", "frac"),
    ("serve.server.accepted", "count"),
    ("serve.server.shed", "count"),
    ("serve.client.retries", "count"),
    ("serve.server.op2_p99_over_p50", "ratio"),
    ("serve.server.op4_p99_over_p50", "ratio"),
    ("serve.cache.hit_ratio_cold", "frac"),
    ("serve.cache.hit_ratio_hot", "frac"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.get_hit_ns_p50", "ns"),
    ("serve.cache.insert_ns_p50", "ns"),
    ("serve.cache.busy_frac", "frac"),
    ("metrics.registry.on_overhead_frac", "frac"),
    ("os.file.self_frac", "frac"),
    ("os.socket.self_frac", "frac"),
    ("os.socket.loopback_mbps", "MB/s"),
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("corpus.gen_mbps", "MB/s"),
];

/// The result object of one run: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, the metrics exactly `expected`: one the workload
/// did not report, or one `BENCHMARK.json` does not list, is an error.
pub fn result_line(outcome: &Outcome, expected: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = String::from("{");
    for (i, (name, unit)) in expected.iter().enumerate() {
        let m = outcome
            .metrics
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("workload did not report {name}"))?;
        if m.unit != *unit {
            return Err(format!("{name} reported in {} instead of {unit}", m.unit));
        }
        if !m.value.is_finite() {
            return Err(format!("{name} is not a finite number"));
        }
        if i > 0 {
            metrics.push(',');
        }
        write_str(&mut metrics, name);
        metrics.push_str(":{\"value\":");
        write_f64(&mut metrics, m.value);
        metrics.push_str(",\"unit\":");
        write_str(&mut metrics, unit);
        metrics.push('}');
    }
    metrics.push('}');
    if let Some(extra) = outcome
        .metrics
        .iter()
        .find(|m| !expected.iter().any(|e| e.0 == m.name))
    {
        return Err(format!(
            "workload reported {} which BENCHMARK.json does not list",
            extra.name
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    ))
}

/// Runs one workload as a child process, echoing its report; returns its
/// result line and whether it reads `"correct":true`.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn().map_err(|e| format!("spawn {workload}: {e}"))?;
    let mut last = String::new();
    for line in BufReader::new(child.stdout.take().expect("piped stdout")).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        eprintln!("adcomp-benchmark: {workload} exited with {status}");
    }
    let result = json::parse(&last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    let correct = result.get("correct").and_then(Value::as_bool) == Some(true);
    Ok((last, correct))
}

/// `run`: every workload `--runs` times (run `i` on seed `--seed + i`),
/// each in its own process, then one results file.
pub fn run_all(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    let runs: u64 = args.parsed("--runs", 1)?;
    let traced = args.has("--traced");
    let smoke = args.has("--smoke");
    let default_out = format!(
        "benchmark/out/results-seed{seed}{}.json",
        if traced { "-traced" } else { "" }
    );
    let out_path = args.value("--out").unwrap_or(&default_out).to_string();

    let mut records = Vec::new();
    let mut failed = false;
    for i in 0..runs {
        for workload in WORKLOADS {
            println!("== {workload} seed {} ({}/{runs})", seed + i, i + 1);
            let (result, correct) = run_child(workload, seed + i, seconds, traced, smoke)?;
            failed |= !correct;
            let mut record = String::from("{\"workload\":");
            write_str(&mut record, workload);
            record.push_str(&format!(
                ",\"seed\":{},\"trace\":{},\"result\":{result}}}",
                seed + i,
                traced as u8
            ));
            records.push(record);
        }
    }
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    let doc = format!(
        "{{\"schema\":\"adcomp-benchmark-results-v1\",\"seed\":{seed},\"seconds\":{seconds},\"traced\":{traced},\"runs\":[\n{}\n]}}\n",
        records.join(",\n")
    );
    std::fs::write(&out_path, doc).map_err(|e| format!("write {out_path}: {e}"))?;
    println!("results written to {out_path}");
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// `BENCHMARK.json` and the harness must name the same metrics with the
    /// same units, and the same workloads.
    #[test]
    fn benchmark_json_lists_what_the_harness_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> BTreeSet<(String, String)> {
            doc.get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| {
                    (
                        m.get("name").unwrap().as_str().unwrap().to_string(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect()
        };
        let ours = |names: &[(&str, &str)]| -> BTreeSet<(String, String)> {
            names
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(true);
        o.push("a_ms", 1.25, "ms", String::new());
        let line = result_line(&o, &[("a_ms", "ms")]).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"a_ms":{"value":1.25,"unit":"ms"}}}"#
        );
        assert!(result_line(&o, &[("a_ms", "ms"), ("b_ms", "ms")]).is_err());
        assert!(result_line(&o, &[]).is_err());
    }
}
