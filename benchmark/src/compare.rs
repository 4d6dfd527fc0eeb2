//! `compare A.json B.json`: one row per (end-to-end metric, workload) with
//! both sets' medians and quartiles, how much worse B is than A, the bound
//! from `BENCHMARK.json`, and a verdict.

use crate::json::{self, Value};
use crate::stats::Summary;
use crate::Args;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// `workload -> metric -> one value per run`, from the untraced records of
/// a results file.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for record in doc.get("runs").ok_or(format!("{path}: no runs"))?.as_arr() {
        if record.get("trace").and_then(Value::as_f64) != Some(0.0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or("run without workload")?;
        let Some(Value::Obj(metrics)) = record.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{path}: run of {workload} without metrics"));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("metric without value")?;
            runs.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(runs)
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The runs of one set spread wider than the bound: nothing can be said.
    Unresolved,
}

/// How much worse `b` is than `a` as a share of `a`'s median (negative:
/// better), and what that means against `bound`.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse = sign * (sb.median - sa.median) / sa.median.abs();
    let all_better = a.iter().all(|&x| b.iter().all(|&y| sign * (y - x) < 0.0));
    let verdict = if sa.spread().max(sb.spread()) > bound && !all_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

pub fn main(args: &Args) -> Result<ExitCode, String> {
    let files = args.positional(&["--benchmark"]);
    let [a_path, b_path] = files[..] else {
        return Err("compare takes two results files".into());
    };
    let bench_path = args.value("--benchmark").unwrap_or("BENCHMARK.json");
    let bench = json::parse(
        &std::fs::read_to_string(bench_path).map_err(|e| format!("{bench_path}: {e}"))?,
    )
    .map_err(|e| format!("{bench_path}: {e}"))?;
    let (a, b) = (load_runs(a_path)?, load_runs(b_path)?);

    println!(
        "{:<15} {:<12} {:>12} {:>21} {:>12} {:>21} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "worse", "bound"
    );
    let mut regressed = false;
    for (workload, a_metrics) in &a {
        for m in bench
            .get("end_to_end")
            .ok_or("BENCHMARK.json without end_to_end")?
            .as_arr()
        {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without bound")?;
            let lower = m.get("better").and_then(Value::as_str) == Some("lower");
            let (Some(av), Some(bv)) = (
                a_metrics.get(name),
                b.get(workload).and_then(|w| w.get(name)),
            ) else {
                return Err(format!("{name} on {workload} is missing from one set"));
            };
            let (sa, sb) = (Summary::of(av), Summary::of(bv));
            let (worse, verdict) = judge(av, bv, lower, bound);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{workload:<15} {name:<12} {:>12.4} {:>10.4}..{:<9.4} {:>12.4} {:>10.4}..{:<9.4} {:>+8.4} {bound:>6.3}  {}",
                sa.median,
                sa.q1,
                sa.q3,
                sb.median,
                sb.q1,
                sb.q3,
                worse,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.8];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let noisy = [80.0, 130.0, 100.0, 150.0, 70.0];
        assert_eq!(judge(&a, &same, true, 0.1).1, Verdict::Ok);
        let (worse, verdict) = judge(&a, &slower, true, 0.1);
        assert!((worse - 0.2).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regressed);
        // The same numbers are an improvement when higher is better.
        assert_eq!(judge(&a, &slower, false, 0.1), (-0.2, Verdict::Ok));
        assert_eq!(judge(&a, &noisy, true, 0.1).1, Verdict::Unresolved);
        // Wide spread, but every run of B beats every run of A.
        let faster_noisy = [50.0, 80.0, 60.0, 90.0, 40.0];
        assert_eq!(judge(&a, &faster_noisy, true, 0.1).1, Verdict::Ok);
    }
}
