//! LINT — JSONL trace schema validator.
//!
//! Reads one or more trace files written by `--trace`/`adcomp trace` and
//! checks every line against the crate's flat-JSON schema
//! (`adcomp_trace::json::validate_line`), plus structural rules:
//!
//! * every line is a single valid JSON object whose first key is `ev`;
//! * `ev` is one of `manifest | decision | epoch | codec | sim | fault | pipeline`;
//! * each stream contains at least one manifest, and manifests precede the
//!   events they describe;
//! * per-kind event counts match what each manifest declared.
//!
//! Exits non-zero on the first malformed file; diagnostics go to stderr,
//! the per-file summary to stdout.
//!
//! Run: `cargo run --release -p adcomp-bench --bin trace_lint -- FILE...`

use adcomp_trace::json::validate_line;
use std::io::{BufRead, BufReader};
use std::process::ExitCode;

const KINDS: [&str; 7] = ["manifest", "decision", "epoch", "codec", "sim", "fault", "pipeline"];

/// Extracts the string value of a top-level `"key":"value"` pair. The trace
/// format is machine-generated with a fixed key order, so plain scanning is
/// reliable after `validate_line` accepted the line.
fn str_value<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":\"");
    let start = line.find(&needle)? + needle.len();
    let end = line[start..].find('"')?;
    Some(&line[start..start + end])
}

/// Extracts an unsigned integer from a (possibly nested) `"key":123` pair.
fn u64_value(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let digits: String = line[start..].chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

struct FileReport {
    lines: usize,
    manifests: usize,
    events: usize,
    errors: usize,
}

fn lint_file(path: &str) -> std::io::Result<FileReport> {
    let reader = BufReader::new(std::fs::File::open(path)?);
    let mut report = FileReport { lines: 0, manifests: 0, events: 0, errors: 0 };
    // Event counts for the most recent manifest, checked when the next
    // manifest (or EOF) closes its section.
    // decision, epoch, codec, sim, fault, pipeline
    let mut declared: Option<[u64; 6]> = None;
    let mut seen = [0u64; 6];
    let mut manifest_line = 0usize;
    let check_section = |declared: &mut Option<[u64; 6]>,
                            seen: &mut [u64; 6],
                            at: usize,
                            errors: &mut usize| {
        if let Some(d) = declared.take() {
            if d != *seen {
                eprintln!(
                    "{path}:{at}: manifest declared events {d:?} but section contained {seen:?}"
                );
                *errors += 1;
            }
        }
        *seen = [0; 6];
    };
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let n = lineno + 1;
        report.lines += 1;
        let keys = match validate_line(&line) {
            Ok(keys) => keys,
            Err(e) => {
                eprintln!("{path}:{n}: invalid JSON: {e}");
                report.errors += 1;
                continue;
            }
        };
        if keys.first().map(String::as_str) != Some("ev") {
            eprintln!("{path}:{n}: first key must be \"ev\", got {:?}", keys.first());
            report.errors += 1;
            continue;
        }
        let Some(kind) = str_value(&line, "ev") else {
            eprintln!("{path}:{n}: \"ev\" must be a string");
            report.errors += 1;
            continue;
        };
        if !KINDS.contains(&kind) {
            eprintln!("{path}:{n}: unknown event kind {kind:?}");
            report.errors += 1;
            continue;
        }
        if kind == "manifest" {
            check_section(&mut declared, &mut seen, manifest_line, &mut report.errors);
            manifest_line = n;
            report.manifests += 1;
            declared = Some([
                u64_value(&line, "decision").unwrap_or(0),
                u64_value(&line, "epoch").unwrap_or(0),
                u64_value(&line, "codec").unwrap_or(0),
                u64_value(&line, "sim").unwrap_or(0),
                u64_value(&line, "fault").unwrap_or(0),
                u64_value(&line, "pipeline").unwrap_or(0),
            ]);
        } else {
            report.events += 1;
            if report.manifests == 0 {
                eprintln!("{path}:{n}: event before any manifest line");
                report.errors += 1;
            }
            let idx = KINDS.iter().position(|k| *k == kind).unwrap() - 1;
            seen[idx] += 1;
        }
    }
    check_section(&mut declared, &mut seen, manifest_line, &mut report.errors);
    if report.manifests == 0 && report.errors == 0 {
        eprintln!("{path}: no manifest line found");
        report.errors += 1;
    }
    Ok(report)
}

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: trace_lint FILE.jsonl...");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for path in &files {
        match lint_file(path) {
            Ok(r) => {
                println!(
                    "{path}: {} line(s), {} manifest(s), {} event(s), {} error(s)",
                    r.lines, r.manifests, r.events, r.errors
                );
                failed |= r.errors > 0;
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
