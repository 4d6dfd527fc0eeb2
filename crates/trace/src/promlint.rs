//! Prometheus text-exposition parser and conformance lint.
//!
//! One parser serves three consumers: the conformance lint run by CI on
//! `/metrics` bodies and [`crate::render_registry`] output, the
//! `adcomp top` dashboard (which reads a scrape back into samples), and
//! the prom tests. Hand-rolled like the rest of the workspace's text
//! layers — no client library.
//!
//! The lint checks the subset of the exposition format this workspace
//! promises to uphold:
//!
//! * every line parses: `# HELP`/`# TYPE` comments or
//!   `name{labels} value` samples with valid metric/label names, escaped
//!   label values (`\\`, `\"`, `\n`) and a finite/`±Inf`/`NaN` value;
//! * `# TYPE` appears at most once per family and before the family's
//!   first sample; samples of an announced family are not interleaved
//!   after another family started (Prometheus requires grouping);
//! * no two samples share a name *and* label set;
//! * counter samples are non-negative;
//! * every histogram family has, per label set: an `+Inf` bucket, a
//!   `_sum` and a `_count` series, cumulative non-decreasing bucket
//!   counts, and `+Inf == _count`.

use std::collections::BTreeMap;

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    /// Label pairs in source order, values unescaped.
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// The label set minus `exclude`, as a canonical key.
    pub fn label_key(&self, exclude: &str) -> String {
        let mut parts: Vec<String> = self
            .labels
            .iter()
            .filter(|(k, _)| k != exclude)
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        parts.sort();
        parts.join(",")
    }

    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_value(s: &str) -> Option<f64> {
    match s {
        "+Inf" => Some(f64::INFINITY),
        "-Inf" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => s.parse::<f64>().ok(),
    }
}

/// Parses one sample line; `Err` carries the reason.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_and_labels, value_str) = match line.find('{') {
        Some(open) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| "unterminated label block".to_string())?;
            (
                (&line[..open], Some(&line[open + 1..close])),
                line[close + 1..].trim(),
            )
        }
        None => {
            let mut it = line.splitn(2, ' ');
            let name = it.next().unwrap_or("");
            let rest = it.next().unwrap_or("").trim();
            ((name, None), rest)
        }
    };
    let (name, label_block) = name_and_labels;
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let mut labels = Vec::new();
    if let Some(block) = label_block {
        let mut rest = block;
        while !rest.is_empty() {
            let eq = rest.find('=').ok_or_else(|| "label without '='".to_string())?;
            let key = &rest[..eq];
            if !valid_label_name(key) {
                return Err(format!("invalid label name {key:?}"));
            }
            let after = &rest[eq + 1..];
            if !after.starts_with('"') {
                return Err("label value not quoted".to_string());
            }
            // Walk the quoted value honoring \\ \" \n escapes.
            let bytes = after.as_bytes();
            let mut value = String::new();
            let mut i = 1;
            loop {
                match bytes.get(i) {
                    None => return Err("unterminated label value".to_string()),
                    Some(b'"') => break,
                    Some(b'\\') => {
                        match bytes.get(i + 1) {
                            Some(b'\\') => value.push('\\'),
                            Some(b'"') => value.push('"'),
                            Some(b'n') => value.push('\n'),
                            other => {
                                return Err(format!("bad escape \\{:?}", other.map(|b| *b as char)))
                            }
                        }
                        i += 2;
                        continue;
                    }
                    Some(b'\n') => return Err("raw newline in label value".to_string()),
                    Some(&b) => value.push(b as char),
                }
                i += 1;
            }
            labels.push((key.to_string(), value));
            rest = &after[i + 1..];
            if let Some(r) = rest.strip_prefix(',') {
                rest = r;
            } else if !rest.is_empty() {
                return Err(format!("junk after label value: {rest:?}"));
            }
        }
    }
    let value_str = value_str.trim();
    // Ignore an optional trailing timestamp (we never emit one).
    let value_tok = value_str.split_whitespace().next().unwrap_or("");
    let value = parse_value(value_tok)
        .ok_or_else(|| format!("unparseable sample value {value_tok:?}"))?;
    Ok(Sample { name: name.to_string(), labels, value })
}

/// Parses every sample line in an exposition body (comments skipped).
/// Lines that fail to parse are skipped; use [`conformance_lint`] when
/// malformed lines must be errors.
pub fn parse_samples(text: &str) -> Vec<Sample> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| parse_sample(l).ok())
        .collect()
}

/// The base family name of a sample (histogram suffixes stripped when
/// the family is typed `histogram`).
fn family_of<'a>(name: &'a str, types: &BTreeMap<String, String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return base;
            }
        }
    }
    name
}

/// Lints `text` against the conformance rules in the module docs.
/// Returns every violation found (empty `Ok` means conformant).
pub fn conformance_lint(text: &str) -> Result<(), Vec<String>> {
    let mut errors: Vec<String> = Vec::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut helps: BTreeMap<String, String> = BTreeMap::new();
    let mut samples: Vec<Sample> = Vec::new();
    // Family of each sample, in emission order (for grouping checks).
    let mut sample_families: Vec<String> = Vec::new();

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut it = rest.splitn(3, ' ');
            match (it.next(), it.next(), it.next()) {
                (Some("HELP"), Some(name), help) => {
                    if !valid_metric_name(name) {
                        errors.push(format!("line {n}: HELP for invalid name {name:?}"));
                    } else if helps.insert(name.to_string(), help.unwrap_or("").to_string()).is_some()
                    {
                        errors.push(format!("line {n}: duplicate HELP for {name}"));
                    }
                }
                (Some("TYPE"), Some(name), Some(kind)) => {
                    if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                        errors.push(format!("line {n}: unknown TYPE {kind:?} for {name}"));
                    }
                    if !valid_metric_name(name) {
                        errors.push(format!("line {n}: TYPE for invalid name {name:?}"));
                    } else if types.insert(name.to_string(), kind.to_string()).is_some() {
                        errors.push(format!("line {n}: duplicate TYPE for {name}"));
                    }
                }
                _ => errors.push(format!("line {n}: unrecognized comment {line:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            errors.push(format!("line {n}: malformed comment {line:?}"));
            continue;
        }
        match parse_sample(line) {
            Ok(s) => {
                let fam = family_of(&s.name, &types).to_string();
                if types.contains_key(&fam) {
                    // TYPE seen — fine. A totally untyped family is also
                    // legal, but a family typed *after* its samples is not.
                } else if text.contains(&format!("# TYPE {fam} ")) {
                    errors.push(format!("line {n}: sample of {fam} precedes its TYPE header"));
                }
                sample_families.push(fam);
                samples.push(s);
            }
            Err(e) => errors.push(format!("line {n}: {e}")),
        }
    }

    // Families must be contiguous blocks.
    let mut seen_closed: Vec<&str> = Vec::new();
    let mut prev: Option<&str> = None;
    for fam in &sample_families {
        if prev != Some(fam.as_str()) {
            if seen_closed.contains(&fam.as_str()) {
                errors.push(format!("family {fam} has non-contiguous samples"));
            }
            if let Some(p) = prev {
                seen_closed.push(p);
            }
            prev = Some(fam);
        }
    }

    // Duplicate series (same name + exact label set).
    let mut series: Vec<String> = samples
        .iter()
        .map(|s| format!("{}|{}", s.name, s.label_key("")))
        .collect();
    series.sort();
    for w in series.windows(2) {
        if w[0] == w[1] {
            errors.push(format!("duplicate series {}", w[0]));
        }
    }

    // Counters must be non-negative.
    for s in &samples {
        if types.get(&s.name).map(String::as_str) == Some("counter")
            && !(s.value >= 0.0 || s.value.is_nan())
        {
            errors.push(format!("counter {} has negative value {}", s.name, s.value));
        }
    }

    // Histogram families: per label set (excluding `le`), require
    // +Inf/_sum/_count, cumulative buckets and +Inf == _count.
    for (name, kind) in &types {
        if kind != "histogram" {
            continue;
        }
        // Per label set (excluding `le`): (le, value) buckets, _sum, _count.
        type HistGroup = (Vec<(f64, f64)>, Option<f64>, Option<f64>);
        let mut groups: BTreeMap<String, HistGroup> = BTreeMap::new();
        for s in &samples {
            let (suffix, base) = if let Some(b) = s.name.strip_suffix("_bucket") {
                ("bucket", b)
            } else if let Some(b) = s.name.strip_suffix("_sum") {
                ("sum", b)
            } else if let Some(b) = s.name.strip_suffix("_count") {
                ("count", b)
            } else {
                continue;
            };
            if base != name {
                continue;
            }
            let entry = groups.entry(s.label_key("le")).or_default();
            match suffix {
                "bucket" => match s.label("le").and_then(parse_value) {
                    Some(le) => entry.0.push((le, s.value)),
                    None => errors.push(format!("{name}_bucket sample without valid le label")),
                },
                "sum" => entry.1 = Some(s.value),
                _ => entry.2 = Some(s.value),
            }
        }
        if groups.is_empty() {
            errors.push(format!("histogram {name} announced but has no samples"));
        }
        for (key, (buckets, sum, count)) in groups {
            let ctx = if key.is_empty() { name.clone() } else { format!("{name}{{{key}}}") };
            let inf = buckets.iter().find(|(le, _)| le.is_infinite());
            if inf.is_none() {
                errors.push(format!("histogram {ctx} missing +Inf bucket"));
            }
            if sum.is_none() {
                errors.push(format!("histogram {ctx} missing _sum"));
            }
            let Some(count) = count else {
                errors.push(format!("histogram {ctx} missing _count"));
                continue;
            };
            if let Some((_, inf_v)) = inf {
                if *inf_v != count {
                    errors.push(format!(
                        "histogram {ctx}: +Inf bucket {inf_v} != _count {count}"
                    ));
                }
            }
            let mut sorted = buckets.clone();
            sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in sorted.windows(2) {
                if w[1].1 < w[0].1 {
                    errors.push(format!(
                        "histogram {ctx}: bucket counts not cumulative (le={} count {} < le={} count {})",
                        w[1].0, w[1].1, w[0].0, w[0].1
                    ));
                    break;
                }
            }
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_samples_with_escaped_labels() {
        let s = parse_sample(r#"adcomp_x_total{case="a\"b\\c\nd",level="2"} 42"#).unwrap();
        assert_eq!(s.name, "adcomp_x_total");
        assert_eq!(s.labels[0], ("case".to_string(), "a\"b\\c\nd".to_string()));
        assert_eq!(s.labels[1], ("level".to_string(), "2".to_string()));
        assert_eq!(s.value, 42.0);
        assert_eq!(parse_sample("adcomp_up 1").unwrap().labels.len(), 0);
        assert!(parse_value("+Inf").unwrap().is_infinite());
    }

    #[test]
    fn lint_accepts_a_conformant_histogram() {
        let text = "\
# HELP adcomp_h H.
# TYPE adcomp_h histogram
adcomp_h_bucket{le=\"0.5\"} 2
adcomp_h_bucket{le=\"+Inf\"} 4
adcomp_h_sum 3.5
adcomp_h_count 4
";
        assert_eq!(conformance_lint(text), Ok(()));
    }

    #[test]
    fn lint_flags_missing_sum_inf_and_count() {
        let text = "\
# HELP adcomp_h H.
# TYPE adcomp_h histogram
adcomp_h_bucket{le=\"0.5\"} 2
adcomp_h_count 2
";
        let errs = conformance_lint(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("missing +Inf")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("missing _sum")), "{errs:?}");
    }

    #[test]
    fn lint_flags_non_cumulative_buckets_and_inf_count_mismatch() {
        let text = "\
# TYPE adcomp_h histogram
adcomp_h_bucket{le=\"1\"} 5
adcomp_h_bucket{le=\"2\"} 3
adcomp_h_bucket{le=\"+Inf\"} 9
adcomp_h_sum 1
adcomp_h_count 8
";
        let errs = conformance_lint(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not cumulative")), "{errs:?}");
        assert!(errs.iter().any(|e| e.contains("+Inf bucket 9 != _count 8")), "{errs:?}");
    }

    #[test]
    fn lint_flags_duplicates_raw_newlines_and_bad_names() {
        let errs = conformance_lint("adcomp_g 1\nadcomp_g 1\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("duplicate series")), "{errs:?}");
        let errs = conformance_lint("1bad_name 1\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("invalid metric name")), "{errs:?}");
        let errs = conformance_lint("adcomp_g{x=\"unterminated} 1\n").unwrap_err();
        assert!(!errs.is_empty());
        // A negative counter is caught; a negative gauge is fine.
        let errs =
            conformance_lint("# TYPE adcomp_c counter\nadcomp_c -1\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("negative")), "{errs:?}");
        assert_eq!(conformance_lint("# TYPE adcomp_g gauge\nadcomp_g -1\n"), Ok(()));
    }

    #[test]
    fn lint_flags_interleaved_families() {
        let text = "adcomp_a 1\nadcomp_b 1\nadcomp_a{k=\"v\"} 1\n";
        let errs = conformance_lint(text).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("non-contiguous")), "{errs:?}");
    }
}
