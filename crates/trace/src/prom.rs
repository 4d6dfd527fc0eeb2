//! Prometheus-style text exposition snapshot.
//!
//! Renders counters, gauges and histograms in the Prometheus text format
//! (`# HELP` / `# TYPE` headers, cumulative `_bucket{le=…}` series), built
//! on the workspace's own instruments rather than a client library.
//! [`render_registry`] is the one renderer: the `/metrics` endpoint,
//! `adcomp top` and the stderr panel of `adcomp trace` all print a fold of
//! the live registry through it.

use std::fmt::Write as _;

/// A set of metric families, rendered in registration order.
#[derive(Debug, Default)]
pub struct PromSnapshot {
    out: String,
    /// Families already announced (name -> headers written).
    seen: Vec<String>,
}

impl PromSnapshot {
    pub fn new() -> Self {
        Self::default()
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        if !self.seen.iter().any(|s| s == name) {
            // HELP text has its own escaping rules: backslash and newline
            // only (quotes are legal there).
            let help = help.replace('\\', "\\\\").replace('\n', "\\n");
            let _ = writeln!(self.out, "# HELP {name} {help}");
            let _ = writeln!(self.out, "# TYPE {name} {kind}");
            self.seen.push(name.to_string());
        }
    }

    fn labels(labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return String::new();
        }
        let mut s = String::from("{");
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let escaped = v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
            let _ = write!(s, "{k}=\"{escaped}\"");
        }
        s.push('}');
        s
    }

    fn value(x: f64) -> String {
        if x.is_nan() {
            "NaN".to_string()
        } else if x == f64::INFINITY {
            "+Inf".to_string()
        } else if x == f64::NEG_INFINITY {
            "-Inf".to_string()
        } else {
            format!("{x}")
        }
    }

    /// A monotonically increasing counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: u64) {
        self.header(name, help, "counter");
        let _ = writeln!(self.out, "{name}{} {v}", Self::labels(labels));
    }

    /// A gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], v: f64) {
        self.header(name, help, "gauge");
        let _ = writeln!(self.out, "{name}{} {}", Self::labels(labels), Self::value(v));
    }

    /// A histogram family from pre-folded cumulative buckets (`le` edge
    /// already formatted, count cumulative). Guarantees the `+Inf`
    /// bucket, `_sum` and `_count` series the exposition format
    /// requires; the live-registry renderer funnels through here.
    pub fn histogram_cumulative(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        buckets: &[(String, u64)],
        sum: f64,
        count: u64,
    ) {
        self.header(name, help, "histogram");
        for (le, cum) in buckets {
            let mut ls: Vec<(&str, &str)> = labels.to_vec();
            ls.push(("le", le));
            let _ = writeln!(self.out, "{name}_bucket{} {cum}", Self::labels(&ls));
        }
        let mut ls: Vec<(&str, &str)> = labels.to_vec();
        ls.push(("le", "+Inf"));
        let _ = writeln!(self.out, "{name}_bucket{} {count}", Self::labels(&ls));
        let _ = writeln!(self.out, "{name}_sum{} {}", Self::labels(labels), Self::value(sum));
        let _ = writeln!(self.out, "{name}_count{} {count}", Self::labels(labels));
    }

    /// The rendered exposition text.
    #[must_use]
    pub fn render(&self) -> String {
        self.out.clone()
    }
}

/// Renders a live-registry fold as Prometheus exposition text: the
/// `/metrics` endpoint body and the `adcomp top --raw` output.
///
/// Ordering is canonical — enum declaration order for counters, gauges
/// and histogram kinds, sorted labels for the dynamic families, sparse
/// bucket edges in ascending order — so two folds of equal totals render
/// byte-identically regardless of which threads did the work.
#[must_use]
pub fn render_registry(snap: &adcomp_metrics::RegistrySnapshot) -> String {
    use adcomp_metrics::registry::GaugeKind;

    let mut p = PromSnapshot::new();
    p.gauge(
        "adcomp_registry_info",
        "Registry clock regime (wall or virtual) as an info gauge.",
        &[("mode", snap.mode.as_str())],
        1.0,
    );
    for &(kind, v) in &snap.counters {
        p.counter(kind.metric(), kind.help(), &[], v);
    }
    for (level, &n) in snap.level_epochs.iter().enumerate() {
        if n > 0 {
            let l = format!("{level}");
            p.counter(
                "adcomp_level_epochs_total",
                "Epochs spent at each compression level.",
                &[("level", &l)],
                n,
            );
        }
    }
    for (level, &n) in snap.level_blocks.iter().enumerate() {
        if n > 0 {
            let l = format!("{level}");
            p.counter(
                "adcomp_level_blocks_total",
                "Blocks emitted at each compression level.",
                &[("level", &l)],
                n,
            );
        }
    }
    for (family, entries) in &snap.labeled {
        for (label_value, n) in entries {
            let key = match family {
                adcomp_metrics::LabelFamily::DecisionCase => "case",
                adcomp_metrics::LabelFamily::FaultKind => "kind",
                adcomp_metrics::LabelFamily::ShedReason => "reason",
            };
            p.counter(family.metric(), family.help(), &[(key, label_value)], *n);
        }
    }
    if snap.label_overflow > 0 {
        p.counter(
            "adcomp_label_overflow_total",
            "Labelled-counter updates dropped because a family's slots were full.",
            &[],
            snap.label_overflow,
        );
    }
    for &(kind, v) in &snap.gauges {
        if kind == GaugeKind::CurrentLevel && v < 0 {
            continue; // Never set (sim mode or before the first epoch).
        }
        p.gauge(kind.metric(), kind.help(), &[], v as f64);
    }
    // All span kinds share one family, labelled by span; µs → seconds.
    for (kind, h) in &snap.spans {
        if h.count == 0 {
            continue;
        }
        let buckets: Vec<(String, u64)> = h
            .buckets
            .iter()
            .map(|&(ub, cum)| (PromSnapshot::value(ub as f64 / 1e6), cum))
            .collect();
        p.histogram_cumulative(
            "adcomp_span_seconds",
            "Instrumented span durations by kind.",
            &[("span", kind.metric())],
            &buckets,
            h.sum as f64 / 1e6,
            h.count,
        );
    }
    for (kind, h) in &snap.hists {
        if h.count == 0 {
            continue;
        }
        let buckets: Vec<(String, u64)> = h
            .buckets
            .iter()
            .map(|&(ub, cum)| (PromSnapshot::value(ub as f64), cum))
            .collect();
        p.histogram_cumulative(kind.metric(), kind.help(), &[], &buckets, h.sum as f64, h.count);
    }
    p.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn snapshot_format_is_prometheus_text() {
        let mut p = PromSnapshot::new();
        p.counter("adcomp_x_total", "Help text.", &[("k", "v")], 3);
        p.counter("adcomp_x_total", "Help text.", &[("k", "w")], 4);
        p.gauge("adcomp_g", "A gauge.", &[], 1.5);
        let text = p.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# HELP adcomp_x_total Help text.");
        assert_eq!(lines[1], "# TYPE adcomp_x_total counter");
        assert_eq!(lines[2], "adcomp_x_total{k=\"v\"} 3");
        // Second sample of the same family must NOT repeat headers.
        assert_eq!(lines[3], "adcomp_x_total{k=\"w\"} 4");
        assert_eq!(lines[4], "# HELP adcomp_g A gauge.");
        assert_eq!(lines[5], "# TYPE adcomp_g gauge");
        assert_eq!(lines[6], "adcomp_g 1.5");
    }

    #[test]
    fn help_text_is_escaped() {
        let mut p = PromSnapshot::new();
        p.gauge("adcomp_g", "line one\nback\\slash", &[], 1.0);
        let text = p.render();
        assert!(text.contains(r"# HELP adcomp_g line one\nback\\slash"), "{text}");
        crate::promlint::conformance_lint(&text).expect("escaped help must conform");
    }

    #[test]
    fn registry_render_passes_conformance_lint_and_is_canonical() {
        use adcomp_metrics::registry::{
            CounterKind, GaugeKind, HistKind, LabelFamily, MetricsRegistry, RegistryMode,
            SpanKind,
        };
        let reg = MetricsRegistry::new(RegistryMode::Wall);
        reg.counter_add(CounterKind::BlocksCompressed, 7);
        reg.counter_add(CounterKind::CodecInBytes, 1 << 20);
        reg.level_epoch(2);
        reg.level_block(2, 7);
        reg.gauge_set(GaugeKind::CurrentLevel, 2);
        reg.gauge_max(GaugeKind::CompressInFlightMax, 3);
        reg.label_count(LabelFamily::DecisionCase, "stable", 4);
        reg.label_count(LabelFamily::DecisionCase, "improved", 1);
        for us in [100u64, 900, 4_000] {
            reg.span_ns(SpanKind::Compress, us * 1_000);
        }
        reg.observe(HistKind::AppRate, 12_000_000);
        let text = render_registry(&reg.snapshot());
        crate::promlint::conformance_lint(&text).unwrap_or_else(|errs| {
            panic!("registry render violates conformance: {errs:#?}\n{text}")
        });
        assert!(text.contains("adcomp_registry_info{mode=\"wall\"} 1"), "{text}");
        assert!(text.contains("adcomp_blocks_compressed_total 7"), "{text}");
        assert!(text.contains("adcomp_level_epochs_total{level=\"2\"} 1"), "{text}");
        assert!(text.contains("adcomp_decisions_total{case=\"improved\"} 1"), "{text}");
        assert!(text.contains("adcomp_span_seconds_sum{span=\"compress\"} 0.005"), "{text}");
        assert!(text.contains("adcomp_span_seconds_count{span=\"compress\"} 3"), "{text}");
        assert!(text.contains("adcomp_current_level 2"), "{text}");
        // Labels render sorted: improved before stable.
        let i = text.find("case=\"improved\"").unwrap();
        let s = text.find("case=\"stable\"").unwrap();
        assert!(i < s, "{text}");
        // Two snapshots of identical totals render byte-identically.
        assert_eq!(text, render_registry(&reg.snapshot()));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut p = PromSnapshot::new();
        p.gauge("adcomp_g", "G.", &[("name", "a\"b\\c\nd")], 1.0);
        assert!(p.render().contains(r#"name="a\"b\\c\nd""#), "{}", p.render());
    }
}
