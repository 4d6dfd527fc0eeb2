//! `adcomp top` — ASCII dashboard over a Prometheus scrape.
//!
//! The renderer takes exposition *text* (from the in-process registry or
//! an HTTP scrape of a remote `/metrics`) and derives every panel from
//! the parsed samples: there is one code path whether you watch a local
//! sim or a live server. Span quantiles are recomputed from the
//! cumulative `_bucket` series the same way the registry computes them
//! (first `le` whose cumulative count reaches the rank), so dashboard
//! p50/p99/p999 match a scrape byte for byte — and in sim mode the whole
//! render is deterministic for any `ADCOMP_THREADS`.

use crate::promlint::{parse_samples, Sample};
use std::fmt::Write as _;

/// Formats a duration given in seconds with a fixed 4-significant-digit
/// µs/ms/s ladder.
fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{s:.3}s")
    }
}

fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2} GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.1} MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1} kB", b / 1e3)
    } else {
        format!("{b:.0} B")
    }
}

fn fmt_rate(bps: f64) -> String {
    format!("{}/s", fmt_bytes(bps))
}

struct View<'a> {
    samples: &'a [Sample],
}

impl<'a> View<'a> {
    /// First sample of `name` with no (or any) labels.
    fn value(&self, name: &str) -> Option<f64> {
        self.samples.iter().find(|s| s.name == name).map(|s| s.value)
    }

    /// `(label_value, sample_value)` pairs of a labelled counter family.
    fn family(&self, name: &str, key: &str) -> Vec<(String, f64)> {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.label(key).map(|l| (l.to_string(), s.value)))
            .collect()
    }

    /// Histogram quantile for a family + optional selector label, walked
    /// from the cumulative `_bucket` series.
    fn hist_quantile(&self, family: &str, label: Option<(&str, &str)>, q: f64) -> Option<f64> {
        let matches = |s: &&Sample| {
            s.name == format!("{family}_bucket")
                && label.is_none_or(|(k, v)| s.label(k) == Some(v))
        };
        let mut buckets: Vec<(f64, f64)> = self
            .samples
            .iter()
            .filter(matches)
            .filter_map(|s| {
                let le = s.label("le")?;
                let le = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
                Some((le, s.value))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let count = buckets.last()?.1;
        if count == 0.0 {
            return None;
        }
        let rank = (q * count).ceil().clamp(1.0, count);
        buckets.iter().find(|&&(_, cum)| cum >= rank).map(|&(le, _)| le)
    }

    fn hist_count(&self, family: &str, label: Option<(&str, &str)>) -> f64 {
        self.samples
            .iter()
            .filter(|s| {
                s.name == format!("{family}_count")
                    && label.is_none_or(|(k, v)| s.label(k) == Some(v))
            })
            .map(|s| s.value)
            .sum()
    }
}

/// Renders the dashboard for one scrape body. Pure text → text.
#[must_use]
pub fn render_top(exposition: &str) -> String {
    let samples = parse_samples(exposition);
    let v = View { samples: &samples };
    let mut out = String::new();

    let mode = samples
        .iter()
        .find(|s| s.name == "adcomp_registry_info")
        .and_then(|s| s.label("mode").map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string());
    let _ = writeln!(out, "adcomp top · registry mode: {mode}");
    let _ = writeln!(out);

    // Level + epoch panel.
    let level = v.value("adcomp_current_level");
    let level_str = match level {
        Some(l) if l >= 0.0 => format!("{l:.0}"),
        _ => "-".to_string(),
    };
    let epochs = v.value("adcomp_epochs_total").unwrap_or(0.0);
    let _ = writeln!(out, "level now : {level_str:<8} epochs : {epochs:.0}");

    let levels = v.family("adcomp_level_epochs_total", "level");
    if !levels.is_empty() {
        let max = levels.iter().map(|(_, n)| *n).fold(1.0f64, f64::max);
        let mut line = String::from("levels    : ");
        for (i, (l, n)) in levels.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            let bar = "█".repeat(((n / max) * 8.0).ceil() as usize);
            let _ = write!(line, "L{l} {bar} {n:.0}");
        }
        let _ = writeln!(out, "{line}");
    }

    let cases = v.family("adcomp_decisions_total", "case");
    if !cases.is_empty() {
        let parts: Vec<String> =
            cases.iter().map(|(c, n)| format!("{c} {n:.0}")).collect();
        let _ = writeln!(out, "decisions : {}", parts.join(" · "));
    }

    // Throughput panel.
    let blocks = v.value("adcomp_blocks_compressed_total").unwrap_or(0.0)
        + v.value("adcomp_sim_blocks_total").unwrap_or(0.0);
    let decoded = v.value("adcomp_blocks_decompressed_total").unwrap_or(0.0);
    let raw = v.value("adcomp_raw_fallbacks_total").unwrap_or(0.0);
    let _ = writeln!(
        out,
        "blocks    : compressed {blocks:.0} · decompressed {decoded:.0} · raw-fallback {raw:.0}"
    );
    let cin = v.value("adcomp_codec_in_bytes_total").unwrap_or(0.0);
    let cout = v.value("adcomp_codec_out_bytes_total").unwrap_or(0.0);
    if cin > 0.0 {
        let _ = writeln!(
            out,
            "bytes     : in {} → wire {} (ratio {:.3})",
            fmt_bytes(cin),
            fmt_bytes(cout),
            cout / cin
        );
    }
    let rate_n = v.hist_count("adcomp_epoch_rate_bytes_per_second", None);
    if rate_n > 0.0 {
        let p50 = v.hist_quantile("adcomp_epoch_rate_bytes_per_second", None, 0.5).unwrap_or(0.0);
        let p99 = v.hist_quantile("adcomp_epoch_rate_bytes_per_second", None, 0.99).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "epoch rate: p50 {} · p99 {} (n={rate_n:.0})",
            fmt_rate(p50),
            fmt_rate(p99)
        );
    }

    // Queue panel.
    let cq = v.value("adcomp_compress_in_flight").unwrap_or(0.0);
    let cqm = v.value("adcomp_compress_in_flight_max").unwrap_or(0.0);
    let dq = v.value("adcomp_decode_in_flight").unwrap_or(0.0);
    let dqm = v.value("adcomp_decode_in_flight_max").unwrap_or(0.0);
    let rm = v.value("adcomp_reorder_depth_max").unwrap_or(0.0);
    let _ = writeln!(
        out,
        "queues    : compress {cq:.0} (max {cqm:.0}) · decode {dq:.0} (max {dqm:.0}) · reorder max {rm:.0}"
    );

    // Robustness panel: serve-daemon overload and recovery events.
    // Rendered only when the scrape carries serve metrics, so sim-mode
    // dashboards stay unchanged.
    let accepted = v.value("adcomp_serve_accepted_total");
    if let Some(accepted) = accepted {
        let completed = v.value("adcomp_serve_completed_total").unwrap_or(0.0);
        let active = v.value("adcomp_serve_active_conns").unwrap_or(0.0);
        let active_max = v.value("adcomp_serve_active_conns_max").unwrap_or(0.0);
        let resumes = v.value("adcomp_serve_resumes_total").unwrap_or(0.0);
        let timeouts = v.value("adcomp_serve_timeouts_total").unwrap_or(0.0);
        let aborts = v.value("adcomp_serve_aborts_total").unwrap_or(0.0);
        let retries = v.value("adcomp_client_retries_total").unwrap_or(0.0);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "serve     : active {active:.0} (max {active_max:.0}) · accepted {accepted:.0} · \
             completed {completed:.0} · resumed {resumes:.0}"
        );
        let _ = writeln!(
            out,
            "overload  : timeouts {timeouts:.0} · aborts {aborts:.0} · client retries {retries:.0}"
        );
        let shed = v.family("adcomp_serve_shed_total", "reason");
        if !shed.is_empty() {
            let parts: Vec<String> =
                shed.iter().map(|(r, n)| format!("{r} {n:.0}")).collect();
            let _ = writeln!(out, "shed      : {}", parts.join(" · "));
        }
        let drains = v.value("adcomp_serve_drains_total").unwrap_or(0.0);
        let drained = v.value("adcomp_serve_drained_transfers_total").unwrap_or(0.0);
        let _ = writeln!(
            out,
            "drain     : drains {drains:.0} ({drained:.0} transfers finished draining)"
        );
        let rec_corrupt = v.value("adcomp_recovery_corrupt_frames_total").unwrap_or(0.0);
        let rec_trunc = v.value("adcomp_recovery_truncations_total").unwrap_or(0.0);
        let _ = writeln!(out, "recovery  : corrupt {rec_corrupt:.0} · truncations {rec_trunc:.0}");
    }

    // Seekable-read panel: ranged reads through the block index and the
    // decoded-block cache behind them. Rendered only when the scrape
    // carries cache metrics, so hand-rolled scrapes stay unchanged.
    let hits = v.value("adcomp_cache_hits_total");
    let misses = v.value("adcomp_cache_misses_total");
    if hits.is_some() || misses.is_some() {
        let hits = hits.unwrap_or(0.0);
        let misses = misses.unwrap_or(0.0);
        let lookups = hits + misses;
        let ratio = if lookups > 0.0 { hits / lookups * 100.0 } else { 0.0 };
        let resident = v.value("adcomp_cache_resident_bytes").unwrap_or(0.0);
        let evictions = v.value("adcomp_cache_evictions_total").unwrap_or(0.0);
        let ranged = v.value("adcomp_ranged_reads_total").unwrap_or(0.0);
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "cache     : hit {ratio:.1}% ({hits:.0}/{lookups:.0}) · resident {} · evictions {evictions:.0}",
            fmt_bytes(resident)
        );
        let _ = writeln!(out, "ranged    : reads {ranged:.0}");
    }

    // Span latency table: every span label present in the scrape.
    let mut spans: Vec<String> = samples
        .iter()
        .filter(|s| s.name == "adcomp_span_seconds_count")
        .filter_map(|s| s.label("span").map(str::to_string))
        .collect();
    spans.dedup();
    if !spans.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>10} {:>10} {:>10}",
            "span", "count", "p50", "p99", "p999"
        );
        for span in spans {
            let sel = Some(("span", span.as_str()));
            let count = v.hist_count("adcomp_span_seconds", sel);
            let q = |q: f64| {
                v.hist_quantile("adcomp_span_seconds", sel, q)
                    .map_or("-".to_string(), fmt_secs)
            };
            let _ = writeln!(
                out,
                "{span:<16} {count:>9.0} {:>10} {:>10} {:>10}",
                q(0.5),
                q(0.99),
                q(0.999)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRAPE: &str = "\
adcomp_registry_info{mode=\"virtual\"} 1
adcomp_epochs_total 36
adcomp_level_epochs_total{level=\"0\"} 12
adcomp_level_epochs_total{level=\"2\"} 24
adcomp_decisions_total{case=\"improved\"} 9
adcomp_decisions_total{case=\"stable\"} 20
adcomp_blocks_compressed_total 0
adcomp_sim_blocks_total 420
adcomp_codec_in_bytes_total 55000000
adcomp_codec_out_bytes_total 21300000
adcomp_current_level -1
adcomp_span_seconds_bucket{span=\"compress\",le=\"0.000811\"} 210
adcomp_span_seconds_bucket{span=\"compress\",le=\"0.0023\"} 416
adcomp_span_seconds_bucket{span=\"compress\",le=\"0.0041\"} 420
adcomp_span_seconds_bucket{span=\"compress\",le=\"+Inf\"} 420
adcomp_span_seconds_sum{span=\"compress\"} 0.4
adcomp_span_seconds_count{span=\"compress\"} 420
";

    #[test]
    fn renders_every_panel_from_a_scrape() {
        let top = render_top(SCRAPE);
        assert!(top.contains("registry mode: virtual"), "{top}");
        assert!(top.contains("epochs : 36"), "{top}");
        assert!(top.contains("L0"), "{top}");
        assert!(top.contains("stable 20"), "{top}");
        assert!(top.contains("compressed 420"), "{top}");
        assert!(top.contains("ratio 0.387"), "{top}");
        // p50 rank 210 lands in the first bucket, p99/p999 above it.
        assert!(top.contains("compress"), "{top}");
        assert!(top.contains("811.0µs"), "{top}");
        assert!(top.contains("4.10ms"), "{top}");
        // Unset current level renders as '-'.
        assert!(top.contains("level now : -"), "{top}");
    }

    #[test]
    fn serve_scrape_gets_a_robustness_panel() {
        let scrape = "\
adcomp_registry_info{mode=\"wall\"} 1
adcomp_serve_accepted_total 40
adcomp_serve_completed_total 37
adcomp_serve_active_conns 3
adcomp_serve_active_conns_max 12
adcomp_serve_resumes_total 5
adcomp_serve_timeouts_total 2
adcomp_serve_aborts_total 1
adcomp_client_retries_total 9
adcomp_serve_shed_total{reason=\"capacity\"} 4
adcomp_serve_shed_total{reason=\"tenant_quota\"} 2
adcomp_serve_drains_total 1
adcomp_serve_drained_transfers_total 6
adcomp_recovery_corrupt_frames_total 8
adcomp_recovery_truncations_total 2
";
        let top = render_top(scrape);
        assert!(top.contains("active 3 (max 12)"), "{top}");
        assert!(top.contains("accepted 40"), "{top}");
        assert!(top.contains("resumed 5"), "{top}");
        assert!(top.contains("timeouts 2"), "{top}");
        assert!(top.contains("capacity 4 · tenant_quota 2"), "{top}");
        assert!(top.contains("drain     : drains 1 (6 transfers finished draining)"), "{top}");
        assert!(top.contains("recovery  : corrupt 8 · truncations 2"), "{top}");
        // No serve metrics in the scrape → no serve panel.
        assert!(!render_top(SCRAPE).contains("serve     :"), "sim scrape grew a serve panel");
    }

    #[test]
    fn cache_scrape_gets_a_seekable_read_panel() {
        let scrape = "\
adcomp_registry_info{mode=\"wall\"} 1
adcomp_ranged_reads_total 40
adcomp_cache_hits_total 90
adcomp_cache_misses_total 10
adcomp_cache_evictions_total 4
adcomp_cache_resident_bytes 524288
";
        let top = render_top(scrape);
        assert!(top.contains("cache     : hit 90.0% (90/100)"), "{top}");
        assert!(top.contains("resident 524.3 kB"), "{top}");
        assert!(top.contains("evictions 4"), "{top}");
        assert!(top.contains("ranged    : reads 40\n"), "{top}");
        // No cache metrics in the scrape → no cache panel.
        assert!(!render_top(SCRAPE).contains("cache     :"), "sim scrape grew a cache panel");
    }

    #[test]
    fn render_is_pure_text_to_text() {
        assert_eq!(render_top(SCRAPE), render_top(SCRAPE));
        // Empty scrape still renders headers without panicking.
        let empty = render_top("");
        assert!(empty.contains("adcomp top"), "{empty}");
    }
}
