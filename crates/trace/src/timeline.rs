//! ASCII "level over time" timeline — the shape of the paper's Fig. 5.
//!
//! Renders the compression level chosen by the controller as a step
//! function over time, one row per level, plus a second panel with the
//! per-epoch application data rate as a sparkline. Input is the
//! run's decision (or epoch) events.

use crate::events::TraceEvent;
use std::fmt::Write as _;

/// Plot width in columns (time buckets).
const WIDTH: usize = 72;
/// Level names, index = level; a level past the list prints as `L<n>`.
const LEVEL_NAMES: [&str; 4] = ["NO", "LIGHT", "MEDIUM", "HEAVY"];

/// The (t, level) step function extracted from a run's events.
///
/// Decision events are preferred (they carry the post-decision level);
/// epoch events are used when no decisions are present (static models).
fn level_steps(events: &[TraceEvent]) -> Vec<(f64, u32)> {
    let mut steps: Vec<(f64, u32)> =
        events
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Decision(e) => Some((e.t, e.ccl)),
                _ => None,
            })
            .collect();
    if steps.is_empty() {
        steps = events
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Epoch(e) => Some((e.t, e.level)),
                _ => None,
            })
            .collect();
    }
    steps
}

/// Renders the timeline; returns `None` when `events` holds no decision
/// or epoch events to plot.
#[must_use]
pub fn render_level_timeline(events: &[TraceEvent]) -> Option<String> {
    let steps = level_steps(events);
    if steps.is_empty() {
        return None;
    }
    let t_end = steps.iter().map(|&(t, _)| t).fold(0.0f64, f64::max).max(1e-9);
    let width = WIDTH;
    let max_level = steps.iter().map(|&(_, l)| l).max().unwrap_or(0);
    let rows = (max_level + 1).max(LEVEL_NAMES.len() as u32);

    // Majority level per column.
    let mut col_level = vec![0u32; width];
    let mut counts = vec![vec![0u32; rows as usize]; width];
    // Walk the step function over a fine grid (4 samples per column).
    let samples = width * 4;
    let mut idx = 0usize;
    let mut level = steps[0].1;
    for s in 0..samples {
        let t = t_end * (s as f64 + 0.5) / samples as f64;
        while idx < steps.len() && steps[idx].0 <= t {
            level = steps[idx].1;
            idx += 1;
        }
        let col = (s * width / samples).min(width - 1);
        counts[col][level.min(rows - 1) as usize] += 1;
    }
    for (col, c) in counts.iter().enumerate() {
        let best = c
            .iter()
            .enumerate()
            .max_by_key(|&(_, n)| *n)
            .map(|(l, _)| l as u32)
            .unwrap_or(0);
        col_level[col] = best;
    }

    let name_of = |l: u32| -> String {
        LEVEL_NAMES.get(l as usize).map_or_else(|| format!("L{l}"), |n| n.to_string())
    };
    let label_w = (0..rows).map(|l| name_of(l).len()).max().unwrap_or(2).max(2);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "level over time — {} decisions, t = 0..{:.1} s",
        steps.len(),
        t_end
    );
    for l in (0..rows).rev() {
        let _ = write!(out, "{:>label_w$} |", name_of(l));
        for &cl in &col_level {
            out.push(if cl == l { '█' } else if cl > l { '·' } else { ' ' });
        }
        out.push('\n');
    }
    let _ = write!(out, "{:>label_w$} +", "");
    for _ in 0..width {
        out.push('-');
    }
    out.push('\n');
    let mid = format!("{:.0}s", t_end / 2.0);
    let end = format!("{:.0}s", t_end);
    let _ = writeln!(
        out,
        "{:>label_w$}  0s{:>mid_pos$}{:>end_pos$}",
        "",
        mid,
        end,
        mid_pos = width / 2 - 2,
        end_pos = width - width / 2 - mid.len().min(width / 2)
    );

    let rates: Vec<(f64, f64)> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Epoch(e) if e.rate.is_finite() => Some((e.t, e.rate)),
            _ => None,
        })
        .collect();
    if !rates.is_empty() {
        let max_rate = rates.iter().map(|&(_, r)| r).fold(0.0f64, f64::max).max(1e-9);
        const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let mut cols = vec![(0.0f64, 0u32); width];
        for &(t, r) in &rates {
            let col = ((t / t_end * width as f64) as usize).min(width - 1);
            cols[col].0 += r;
            cols[col].1 += 1;
        }
        let mut line = String::new();
        for &(sum, n) in &cols {
            if n == 0 {
                line.push(' ');
            } else {
                let frac = (sum / n as f64) / max_rate;
                let g = ((frac * (GLYPHS.len() - 1) as f64).round() as usize)
                    .min(GLYPHS.len() - 1);
                line.push(GLYPHS[g]);
            }
        }
        let _ = writeln!(
            out,
            "{:>label_w$} |{line}| app rate (peak {:.1} MB/s)",
            "rate",
            max_rate / 1e6
        );
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{DecisionEvent, EpochEvent, MAX_LEVELS};

    fn decision(t: f64, ccl: u32) -> TraceEvent {
        DecisionEvent {
            epoch: (t / 2.0) as u64,
            t,
            cdr: 1e6,
            pdr: 0.9e6,
            ccl,
            prev_level: ccl,
            case: "stable",
            backoffs: [0; MAX_LEVELS],
            num_levels: 4,
        }
        .into()
    }

    #[test]
    fn renders_all_rows_and_axis() {
        let events: Vec<TraceEvent> = (0..60)
            .map(|i| decision(2.0 * (i + 1) as f64, (i / 15) as u32))
            .collect();
        let s = render_level_timeline(&events).unwrap();
        for name in ["HEAVY", "MEDIUM", "LIGHT", "NO"] {
            assert!(s.contains(name), "missing row {name} in:\n{s}");
        }
        assert!(s.contains('█'));
        assert!(s.contains("0s"));
    }

    #[test]
    fn empty_events_render_nothing() {
        assert!(render_level_timeline(&[]).is_none());
    }

    #[test]
    fn falls_back_to_epoch_events() {
        let events: Vec<TraceEvent> = (0..10)
            .map(|i| {
                EpochEvent {
                    epoch: i,
                    t: 2.0 * (i + 1) as f64,
                    duration: 2.0,
                    bytes: 1000,
                    rate: 500.0,
                    level: 1,
                }
                .into()
            })
            .collect();
        let s = render_level_timeline(&events).unwrap();
        assert!(s.contains("LIGHT"));
        assert!(s.contains('▁') || s.contains('█'));
    }
}
