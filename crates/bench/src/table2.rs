//! The Table II grid (completion time per scheme × class × contention),
//! factored out of the `table2_completion` binary so the determinism
//! regression tests can recompute the identical grid under different
//! worker counts.

use crate::runner::run_cells_on;
use crate::{make_model, schemes, to_paper_scale};
use adcomp_corpus::Class;
use adcomp_metrics::OnlineStats;
use adcomp_trace::{JsonlWriter, RunManifest, TraceEvent, TraceHandle};
use adcomp_vcloud::{run_transfer_traced, ConstantClass, SpeedModel, TransferConfig};
use std::io::Write;

/// Number of contention settings (0..=3 concurrent TCP connections).
pub const FLOW_SETTINGS: usize = 4;

/// One aggregated grid cell: `mean (sd)` over the cell's repetitions, in
/// paper-scale (50 GB) seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tab2Cell {
    /// Concurrent background TCP connections (0..=3).
    pub flows: usize,
    /// Scheme index into [`schemes`] (NO..DYNAMIC).
    pub scheme: usize,
    /// Class index into [`Class::ALL`] (HIGH, MODERATE, LOW).
    pub class: usize,
    pub mean: f64,
    pub sd: f64,
}

/// Flat cell index → (flows, scheme, class) coordinates.
fn coords(idx: usize, nschemes: usize, nclasses: usize) -> (usize, usize, usize) {
    let per_flow = nschemes * nclasses;
    (idx / per_flow, (idx % per_flow) / nclasses, idx % nclasses)
}

/// Everything one traced grid cell produced: a manifest (seed, coordinates,
/// config) plus every structured event its repetitions emitted, in
/// deterministic virtual-time order.
#[derive(Debug, Clone)]
pub struct CellTrace {
    pub manifest: RunManifest,
    pub events: Vec<TraceEvent>,
}

/// Computes the full Table II grid on `workers` runner workers.
///
/// Each cell's transfer seeds depend only on its own coordinates
/// `(flows, class, repetition)` — deliberately *not* on the scheme, so all
/// five schemes face identical contention draws (paired comparison, as in
/// the paper) — making the grid bit-identical for any worker count.
pub fn compute_grid(total: u64, reps: usize, speed: &SpeedModel, workers: usize) -> Vec<Tab2Cell> {
    compute_grid_impl(total, reps, speed, workers, false).0
}

/// [`compute_grid`] with per-cell structured traces: every cell collects
/// its events in a private [`TraceHandle`] during the parallel phase, and
/// the traces come back **in cell order**, so the serialized JSONL is
/// byte-identical for any `workers` (all events carry virtual time only).
pub fn compute_grid_traced(
    total: u64,
    reps: usize,
    speed: &SpeedModel,
    workers: usize,
) -> (Vec<Tab2Cell>, Vec<CellTrace>) {
    let (cells, traces) = compute_grid_impl(total, reps, speed, workers, true);
    (cells, traces.into_iter().map(|t| t.expect("traced cell")).collect())
}

fn compute_grid_impl(
    total: u64,
    reps: usize,
    speed: &SpeedModel,
    workers: usize,
    traced: bool,
) -> (Vec<Tab2Cell>, Vec<Option<CellTrace>>) {
    let schemes = schemes();
    let nclasses = Class::ALL.len();
    let n = FLOW_SETTINGS * schemes.len() * nclasses;
    let results = run_cells_on(workers, n, |idx| {
        let (flows, si, ci) = coords(idx, schemes.len(), nclasses);
        let (name, level) = schemes[si];
        let class = Class::ALL[ci];
        let trace = if traced { TraceHandle::collecting() } else { TraceHandle::disabled() };
        let mut stats = OnlineStats::new();
        let base_seed = 1000 + flows as u64 * 31 + ci as u64;
        for rep in 0..reps {
            let cfg = TransferConfig {
                total_bytes: total,
                background_flows: flows,
                seed: 1000 + rep as u64 * 7919 + flows as u64 * 31 + ci as u64,
                ..TransferConfig::paper_default()
            };
            let out = run_transfer_traced(
                &cfg,
                speed,
                &mut ConstantClass(class),
                make_model(level),
                trace.clone(),
            );
            stats.push(to_paper_scale(out.completion_secs));
        }
        let cell = Tab2Cell { flows, scheme: si, class: ci, mean: stats.mean(), sd: stats.std_dev() };
        let cell_trace = traced.then(|| CellTrace {
            manifest: RunManifest::new("table2_cell", base_seed)
                .coord("flows", flows)
                .coord("scheme", name)
                .coord("class", class.name())
                .cfg("reps", reps)
                .cfg("epoch_secs", 2.0)
                .cfg("block_len", 128 * 1024)
                .volume(total),
            events: trace.take(),
        });
        (cell, cell_trace)
    });
    results.into_iter().unzip()
}

/// Serializes per-cell traces as one JSONL stream: each cell contributes a
/// `manifest` line (with event counts filled in) followed by its events.
/// Cell order is the grid's canonical cell order, so the bytes are
/// independent of worker count.
pub fn write_cell_traces<W: Write>(
    w: &mut JsonlWriter<W>,
    traces: &[CellTrace],
) -> std::io::Result<()> {
    for t in traces {
        w.write_run(&t.manifest, &t.events)?;
    }
    Ok(())
}

/// Looks up one cell of a grid produced by [`compute_grid`].
pub fn cell(grid: &[Tab2Cell], flows: usize, scheme: usize, class: usize) -> &Tab2Cell {
    let nclasses = Class::ALL.len();
    let nschemes = schemes().len();
    &grid[(flows * nschemes + scheme) * nclasses + class]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let (ns, nc) = (5, 3);
        for idx in 0..FLOW_SETTINGS * ns * nc {
            let (f, s, c) = coords(idx, ns, nc);
            assert_eq!((f * ns + s) * nc + c, idx);
            assert!(f < FLOW_SETTINGS && s < ns && c < nc);
        }
    }
}
