//! Parallel, deterministic experiment runner.
//!
//! Every table/figure binary sweeps a grid of independent simulation cells
//! (compression scheme × data class × contention × repetition). Cells share
//! nothing mutable, so they fan out across cores with a work-stealing
//! counter over [`std::thread::scope`] workers.
//!
//! # Determinism contract
//!
//! Results are **bit-identical for any worker count** (including 1) because
//!
//! 1. each cell derives *all* of its randomness from its own coordinates
//!    — never from scheduling order, wall time or thread identity; and
//! 2. [`run_cells`] writes each result into its cell's slot and returns
//!    them in cell order, regardless of which worker computed what.
//!
//! The `ADCOMP_THREADS` environment variable pins the worker count
//! (`1` = fully serial in the calling thread; default = available cores).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count for [`run_cells`]: `ADCOMP_THREADS` if set (clamped to at
/// least 1), otherwise the number of available cores.
pub fn threads() -> usize {
    match std::env::var("ADCOMP_THREADS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Runs `n` independent cells through `f` on [`threads`] workers and
/// returns results in cell order. See the module docs for the determinism
/// contract `f` must uphold.
pub fn run_cells<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_cells_on(threads(), n, f)
}

/// [`run_cells`] with an explicit worker count (used by the determinism
/// regression tests to compare worker counts without touching the
/// process environment).
pub fn run_cells_on<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(n.max(1));
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // Work stealing via a shared claim counter: each worker repeatedly
    // claims the next unclaimed cell, so long cells never serialize the
    // grid behind a static partition.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // A panicking cell aborts the grid: the scope re-raises it on join.
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(i);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("cell never ran"))
        .collect()
}

/// Convenience: maps every item of a slice through `f` in parallel,
/// preserving order. `f` receives `(index, &item)`.
pub fn map_cells<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    run_cells(items.len(), |i| f(i, &items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let serial = run_cells_on(1, 33, f);
        let par = run_cells_on(4, 33, f);
        assert_eq!(serial, par);
    }

    #[test]
    fn results_in_cell_order() {
        let out = run_cells_on(4, 100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_grids() {
        assert!(run_cells_on(4, 0, |i| i).is_empty());
        assert_eq!(run_cells_on(4, 1, |i| i + 1), vec![1]);
    }

    #[test]
    fn map_cells_passes_items() {
        let items = ["a", "bb", "ccc"];
        assert_eq!(map_cells(&items, |i, s| s.len() + i), vec![1, 3, 5]);
    }
}
