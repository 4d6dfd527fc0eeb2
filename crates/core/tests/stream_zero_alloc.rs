//! The unified block path keeps the write side's headline property:
//! **zero heap allocation per block in steady state** through an
//! [`AdaptiveWriter`] without threads — submit, encode, release, write and
//! recycle included.
//!
//! A counting global allocator tallies every `alloc`/`realloc` (same
//! harness as `crates/codecs/tests/zero_alloc.rs`). A pool that returned a
//! fresh `Vec` of completions per submit, or encoded into a fresh frame
//! buffer per block, fails this.
//!
//! This file intentionally contains a single `#[test]` so no concurrent
//! test can disturb the allocation counter.

use adcomp_codecs::LevelSet;
use adcomp_core::epoch::ManualClock;
use adcomp_core::{AdaptiveWriter, StaticModel};
use adcomp_corpus::{generate, Class};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers to `System` for all operations; only adds relaxed
// counter bumps.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const BLOCK_LEN: usize = 128 * 1024;

#[test]
fn steady_state_stream_writing_allocates_nothing() {
    let blocks: Vec<Vec<u8>> = Class::ALL
        .into_iter()
        .enumerate()
        .map(|(i, class)| generate(class, BLOCK_LEN, 23 + i as u64))
        .collect();
    let levels = LevelSet::paper_default();
    for level in 0..levels.len() {
        let mut w = AdaptiveWriter::with_params(
            std::io::sink(),
            levels.clone(),
            Box::new(StaticModel::new(level, levels.len())),
            BLOCK_LEN,
            2.0,
            Box::new(ManualClock::new()),
        );
        assert_eq!(w.pipeline_workers(), 1);
        // Warm-up: grows the block buffer, the frame buffer, the codec
        // tables and the completion landing buffer to their high-water
        // marks (one block of every corpus class).
        for block in blocks.iter().cycle().take(4.max(blocks.len())) {
            w.write_all(block).unwrap();
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        for block in blocks.iter().cycle().take(16) {
            w.write_all(block).unwrap();
        }
        let delta = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(
            delta, 0,
            "level {level}: 16 steady-state blocks performed {delta} heap allocation(s)"
        );
        let (_, stats) = w.finish().unwrap();
        assert_eq!(stats.blocks_per_level[level], (4.max(blocks.len()) + 16) as u64);
    }
}
