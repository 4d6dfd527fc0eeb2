//! The unified block paths keep the headline property on both sides:
//! **zero heap allocation per block in steady state** without threads —
//! through an [`AdaptiveWriter`] (submit, encode, release, write, recycle),
//! back through an [`AdaptiveReader`] (validate, submit, decode, serve,
//! recycle), and for a repeated [`IndexedReader::read_range`].
//!
//! A counting global allocator tallies every `alloc`/`realloc` (same
//! harness as `crates/codecs/tests/zero_alloc.rs`). A pool that returned a
//! fresh `Vec` per submit, encoded or decoded into a fresh buffer per
//! block, or copied a payload into a new `Vec` fails this.
//!
//! This file intentionally contains a single `#[test]` so no concurrent
//! test can disturb the allocation counter.

use adcomp_codecs::LevelSet;
use adcomp_core::epoch::ManualClock;
use adcomp_core::{AdaptiveReader, AdaptiveWriter, IndexedReader, StaticModel};
use adcomp_corpus::{generate, Class};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Cursor, Read, Write};
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
        let warm_up = 4.max(blocks.len());
        let writer = |sink: Vec<u8>| {
            AdaptiveWriter::with_params(
                sink,
                levels.clone(),
                Box::new(StaticModel::new(level, levels.len())),
                BLOCK_LEN,
                2.0,
                Box::new(ManualClock::new()),
            )
        };
        // Room for the whole stream, so the sink itself never grows.
        let mut w = writer(Vec::with_capacity((warm_up + 16) * (BLOCK_LEN + 16)));
        // Warm-up: grows the block buffer, the frame buffer, the codec
        // tables and the completion landing buffer to their high-water
        // marks (one block of every corpus class).
        for block in blocks.iter().cycle().take(warm_up) {
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
        let (wire, stats) = w.finish().unwrap();
        assert_eq!(stats.blocks_per_level[level], (warm_up + 16) as u64);

        // Read half: the same stream back through a reader without threads,
        // into a fixed buffer smaller than a block.
        let mut r = AdaptiveReader::new(&wire[..]);
        let mut buf = vec![0u8; 64 * 1024];
        for _ in 0..warm_up * BLOCK_LEN / buf.len() {
            r.read_exact(&mut buf).unwrap();
        }
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..16 * BLOCK_LEN / buf.len() {
            r.read_exact(&mut buf).unwrap();
        }
        let delta = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(
            delta, 0,
            "level {level}: reading 16 steady-state blocks performed {delta} heap allocation(s)"
        );
        assert_eq!(r.read(&mut buf).unwrap(), 0, "stream is exactly warm-up + 16 blocks");
        assert_eq!(r.blocks(), (warm_up + 16) as u64);

        // Ranged half: the second read of a span reuses every buffer of the
        // first (three covering blocks, off both block boundaries).
        let mut w = writer(Vec::new());
        w.set_seekable(true);
        for block in blocks.iter().cycle().take(4) {
            w.write_all(block).unwrap();
        }
        let (wire, _) = w.finish().unwrap();
        let mut r = IndexedReader::open(Cursor::new(&wire[..])).unwrap();
        let (start, len) = (BLOCK_LEN as u64 + 1000, 2 * BLOCK_LEN as u64);
        let mut out = Vec::new();
        r.read_range(start, len, &mut out).unwrap();
        out.clear();
        let before = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(r.read_range(start, len, &mut out).unwrap(), len as usize);
        let delta = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(delta, 0, "level {level}: a repeated ranged read performed {delta} allocation(s)");
    }
}
