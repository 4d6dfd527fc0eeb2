//! Verifies the tracing layer's **zero-cost-when-disabled contract** at the
//! allocator level: a [`FrameWriter`] carrying a *disabled*
//! [`TraceHandle`] (the default, and the adaptive writer's configuration)
//! must perform **zero heap allocations** per block in steady state,
//! exactly like the untraced scratch path.
//!
//! A counting global allocator tallies every `alloc`/`realloc`. After a
//! warm-up that grows scratch tables and the wire buffer to their
//! high-water marks, further blocks across all codec levels and corpus
//! classes must not touch the heap.
//!
//! This file intentionally contains a single `#[test]` so no concurrent
//! test can disturb the allocation counter.

use adcomp_codecs::frame::FrameWriter;
use adcomp_codecs::{codec_for, CodecId};
use adcomp_corpus::{generate, Class};
use adcomp_trace::TraceHandle;
use std::alloc::{GlobalAlloc, Layout, System};
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
const CODECS: [CodecId; 4] = [CodecId::QlzLight, CodecId::QlzMedium, CodecId::Heavy, CodecId::Raw];

/// Runs warm-up + steady-state rounds through `writer`, returning the
/// number of heap allocations observed during steady state.
fn steady_state_allocs(writer: &mut FrameWriter<std::io::Sink>, blocks: &[Vec<u8>]) -> u64 {
    // Warm-up: two rounds over every (codec, class) pair grow every
    // scratch table and the wire buffer to their high-water marks.
    for _ in 0..2 {
        for id in CODECS {
            for block in blocks {
                writer.write_block(codec_for(id), block).unwrap();
            }
        }
    }
    // Steady state: level switches and class changes block to block, plus
    // the epoch marks the adaptive layer stamps at epoch rollover.
    let before = ALLOCS.load(Ordering::Relaxed);
    for round in 0..8 {
        writer.set_trace_mark(round as u64, round as f64 * 2.0);
        for (ci, id) in CODECS.into_iter().enumerate() {
            let block = &blocks[(round + ci) % blocks.len()];
            writer.write_block(codec_for(id), block).unwrap();
        }
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn disabled_tracing_adds_zero_allocations_to_frame_writer() {
    let blocks: Vec<Vec<u8>> = Class::ALL
        .into_iter()
        .enumerate()
        .map(|(i, class)| generate(class, BLOCK_LEN, 11 + i as u64))
        .collect();

    // The disabled handle the adaptive writer carries: every block is
    // observed, and with no registry installed that is one relaxed load
    // and one `None` test.
    let mut handle_writer = FrameWriter::new(std::io::sink());
    handle_writer.set_trace(TraceHandle::disabled());
    let handle_allocs = steady_state_allocs(&mut handle_writer, &blocks);
    assert_eq!(
        handle_allocs, 0,
        "disabled TraceHandle steady state performed {handle_allocs} heap allocation(s)"
    );
    assert!(handle_writer.blocks > 0 && handle_writer.wire_bytes > 0);
}
