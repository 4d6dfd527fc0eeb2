//! Decode-side mirror of `zero_alloc.rs`: **zero heap allocation per block
//! in the steady-state decode path.**
//!
//! A counting global allocator tallies every `alloc`/`realloc`. After a
//! warm-up (which grows the payload buffer, the output buffer and the
//! `DecodeScratch`'s HEAVY model to their high-water marks), decoding
//! further blocks — across every codec in the registry (the four levels and
//! the two portfolio members) and all corpus classes — must not touch the
//! heap at all, whole or bounded to a prefix. That includes the token
//! decoders' pre-sized window, which takes its slack from the warmed
//! buffer's capacity.
//!
//! This file intentionally contains a single `#[test]` so no concurrent
//! test can disturb the allocation counter.

use adcomp_codecs::frame::{
    decode_block_with, decode_block_within, encode_block, DEFAULT_MAX_FRAME,
};
use adcomp_codecs::{codec_for, CodecId, DecodeScratch};
use adcomp_corpus::{generate, Class};
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
/// The bound of the bounded decodes: a ranged read ending mid-block.
const PREFIX_LEN: usize = BLOCK_LEN / 2 + 3;

#[test]
fn steady_state_block_decoding_allocates_nothing() {
    // Setup (may allocate freely): one encoded frame per (codec, class),
    // one decode scratch, one output buffer.
    let mut frames: Vec<Vec<u8>> = Vec::new();
    for codec in CodecId::REGISTRY {
        for (i, class) in Class::ALL.into_iter().enumerate() {
            let block = generate(class, BLOCK_LEN, 23 + i as u64);
            let mut wire = Vec::new();
            encode_block(codec_for(codec), &block, &mut wire);
            frames.push(wire);
        }
    }
    let mut scratch = DecodeScratch::new();
    let mut out = Vec::new();

    // Warm-up: two rounds over every frame, whole and bounded, grow the
    // output buffer and the HEAVY model to their high-water marks.
    for _ in 0..2 {
        for wire in &frames {
            out.clear();
            decode_block_with(&mut scratch, wire, &mut out, DEFAULT_MAX_FRAME).unwrap();
            out.clear();
            decode_block_within(&mut scratch, wire, PREFIX_LEN, &mut out, DEFAULT_MAX_FRAME)
                .unwrap();
        }
    }

    // Steady state: an adaptive reader sees level and class changes frame
    // to frame, and ranged reads stop mid-block; none of it may allocate.
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut app_bytes = 0usize;
    for _ in 0..8 {
        for wire in &frames {
            out.clear();
            decode_block_with(&mut scratch, wire, &mut out, DEFAULT_MAX_FRAME).unwrap();
            app_bytes += out.len();
            out.clear();
            decode_block_within(&mut scratch, wire, PREFIX_LEN, &mut out, DEFAULT_MAX_FRAME)
                .unwrap();
            app_bytes += out.len();
        }
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(app_bytes, 8 * frames.len() * (BLOCK_LEN + PREFIX_LEN));
    assert_eq!(
        delta, 0,
        "steady-state decode path performed {delta} heap allocation(s)"
    );
}
