//! Proves the metrics registry's cost contract on the codec hot loops:
//!
//! * **disabled path** (no registry installed): steady-state frame
//!   encode/decode performs zero heap allocations — the only added work is
//!   one relaxed atomic load per block;
//! * **enabled path** (wall-mode registry installed): still zero
//!   allocations — counters are plain atomics and span histograms are
//!   fixed atomic bucket arrays, so live metrics never add allocator
//!   traffic to the paths the `EpochDriver` is timing.
//!
//! The phases share one process (a registry, once installed, stays), so
//! ordering matters: the uninstalled phase runs first. This file
//! intentionally contains a single `#[test]` so no concurrent test can
//! disturb the allocation counter or install the registry early.

use adcomp_codecs::frame::{FrameReader, FrameWriter};
use adcomp_codecs::{codec_for, CodecId};
use adcomp_corpus::{generate, Class};
use adcomp_metrics::registry::{self, RegistryMode};
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

const BLOCK_LEN: usize = 64 * 1024;
const WARM_ROUNDS: usize = 2;
const STEADY_ROUNDS: usize = 6;

/// Runs warm-up + measured steady-state over the framed write and read
/// paths and returns the steady-state allocation delta.
fn steady_state_allocs(phase: &str) -> u64 {
    let blocks: Vec<Vec<u8>> = Class::ALL
        .into_iter()
        .enumerate()
        .map(|(i, class)| generate(class, BLOCK_LEN, 23 + i as u64))
        .collect();
    let codecs = [CodecId::QlzLight, CodecId::QlzMedium, CodecId::Heavy, CodecId::Raw];

    // Write path: one writer into a discarding sink; the warm-up rounds
    // grow the scratch tables and frame buffer to their high-water marks.
    let mut writer = FrameWriter::new(std::io::sink());
    for _ in 0..WARM_ROUNDS {
        for id in codecs {
            for block in &blocks {
                writer.write_block(codec_for(id), block).unwrap();
            }
        }
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    let mut wire = 0usize;
    for round in 0..STEADY_ROUNDS {
        for (ci, id) in codecs.iter().enumerate() {
            let block = &blocks[(round + ci) % blocks.len()];
            wire += writer.write_block(codec_for(*id), block).unwrap().frame_len;
        }
    }
    let write_delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(wire > 0);

    // Read path: one wire stream holding warm-up frames followed by the
    // measured frames; a single reader crosses the boundary so its payload
    // and decode buffers are already at capacity when measurement starts.
    let mut stream = Vec::new();
    {
        let mut w = FrameWriter::new(&mut stream);
        for _ in 0..WARM_ROUNDS + STEADY_ROUNDS {
            for id in codecs {
                for block in &blocks {
                    w.write_block(codec_for(id), block).unwrap();
                }
            }
        }
    }
    let warm_frames = WARM_ROUNDS * codecs.len() * blocks.len();
    let steady_frames = STEADY_ROUNDS * codecs.len() * blocks.len();
    let mut reader = FrameReader::new(stream.as_slice());
    let mut out = Vec::new();
    for _ in 0..warm_frames {
        out.clear();
        assert!(reader.read_block(&mut out).unwrap().is_some());
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..steady_frames {
        out.clear();
        assert!(reader.read_block(&mut out).unwrap().is_some());
    }
    let read_delta = ALLOCS.load(Ordering::Relaxed) - before;

    let delta = write_delta + read_delta;
    assert_eq!(
        delta, 0,
        "{phase}: steady-state framing performed {write_delta} write + \
         {read_delta} read heap allocation(s)"
    );
    delta
}

#[test]
fn registry_disabled_and_enabled_paths_allocate_nothing() {
    // Phase 1: no registry installed. The instrumentation reduces to one
    // relaxed load per block and must not allocate.
    assert!(registry::global().is_none(), "test must run in its own process");
    steady_state_allocs("disabled registry");

    // Phase 2: live wall-mode registry. Counter/span recording is atomic
    // arithmetic on preallocated shards and must not allocate either.
    let reg = registry::install(RegistryMode::Wall);
    steady_state_allocs("enabled registry");

    // The enabled phase really was observed: both directions counted.
    let snap = reg.snapshot();
    let counter = |kind| snap.counters.iter().find(|(k, _)| *k == kind).unwrap().1;
    assert!(counter(registry::CounterKind::BlocksCompressed) > 0);
    assert!(counter(registry::CounterKind::BlocksDecompressed) > 0);
    assert!(snap.spans.iter().any(|(_, h)| h.count > 0), "no spans recorded");
}
