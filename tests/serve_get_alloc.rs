//! **A hot ranged `get` allocates about one body, not two; so does a
//! cold one of stored blocks.**
//!
//! A counting global allocator tallies the bytes every `alloc`/`realloc`
//! asks for, in every thread of the process — the daemon's connection
//! handler and the client alike. Across one cache-hit 64 KiB ranged
//! `serve::get` on a kept-alive connection, the client's body buffer is
//! the one allocation the size of the body: the daemon sends the cached
//! blocks where they lie instead of assembling the reply in a buffer of
//! its own. A first `get` of blocks stored raw (incompressible data) is
//! served as slices of the sealed wire: no block is allocated for it.
//!
//! This file intentionally contains a single `#[test]` so no concurrent
//! test can disturb the allocation counter.

use adcomp::serve::{get, put, PutOptions, ServeConfig, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers to `System` for all operations; only adds relaxed
// counter bumps.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const BODY: u64 = 64 * 1024;

#[test]
fn hot_ranged_get_allocates_less_than_one_and_a_half_bodies() {
    let io = Duration::from_secs(5);
    let server = Server::start(ServeConfig { io_timeout: io, ..ServeConfig::default() }).unwrap();
    let addr = server.local_addr();
    let len = 1 << 20;
    // Object 1 compresses, so its blocks pass through the cache; object 2
    // does not, so LIGHT stores every block of it raw.
    let line = |i| format!("line {i} of a compressible object\n").into_bytes();
    let text: Vec<u8> = (0..).flat_map(line).take(len).collect();
    let mut x = 0x2545_F491u32;
    let noise: Vec<u8> = (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            (x >> 24) as u8
        })
        .collect();
    for (id, data) in [(1, &text), (2, &noise)] {
        let opts = PutOptions {
            tenant: "t".into(),
            transfer_id: id,
            level: Some(1),
            ..Default::default()
        };
        put(addr, data, &opts).unwrap();
    }

    // A range across a block boundary; the first get decodes and caches
    // its blocks, the second leaves the connection pooled and warm.
    let offset = 100_000;
    let range = offset as usize..(offset + BODY) as usize;
    for _ in 0..2 {
        assert_eq!(get(addr, "t", 1, offset, BODY, io).unwrap(), &text[range.clone()]);
    }
    let hits = server.cache_stats().hits;
    let (got, allocated) = counted(|| get(addr, "t", 1, offset, BODY, io).unwrap());
    assert_eq!(got, &text[range.clone()]);
    assert!(server.cache_stats().hits > hits, "the measured get missed the cache");
    assert!(
        allocated * 2 < BODY * 3,
        "a hot {BODY}-byte get allocated {allocated} bytes (limit: 1.5 x the body)"
    );

    // The first get of object 2, across the same block boundary.
    let cache = server.cache_stats();
    let (got, allocated) = counted(|| get(addr, "t", 2, offset, BODY, io).unwrap());
    assert_eq!(got, &noise[range]);
    assert_eq!(server.cache_stats(), cache, "a stored range went through the cache");
    assert!(
        allocated * 2 < BODY * 3,
        "a cold stored {BODY}-byte get allocated {allocated} bytes (limit: 1.5 x the body)"
    );
    server.shutdown();
}

/// What `f` returns and the bytes allocated while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, BYTES.load(Ordering::Relaxed) - before)
}
