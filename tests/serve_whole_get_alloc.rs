//! **A whole-object `get` streams past the block cache and holds about
//! one block.**
//!
//! An object of 32 blocks, every one of them compressed, is read whole on
//! a kept-alive connection. The daemon decodes each block into one buffer
//! it reuses and admits none of them: the cache's hits, evictions and
//! resident bytes stay where they were. A ranged `get` of the same object
//! after it is still admitted (a miss that adds resident bytes) and then
//! hit.
//!
//! A counting global allocator tallies the bytes every `alloc`/`realloc`
//! asks for, in every thread of the process — the daemon's connection
//! handler and the client alike. Less the client's body buffer, the whole
//! `get` allocates under two blocks, where a reply that decoded every
//! block into a buffer of its own would allocate one block per block of
//! the object.
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

const BLOCK: usize = 32 * 1024;
const BLOCKS: u64 = 32;

#[test]
fn a_whole_get_admits_nothing_and_allocates_about_one_block() {
    let io = Duration::from_secs(5);
    let server = Server::start(ServeConfig { io_timeout: io, ..ServeConfig::default() }).unwrap();
    let addr = server.local_addr();
    let line = |i| format!("line {i} of a compressible object\n").into_bytes();
    let text: Vec<u8> = (0..).flat_map(line).take(BLOCK * BLOCKS as usize).collect();
    // Object 1 is the one read whole; object 2, one short block, warms the
    // kept-alive connection.
    for (id, data) in [(1, &text[..]), (2, &text[..1000])] {
        let opts = PutOptions {
            tenant: "t".into(),
            transfer_id: id,
            block_len: BLOCK,
            level: Some(1),
            ..Default::default()
        };
        put(addr, data, &opts).unwrap();
    }
    assert_eq!(get(addr, "t", 2, 0, 1000, io).unwrap(), &text[..1000]);

    let len = text.len() as u64;
    let before = server.cache_stats();
    let (got, allocated) = counted(|| get(addr, "t", 1, 0, len, io).unwrap());
    assert!(got == text, "the whole get is not the object");
    let after = server.cache_stats();
    // A stored block is never looked up: every block of the object missed,
    // so every one of them was decoded.
    assert_eq!(after.misses - before.misses, BLOCKS, "{before:?} -> {after:?}");
    assert_eq!(
        (after.hits, after.evictions, after.resident_bytes),
        (before.hits, before.evictions, before.resident_bytes),
        "a whole get was admitted to the cache"
    );
    // The client's one buffer holds the body and its CRC trailer.
    let daemon = allocated - (len + 4);
    assert!(
        daemon < 2 * BLOCK as u64,
        "a whole get of {BLOCKS} {BLOCK}-byte blocks allocated {daemon} bytes besides the \
         body (limit: 2 blocks)"
    );

    // A ranged get inside block 3 is admitted, then hit.
    let (offset, n) = (100_000, 1000);
    let want = &text[offset as usize..(offset + n) as usize];
    assert_eq!(get(addr, "t", 1, offset, n, io).unwrap(), want);
    let admitted = server.cache_stats();
    assert_eq!(admitted.misses - after.misses, 1);
    assert!(admitted.resident_bytes > after.resident_bytes, "a ranged get was not admitted");
    assert_eq!(get(addr, "t", 1, offset, n, io).unwrap(), want);
    assert_eq!(server.cache_stats().hits - admitted.hits, 1, "the admitted block missed");
    server.shutdown();
}

/// What `f` returns and the bytes allocated while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, BYTES.load(Ordering::Relaxed) - before)
}
