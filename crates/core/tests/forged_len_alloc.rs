//! The decompression-bomb guard as a test: **a forged `uncompressed_len`
//! costs a typed error, not memory** — and a forged `payload_len` costs
//! only the bytes that arrive.
//!
//! No CRC covers a frame header, so `uncompressed_len` is whatever the wire
//! says, up to the reader's cap (`DEFAULT_MAX_FRAME`, 64 MiB). The payload,
//! though, is bytes in hand, and the qlz and HUFF token formats bound what
//! a payload can expand to (83× and 159×): those decoders size their window
//! by the payload, so a 64-byte payload under a 64 MiB claim reserves
//! kilobytes — for *every* payload, which is why they are swept over many.
//! RAW checks the length up front. HEAVY (range-coded) and COLUMNAR (a
//! run-length scheme) have no such bound — five bytes can honestly encode
//! megabytes — so they grow `out` on demand, by what is decoded and never
//! by what is claimed, and are pinned here on a valid stream's prefix and
//! one noise payload.
//!
//! A byte-counting global allocator tracks the live heap and its peak.
//! Every forged frame goes through `decode_block_with` and through
//! `AdaptiveReader`: the result must be a typed error (never a panic),
//! `out` must be back at its prior length, and the peak must stay within
//! 1 MiB of what a decode of an honest small HEAVY block needs (the
//! probability model and HEAVY's eager 256 KiB reservation). A header that
//! claims a 60 MiB payload and is followed by 100 bytes goes through
//! `AdaptiveReader` under the same bound: the reader grows its payload
//! buffer by what is received, so the cut is a typed truncation error.
//!
//! This file intentionally contains a single `#[test]` so no concurrent
//! test can disturb the allocation counters.

use adcomp_codecs::crc32::crc32;
use adcomp_codecs::frame::{decode_block_with, encode_block, FrameHeader, DEFAULT_MAX_FRAME};
use adcomp_codecs::{codec_for, compress_fresh, CodecError, CodecId, DecodeScratch};
use adcomp_core::AdaptiveReader;
use adcomp_corpus::{generate, Class};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct ByteCountingAlloc;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: defers to `System` for all operations; only adds relaxed
// counter updates.
unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAlloc = ByteCountingAlloc;

/// Peak live heap, above the live heap at entry, while `f` runs.
fn peak_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let result = f();
    (PEAK.load(Ordering::Relaxed) - base, result)
}

/// A CRC-valid frame of `codec` over `payload` whose header claims
/// `DEFAULT_MAX_FRAME` uncompressed bytes.
fn forged_frame(codec: CodecId, payload: &[u8]) -> Vec<u8> {
    let header = FrameHeader {
        codec,
        raw_fallback: false,
        index: false,
        uncompressed_len: DEFAULT_MAX_FRAME,
        payload_len: payload.len() as u32,
        crc: crc32(payload),
    };
    let mut frame = header.to_bytes().to_vec();
    frame.extend_from_slice(payload);
    frame
}

/// `len` bytes of xorshift64 noise from `seed`.
fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

#[test]
fn forged_uncompressed_len_costs_an_error_not_memory() {
    const MAX_PAYLOAD: usize = 64;
    const PREFIX: &[u8] = b"bytes the caller already had";

    // What honest decoding needs: one small HEAVY block through a fresh
    // scratch (the boxed model, HEAVY's eager reservation).
    let text = generate(Class::Moderate, 4096, 9);
    let mut honest = Vec::new();
    encode_block(codec_for(CodecId::Heavy), &text, &mut honest);
    let (heavy_model, ()) = peak_during(|| {
        let mut out = Vec::new();
        decode_block_with(&mut DecodeScratch::new(), &honest, &mut out, DEFAULT_MAX_FRAME)
            .unwrap();
        assert_eq!(out, text);
    });
    let budget = heavy_model + (1 << 20);

    for codec in CodecId::REGISTRY {
        // A valid stream's first bytes, then noise: one payload for the
        // formats with no expansion bound, a sweep of lengths and seeds for
        // the token formats, whose bound must hold for any payload.
        let mut wire = Vec::new();
        compress_fresh(codec_for(codec), &text, &mut wire);
        let mut payloads = vec![wire[..wire.len().min(MAX_PAYLOAD)].to_vec(), noise(MAX_PAYLOAD, 7)];
        if matches!(codec, CodecId::QlzLight | CodecId::QlzMedium | CodecId::Huffman) {
            payloads.extend((0..400u64).map(|i| noise(i as usize % (MAX_PAYLOAD + 1), i * 0x9E37)));
        }
        for (which, payload) in payloads.iter().enumerate() {
            let frame = forged_frame(codec, payload);

            let (peak, (result, out)) = peak_during(|| {
                let mut out = PREFIX.to_vec();
                let result =
                    decode_block_with(&mut DecodeScratch::new(), &frame, &mut out, DEFAULT_MAX_FRAME);
                (result, out)
            });
            assert!(
                matches!(result, Err(CodecError::Truncated | CodecError::Corrupt(_))),
                "{codec} payload {which}: decode_block_with returned {result:?}"
            );
            assert_eq!(out, PREFIX, "{codec} payload {which}: out not restored");
            assert!(peak <= budget, "{codec} payload {which}: decode_block_with peaked at {peak} B");

            let (peak, result) = peak_during(|| {
                let mut sink = Vec::new();
                AdaptiveReader::new(&frame[..]).read_to_end(&mut sink).map(|_| sink)
            });
            let err = result.expect_err("AdaptiveReader accepted a forged length");
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "{codec} payload {which}: AdaptiveReader failed with {err}"
            );
            assert!(peak <= budget, "{codec} payload {which}: AdaptiveReader peaked at {peak} B");
        }
    }

    // A forged `payload_len`: the header claims 60 MiB, 100 bytes follow.
    let mut frame = forged_frame(CodecId::Raw, &[0x5A; 100]);
    frame[4..8].copy_from_slice(&100u32.to_le_bytes());
    frame[8..12].copy_from_slice(&(60u32 << 20).to_le_bytes());
    let (peak, result) = peak_during(|| {
        let mut sink = Vec::new();
        AdaptiveReader::new(&frame[..]).read_to_end(&mut sink).map(|_| sink)
    });
    let err = result.expect_err("AdaptiveReader accepted a cut frame");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    assert!(err.to_string().contains("got 100 of 62914560 bytes"), "{err}");
    assert!(peak <= budget, "forged payload_len: AdaptiveReader peaked at {peak} B");
}
