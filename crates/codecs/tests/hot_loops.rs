//! Differential tests pinning the optimized hot loops to their scalar
//! references:
//!
//! * the windowed `qlz::decompress` against the byte-at-a-time
//!   `reference::decompress_reference` — identical output bytes on success,
//!   identical partial output *and* error on corrupt/truncated input, on
//!   an empty `out`, behind a prefix, and in a buffer allocated to exactly
//!   the declared length (no slack for the fixed-width copies);
//! * the wide `match_len` against `match_len_naive` on adversarial layouts
//!   (overlap distances 1..16, block-boundary straddles, every length up
//!   to 1 KiB);
//! * the CRC entry point — whichever of the slicing-by-8 and
//!   carry-less-multiply kernels it dispatches to on this CPU, at every
//!   length, alignment and chunking — against the table-free bitwise
//!   reference (the kernels are also checked one by one in the `crc32`
//!   unit tests, where they are visible).
//!
//! The wire format is frozen: these tests are the contract that lets the
//! hot loops change shape without changing a single byte.

use adcomp_codecs::crc32::{crc32, Hasher};
use adcomp_codecs::qlz::{compress_light_with, compress_medium_with, decompress, match_len};
use adcomp_codecs::{CodecError, Scratch};
use adcomp_corpus::{generate, Class};
use proptest::prelude::*;
use std::io::Write;

#[allow(dead_code)] // every suite uses its own subset of the oracles
mod reference;
use reference::{crc32_bitwise, decompress_reference, match_len_naive};

/// `qlz::decompress` against its oracle (see [`reference::assert_agree`]).
fn assert_decoders_agree(input: &[u8], expected_len: usize) {
    reference::assert_agree(decompress, decompress_reference, input, expected_len);
}

fn assert_decoders_agree_near(input: &[u8], len: usize, delta: i64) {
    reference::assert_agree_near(decompress, decompress_reference, input, len, delta);
}

/// One item of a hand-built token stream.
#[derive(Clone, Copy)]
enum Item {
    Lit(u8),
    Match { len: usize, off: usize },
}

/// Serializes `items` in the qlz token format: groups of eight under one
/// control byte, LSB first, 0 = literal byte, 1 = `len - 4`, `off` LE.
fn token_stream(items: &[Item]) -> Vec<u8> {
    let mut wire = Vec::new();
    for group in items.chunks(8) {
        let ctrl_at = wire.len();
        wire.push(0);
        for (bit, item) in group.iter().enumerate() {
            match *item {
                Item::Lit(b) => wire.push(b),
                Item::Match { len, off } => {
                    wire[ctrl_at] |= 1 << bit;
                    wire.push((len - 4) as u8);
                    wire.extend_from_slice(&(off as u16).to_le_bytes());
                }
            }
        }
    }
    wire
}

/// `n` distinct-ish literal items continuing from `from`.
fn literals(from: usize, n: usize) -> impl Iterator<Item = Item> {
    (from..from + n).map(|i| Item::Lit((i * 37 + 11) as u8))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid streams: compress arbitrary small-alphabet data (long matches,
    /// the regime where the fast paths actually fire) and decode through
    /// both paths.
    #[test]
    fn decode_agrees_on_valid_streams(
        data in proptest::collection::vec(0u8..4, 0..4096),
        medium in any::<bool>(),
        delta in -32i64..=32,
    ) {
        let mut wire = Vec::new();
        if medium {
            compress_medium_with(&mut Scratch::new(), &data, &mut wire);
        } else {
            compress_light_with(&mut Scratch::new(), &data, &mut wire);
        }
        assert_decoders_agree_near(&wire, data.len(), delta);
    }

    /// Mutated streams: flip one byte anywhere in a valid token stream.
    /// Both decoders must fail identically (or both still succeed, e.g. a
    /// literal byte flip) with identical partial output.
    #[test]
    fn decode_agrees_on_corrupt_streams(
        data in proptest::collection::vec(0u8..8, 1..2048),
        flip in any::<prop::sample::Index>(),
        xor in 1u8..=255,
        delta in -32i64..=32,
    ) {
        let mut wire = Vec::new();
        compress_medium_with(&mut Scratch::new(), &data, &mut wire);
        let pos = flip.index(wire.len());
        wire[pos] ^= xor;
        assert_decoders_agree_near(&wire, data.len(), delta);
    }

    /// Truncated streams: cut a valid stream anywhere. The truncated-run
    /// partial-progress semantics must match exactly.
    #[test]
    fn decode_agrees_on_truncated_streams(
        data in proptest::collection::vec(0u8..4, 1..2048),
        cut in any::<prop::sample::Index>(),
        delta in -32i64..=32,
    ) {
        let mut wire = Vec::new();
        compress_light_with(&mut Scratch::new(), &data, &mut wire);
        let keep = cut.index(wire.len());
        assert_decoders_agree_near(&wire[..keep], data.len(), delta);
    }

    /// Wrong declared length (shorter and longer than the real payload):
    /// the `target` bookkeeping in the run-length literal path must agree
    /// with the reference's per-byte check.
    #[test]
    fn decode_agrees_on_wrong_expected_len(
        data in proptest::collection::vec(0u8..4, 1..1024),
        declared in 0usize..2048,
    ) {
        let mut wire = Vec::new();
        compress_light_with(&mut Scratch::new(), &data, &mut wire);
        assert_decoders_agree(&wire, declared);
    }

    /// Slicing-by-8 CRC equals the bitwise reference on arbitrary data,
    /// and incremental hashing over arbitrary split points equals one-shot.
    #[test]
    fn crc_agrees_with_bitwise(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        split in any::<prop::sample::Index>(),
    ) {
        let expect = crc32_bitwise(&data);
        prop_assert_eq!(crc32(&data), expect);
        let cut = split.index(data.len() + 1);
        let mut h = Hasher::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finish(), expect);
    }

    /// `Hasher::update` over an arbitrary chunking equals the one-shot
    /// value: chunk lengths sit on both sides of the 128-byte kernel
    /// threshold, are mostly not multiples of 16, and include 0, so the
    /// running state crosses between kernels in every order.
    #[test]
    fn crc_chunked_updates_equal_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        chunks in proptest::collection::vec(
            prop_oneof![Just(0usize), 1usize..32, 100usize..160, 160usize..700],
            0..16,
        ),
    ) {
        let mut h = Hasher::new();
        let mut rest = &data[..];
        for len in chunks {
            let (chunk, after) = rest.split_at(len.min(rest.len()));
            h.update(chunk);
            rest = after;
        }
        h.update(rest);
        prop_assert_eq!(h.finish(), crc32(&data));
        prop_assert_eq!(h.finish(), crc32_bitwise(&data));
    }
}

/// The CRC entry point against the bitwise reference for every length
/// 0..=1024 at every start offset 0..16, and over 1 MiB. From 128 bytes up
/// this is the carry-less-multiply kernel where the CPU has it (the first
/// line of output says which), slicing-by-8 otherwise and below.
#[test]
fn crc_agrees_with_bitwise_at_every_length_and_alignment() {
    #[cfg(target_arch = "x86_64")]
    let folding = std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1");
    #[cfg(not(target_arch = "x86_64"))]
    let folding = false;
    // Straight to stderr so the line survives output capture.
    let _ = writeln!(
        std::io::stderr(),
        "hot_loops: crc32 inputs >= 128 B exercise the {} kernel on this CPU",
        if folding { "pclmulqdq folding" } else { "slicing-by-8 (no pclmulqdq+sse4.1)" }
    );
    let data = generate(Class::Moderate, 1 << 20, 0xC3C);
    for offset in 0..16 {
        for len in 0..=1024 {
            let input = &data[offset..offset + len];
            assert_eq!(crc32(input), crc32_bitwise(input), "offset={offset} len={len}");
        }
    }
    for input in [&data[..], &data[5..]] {
        assert_eq!(crc32(input), crc32_bitwise(input), "len={}", input.len());
    }
}

/// Overlapping matches at every small distance: `abab…`-style periods 1..16
/// force the match copy through its memset (off=1), periodic-doubling
/// (off<len) and memmove (off>=len) shapes.
type Compress = fn(&mut Scratch, &[u8], &mut Vec<u8>);

#[test]
fn decode_agrees_on_overlap_distances() {
    for period in 1usize..=16 {
        let data: Vec<u8> = (0..3000).map(|i| (i % period) as u8).collect();
        for compress in [compress_light_with as Compress, compress_medium_with] {
            let mut wire = Vec::new();
            compress(&mut Scratch::new(), &data, &mut wire);
            assert_decoders_agree(&wire, data.len());
            let mut out = Vec::new();
            decompress(&wire, data.len(), &mut out).unwrap();
            assert_eq!(out, data, "period={period}");
        }
    }
}

/// Exhaustive `match_len` sweep: every length 0..=1024, with the match
/// straddling the 16-byte block boundary at every phase (a % 16) and
/// running exactly to the end of the buffer (the `b + limit == len` edge).
#[test]
fn match_len_exhaustive_lengths_and_phases() {
    for phase in 0usize..16 {
        // data = prefix junk (phase bytes) + pattern + pattern + mismatch tail
        for len in (0usize..=64).chain([100, 127, 128, 129, 255, 256, 500, 1000, 1024]) {
            let mut data = vec![0x55u8; phase];
            let pattern: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            data.extend_from_slice(&pattern);
            data.extend_from_slice(&pattern);
            data.push(0xFF); // guarantee a mismatch after the copies
            let a = phase;
            let b = phase + len.max(1);
            if b >= data.len() {
                continue;
            }
            let limit = (data.len() - b).min(len + 1);
            assert_eq!(
                match_len(&data, a, b, limit),
                match_len_naive(&data, a, b, limit),
                "phase={phase} len={len}"
            );
        }
    }
}

/// `match_len` with the two windows overlapping each other (b - a < limit):
/// the compressors generate these for RLE-ish input, and the wide compare
/// must still return exactly the naive count.
#[test]
fn match_len_overlapping_windows() {
    let data: Vec<u8> = (0..2048).map(|i| (i / 3 % 5) as u8).collect();
    for dist in 1usize..=16 {
        for a in [0usize, 1, 7, 15, 16, 100] {
            let b = a + dist;
            let limit = (data.len() - b).min(1024);
            assert_eq!(
                match_len(&data, a, b, limit),
                match_len_naive(&data, a, b, limit),
                "dist={dist} a={a}"
            );
        }
    }
}

/// Real corpus round-trips through both decoders, all three classes.
#[test]
fn decode_agrees_on_corpus_blocks() {
    for class in [Class::High, Class::Moderate, Class::Low] {
        let data = generate(class, 128 * 1024, 7);
        for compress in [compress_light_with as Compress, compress_medium_with] {
            let mut wire = Vec::new();
            compress(&mut Scratch::new(), &data, &mut wire);
            assert_decoders_agree(&wire, data.len());
        }
    }
}

/// Pinned error-shape checks: the optimized decoder must report the exact
/// error variants the reference does on hand-built corrupt streams.
#[test]
fn decode_error_variants_pinned() {
    // Empty input, nonzero expected length -> Truncated.
    let mut out = Vec::new();
    assert_eq!(decompress(&[], 5, &mut out), Err(CodecError::Truncated));

    // Control byte announcing a match, but the token is cut off.
    let mut out = Vec::new();
    assert_eq!(decompress(&[0x01, 0x10], 64, &mut out), Err(CodecError::Truncated));

    // Match with offset 0 (encoded distance bytes = 0) -> corrupt offset.
    let mut out = Vec::new();
    assert_eq!(
        decompress(&[0x01, 0x00, 0x00, 0x00], 64, &mut out),
        Err(CodecError::Corrupt("match offset out of range"))
    );

    // Match reaching past the declared uncompressed length.
    let mut wire = vec![0x00]; // 8 literals
    wire.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
    wire.push(0x01); // match token next
    wire.extend_from_slice(&[60, 1, 0]); // len 64, dist 1
    let mut out = Vec::new();
    assert_eq!(
        decompress(&wire, 10, &mut out),
        Err(CodecError::Corrupt("match overruns expected length"))
    );

    // And each of those agrees with the reference, partial output included.
    assert_decoders_agree(&[], 5);
    assert_decoders_agree(&[0x01, 0x10], 64);
    assert_decoders_agree(&[0x01, 0x00, 0x00, 0x00], 64);
    assert_decoders_agree(&wire, 10);
}

/// Window edges, exhaustively: one match of every `off` 1..=40 (the fill,
/// the short periods, both sides of the 16-byte chunk width and of two
/// chunks) and every `len` 4..=259, placed so that it ends exactly at
/// `expected_len` and 1..=31 bytes short of it with literals making up the
/// rest — the region where a 32-byte move overshoots the match, then the
/// output, then (without slack) would overshoot the window.
#[test]
fn decode_agrees_at_window_edges() {
    const LEAD: usize = 41;
    for off in 1..=40 {
        for len in 4..=259 {
            for short in 0..=31 {
                let items: Vec<Item> = literals(0, LEAD)
                    .chain([Item::Match { len, off }])
                    .chain(literals(LEAD, short))
                    .collect();
                assert_decoders_agree(&token_stream(&items), LEAD + len + short);
            }
        }
    }
}

/// The fixed 8-byte literal copy needs 8 input bytes to load: a literal run
/// that straddles the last 8 bytes of the stream falls back to the
/// exact-length copy, whole or cut anywhere (the literals that are there
/// come out before `Truncated` does).
#[test]
fn decode_agrees_on_literal_runs_at_the_end_of_input() {
    for lead in 0..=9 {
        for tail in 0..=17 {
            // A match in the middle so the run does not start the stream.
            let items: Vec<Item> = literals(0, 16 + lead)
                .chain([Item::Match { len: 9, off: 16 }])
                .chain(literals(99, tail))
                .collect();
            let wire = token_stream(&items);
            let expected_len = 16 + lead + 9 + tail;
            for keep in wire.len().saturating_sub(20)..=wire.len() {
                assert_decoders_agree(&wire[..keep], expected_len);
            }
        }
    }
}

/// A header may claim any length over any payload (no CRC covers it). The
/// window is sized by what the payload can expand to, so the densest
/// stream the format has — a literal, then nothing but longest matches,
/// 25 wire bytes for 2 072 — under a claim of 64 MiB must decode all it
/// holds, report what the reference reports and reserve kilobytes.
#[test]
fn forged_length_over_the_densest_stream() {
    let items: Vec<Item> = literals(0, 1)
        .chain((0..63).map(|_| Item::Match { len: 259, off: 1 }))
        .collect();
    let wire = token_stream(&items);
    let produced = 1 + 63 * 259;
    assert_decoders_agree(&wire, produced);
    assert_decoders_agree(&wire, 64 << 20);
    let mut out = Vec::new();
    assert_eq!(decompress(&wire, 64 << 20, &mut out), Err(CodecError::Truncated));
    assert_eq!(out.len(), produced);
    assert!(out.capacity() <= 83 * wire.len() + 4096, "reserved {} bytes", out.capacity());
}

/// The committed streams still decode, frame by frame, to the bytes they
/// decoded to before the decoders were rewritten (length and CRC-32 taken
/// with the binary of commit 61e10cb).
#[test]
fn golden_streams_decode_to_the_same_bytes() {
    let pinned = [
        ("plain_stream.adc", 49_152, 0x68C5_CB15u32),
        ("plain_stream_pr17.adc", 49_152, 0x68C5_CB15),
        ("portfolio_stream.adc", 98_304, 0xFA34_4F4A),
    ];
    for (name, len, crc) in pinned {
        let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
        let wire = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let (mut out, mut pos) = (Vec::new(), 0);
        while pos < wire.len() {
            pos += adcomp_codecs::frame::decode_block(&wire[pos..], &mut out)
                .unwrap_or_else(|e| panic!("{name} at byte {pos}: {e}"))
                .1;
        }
        assert_eq!((out.len(), crc32(&out)), (len, crc), "{name}");
    }
}
