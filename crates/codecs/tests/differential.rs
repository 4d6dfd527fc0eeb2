//! Differential oracle suite for the portfolio codecs.
//!
//! Each family has an independent naive reference decoder
//! (`reference::huff_reference`, `reference::columnar_reference`) and this
//! suite pins the optimized decoder to it under the same contract
//! `decompress_reference` enforces for qlz: **identical output bytes and
//! identical error** (partial output included) on every input — valid,
//! bit-flipped, truncated, arbitrary garbage, and wrong declared lengths —
//! into an empty `out`, behind a prefix, and into a buffer allocated to
//! exactly the declared length. That contract is what lets the hot loops
//! change shape without changing a single observable byte.

use adcomp_codecs::{columnar, huff};
use adcomp_codecs::{codec_for, compress_fresh, CodecError, CodecId, Scratch};
use adcomp_corpus::{generate, Class};
use proptest::prelude::*;

#[allow(dead_code)] // every suite uses its own subset of the oracles
mod reference;
use reference::{
    assert_agree, assert_agree_near, columnar_compress_reference, columnar_reference,
    huff_reference, DIST_BASE, DIST_EXTRA, LEN_BASE, LEN_EXTRA,
};

fn huff_agree(input: &[u8], expected_len: usize) {
    assert_agree(huff::decompress, huff_reference, input, expected_len);
}

fn huff_agree_near(input: &[u8], len: usize, delta: i64) {
    assert_agree_near(huff::decompress, huff_reference, input, len, delta);
}

/// LSB-first bit sink for hand-built HUFF streams (RFC 1951 packing:
/// Huffman codes go in most-significant bit first, everything else least).
#[derive(Default)]
struct Bits {
    bytes: Vec<u8>,
    used: u32,
}

impl Bits {
    fn bit(&mut self, b: u32) {
        if self.used.is_multiple_of(8) {
            self.bytes.push(0);
        }
        *self.bytes.last_mut().unwrap() |= (b as u8 & 1) << (self.used % 8);
        self.used += 1;
    }
    fn extra(&mut self, v: u32, n: u32) {
        (0..n).for_each(|i| self.bit(v >> i));
    }
    fn code(&mut self, code: u32, n: u32) {
        (0..n).rev().for_each(|i| self.bit(code >> i));
    }
    /// A literal/length symbol of the fixed tree (RFC 1951 §3.2.6).
    fn litlen(&mut self, sym: u32) {
        match sym {
            0..=143 => self.code(0x30 + sym, 8),
            144..=255 => self.code(0x190 + sym - 144, 9),
            256..=279 => self.code(sym - 256, 7),
            _ => self.code(0xC0 + sym - 280, 8),
        }
    }
    fn match_token(&mut self, len: usize, dist: usize) {
        let lc = if len == 258 { 28 } else { LEN_BASE.iter().rposition(|&b| b as usize <= len).unwrap() };
        self.litlen(257 + lc as u32);
        self.extra((len - LEN_BASE[lc] as usize) as u32, LEN_EXTRA[lc] as u32);
        let dc = DIST_BASE.iter().rposition(|&b| b as usize <= dist).unwrap();
        self.code(dc as u32, 5);
        self.extra((dist - DIST_BASE[dc] as usize) as u32, DIST_EXTRA[dc] as u32);
    }
}

/// `lead` literals, one match, `tail` literals, end of block.
fn huff_stream(lead: usize, len: usize, dist: usize, tail: usize) -> Vec<u8> {
    let mut bits = Bits::default();
    // Byte values on both sides of 144, where the code grows to 9 bits.
    let literal = |i: usize| (i * 37 + 120) as u8 as u32;
    (0..lead).for_each(|i| bits.litlen(literal(i)));
    bits.match_token(len, dist);
    (lead..lead + tail).for_each(|i| bits.litlen(literal(i)));
    bits.litlen(256);
    bits.bytes
}

fn columnar_agree(input: &[u8], expected_len: usize) {
    assert_agree(columnar::decompress, columnar_reference, input, expected_len);
}

/// `n` bytes of runs: lengths uniform in `1..=max_run`, values uniform in
/// `0..alphabet` (splitmix64 from `seed`; a value may repeat, merging two
/// runs).
fn run_shaped(n: usize, max_run: usize, alphabet: usize, seed: u64) -> Vec<u8> {
    let mut s = seed;
    let mut next = move |bound: usize| {
        s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = next(alphabet) as u8;
        let len = (1 + next(max_run)).min(n - out.len());
        out.extend(std::iter::repeat_n(v, len));
    }
    out
}

/// The COLUMNAR encoder against the byte-at-a-time encoder it replaced, on
/// one block through a fresh scratch and through one a larger block of
/// another shape has just used (its run list and span hold that block's
/// bytes).
fn columnar_encoder_agrees(data: &[u8]) {
    let mut oracle = Vec::new();
    columnar_compress_reference(data, &mut oracle);
    let mut fresh = Vec::new();
    columnar::compress(&mut Scratch::new(), data, &mut fresh);
    assert_eq!(fresh, oracle, "fresh scratch, {} bytes", data.len());
    let mut scratch = Scratch::new();
    let dirty = run_shaped(128 * 1024 + 1, 40, 7, data.len() as u64);
    columnar::compress(&mut scratch, &dirty, &mut Vec::new());
    let mut reused = Vec::new();
    columnar::compress(&mut scratch, data, &mut reused);
    assert_eq!(reused, oracle, "reused scratch, {} bytes", data.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid HUFF streams: small alphabets make the matcher fire; both
    /// decoders must produce the input back.
    #[test]
    fn huff_agrees_on_valid_streams(
        data in proptest::collection::vec(0u8..6, 0..4096),
        delta in -32i64..=32,
    ) {
        let mut wire = Vec::new();
        huff::compress(&data, &mut wire);
        huff_agree_near(&wire, data.len(), delta);
        let mut out = Vec::new();
        huff::decompress(&wire, data.len(), &mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    /// Bit-flipped HUFF streams: both decoders fail identically or both
    /// still succeed, with identical partial output either way.
    #[test]
    fn huff_agrees_on_corrupt_streams(
        data in proptest::collection::vec(0u8..8, 1..2048),
        flip in any::<prop::sample::Index>(),
        xor in 1u8..=255,
        delta in -32i64..=32,
    ) {
        let mut wire = Vec::new();
        huff::compress(&data, &mut wire);
        let pos = flip.index(wire.len());
        wire[pos] ^= xor;
        huff_agree_near(&wire, data.len(), delta);
    }

    /// Truncated HUFF streams at every cut point the strategy lands on.
    #[test]
    fn huff_agrees_on_truncated_streams(
        data in proptest::collection::vec(0u8..4, 1..2048),
        cut in any::<prop::sample::Index>(),
        delta in -32i64..=32,
    ) {
        let mut wire = Vec::new();
        huff::compress(&data, &mut wire);
        let keep = cut.index(wire.len());
        huff_agree_near(&wire[..keep], data.len(), delta);
    }

    /// Wrong declared length: overrun/underrun bookkeeping must agree.
    #[test]
    fn huff_agrees_on_wrong_expected_len(
        data in proptest::collection::vec(0u8..4, 1..1024),
        declared in 0usize..2048,
    ) {
        let mut wire = Vec::new();
        huff::compress(&data, &mut wire);
        huff_agree(&wire, declared);
    }

    /// Arbitrary garbage bytes fed straight to both HUFF decoders.
    #[test]
    fn huff_agrees_on_garbage(
        junk in proptest::collection::vec(any::<u8>(), 0..512),
        declared in 0usize..1024,
    ) {
        huff_agree(&junk, declared);
    }

    /// Valid COLUMNAR streams over run/dict-shaped data (all four schemes
    /// get exercised across the strategy space).
    #[test]
    fn columnar_agrees_on_valid_streams(
        data in proptest::collection::vec(0u8..12, 0..4096),
    ) {
        let mut wire = Vec::new();
        columnar::compress(&mut Scratch::new(), &data, &mut wire);
        columnar_agree(&wire, data.len());
        let mut out = Vec::new();
        columnar::decompress(&wire, data.len(), &mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    /// The encoder is byte-identical to its oracle on run-shaped blocks:
    /// lengths 0..=300, on both sides of a multiple of 8 (where the word
    /// loop hands over to its byte tail) and 128 KiB; run lengths up to
    /// 1..=300, and half the time up to 1..=4, which puts blocks on both
    /// sides of the `n / 2` runs at which the encoder stops recording them
    /// (runs of 1..=3 average `n / 2`); alphabets of 1..=256 values.
    #[test]
    fn columnar_encoder_matches_its_oracle(
        len_kind in 0u8..3,
        short in 0usize..=300,
        words in 1usize..=64,
        nudge in 0usize..=2,
        max_run in prop_oneof![1usize..=300, 1usize..=4],
        alphabet in 1usize..=256,
        seed in any::<u64>(),
    ) {
        let n = match len_kind {
            0 => short,
            1 => 8 * words + nudge - 1,
            _ => 128 * 1024,
        };
        columnar_encoder_agrees(&run_shaped(n, max_run, alphabet, seed));
    }

    /// Bit-flipped COLUMNAR streams.
    #[test]
    fn columnar_agrees_on_corrupt_streams(
        data in proptest::collection::vec(0u8..8, 1..2048),
        flip in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut wire = Vec::new();
        columnar::compress(&mut Scratch::new(), &data, &mut wire);
        let pos = flip.index(wire.len());
        wire[pos] ^= xor;
        columnar_agree(&wire, data.len());
    }

    /// Truncated COLUMNAR streams.
    #[test]
    fn columnar_agrees_on_truncated_streams(
        data in proptest::collection::vec(0u8..6, 1..2048),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut wire = Vec::new();
        columnar::compress(&mut Scratch::new(), &data, &mut wire);
        let keep = cut.index(wire.len());
        columnar_agree(&wire[..keep], data.len());
    }

    /// Wrong declared length for COLUMNAR.
    #[test]
    fn columnar_agrees_on_wrong_expected_len(
        data in proptest::collection::vec(0u8..6, 1..1024),
        declared in 0usize..2048,
    ) {
        let mut wire = Vec::new();
        columnar::compress(&mut Scratch::new(), &data, &mut wire);
        columnar_agree(&wire, declared);
    }

    /// Arbitrary garbage bytes fed straight to both COLUMNAR decoders.
    #[test]
    fn columnar_agrees_on_garbage(
        junk in proptest::collection::vec(any::<u8>(), 0..512),
        declared in 0usize..1024,
    ) {
        columnar_agree(&junk, declared);
    }

    /// Scratch-path compression is bit-identical to the fresh-allocation
    /// path for the portfolio codecs, across reuse (the same `Scratch`
    /// compresses block after block).
    #[test]
    fn portfolio_scratch_compression_is_bit_identical(
        blocks in proptest::collection::vec(
            proptest::collection::vec(0u8..16, 0..2048), 1..6),
    ) {
        let mut scratch = Scratch::new();
        for id in [CodecId::Huffman, CodecId::Columnar] {
            let codec = codec_for(id);
            for block in &blocks {
                let mut fresh = Vec::new();
                compress_fresh(codec, block, &mut fresh);
                let mut reused = Vec::new();
                codec.compress_with(&mut scratch, block, &mut reused);
                prop_assert_eq!(&fresh, &reused, "codec {}", id);
            }
        }
    }
}

/// Blocks with one run fewer than the encoder's stop (`n / 2` known run
/// ends), exactly at it and past it, over a dictionary-sized and a
/// 256-value alphabet, and 128 KiB of each corpus class.
#[test]
fn columnar_encoder_matches_its_oracle_at_the_stop() {
    for n in [16usize, 17, 4096, 4097, 128 * 1024] {
        for alphabet in [3usize, 200, 256] {
            for runs in n / 2 - 1..=n / 2 + 2 {
                // `runs - 1` one-byte runs whose neighbours differ, then
                // one run to the end.
                let data: Vec<u8> = (0..n).map(|i| (i.min(runs - 1) % alphabet) as u8).collect();
                columnar_encoder_agrees(&data);
            }
        }
    }
    for class in [Class::High, Class::Moderate, Class::Low] {
        columnar_encoder_agrees(&generate(class, 128 * 1024, 5));
    }
}

/// Real corpus blocks through both decoder pairs, all three classes.
#[test]
fn portfolio_decoders_agree_on_corpus_blocks() {
    for class in [Class::High, Class::Moderate, Class::Low] {
        let data = generate(class, 128 * 1024, 11);
        let mut wire = Vec::new();
        huff::compress(&data, &mut wire);
        huff_agree(&wire, data.len());
        let mut out = Vec::new();
        huff::decompress(&wire, data.len(), &mut out).unwrap();
        assert_eq!(out, data, "huff {class:?}");

        let mut wire = Vec::new();
        columnar::compress(&mut Scratch::new(), &data, &mut wire);
        columnar_agree(&wire, data.len());
        let mut out = Vec::new();
        columnar::decompress(&wire, data.len(), &mut out).unwrap();
        assert_eq!(out, data, "columnar {class:?}");
    }
}

/// Pinned error-shape checks for hand-built corrupt streams: the optimized
/// decoders must report these exact variants, and the references must
/// agree.
#[test]
fn portfolio_error_variants_pinned() {
    // HUFF: empty input -> Truncated.
    let mut out = Vec::new();
    assert_eq!(huff::decompress(&[], 5, &mut out), Err(CodecError::Truncated));
    // HUFF: a lone EOB (symbol 256 = seven zero bits) before any output.
    let mut out = Vec::new();
    assert_eq!(
        huff::decompress(&[0x00], 4, &mut out),
        Err(CodecError::Corrupt("block ended before expected length"))
    );
    huff_agree(&[], 5);
    huff_agree(&[0x00], 4);
    huff_agree(&[0x00], 0);

    // COLUMNAR: empty input -> Truncated; unknown scheme byte -> Corrupt.
    let mut out = Vec::new();
    assert_eq!(columnar::decompress(&[], 5, &mut out), Err(CodecError::Truncated));
    let mut out = Vec::new();
    assert_eq!(
        columnar::decompress(&[7, 1, 2, 3], 5, &mut out),
        Err(CodecError::Corrupt("unknown columnar scheme"))
    );
    // COLUMNAR: zero-length run is structurally invalid.
    let mut out = Vec::new();
    assert_eq!(
        columnar::decompress(&[1, 42, 0], 5, &mut out),
        Err(CodecError::Corrupt("zero-length run"))
    );
    columnar_agree(&[], 5);
    columnar_agree(&[7, 1, 2, 3], 5);
    columnar_agree(&[1, 42, 0], 5);
}

/// HUFF window edges, exhaustively: one match of every `dist` 1..=40 and
/// every `len` 3..=258 (every length code and extra-bit count), ending
/// exactly at `expected_len` and 1..=31 bytes short of it with literals
/// making up the rest — the region where a 32-byte move overshoots the
/// match, then the output, then (without slack) would overshoot the window.
#[test]
fn huff_agrees_at_window_edges() {
    const LEAD: usize = 41;
    for dist in 1..=40 {
        for len in 3..=258 {
            for short in 0..=31 {
                huff_agree(&huff_stream(LEAD, len, dist, short), LEAD + len + short);
            }
        }
    }
}

/// The word refill needs 8 input bytes to load; the last 7 go in one at a
/// time. Streams cut at every byte of their last 24, and far distances
/// (13 extra bits — the longest token), keep the bit at which `Truncated`
/// fires where the bit-at-a-time reference has it.
#[test]
fn huff_agrees_at_the_end_of_input() {
    for (len, dist) in [(3, 1), (10, 40), (258, 24_577 + 8_191), (131, 4_097), (258, 1)] {
        let lead = dist.max(20);
        for tail in 0..=12 {
            let wire = huff_stream(lead, len, dist, tail);
            for keep in wire.len().saturating_sub(24)..=wire.len() {
                huff_agree(&wire[..keep], lead + len + tail);
            }
        }
    }
}

/// A header may claim any length over any payload. HUFF's window is sized
/// by what the payload can expand to; the densest stream the format has —
/// a literal, then nothing but 258-byte matches at distance 1, 13 bits
/// each — under a claim of 64 MiB must decode all it holds, report what
/// the reference reports and reserve kilobytes.
#[test]
fn huff_forged_length_over_the_densest_stream() {
    let mut bits = Bits::default();
    bits.litlen(b'x' as u32);
    (0..38).for_each(|_| bits.match_token(258, 1));
    let wire = bits.bytes; // 8 + 38 × 13 bits in 63 bytes, no end of block
    assert_eq!(wire.len(), 63);
    let produced = 1 + 38 * 258;
    huff_agree(&wire, 64 << 20);
    let mut out = Vec::new();
    assert_eq!(huff::decompress(&wire, 64 << 20, &mut out), Err(CodecError::Truncated));
    assert_eq!(out.len(), produced);
    assert!(out.capacity() <= 159 * wire.len() + 4096, "reserved {} bytes", out.capacity());
}
