//! Differential oracle suite for the portfolio codecs.
//!
//! Each new family ships with an independent naive reference decoder
//! (`huff::huff_reference`, `columnar::columnar_reference`) and this suite
//! pins the optimized decoder to it under the same contract
//! `decompress_reference` enforces for qlz: **identical output bytes and
//! identical error** (partial output included) on every input — valid,
//! bit-flipped, truncated, arbitrary garbage, and wrong declared lengths.
//! That contract is what lets the hot loops change shape without changing
//! a single observable byte.

use adcomp_codecs::columnar::{self, columnar_reference};
use adcomp_codecs::huff::{self, huff_reference};
use adcomp_codecs::{codec_for, compress_fresh, CodecError, CodecId, Scratch};
use adcomp_corpus::{generate, Class};
use proptest::prelude::*;

type RefDecoder = fn(&[u8], usize, &mut Vec<u8>) -> Result<(), CodecError>;

/// Runs an optimized decoder and its reference on the same input and
/// asserts identical results and identical (partial) output.
fn assert_agree(fast_fn: RefDecoder, slow_fn: RefDecoder, input: &[u8], expected_len: usize) {
    let mut fast = Vec::new();
    let mut slow = Vec::new();
    let fast_res = fast_fn(input, expected_len, &mut fast);
    let slow_res = slow_fn(input, expected_len, &mut slow);
    assert_eq!(fast_res, slow_res, "result mismatch (expected_len={expected_len})");
    assert_eq!(fast, slow, "output mismatch (expected_len={expected_len})");
}

fn huff_agree(input: &[u8], expected_len: usize) {
    assert_agree(huff::decompress, huff_reference, input, expected_len);
}

fn columnar_agree(input: &[u8], expected_len: usize) {
    assert_agree(columnar::decompress, columnar_reference, input, expected_len);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid HUFF streams: small alphabets make the matcher fire; both
    /// decoders must produce the input back.
    #[test]
    fn huff_agrees_on_valid_streams(
        data in proptest::collection::vec(0u8..6, 0..4096),
    ) {
        let mut wire = Vec::new();
        huff::compress(&data, &mut wire);
        huff_agree(&wire, data.len());
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
    ) {
        let mut wire = Vec::new();
        huff::compress(&data, &mut wire);
        let pos = flip.index(wire.len());
        wire[pos] ^= xor;
        huff_agree(&wire, data.len());
    }

    /// Truncated HUFF streams at every cut point the strategy lands on.
    #[test]
    fn huff_agrees_on_truncated_streams(
        data in proptest::collection::vec(0u8..4, 1..2048),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut wire = Vec::new();
        huff::compress(&data, &mut wire);
        let keep = cut.index(wire.len());
        huff_agree(&wire[..keep], data.len());
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
        columnar::compress(&data, &mut wire);
        columnar_agree(&wire, data.len());
        let mut out = Vec::new();
        columnar::decompress(&wire, data.len(), &mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    /// Bit-flipped COLUMNAR streams.
    #[test]
    fn columnar_agrees_on_corrupt_streams(
        data in proptest::collection::vec(0u8..8, 1..2048),
        flip in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut wire = Vec::new();
        columnar::compress(&data, &mut wire);
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
        columnar::compress(&data, &mut wire);
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
        columnar::compress(&data, &mut wire);
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
        columnar::compress(&data, &mut wire);
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
