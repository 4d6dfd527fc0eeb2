//! Property tests for the zero-alloc codec hot path:
//!
//! * the word-oriented `match_len` is a drop-in replacement for the
//!   byte-wise reference (differential testing across generated inputs,
//!   including matches that run into the end of the buffer),
//! * extending a match past four bytes already compared whole gives the
//!   length `match_len` gives from byte 0 (the identity LIGHT and HUFF
//!   rely on, and the one that lets HUFF drop a candidate that fails the
//!   four-byte check), and
//! * a `Scratch` reused across blocks of different sizes and corpus
//!   classes produces bit-identical frames to fresh-allocation compression.

use adcomp_codecs::frame::{encode_block, encode_block_with};
use adcomp_codecs::qlz::match_len;
use adcomp_codecs::{codec_for, CodecId, Scratch};
use adcomp_corpus::{generate, Class};
use proptest::prelude::*;

#[allow(dead_code)] // every suite uses its own subset of the oracles
mod reference;
use reference::match_len_naive;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Differential: fast vs naive on small-alphabet data (small alphabets
    /// make long matches — the interesting regime for the u64 fast path).
    #[test]
    fn match_len_equals_naive(
        data in proptest::collection::vec(0u8..4, 2..600),
        bi in any::<prop::sample::Index>(),
        ai in any::<prop::sample::Index>(),
        li in any::<prop::sample::Index>(),
    ) {
        let n = data.len();
        let b = 1 + bi.index(n - 1); // 1..n
        let a = ai.index(b); // 0..b  (a < b)
        let limit = li.index(n - b + 1); // 0..=n-b, includes the exact tail
        prop_assert_eq!(
            match_len(&data, a, b, limit),
            match_len_naive(&data, a, b, limit)
        );
    }

    /// Same, on full-alphabet (near-incompressible) data: first-word
    /// mismatches dominate here.
    #[test]
    fn match_len_equals_naive_full_alphabet(
        data in proptest::collection::vec(any::<u8>(), 2..300),
        bi in any::<prop::sample::Index>(),
        li in any::<prop::sample::Index>(),
    ) {
        let n = data.len();
        let b = 1 + bi.index(n - 1);
        let limit = li.index(n - b + 1);
        prop_assert_eq!(
            match_len(&data, 0, b, limit),
            match_len_naive(&data, 0, b, limit)
        );
    }
}

/// The shift identity over every limit 0..=259 that fits after `b`: where
/// the four bytes at `a` and `b` agree and `limit >= 4`,
/// `4 + match_len(a + 4, b + 4, limit - 4) == match_len(a, b, limit)`;
/// where they do not, no match reaches four bytes.
fn check_shift(data: &[u8], a: usize, b: usize) {
    let agree = b + 4 <= data.len() && data[a..a + 4] == data[b..b + 4];
    for limit in 0..=259.min(data.len() - b) {
        let full = match_len(data, a, b, limit);
        if limit < 4 {
            continue;
        }
        if agree {
            prop_assert_eq!(4 + match_len(data, a + 4, b + 4, limit - 4), full, "limit {}", limit);
        } else {
            prop_assert!(full < 4, "limit {}: {} bytes without the first four", limit, full);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The shift identity on the small-alphabet inputs above. Four equal
    /// bytes are rare there, so `agree` forces them on half the cases: the
    /// four bytes at `a` copied forward to `b` one at a time, the way an
    /// overlapping match repeats them.
    #[test]
    fn match_len_shift_by_verified_prefix(
        mut data in proptest::collection::vec(0u8..4, 2..600),
        bi in any::<prop::sample::Index>(),
        ai in any::<prop::sample::Index>(),
        agree in any::<bool>(),
    ) {
        let n = data.len();
        let b = 1 + bi.index(n - 1);
        let a = ai.index(b);
        if agree && b + 4 <= n {
            for k in 0..4 {
                data[b + k] = data[a + k];
            }
        }
        check_shift(&data, a, b);
    }

    /// Same, on the full-alphabet inputs, against `a = 0`.
    #[test]
    fn match_len_shift_by_verified_prefix_full_alphabet(
        mut data in proptest::collection::vec(any::<u8>(), 2..300),
        bi in any::<prop::sample::Index>(),
        agree in any::<bool>(),
    ) {
        let n = data.len();
        let b = 1 + bi.index(n - 1);
        if agree && b + 4 <= n {
            for k in 0..4 {
                data[b + k] = data[k];
            }
        }
        check_shift(&data, 0, b);
    }
}

/// One `Scratch` carried across every codec level and every corpus class,
/// with block sizes that shrink and grow — frames must match the
/// fresh-allocation path bit for bit, and still decode.
#[test]
fn scratch_reuse_across_classes_and_sizes() {
    let sizes = [128 * 1024, 700, 128 * 1024, 32 * 1024, 1, 96 * 1024];
    let mut scratch = Scratch::new();
    for id in [CodecId::QlzLight, CodecId::QlzMedium, CodecId::Heavy] {
        let codec = codec_for(id);
        for (i, (&len, class)) in sizes
            .iter()
            .zip([Class::High, Class::Moderate, Class::Low].into_iter().cycle())
            .enumerate()
        {
            let block = generate(class, len, 7 + i as u64);
            let mut fresh = Vec::new();
            let info_fresh = encode_block(codec, &block, &mut fresh);
            let mut reused = Vec::new();
            let info_reused = encode_block_with(&mut scratch, codec, &block, &mut reused);
            assert_eq!(fresh, reused, "{id:?} block {i} ({class:?}, {len} B) frame diverged");
            assert_eq!(info_fresh, info_reused);
            let mut out = Vec::new();
            let (_, consumed) = adcomp_codecs::frame::decode_block(&reused, &mut out)
                .expect("reused-scratch frame must decode");
            assert_eq!(consumed, reused.len());
            assert_eq!(out, block, "{id:?} block {i} roundtrip");
        }
    }
}

/// Scratch tables, the token span and COLUMNAR's run list grow to the
/// high-water mark on a codec's first full block and stay there — reuse
/// must not shrink or reallocate when a smaller block follows a larger one.
#[test]
fn scratch_tables_reach_steady_state() {
    let big = generate(Class::Moderate, 128 * 1024, 3);
    let small = generate(Class::Moderate, 4 * 1024, 4);
    for id in [CodecId::QlzLight, CodecId::QlzMedium, CodecId::Huffman, CodecId::Columnar] {
        let mut scratch = Scratch::new();
        let codec = codec_for(id);
        let mut out = Vec::new();
        encode_block_with(&mut scratch, codec, &big, &mut out);
        let high_water = scratch.table_bytes();
        // The token encoders' span alone is 9/8 of the block, COLUMNAR's
        // run list twice it; the rest comes on top.
        assert!(high_water > big.len() + big.len() / 8, "{id:?}: {high_water} bytes");
        for _ in 0..4 {
            for block in [&small, &big] {
                out.clear();
                encode_block_with(&mut scratch, codec, block, &mut out);
                assert_eq!(scratch.table_bytes(), high_water, "{id:?}: tables must not shrink or grow");
            }
        }
    }
}

/// What COLUMNAR adds to a scratch that a portfolio pass at 128 KiB blocks
/// has already grown (LIGHT, MEDIUM and HUFF, every class) is its run list,
/// `ceil(n/2)` `u32`s: 256 KiB, on blocks of every shape.
#[test]
fn columnar_adds_only_its_run_list() {
    const BLOCK: usize = 128 * 1024;
    let blocks: Vec<Vec<u8>> = [Class::High, Class::Moderate, Class::Low]
        .into_iter()
        .map(|class| generate(class, BLOCK, 9))
        .chain([vec![7u8; BLOCK], (0..BLOCK).map(|i| (i / 3 % 5) as u8).collect()])
        .collect();
    let mut scratch = Scratch::new();
    let mut out = Vec::new();
    for id in [CodecId::QlzLight, CodecId::QlzMedium, CodecId::Huffman] {
        for block in &blocks {
            out.clear();
            encode_block_with(&mut scratch, codec_for(id), block, &mut out);
        }
    }
    let before = scratch.table_bytes();
    for block in &blocks {
        out.clear();
        encode_block_with(&mut scratch, codec_for(CodecId::Columnar), block, &mut out);
    }
    assert_eq!(scratch.table_bytes() - before, 256 * 1024);
}
