//! The frame layer's early stop changes no frame.
//!
//! `encode_block_with` runs each codec through `Codec::compress_within`
//! with the block's length as the limit, so LIGHT and MEDIUM skip their
//! final literal run when the stream cannot beat raw. The frame must still
//! be, byte for byte, the one the rule it replaced gives: the full
//! `compress_with` stream, stored raw (and flagged) when it is at least as
//! long as the block. This suite holds the two together for every registry
//! codec on
//!
//! * 1 MiB of each corpus class in 128 KiB blocks;
//! * the empty block and blocks of 1..=24 bytes;
//! * for LIGHT and MEDIUM, blocks whose full stream is exactly one byte
//!   shorter than the block, as long, and one byte longer — the edge of the
//!   raw rule, found by growing a compressible prefix in front of LOW bytes;
//!
//! and checks on every one of those inputs that `compress_within` keeps the
//! stream exactly when it is shorter than the limit, leaving a canary-filled
//! `out` untouched when it does not. The frame here is built from a stream
//! written through the same reused `Scratch`; that a reused scratch writes
//! what a fresh one does is `scratch_and_matchlen.rs`'s.

use adcomp_codecs::crc32::crc32;
use adcomp_codecs::frame::{encode_block_with, FrameHeader};
use adcomp_codecs::{codec_for, Codec, CodecId, Scratch};
use adcomp_corpus::{generate, Class};

const BLOCK: usize = 128 * 1024;

/// The frame the raw rule makes of `stream`, codec `id`'s full stream of
/// `input`.
fn frame_by_rule(id: CodecId, input: &[u8], stream: &[u8]) -> Vec<u8> {
    let raw_fallback = id != CodecId::Raw && stream.len() >= input.len();
    let (id, payload) = if raw_fallback { (CodecId::Raw, input) } else { (id, stream) };
    let header = FrameHeader {
        codec: id,
        raw_fallback,
        index: false,
        uncompressed_len: input.len() as u32,
        payload_len: payload.len() as u32,
        crc: crc32(payload),
    };
    let mut frame = header.to_bytes().to_vec();
    frame.extend_from_slice(payload);
    frame
}

/// `encode_block_with` gives the rule's frame, and `compress_within` drops
/// the stream at a limit of its length, leaving `out` as it was, and keeps
/// it at one past.
fn check(scratch: &mut Scratch, codec: &dyn Codec, input: &[u8], what: &str) {
    let id = codec.id();
    let mut stream = Vec::new();
    codec.compress_with(scratch, input, &mut stream);
    let mut frame = Vec::new();
    encode_block_with(scratch, codec, input, &mut frame);
    assert!(
        frame == frame_by_rule(id, input, &stream),
        "{id} {what}: frame differs from the raw rule's"
    );

    let canary = vec![0xA5u8; 13];
    let mut out = canary.clone();
    assert!(
        !codec.compress_within(scratch, input, &mut out, stream.len()),
        "{id} {what}: kept at its length"
    );
    assert!(out == canary, "{id} {what}: out touched");
    assert!(
        codec.compress_within(scratch, input, &mut out, stream.len() + 1),
        "{id} {what}: dropped at one past"
    );
    assert!(
        out[..canary.len()] == canary[..] && out[canary.len()..] == stream[..],
        "{id} {what}: stream differs"
    );
}

#[test]
fn corpus_blocks_match_the_raw_rule() {
    let mut scratch = Scratch::new();
    for class in [Class::High, Class::Moderate, Class::Low] {
        let data = generate(class, 1 << 20, 42);
        for id in CodecId::REGISTRY {
            for (i, block) in data.chunks(BLOCK).enumerate() {
                check(&mut scratch, codec_for(id), block, &format!("{class:?} block {i}"));
            }
        }
    }
}

#[test]
fn short_blocks_match_the_raw_rule() {
    let text = b"abcdabcdabcd the edge of the raw rule";
    let mut scratch = Scratch::new();
    for id in CodecId::REGISTRY {
        for n in 0..=24 {
            check(&mut scratch, codec_for(id), &text[..n], &format!("{n} bytes"));
        }
    }
}

/// Blocks of a compressible prefix of `k` bytes and 4 KiB of LOW bytes, for
/// growing `k`: the all-literal tail makes the stream longer than the block
/// at `k = 0`, and each prefix byte takes the margin down by about one, so
/// the stream's length minus the block's passes through +1, 0 and −1.
#[test]
fn streams_one_byte_either_side_of_the_block_match_the_raw_rule() {
    let low = generate(Class::Low, 4096, 42);
    let prefix = b"the raw rule, applied before the flush. ".repeat(100);
    let mut scratch = Scratch::new();
    for id in [CodecId::QlzLight, CodecId::QlzMedium] {
        let codec = codec_for(id);
        let mut seen = [false; 3];
        for k in 0..prefix.len() {
            let block = [&prefix[..k], &low[..]].concat();
            let mut stream = Vec::new();
            codec.compress_with(&mut scratch, &block, &mut stream);
            let margin = stream.len() as i64 - block.len() as i64;
            if (-1..=1).contains(&margin) {
                seen[(margin + 1) as usize] = true;
                check(&mut scratch, codec, &block, &format!("prefix {k}, stream {margin:+} bytes"));
            }
        }
        assert_eq!(seen, [true; 3], "{id}: streams of n-1 / n / n+1 bytes not all reached");
    }
}
