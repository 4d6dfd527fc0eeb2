//! The prefix contract of the bounded decode, for every codec in the
//! registry, through [`Codec::decompress_within`] and through the frame
//! entry [`decode_block_within`]:
//!
//! * on a valid stream the bounded call appends exactly the whole decode's
//!   first `min(want, len)` bytes, at every `want` — the edges `0, 1, 7, 8,
//!   4095, 4096, len/2, len−1, len, len+1` and seeded random ones;
//! * on a damaged stream — the byte overwrites, truncations and bit flips
//!   `fault_decode.rs` makes — a codec that stops at its bound (LIGHT,
//!   MEDIUM, HUFF) returns the oracle's output cut at `want` when the
//!   oracle got that far, and the oracle's error and partial output
//!   otherwise; a codec that decodes whole and cuts (RAW, HEAVY, COLUMNAR)
//!   returns the oracle's error whenever there is one. At `want >= len`
//!   every codec is its whole decode, checks and all;
//! * the frame entry checks the CRC over the *whole* payload first: a flip
//!   in it is `ChecksumMismatch` at every `want`, and on any error `out`
//!   is as it was.
//!
//! The oracles are the byte-at-a-time references for the codecs that have
//! one and the whole decode for RAW and HEAVY.

use adcomp_codecs::crc32::crc32;
use adcomp_codecs::frame::{
    decode_block_with, decode_block_within, encode_block, FrameHeader, DEFAULT_MAX_FRAME,
    HEADER_LEN,
};
use adcomp_codecs::{codec_for, compress_fresh, CodecError, CodecId, DecodeScratch, Result};
use adcomp_corpus::{generate, Class, Prng};
use proptest::prelude::*;

#[allow(dead_code)] // every suite uses its own subset of the oracles
mod reference;
use reference::{columnar_reference, decompress_reference, huff_reference};

const PREFIX: &[u8] = b"already here";

/// The whole decode the bounded one is held to.
fn oracle(id: CodecId, input: &[u8], len: usize, out: &mut Vec<u8>) -> Result<()> {
    match id {
        CodecId::QlzLight | CodecId::QlzMedium => decompress_reference(input, len, out),
        CodecId::Huffman => huff_reference(input, len, out),
        CodecId::Columnar => columnar_reference(input, len, out),
        CodecId::Raw | CodecId::Heavy => {
            codec_for(id).decompress_with(&mut DecodeScratch::new(), input, len, out)
        }
    }
}

/// Whether the codec's decoder stops at its bound rather than decoding the
/// whole block and cutting it.
fn stops_early(id: CodecId) -> bool {
    matches!(id, CodecId::QlzLight | CodecId::QlzMedium | CodecId::Huffman)
}

/// What the bounded decode of `input` must return and append.
fn expected(id: CodecId, input: &[u8], len: usize, want: usize) -> (Result<()>, Vec<u8>) {
    let mut whole = Vec::new();
    let res = oracle(id, input, len, &mut whole);
    let bound = want.min(len);
    match res {
        Err(_) if want < len && stops_early(id) && whole.len() >= bound => {
            whole.truncate(bound);
            (Ok(()), whole)
        }
        Ok(()) => {
            whole.truncate(bound);
            (Ok(()), whole)
        }
        Err(e) => (Err(e), whole),
    }
}

/// The edge bounds for a block of `len` bytes, and four seeded ones.
fn wants(len: usize, seed: u64) -> Vec<usize> {
    let mut rng = Prng::new(seed);
    let mut w = vec![0, 1, 7, 8, 4095, 4096, len / 2, len.saturating_sub(1), len, len + 1];
    w.extend((0..4).map(|_| rng.below(len as u64 + 2) as usize));
    w
}

/// `decompress_within` at `want` into an empty buffer, behind a prefix
/// (which must survive) and into a buffer of exactly the bound's capacity
/// (the daemon's shape: no slack for the token decoders' wide copies).
fn assert_codec_bound(id: CodecId, input: &[u8], len: usize, want: usize) {
    let (res, bytes) = expected(id, input, len, want);
    let bound = want.min(len);
    let outs = [Vec::new(), PREFIX.to_vec(), Vec::with_capacity(bound)];
    let mut scratch = DecodeScratch::new();
    for (shape, mut out) in outs.into_iter().enumerate() {
        let start = out.len();
        let got = codec_for(id).decompress_within(&mut scratch, input, len, want, &mut out);
        let at = format!("{id} len {len} want {want} out {shape}");
        assert_eq!(got, res, "{at}");
        assert_eq!(&out[..start], &PREFIX[..start], "prefix damaged: {at}");
        assert_eq!(&out[start..], &bytes[..], "{at}");
    }
}

/// The header and payload of `frame` when every frame check passes: the
/// header parses under the cap, the payload is all there and its CRC holds.
fn checked_payload(frame: &[u8]) -> Option<(FrameHeader, &[u8])> {
    let head = frame.get(..HEADER_LEN)?.try_into().unwrap();
    let header = FrameHeader::parse(head, DEFAULT_MAX_FRAME).ok()?;
    let payload = frame.get(HEADER_LEN..HEADER_LEN + header.payload_len as usize)?;
    (crc32(payload) == header.crc).then_some((header, payload))
}

/// `decode_block_within` at `want`, behind a prefix: the frame errors of
/// the whole decode, else the codec's rule on the checked payload; on an
/// error nothing is appended.
fn assert_frame_bound(frame: &[u8], want: usize) {
    let mut whole = Vec::new();
    let whole_res =
        decode_block_with(&mut DecodeScratch::new(), frame, &mut whole, DEFAULT_MAX_FRAME);
    let (res, bytes) = match checked_payload(frame) {
        Some((h, payload)) => {
            let (res, bytes) = expected(h.codec, payload, h.uncompressed_len as usize, want);
            (res.map(|()| (h, HEADER_LEN + payload.len())), bytes)
        }
        None => (whole_res.clone(), Vec::new()),
    };
    let mut out = PREFIX.to_vec();
    let got =
        decode_block_within(&mut DecodeScratch::new(), frame, want, &mut out, DEFAULT_MAX_FRAME);
    assert_eq!(got, res, "frame of {} bytes, want {want}", frame.len());
    match got {
        Ok(_) => assert_eq!(&out[PREFIX.len()..], &bytes[..], "want {want}"),
        Err(_) => assert_eq!(out, PREFIX, "an error appended bytes, want {want}"),
    }
    if checked_payload(frame).is_none_or(|(h, _)| want >= h.uncompressed_len as usize) {
        assert_eq!(got, whole_res, "want {want} is not the whole decode");
    }
}

fn blocks() -> Vec<Vec<u8>> {
    let mut blocks = vec![Vec::new(), vec![9], b"abcabcabcabc".to_vec()];
    for (i, class) in Class::ALL.into_iter().enumerate() {
        blocks.push(generate(class, 5000, 31 + i as u64));
        blocks.push(generate(class, 128 * 1024, 7 + i as u64));
    }
    blocks.push(vec![3u8; 128 * 1024]);
    blocks
}

#[test]
fn bounded_decode_of_a_valid_stream_is_the_whole_decode_cut() {
    for id in CodecId::REGISTRY {
        for (i, data) in blocks().iter().enumerate() {
            let mut stream = Vec::new();
            compress_fresh(codec_for(id), data, &mut stream);
            let mut frame = Vec::new();
            encode_block(codec_for(id), data, &mut frame);
            for want in wants(data.len(), i as u64) {
                assert_codec_bound(id, &stream, data.len(), want);
                let mut out = Vec::new();
                let (_, used) = decode_block_within(
                    &mut DecodeScratch::new(),
                    &frame,
                    want,
                    &mut out,
                    DEFAULT_MAX_FRAME,
                )
                .unwrap();
                assert_eq!(used, frame.len());
                assert_eq!(out, &data[..want.min(data.len())], "{id} block {i} want {want}");
            }
        }
    }
}

/// Every truncation of a LIGHT, MEDIUM and HUFF stream of text: the
/// bounded decode of each is the prefix rule's, at every edge bound.
#[test]
fn every_truncation_of_a_token_stream_follows_the_prefix_rule() {
    let data = generate(Class::Moderate, 3000, 5);
    for id in [CodecId::QlzLight, CodecId::QlzMedium, CodecId::Huffman] {
        let mut stream = Vec::new();
        compress_fresh(codec_for(id), &data, &mut stream);
        for keep in 0..stream.len() {
            for want in wants(data.len(), keep as u64) {
                assert_codec_bound(id, &stream[..keep], data.len(), want);
            }
        }
    }
}

/// Valid streams under a declared length up to 40 bytes off their own —
/// the header field no CRC covers — bounded at every byte of the last 41
/// before the declared end and at the edges: a match that crosses the
/// bound and overruns the declared length fails as the oracle fails.
#[test]
fn a_wrong_declared_length_follows_the_prefix_rule() {
    let blocks = [generate(Class::Moderate, 3000, 3), b"abcdefgh".repeat(400)];
    for id in CodecId::REGISTRY {
        for data in &blocks {
            let mut stream = Vec::new();
            compress_fresh(codec_for(id), data, &mut stream);
            for delta in (-40..=40).step_by(3) {
                let len = (data.len() as i64 + delta) as usize;
                let near = len - 40..len + 2;
                for want in wants(len, delta as u64).into_iter().chain(near) {
                    assert_codec_bound(id, &stream, len, want);
                }
            }
        }
    }
}

/// A flip of any bit of any frame's payload is the CRC's to catch, before
/// a byte is decoded: `ChecksumMismatch` at every bound, nothing appended.
#[test]
fn a_payload_flip_is_a_checksum_mismatch_at_every_bound() {
    let data = generate(Class::Moderate, 2000, 11);
    for id in CodecId::REGISTRY {
        let mut frame = Vec::new();
        encode_block(codec_for(id), &data, &mut frame);
        for pos in (HEADER_LEN..frame.len()).step_by(37) {
            let mut bad = frame.clone();
            bad[pos] ^= 1 << (pos % 8);
            for want in wants(data.len(), pos as u64) {
                let mut out = PREFIX.to_vec();
                let got =
                    decode_block_within(&mut DecodeScratch::new(), &bad, want, &mut out, u32::MAX);
                assert!(
                    matches!(got, Err(CodecError::ChecksumMismatch { .. })),
                    "{id} flip at {pos} want {want}: {got:?}"
                );
                assert_eq!(out, PREFIX);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `fault_decode.rs`'s payload damage below the frame layer — one byte
    /// overwritten, then a truncation — at the edge bounds and one drawn.
    #[test]
    fn damaged_codec_streams_follow_the_prefix_rule(
        data in proptest::collection::vec(0u8..4, 0..2500),
        ci in any::<prop::sample::Index>(),
        pos in any::<prop::sample::Index>(),
        val in any::<u8>(),
        cut in any::<prop::sample::Index>(),
        drawn in any::<prop::sample::Index>(),
    ) {
        let id = CodecId::REGISTRY[ci.index(CodecId::REGISTRY.len())];
        let mut wire = Vec::new();
        compress_fresh(codec_for(id), &data, &mut wire);
        if !wire.is_empty() {
            let idx = pos.index(wire.len());
            wire[idx] = val;
            wire.truncate(cut.index(wire.len()) + 1);
        }
        let mut ws = wants(data.len(), 0);
        ws.push(drawn.index(data.len() + 2));
        for want in ws {
            assert_codec_bound(id, &wire, data.len(), want);
        }
    }

    /// `fault_decode.rs`'s frame damage — a bit flipped anywhere, header
    /// included, or the frame cut short — through the frame entry.
    #[test]
    fn damaged_frames_follow_the_prefix_rule(
        data in proptest::collection::vec(any::<u8>(), 1..2000),
        ci in any::<prop::sample::Index>(),
        pos in any::<prop::sample::Index>(),
        bit in any::<prop::sample::Index>(),
        cut in any::<prop::sample::Index>(),
        truncate in any::<bool>(),
        drawn in any::<prop::sample::Index>(),
    ) {
        let id = CodecId::REGISTRY[ci.index(CodecId::REGISTRY.len())];
        let mut frame = Vec::new();
        encode_block(codec_for(id), &data, &mut frame);
        if truncate {
            frame.truncate(cut.index(frame.len()));
        } else {
            let idx = pos.index(frame.len());
            frame[idx] ^= 1 << bit.index(8);
        }
        let mut ws = wants(data.len(), 1);
        ws.push(drawn.index(data.len() + 2));
        for want in ws {
            assert_frame_bound(&frame, want);
        }
    }
}
