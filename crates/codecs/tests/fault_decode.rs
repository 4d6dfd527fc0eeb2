//! Mutation suite for the frame decode path — satellite of the fault
//! model (DESIGN.md "Fault model & recovery").
//!
//! Every property drives generated frames through deterministic
//! mutations (single-bit flips, truncations, forged length fields, raw
//! payload damage) and holds the decoders to the hardened contract:
//!
//! * **never panic** — damage is an `Err`, not a crash;
//! * **never lie** — a payload-region bit flip is *always* caught by the
//!   CRC (CRC-32 detects all single-bit errors);
//! * **never bloat** — forged giant length fields are rejected by the
//!   pre-allocation cap, not by the allocator.

use adcomp_codecs::frame::{decode_block_with, encode_block, HEADER_LEN};
use adcomp_codecs::{codec_for, compress_fresh, CodecId, DecodeScratch};
use proptest::prelude::*;

/// The full codec registry — paper ladder plus portfolio members (Raw
/// included: the fallback path must be just as robust as the real
/// compressors).
const CODECS: [CodecId; 6] = CodecId::REGISTRY;

fn encode(codec: CodecId, data: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_block(codec_for(codec), data, &mut frame);
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// CRC-32 detects every single-bit error: a flip anywhere in the
    /// payload region must surface as a decode error, at every level, on
    /// compressible and incompressible data alike.
    #[test]
    fn payload_bit_flip_is_always_detected(
        data in proptest::collection::vec(0u8..8, 1..4000),
        ci in any::<prop::sample::Index>(),
        pos in any::<prop::sample::Index>(),
        bit in any::<prop::sample::Index>(),
    ) {
        let codec = CODECS[ci.index(CODECS.len())];
        let mut frame = encode(codec, &data);
        let payload_len = frame.len() - HEADER_LEN;
        prop_assert!(payload_len > 0);
        let idx = HEADER_LEN + pos.index(payload_len);
        frame[idx] ^= 1 << bit.index(8);
        let mut out = Vec::new();
        prop_assert!(
            decode_block_with(&mut DecodeScratch::new(), &frame, &mut out, u32::MAX).is_err(),
            "payload flip at byte {idx} slipped past the CRC"
        );
    }

    /// A flip anywhere in the frame (header included) must never panic,
    /// and a decode that still reports success must hand back exactly the
    /// number of bytes the header promises — the length fields and the
    /// decoded output can never disagree silently.
    #[test]
    fn any_bit_flip_never_panics_and_lengths_stay_honest(
        data in proptest::collection::vec(any::<u8>(), 1..2000),
        ci in any::<prop::sample::Index>(),
        pos in any::<prop::sample::Index>(),
        bit in any::<prop::sample::Index>(),
    ) {
        let codec = CODECS[ci.index(CODECS.len())];
        let mut frame = encode(codec, &data);
        let idx = pos.index(frame.len());
        frame[idx] ^= 1 << bit.index(8);
        let (mut scratch, mut out) = (DecodeScratch::new(), Vec::new());
        let decoded = decode_block_with(&mut scratch, &frame, &mut out, u32::MAX);
        if let Ok((header, consumed)) = decoded {
            prop_assert_eq!(out.len(), header.uncompressed_len as usize);
            prop_assert!(consumed <= frame.len());
        }
    }

    /// Every possible truncation point — mid-magic, mid-header,
    /// mid-payload — yields a typed error, never a panic or a short
    /// silent success.
    #[test]
    fn every_truncation_point_errors(
        data in proptest::collection::vec(0u8..16, 1..3000),
        ci in any::<prop::sample::Index>(),
        cut in any::<prop::sample::Index>(),
    ) {
        let codec = CODECS[ci.index(CODECS.len())];
        let frame = encode(codec, &data);
        let keep = cut.index(frame.len()); // 0..frame.len(), strictly short
        let (mut scratch, mut out) = (DecodeScratch::new(), Vec::new());
        prop_assert!(
            decode_block_with(&mut scratch, &frame[..keep], &mut out, u32::MAX).is_err(),
            "truncation to {keep}/{} bytes decoded successfully",
            frame.len()
        );
    }

    /// Forged giant length fields are refused by the pre-allocation cap:
    /// with a 1 MiB limit, a header claiming multi-GiB lengths must error
    /// out before touching the allocator (this test OOMs if it does not).
    #[test]
    fn forged_lengths_hit_the_cap_not_the_allocator(
        data in proptest::collection::vec(0u8..8, 1..500),
        ci in any::<prop::sample::Index>(),
        field in any::<bool>(),
        huge in any::<u32>(),
    ) {
        let codec = CODECS[ci.index(CODECS.len())];
        let mut frame = encode(codec, &data);
        let cap = 1u32 << 20;
        let forged = cap.saturating_add(1).saturating_add(huge % (u32::MAX - cap - 1));
        let off = if field { 4 } else { 8 }; // uncompressed_len / payload_len
        frame[off..off + 4].copy_from_slice(&forged.to_le_bytes());
        let mut out = Vec::new();
        prop_assert!(decode_block_with(&mut DecodeScratch::new(), &frame, &mut out, cap).is_err());
        prop_assert!(out.capacity() < forged as usize);
    }

    /// The raw codec decoders (QuickLZ-style, range-coded HEAVY, and the
    /// portfolio's HUFF/COLUMNAR) are exposed to arbitrarily damaged
    /// compressed payloads below the frame layer — no CRC shields them
    /// here. Bounds-hardening means: return `Err` or a correct-length
    /// `Ok`, never panic, never overrun.
    #[test]
    fn codec_decoders_survive_arbitrary_payload_damage(
        data in proptest::collection::vec(0u8..4, 0..2500),
        ci in any::<prop::sample::Index>(),
        pos in any::<prop::sample::Index>(),
        val in any::<u8>(),
        cut in any::<prop::sample::Index>(),
    ) {
        let codec_id = [
            CodecId::QlzLight,
            CodecId::QlzMedium,
            CodecId::Heavy,
            CodecId::Huffman,
            CodecId::Columnar,
        ][ci.index(5)];
        let codec = codec_for(codec_id);
        let mut wire = Vec::new();
        compress_fresh(codec, &data, &mut wire);
        // Overwrite one byte, then truncate — two independent damages.
        if !wire.is_empty() {
            let idx = pos.index(wire.len());
            wire[idx] = val;
            wire.truncate(cut.index(wire.len()) + 1);
        }
        let mut out = Vec::new();
        if codec.decompress_with(&mut DecodeScratch::new(), &wire, data.len(), &mut out).is_ok() {
            prop_assert_eq!(out.len(), data.len());
        }
    }
}
