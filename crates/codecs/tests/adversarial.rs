//! Adversarial inputs for the codecs: boundary lengths, pathological
//! repetition structures, maximum-distance matches, and hostile frame
//! streams.

use adcomp_codecs::frame::{decode_block, encode_block, FrameReader, HEADER_LEN};
use adcomp_codecs::{codec_for, compress_fresh, CodecError, CodecId, DecodeScratch};

fn roundtrip_all(data: &[u8]) {
    for id in CodecId::ALL {
        let codec = codec_for(id);
        let mut wire = Vec::new();
        compress_fresh(codec, data, &mut wire);
        let mut out = Vec::new();
        codec.decompress_with(&mut DecodeScratch::new(), &wire, data.len(), &mut out)
            .unwrap_or_else(|e| panic!("codec {id} len {}: {e}", data.len()));
        assert_eq!(out, data, "codec {id} len {}", data.len());
    }
}

#[test]
fn boundary_lengths_around_match_minimums() {
    // Lengths around MIN_MATCH (4) and the hash-window edges.
    for len in 0..=70 {
        let data: Vec<u8> = (0..len).map(|i| (i % 3) as u8).collect();
        roundtrip_all(&data);
    }
}

#[test]
fn period_sweep_hits_every_overlap_case() {
    // Period-p repetition forces matches with distance p; p < MIN_MATCH
    // exercises the overlapping-copy path.
    for p in 1..=20usize {
        let pattern: Vec<u8> = (0..p).map(|i| (i * 37 + 11) as u8).collect();
        let data: Vec<u8> = pattern.iter().cycle().take(5000).cloned().collect();
        roundtrip_all(&data);
    }
}

#[test]
fn match_at_maximum_qlz_offset() {
    // A repeated motif separated by exactly 65535 filler bytes (the QLZ
    // window edge) and by 65536 (just past it).
    for gap in [65530usize, 65535, 65536, 65541] {
        let mut data = Vec::new();
        data.extend_from_slice(b"UNIQUE-MOTIF-0123456789");
        data.resize(data.len() + gap, b'.');
        data.extend_from_slice(b"UNIQUE-MOTIF-0123456789");
        roundtrip_all(&data);
    }
}

#[test]
fn long_match_cap_boundaries() {
    // Runs whose length sits exactly at the QLZ MAX_MATCH cap (259) and
    // the awkward remainders 260..=262 (cap + 1..3 leftover < MIN_MATCH).
    for run in [258usize, 259, 260, 261, 262, 263, 518, 519] {
        let mut data = b"prefix".to_vec();
        data.extend(std::iter::repeat_n(b'R', run));
        data.extend_from_slice(b"suffix");
        roundtrip_all(&data);
    }
}

#[test]
fn heavy_length_tree_boundaries() {
    // The HEAVY length coder switches trees at len 10 and 18 and caps at
    // 273; hit every switch point with a two-symbol alphabet.
    for run in [2usize, 9, 10, 17, 18, 272, 273, 274, 546] {
        let mut data = vec![b'x'];
        data.extend(std::iter::repeat_n(b'y', run));
        data.extend_from_slice(b"tail-entropy-1234");
        roundtrip_all(&data);
    }
}

#[test]
fn sawtooth_and_gradient_patterns() {
    let saw: Vec<u8> = (0..40_000).map(|i| (i % 251) as u8).collect();
    roundtrip_all(&saw);
    let grad: Vec<u8> = (0..40_000).map(|i| (i / 157) as u8).collect();
    roundtrip_all(&grad);
    let bits: Vec<u8> = (0..40_000).map(|i| ((i >> 3) & 1) as u8 * 255).collect();
    roundtrip_all(&bits);
}

#[test]
fn all_identical_then_all_distinct() {
    let mut data = vec![0x42u8; 10_000];
    data.extend((0..=255u8).cycle().take(10_000));
    roundtrip_all(&data);
}

#[test]
fn frame_stream_with_mixed_codecs_and_hostile_sizes() {
    // Blocks of size 0, 1, header-size, and block-max mixed across codecs.
    let sizes = [0usize, 1, 15, 16, 17, 4096, 131072];
    let mut wire = Vec::new();
    let mut expect = Vec::new();
    for (i, &sz) in sizes.iter().enumerate() {
        let data: Vec<u8> = (0..sz).map(|j| ((i * 31 + j * 7) % 256) as u8).collect();
        let codec = codec_for(CodecId::ALL[i % 4]);
        encode_block(codec, &data, &mut wire);
        expect.push(data);
    }
    let mut r = FrameReader::new(&wire[..]);
    for e in &expect {
        let mut out = Vec::new();
        let h = r.read_block(&mut out).unwrap().expect("block present");
        assert_eq!(&out, e);
        assert_eq!(h.uncompressed_len as usize, e.len());
    }
    let mut out = Vec::new();
    assert!(r.read_block(&mut out).unwrap().is_none(), "clean EOF");
}

#[test]
fn frame_header_field_corruptions_detected() {
    let data = b"frame corruption target ".repeat(100);
    let mut wire = Vec::new();
    encode_block(codec_for(CodecId::QlzMedium), &data, &mut wire);
    // Corrupt each header byte in turn; every one must surface an error
    // (magic, codec id, lengths, CRC are all load-bearing).
    let mut detected = 0;
    for i in 0..HEADER_LEN {
        let mut bad = wire.clone();
        bad[i] ^= 0xA5;
        let mut out = Vec::new();
        if decode_block(&bad, &mut out).is_err() {
            detected += 1;
        }
    }
    assert!(
        detected >= HEADER_LEN - 2,
        "only {detected}/{HEADER_LEN} header corruptions detected"
    );
}

#[test]
fn declared_payload_longer_than_buffer_is_truncation() {
    let data = b"short".to_vec();
    let mut wire = Vec::new();
    encode_block(codec_for(CodecId::Raw), &data, &mut wire);
    // Inflate the declared payload length beyond the available bytes.
    let mut bad = wire.clone();
    bad[8..12].copy_from_slice(&1_000u32.to_le_bytes());
    let mut out = Vec::new();
    assert!(matches!(decode_block(&bad, &mut out), Err(CodecError::Truncated)));
}

#[test]
fn uncompressed_len_mismatch_rejected() {
    // A valid QLZ payload whose header claims the wrong uncompressed size
    // must fail (CRC still matches the payload, so this exercises the
    // codec-level length checks).
    let data = b"abcdabcdabcdabcd".repeat(32);
    let mut wire = Vec::new();
    encode_block(codec_for(CodecId::QlzLight), &data, &mut wire);
    for delta in [-7i64, -1, 1, 7] {
        let mut bad = wire.clone();
        let v = (data.len() as i64 + delta) as u32;
        bad[4..8].copy_from_slice(&v.to_le_bytes());
        let mut out = Vec::new();
        assert!(
            decode_block(&bad, &mut out).is_err(),
            "length delta {delta} accepted"
        );
    }
}

/// Every registry codec appends: what `out` held before the call is still
/// there after a success *and* after every error (the token decoders open
/// their window at `out[start..]` and must never write, or cut, below it).
#[test]
fn decompress_into_nonempty_output_appends() {
    const PREFIX: &[u8] = b"PREFIX";
    let data = b"appended payload, repeated repeated".repeat(10);
    for id in CodecId::REGISTRY {
        let codec = codec_for(id);
        let mut wire = Vec::new();
        compress_fresh(codec, &data, &mut wire);
        let mut out = PREFIX.to_vec();
        codec.decompress_with(&mut DecodeScratch::new(), &wire, data.len(), &mut out).unwrap();
        assert_eq!(&out[..PREFIX.len()], PREFIX);
        assert_eq!(&out[PREFIX.len()..], &data[..], "codec {id}");

        let mut flipped = wire.clone();
        flipped[wire.len() / 2] ^= 0x5A;
        let cases: [(&str, &[u8], usize); 5] = [
            ("truncated", &wire[..wire.len() / 2], data.len()),
            ("cut to one byte", &wire[..1], data.len()),
            ("flipped", &flipped, data.len()),
            ("declared short", &wire, data.len() - 7),
            ("declared long", &wire, data.len() + 7),
        ];
        for (what, input, declared) in cases {
            let mut out = PREFIX.to_vec();
            // A flipped literal still decodes, and HEAVY — no end marker,
            // zeros read past the payload — decodes most things to
            // something of the declared size; everything else must fail.
            let res = codec.decompress_with(&mut DecodeScratch::new(), input, declared, &mut out);
            let may_decode = what == "flipped" || id == CodecId::Heavy;
            assert!(res.is_err() || may_decode, "codec {id}, {what}: accepted");
            assert_eq!(&out[..PREFIX.len()], PREFIX, "codec {id}, {what}: prefix damaged");
            if res.is_ok() {
                assert_eq!(out.len(), PREFIX.len() + declared, "codec {id}, {what}");
            } else {
                assert!(out.len() <= PREFIX.len() + declared, "codec {id}, {what}: overshoot");
            }
        }
    }
}
