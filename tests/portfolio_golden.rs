//! The mixed-codec **portfolio** wire format is frozen.
//!
//! A pinned heterogeneous corpus written with `--portfolio` semantics
//! (per-block content-aware codec selection) must be byte-identical to the
//! committed golden fixture — for *any* pipeline worker count — and the
//! golden must genuinely mix codec families (QLZ, HUFF, COLUMNAR) across
//! its frames. Regenerate with `ADCOMP_REGEN_GOLDEN=1 cargo test
//! portfolio_wire_bytes_match_pinned_golden`.
//!
//! Compatibility contract: a *pre-portfolio* reader (one whose codec-id
//! table stops at the paper ladder, ids 0..=3) must reject the new HUFF
//! and COLUMNAR ids with a typed `CodecError` — never a panic, never a
//! silent skip. The same property is exercised forward: today's reader
//! refuses ids *it* does not know the same way.

use adcomp::codecs::frame::{decode_block_with, FrameReader, HEADER_LEN};
use adcomp::codecs::{CodecError, CodecId, DecodeScratch};
use adcomp::prelude::*;
use std::io::{Read, Write};

const BLOCK_LEN: usize = 4096;

/// Rotating run-heavy / text-like / noise blocks — each 4 KiB block is a
/// different content class, so portfolio selection mixes codec families
/// within one stream.
fn heterogeneous_corpus(blocks: usize) -> Vec<u8> {
    let mut data = Vec::new();
    let mut x = 0x2545_F491u32;
    for b in 0..blocks {
        match b % 3 {
            0 => data.extend(std::iter::repeat_n((b % 5) as u8, BLOCK_LEN)),
            1 => data.extend(
                b"text-like content with words and repetition, repetition. "
                    .iter()
                    .copied()
                    .cycle()
                    .take(BLOCK_LEN),
            ),
            _ => data.extend((0..BLOCK_LEN).map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })),
        }
    }
    data
}

fn portfolio_wire(data: &[u8], workers: usize) -> Vec<u8> {
    let mut w = AdaptiveWriter::with_params(
        Vec::new(),
        LevelSet::paper_default(),
        Box::new(StaticModel::new(2, 4)),
        BLOCK_LEN,
        3600.0,
        Box::new(adcomp::core::ManualClock::new()),
    );
    w.set_portfolio(true);
    if workers > 1 {
        w.set_pipeline_workers(workers);
    }
    w.write_all(data).unwrap();
    w.finish().unwrap().0
}

/// (offset, codec id byte) of every frame, by walking the fixed headers.
fn frames(wire: &[u8]) -> Vec<(usize, u8)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos + HEADER_LEN <= wire.len() {
        assert_eq!(&wire[pos..pos + 2], &[0xAD, 0xC2], "frame magic at {pos}");
        out.push((pos, wire[pos + 2]));
        let payload = u32::from_le_bytes(wire[pos + 8..pos + 12].try_into().unwrap());
        pos += HEADER_LEN + payload as usize;
    }
    assert_eq!(pos, wire.len(), "trailing partial frame");
    out
}

#[test]
fn portfolio_wire_bytes_match_pinned_golden() {
    let data = heterogeneous_corpus(24);
    let serial = portfolio_wire(&data, 1);

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/portfolio_stream.adc");
    if std::env::var_os("ADCOMP_REGEN_GOLDEN").is_some() {
        std::fs::write(golden_path, &serial).unwrap();
    }
    let golden = std::fs::read(golden_path)
        .expect("golden missing — run once with ADCOMP_REGEN_GOLDEN=1");
    assert_eq!(serial, golden, "portfolio wire bytes drifted from the pinned golden");

    // Codec selection is a pure function of block content: the pipelined
    // writer must emit the same bytes as the serial writer at any width.
    for workers in [2usize, 4, 7] {
        assert_eq!(
            portfolio_wire(&data, workers),
            serial,
            "portfolio wire bytes depend on worker count {workers}"
        );
    }

    // The golden genuinely mixes codec families, including portfolio ones.
    let ids: std::collections::BTreeSet<u8> = frames(&golden).into_iter().map(|(_, id)| id).collect();
    assert!(ids.len() >= 3, "golden is not a mixed-codec stream: ids {ids:?}");
    assert!(
        ids.iter().any(|&id| id >= 4),
        "golden carries no portfolio codec (HUFF/COLUMNAR): ids {ids:?}"
    );

    // And it still decodes back to the exact corpus.
    let mut out = Vec::new();
    AdaptiveReader::new(&golden[..]).read_to_end(&mut out).unwrap();
    assert_eq!(out, data);
}

/// What a reader built before the portfolio existed does with the new ids:
/// its codec-id table ends at the paper ladder, so HUFF (4) and COLUMNAR
/// (5) frames must surface as a **typed** unknown-codec error — the exact
/// rejection arm `CodecId::from_u8` still has for ids beyond today's
/// registry.
#[test]
fn pre_portfolio_reader_rejects_new_codec_ids_with_typed_error() {
    let golden = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/portfolio_stream.adc"
    ))
    .expect("golden missing — run once with ADCOMP_REGEN_GOLDEN=1");

    // The legacy id table, verbatim from the pre-portfolio release.
    let legacy_from_u8 = |id: u8| -> Result<CodecId, CodecError> {
        match id {
            0 => Ok(CodecId::Raw),
            1 => Ok(CodecId::QlzLight),
            2 => Ok(CodecId::QlzMedium),
            3 => Ok(CodecId::Heavy),
            other => Err(CodecError::UnknownCodec(other)),
        }
    };
    let mut rejected = 0usize;
    for (_, id) in frames(&golden) {
        match legacy_from_u8(id) {
            Ok(codec) => assert!((codec as u8) < 4),
            Err(CodecError::UnknownCodec(got)) => {
                assert!(got == 4 || got == 5, "unexpected id {got}");
                rejected += 1;
            }
            Err(other) => panic!("wrong error variant: {other:?}"),
        }
    }
    assert!(rejected > 0, "golden carries no frame a legacy reader would reject");

    // Forward direction, through the *real* decode path: forge an id even
    // today's registry does not know onto the first frame and decode. The
    // CRC does not cover the header, so the forged byte reaches the id
    // table — which must answer with the typed error, not a panic and not
    // a skip.
    let mut forged = golden.clone();
    forged[2] = 0x2A;
    let mut out = Vec::new();
    match decode_block_with(&mut DecodeScratch::new(), &forged, &mut out, u32::MAX) {
        Err(CodecError::UnknownCodec(0x2A)) => {}
        other => panic!("expected UnknownCodec(42), got {other:?}"),
    }
    assert!(out.is_empty(), "unknown-codec frame must not emit bytes");

    // A fail-fast FrameReader surfaces the same error (as an
    // `io::Error` whose source is the typed variant) instead of skipping.
    let mut reader = FrameReader::new(&forged[..]);
    let mut block = Vec::new();
    let err = reader.read_block(&mut block).expect_err("forged id must not decode");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    match err.get_ref().and_then(|e| e.downcast_ref::<CodecError>()) {
        Some(CodecError::UnknownCodec(0x2A)) => {}
        other => panic!("expected UnknownCodec(42) from FrameReader, got {other:?} ({err})"),
    }
}
