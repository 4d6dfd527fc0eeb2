//! Cross-crate integration: adaptive streams carrying every corpus class
//! stay lossless and land in the expected compression-ratio bands.

use adcomp::prelude::*;
use std::io::{Read, Write};

fn roundtrip_with_model(
    data: &[u8],
    model: Box<dyn adcomp::core::DecisionModel>,
) -> (Vec<u8>, StreamStats) {
    let mut w = AdaptiveWriter::new(Vec::new(), LevelSet::paper_default(), model);
    w.write_all(data).unwrap();
    let (wire, stats) = w.finish().unwrap();
    let mut out = Vec::new();
    AdaptiveReader::new(&wire[..]).read_to_end(&mut out).unwrap();
    (out, stats)
}

#[test]
fn every_class_roundtrips_under_every_static_level() {
    for class in Class::ALL {
        let data = adcomp::corpus::generate(class, 700_000, 11);
        for level in 0..4 {
            let (out, stats) =
                roundtrip_with_model(&data, Box::new(StaticModel::new(level, 4)));
            assert_eq!(out, data, "class {class} level {level}");
            assert_eq!(stats.app_bytes, data.len() as u64);
        }
    }
}

#[test]
fn ratio_bands_match_paper_quotes() {
    // LIGHT on each class must land in the compressibility band the paper
    // quotes for the corresponding test file.
    let bands = [
        (Class::High, 0.03, 0.20),
        (Class::Moderate, 0.25, 0.60),
        (Class::Low, 0.85, 1.01),
    ];
    for (class, lo, hi) in bands {
        let data = adcomp::corpus::generate(class, 2_000_000, 5);
        let (_, stats) = roundtrip_with_model(&data, Box::new(StaticModel::new(1, 4)));
        let r = stats.wire_ratio();
        assert!((lo..=hi).contains(&r), "{class}: ratio {r} outside [{lo}, {hi}]");
    }
}

#[test]
fn adaptive_stream_roundtrips_mixed_compressibility() {
    // Concatenate phases of different classes — the adaptive writer must
    // stay lossless across level changes mid-stream.
    let mut data = Vec::new();
    for (class, seed) in [(Class::High, 1u64), (Class::Low, 2), (Class::Moderate, 3), (Class::High, 4)]
    {
        data.extend(adcomp::corpus::generate(class, 400_000, seed));
    }
    let (out, stats) = roundtrip_with_model(&data, Box::new(RateBasedModel::paper_default()));
    assert_eq!(out, data);
    assert_eq!(stats.app_bytes, data.len() as u64);
}

#[test]
fn wire_overhead_on_incompressible_data_is_bounded() {
    let data = adcomp::corpus::generate(Class::Low, 1_000_000, 9);
    for level in 1..4 {
        let (_, stats) = roundtrip_with_model(&data, Box::new(StaticModel::new(level, 4)));
        // Raw fallback bounds overhead to the 16-byte header per 128 KiB.
        assert!(
            stats.wire_ratio() < 1.01,
            "level {level} ratio {} exceeds fallback bound",
            stats.wire_ratio()
        );
    }
}

#[test]
fn stream_chaining_through_both_directions_twice() {
    // Compress → decompress → compress → decompress (idempotence of the
    // transport layer).
    let data = adcomp::corpus::generate(Class::Moderate, 300_000, 13);
    let (once, _) = roundtrip_with_model(&data, Box::new(StaticModel::new(2, 4)));
    let (twice, _) = roundtrip_with_model(&once, Box::new(StaticModel::new(3, 4)));
    assert_eq!(twice, data);
}

#[test]
fn reader_rejects_corrupted_wire_data() {
    let data = adcomp::corpus::generate(Class::Moderate, 300_000, 17);
    let mut w = AdaptiveWriter::new(
        Vec::new(),
        LevelSet::paper_default(),
        Box::new(StaticModel::new(1, 4)),
    );
    w.write_all(&data).unwrap();
    let (mut wire, _) = w.finish().unwrap();
    // Flip a payload byte in the middle of the stream.
    let mid = wire.len() / 2;
    wire[mid] ^= 0x40;
    let mut out = Vec::new();
    let res = AdaptiveReader::new(&wire[..]).read_to_end(&mut out);
    assert!(res.is_err(), "corruption must not pass silently");
}

/// The non-indexed wire format is frozen: a pinned-seed stream must be
/// byte-identical to the committed golden fixture, and the seekable
/// variant of the same stream must be exactly those bytes plus the
/// appended index trailer — which an old-style streaming reader skips
/// cleanly. Regenerate the golden with `ADCOMP_REGEN_GOLDEN=1 cargo test
/// non_indexed_wire_bytes_match_pinned_golden`.
///
/// Re-pinned 2026-10-04: MEDIUM's match finder changed (two hash chains
/// for the one 48-deep chain), so its token stream parses the same text
/// into other matches; frame and token formats are untouched. The bytes
/// pinned until then live on as `plain_stream_pr17.adc`, see
/// `stream_pinned_before_the_two_chain_finder_still_decodes`.
#[test]
fn non_indexed_wire_bytes_match_pinned_golden() {
    let data = adcomp::corpus::generate(Class::Moderate, 48 * 1024, 0x601D);
    let make = |seekable: bool| {
        let mut w = AdaptiveWriter::with_params(
            Vec::new(),
            LevelSet::paper_default(),
            Box::new(StaticModel::new(2, 4)),
            4096,
            3600.0,
            Box::new(adcomp::core::ManualClock::new()),
        );
        if seekable {
            w.set_seekable(true);
        }
        w.write_all(&data).unwrap();
        w.finish().unwrap().0
    };
    let plain = make(false);

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/plain_stream.adc");
    if std::env::var_os("ADCOMP_REGEN_GOLDEN").is_some() {
        std::fs::write(golden_path, &plain).unwrap();
    }
    let golden = std::fs::read(golden_path)
        .expect("golden missing — run once with ADCOMP_REGEN_GOLDEN=1");
    assert_eq!(plain, golden, "non-indexed wire bytes drifted from the pinned golden");

    let indexed = make(true);
    assert!(indexed.len() > plain.len(), "seekable stream must append a trailer");
    assert_eq!(indexed[..plain.len()], plain[..], "index must be an appended trailer only");

    for wire in [&plain, &indexed] {
        let mut out = Vec::new();
        AdaptiveReader::new(&wire[..]).read_to_end(&mut out).unwrap();
        assert_eq!(out, data, "streaming reader must decode (and skip any trailer) losslessly");
    }
}

/// Old streams stay readable: the golden pinned up to PR 17, written by the
/// single-chain MEDIUM, is a decode-only fixture — today's reader returns
/// the text it was made from.
#[test]
fn stream_pinned_before_the_two_chain_finder_still_decodes() {
    let wire = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/plain_stream_pr17.adc"
    ))
    .expect("decode-only fixture missing");
    let mut out = Vec::new();
    AdaptiveReader::new(&wire[..])
        .read_to_end(&mut out)
        .unwrap();
    assert_eq!(
        out,
        adcomp::corpus::generate(Class::Moderate, 48 * 1024, 0x601D)
    );
}
