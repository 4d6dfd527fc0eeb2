//! Cross-crate check: our codecs on our synthetic corpus must land in the
//! compressibility bands the paper reports for its test files.

use adcomp_codecs::frame::{encode_block, DEFAULT_BLOCK_LEN};
use adcomp_codecs::{codec_for, CodecId};
use adcomp_corpus::{generate, Class};

fn ratio(class: Class, id: CodecId) -> f64 {
    let data = generate(class, 2 * 1024 * 1024, 42);
    let codec = codec_for(id);
    let mut wire = Vec::new();
    let mut app = 0u64;
    for b in data.chunks(DEFAULT_BLOCK_LEN) {
        let info = encode_block(codec, b, &mut wire);
        app += info.uncompressed_len as u64;
    }
    wire.len() as f64 / app as f64
}

#[test]
fn high_class_compresses_like_ptt5() {
    // Paper: ptt5 compresses to 10–15 % with common libraries.
    let light = ratio(Class::High, CodecId::QlzLight);
    let heavy = ratio(Class::High, CodecId::Heavy);
    assert!(light < 0.20, "LIGHT on HIGH: {light}");
    assert!(heavy < light, "HEAVY ({heavy}) should beat LIGHT ({light})");
    assert!(heavy > 0.005, "HEAVY on HIGH unrealistically small: {heavy}");
}

#[test]
fn moderate_class_compresses_like_alice29() {
    // Paper: alice29.txt ratio 30–50 % depending on algorithm.
    let light = ratio(Class::Moderate, CodecId::QlzLight);
    let medium = ratio(Class::Moderate, CodecId::QlzMedium);
    let heavy = ratio(Class::Moderate, CodecId::Heavy);
    assert!((0.25..0.60).contains(&light), "LIGHT on MODERATE: {light}");
    assert!(medium <= light + 0.01, "MEDIUM ({medium}) vs LIGHT ({light})");
    assert!(heavy < medium, "HEAVY ({heavy}) should beat MEDIUM ({medium})");
}

#[test]
fn low_class_compresses_like_jpeg() {
    // Paper: image.jpg ratio 90–95 %.
    let light = ratio(Class::Low, CodecId::QlzLight);
    let heavy = ratio(Class::Low, CodecId::Heavy);
    assert!(light > 0.85, "LIGHT on LOW: {light}");
    assert!(light <= 1.01, "LIGHT on LOW should not expand past fallback: {light}");
    assert!(heavy > 0.85, "HEAVY on LOW: {heavy}");
}

/// MEDIUM's place on the ladder, pinned: no larger than the single 48-deep
/// `hash4` chain it replaced (its ratios at commit 57db0f0, same corpus,
/// seed and block length, from that commit's binary), RAW fallback on
/// LOW, and strictly between LIGHT and HEAVY where there is anything to
/// compress. Deterministic — no timing.
#[test]
fn medium_ratio_holds_its_rung() {
    const PARENT_HIGH: f64 = 0.035102; // 57db0f0
    const PARENT_MODERATE: f64 = 0.409517; // 57db0f0
    let high = ratio(Class::High, CodecId::QlzMedium);
    let moderate = ratio(Class::Moderate, CodecId::QlzMedium);
    let low = ratio(Class::Low, CodecId::QlzMedium);
    assert!(
        high <= 1.01 * PARENT_HIGH,
        "MEDIUM on HIGH: {high} vs {PARENT_HIGH}"
    );
    assert!(
        moderate <= PARENT_MODERATE,
        "MEDIUM on MODERATE: {moderate} vs {PARENT_MODERATE}"
    );
    assert!(low <= 1.0002, "MEDIUM on LOW must fall back to RAW: {low}");
    for (class, medium) in [(Class::High, high), (Class::Moderate, moderate)] {
        let light = ratio(class, CodecId::QlzLight);
        let heavy = ratio(class, CodecId::Heavy);
        assert!(
            light > medium && medium > heavy,
            "{class}: LIGHT {light} > MEDIUM {medium} > HEAVY {heavy} must hold"
        );
    }
}

#[test]
fn every_codec_roundtrips_every_class() {
    for class in Class::ALL {
        let data = generate(class, 300_000, 7);
        for id in CodecId::ALL {
            let codec = codec_for(id);
            let mut wire = Vec::new();
            for b in data.chunks(DEFAULT_BLOCK_LEN) {
                encode_block(codec, b, &mut wire);
            }
            let mut out = Vec::new();
            let mut cursor = &wire[..];
            while !cursor.is_empty() {
                let (_, used) = adcomp_codecs::frame::decode_block(cursor, &mut out).unwrap();
                cursor = &cursor[used..];
            }
            assert_eq!(out, data, "class {class} codec {id}");
        }
    }
}

#[test]
fn speed_ordering_light_fastest_heavy_slowest() {
    use adcomp_codecs::calibrate::measure;
    let data = generate(Class::Moderate, 1024 * 1024, 3);
    // Fastest of three alternating passes each: in a debug build MEDIUM is
    // only 1.1–1.5× faster than HEAVY, less than one pass swings by on a
    // busy host.
    let mut fastest = [0.0f64; 3];
    for _ in 0..3 {
        let ids = [CodecId::QlzLight, CodecId::QlzMedium, CodecId::Heavy];
        for (best, id) in fastest.iter_mut().zip(ids) {
            *best = best.max(measure(id, &data, 0.05).compress_mbps);
        }
    }
    let [light, medium, heavy] = fastest;
    assert!(light > heavy * 2.0, "LIGHT {light} vs HEAVY {heavy}");
    assert!(medium > heavy, "MEDIUM {medium} vs HEAVY {heavy}");
}
