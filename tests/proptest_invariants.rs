//! Property-based tests over the core invariants: codecs are lossless on
//! arbitrary inputs, frames reject corruption or stay lossless, the
//! controller never leaves its level range, and sources conserve bytes.

use adcomp::codecs::frame::{decode_block, encode_block};
use adcomp::codecs::{codec_for, compress_fresh, CodecId, DecodeScratch};
use adcomp::core::controller::ControllerConfig;
use adcomp::core::epoch::EpochContext;
use adcomp::core::model::{DecisionModel, QueueBasedModel, RateBasedModel, ThresholdSamplingModel};
use adcomp::corpus::{ByteSource, CyclicSource, SwitchingSource};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn qlz_light_roundtrips_any_bytes(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let codec = codec_for(CodecId::QlzLight);
        let mut wire = Vec::new();
        compress_fresh(codec, &data, &mut wire);
        let mut out = Vec::new();
        codec.decompress_with(&mut DecodeScratch::new(), &wire, data.len(), &mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    #[test]
    fn qlz_medium_roundtrips_any_bytes(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let codec = codec_for(CodecId::QlzMedium);
        let mut wire = Vec::new();
        compress_fresh(codec, &data, &mut wire);
        let mut out = Vec::new();
        codec.decompress_with(&mut DecodeScratch::new(), &wire, data.len(), &mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    #[test]
    fn heavy_roundtrips_any_bytes(data in proptest::collection::vec(any::<u8>(), 0..8_000)) {
        let codec = codec_for(CodecId::Heavy);
        let mut wire = Vec::new();
        compress_fresh(codec, &data, &mut wire);
        let mut out = Vec::new();
        codec.decompress_with(&mut DecodeScratch::new(), &wire, data.len(), &mut out).unwrap();
        prop_assert_eq!(out, data);
    }

    #[test]
    fn structured_bytes_roundtrip_all_codecs(
        pattern in proptest::collection::vec(any::<u8>(), 1..64),
        repeats in 1usize..200,
        noise in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..32),
    ) {
        // Repetitive data with injected noise — the adversarial middle
        // ground between random and constant.
        let mut data: Vec<u8> = pattern.iter().cycle().take(pattern.len() * repeats).cloned().collect();
        for (idx, b) in noise {
            let n = data.len();
            data[idx.index(n)] = b;
        }
        for id in CodecId::ALL {
            let codec = codec_for(id);
            let mut wire = Vec::new();
            compress_fresh(codec, &data, &mut wire);
            let mut out = Vec::new();
            codec.decompress_with(&mut DecodeScratch::new(), &wire, data.len(), &mut out).unwrap();
            prop_assert_eq!(&out, &data, "codec {}", id);
        }
    }

    #[test]
    fn frame_roundtrips_or_detects_corruption(
        data in proptest::collection::vec(any::<u8>(), 0..4_000),
        corrupt_at in any::<prop::sample::Index>(),
        corrupt_mask in 1u8..=255,
    ) {
        let mut wire = Vec::new();
        encode_block(codec_for(CodecId::QlzLight), &data, &mut wire);
        // Clean decode must be lossless.
        let mut out = Vec::new();
        let (_, consumed) = decode_block(&wire, &mut out).unwrap();
        prop_assert_eq!(consumed, wire.len());
        prop_assert_eq!(&out, &data);
        // A corrupted byte must never produce a *different* successful
        // payload (either an error, or — for header-only bit flips that
        // cancel out — the identical payload).
        let mut bad = wire.clone();
        let i = corrupt_at.index(bad.len());
        bad[i] ^= corrupt_mask;
        let mut out2 = Vec::new();
        if let Ok((_, n)) = decode_block(&bad, &mut out2) {
            prop_assert_eq!(n, bad.len());
            prop_assert_eq!(&out2, &data, "corruption at byte {} passed with different payload", i);
        }
    }

    #[test]
    fn controller_level_always_in_range(
        rates in proptest::collection::vec(0.0f64..1e9, 1..300),
        levels in 1usize..8,
    ) {
        let mut ctl = RateBasedModel::new(ControllerConfig {
            alpha: 0.2,
            num_levels: levels,
            max_backoff_exp: 16,
        });
        for r in rates {
            let d = ctl.decide(r, &EpochContext::default());
            prop_assert!(d.level < levels, "level {} out of range {}", d.level, levels);
        }
    }

    #[test]
    fn controller_is_deterministic(
        rates in proptest::collection::vec(0.0f64..1e9, 1..100),
    ) {
        let mut a = RateBasedModel::paper_default();
        let mut b = RateBasedModel::paper_default();
        let ctx = EpochContext::default();
        for &r in &rates {
            prop_assert_eq!(a.decide(r, &ctx), b.decide(r, &ctx));
        }
    }

    #[test]
    fn baseline_models_stay_in_range(
        rates in proptest::collection::vec(0.0f64..1e9, 1..100),
        depths in proptest::collection::vec(0usize..16, 1..100),
    ) {
        let mut q = QueueBasedModel::new(4);
        let mut s = ThresholdSamplingModel::new(4, 7);
        for (r, d) in rates.iter().zip(depths.iter().cycle()) {
            let ctx = EpochContext { queue_depth: *d, queue_capacity: 16, ..EpochContext::default() };
            prop_assert!(q.decide(*r, &ctx).level < 4);
            prop_assert!(s.decide(*r, &ctx).level < 4);
        }
    }

    #[test]
    fn cyclic_source_conserves_content(
        file in proptest::collection::vec(any::<u8>(), 1..500),
        reads in proptest::collection::vec(1usize..100, 1..20),
    ) {
        let mut src = CyclicSource::new(file.clone());
        let mut produced = Vec::new();
        for n in reads {
            let mut buf = vec![0u8; n];
            src.fill(&mut buf);
            produced.extend(buf);
        }
        // The produced stream must equal the file repeated.
        let expect: Vec<u8> =
            file.iter().cycle().take(produced.len()).cloned().collect();
        prop_assert_eq!(produced, expect);
    }

    #[test]
    fn switching_source_produces_exact_periods(
        period in 1u64..64,
        reads in proptest::collection::vec(1usize..40, 1..12),
    ) {
        let a = CyclicSource::new(vec![0xAA]);
        let b = CyclicSource::new(vec![0xBB]);
        let mut s = SwitchingSource::new(vec![Box::new(a), Box::new(b)], period);
        let mut produced = Vec::new();
        for n in reads {
            let mut buf = vec![0u8; n];
            s.fill(&mut buf);
            produced.extend(buf);
        }
        for (i, &byte) in produced.iter().enumerate() {
            let phase = (i as u64 / period) % 2;
            let expect = if phase == 0 { 0xAA } else { 0xBB };
            prop_assert_eq!(byte, expect, "byte {} of period {}", i, period);
        }
    }
}
