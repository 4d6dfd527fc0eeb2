//! Codec calibration: measures real speed and compression ratio of each
//! codec on sample data.
//!
//! The cloud simulator reads per-level `(compress MB/s, decompress MB/s,
//! ratio)` profiles from committed tables, never from a measurement made
//! while it runs. One of them, `adcomp_vcloud::speed::HOST_LADDER`, is this
//! module's output: the `calibrate_codecs` bench binary measures our actual
//! codecs on the actual generated corpus in interleaved rounds, prints each
//! cell's median, IQR and drift from the committed table, and prints the
//! table's rows for re-pinning it. The simulator scales those speeds to the
//! paper's hardware era with a single factor (the *shape* of the trade-off
//! — ordering and relative gaps — comes from real measurements).

use crate::frame::{encode_block_with, DEFAULT_BLOCK_LEN};
use crate::{codec_for, CodecId, Scratch};
use std::time::Instant;

/// Measured characteristics of one codec on one kind of data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecProfile {
    pub codec: CodecId,
    /// Compression throughput in MB of *input* per second.
    pub compress_mbps: f64,
    /// Decompression throughput in MB of *output* per second.
    pub decompress_mbps: f64,
    /// Wire bytes (frames incl. headers) / application bytes.
    pub ratio: f64,
}

/// Measures one codec over `sample`, split into standard 128 KiB blocks.
///
/// `min_duration_secs` bounds the measurement time: the sample is processed
/// repeatedly until that much wall time has elapsed (at least once).
pub fn measure(codec_id: CodecId, sample: &[u8], min_duration_secs: f64) -> CodecProfile {
    assert!(!sample.is_empty(), "cannot calibrate on empty sample");
    let codec = codec_for(codec_id);
    let blocks: Vec<&[u8]> = sample.chunks(DEFAULT_BLOCK_LEN).collect();

    // Compression pass(es). Reuses one scratch across all blocks so the
    // measurement reflects the steady-state (allocation-free) hot path that
    // the adaptive writer actually runs.
    let mut scratch = Scratch::new();
    let mut wire = Vec::new();
    let mut app_bytes = 0u64;
    let mut wire_bytes = 0u64;
    let start = Instant::now();
    loop {
        wire.clear();
        for b in &blocks {
            let info = encode_block_with(&mut scratch, codec, b, &mut wire);
            app_bytes += info.uncompressed_len as u64;
            wire_bytes += info.frame_len as u64;
        }
        if start.elapsed().as_secs_f64() >= min_duration_secs {
            break;
        }
    }
    let comp_secs = start.elapsed().as_secs_f64();
    let compress_mbps = app_bytes as f64 / 1e6 / comp_secs.max(1e-9);
    let ratio = wire_bytes as f64 / app_bytes as f64;

    // Decompression pass(es) over the last wire image.
    let mut out = Vec::new();
    let mut dec_bytes = 0u64;
    let start = Instant::now();
    loop {
        let mut cursor = &wire[..];
        while !cursor.is_empty() {
            out.clear();
            let (_, consumed) = crate::frame::decode_block(cursor, &mut out)
                .expect("calibration wire image must decode");
            dec_bytes += out.len() as u64;
            cursor = &cursor[consumed..];
        }
        if start.elapsed().as_secs_f64() >= min_duration_secs {
            break;
        }
    }
    let dec_secs = start.elapsed().as_secs_f64();
    let decompress_mbps = dec_bytes as f64 / 1e6 / dec_secs.max(1e-9);

    CodecProfile { codec: codec_id, compress_mbps, decompress_mbps, ratio }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        b"calibration sample text with repetition repetition repetition. ".repeat(512)
    }

    #[test]
    fn measure_produces_sane_numbers() {
        let p = measure(CodecId::QlzLight, &sample(), 0.0);
        assert!(p.compress_mbps > 0.0);
        assert!(p.decompress_mbps > 0.0);
        assert!(p.ratio > 0.0 && p.ratio < 1.0, "ratio {}", p.ratio);
    }

    #[test]
    fn ratio_ordering_matches_levels_on_text() {
        let s = sample();
        let profiles: Vec<_> = CodecId::ALL.iter().map(|&id| measure(id, &s, 0.0)).collect();
        // NO ratio ≈ 1, LIGHT < NO, HEAVY best.
        assert!(profiles[0].ratio >= 1.0);
        assert!(profiles[1].ratio < 1.0);
        assert!(profiles[3].ratio <= profiles[1].ratio + 0.02);
    }

    #[test]
    fn raw_profile_has_header_overhead_only() {
        let s = sample();
        let p = measure(CodecId::Raw, &s, 0.0);
        let header_only = 1.0 + crate::frame::HEADER_LEN as f64 / s.len() as f64;
        assert!((p.ratio - header_only).abs() < 1e-12, "ratio {}", p.ratio);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_panics() {
        measure(CodecId::Raw, &[], 0.0);
    }
}
