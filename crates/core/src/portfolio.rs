//! Per-block content-aware codec nomination — Algorithm 1 over a
//! *portfolio* instead of a fixed ladder.
//!
//! The paper's controller walks one RAW→LIGHT→MEDIUM→HEAVY ladder. The
//! SZ-vs-ZFP online-selection work (PAPERS.md) shows the same rate-based
//! decision rule generalizes to choosing *between codec families* if a
//! cheap probe classifies each block first. This module supplies that
//! probe and the nomination table:
//!
//! 1. [`probe`] samples the block (full scan up to 4 KiB, 16 strided
//!    windows beyond) and extracts three features — order-0 entropy,
//!    run-length density, distinct-byte count.
//! 2. [`nominate`] maps the features to a four-slot candidate ladder
//!    (slot 0 is always `Raw`, matching the paper's "level 0 stands for
//!    no compression"). The existing `RateBasedModel`/`EpochDriver`
//!    still picks the *level*; the portfolio only decides which codec
//!    family backs each level for this block.
//! 3. [`select`] composes the two: `nominate(probe(block))[level]`.
//!
//! Everything here is a pure function of the block bytes — no clocks, no
//! RNG, no state. That purity is what keeps pipelined mixed-codec streams
//! byte-identical for any worker count: the codec id is fixed at
//! submission time, exactly like the level, and re-probing the same bytes
//! can never disagree. A proptest pins this.

use adcomp_codecs::CodecId;
use adcomp_corpus::entropy::entropy_bits;

/// Number of ladder slots a nomination fills — same as the paper's level
/// count, so the rate controller's level index maps directly.
pub const NUM_LEVELS: usize = 4;

/// Cheap per-block content features.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// Order-0 Shannon entropy of the sampled bytes, bits per byte
    /// (0..=8).
    pub entropy_bits: f64,
    /// Fraction of sampled adjacent byte pairs that are equal — the
    /// run-length density. 1.0 for a constant block, ~0 for noise.
    pub run_fraction: f64,
    /// Distinct byte values among the samples (0..=256).
    pub distinct: u16,
}

/// Bytes fully scanned before switching to strided sampling.
const FULL_SCAN_MAX: usize = 4096;
/// Strided sampling: this many windows of [`WINDOW_LEN`] bytes.
const SAMPLE_WINDOWS: usize = 16;
const WINDOW_LEN: usize = 256;

/// Probes `data` for the three nomination features.
///
/// Deterministic and pure: the same bytes always yield the same probe.
/// Blocks up to 4 KiB are scanned fully; larger blocks are sampled at 16
/// evenly spaced 256-byte windows (4 KiB total), so the probe costs
/// O(4 KiB) regardless of block size.
pub fn probe(data: &[u8]) -> Probe {
    let mut hist = [0u32; 256];
    let mut pairs = 0u32;
    let mut equal_pairs = 0u32;
    let mut scan = |window: &[u8]| {
        for i in 0..window.len() {
            hist[window[i] as usize] += 1;
            if i + 1 < window.len() {
                pairs += 1;
                if window[i] == window[i + 1] {
                    equal_pairs += 1;
                }
            }
        }
    };

    if data.len() <= FULL_SCAN_MAX {
        scan(data);
    } else {
        // Evenly spaced windows, first at 0, last ending at data.len().
        let span = data.len() - WINDOW_LEN;
        for w in 0..SAMPLE_WINDOWS {
            let start = span * w / (SAMPLE_WINDOWS - 1);
            scan(&data[start..start + WINDOW_LEN]);
        }
    }

    let entropy_bits = entropy_bits(&hist);
    let distinct = hist.iter().filter(|&&c| c > 0).count() as u16;
    let run_fraction = if pairs == 0 { 0.0 } else { equal_pairs as f64 / pairs as f64 };
    Probe { entropy_bits, run_fraction, distinct }
}

/// A four-slot candidate ladder: level index → codec family for this
/// block. Slot 0 is always [`CodecId::Raw`].
pub type Ladder = [CodecId; NUM_LEVELS];

/// The paper's original ladder — what [`nominate`] falls back to when no
/// probe signal argues for a portfolio member.
pub const PAPER_LADDER: Ladder =
    [CodecId::Raw, CodecId::QlzLight, CodecId::QlzMedium, CodecId::Heavy];

/// Maps probe features to a candidate ladder.
///
/// The table orders each ladder by time/compression ratio (the paper's
/// invariant), substituting portfolio members where the features say they
/// dominate:
///
/// - constant / near-constant blocks → COLUMNAR at every compressed slot
///   (one-entry dictionary beats any LZ on both axes);
/// - run- or dictionary-shaped blocks (high run density, low entropy, or
///   a tiny alphabet) → COLUMNAR low, HEAVY kept as the ratio ceiling;
/// - near-incompressible blocks (entropy ≥ 7.4) → mostly RAW, LIGHT as
///   the only probe-worthy attempt — anything heavier wastes CPU on
///   ~1.0x ratio;
/// - text-like blocks (entropy ≤ 5.5, no strong run signal) → HUFF at
///   the medium slot, where its bitstream ratio beats LIGHT at a fraction
///   of HEAVY's cost;
/// - everything else → the paper ladder unchanged.
pub fn nominate(p: &Probe) -> Ladder {
    use CodecId::*;
    if p.distinct <= 1 {
        return [Raw, Columnar, Columnar, Columnar];
    }
    if p.run_fraction >= 0.4 || p.entropy_bits <= 1.5 {
        return [Raw, Columnar, Columnar, Heavy];
    }
    if p.distinct <= 16 {
        return [Raw, Columnar, QlzMedium, Heavy];
    }
    if p.entropy_bits >= 7.4 {
        return [Raw, Raw, QlzLight, QlzLight];
    }
    if p.entropy_bits <= 5.5 {
        return [Raw, QlzLight, Huffman, Heavy];
    }
    PAPER_LADDER
}

/// Selects the codec for one block at one controller level:
/// `nominate(probe(data))[level]`. Levels beyond the ladder clamp to the
/// top slot (a capped model can never index out of range).
pub fn select(data: &[u8], level: usize) -> CodecId {
    nominate(&probe(data))[level.min(NUM_LEVELS - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_known_answers_all_zero() {
        let p = probe(&[0u8; 8192]);
        assert_eq!(p.distinct, 1);
        assert_eq!(p.entropy_bits, 0.0);
        assert_eq!(p.run_fraction, 1.0);
        assert_eq!(
            nominate(&p),
            [CodecId::Raw, CodecId::Columnar, CodecId::Columnar, CodecId::Columnar]
        );
    }

    #[test]
    fn probe_known_answers_uniform_random() {
        // Deterministic xorshift noise: ~8 bits/byte, no runs.
        let mut x = 0x9E37_79B9u32;
        let data: Vec<u8> = (0..16384)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                (x >> 24) as u8
            })
            .collect();
        let p = probe(&data);
        assert!(p.entropy_bits > 7.4, "noise entropy {}", p.entropy_bits);
        assert!(p.run_fraction < 0.05, "noise runs {}", p.run_fraction);
        assert!(p.distinct > 200);
        let ladder = nominate(&p);
        assert_eq!(ladder[0], CodecId::Raw);
        assert_eq!(ladder[1], CodecId::Raw, "noise should not waste a compressed probe");
    }

    #[test]
    fn probe_known_answers_text_like() {
        let data: Vec<u8> = b"the quick brown fox jumps over the lazy dog. "
            .iter()
            .copied()
            .cycle()
            .take(8192)
            .collect();
        let p = probe(&data);
        assert!(p.entropy_bits > 3.0 && p.entropy_bits < 5.5, "text entropy {}", p.entropy_bits);
        assert!(p.distinct < 40);
        let ladder = nominate(&p);
        assert_eq!(ladder, [CodecId::Raw, CodecId::QlzLight, CodecId::Huffman, CodecId::Heavy]);
    }

    #[test]
    fn probe_known_answers_already_compressed() {
        // Simulate compressed bytes with a multiplicative hash — near-flat
        // histogram, entropy ≈ 8.
        let data: Vec<u8> = (0u32..8192)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        let p = probe(&data);
        assert!(p.entropy_bits >= 7.4, "compressed-like entropy {}", p.entropy_bits);
        assert_eq!(nominate(&p)[1], CodecId::Raw);
    }

    #[test]
    fn run_heavy_blocks_nominate_columnar() {
        let data: Vec<u8> = (0..64).flat_map(|i| vec![(i % 7) as u8; 300]).collect();
        let p = probe(&data);
        assert!(p.run_fraction >= 0.4);
        let ladder = nominate(&p);
        assert_eq!(ladder[1], CodecId::Columnar);
        assert_eq!(ladder[3], CodecId::Heavy);
    }

    #[test]
    fn every_ladder_starts_raw_and_clamps() {
        for p in [
            Probe { entropy_bits: 0.0, run_fraction: 1.0, distinct: 1 },
            Probe { entropy_bits: 1.0, run_fraction: 0.5, distinct: 5 },
            Probe { entropy_bits: 4.0, run_fraction: 0.0, distinct: 12 },
            Probe { entropy_bits: 5.0, run_fraction: 0.1, distinct: 100 },
            Probe { entropy_bits: 6.5, run_fraction: 0.0, distinct: 256 },
            Probe { entropy_bits: 7.9, run_fraction: 0.0, distinct: 256 },
        ] {
            assert_eq!(nominate(&p)[0], CodecId::Raw, "{p:?}");
        }
        let data = b"clamp".repeat(100);
        assert_eq!(select(&data, 99), nominate(&probe(&data))[3]);
    }

    #[test]
    fn large_block_sampling_is_stable() {
        // > FULL_SCAN_MAX triggers the strided path; the probe must stay
        // deterministic and land in the same nomination bucket as the
        // full scan for homogeneous data.
        let data: Vec<u8> = b"homogeneous text content repeated many times over. "
            .iter()
            .copied()
            .cycle()
            .take(1 << 20)
            .collect();
        let a = probe(&data);
        let b = probe(&data);
        assert_eq!(a, b);
        assert_eq!(nominate(&a), nominate(&probe(&data[..4096])));
    }
}
