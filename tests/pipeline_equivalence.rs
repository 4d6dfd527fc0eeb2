//! Worker-count-equivalence harness for the compression engine.
//!
//! The contract under test: for every codec level, every block size, every
//! worker count and every recovery policy — including streams damaged by
//! the seeded fault injectors — a writer with worker threads produces
//! output **byte-identical** to one without, and a reader with worker
//! threads delivers the same bytes and reports the same recovery statistics
//! and byte/block counters as one without (each side has a single block
//! path; only the thread count behind it varies).

use adcomp::codecs::frame::{RecoveryPolicy, RecoveryStats};
use adcomp::codecs::LevelSet;
use adcomp::core::model::{DecisionModel, RateBasedModel, StaticModel};
use adcomp::core::stream::{AdaptiveReader, AdaptiveWriter};
use adcomp::core::ManualClock;
use adcomp::corpus::{self, Class};
use adcomp_faults::{CorruptingWriter, FaultPlan, FaultSpec, FlakyReader};
use proptest::prelude::*;
use std::io::{Read, Write};

/// Compresses `data` with the given model/block size and worker count;
/// returns the wire bytes. Workers ≤ 1 is the serial reference.
fn compress(data: &[u8], model: Box<dyn DecisionModel>, block: usize, workers: usize) -> Vec<u8> {
    let clock = ManualClock::new();
    let mut w = AdaptiveWriter::with_params(
        Vec::new(),
        LevelSet::paper_default(),
        model,
        block,
        0.01,
        Box::new(clock.clone()),
    );
    if workers > 1 {
        w.set_pipeline_workers(workers);
    }
    // Advance virtual time as we feed chunks so adaptive models cross many
    // epoch boundaries deterministically.
    for (i, chunk) in data.chunks(block.max(1)).enumerate() {
        clock.set(i as f64 * 0.004);
        w.write_all(chunk).unwrap();
    }
    w.finish().unwrap().0
}

/// Splits a clean wire stream into its frames so fault injectors — which
/// treat one `write` call as one frame — can damage frame-granularly.
fn split_frames(wire: &[u8]) -> Vec<&[u8]> {
    use adcomp::codecs::frame::HEADER_LEN;
    let mut frames = Vec::new();
    let mut at = 0usize;
    while at + HEADER_LEN <= wire.len() {
        let plen = u32::from_le_bytes(wire[at + 8..at + 12].try_into().unwrap()) as usize;
        let total = HEADER_LEN + plen;
        frames.push(&wire[at..at + total]);
        at += total;
    }
    assert_eq!(at, wire.len(), "clean wire must split exactly into frames");
    frames
}

/// Everything a reader reports about one pass over a stream.
#[derive(Debug, PartialEq)]
struct Decompressed {
    /// Bytes delivered (before the error, if any).
    bytes: Vec<u8>,
    recovery: RecoveryStats,
    wire_bytes: u64,
    blocks: u64,
    app_bytes: u64,
    /// Kind and message of the error that ended the pass.
    error: Option<(std::io::ErrorKind, String)>,
}

/// Decompresses `wire` with the given policy and worker count.
fn decompress(wire: &[u8], policy: RecoveryPolicy, workers: usize) -> Decompressed {
    let mut r = AdaptiveReader::with_policy(wire, policy);
    r.set_pipeline_workers(workers);
    let mut bytes = Vec::new();
    let error = r.read_to_end(&mut bytes).err().map(|e| (e.kind(), e.to_string()));
    Decompressed {
        bytes,
        recovery: r.recovery(),
        wire_bytes: r.wire_bytes(),
        blocks: r.blocks(),
        app_bytes: r.app_bytes(),
        error,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pipelined wire output is byte-identical to serial for every static
    /// level, arbitrary block sizes and worker counts 1–8.
    #[test]
    fn static_levels_equivalent(
        level in 0usize..4,
        block in 512usize..8192,
        workers in 1usize..=8,
        seed in 0u64..1000,
        len in 10_000usize..120_000,
    ) {
        let data = corpus::generate(Class::Moderate, len, seed);
        let serial = compress(&data, Box::new(StaticModel::new(level, 4)), block, 1);
        let piped = compress(&data, Box::new(StaticModel::new(level, 4)), block, workers);
        prop_assert_eq!(&serial, &piped);
        // And both decode back, serially or pipelined.
        let out = decompress(&piped, RecoveryPolicy::fail_fast(), workers);
        prop_assert_eq!(out.error, None);
        prop_assert_eq!(out.bytes, data);
        prop_assert_eq!(out.recovery, RecoveryStats::default());
    }

    /// Same property under the adaptive model: the level *trajectory* is a
    /// function of (bytes, virtual time) only, so the pipelined stream —
    /// levels chosen at submission — matches the serial stream exactly.
    #[test]
    fn adaptive_model_equivalent(
        block in 1024usize..4096,
        workers in 2usize..=8,
        seed in 0u64..1000,
    ) {
        let data = corpus::generate(Class::High, 150_000, seed);
        let serial = compress(&data, Box::new(RateBasedModel::paper_default()), block, 1);
        let piped = compress(&data, Box::new(RateBasedModel::paper_default()), block, workers);
        prop_assert_eq!(serial, piped);
    }

    /// Seeded frame damage: the pipelined skip-and-count reader recovers
    /// the same byte stream and reports the same counters as the serial
    /// reader, for any worker count.
    #[test]
    fn damaged_streams_equivalent(
        workers in 2usize..=8,
        seed in 0u64..500,
        rate in 0.02f64..0.25,
    ) {
        let data = corpus::generate(Class::Moderate, 80_000, seed ^ 0xD0C);
        let clean = compress(&data, Box::new(StaticModel::new(2, 4)), 2048, 1);
        // Re-frame the clean wire through the corrupting writer so damage
        // lands on frame boundaries deterministically.
        let plan = FaultPlan::new(FaultSpec { transient_rate: 0.0, ..FaultSpec::from_rate(seed, rate) });
        let mut cw = CorruptingWriter::new(Vec::new(), plan);
        for frame in split_frames(&clean) {
            cw.write_all(frame).unwrap();
        }
        cw.flush().unwrap();
        let wire = cw.into_inner();

        for policy in [RecoveryPolicy::skip_and_count(), RecoveryPolicy::fail_fast()] {
            let serial = decompress(&wire, policy, 1);
            let piped = decompress(&wire, policy, workers);
            prop_assert_eq!(serial, piped);
        }
    }
}

/// CorruptingWriter needs whole frames per write call to act on frame
/// granularity; AdaptiveWriter's FrameWriter emits exactly one frame per
/// write_all, so wrapping the sink exercises per-frame damage.
#[test]
fn per_frame_damage_through_pipelined_writer_roundtrips() {
    let data = corpus::generate(Class::Moderate, 60_000, 0xFEED);
    let plan = FaultPlan::new(FaultSpec {
        transient_rate: 0.0,
        drop_rate: 0.0,
        cut_rate: 0.0,
        ..FaultSpec::from_rate(21, 0.15)
    });
    let mut w = AdaptiveWriter::with_params(
        CorruptingWriter::new(Vec::new(), plan),
        LevelSet::paper_default(),
        Box::new(StaticModel::new(1, 4)),
        2048,
        1.0,
        Box::new(ManualClock::new()),
    );
    w.set_pipeline_workers(4);
    w.write_all(&data).unwrap();
    let (cw, stats) = w.finish().unwrap();
    assert!(stats.blocks_per_level[1] > 10);
    let injected = cw.stats();
    assert!(injected.flips > 0, "expected bit flips, got {injected:?}");
    let wire = cw.into_inner();

    let out = decompress(&wire, RecoveryPolicy::skip_and_count(), 4);
    assert_eq!(out.error, None);
    assert!(out.recovery.corrupt_frames >= injected.flips, "every flipped frame must be counted");
    assert!(out.bytes.len() < data.len(), "flipped blocks must be dropped");
    // The reader without threads agrees on the damaged stream.
    assert_eq!(decompress(&wire, RecoveryPolicy::skip_and_count(), 1), out);
}

/// Bounded-retry exhaustion: a transient burst longer than `max_retries`
/// must surface as a typed I/O error through the *pipelined* reader, not
/// hang or silently drop data.
#[test]
fn retry_exhaustion_errors_through_pipelined_reader() {
    let data = corpus::generate(Class::Moderate, 40_000, 3);
    let wire = compress(&data, Box::new(StaticModel::new(1, 4)), 2048, 1);
    // Every read hits a burst of 1..=6 transients; allow only 1 retry so
    // exhaustion is guaranteed quickly.
    let spec = FaultSpec {
        flip_rate: 0.0,
        drop_rate: 0.0,
        cut_rate: 0.0,
        transient_rate: 1.0,
        max_transient_burst: 6,
        seed: 11,
    };
    let flaky = FlakyReader::new(&wire[..], FaultPlan::new(spec));
    let mut r = AdaptiveReader::with_policy(
        flaky,
        RecoveryPolicy::bounded_retry(1, 0),
    );
    r.set_pipeline_workers(4);
    let mut out = Vec::new();
    let err = r.read_to_end(&mut out).expect_err("burst > max_retries must fail");
    assert!(
        matches!(err.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
        "typed transient error expected, got {err:?}"
    );
}

/// The retry budget covers the worst burst: the pipelined reader recovers
/// the full stream and counts the retries it performed.
#[test]
fn retries_within_budget_recover_everything_pipelined() {
    let data = corpus::generate(Class::High, 60_000, 4);
    let wire = compress(&data, Box::new(StaticModel::new(2, 4)), 2048, 1);
    let spec = FaultSpec {
        flip_rate: 0.0,
        drop_rate: 0.0,
        cut_rate: 0.0,
        transient_rate: 0.5,
        max_transient_burst: 3,
        seed: 12,
    };
    let flaky = FlakyReader::new(&wire[..], FaultPlan::new(spec));
    // Bursts can chain (a fresh burst may start right after one ends), so
    // the budget is sized well above max_transient_burst.
    let mut r = AdaptiveReader::with_policy(flaky, RecoveryPolicy::bounded_retry(64, 0));
    r.set_pipeline_workers(4);
    let mut out = Vec::new();
    r.read_to_end(&mut out).unwrap();
    assert_eq!(out, data);
    assert!(r.recovery().retries > 0, "transients must have been retried");
    assert_eq!(r.recovery().corrupt_frames, 0);
}

/// Resync after damage with frames flowing through the parallel reorder
/// buffer: drop + flip faults on a long stream; pipelined and serial
/// readers agree on recovered bytes and on every recovery counter.
#[test]
fn resync_after_damage_matches_serial_across_worker_counts() {
    let data = corpus::generate(Class::Moderate, 200_000, 0xA11CE);
    let clean = compress(&data, Box::new(StaticModel::new(1, 4)), 2048, 1);
    let plan = FaultPlan::new(FaultSpec {
        transient_rate: 0.0,
        ..FaultSpec::from_rate(77, 0.12)
    });
    let mut cw = CorruptingWriter::new(Vec::new(), plan);
    for frame in split_frames(&clean) {
        cw.write_all(frame).unwrap();
    }
    let wire = cw.into_inner();

    let serial = decompress(&wire, RecoveryPolicy::skip_and_count(), 1);
    assert!(serial.recovery.corrupt_frames > 0, "fault plan should have damaged a frame");
    for workers in [2usize, 4, 8] {
        let piped = decompress(&wire, RecoveryPolicy::skip_and_count(), workers);
        assert_eq!(serial, piped, "workers {workers}");
    }
}

/// Frame headers are not CRC-covered: one flipped bit in `uncompressed_len`
/// leaves a CRC-valid frame that cannot decode. One rule for every worker
/// count — the whole frame is dropped and counted, nothing is re-scanned (the
/// CRC proves the bytes are one payload), and the byte/block counters count
/// only the frames whose blocks were delivered.
#[test]
fn crc_valid_undecodable_frame_is_handled_alike_for_any_worker_count() {
    const BLOCK: usize = 2048;
    let data = corpus::generate(Class::Moderate, 64 * BLOCK, 0x4EAD);
    let mut wire = compress(&data, Box::new(StaticModel::new(1, 4)), BLOCK, 1);
    let frames: Vec<usize> = split_frames(&wire).iter().map(|f| f.len()).collect();
    assert_eq!(frames.len(), 64);
    let victim: usize = frames[..10].iter().sum();
    wire[victim + 4] ^= 1;
    let survivors = [&data[..10 * BLOCK], &data[11 * BLOCK..]].concat();

    let skip = decompress(&wire, RecoveryPolicy::skip_and_count(), 1);
    assert_eq!(skip.error, None);
    assert_eq!(skip.bytes, survivors);
    let dropped = RecoveryStats {
        corrupt_frames: 1,
        skipped_bytes: frames[10] as u64,
        ..RecoveryStats::default()
    };
    assert_eq!(skip.recovery, dropped);
    assert_eq!(skip.wire_bytes, (wire.len() - frames[10]) as u64);
    assert_eq!((skip.blocks, skip.app_bytes), (63, survivors.len() as u64));

    let strict = decompress(&wire, RecoveryPolicy::fail_fast(), 1);
    assert_eq!(strict.bytes, &data[..10 * BLOCK], "every block before the fault is delivered");
    assert_eq!(strict.error.as_ref().map(|e| e.0), Some(std::io::ErrorKind::InvalidData));
    assert_eq!(strict.recovery, RecoveryStats { corrupt_frames: 1, ..RecoveryStats::default() });
    assert_eq!((strict.wire_bytes, strict.blocks), (victim as u64, 10));

    for workers in [2usize, 4, 7] {
        assert_eq!(decompress(&wire, RecoveryPolicy::skip_and_count(), workers), skip, "{workers}");
        assert_eq!(decompress(&wire, RecoveryPolicy::fail_fast(), workers), strict, "{workers}");
    }
}
