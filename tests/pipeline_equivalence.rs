//! Worker-count-equivalence harness for the compression engine.
//!
//! The contract under test: for every codec level, every block size and
//! every worker count — including streams damaged by the seeded fault
//! injectors — a writer with worker threads produces output
//! **byte-identical** to one without, and a reader with worker threads
//! delivers the same bytes, ends in the same error and reports the same
//! incident and byte/block counters as one without (each side has a single
//! block path; only the thread count behind it varies).

use adcomp::codecs::frame::RecoveryStats;
use adcomp::codecs::LevelSet;
use adcomp::core::model::{DecisionModel, RateBasedModel, StaticModel};
use adcomp::core::stream::{AdaptiveReader, AdaptiveWriter};
use adcomp::core::ManualClock;
use adcomp::corpus::{self, Class};
use adcomp_faults::{CorruptingWriter, FaultPlan, FaultSpec};
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

/// Decompresses `wire` with the given worker count.
fn decompress(wire: &[u8], workers: usize) -> Decompressed {
    let mut r = AdaptiveReader::new(wire);
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
        let out = decompress(&piped, workers);
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

    /// Seeded frame damage: the pipelined reader delivers the same bytes,
    /// ends in the same error and reports the same counters as the serial
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
        let plan = FaultPlan::new(FaultSpec::from_rate(seed, rate));
        let mut cw = CorruptingWriter::new(Vec::new(), plan);
        for frame in split_frames(&clean) {
            cw.write_all(frame).unwrap();
        }
        cw.flush().unwrap();
        let wire = cw.into_inner();

        prop_assert_eq!(decompress(&wire, 1), decompress(&wire, workers));
    }
}

/// CorruptingWriter needs whole frames per write call to act on frame
/// granularity; AdaptiveWriter's FrameWriter emits exactly one frame per
/// write_all, so wrapping the sink exercises per-frame damage.
#[test]
fn per_frame_damage_through_pipelined_writer_roundtrips() {
    let data = corpus::generate(Class::Moderate, 60_000, 0xFEED);
    let plan =
        FaultPlan::new(FaultSpec { drop_rate: 0.0, cut_rate: 0.0, ..FaultSpec::from_rate(21, 0.15) });
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

    let out = decompress(&wire, 4);
    assert_eq!(out.error.as_ref().map(|e| e.0), Some(std::io::ErrorKind::InvalidData));
    assert_eq!(out.recovery, RecoveryStats { corrupt_frames: 1, truncations: 0 });
    assert!(out.bytes.len() < data.len(), "the first flipped frame must end the stream");
    assert_eq!(out.bytes, data[..out.bytes.len()], "blocks before the damage come back intact");
    // The reader without threads agrees on the damaged stream.
    assert_eq!(decompress(&wire, 1), out);
}

/// Damage with frames flowing through the parallel reorder buffer: drop +
/// flip + cut faults on a long stream. At 1, 2, 4 and 8 workers the reader
/// hands back the same output prefix — blocks of the source, in order — and
/// stops at the same typed error with the same counters.
#[test]
fn damage_gives_same_prefix_and_error_at_every_worker_count() {
    let data = corpus::generate(Class::Moderate, 200_000, 0xA11CE);
    let clean = compress(&data, Box::new(StaticModel::new(1, 4)), 2048, 1);
    let plan = FaultPlan::new(FaultSpec::from_rate(77, 0.12));
    let mut cw = CorruptingWriter::new(Vec::new(), plan);
    for frame in split_frames(&clean) {
        cw.write_all(frame).unwrap();
    }
    let wire = cw.into_inner();

    let serial = decompress(&wire, 1);
    assert!(serial.error.is_some(), "fault plan should have damaged a frame: {serial:?}");
    assert_eq!(serial.recovery.corrupt_frames + serial.recovery.truncations, 1);
    // Every block delivered is a source block, in order (a frame dropped on
    // the wire leaves a hole no reader can see yet).
    let mut next = 0;
    for block in serial.bytes.chunks(2048) {
        let k = (next..data.len().div_ceil(2048))
            .find(|&k| data[k * 2048..].starts_with(block))
            .expect("a delivered block is not a source block, or out of order");
        next = k + 1;
    }
    for workers in [2usize, 4, 8] {
        assert_eq!(decompress(&wire, workers), serial, "workers {workers}");
    }
}

/// Frame headers are not CRC-covered: one flipped bit in `uncompressed_len`
/// leaves a CRC-valid frame that cannot decode. One rule for every worker
/// count — every block before it is delivered, the frame is counted and the
/// stream ends in a typed error, and the byte/block counters count only the
/// frames whose blocks were delivered.
#[test]
fn crc_valid_undecodable_frame_is_handled_alike_for_any_worker_count() {
    const BLOCK: usize = 2048;
    let data = corpus::generate(Class::Moderate, 64 * BLOCK, 0x4EAD);
    let mut wire = compress(&data, Box::new(StaticModel::new(1, 4)), BLOCK, 1);
    let frames: Vec<usize> = split_frames(&wire).iter().map(|f| f.len()).collect();
    assert_eq!(frames.len(), 64);
    let victim: usize = frames[..10].iter().sum();
    wire[victim + 4] ^= 1;

    let strict = decompress(&wire, 1);
    assert_eq!(strict.bytes, &data[..10 * BLOCK], "every block before the fault is delivered");
    assert_eq!(strict.error.as_ref().map(|e| e.0), Some(std::io::ErrorKind::InvalidData));
    assert_eq!(strict.recovery, RecoveryStats { corrupt_frames: 1, ..RecoveryStats::default() });
    assert_eq!((strict.wire_bytes, strict.blocks), (victim as u64, 10));

    for workers in [2usize, 4, 7] {
        assert_eq!(decompress(&wire, workers), strict, "{workers}");
    }
}
