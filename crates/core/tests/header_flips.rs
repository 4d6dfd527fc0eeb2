//! Every single-bit flip of every frame header, through every block reader.
//!
//! A frame's CRC covers its payload only, so a header bit can change the
//! codec id, the flags or a length field without the checksum noticing.
//! For small streams of each registry codec, a portfolio stream and a
//! seekable stream (whose index trailer is a frame too), each of the 128
//! header bits of each frame is flipped on its own and the stream is read
//! through `AdaptiveReader` at 1 and 2 workers and through
//! `FrameReader::read_block`, failing fast and skipping; the seekable
//! stream is also read in ranges through `IndexedReader::read_range`. The
//! readers' bomb guard is lowered to 1 MiB (the blocks here are ≤ 4 KiB),
//! so a flip to a huge length is refused before its buffer is zero-filled.
//! Each read must end in one of three ways:
//!
//! * the source (or the range of it asked for), byte for byte (a bit no
//!   reader acts on);
//! * a typed error (`InvalidData` / `UnexpectedEof`);
//! * a counted recovery: the source minus the damaged frame's block (or
//!   the range of that), with at least one incident counted — in the
//!   recovery counters, or for a ranged read in `fallback_scans`, the
//!   requests on which the index and a block disagreed.
//!
//! Anything else — different bytes, or a lost block with clean counters —
//! is silent data loss and fails the test, except the one case listed in
//! [`SILENT_LENGTH_FLIPS`] (see DESIGN.md §"Fault model").

use adcomp_codecs::frame::{
    FrameReader, FrameWriter, RecoveryPolicy, RecoveryStats, FLAG_INDEX, HEADER_LEN,
};
use adcomp_codecs::{codec_for, CodecId, LevelSet};
use adcomp_core::epoch::ManualClock;
use adcomp_core::model::StaticModel;
use adcomp_core::seek::IndexedReader;
use adcomp_core::stream::{AdaptiveReader, AdaptiveWriter};
use adcomp_corpus::{generate, Class};
use std::io::{self, Cursor, Read, Write};
use std::ops::Range;

/// `(stream, frame, header bits)` that lose data silently, for want of a
/// wire change: the portfolio stream's frame 3 is a block of zeros, which
/// COLUMNAR stores as a one-symbol dictionary. That payload holds no
/// length of its own, so every `uncompressed_len` the bomb guard lets
/// through (bits 32..52) decodes to that many zeros with clean counters.
const SILENT_LENGTH_FLIPS: &[(&str, usize, Range<usize>)] = &[("portfolio", 3, 32..52)];

const BLOCK: usize = 4096;
const MAX_FRAME: u32 = 1 << 20;

struct Stream {
    name: String,
    wire: Vec<u8>,
    /// The application bytes of each data frame, in wire order.
    blocks: Vec<Vec<u8>>,
}

/// Source data: one block each of text, fax-like raster and noise, so every
/// codec both compresses and falls back to raw somewhere.
fn source() -> Vec<Vec<u8>> {
    vec![
        generate(Class::Moderate, 3000, 1),
        generate(Class::High, 4096, 2),
        generate(Class::Low, 1500, 3),
    ]
}

fn codec_stream(codec: CodecId) -> Stream {
    let blocks = source();
    let mut w = FrameWriter::new(Vec::new());
    for b in &blocks {
        w.write_block(codec_for(codec), b).unwrap();
    }
    Stream { name: format!("{codec:?}"), wire: w.into_inner(), blocks }
}

/// A stream written by `AdaptiveWriter` at MEDIUM in `BLOCK`-sized blocks.
fn adaptive_stream(name: &str, portfolio: bool, seekable: bool) -> Stream {
    let data: Vec<u8> = source().concat().into_iter().chain(vec![0u8; 5000]).collect();
    let mut w = AdaptiveWriter::with_params(
        Vec::new(),
        LevelSet::paper_default(),
        Box::new(StaticModel::new(2, 4)),
        BLOCK,
        2.0,
        Box::new(ManualClock::new()),
    );
    w.set_portfolio(portfolio);
    w.set_seekable(seekable);
    w.write_all(&data).unwrap();
    let (wire, _) = w.finish().unwrap();
    let blocks = data.chunks(BLOCK).map(<[u8]>::to_vec).collect();
    Stream { name: name.to_string(), wire, blocks }
}

/// `(offset, index)` of each frame: `index` is the data block it carries,
/// `None` for an index trailer.
fn frames(wire: &[u8]) -> Vec<(usize, Option<usize>)> {
    let (mut at, mut block, mut out) = (0, 0, Vec::new());
    while at < wire.len() {
        let payload_len = u32::from_le_bytes(wire[at + 8..at + 12].try_into().unwrap()) as usize;
        if wire[at + 3] & FLAG_INDEX != 0 {
            out.push((at, None));
        } else {
            out.push((at, Some(block)));
            block += 1;
        }
        at += HEADER_LEN + payload_len;
    }
    out
}

/// A read's result, the incidents its reader counted and how it counted
/// them (for the report).
type Outcome = (io::Result<Vec<u8>>, u64, String);

fn with_recovery(res: io::Result<Vec<u8>>, rec: RecoveryStats) -> Outcome {
    (res, rec.corrupt_frames + rec.truncations, format!("recovery {rec:?}"))
}

fn read_adaptive(wire: &[u8], policy: RecoveryPolicy, workers: usize) -> Outcome {
    let mut r = AdaptiveReader::with_policy(wire, policy);
    r.set_pipeline_workers(workers);
    let mut out = Vec::new();
    let res = r.read_to_end(&mut out).map(|_| out);
    with_recovery(res, r.recovery())
}

fn read_frames(wire: &[u8], policy: RecoveryPolicy) -> Outcome {
    let mut r = FrameReader::with_policy(wire, policy);
    let mut out = Vec::new();
    let res = loop {
        match r.read_block(&mut out) {
            Ok(Some(_)) => {}
            Ok(None) => break Ok(out),
            Err(e) => break Err(e),
        }
    };
    with_recovery(res, r.recovery)
}

/// `IndexedReader::read_range` on a reader opened for this read alone.
fn read_range(wire: &[u8], policy: RecoveryPolicy, range: &Range<usize>) -> Outcome {
    let mut r = match IndexedReader::with_policy(Cursor::new(wire), policy) {
        Ok(r) => r,
        Err(e) => return (Err(e), 0, "open failed".into()),
    };
    let mut out = Vec::new();
    let res = r.read_range(range.start as u64, range.len() as u64, &mut out).map(|_| out);
    (res, r.fallback_scans, format!("fallback_scans {}", r.fallback_scans))
}

/// `None` when the outcome is one of the three allowed ones, else why not.
/// `range` is the application bytes the read asked for (`0..usize::MAX`
/// for a whole-stream read).
fn judge(
    s: &Stream,
    lost: Option<usize>,
    range: &Range<usize>,
    (res, incidents, how): Outcome,
) -> Option<String> {
    let out = match res {
        Err(e) if matches!(e.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof) => {
            return None
        }
        Err(e) => return Some(format!("untyped error {:?}: {e}", e.kind())),
        Ok(out) => out,
    };
    let window = |bytes: &[u8]| {
        bytes[range.start.min(bytes.len())..range.end.min(bytes.len())].to_vec()
    };
    if out == window(&s.blocks.concat()) {
        return None;
    }
    let survivors: Vec<u8> = s
        .blocks
        .iter()
        .enumerate()
        .filter(|&(i, _)| Some(i) != lost)
        .flat_map(|(_, b)| b.iter().copied())
        .collect();
    if lost.is_some() && out == window(&survivors) && incidents >= 1 {
        return None;
    }
    Some(format!("{} bytes out, {how}", out.len()))
}

#[test]
fn every_header_bit_flip_is_caught_or_harmless() {
    let mut streams: Vec<Stream> = CodecId::REGISTRY.into_iter().map(codec_stream).collect();
    streams.push(adaptive_stream("portfolio", true, false));
    streams.push(adaptive_stream("seekable", false, true));

    let mut violations = Vec::new();
    let mut cases = 0;
    for s in &streams {
        for (frame, (at, lost)) in frames(&s.wire).into_iter().enumerate() {
            for bit in 0..HEADER_LEN * 8 {
                let mut wire = s.wire.clone();
                wire[at + bit / 8] ^= 1 << (bit % 8);
                let known = SILENT_LENGTH_FLIPS
                    .iter()
                    .any(|(name, f, bits)| *name == s.name && *f == frame && bits.contains(&bit));
                if known {
                    assert_eq!(wire[at + 2], CodecId::Columnar as u8, "{} frame {frame}", s.name);
                }
                for mode in [RecoveryPolicy::fail_fast(), RecoveryPolicy::skip_and_count()] {
                    let policy = RecoveryPolicy { max_frame: MAX_FRAME, ..mode };
                    let reads = [
                        ("adaptive/1", read_adaptive(&wire, policy, 1)),
                        ("adaptive/2", read_adaptive(&wire, policy, 2)),
                        ("read_block", read_frames(&wire, policy)),
                    ];
                    for (reader, read) in reads {
                        cases += 1;
                        match judge(s, lost, &(0..usize::MAX), read) {
                            Some(why) if !known => violations.push(format!(
                                "{} frame {frame} bit {bit} {reader} {:?}: {why}",
                                s.name, policy.mode
                            )),
                            None if known => violations.push(format!(
                                "{} frame {frame} bit {bit} {reader}: listed as silent but caught",
                                s.name
                            )),
                            _ => {}
                        }
                    }
                }
            }
        }
    }
    assert!(cases > 10_000, "{cases} cases");
    let n = violations.len();
    assert!(violations.is_empty(), "{n} of {cases} reads:\n{}", violations.join("\n"));
}

/// The seekable stream's frames, every header bit flipped, read in ranges
/// through `IndexedReader::read_range`, failing fast and skipping: the
/// whole stream, a range inside one block, one across three blocks and
/// one over the end. A range whose covering blocks pass the index's checks
/// is served from them; a damaged header disagrees with its index entry
/// (codec, lengths, CRC, the index flag) or fails to parse, and the
/// request falls back to decoding the stream from the front under the
/// reader's policy. A flip in the trailer's header makes the index
/// unusable (the trailer must parse as an index frame), so every request
/// streams.
#[test]
fn every_header_bit_flip_through_ranged_reads() {
    let s = adaptive_stream("seekable", false, true);
    let total = s.blocks.concat().len();
    let ranges = [0..total + 1, 5000..5100, 4000..12_300, total - 10..total + 90];
    let mut violations = Vec::new();
    let mut cases = 0;
    for (frame, (at, lost)) in frames(&s.wire).into_iter().enumerate() {
        for bit in 0..HEADER_LEN * 8 {
            let mut wire = s.wire.clone();
            wire[at + bit / 8] ^= 1 << (bit % 8);
            for mode in [RecoveryPolicy::fail_fast(), RecoveryPolicy::skip_and_count()] {
                let policy = RecoveryPolicy { max_frame: MAX_FRAME, ..mode };
                for range in &ranges {
                    cases += 1;
                    if let Some(why) = judge(&s, lost, range, read_range(&wire, policy, range)) {
                        violations.push(format!(
                            "frame {frame} bit {bit} range {range:?} {:?}: {why}",
                            policy.mode
                        ));
                    }
                }
            }
        }
    }
    assert!(cases > 4_000, "{cases} cases");
    let n = violations.len();
    assert!(violations.is_empty(), "{n} of {cases} reads:\n{}", violations.join("\n"));
}
