//! Every truncation offset of a record channel, read back through
//! `RecordReader`: the record-layer twin of the seek layer's
//! every-truncation-offset test.
//!
//! About thirty records of 40..340 bytes go through `RecordWriter` into
//! 1 KiB LIGHT blocks in a buffer. The wire is cut at every byte offset and
//! each cut is read as shipped. A read must hand back the records that lie
//! wholly inside the frames before the cut, byte for byte, and then end in
//! `Ok(None)` or a typed error (`InvalidData` / `UnexpectedEof`): never an
//! altered record, never a panic. Where it may end cleanly is pinned:
//!
//! * a cut inside a frame is an error;
//! * a cut at a frame boundary inside a record is an error;
//! * a cut at a boundary that is both a frame's and a record's reads back
//!   as a shorter clean prefix, because nothing in a plain stream says
//!   where it ends. These are the cuts ROADMAP item 2 (the index trailer
//!   as the stream's terminator) turns into typed errors;
//!   `CLEAN_PREFIX_CUTS` counts them.

use adcomp_codecs::frame::HEADER_LEN;
use adcomp_codecs::LevelSet;
use adcomp_core::model::StaticModel;
use adcomp_core::stream::AdaptiveWriter;
use adcomp_core::ManualClock;
use adcomp_corpus::{generate, Class};
use adcomp_nephele::channel::{RecordReader, RecordWriter};
use adcomp_nephele::NepheleError;
use std::io;

const BLOCK: usize = 1024;
/// Cuts short of the whole wire that read back as a clean prefix: only the
/// empty stream, since no record of this sequence ends on a block edge.
const CLEAN_PREFIX_CUTS: usize = 1;

/// Text, raster-like and noise records of 40..340 bytes, so LIGHT both
/// compresses and falls back to raw.
fn records() -> Vec<Vec<u8>> {
    let classes = [Class::Moderate, Class::High, Class::Low];
    (0..30).map(|i| generate(classes[i % 3], 40 + (i * 97) % 300, i as u64)).collect()
}

/// The channel's wire: `records` through a `RecordWriter` over a LIGHT
/// stream of `BLOCK`-byte blocks.
fn channel_wire(records: &[Vec<u8>]) -> Vec<u8> {
    let levels = LevelSet::paper_default();
    let light = Box::new(StaticModel::new(1, levels.len()));
    let clock = Box::new(ManualClock::new());
    let stream = AdaptiveWriter::with_params(Vec::new(), levels, light, BLOCK, 2.0, clock);
    let mut w = RecordWriter::new(stream);
    for r in records {
        w.write_record(r).unwrap();
    }
    w.finish().unwrap().0
}

/// The wire offset at which each frame ends.
fn frame_ends(wire: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut at = 0;
    while at < wire.len() {
        let payload = u32::from_le_bytes(wire[at + 8..at + 12].try_into().unwrap());
        at += HEADER_LEN + payload as usize;
        ends.push(at);
    }
    ends
}

/// The records read, and how the read ended.
fn read(wire: &[u8]) -> (Vec<Vec<u8>>, Result<(), NepheleError>) {
    let mut reader = RecordReader::new(wire);
    let mut out = Vec::new();
    loop {
        match reader.next_record() {
            Ok(Some(r)) => out.push(r),
            Ok(None) => return (out, Ok(())),
            Err(e) => return (out, Err(e)),
        }
    }
}

#[test]
fn every_truncation_offset_reads_a_record_prefix_or_fails_typed() {
    let records = records();
    let wire = channel_wire(&records);
    let ends = frame_ends(&wire);
    assert!(ends.len() >= 3, "{} frames", ends.len());
    assert_eq!(ends.last(), Some(&wire.len()));
    let (all, end) = read(&wire);
    assert!(end.is_ok() && all == records, "the whole wire reads back as written");

    // Application offset at which each record ends.
    let record_ends: Vec<usize> = records
        .iter()
        .scan(0, |at, r| {
            *at += 4 + r.len();
            Some(*at)
        })
        .collect();

    let mut violations = Vec::new();
    let mut clean_cuts = 0;
    for cut in 0..wire.len() {
        // Every frame wholly before the cut is a full block.
        let whole_frames = ends.iter().take_while(|&&e| e <= cut).count();
        let app = whole_frames * BLOCK;
        let at_frame_boundary = cut == 0 || ends.contains(&cut);
        let clean = at_frame_boundary && (app == 0 || record_ends.contains(&app));
        let expected = record_ends.iter().take_while(|&&e| e <= app).count();

        let (out, end) = read(&wire[..cut]);
        let why = if records.get(..out.len()) != Some(&out[..]) {
            format!("an altered record among the first {}", out.len())
        } else if out.len() != expected {
            format!("{} records out of {expected} before the cut", out.len())
        } else {
            match end {
                Ok(()) if clean => {
                    clean_cuts += 1;
                    continue;
                }
                Ok(()) => "a clean end inside a frame or a record".to_string(),
                Err(NepheleError::Io(e))
                    if !clean
                        && matches!(
                            e.kind(),
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ) =>
                {
                    continue
                }
                Err(e) => format!("error {e}"),
            }
        };
        violations.push(format!("cut {cut}: {why}"));
    }
    let n = violations.len();
    assert!(violations.is_empty(), "{n} of {} cuts:\n{}", wire.len(), violations.join("\n"));
    assert_eq!(clean_cuts, CLEAN_PREFIX_CUTS, "clean-prefix cuts");
}
