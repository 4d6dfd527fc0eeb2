//! Every single-bit flip of every frame header of a record-aligned channel
//! stream, read back through `RecordReader`.
//!
//! A frame's CRC covers its payload only, so a header bit can change the
//! codec id, the flags or a length field without the checksum noticing.
//! About thirty records go through a record-aligned `RecordWriter` in
//! 1 KiB blocks; each of the 128 header bits of each frame is flipped on
//! its own, and the stream is read through `RecordReader`, failing fast and
//! skipping. The bomb guard is lowered to 1 MiB (the blocks here are
//! ≤ 1 KiB), so a flip to a huge length is refused before its buffer is
//! zero-filled. Each read must end in one of three ways:
//!
//! * every record, byte for byte (a bit no reader acts on);
//! * a typed error (`InvalidData` / `UnexpectedEof`);
//! * the records minus exactly those that share bytes with the damaged
//!   block, with at least one incident counted.
//!
//! Anything else — a different record, or a lost record with clean
//! counters — is silent data loss and fails the test.

use adcomp_codecs::frame::{RecoveryPolicy, FLAG_RECORD_ALIGNED, HEADER_LEN};
use adcomp_codecs::LevelSet;
use adcomp_corpus::{generate, Class};
use adcomp_nephele::channel::{mem_pair, CompressionMode, RecordReader, RecordWriter};
use adcomp_nephele::NepheleError;
use std::io::{self, Cursor, Read};
use std::ops::Range;

const BLOCK: usize = 1024;
const MAX_FRAME: u32 = 1 << 20;

/// Text, raster-like and noise records of 40..340 bytes, so LIGHT both
/// compresses and falls back to raw.
fn records() -> Vec<Vec<u8>> {
    let classes = [Class::Moderate, Class::High, Class::Low];
    (0..30).map(|i| generate(classes[i % 3], 40 + (i * 97) % 300, i as u64)).collect()
}

/// The record-aligned LIGHT stream of `records`.
fn write(records: &[Vec<u8>]) -> Vec<u8> {
    let (tx, mut rx) = mem_pair(1024);
    let light = CompressionMode::Static(1);
    let mut w = RecordWriter::new(Box::new(tx), &light, LevelSet::paper_default(), 2.0);
    w.set_block_len(BLOCK);
    w.set_record_aligned(true);
    for r in records {
        w.write_record(r).unwrap();
    }
    w.finish().unwrap();
    let mut wire = Vec::new();
    rx.read_to_end(&mut wire).unwrap();
    wire
}

/// `(offset, application bytes)` of each frame.
fn frames(wire: &[u8]) -> Vec<(usize, Range<usize>)> {
    let (mut at, mut app, mut out) = (0, 0, Vec::new());
    while at < wire.len() {
        let field = |i: usize| u32::from_le_bytes(wire[at + i..at + i + 4].try_into().unwrap());
        let block = field(4) as usize;
        out.push((at, app..app + block));
        app += block;
        at += HEADER_LEN + field(8) as usize;
    }
    out
}

/// The records read and the incidents counted, or the error the read
/// ended in.
fn read(wire: Vec<u8>, policy: RecoveryPolicy) -> Result<(Vec<Vec<u8>>, u64), NepheleError> {
    let mut reader = RecordReader::with_policy(Box::new(Cursor::new(wire)), policy);
    let mut out = Vec::new();
    while let Some(r) = reader.next_record()? {
        out.push(r);
    }
    let rec = reader.stats().recovery;
    Ok((out, rec.corrupt_frames + rec.truncations))
}

#[test]
fn every_header_bit_flip_of_a_record_aligned_stream_is_caught_or_harmless() {
    let records = records();
    let wire = write(&records);
    let frames = frames(&wire);
    assert!(frames.len() >= 3, "{} frames", frames.len());
    assert!(frames.iter().all(|&(at, _)| wire[at + 3] & FLAG_RECORD_ALIGNED != 0));
    // The application bytes of each record, length prefix included.
    let mut spans = Vec::new();
    let mut app = 0;
    for r in &records {
        spans.push(app..app + 4 + r.len());
        app += 4 + r.len();
    }

    let mut violations = Vec::new();
    let mut cases = 0;
    for (f, (at, block)) in frames.iter().enumerate() {
        let survivors: Vec<Vec<u8>> = records
            .iter()
            .zip(&spans)
            .filter(|(_, s)| s.end <= block.start || s.start >= block.end)
            .map(|(r, _)| r.clone())
            .collect();
        for bit in 0..HEADER_LEN * 8 {
            let mut hurt = wire.clone();
            hurt[at + bit / 8] ^= 1 << (bit % 8);
            for mode in [RecoveryPolicy::fail_fast(), RecoveryPolicy::skip_and_count()] {
                let policy = RecoveryPolicy { max_frame: MAX_FRAME, ..mode };
                cases += 1;
                let why = match read(hurt.clone(), policy) {
                    Err(NepheleError::Io(e))
                        if matches!(
                            e.kind(),
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                        ) =>
                    {
                        continue
                    }
                    Err(e) => format!("untyped error: {e}"),
                    Ok((out, _)) if out == records => continue,
                    Ok((out, incidents)) if out == survivors && incidents >= 1 => continue,
                    Ok((out, incidents)) => {
                        format!("{} records out, {incidents} incidents", out.len())
                    }
                };
                violations.push(format!("frame {f} bit {bit} {:?}: {why}", policy.mode));
            }
        }
    }
    assert!(cases >= 3 * 256, "{cases} cases");
    let n = violations.len();
    assert!(violations.is_empty(), "{n} of {cases} reads:\n{}", violations.join("\n"));
}
