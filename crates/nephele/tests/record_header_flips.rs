//! Every single-bit flip of every frame header of a record-aligned channel
//! stream, read back through `RecordReader`.
//!
//! Older record writers could cut blocks at record boundaries and set flag
//! bit 1 on every frame; today's readers ignore that bit, and this stream
//! is built the way those writers built it. A frame's CRC covers its
//! payload only, so a header bit can change the codec id, the flags or a
//! length field without the checksum noticing. About thirty records go
//! into 1 KiB LIGHT blocks; each of the 128 header bits of each frame is
//! flipped on its own, and the stream is read through `RecordReader` as
//! shipped, with the default bomb guard. The reader fails fast, so each
//! read must end in one of two ways:
//!
//! * every record, byte for byte (a bit no reader acts on — clearing bit 1
//!   is one);
//! * a typed error (`InvalidData` / `UnexpectedEof`).
//!
//! Anything else — a different record, or a lost one — is silent data loss
//! and fails the test.

use adcomp_codecs::frame::{encode_block, HEADER_LEN};
use adcomp_codecs::{codec_for, CodecId};
use adcomp_corpus::{generate, Class};
use adcomp_nephele::channel::RecordReader;
use adcomp_nephele::NepheleError;
use std::io::{self, Cursor};

const BLOCK: usize = 1024;
/// Flag bit 1: "this block starts at a record boundary", as older
/// record-aligned writers set it.
const OLD_RECORD_ALIGNED: u8 = 0b10;

/// Text, raster-like and noise records of 40..340 bytes, so LIGHT both
/// compresses and falls back to raw.
fn records() -> Vec<Vec<u8>> {
    let classes = [Class::Moderate, Class::High, Class::Low];
    (0..30).map(|i| generate(classes[i % 3], 40 + (i * 97) % 300, i as u64)).collect()
}

/// The stream an older record-aligned writer made of `records`: LIGHT
/// blocks of at most `BLOCK` bytes, each cut before the record that would
/// not fit, every frame flagged with bit 1. Returns the wire and each
/// frame's offset.
fn old_aligned_stream(records: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
    let mut blocks = vec![Vec::new()];
    for r in records {
        let block = blocks.last_mut().unwrap();
        if !block.is_empty() && block.len() + 4 + r.len() > BLOCK {
            blocks.push(Vec::new());
        }
        let block = blocks.last_mut().unwrap();
        block.extend_from_slice(&(r.len() as u32).to_le_bytes());
        block.extend_from_slice(r);
    }
    let (mut wire, mut frames) = (Vec::new(), Vec::new());
    for b in &blocks {
        frames.push(wire.len());
        encode_block(codec_for(CodecId::QlzLight), b, &mut wire);
        wire[frames[frames.len() - 1] + 3] |= OLD_RECORD_ALIGNED;
    }
    (wire, frames)
}

/// The records read, or the error the read ended in.
fn read(wire: Vec<u8>) -> Result<Vec<Vec<u8>>, NepheleError> {
    let mut reader = RecordReader::new(Cursor::new(wire));
    let mut out = Vec::new();
    while let Some(r) = reader.next_record()? {
        out.push(r);
    }
    Ok(out)
}

#[test]
fn every_header_bit_flip_of_a_record_aligned_stream_is_caught_or_harmless() {
    let records = records();
    let (wire, frames) = old_aligned_stream(&records);
    assert!(frames.len() >= 3, "{} frames", frames.len());
    assert_eq!(read(wire.clone()).unwrap(), records, "the old stream reads as it was written");

    let mut violations = Vec::new();
    let mut cases = 0;
    for (f, &at) in frames.iter().enumerate() {
        for bit in 0..HEADER_LEN * 8 {
            let mut hurt = wire.clone();
            hurt[at + bit / 8] ^= 1 << (bit % 8);
            cases += 1;
            let why = match read(hurt) {
                Err(NepheleError::Io(e))
                    if matches!(
                        e.kind(),
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    ) =>
                {
                    continue
                }
                Err(e) => format!("untyped error: {e}"),
                Ok(out) if out == records => continue,
                Ok(out) => format!("{} records out", out.len()),
            };
            violations.push(format!("frame {f} bit {bit}: {why}"));
        }
    }
    assert!(cases >= 3 * 128, "{cases} cases");
    let n = violations.len();
    assert!(violations.is_empty(), "{n} of {cases} reads:\n{}", violations.join("\n"));
}
