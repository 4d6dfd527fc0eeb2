//! Every single-bit flip of every frame header, through every block reader.
//!
//! A frame's CRC covers its payload only, so a header bit can change the
//! codec id, the flags or a length field without the checksum noticing.
//! For small streams of each registry codec, a portfolio stream and a
//! seekable stream (whose index trailer is a frame too), each of the 128
//! header bits of each frame is flipped on its own and the stream is read
//! through `AdaptiveReader` at 1 and 2 workers and through
//! `FrameReader::read_block`; the seekable stream is also read in ranges
//! through `IndexedReader::read_range`. The readers run as shipped, with
//! the default bomb guard: a flip to a huge payload length costs the bytes
//! that arrive, not what the header claims. Readers fail fast, so each
//! read must end in one of two ways:
//!
//! * the source (or the range of it asked for), byte for byte — a bit no
//!   reader acts on, such as the reserved flag bit 1 that older
//!   record-aligned writers set;
//! * a typed error (`InvalidData` / `UnexpectedEof`).
//!
//! Anything else — different bytes, or a lost block — is silent data loss
//! and fails the test, except the one case listed in
//! [`SILENT_LENGTH_FLIPS`] (see DESIGN.md §"Fault model").

use adcomp_codecs::frame::{FrameReader, FrameWriter, HEADER_LEN};
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
/// length of its own, so every `uncompressed_len` the 64 MiB bomb guard
/// lets through (bits 32..58) decodes to that many zeros with clean
/// counters.
const SILENT_LENGTH_FLIPS: &[(&str, usize, Range<usize>)] = &[("portfolio", 3, 32..58)];

const BLOCK: usize = 4096;

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

/// The offset of each frame, data frames and index trailer alike.
fn frames(wire: &[u8]) -> Vec<usize> {
    let (mut at, mut out) = (0, Vec::new());
    while at < wire.len() {
        out.push(at);
        at += HEADER_LEN + u32::from_le_bytes(wire[at + 8..at + 12].try_into().unwrap()) as usize;
    }
    out
}

fn read_adaptive(wire: &[u8], workers: usize) -> io::Result<Vec<u8>> {
    let mut r = AdaptiveReader::new(wire);
    r.set_pipeline_workers(workers);
    let mut out = Vec::new();
    r.read_to_end(&mut out).map(|_| out)
}

fn read_frames(wire: &[u8]) -> io::Result<Vec<u8>> {
    let mut r = FrameReader::new(wire);
    let mut out = Vec::new();
    while r.read_block(&mut out)?.is_some() {}
    Ok(out)
}

/// `IndexedReader::read_range` on a reader opened for this read alone.
fn read_range(wire: &[u8], range: &Range<usize>) -> io::Result<Vec<u8>> {
    let mut r = IndexedReader::open(Cursor::new(wire))?;
    let mut out = Vec::new();
    r.read_range(range.start as u64, range.len() as u64, &mut out).map(|_| out)
}

/// `None` when the read ended in one of the two allowed ways, else why
/// not. `range` is the application bytes the read asked for
/// (`0..usize::MAX` for a whole-stream read).
fn judge(s: &Stream, range: &Range<usize>, read: io::Result<Vec<u8>>) -> Option<String> {
    match read {
        Err(e) if matches!(e.kind(), io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof) => {
            None
        }
        Err(e) => Some(format!("untyped error {:?}: {e}", e.kind())),
        Ok(out) => {
            let source = s.blocks.concat();
            let window = &source[range.start.min(source.len())..range.end.min(source.len())];
            (out != window).then(|| format!("{} bytes out, {} expected", out.len(), window.len()))
        }
    }
}

#[test]
fn every_header_bit_flip_is_caught_or_harmless() {
    let mut streams: Vec<Stream> = CodecId::REGISTRY.into_iter().map(codec_stream).collect();
    streams.push(adaptive_stream("portfolio", true, false));
    streams.push(adaptive_stream("seekable", false, true));

    let mut violations = Vec::new();
    let mut cases = 0;
    for s in &streams {
        for (frame, at) in frames(&s.wire).into_iter().enumerate() {
            for bit in 0..HEADER_LEN * 8 {
                let mut wire = s.wire.clone();
                wire[at + bit / 8] ^= 1 << (bit % 8);
                let known = SILENT_LENGTH_FLIPS
                    .iter()
                    .any(|(name, f, bits)| *name == s.name && *f == frame && bits.contains(&bit));
                if known {
                    assert_eq!(wire[at + 2], CodecId::Columnar as u8, "{} frame {frame}", s.name);
                }
                let reads = [
                    ("adaptive/1", read_adaptive(&wire, 1)),
                    ("adaptive/2", read_adaptive(&wire, 2)),
                    ("read_block", read_frames(&wire)),
                ];
                for (reader, read) in reads {
                    cases += 1;
                    match judge(s, &(0..usize::MAX), read) {
                        Some(why) if !known => violations
                            .push(format!("{} frame {frame} bit {bit} {reader}: {why}", s.name)),
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
    assert!(cases > 10_000, "{cases} cases");
    let n = violations.len();
    assert!(violations.is_empty(), "{n} of {cases} reads:\n{}", violations.join("\n"));
}

/// The seekable stream's frames, every header bit flipped, read in ranges
/// through `IndexedReader::read_range`: the whole stream, a range inside
/// one block, one across three blocks and one over the end. A range whose
/// covering blocks pass the index's checks is served from them; a damaged
/// header disagrees with its index entry (codec, lengths, CRC, the index
/// flag) or fails to parse, and a request that covers it fails. A flip in
/// the trailer's header makes the trailer unusable (it must parse as an
/// index frame), so the reader indexes the stream by walking its frame
/// headers instead.
#[test]
fn every_header_bit_flip_through_ranged_reads() {
    let s = adaptive_stream("seekable", false, true);
    let total = s.blocks.concat().len();
    let ranges = [0..total + 1, 5000..5100, 4000..12_300, total - 10..total + 90];
    let mut violations = Vec::new();
    let mut cases = 0;
    for (frame, at) in frames(&s.wire).into_iter().enumerate() {
        for bit in 0..HEADER_LEN * 8 {
            let mut wire = s.wire.clone();
            wire[at + bit / 8] ^= 1 << (bit % 8);
            for range in &ranges {
                cases += 1;
                if let Some(why) = judge(&s, range, read_range(&wire, range)) {
                    violations.push(format!("frame {frame} bit {bit} range {range:?}: {why}"));
                }
            }
        }
    }
    assert!(cases > 2_000, "{cases} cases");
    let n = violations.len();
    assert!(violations.is_empty(), "{n} of {cases} reads:\n{}", violations.join("\n"));
}
