//! Seekable container: a trailing block index over a frame stream.
//!
//! Frames are block-independent by construction — every frame carries its
//! codec id, lengths and a CRC-32, and the codecs are stateless across
//! blocks (see the [`crate::Codec`] contract). What a plain stream lacks is
//! a way to *find* block N without walking every frame before it. This
//! module adds that: an optional **index trailer** listing, per block, the
//! frame's wire offset, its first application-byte offset, both lengths,
//! the payload CRC and the codec id.
//!
//! ## Wire layout
//!
//! The trailer is a regular frame (so streaming readers stay compatible)
//! flagged with [`crate::frame::FLAG_INDEX`]:
//!
//! ```text
//! ┌────────────┬────────────┬─────┬──────────────────────────────────┐
//! │ frame 0    │ frame 1    │ ... │ index frame (FLAG_INDEX)         │
//! └────────────┴────────────┴─────┴──────────────────────────────────┘
//!                                   16-byte header  (codec=Raw,
//!                                   uncompressed_len=0, CRC over payload)
//!                                   payload:
//!                                   ┌──────────┬─────┬──────────┬────────┐
//!                                   │ entry 0  │ ... │ entry N-1│ footer │
//!                                   └──────────┴─────┴──────────┴────────┘
//! entry (32 bytes, LE):                                     footer (16 B):
//!   0  u64 frame_offset        (wire offset of frame header)  0 [u8;4] "ADXI"
//!   8  u64 uncompressed_offset (app-byte offset of block)     4 u32 version=1
//!   16 u32 frame_len           (header + payload)             8 u32 entry count
//!   20 u32 uncompressed_len                                  12 u32 CRC-32 of entries
//!   24 u32 payload CRC-32      (same value as frame header)
//!   28 u8  codec id, 3 pad bytes
//! ```
//!
//! The footer sits at the very end of the stream, so a reader can locate
//! the index with two tail reads: 16 bytes for the footer, then
//! `count · 32 + 32` bytes for entries + frame header re-validation.
//!
//! ## Compatibility and trust
//!
//! * A stream without the trailer is byte-for-byte what the non-seekable
//!   writer produces; enabling the index appends exactly one frame.
//! * Streaming readers ([`crate::frame::FrameReader`] and the adaptive
//!   reader above it) skip [`crate::frame::FLAG_INDEX`] frames after CRC
//!   validation: they contribute zero application bytes.
//! * A stream without a usable trailer is indexed by
//!   [`StreamIndex::walk`], the one frame-header walker: 16 bytes per
//!   frame, no payload read, no decompression. [`StreamIndex::scan`] is
//!   that walk over bytes in memory.
//! * An index, from the trailer or from the walk, says where blocks are;
//!   it does not vouch for them. Every block fetched through it is still
//!   checked against its own frame header and payload CRC, and a block
//!   that disagrees is an error, not a reason to read around it.
//! * The trailer's entry table carries its own CRC; a walked index rests
//!   on header lengths nothing checks until the blocks decode. So a reader
//!   serves a walked offset only once every block before it has decoded
//!   ([`StreamIndex::shares_from`]).

use crate::crc32::crc32;
use crate::frame::{checked_payload, FrameHeader, DEFAULT_MAX_FRAME, HEADER_LEN};
use crate::{CodecError, CodecId, Result};

/// Footer magic: "ADXI" (ADcomp indeX).
pub const INDEX_MAGIC: [u8; 4] = *b"ADXI";
/// Index format version.
pub const INDEX_VERSION: u32 = 1;
/// Serialized size of one [`IndexEntry`].
pub const INDEX_ENTRY_LEN: usize = 32;
/// Serialized size of the index footer.
pub const INDEX_FOOTER_LEN: usize = 16;
/// Cap on the entry count a footer may declare — the index-side
/// decompression-bomb guard (2^24 blocks ≈ 2 TiB of 128 KiB blocks).
pub const MAX_INDEX_ENTRIES: u32 = 1 << 24;

/// One block's coordinates in a seekable stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Wire offset of the frame header.
    pub frame_offset: u64,
    /// Application-byte offset of the block's first byte.
    pub uncompressed_offset: u64,
    /// Frame length on the wire (header + payload).
    pub frame_len: u32,
    /// Application bytes in the block.
    pub uncompressed_len: u32,
    /// CRC-32 of the frame payload (mirrors the frame header).
    pub crc: u32,
    /// Codec that produced the payload.
    pub codec: CodecId,
}

impl IndexEntry {
    /// The one check of a block's frame against its entry, made before a
    /// reader that found the block through this entry trusts it: the
    /// [`checked_payload`] checks (header, whole payload, CRC, RAW's
    /// length rule), then agreement with the entry on codec, both lengths
    /// and CRC, and no index flag. `frame` is the wire from the entry's
    /// `frame_offset` on. Returns the header and the payload.
    pub fn check_frame<'a>(&self, frame: &'a [u8]) -> Result<(FrameHeader, &'a [u8])> {
        let (header, payload) = checked_payload(frame, DEFAULT_MAX_FRAME)?;
        if header.codec != self.codec
            || header.uncompressed_len != self.uncompressed_len
            || HEADER_LEN + payload.len() != self.frame_len as usize
            || header.crc != self.crc
            || header.index
        {
            return Err(CodecError::Corrupt("block frame disagrees with index entry"));
        }
        Ok((header, payload))
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.frame_offset.to_le_bytes());
        out.extend_from_slice(&self.uncompressed_offset.to_le_bytes());
        out.extend_from_slice(&self.frame_len.to_le_bytes());
        out.extend_from_slice(&self.uncompressed_len.to_le_bytes());
        out.extend_from_slice(&self.crc.to_le_bytes());
        out.push(self.codec as u8);
        out.extend_from_slice(&[0u8; 3]);
    }

    fn decode(mut b: &[u8]) -> Result<IndexEntry> {
        Ok(IndexEntry {
            frame_offset: u64::from_le_bytes(take(&mut b)?),
            uncompressed_offset: u64::from_le_bytes(take(&mut b)?),
            frame_len: u32::from_le_bytes(take(&mut b)?),
            uncompressed_len: u32::from_le_bytes(take(&mut b)?),
            crc: u32::from_le_bytes(take(&mut b)?),
            codec: CodecId::from_u8(take::<1>(&mut b)?[0])?,
        })
    }
}

/// Takes the next `N` bytes off the front of `b`.
fn take<const N: usize>(b: &mut &[u8]) -> Result<[u8; N]> {
    let (head, rest) = b.split_first_chunk::<N>().ok_or(CodecError::Truncated)?;
    *b = rest;
    Ok(*head)
}

/// The parsed block index of a seekable stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamIndex {
    /// Entries in stream order (offsets strictly increasing).
    pub entries: Vec<IndexEntry>,
}

impl StreamIndex {
    /// Total application bytes covered by the index.
    pub fn total_uncompressed(&self) -> u64 {
        self.entries
            .last()
            .map_or(0, |e| e.uncompressed_offset + u64::from(e.uncompressed_len))
    }

    /// Wire bytes covered by the indexed frames (excludes the trailer).
    pub fn total_wire(&self) -> u64 {
        self.entries.last().map_or(0, |e| e.frame_offset + u64::from(e.frame_len))
    }

    /// Index of the block containing application-byte `offset`, if any.
    /// Zero-length blocks (flush artifacts) are never returned.
    pub fn block_for(&self, offset: u64) -> Option<usize> {
        if offset >= self.total_uncompressed() {
            return None;
        }
        // Last entry with uncompressed_offset <= offset that has bytes.
        let mut i = self
            .entries
            .partition_point(|e| e.uncompressed_offset <= offset)
            .checked_sub(1)?;
        while self.entries[i].uncompressed_len == 0 {
            i = i.checked_sub(1)?;
        }
        Some(i)
    }

    /// Indices of the blocks covering `[start, start + len)`, clamped to
    /// the stream. Empty range when `len == 0` or `start` is past the end.
    pub fn blocks_covering(&self, start: u64, len: u64) -> std::ops::Range<usize> {
        if len == 0 {
            return 0..0;
        }
        let Some(first) = self.block_for(start) else { return 0..0 };
        let end = start + len.min(self.total_uncompressed() - start);
        let last = self.block_for(end - 1).unwrap_or(first);
        first..last + 1
    }

    /// The blocks covering `[start, start + len)`, clamped to the stream,
    /// each with its share: the part of its application bytes the range
    /// takes, as `lo..hi` within the block. Zero-length entries are
    /// skipped, so every share is non-empty. A ranged reader slices each
    /// decoded block by its share, after checking that the block is at
    /// least `hi` bytes long.
    pub fn shares(
        &self,
        start: u64,
        len: u64,
    ) -> impl Iterator<Item = (IndexEntry, std::ops::Range<usize>)> + Clone + '_ {
        self.shares_from(usize::MAX, start, len).1.filter(|(e, _)| e.uncompressed_len > 0)
    }

    /// [`StreamIndex::shares`] for a reader that must decode every block a
    /// read's answer rests on: the entries from `from`, when it comes
    /// before the first covering block, through the last covering block
    /// or, for a range the stream's end clamps, through the last entry,
    /// since where the stream ends rests on every block's length.
    /// Zero-length entries are included, and an entry the range does not
    /// reach gets the empty share at its end: it is decoded and checked
    /// but adds nothing. Also returns where that span ends.
    pub fn shares_from(
        &self,
        from: usize,
        start: u64,
        len: u64,
    ) -> (usize, impl Iterator<Item = (IndexEntry, std::ops::Range<usize>)> + Clone + '_) {
        let covering = self.blocks_covering(start, len);
        let total = self.total_uncompressed();
        let clamped = len > 0 && start.saturating_add(len) > total;
        let through = if clamped { self.entries.len() } else { covering.end };
        let from = if covering.is_empty() { from } else { from.min(covering.start) };
        let end = start.saturating_add(len).min(total);
        let shares = self.entries[from.min(through)..through].iter().map(move |e| {
            let within = |at: u64| {
                at.saturating_sub(e.uncompressed_offset).min(u64::from(e.uncompressed_len)) as usize
            };
            (*e, within(start)..within(end))
        });
        (through, shares)
    }

    /// Serializes entries + footer (the index frame's payload).
    pub fn encode_payload(&self, out: &mut Vec<u8>) {
        let start = out.len();
        for e in &self.entries {
            e.encode(out);
        }
        let entries_crc = crc32(&out[start..]);
        out.extend_from_slice(&INDEX_MAGIC);
        out.extend_from_slice(&INDEX_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        out.extend_from_slice(&entries_crc.to_le_bytes());
    }

    /// Parses an index frame payload (entries + footer) produced by
    /// [`StreamIndex::encode_payload`], validating the footer magic,
    /// version, entry CRC and offset monotonicity.
    pub fn parse_payload(payload: &[u8]) -> Result<StreamIndex> {
        IndexFooter::parse(payload)?.entries(payload)
    }

    /// Entries must advance through the stream: strictly increasing frame
    /// offsets, non-decreasing application offsets, consistent lengths.
    fn validate_monotone(&self) -> Result<()> {
        let mut wire = 0u64;
        let mut app = 0u64;
        for e in &self.entries {
            if e.frame_offset != wire || e.uncompressed_offset != app {
                return Err(CodecError::Corrupt("index entries not contiguous"));
            }
            if (e.frame_len as usize) < HEADER_LEN {
                return Err(CodecError::Corrupt("index entry frame too short"));
            }
            wire += u64::from(e.frame_len);
            app += u64::from(e.uncompressed_len);
        }
        Ok(())
    }

    /// The one frame-header walker: indexes the data frames of a
    /// `stream_len`-byte stream from their headers alone, `header_at(off)`
    /// giving the header at wire offset `off` (no payload is read, no CRC
    /// checked), stepping over index trailers. It stops at a header that
    /// does not parse, the index flag on a data frame (which would drop the
    /// block from the index) or a frame the stream cuts short, and returns
    /// that error (`None` at the end) beside the frames before it. Only
    /// `header_at`'s own errors fail the walk.
    ///
    /// No CRC covers a header, so an entry's application offset is only
    /// as good as the `uncompressed_len` of every block before it: a
    /// reader that has not decoded those blocks cannot trust it.
    pub fn walk<E>(
        stream_len: u64,
        mut header_at: impl FnMut(u64) -> std::result::Result<[u8; HEADER_LEN], E>,
    ) -> std::result::Result<(StreamIndex, Option<CodecError>), E> {
        let mut entries = Vec::new();
        let (mut off, mut app) = (0u64, 0u64);
        let stopped = loop {
            if off == stream_len {
                break None;
            }
            if stream_len - off < HEADER_LEN as u64 {
                break Some(CodecError::Truncated);
            }
            let parsed = FrameHeader::parse(&header_at(off)?, DEFAULT_MAX_FRAME);
            let (header, trailer) = match parsed.and_then(|h| Ok((h, h.is_index_trailer()?))) {
                Ok(walked) => walked,
                Err(e) => break Some(e),
            };
            let frame_len = HEADER_LEN as u64 + u64::from(header.payload_len);
            if stream_len - off < frame_len {
                break Some(CodecError::Truncated);
            }
            if !trailer {
                entries.push(IndexEntry {
                    frame_offset: off,
                    uncompressed_offset: app,
                    frame_len: frame_len as u32,
                    uncompressed_len: header.uncompressed_len,
                    crc: header.crc,
                    codec: header.codec,
                });
                app += u64::from(header.uncompressed_len);
            }
            off += frame_len;
        };
        Ok((StreamIndex { entries }, stopped))
    }

    /// [`StreamIndex::walk`] over a whole stream in memory; a walk that
    /// stops short of the end is that error. This reads only what the
    /// stream itself says, so a missing or lying trailer never matters.
    pub fn scan(wire: &[u8]) -> Result<StreamIndex> {
        let (index, stopped) = StreamIndex::walk(wire.len() as u64, |off| {
            wire[off as usize..].first_chunk().copied().ok_or(CodecError::Truncated)
        })?;
        stopped.map_or(Ok(index), Err)
    }
}

/// The footer that ends every index payload, parsed once: a reader learns
/// the trailer's length from it, then checks the trailer against it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexFooter {
    /// Entries the index declares, at most [`MAX_INDEX_ENTRIES`].
    count: u32,
    /// CRC-32 of the entry table.
    entries_crc: u32,
}

impl IndexFooter {
    /// Parses the footer in the last [`INDEX_FOOTER_LEN`] bytes of `tail`,
    /// checking its magic, version and entry-count cap.
    pub fn parse(tail: &[u8]) -> Result<IndexFooter> {
        let mut f: &[u8] = tail.last_chunk::<INDEX_FOOTER_LEN>().ok_or(CodecError::Truncated)?;
        if take(&mut f)? != INDEX_MAGIC {
            return Err(CodecError::BadMagic);
        }
        if u32::from_le_bytes(take(&mut f)?) != INDEX_VERSION {
            return Err(CodecError::Corrupt("unsupported index version"));
        }
        let count = u32::from_le_bytes(take(&mut f)?);
        if count > MAX_INDEX_ENTRIES {
            return Err(CodecError::Corrupt("index entry count exceeds cap"));
        }
        Ok(IndexFooter { count, entries_crc: u32::from_le_bytes(take(&mut f)?) })
    }

    /// Length of the trailer frame this footer ends (header + entries +
    /// footer): how many tail bytes [`IndexFooter::parse_trailer`] needs.
    pub fn trailer_len(&self) -> usize {
        HEADER_LEN + self.count as usize * INDEX_ENTRY_LEN + INDEX_FOOTER_LEN
    }

    /// Parses the trailer frame in the last [`IndexFooter::trailer_len`]
    /// bytes of `tail`, a stream tail this footer ends. Validates the
    /// trailer frame header (magic, [`crate::frame::FLAG_INDEX`], lengths,
    /// payload CRC) and the entry table.
    pub fn parse_trailer(&self, tail: &[u8]) -> Result<StreamIndex> {
        let at = tail.len().checked_sub(self.trailer_len()).ok_or(CodecError::Truncated)?;
        let (hb, payload) =
            tail[at..].split_first_chunk::<HEADER_LEN>().ok_or(CodecError::Truncated)?;
        let header = FrameHeader::parse(hb, DEFAULT_MAX_FRAME)?;
        if !header.index || header.uncompressed_len != 0 {
            return Err(CodecError::Corrupt("trailer frame is not an index frame"));
        }
        if header.payload_len as usize != payload.len() {
            return Err(CodecError::Corrupt("index trailer length mismatch"));
        }
        let actual = crc32(payload);
        if actual != header.crc {
            return Err(CodecError::ChecksumMismatch { expected: header.crc, actual });
        }
        self.entries(payload)
    }

    /// The entry table of `payload`, an index payload this footer ends.
    fn entries(&self, payload: &[u8]) -> Result<StreamIndex> {
        let entries_len = self.count as usize * INDEX_ENTRY_LEN;
        if payload.len() != entries_len + INDEX_FOOTER_LEN {
            return Err(CodecError::Corrupt("index payload length mismatch"));
        }
        let entry_bytes = &payload[..entries_len];
        let actual = crc32(entry_bytes);
        if actual != self.entries_crc {
            return Err(CodecError::ChecksumMismatch { expected: self.entries_crc, actual });
        }
        let entries = entry_bytes
            .chunks_exact(INDEX_ENTRY_LEN)
            .map(IndexEntry::decode)
            .collect::<Result<Vec<_>>>()?;
        let index = StreamIndex { entries };
        index.validate_monotone()?;
        Ok(index)
    }
}

/// Appends the complete index trailer frame (header + payload) to `out`.
/// The trailer declares `uncompressed_len = 0` — it carries no application
/// bytes — and is CRC-protected like any other frame.
pub fn encode_index_trailer(index: &StreamIndex, out: &mut Vec<u8>) {
    let header_pos = out.len();
    out.resize(header_pos + HEADER_LEN, 0);
    let payload_pos = out.len();
    index.encode_payload(out);
    let payload_len = out.len() - payload_pos;
    let header = FrameHeader {
        codec: CodecId::Raw,
        raw_fallback: false,
        index: true,
        uncompressed_len: 0,
        payload_len: payload_len as u32,
        crc: crc32(&out[payload_pos..]),
    };
    out[header_pos..header_pos + HEADER_LEN].copy_from_slice(&header.to_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameReader, FrameWriter};
    use crate::{Codec, HeavyCodec, QlzLightCodec, QlzMediumCodec};

    fn sample_stream(blocks: &[&[u8]]) -> (Vec<u8>, StreamIndex) {
        let mut w = FrameWriter::new(Vec::new());
        w.enable_index();
        for (i, b) in blocks.iter().enumerate() {
            let codec: &dyn Codec = match i % 3 {
                0 => &QlzLightCodec,
                1 => &QlzMediumCodec,
                _ => &HeavyCodec,
            };
            w.write_block(codec, b).unwrap();
        }
        let index = w.take_index().unwrap();
        let mut wire = w.into_inner();
        encode_index_trailer(&index, &mut wire);
        (wire, index)
    }

    /// Footer first, then the trailer it ends, as a reader holding the
    /// whole tail does it.
    fn parse_index_trailer(tail: &[u8]) -> Result<StreamIndex> {
        IndexFooter::parse(tail)?.parse_trailer(tail)
    }

    #[test]
    fn entry_roundtrip() {
        let e = IndexEntry {
            frame_offset: 123_456_789,
            uncompressed_offset: 987_654,
            frame_len: 4242,
            uncompressed_len: 131_072,
            crc: 0xDEAD_BEEF,
            codec: CodecId::Heavy,
        };
        let mut buf = Vec::new();
        e.encode(&mut buf);
        assert_eq!(buf.len(), INDEX_ENTRY_LEN);
        assert_eq!(IndexEntry::decode(&buf).unwrap(), e);
    }

    #[test]
    fn check_frame_holds_a_frame_to_its_entry() {
        let b = b"frame check target ".repeat(100);
        let (wire, index) = sample_stream(&[&b]);
        let e = index.entries[0];
        assert!(e.check_frame(&wire).is_ok());
        // Each field the entry vouches for, changed alone, fails the check.
        for forged in [
            IndexEntry { codec: CodecId::Raw, ..e },
            IndexEntry { uncompressed_len: e.uncompressed_len + 1, ..e },
            IndexEntry { frame_len: e.frame_len - 1, ..e },
            IndexEntry { crc: !e.crc, ..e },
        ] {
            assert!(forged.check_frame(&wire).is_err(), "{forged:?}");
        }
    }

    #[test]
    fn trailer_roundtrip_and_tail_parse() {
        let b1 = b"first block, quite repetitive repetitive. ".repeat(50);
        let b2 = b"second block with different content entirely. ".repeat(40);
        let (wire, index) = sample_stream(&[&b1, &b2]);
        assert_eq!(index.entries.len(), 2);
        assert_eq!(index.total_uncompressed(), (b1.len() + b2.len()) as u64);
        // Full-tail parse recovers the identical index.
        let parsed = parse_index_trailer(&wire).unwrap();
        assert_eq!(parsed, index);
        // Two tail reads: the footer gives the trailer length, and the
        // trailer alone parses against that footer.
        let footer = IndexFooter::parse(&wire[wire.len() - INDEX_FOOTER_LEN..]).unwrap();
        let tl = footer.trailer_len();
        assert_eq!(tl, HEADER_LEN + 2 * INDEX_ENTRY_LEN + INDEX_FOOTER_LEN);
        assert_eq!(footer.parse_trailer(&wire[wire.len() - tl..]).unwrap(), index);
        assert_eq!(footer.parse_trailer(&wire[wire.len() - tl + 1..]), Err(CodecError::Truncated));
    }

    #[test]
    fn scan_rebuilds_identical_index_ignoring_trailer() {
        let blocks: Vec<Vec<u8>> = (0..5)
            .map(|i| format!("scan block {i} ").repeat(200 + i * 37).into_bytes())
            .collect();
        let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
        let (wire, index) = sample_stream(&refs);
        let scanned = StreamIndex::scan(&wire).unwrap();
        assert_eq!(scanned, index);
    }

    #[test]
    fn walk_keeps_the_frames_before_the_error_that_stopped_it() {
        let blocks: Vec<Vec<u8>> =
            (0..3).map(|i| format!("walk block {i} ").repeat(300).into_bytes()).collect();
        let (wire, index) = sample_stream(&blocks.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let at = |i: usize| index.entries[i].frame_offset as usize;
        let mut bad_magic = wire.clone();
        bad_magic[at(1)] ^= 0xFF;
        // A cut inside a frame, a header that does not parse, and a cut at
        // a frame boundary, which is a clean, shorter stream.
        for (wire, kept, stopped) in [
            (&wire[..at(2) + HEADER_LEN + 5], 2, Some(CodecError::Truncated)),
            (&bad_magic[..], 1, Some(CodecError::BadMagic)),
            (&wire[..at(2)], 2, None),
        ] {
            let walk = StreamIndex::walk(wire.len() as u64, |off| {
                wire[off as usize..].first_chunk().copied().ok_or(())
            });
            let entries = index.entries[..kept].to_vec();
            assert_eq!(walk, Ok((StreamIndex { entries }, stopped.clone())));
            assert_eq!(StreamIndex::scan(wire).err(), stopped);
        }
    }

    #[test]
    fn block_for_and_covering_ranges() {
        let blocks: Vec<Vec<u8>> = (0..4).map(|i| vec![i as u8; 1000]).collect();
        let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
        let (_, index) = sample_stream(&refs);
        assert_eq!(index.block_for(0), Some(0));
        assert_eq!(index.block_for(999), Some(0));
        assert_eq!(index.block_for(1000), Some(1));
        assert_eq!(index.block_for(3999), Some(3));
        assert_eq!(index.block_for(4000), None);
        assert_eq!(index.blocks_covering(0, 1), 0..1);
        assert_eq!(index.blocks_covering(500, 1000), 0..2);
        assert_eq!(index.blocks_covering(1000, 3000), 1..4);
        assert_eq!(index.blocks_covering(3999, 100), 3..4);
        assert_eq!(index.blocks_covering(0, 0), 0..0);
        assert_eq!(index.blocks_covering(4000, 10), 0..0);
        // Huge lengths clamp to the stream end.
        assert_eq!(index.blocks_covering(2500, u64::MAX), 2..4);
        let shares = |start, len| -> Vec<_> {
            index.shares(start, len).map(|(e, share)| (e.uncompressed_offset, share)).collect()
        };
        assert_eq!(shares(500, 1000), [(0, 500..1000), (1000, 0..500)]);
        assert_eq!(shares(2500, u64::MAX), [(2000, 500..1000), (3000, 0..1000)]);
        assert_eq!(shares(3999, 0), []);
        // A zero-length entry inside the range gets no share.
        let mut gap = index.clone();
        let mut empty = gap.entries[1];
        empty.uncompressed_offset += 1000;
        empty.uncompressed_len = 0;
        gap.entries.insert(2, empty);
        assert_eq!(gap.shares(500, 2000).count(), 3);
        // Decoding from an earlier entry: the blocks before the range get
        // the empty share at their end, a zero-length entry is kept, and a
        // range the end clamps reaches the last entry.
        let from = |ix: &StreamIndex, from, start, len| -> (usize, Vec<_>) {
            let (through, shares) = ix.shares_from(from, start, len);
            (through, shares.map(|(e, share)| (e.uncompressed_offset, share)).collect())
        };
        let before = vec![(0, 1000..1000), (1000, 1000..1000), (2000, 0..0), (2000, 500..600)];
        assert_eq!(from(&gap, 0, 2500, 100), (4, before));
        assert_eq!(from(&gap, 3, 1500, 100), (2, vec![(1000, 500..600)]));
        gap.entries.push(IndexEntry { uncompressed_offset: 4000, ..empty });
        let tail = vec![(3000, 500..1000), (4000, 0..0)];
        assert_eq!(from(&gap, 5, 3500, 1000), (6, tail));
        let past_end = vec![(2000, 0..0), (2000, 1000..1000), (3000, 1000..1000), (4000, 0..0)];
        assert_eq!(from(&gap, 2, 4000, 1), (6, past_end));
        assert_eq!(from(&gap, 2, 4000, 0), (0, vec![]));
    }

    #[test]
    fn corrupt_footer_magic_rejected() {
        let b = b"footer corruption target ".repeat(100);
        let (mut wire, _) = sample_stream(&[&b]);
        let n = wire.len();
        wire[n - INDEX_FOOTER_LEN] ^= 0xFF;
        assert!(parse_index_trailer(&wire).is_err());
        assert_eq!(IndexFooter::parse(&wire), Err(CodecError::BadMagic));
    }

    #[test]
    fn corrupt_entry_bytes_fail_entry_crc() {
        let b = b"entry corruption target ".repeat(100);
        let (mut wire, _) = sample_stream(&[&b]);
        let n = wire.len();
        // Flip a byte inside the entry table (before the footer).
        wire[n - INDEX_FOOTER_LEN - 5] ^= 0x01;
        assert!(matches!(
            parse_index_trailer(&wire),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_trailer_rejected() {
        let b = b"truncation target ".repeat(100);
        let (wire, _) = sample_stream(&[&b]);
        assert!(parse_index_trailer(&wire[..wire.len() - 3]).is_err());
        assert_eq!(IndexFooter::parse(&wire[..INDEX_FOOTER_LEN - 1]), Err(CodecError::Truncated));
    }

    #[test]
    fn forged_entry_count_is_capped() {
        let mut payload = Vec::new();
        payload.extend_from_slice(&INDEX_MAGIC);
        payload.extend_from_slice(&INDEX_VERSION.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            StreamIndex::parse_payload(&payload),
            Err(CodecError::Corrupt("index entry count exceeds cap"))
        ));
        assert!(IndexFooter::parse(&payload).is_err());
    }

    #[test]
    fn non_contiguous_entries_rejected() {
        let b = b"contiguity target ".repeat(100);
        let (_, mut index) = sample_stream(&[&b, &b]);
        index.entries[1].frame_offset += 1;
        let mut payload = Vec::new();
        index.encode_payload(&mut payload);
        assert!(matches!(
            StreamIndex::parse_payload(&payload),
            Err(CodecError::Corrupt("index entries not contiguous"))
        ));
    }

    #[test]
    fn streaming_reader_skips_trailer_and_decodes_all_blocks() {
        let b1 = b"stream-compat block one. ".repeat(80);
        let b2 = b"stream-compat block two! ".repeat(60);
        let (wire, _) = sample_stream(&[&b1, &b2]);
        let mut r = FrameReader::new(&wire[..]);
        let mut out = Vec::new();
        while r.read_block(&mut out).unwrap().is_some() {}
        let mut expect = b1.clone();
        expect.extend_from_slice(&b2);
        assert_eq!(out, expect);
        // The trailer's wire bytes are consumed and accounted, but it is
        // not counted as an application block.
        assert_eq!(r.wire_bytes, wire.len() as u64);
        assert_eq!(r.blocks, 2);
        assert_eq!(r.recovery, crate::frame::RecoveryStats::default());
    }

    #[test]
    fn empty_index_trailer_roundtrips() {
        let index = StreamIndex::default();
        let mut wire = Vec::new();
        encode_index_trailer(&index, &mut wire);
        assert_eq!(wire.len(), HEADER_LEN + INDEX_FOOTER_LEN);
        let parsed = parse_index_trailer(&wire).unwrap();
        assert!(parsed.entries.is_empty());
        assert_eq!(parsed.total_uncompressed(), 0);
    }
}
