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
//! * The index is **advisory**. Every block fetched through it is still
//!   validated against its own frame header and payload CRC; a reader that
//!   finds the trailer missing, truncated or lying falls back to
//!   front-to-back streaming decode.

use crate::crc32::crc32;
use crate::frame::{FrameHeader, DEFAULT_MAX_FRAME, HEADER_LEN};
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
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.frame_offset.to_le_bytes());
        out.extend_from_slice(&self.uncompressed_offset.to_le_bytes());
        out.extend_from_slice(&self.frame_len.to_le_bytes());
        out.extend_from_slice(&self.uncompressed_len.to_le_bytes());
        out.extend_from_slice(&self.crc.to_le_bytes());
        out.push(self.codec as u8);
        out.extend_from_slice(&[0u8; 3]);
    }

    fn decode(b: &[u8]) -> Result<IndexEntry> {
        if b.len() < INDEX_ENTRY_LEN {
            return Err(CodecError::Truncated);
        }
        Ok(IndexEntry {
            frame_offset: u64::from_le_bytes(b[0..8].try_into().unwrap()),
            uncompressed_offset: u64::from_le_bytes(b[8..16].try_into().unwrap()),
            frame_len: u32::from_le_bytes(b[16..20].try_into().unwrap()),
            uncompressed_len: u32::from_le_bytes(b[20..24].try_into().unwrap()),
            crc: u32::from_le_bytes(b[24..28].try_into().unwrap()),
            codec: CodecId::from_u8(b[28])?,
        })
    }
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
        if payload.len() < INDEX_FOOTER_LEN {
            return Err(CodecError::Truncated);
        }
        let footer = &payload[payload.len() - INDEX_FOOTER_LEN..];
        if footer[0..4] != INDEX_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = u32::from_le_bytes(footer[4..8].try_into().unwrap());
        if version != INDEX_VERSION {
            return Err(CodecError::Corrupt("unsupported index version"));
        }
        let count = u32::from_le_bytes(footer[8..12].try_into().unwrap());
        if count > MAX_INDEX_ENTRIES {
            return Err(CodecError::Corrupt("index entry count exceeds cap"));
        }
        let entries_len = count as usize * INDEX_ENTRY_LEN;
        if payload.len() != entries_len + INDEX_FOOTER_LEN {
            return Err(CodecError::Corrupt("index payload length mismatch"));
        }
        let entries_crc = u32::from_le_bytes(footer[12..16].try_into().unwrap());
        let entry_bytes = &payload[..entries_len];
        let actual = crc32(entry_bytes);
        if actual != entries_crc {
            return Err(CodecError::ChecksumMismatch { expected: entries_crc, actual });
        }
        let mut entries = Vec::with_capacity(count as usize);
        for chunk in entry_bytes.chunks_exact(INDEX_ENTRY_LEN) {
            entries.push(IndexEntry::decode(chunk)?);
        }
        let index = StreamIndex { entries };
        index.validate_monotone()?;
        Ok(index)
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

    /// Rebuilds an index by walking the frame headers of `wire` front to
    /// back (no decompression). Index frames are excluded. This is the
    /// trust-nothing path: it reads only what the stream itself says, so a
    /// missing or lying trailer never matters. Payload CRCs are *not*
    /// verified here — fetching a block always re-validates them.
    pub fn scan(wire: &[u8]) -> Result<StreamIndex> {
        let mut entries = Vec::new();
        let mut off = 0usize;
        let mut app = 0u64;
        while off < wire.len() {
            if wire.len() - off < HEADER_LEN {
                return Err(CodecError::Truncated);
            }
            let hb: &[u8; HEADER_LEN] = wire[off..off + HEADER_LEN].try_into().unwrap();
            let header = FrameHeader::parse(hb, DEFAULT_MAX_FRAME)?;
            let frame_len = HEADER_LEN + header.payload_len as usize;
            if wire.len() - off < frame_len {
                return Err(CodecError::Truncated);
            }
            if !header.index {
                entries.push(IndexEntry {
                    frame_offset: off as u64,
                    uncompressed_offset: app,
                    frame_len: frame_len as u32,
                    uncompressed_len: header.uncompressed_len,
                    crc: header.crc,
                    codec: header.codec,
                });
                app += u64::from(header.uncompressed_len);
            }
            off += frame_len;
        }
        Ok(StreamIndex { entries })
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

/// The trailer length for an `n`-entry index (header + entries + footer).
pub fn index_trailer_len(n: usize) -> usize {
    HEADER_LEN + n * INDEX_ENTRY_LEN + INDEX_FOOTER_LEN
}

/// Parses the index from the tail of a seekable stream. `tail` must be the
/// last `n` bytes of the stream with `n >=` the full trailer; callers that
/// only have the 16-byte footer use [`footer_trailer_len`] first to learn
/// how much tail to fetch. Validates the trailer frame header (magic,
/// [`crate::frame::FLAG_INDEX`], lengths, payload CRC) and the index
/// payload itself.
pub fn parse_index_trailer(tail: &[u8]) -> Result<StreamIndex> {
    let trailer_len = footer_trailer_len(tail)?;
    if tail.len() < trailer_len {
        return Err(CodecError::Truncated);
    }
    let frame = &tail[tail.len() - trailer_len..];
    let hb: &[u8; HEADER_LEN] = frame[..HEADER_LEN].try_into().unwrap();
    let header = FrameHeader::parse(hb, DEFAULT_MAX_FRAME)?;
    if !header.index || header.uncompressed_len != 0 {
        return Err(CodecError::Corrupt("trailer frame is not an index frame"));
    }
    let payload = &frame[HEADER_LEN..];
    if header.payload_len as usize != payload.len() {
        return Err(CodecError::Corrupt("index trailer length mismatch"));
    }
    let actual = crc32(payload);
    if actual != header.crc {
        return Err(CodecError::ChecksumMismatch { expected: header.crc, actual });
    }
    StreamIndex::parse_payload(payload)
}

/// Reads the footer at the end of `tail` (which must be at least
/// [`INDEX_FOOTER_LEN`] bytes of stream tail) and returns the full trailer
/// frame length, so the caller knows how many tail bytes to fetch for
/// [`parse_index_trailer`].
pub fn footer_trailer_len(tail: &[u8]) -> Result<usize> {
    if tail.len() < INDEX_FOOTER_LEN {
        return Err(CodecError::Truncated);
    }
    let footer = &tail[tail.len() - INDEX_FOOTER_LEN..];
    if footer[0..4] != INDEX_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = u32::from_le_bytes(footer[4..8].try_into().unwrap());
    if version != INDEX_VERSION {
        return Err(CodecError::Corrupt("unsupported index version"));
    }
    let count = u32::from_le_bytes(footer[8..12].try_into().unwrap());
    if count > MAX_INDEX_ENTRIES {
        return Err(CodecError::Corrupt("index entry count exceeds cap"));
    }
    Ok(index_trailer_len(count as usize))
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
    fn trailer_roundtrip_and_tail_parse() {
        let b1 = b"first block, quite repetitive repetitive. ".repeat(50);
        let b2 = b"second block with different content entirely. ".repeat(40);
        let (wire, index) = sample_stream(&[&b1, &b2]);
        assert_eq!(index.entries.len(), 2);
        assert_eq!(index.total_uncompressed(), (b1.len() + b2.len()) as u64);
        // Full-tail parse recovers the identical index.
        let parsed = parse_index_trailer(&wire).unwrap();
        assert_eq!(parsed, index);
        // Footer-first two-step parse: learn trailer length, then parse.
        let tl = footer_trailer_len(&wire[wire.len() - INDEX_FOOTER_LEN..]).unwrap();
        assert_eq!(tl, index_trailer_len(2));
        let parsed2 = parse_index_trailer(&wire[wire.len() - tl..]).unwrap();
        assert_eq!(parsed2, index);
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
    }

    #[test]
    fn corrupt_footer_magic_rejected() {
        let b = b"footer corruption target ".repeat(100);
        let (mut wire, _) = sample_stream(&[&b]);
        let n = wire.len();
        wire[n - INDEX_FOOTER_LEN] ^= 0xFF;
        assert!(parse_index_trailer(&wire).is_err());
        assert!(footer_trailer_len(&wire).is_err());
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
        assert!(footer_trailer_len(&wire[..INDEX_FOOTER_LEN - 1]).is_err());
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
        assert!(footer_trailer_len(&payload).is_err());
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
        assert_eq!(wire.len(), index_trailer_len(0));
        let parsed = parse_index_trailer(&wire).unwrap();
        assert!(parsed.entries.is_empty());
        assert_eq!(parsed.total_uncompressed(), 0);
    }
}
