//! Random-access reader for seekable streams: O(block) instead of
//! O(stream).
//!
//! [`IndexedReader`] loads the trailing block index written by a seekable
//! [`crate::stream::AdaptiveWriter`] (see [`adcomp_codecs::seek`]) and
//! serves [`IndexedReader::fetch_block`] / [`IndexedReader::read_range`]
//! by seeking straight to the covering frames and decoding only those.
//! There is one indexed block path: read + validate a frame, submit it to
//! the [`DecodePool`], take each block's share of the request straight out
//! of the buffer the pool releases. Without threads (the default) the pool
//! decodes inside `submit`; [`IndexedReader::set_pipeline_workers`] only
//! changes how many threads stand behind the same calls.
//!
//! The index is **advisory**: every block fetched through it is still
//! validated against its own frame header and payload CRC-32, and any
//! disagreement (missing, truncated or lying index; damaged block) makes
//! the affected request fall back to front-to-back streaming decode of the
//! stream itself, exactly what a non-seekable reader would do. A fallback
//! is counted ([`CounterKind::IndexFallbacks`]) but never an error by
//! itself.
//!
//! Frame and block buffers are recycled through the pool across requests
//! (a frame is read once and travels whole; nothing is staged or copied
//! between the source and `out`), so steady-state ranged reads perform no
//! heap allocation — mirroring the streaming pipeline's contract.

use crate::pipeline::{Decoded, DecodePool};
use adcomp_codecs::crc32::crc32;
use adcomp_codecs::frame::{FrameHeader, FrameReader, DEFAULT_MAX_FRAME, HEADER_LEN};
use adcomp_codecs::seek::{
    footer_trailer_len, parse_index_trailer, IndexEntry, StreamIndex, INDEX_FOOTER_LEN,
};
use adcomp_metrics::registry::{self, CounterKind, SpanKind};
use std::io::{self, Read, Seek, SeekFrom};

/// Random-access reader over a seekable stream (any `Read + Seek` source:
/// a file, a cursor over bytes in memory, …).
pub struct IndexedReader<R: Read + Seek> {
    inner: R,
    /// Total wire length of the underlying stream.
    stream_len: u64,
    /// The parsed index; `None` means "not indexed / index rejected" and
    /// every request takes the streaming fallback.
    index: Option<StreamIndex>,
    /// Every indexed block is decoded here: on the caller's thread by
    /// default, on worker threads after
    /// [`IndexedReader::set_pipeline_workers`].
    pool: DecodePool,
    /// Reused landing buffer for the pool's in-order releases.
    ready: Vec<Decoded>,
    /// Reused block buffer of the streaming fallback.
    range_buf: Vec<u8>,
    /// Logical (application-byte) position for the `Read`/`Seek` impls.
    pos: u64,
    /// Cached total application length (lazy in fallback mode).
    total_cache: Option<u64>,
    /// Requests that fell back to streaming decode.
    pub fallback_scans: u64,
}

impl<R: Read + Seek> IndexedReader<R> {
    /// Opens `inner`, attempting to load the index trailer from the tail.
    /// A stream without a (valid) trailer opens fine — it just serves every
    /// request through the streaming fallback.
    pub fn open(mut inner: R) -> io::Result<Self> {
        let stream_len = inner.seek(SeekFrom::End(0))?;
        let index = load_index(&mut inner, stream_len)?;
        let total_cache = index.as_ref().map(StreamIndex::total_uncompressed);
        Ok(IndexedReader {
            inner,
            stream_len,
            index,
            pool: DecodePool::new(1),
            ready: Vec::new(),
            range_buf: Vec::new(),
            pos: 0,
            total_cache,
            fallback_scans: 0,
        })
    }

    /// Whether a valid index trailer was found.
    pub fn is_indexed(&self) -> bool {
        self.index.is_some()
    }

    /// The loaded index, if any.
    pub fn index(&self) -> Option<&StreamIndex> {
        self.index.as_ref()
    }

    /// Decodes indexed blocks on `workers` pool threads (`workers <= 1`: on
    /// the caller's thread, the default). Outputs are byte-identical for
    /// any worker count: blocks are submitted in stream order and the pool
    /// releases them in submission order.
    pub fn set_pipeline_workers(&mut self, workers: usize) {
        // Every request drains the pool, so nothing is ever lost here.
        self.pool = DecodePool::new(workers);
    }

    /// Active pipeline worker count (1 = no threads).
    pub fn pipeline_workers(&self) -> usize {
        self.pool.workers()
    }

    /// Total application bytes in the stream. Indexed streams answer from
    /// the trailer; fallback mode walks the frame headers once (no
    /// decompression) and caches the result.
    pub fn total_uncompressed(&mut self) -> io::Result<u64> {
        if let Some(t) = self.total_cache {
            return Ok(t);
        }
        let mut off = 0u64;
        let mut app = 0u64;
        let mut hb = [0u8; HEADER_LEN];
        while off < self.stream_len {
            self.inner.seek(SeekFrom::Start(off))?;
            self.inner.read_exact(&mut hb)?;
            let header = FrameHeader::parse(&hb, DEFAULT_MAX_FRAME).map_err(to_io)?;
            if !header.index {
                app += u64::from(header.uncompressed_len);
            }
            off += (HEADER_LEN + header.payload_len as usize) as u64;
        }
        self.total_cache = Some(app);
        Ok(app)
    }

    /// Decodes block `i` in isolation (one seek, one frame read, one
    /// decode), appending its application bytes to `out` and returning the
    /// count. Fails with `InvalidData` when the stream is not indexed, `i`
    /// is out of bounds, or the block does not match the index entry —
    /// callers that want transparent recovery use
    /// [`IndexedReader::read_range`], which falls back by itself.
    pub fn fetch_block(&mut self, i: usize, out: &mut Vec<u8>) -> io::Result<usize> {
        if self.index.as_ref().is_none_or(|ix| i >= ix.entries.len()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "block index out of bounds or no index",
            ));
        }
        let before = out.len();
        self.decode_blocks(i..i + 1, |_, bytes| out.extend_from_slice(bytes))?;
        Ok(out.len() - before)
    }

    /// Appends the application bytes `[start, start + len)` to `out`,
    /// clamped to the stream end; returns the byte count (0 when `start`
    /// is at or past the end). Indexed streams decode only the covering
    /// blocks, through the decode pool, and any index/block disagreement
    /// falls back to front-to-back streaming decode, which fails fast.
    pub fn read_range(&mut self, start: u64, len: u64, out: &mut Vec<u8>) -> io::Result<usize> {
        let metrics = registry::global();
        let span = registry::span(SpanKind::RangedRead);
        if let Some(m) = metrics {
            m.counter_add(CounterKind::RangedReads, 1);
        }
        let before = out.len();
        if self.index.is_some() {
            match self.read_range_indexed(start, len, out) {
                Ok(n) => return Ok(n),
                Err(e) => {
                    out.truncate(before);
                    if e.kind() != io::ErrorKind::InvalidData {
                        return Err(e);
                    }
                    // Index or block lied; never trust it over the stream.
                    self.fallback_scans += 1;
                    if let Some(m) = metrics {
                        m.counter_add(CounterKind::IndexFallbacks, 1);
                    }
                }
            }
        }
        drop(span);
        self.read_range_streaming(start, len, out)
    }

    fn read_range_indexed(&mut self, start: u64, len: u64, out: &mut Vec<u8>) -> io::Result<usize> {
        let ix = self.index.as_ref().expect("indexed path without index");
        let total = ix.total_uncompressed();
        if start >= total || len == 0 {
            return Ok(0);
        }
        let blocks = ix.blocks_covering(start, len);
        let end = start + len.min(total - start);
        let before = out.len();
        // Each released block's share of the range goes straight to `out`.
        self.decode_blocks(blocks, |entry, bytes| {
            let within = |at: u64| {
                at.saturating_sub(entry.uncompressed_offset).min(bytes.len() as u64) as usize
            };
            out.extend_from_slice(&bytes[within(start)..within(end)]);
        })?;
        if (out.len() - before) as u64 != end - start {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "decoded covering blocks shorter than the index promised",
            ));
        }
        Ok(out.len() - before)
    }

    /// The one indexed block path: each block of `blocks` is read with one
    /// seek and one `read_exact`, validated against its index entry and its
    /// own CRC, decoded through the pool (the whole frame buffer travels,
    /// the payload is not copied out of it) and handed to `sink` in stream
    /// order. A block that fails validation or decode is `InvalidData`.
    /// The pool is always drained, so a failure leaves it reusable.
    fn decode_blocks(
        &mut self,
        blocks: std::ops::Range<usize>,
        mut sink: impl FnMut(&IndexEntry, &[u8]),
    ) -> io::Result<()> {
        let entries = &self.index.as_ref().expect("indexed path without index").entries[blocks];
        let (mut to_submit, mut to_release) = (entries.iter(), entries.iter());
        let mut outcome = Ok(());
        loop {
            // The next block goes in; after the last one, or a failure, the
            // blocks still in flight come out.
            let entry = to_submit.next().filter(|_| outcome.is_ok());
            match entry {
                Some(entry) => {
                    let mut frame = self.pool.wire_buf();
                    match read_validated_frame(&mut self.inner, entry, &mut frame) {
                        Ok(h) => self.pool.submit(
                            h.codec,
                            h.uncompressed_len as usize,
                            frame,
                            HEADER_LEN,
                            &mut self.ready,
                        ),
                        Err(e) => outcome = Err(e),
                    }
                }
                None => self.pool.drain(&mut self.ready),
            }
            for mut d in self.ready.drain(..) {
                let entry = to_release.next().expect("more blocks released than submitted");
                match d.err.take() {
                    Some(e) => outcome = outcome.and(Err(to_io(e))),
                    None if outcome.is_ok() => sink(entry, &d.bytes),
                    None => {}
                }
                self.pool.recycle(d);
            }
            if entry.is_none() {
                return outcome;
            }
        }
    }

    /// Trust-nothing path: decode the stream front to back, failing fast,
    /// keeping only `[start, start + len)`.
    fn read_range_streaming(
        &mut self,
        start: u64,
        len: u64,
        out: &mut Vec<u8>,
    ) -> io::Result<usize> {
        self.inner.seek(SeekFrom::Start(0))?;
        let mut frames = FrameReader::new(&mut self.inner);
        let mut block = std::mem::take(&mut self.range_buf);
        let mut app_off = 0u64;
        let mut taken = 0u64;
        while taken < len {
            block.clear();
            match frames.read_block(&mut block)? {
                Some(_) => {}
                None => break,
            }
            let block_start = app_off;
            app_off += block.len() as u64;
            if app_off <= start {
                continue;
            }
            let lo = start.saturating_sub(block_start).min(block.len() as u64) as usize;
            let hi = (block.len() as u64).min(start.saturating_add(len) - block_start) as usize;
            out.extend_from_slice(&block[lo..hi]);
            taken += (hi - lo) as u64;
        }
        self.range_buf = block;
        Ok(taken as usize)
    }
}

impl<R: Read + Seek> Read for IndexedReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut staged = Vec::new();
        let n = self.read_range(self.pos, buf.len() as u64, &mut staged)?;
        buf[..n].copy_from_slice(&staged[..n]);
        self.pos += n as u64;
        Ok(n)
    }
}

impl<R: Read + Seek> Seek for IndexedReader<R> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        let target = match pos {
            SeekFrom::Start(o) => Some(o),
            SeekFrom::Current(d) => self.pos.checked_add_signed(d),
            SeekFrom::End(d) => self.total_uncompressed()?.checked_add_signed(d),
        };
        match target {
            Some(t) => {
                self.pos = t;
                Ok(t)
            }
            None => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "seek to a negative or overflowing position",
            )),
        }
    }
}

/// Loads the index from the stream tail, treating any structural problem
/// as "not indexed" (the trailer is advisory). Genuine I/O errors still
/// surface.
fn load_index<R: Read + Seek>(inner: &mut R, stream_len: u64) -> io::Result<Option<StreamIndex>> {
    if stream_len < (INDEX_FOOTER_LEN + HEADER_LEN) as u64 {
        return Ok(None);
    }
    let mut footer = [0u8; INDEX_FOOTER_LEN];
    inner.seek(SeekFrom::Start(stream_len - INDEX_FOOTER_LEN as u64))?;
    inner.read_exact(&mut footer)?;
    let Ok(trailer_len) = footer_trailer_len(&footer) else { return Ok(None) };
    if trailer_len as u64 > stream_len {
        return Ok(None);
    }
    let mut tail = vec![0u8; trailer_len];
    inner.seek(SeekFrom::Start(stream_len - trailer_len as u64))?;
    inner.read_exact(&mut tail)?;
    let Ok(index) = parse_index_trailer(&tail) else { return Ok(None) };
    // The trailer must sit immediately after the last indexed frame.
    if index.total_wire() + trailer_len as u64 != stream_len {
        return Ok(None);
    }
    Ok(Some(index))
}

/// One frame read + validation against the index entry and the frame's own
/// CRC. On success `frame` holds the complete wire frame.
fn read_validated_frame<R: Read + Seek>(
    inner: &mut R,
    entry: &IndexEntry,
    frame: &mut Vec<u8>,
) -> io::Result<FrameHeader> {
    inner.seek(SeekFrom::Start(entry.frame_offset))?;
    frame.clear();
    frame.resize(entry.frame_len as usize, 0);
    inner.read_exact(frame)?;
    let (hb, payload) = frame.split_first_chunk::<HEADER_LEN>().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "frame shorter than header")
    })?;
    let header = FrameHeader::parse(hb, DEFAULT_MAX_FRAME).map_err(to_io)?;
    if header.payload_len as usize != payload.len()
        || header.crc != entry.crc
        || header.uncompressed_len != entry.uncompressed_len
        || header.codec != entry.codec
        || header.index
    {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "block frame disagrees with index entry",
        ));
    }
    let actual = crc32(payload);
    if actual != header.crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("block payload CRC mismatch: expected {:#010x}, got {actual:#010x}", header.crc),
        ));
    }
    Ok(header)
}

fn to_io(e: adcomp_codecs::CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StaticModel;
    use crate::stream::{AdaptiveReader, AdaptiveWriter};
    use crate::epoch::ManualClock;
    use adcomp_codecs::LevelSet;
    use std::io::{Cursor, Write};

    fn corpus(n: usize) -> Vec<u8> {
        (0..n)
            .flat_map(|i| format!("seekable corpus line {i:07} with some repetition. ").into_bytes())
            .collect()
    }

    fn seekable_wire(data: &[u8], level: usize, block: usize, workers: usize) -> Vec<u8> {
        let mut w = AdaptiveWriter::with_params(
            Vec::new(),
            LevelSet::paper_default(),
            Box::new(StaticModel::new(level, 4)),
            block,
            1.0,
            Box::new(ManualClock::new()),
        );
        w.set_seekable(true);
        if workers > 1 {
            w.set_pipeline_workers(workers);
        }
        w.write_all(data).unwrap();
        w.finish().unwrap().0
    }

    #[test]
    fn open_loads_index_and_reads_ranges_exactly() {
        let data = corpus(4000);
        let wire = seekable_wire(&data, 2, 4096, 1);
        let mut r = IndexedReader::open(Cursor::new(&wire)).unwrap();
        assert!(r.is_indexed());
        assert_eq!(r.total_uncompressed().unwrap(), data.len() as u64);
        for (start, len) in [
            (0u64, 100u64),
            (5000, 4096),
            (data.len() as u64 / 2, 10_000),
            (data.len() as u64 - 57, 1000),
            (data.len() as u64, 5),
        ] {
            let mut out = Vec::new();
            let n = r.read_range(start, len, &mut out).unwrap();
            let lo = (start as usize).min(data.len());
            let hi = (start + len).min(data.len() as u64) as usize;
            assert_eq!(n, hi - lo, "start={start} len={len}");
            assert_eq!(out, &data[lo..hi], "start={start} len={len}");
        }
        assert_eq!(r.fallback_scans, 0);
    }

    #[test]
    fn fetch_block_decodes_in_isolation() {
        let data = corpus(3000);
        let wire = seekable_wire(&data, 1, 4096, 1);
        let mut r = IndexedReader::open(Cursor::new(&wire)).unwrap();
        let entries = r.index().unwrap().entries.clone();
        assert!(entries.len() > 10);
        let mid = entries.len() / 2;
        let mut out = Vec::new();
        let n = r.fetch_block(mid, &mut out).unwrap();
        let e = entries[mid];
        assert_eq!(n as u32, e.uncompressed_len);
        let lo = e.uncompressed_offset as usize;
        assert_eq!(out, &data[lo..lo + n]);
        assert!(r.fetch_block(entries.len(), &mut out).is_err());
    }

    #[test]
    fn pooled_ranged_reads_match_serial_for_any_worker_count() {
        let data = corpus(6000);
        let wire = seekable_wire(&data, 2, 4096, 1);
        let ranges = [(0usize, 9000usize), (40_000, 123), (10_000, 80_000)];
        // One path for every worker count, so the reference is the source.
        for workers in [0usize, 1, 2, 4, 7] {
            let mut r = IndexedReader::open(Cursor::new(&wire)).unwrap();
            r.set_pipeline_workers(workers);
            assert_eq!(r.pipeline_workers(), workers.max(1));
            for (s, l) in ranges {
                let mut out = Vec::new();
                r.read_range(s as u64, l as u64, &mut out).unwrap();
                assert_eq!(out, &data[s..s + l], "workers={workers} start={s} len={l}");
            }
            assert_eq!(r.fallback_scans, 0);
        }
    }

    /// A `Read + Seek` source that counts the bytes it hands out.
    struct CountingSource<'a> {
        inner: Cursor<&'a [u8]>,
        bytes_read: u64,
    }

    impl Read for CountingSource<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.bytes_read += n as u64;
            Ok(n)
        }
    }

    impl Seek for CountingSource<'_> {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    /// The O(covering blocks) contract, without a clock: once the index is
    /// loaded, a 64 KiB ranged read in the middle pulls the covering frames
    /// off the source and nothing else, however long the stream is.
    #[test]
    fn ranged_read_touches_only_covering_frames() {
        const BLOCK: usize = 32 * 1024;
        const BASE: usize = 16 * BLOCK;
        const LEN: u64 = 64 * 1024;
        // (source bytes read by the ranged read, largest covering frame)
        let middle_read = |scale: usize| -> (u64, u64) {
            let data = adcomp_corpus::generate(adcomp_corpus::Class::Moderate, BASE * scale, 7);
            let wire = seekable_wire(&data, 2, BLOCK, 1);
            let source = CountingSource { inner: Cursor::new(&wire[..]), bytes_read: 0 };
            let mut r = IndexedReader::open(source).unwrap();
            let start = data.len() as u64 / 2 + 1000;
            let frames: Vec<u64> = {
                let ix = r.index().unwrap();
                ix.blocks_covering(start, LEN).map(|i| u64::from(ix.entries[i].frame_len)).collect()
            };
            assert_eq!(frames.len(), 3, "64 KiB off a block boundary spans three blocks");
            let after_open = r.inner.bytes_read;
            let mut out = Vec::new();
            r.read_range(start, LEN, &mut out).unwrap();
            assert_eq!(out, &data[start as usize..(start + LEN) as usize], "scale={scale}");
            assert_eq!(r.fallback_scans, 0);
            let read = r.inner.bytes_read - after_open;
            assert!(read > 0 && read <= frames.iter().sum::<u64>(), "scale={scale} read={read}");
            (read, frames.into_iter().max().unwrap())
        };
        let (read_1x, frame_1x) = middle_read(1);
        let (read_8x, frame_8x) = middle_read(8);
        assert!(
            read_1x.abs_diff(read_8x) <= frame_1x.max(frame_8x),
            "source bytes read must not grow with the stream: 1x={read_1x} 8x={read_8x}"
        );
    }

    #[test]
    fn seekable_wire_is_byte_identical_for_any_worker_count() {
        let data = corpus(5000);
        let reference = seekable_wire(&data, 2, 4096, 1);
        for workers in [2usize, 4, 8] {
            assert_eq!(
                seekable_wire(&data, 2, 4096, workers),
                reference,
                "workers={workers}"
            );
        }
        // And the trailer really is the only difference vs non-seekable.
        let mut w = AdaptiveWriter::with_params(
            Vec::new(),
            LevelSet::paper_default(),
            Box::new(StaticModel::new(2, 4)),
            4096,
            1.0,
            Box::new(ManualClock::new()),
        );
        w.write_all(&data).unwrap();
        let (plain, _) = w.finish().unwrap();
        assert_eq!(&reference[..plain.len()], &plain[..]);
        assert!(reference.len() > plain.len());
    }

    #[test]
    fn streaming_reader_decodes_seekable_stream_unchanged() {
        let data = corpus(2000);
        let wire = seekable_wire(&data, 1, 4096, 1);
        for workers in [1usize, 4] {
            let mut r = AdaptiveReader::new(&wire[..]);
            r.set_pipeline_workers(workers);
            let mut out = Vec::new();
            r.read_to_end(&mut out).unwrap();
            assert_eq!(out, data, "workers={workers}");
            assert_eq!(r.wire_bytes(), wire.len() as u64);
            assert_eq!(r.recovery(), adcomp_codecs::frame::RecoveryStats::default());
        }
    }

    #[test]
    fn non_indexed_stream_falls_back_to_streaming() {
        let data = corpus(1500);
        let mut w = AdaptiveWriter::with_params(
            Vec::new(),
            LevelSet::paper_default(),
            Box::new(StaticModel::new(1, 4)),
            4096,
            1.0,
            Box::new(ManualClock::new()),
        );
        w.write_all(&data).unwrap();
        let (wire, _) = w.finish().unwrap();
        let mut r = IndexedReader::open(Cursor::new(&wire)).unwrap();
        assert!(!r.is_indexed());
        let mut out = Vec::new();
        let n = r.read_range(10_000, 5000, &mut out).unwrap();
        assert_eq!(n, 5000);
        assert_eq!(out, &data[10_000..15_000]);
        assert_eq!(r.total_uncompressed().unwrap(), data.len() as u64);
    }

    #[test]
    fn corrupt_index_trailer_falls_back_not_fails() {
        let data = corpus(2000);
        let mut wire = seekable_wire(&data, 1, 4096, 1);
        // Flip a byte inside the entry table.
        let n = wire.len();
        wire[n - INDEX_FOOTER_LEN - 7] ^= 0x40;
        let mut r = IndexedReader::open(Cursor::new(&wire)).unwrap();
        assert!(!r.is_indexed(), "damaged trailer must be rejected, not trusted");
        let mut out = Vec::new();
        let cnt = r.read_range(5000, 2000, &mut out).unwrap();
        assert_eq!(cnt, 2000);
        assert_eq!(out, &data[5000..7000]);
    }

    #[test]
    fn corrupt_block_under_valid_index_falls_back_per_request() {
        let data = corpus(4000);
        let mut wire = seekable_wire(&data, 1, 4096, 1);
        let r0 = IndexedReader::open(Cursor::new(&wire)).unwrap();
        let entries = r0.index().unwrap().entries.clone();
        let victim = entries[entries.len() / 2];
        // Damage the middle block's payload; the index still points at it.
        wire[victim.frame_offset as usize + HEADER_LEN + 3] ^= 0x01;
        // A range covering the damaged block falls back to streaming decode,
        // which fails fast at the damaged block with a typed error; pooled
        // reads take the same fallback to the same error. A range inside an
        // undamaged block still uses the index.
        let s = victim.uncompressed_offset;
        for workers in [1usize, 4] {
            let mut r = IndexedReader::open(Cursor::new(&wire)).unwrap();
            r.set_pipeline_workers(workers);
            assert!(r.is_indexed());
            let mut out = Vec::new();
            r.read_range(0, 1000, &mut out).unwrap();
            assert_eq!(out, &data[..1000]);
            assert_eq!(r.fallback_scans, 0);
            let mut out = Vec::new();
            let err = r.read_range(s, u64::from(victim.uncompressed_len), &mut out).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "workers={workers}");
            assert_eq!(r.fallback_scans, 1);
        }
    }

    #[test]
    fn truncated_stream_loses_index_but_prefix_still_reads() {
        let data = corpus(3000);
        let wire = seekable_wire(&data, 1, 4096, 1);
        // Cut the stream mid-trailer: the index is gone.
        let cut = &wire[..wire.len() - 10];
        let mut r = IndexedReader::open(Cursor::new(cut)).unwrap();
        assert!(!r.is_indexed());
        let mut out = Vec::new();
        let n = r.read_range(0, 4096, &mut out).unwrap();
        assert_eq!(n, 4096);
        assert_eq!(out, &data[..4096]);
    }

    #[test]
    fn read_and_seek_impls_walk_the_stream() {
        let data = corpus(1200);
        let wire = seekable_wire(&data, 2, 4096, 1);
        let mut r = IndexedReader::open(Cursor::new(&wire)).unwrap();
        r.seek(SeekFrom::End(-500)).unwrap();
        let mut tail = Vec::new();
        r.read_to_end(&mut tail).unwrap();
        assert_eq!(tail, &data[data.len() - 500..]);
        r.seek(SeekFrom::Start(42)).unwrap();
        let mut buf = [0u8; 64];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf[..], &data[42..106]);
    }

    #[test]
    fn empty_seekable_stream_roundtrips() {
        let mut w = AdaptiveWriter::new(
            Vec::new(),
            LevelSet::paper_default(),
            Box::new(StaticModel::new(1, 4)),
        );
        w.set_seekable(true);
        let (wire, stats) = w.finish().unwrap();
        assert_eq!(stats.app_bytes, 0);
        assert!(!wire.is_empty(), "even an empty stream carries its trailer");
        let mut r = IndexedReader::open(Cursor::new(&wire)).unwrap();
        assert!(r.is_indexed());
        assert_eq!(r.total_uncompressed().unwrap(), 0);
        let mut out = Vec::new();
        assert_eq!(r.read_range(0, 100, &mut out).unwrap(), 0);
    }
}
