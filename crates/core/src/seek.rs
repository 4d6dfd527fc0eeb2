//! Random-access reader for seekable streams: O(block) instead of
//! O(stream).
//!
//! [`IndexedReader::open`] settles once where the stream's block index
//! comes from: the trailer a seekable [`crate::stream::AdaptiveWriter`]
//! writes (see [`adcomp_codecs::seek`]) when it parses and ends exactly
//! where the stream ends, else one walk of the frame headers
//! ([`StreamIndex::walk`], 16 bytes per frame). Every request after that
//! takes the one indexed block path: read + validate each frame it needs,
//! submit it to the [`DecodePool`], take the block's share of the request
//! ([`StreamIndex::shares_from`]) straight out of the buffer the pool
//! releases. Without threads (the default) the pool decodes inside
//! `submit`; [`IndexedReader::set_pipeline_workers`] only changes how many
//! threads stand behind the same calls.
//!
//! The index says where blocks are, not what they hold: a block that
//! disagrees with its entry, fails its payload CRC-32 or fails to decode is
//! `InvalidData`, as in every other reader. A trailer's offsets are covered
//! by its entry CRC. A walk's rest on header lengths no CRC covers, so on
//! a walked index a request also decodes the blocks before its range that
//! no earlier request has (all of them, for a range the end clamps), and
//! fails where one of them does: the first request is O(prefix), later
//! ones O(block). A walk that stopped early (a header that does not parse,
//! the index flag on a data frame, a frame the stream cuts short) keeps
//! the frames before it; a request that reaches past them fails with the
//! walk's error, and so does [`IndexedReader::total_uncompressed`].
//!
//! Frame and block buffers are recycled through the pool across requests
//! (a frame is read once and travels whole; nothing is staged or copied
//! between the source and `out`), so steady-state ranged reads perform no
//! heap allocation — mirroring the streaming pipeline's contract.

use crate::pipeline::{Decoded, DecodePool};
use adcomp_codecs::frame::{FrameHeader, HEADER_LEN};
use adcomp_codecs::seek::{IndexEntry, IndexFooter, StreamIndex, INDEX_FOOTER_LEN};
use adcomp_codecs::CodecError;
use adcomp_metrics::registry::{self, CounterKind, SpanKind};
use std::io::{self, Read, Seek, SeekFrom};

/// Random-access reader over a seekable stream (any `Read + Seek` source:
/// a file, a cursor over bytes in memory, …).
pub struct IndexedReader<R: Read + Seek> {
    inner: R,
    /// The block index, from the trailer or from the header walk.
    index: StreamIndex,
    /// What stopped the header walk short of the stream's end; `None` for
    /// a trailer index and for a walk that reached the end.
    walk_error: Option<CodecError>,
    /// Leading entries whose application offsets are settled: all of a
    /// trailer's, and of a walk's the blocks decoded so far. A request
    /// decodes the unsettled blocks before its range along with it.
    settled: usize,
    /// Every block is decoded here: on the caller's thread by default, on
    /// worker threads after [`IndexedReader::set_pipeline_workers`].
    pool: DecodePool,
    /// Reused landing buffer for the pool's in-order releases.
    ready: Vec<Decoded>,
}

impl<R: Read + Seek> IndexedReader<R> {
    /// Opens `inner` and indexes it: from the trailer when one checks out,
    /// else by walking the frame headers. Only the source's own I/O errors
    /// fail here; a walk that stops early fails the requests that reach
    /// past it.
    pub fn open(mut inner: R) -> io::Result<Self> {
        let stream_len = inner.seek(SeekFrom::End(0))?;
        let trailer = load_trailer(&mut inner, stream_len)?;
        let settled = trailer.as_ref().map_or(0, |index| index.entries.len());
        let (index, walk_error) = match trailer {
            Some(index) => (index, None),
            None => StreamIndex::walk(stream_len, |off| {
                let mut hb = [0u8; HEADER_LEN];
                inner.seek(SeekFrom::Start(off))?;
                inner.read_exact(&mut hb)?;
                Ok::<_, io::Error>(hb)
            })?,
        };
        let (pool, ready) = (DecodePool::new(1), Vec::new());
        Ok(IndexedReader { inner, index, walk_error, settled, pool, ready })
    }

    /// The block index.
    pub fn index(&self) -> &StreamIndex {
        &self.index
    }

    /// Decodes blocks on `workers` pool threads (`workers <= 1`: on the
    /// caller's thread, the default). Outputs are byte-identical for any
    /// worker count: blocks are submitted in stream order and the pool
    /// releases them in submission order.
    pub fn set_pipeline_workers(&mut self, workers: usize) {
        // Every request drains the pool, so nothing is ever lost here.
        self.pool = DecodePool::new(workers);
    }

    /// Total application bytes in the stream, or the error that stopped
    /// the header walk short of its end.
    pub fn total_uncompressed(&self) -> io::Result<u64> {
        match &self.walk_error {
            Some(e) => Err(to_io(e.clone())),
            None => Ok(self.index.total_uncompressed()),
        }
    }

    /// Decodes block `i` in isolation (one seek, one frame read, one
    /// decode), appending its application bytes to `out` and returning the
    /// count. Fails with `InvalidData` when `i` is out of bounds or the
    /// block does not match its index entry.
    pub fn fetch_block(&mut self, i: usize, out: &mut Vec<u8>) -> io::Result<usize> {
        let Some(e) = self.index.entries.get(i) else {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "block index out of bounds"));
        };
        let (start, len) = (e.uncompressed_offset, u64::from(e.uncompressed_len));
        self.decode_blocks(start, len, out)
    }

    /// Appends the application bytes `[start, start + len)` to `out`,
    /// clamped to the stream end; returns the byte count (0 when `start`
    /// is at or past the end). The covering blocks are read and decoded
    /// through the decode pool, after any unsettled block before them on a
    /// walked index. A range that reaches past the frames a stopped header
    /// walk indexed fails with the walk's error.
    pub fn read_range(&mut self, start: u64, len: u64, out: &mut Vec<u8>) -> io::Result<usize> {
        if let Some(m) = registry::global() {
            m.counter_add(CounterKind::RangedReads, 1);
        }
        let _span = registry::span(SpanKind::RangedRead);
        if let Some(e) = &self.walk_error {
            if start.saturating_add(len) > self.index.total_uncompressed() {
                return Err(to_io(e.clone()));
            }
        }
        self.decode_blocks(start, len, out)
    }

    /// The one block path: each block from the first unsettled one (or
    /// the first covering one, if earlier) through the last covering one is
    /// read with one seek and one `read_exact`, validated against its index
    /// entry and its own CRC, decoded through the pool (the whole frame
    /// buffer travels, the payload is not copied out of it) and its share
    /// appended to `out` in stream order. A block that fails validation or
    /// decode, or decodes shorter than its share, is `InvalidData` and
    /// leaves `out` as it was. The pool is always drained, so a failure
    /// leaves it reusable.
    fn decode_blocks(&mut self, start: u64, len: u64, out: &mut Vec<u8>) -> io::Result<usize> {
        let before = out.len();
        let (through, shares) = self.index.shares_from(self.settled, start, len);
        let (mut to_submit, mut to_release) = (shares.clone(), shares);
        let mut outcome = Ok(());
        loop {
            // The next block goes in; after the last one, or a failure, the
            // blocks still in flight come out.
            let next = to_submit.next().filter(|_| outcome.is_ok());
            match &next {
                Some((entry, _)) => {
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
                // The pool releases exactly the blocks submitted, in order.
                let (_, share) = to_release.next().expect("more blocks released than submitted");
                match d.err.take() {
                    Some(e) => outcome = outcome.and(Err(to_io(e))),
                    None if outcome.is_ok() => match d.bytes.get(share) {
                        Some(bytes) => out.extend_from_slice(bytes),
                        None => {
                            outcome = Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                "decoded block shorter than its share",
                            ))
                        }
                    },
                    None => {}
                }
                self.pool.recycle(d);
            }
            if next.is_none() {
                break;
            }
        }
        match outcome {
            Ok(()) => {
                self.settled = self.settled.max(through);
                Ok(out.len() - before)
            }
            Err(e) => {
                out.truncate(before);
                Err(e)
            }
        }
    }
}

/// Loads the index from the stream tail: a footer, then the trailer it
/// ends, which must end exactly where the stream ends. `None` when any of
/// that does not check out; genuine I/O errors still surface.
fn load_trailer<R: Read + Seek>(inner: &mut R, stream_len: u64) -> io::Result<Option<StreamIndex>> {
    if stream_len < (INDEX_FOOTER_LEN + HEADER_LEN) as u64 {
        return Ok(None);
    }
    let mut footer = [0u8; INDEX_FOOTER_LEN];
    inner.seek(SeekFrom::Start(stream_len - INDEX_FOOTER_LEN as u64))?;
    inner.read_exact(&mut footer)?;
    let Ok(footer) = IndexFooter::parse(&footer) else { return Ok(None) };
    let trailer_len = footer.trailer_len() as u64;
    if trailer_len > stream_len {
        return Ok(None);
    }
    let mut trailer = vec![0u8; trailer_len as usize];
    inner.seek(SeekFrom::Start(stream_len - trailer_len))?;
    inner.read_exact(&mut trailer)?;
    // The trailer must sit immediately after the last indexed frame.
    let index = footer.parse_trailer(&trailer).ok();
    Ok(index.filter(|ix| ix.total_wire() + trailer_len == stream_len))
}

/// One frame read + [`IndexEntry::check_frame`]. On success `frame` holds
/// the complete wire frame.
fn read_validated_frame<R: Read + Seek>(
    inner: &mut R,
    entry: &IndexEntry,
    frame: &mut Vec<u8>,
) -> io::Result<FrameHeader> {
    inner.seek(SeekFrom::Start(entry.frame_offset))?;
    frame.clear();
    frame.resize(entry.frame_len as usize, 0);
    inner.read_exact(frame)?;
    entry.check_frame(frame).map(|(header, _)| header).map_err(to_io)
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

    /// The stream a plain writer would have written: the seekable wire
    /// without its trailer.
    fn plain_twin(seekable: &[u8]) -> Vec<u8> {
        seekable[..StreamIndex::scan(seekable).unwrap().total_wire() as usize].to_vec()
    }

    #[test]
    fn open_loads_index_and_reads_ranges_exactly() {
        let data = corpus(4000);
        let wire = seekable_wire(&data, 2, 4096, 1);
        let mut r = IndexedReader::open(Cursor::new(&wire)).unwrap();
        assert!(r.walk_error.is_none());
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
    }

    #[test]
    fn fetch_block_decodes_in_isolation() {
        let data = corpus(3000);
        let wire = seekable_wire(&data, 1, 4096, 1);
        let mut r = IndexedReader::open(Cursor::new(&wire)).unwrap();
        let entries = r.index().entries.clone();
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
            for (s, l) in ranges {
                let mut out = Vec::new();
                r.read_range(s as u64, l as u64, &mut out).unwrap();
                assert_eq!(out, &data[s..s + l], "workers={workers} start={s} len={l}");
            }
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

    /// The O(covering blocks) contract, without a clock: a 64 KiB ranged
    /// read in the middle pulls the covering frames off the source and
    /// nothing else, however long the stream is, with or without a
    /// trailer. Opening a plain stream reads the footer probe and one
    /// header per frame; its first request also decodes the blocks before
    /// the range, once, to settle their offsets, and reads no further than
    /// the range's last frame.
    #[test]
    fn ranged_read_touches_only_covering_frames() {
        const BLOCK: usize = 32 * 1024;
        const BASE: usize = 16 * BLOCK;
        const LEN: u64 = 64 * 1024;
        // (source bytes read by a settled ranged read, largest covering frame)
        let middle_read = |scale: usize, seekable: bool| -> (u64, u64) {
            let data = adcomp_corpus::generate(adcomp_corpus::Class::Moderate, BASE * scale, 7);
            let mut wire = seekable_wire(&data, 2, BLOCK, 1);
            if !seekable {
                wire = plain_twin(&wire);
            }
            let source = CountingSource { inner: Cursor::new(&wire[..]), bytes_read: 0 };
            let mut r = IndexedReader::open(source).unwrap();
            let start = data.len() as u64 / 2 + 1000;
            let want = &data[start as usize..(start + LEN) as usize];
            let covering = r.index().blocks_covering(start, LEN);
            assert_eq!(covering.len(), 3, "64 KiB off a block boundary spans three blocks");
            let frames: Vec<u64> =
                r.index().entries[..covering.end].iter().map(|e| u64::from(e.frame_len)).collect();
            let mut out = Vec::new();
            if !seekable {
                let after_open = r.inner.bytes_read;
                let probe_and_headers = INDEX_FOOTER_LEN + r.index().entries.len() * HEADER_LEN;
                assert!(after_open <= probe_and_headers as u64, "scale={scale} open={after_open}");
                r.read_range(start, LEN, &mut out).unwrap();
                assert_eq!(out, want, "scale={scale} settling");
                let settling = r.inner.bytes_read - after_open;
                assert!(settling <= frames.iter().sum::<u64>(), "scale={scale} read={settling}");
                out.clear();
            }
            let before = r.inner.bytes_read;
            r.read_range(start, LEN, &mut out).unwrap();
            assert_eq!(out, want, "scale={scale}");
            let read = r.inner.bytes_read - before;
            let covering_frames = &frames[covering.start..];
            let most = covering_frames.iter().sum::<u64>();
            assert!(read > 0 && read <= most, "scale={scale} read={read}");
            (read, covering_frames.iter().copied().max().unwrap())
        };
        for seekable in [true, false] {
            let (read_1x, frame_1x) = middle_read(1, seekable);
            let (read_8x, frame_8x) = middle_read(8, seekable);
            assert!(
                read_1x.abs_diff(read_8x) <= frame_1x.max(frame_8x),
                "source bytes read must not grow with the stream: seekable={seekable} \
                 1x={read_1x} 8x={read_8x}"
            );
        }
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
    fn plain_stream_is_indexed_by_its_header_walk() {
        let data = corpus(1500);
        let seekable = seekable_wire(&data, 1, 4096, 1);
        let mut r = IndexedReader::open(Cursor::new(plain_twin(&seekable))).unwrap();
        // The walk finds what the seekable twin's trailer lists.
        assert_eq!(r.index(), IndexedReader::open(Cursor::new(&seekable)).unwrap().index());
        let mut out = Vec::new();
        let n = r.read_range(10_000, 5000, &mut out).unwrap();
        assert_eq!(n, 5000);
        assert_eq!(out, &data[10_000..15_000]);
        assert_eq!(r.total_uncompressed().unwrap(), data.len() as u64);
    }

    #[test]
    fn corrupt_index_trailer_is_replaced_by_the_walk() {
        let data = corpus(2000);
        let mut wire = seekable_wire(&data, 1, 4096, 1);
        let trailer_index = StreamIndex::scan(&wire).unwrap();
        // Flip a byte inside the entry table.
        let n = wire.len();
        wire[n - INDEX_FOOTER_LEN - 7] ^= 0x40;
        let mut r = IndexedReader::open(Cursor::new(&wire)).unwrap();
        assert_eq!(r.index(), &trailer_index, "the walk indexes the same frames");
        assert!(r.walk_error.is_none(), "the walk skips the damaged trailer frame");
        let mut out = Vec::new();
        let cnt = r.read_range(5000, 2000, &mut out).unwrap();
        assert_eq!(cnt, 2000);
        assert_eq!(out, &data[5000..7000]);
    }

    /// A damaged block fails the requests that cover it. Under a trailer,
    /// whose entries place every block, a range after the damage is served
    /// from blocks that pass their own CRCs; on a walked index the damaged
    /// block's length places everything after it, so a range there fails
    /// too, as every read of it did before.
    #[test]
    fn corrupt_block_fails_the_requests_that_depend_on_it() {
        let data = corpus(4000);
        let seekable = seekable_wire(&data, 1, 4096, 1);
        let entries = StreamIndex::scan(&seekable).unwrap().entries;
        let victim = entries[entries.len() / 2];
        let after = entries[entries.len() / 2 + 2];
        for (name, mut wire) in [("seekable", seekable.clone()), ("plain", plain_twin(&seekable))] {
            // Damage the middle block's payload; the index still points at it.
            wire[victim.frame_offset as usize + HEADER_LEN + 3] ^= 0x01;
            for workers in [1usize, 4] {
                let mut r = IndexedReader::open(Cursor::new(&wire)).unwrap();
                r.set_pipeline_workers(workers);
                let mut out = Vec::new();
                r.read_range(0, 1000, &mut out).unwrap();
                assert_eq!(out, &data[..1000]);
                let mut out = b"kept".to_vec();
                let err = r.read_range(victim.uncompressed_offset - 10, 20, &mut out).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name} workers={workers}");
                assert_eq!(out, b"kept", "a failed request leaves `out` as it was");
                let mut out = Vec::new();
                let read = r.read_range(after.uncompressed_offset, 3000, &mut out);
                let s = after.uncompressed_offset as usize;
                match name {
                    "seekable" => assert_eq!(out, &data[s..s + 3000], "workers={workers}"),
                    _ => assert_eq!(read.unwrap_err().kind(), io::ErrorKind::InvalidData),
                }
            }
        }
    }

    /// The index flag flipped on a plain stream's middle data frame: the
    /// frame would drop out of a walk that stepped over it, and every later
    /// offset with it. The walk stops there instead.
    #[test]
    fn index_flag_on_a_data_frame_stops_the_walk() {
        let data = corpus(1500);
        let mut wire = plain_twin(&seekable_wire(&data, 1, 4096, 1));
        let entries = StreamIndex::scan(&wire).unwrap().entries;
        let mid = entries[entries.len() / 2];
        wire[mid.frame_offset as usize + 3] ^= 1 << 2;
        assert!(StreamIndex::scan(&wire).is_err());
        let total = data.len() as u64;
        let after = mid.uncompressed_offset + u64::from(mid.uncompressed_len);
        for (start, len) in [(0, total), (after, 100)] {
            let mut r = IndexedReader::open(Cursor::new(&wire)).unwrap();
            let mut out = Vec::new();
            let err = r.read_range(start, len, &mut out).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "[{start}, +{len})");
        }
    }

    /// Every single-bit flip of every frame header of a plain stream, read
    /// in ranges through a walked index: each read is the source's own
    /// bytes or a typed error, never shifted or missing bytes. A header
    /// that lies about a length the walk cannot check is caught when its
    /// block decodes, which a request after it waits for. The stream mixes
    /// compressed and RAW blocks; each range is read on a reader of its
    /// own, then all of them, last first, on one reader.
    #[test]
    fn every_header_bit_flip_of_a_plain_stream_through_ranged_reads() {
        use adcomp_corpus::{generate, Class};
        let data: Vec<u8> = [(Class::Moderate, 1), (Class::Low, 3), (Class::High, 2)]
            .into_iter()
            .flat_map(|(class, seed)| generate(class, 4096, seed))
            .chain(generate(Class::Moderate, 1500, 4))
            .collect();
        let wire = plain_twin(&seekable_wire(&data, 2, 4096, 1));
        let entries = StreamIndex::scan(&wire).unwrap().entries;
        assert!(entries.iter().any(|e| e.codec == adcomp_codecs::CodecId::Raw));
        let total = data.len() as u64;
        let ranges = [(0, total + 1), (5000, 100), (4000, 8300), (9000, 4000), (total - 10, 100)];
        // `None` when the read is the source window or a typed error.
        let judge = |r: &mut IndexedReader<Cursor<&[u8]>>, (start, len): (u64, u64)| {
            let mut out = Vec::new();
            match r.read_range(start, len, &mut out) {
                Err(e) => {
                    let typed = [io::ErrorKind::InvalidData, io::ErrorKind::UnexpectedEof];
                    (!typed.contains(&e.kind())).then(|| format!("untyped {:?}: {e}", e.kind()))
                }
                Ok(_) => {
                    let window = &data[start as usize..(start + len).min(total) as usize];
                    (out != window).then(|| format!("{} bytes out, not the source", out.len()))
                }
            }
        };
        let mut violations = Vec::new();
        for (frame, e) in entries.iter().enumerate() {
            for bit in 0..HEADER_LEN * 8 {
                let mut flipped = wire.clone();
                flipped[e.frame_offset as usize + bit / 8] ^= 1 << (bit % 8);
                let open = || IndexedReader::open(Cursor::new(&flipped[..])).unwrap();
                let mut shared = open();
                let mut reads: Vec<_> =
                    ranges.iter().map(|&range| ("own", range, judge(&mut open(), range))).collect();
                for &range in ranges.iter().rev() {
                    reads.push(("shared", range, judge(&mut shared, range)));
                }
                for (reader, range, why) in reads {
                    let at = format!("frame {frame} bit {bit} {reader} {range:?}");
                    violations.extend(why.map(|why| format!("{at}: {why}")));
                }
            }
        }
        assert!(violations.is_empty(), "{} reads:\n{}", violations.len(), violations.join("\n"));
    }

    /// A trailer that passes its own CRC but lies is not routed around: the
    /// block it misplaces fails its check.
    #[test]
    fn lying_trailer_is_a_typed_error() {
        let data = corpus(2000);
        let wire = seekable_wire(&data, 1, 4096, 1);
        let mut index = StreamIndex::scan(&wire).unwrap();
        index.entries[1].crc ^= 1;
        let mut lying = plain_twin(&wire);
        adcomp_codecs::seek::encode_index_trailer(&index, &mut lying);
        let mut r = IndexedReader::open(Cursor::new(&lying)).unwrap();
        assert_eq!(r.index(), &index, "the trailer checks out on its own");
        let mut out = Vec::new();
        r.read_range(0, 100, &mut out).unwrap();
        let err = r.read_range(index.entries[1].uncompressed_offset, 100, &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn cut_trailer_leaves_a_walk_that_serves_its_prefix() {
        let data = corpus(3000);
        let wire = seekable_wire(&data, 1, 4096, 1);
        // Cut the stream mid-trailer: the walk indexes every data frame,
        // then stops at the cut trailer frame.
        let cut = &wire[..wire.len() - 10];
        let mut r = IndexedReader::open(Cursor::new(cut)).unwrap();
        assert_eq!(r.walk_error, Some(CodecError::Truncated));
        let mut out = Vec::new();
        let n = r.read_range(0, 4096, &mut out).unwrap();
        assert_eq!(n, 4096);
        assert_eq!(out, &data[..4096]);
        // Past the last indexed byte, and the total itself, are the cut.
        let total = data.len() as u64;
        let err = r.read_range(total - 10, 11, &mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(r.total_uncompressed().is_err());
    }

    /// Every cut of a small seekable stream and of its plain twin, through
    /// `open`, a whole-range read and a one-block read: each read returns
    /// the source's own bytes or a typed error, never other bytes, never a
    /// panic. A range that reaches a cut inside a frame fails. A cut at a
    /// frame boundary leaves a shorter stream that reads back as a prefix
    /// without an error: nothing in a plain stream says where it ends
    /// (ROADMAP item 2 makes the trailer that terminator).
    #[test]
    fn every_truncation_offset_reads_the_source_or_fails_typed() {
        let data = corpus(300);
        let seekable = seekable_wire(&data, 1, 4096, 1);
        let entries = StreamIndex::scan(&seekable).unwrap().entries;
        assert!((3..=4).contains(&entries.len()), "{} data frames", entries.len());
        let one_block = (entries[1].uncompressed_offset, u64::from(entries[1].uncompressed_len));
        let end = |e: &IndexEntry| e.frame_offset + u64::from(e.frame_len);
        for wire in [seekable.clone(), plain_twin(&seekable)] {
            for cut in 0..=wire.len() as u64 {
                // Application bytes of the frames wholly before the cut.
                let whole = entries.iter().filter(|e| end(e) <= cut);
                let intact: u64 = whole.map(|e| u64::from(e.uncompressed_len)).sum();
                let mid_frame = entries.iter().any(|e| e.frame_offset < cut && cut < end(e));
                let mut r = IndexedReader::open(Cursor::new(&wire[..cut as usize])).unwrap();
                for (start, len) in [(0, data.len() as u64), one_block] {
                    let at = format!("cut={cut} [{start}, +{len})");
                    let mut out = Vec::new();
                    match r.read_range(start, len, &mut out) {
                        Err(e) => {
                            let kind = e.kind();
                            let typed = [io::ErrorKind::InvalidData, io::ErrorKind::UnexpectedEof];
                            assert!(typed.contains(&kind), "{at}: {e}");
                        }
                        Ok(n) => {
                            assert!(!mid_frame || start + len <= intact, "{at}: read past the cut");
                            let want = (start + len).min(intact).saturating_sub(start) as usize;
                            let s = start as usize;
                            assert_eq!((n, &out[..]), (want, &data[s..s + n]), "{at}");
                        }
                    }
                }
            }
        }
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
        assert!(r.index().entries.is_empty());
        assert_eq!(r.total_uncompressed().unwrap(), 0);
        let mut out = Vec::new();
        assert_eq!(r.read_range(0, 100, &mut out).unwrap(), 0);
    }
}
