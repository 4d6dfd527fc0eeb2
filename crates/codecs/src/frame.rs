//! Self-describing block frames.
//!
//! The paper: "Nephele internally buffers data [...] in memory blocks of at
//! most 128 KB size [...]. Each of these blocks is passed independently to
//! the [...] compression library. This means each block contains all the
//! information to be decompressed by the receiver, including meta
//! information about compression algorithm".
//!
//! Layout (little-endian):
//!
//! ```text
//! 0   u8  magic0 = 0xAD
//! 1   u8  magic1 = 0xC2
//! 2   u8  codec id           (CodecId on the wire; Raw if fallback hit)
//! 3   u8  flags              (bit 0: raw fallback — compression expanded;
//!                             bit 1: reserved, set by older record-aligned
//!                             writers and ignored; bit 2: index trailer)
//! 4   u32 uncompressed length
//! 8   u32 payload length
//! 12  u32 CRC-32 of payload
//! 16  payload bytes
//! ```

use crate::crc32::crc32;
use crate::{codec_for, Codec, CodecError, CodecId, DecodeScratch, Result, Scratch};
use adcomp_metrics::registry::{self, CounterKind, LabelFamily, MetricsRegistry, SpanKind};
use adcomp_trace::{CodecEvent, TraceEvent, TraceHandle, NO_EPOCH};
use std::io::{self, Read, Write};

/// Frame magic bytes.
pub const MAGIC: [u8; 2] = [0xAD, 0xC2];
/// Size of the fixed frame header.
pub const HEADER_LEN: usize = 16;
/// The paper's block size: at most 128 KiB of application data per block.
pub const DEFAULT_BLOCK_LEN: usize = 128 * 1024;
/// Flag: payload stored raw because compression expanded the block.
pub const FLAG_RAW_FALLBACK: u8 = 0b0000_0001;
/// Flag: metadata frame carrying the seekable-stream block index (see
/// [`crate::seek`]). Index frames declare `uncompressed_len = 0` and
/// contribute no application bytes; streaming readers CRC-validate and
/// skip them.
pub const FLAG_INDEX: u8 = 0b0000_0100;
/// Default decompression-bomb guard: a frame header may not declare an
/// `uncompressed_len` or `payload_len` above this, checked *before* any
/// allocation. Generous (blocks in this workspace are ≤ 128 KiB) so that
/// only forged length fields trip it.
pub const DEFAULT_MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Codec that actually produced the payload (Raw when fallback hit).
    pub codec: CodecId,
    /// The fallback flag: the *requested* codec expanded the data.
    pub raw_fallback: bool,
    /// Metadata frame carrying the stream's block index ([`FLAG_INDEX`]);
    /// carries no application bytes.
    pub index: bool,
    pub uncompressed_len: u32,
    pub payload_len: u32,
    pub crc: u32,
}

impl FrameHeader {
    /// Serializes into the 16-byte wire form.
    pub fn to_bytes(&self) -> [u8; HEADER_LEN] {
        let mut b = [0u8; HEADER_LEN];
        b[0] = MAGIC[0];
        b[1] = MAGIC[1];
        b[2] = self.codec as u8;
        b[3] = if self.raw_fallback { FLAG_RAW_FALLBACK } else { 0 }
            | if self.index { FLAG_INDEX } else { 0 };
        b[4..8].copy_from_slice(&self.uncompressed_len.to_le_bytes());
        b[8..12].copy_from_slice(&self.payload_len.to_le_bytes());
        b[12..16].copy_from_slice(&self.crc.to_le_bytes());
        b
    }

    /// Parses the 16-byte wire form.
    pub fn from_bytes(b: &[u8; HEADER_LEN]) -> Result<FrameHeader> {
        if b[0] != MAGIC[0] || b[1] != MAGIC[1] {
            return Err(CodecError::BadMagic);
        }
        Ok(FrameHeader {
            codec: CodecId::from_u8(b[2])?,
            raw_fallback: b[3] & FLAG_RAW_FALLBACK != 0,
            index: b[3] & FLAG_INDEX != 0,
            uncompressed_len: u32::from_le_bytes(b[4..8].try_into().unwrap()),
            payload_len: u32::from_le_bytes(b[8..12].try_into().unwrap()),
            crc: u32::from_le_bytes(b[12..16].try_into().unwrap()),
        })
    }

    /// The checked parse: [`FrameHeader::from_bytes`] plus the bomb guard.
    /// Both length fields must be ≤ `max_frame`, else the header is rejected
    /// with [`CodecError::FrameTooLarge`]. Headers are not CRC-covered, so
    /// every site that takes one from outside the program (socket, file,
    /// stored wire) calls this *before* it allocates or seeks by what the
    /// header says.
    pub fn parse(b: &[u8; HEADER_LEN], max_frame: u32) -> Result<FrameHeader> {
        let header = FrameHeader::from_bytes(b)?;
        for (field, len) in
            [("uncompressed_len", header.uncompressed_len), ("payload_len", header.payload_len)]
        {
            if len > max_frame {
                return Err(CodecError::FrameTooLarge { field, len, max: max_frame });
            }
        }
        Ok(header)
    }

    /// Whether this header heads an index trailer: `false` for a data
    /// frame, `true` for [`FLAG_INDEX`] on a header with no application
    /// bytes and a RAW payload. The flag on any other header is a bit
    /// flipped on a data frame, which no CRC covers: `Corrupt`.
    pub(crate) fn is_index_trailer(&self) -> Result<bool> {
        if !self.index {
            return Ok(false);
        }
        if self.uncompressed_len != 0 || self.codec != CodecId::Raw {
            return Err(CodecError::Corrupt("index flag on a data frame"));
        }
        Ok(true)
    }
}

/// Outcome of encoding one block — what the adaptive layer feeds its
/// statistics with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Application bytes in the block.
    pub uncompressed_len: usize,
    /// Frame bytes emitted (header + payload).
    pub frame_len: usize,
    /// Codec that ended up in the frame (Raw when fallback hit).
    pub codec: CodecId,
    /// Whether the raw fallback replaced an expanding compression.
    pub raw_fallback: bool,
}

/// Compresses `input` with `codec` and appends a complete frame to `out`,
/// allocating fresh codec working memory. Thin wrapper over
/// [`encode_block_with`]; hot paths should hold a [`Scratch`].
///
/// If the compressed payload would be at least as large as the input, the
/// block is stored raw instead and flagged, so the wire overhead on
/// incompressible data is bounded by the 16-byte header.
pub fn encode_block(codec: &dyn Codec, input: &[u8], out: &mut Vec<u8>) -> BlockInfo {
    encode_block_with(&mut Scratch::new(), codec, input, out)
}

/// [`encode_block`] with reusable codec working memory: zero per-block heap
/// allocation in steady state. Output frames are bit-identical to
/// [`encode_block`]'s.
///
/// The codec runs through [`Codec::compress_within`] with the input's
/// length as its limit: a stream of `input.len()` bytes or more is never
/// appended, and the block goes out raw. The frame is the one the full
/// [`Codec::compress_with`] stream followed by the raw rule would give,
/// byte for byte.
pub fn encode_block_with(
    scratch: &mut Scratch,
    codec: &dyn Codec,
    input: &[u8],
    out: &mut Vec<u8>,
) -> BlockInfo {
    // Hard limit: the frame header stores lengths as u32. Blocks in this
    // workspace are <= 128 KiB; this protects external callers in release.
    assert!(input.len() <= u32::MAX as usize, "block exceeds frame length field");
    let header_pos = out.len();
    out.resize(header_pos + HEADER_LEN, 0);
    let payload_pos = out.len();
    let mut effective = codec.id();
    let mut raw_fallback = false;
    if codec.id() != CodecId::Raw {
        // The raw rule — a payload as long as the input is stored raw — as
        // the codec's limit, so a stream that cannot beat it is never
        // finished or copied.
        if !codec.compress_within(scratch, input, out, input.len()) {
            out.extend_from_slice(input);
            effective = CodecId::Raw;
            raw_fallback = true;
        }
    } else {
        out.extend_from_slice(input);
    }
    let payload_len = out.len() - payload_pos;
    let header = FrameHeader {
        codec: effective,
        raw_fallback,
        index: false,
        uncompressed_len: input.len() as u32,
        payload_len: payload_len as u32,
        crc: crc32(&out[payload_pos..]),
    };
    out[header_pos..header_pos + HEADER_LEN].copy_from_slice(&header.to_bytes());
    BlockInfo {
        uncompressed_len: input.len(),
        frame_len: HEADER_LEN + payload_len,
        codec: effective,
        raw_fallback,
    }
}

/// Decodes one frame from the start of `input`, appending the recovered
/// application bytes to `out`. Returns the header and the number of input
/// bytes consumed. Length fields are validated against
/// [`DEFAULT_MAX_FRAME`] before any allocation. Thin wrapper over
/// [`decode_block_with`]; hot paths should hold a [`DecodeScratch`].
pub fn decode_block(input: &[u8], out: &mut Vec<u8>) -> Result<(FrameHeader, usize)> {
    decode_block_with(&mut DecodeScratch::new(), input, out, DEFAULT_MAX_FRAME)
}

/// [`decode_block`] with reusable decode working memory and an explicit
/// decompression-bomb cap: both header length fields must be ≤
/// `max_frame` or the frame is rejected with [`CodecError::FrameTooLarge`]
/// *before* any payload or output allocation. Zero per-block heap
/// allocation in steady state, output byte-identical to the fresh-scratch
/// path. [`decode_block_within`] with no bound.
pub fn decode_block_with(
    scratch: &mut DecodeScratch,
    input: &[u8],
    out: &mut Vec<u8>,
    max_frame: u32,
) -> Result<(FrameHeader, usize)> {
    decode_block_within(scratch, input, usize::MAX, out, max_frame)
}

/// The checks a frame at the start of `input` passes before its payload
/// is trusted: the checked header parse (magic, codec id, bomb guard), a
/// payload that is all there, its CRC over the *whole* payload, and RAW's
/// length rule (a stored payload is its block, byte for byte). Returns
/// the header and the payload. [`decode_block_within`] decodes what this
/// returns; a reader of a RAW frame may use the payload as the block.
pub fn checked_payload(input: &[u8], max_frame: u32) -> Result<(FrameHeader, &[u8])> {
    let head = input.first_chunk::<HEADER_LEN>().ok_or(CodecError::Truncated)?;
    let header = FrameHeader::parse(head, max_frame)?;
    let end = HEADER_LEN + header.payload_len as usize;
    let payload = input.get(HEADER_LEN..end).ok_or(CodecError::Truncated)?;
    let actual_crc = crc32(payload);
    if actual_crc != header.crc {
        return Err(CodecError::ChecksumMismatch { expected: header.crc, actual: actual_crc });
    }
    if header.codec == CodecId::Raw && header.payload_len != header.uncompressed_len {
        return Err(CodecError::Corrupt("raw block length mismatch"));
    }
    Ok((header, payload))
}

/// [`decode_block_with`] of the block's first `want` bytes: the
/// [`checked_payload`] checks run before any decode, then
/// [`Codec::decompress_within`] appends exactly `min(want,
/// uncompressed_len)` bytes. What a bound skips is the decode of the
/// block's tail, and with it the checks only that decode makes (a token
/// past the bound, trailing bytes); a frame that fails those is still
/// refused by a whole decode. On an error `out` is as it was.
pub fn decode_block_within(
    scratch: &mut DecodeScratch,
    input: &[u8],
    want: usize,
    out: &mut Vec<u8>,
    max_frame: u32,
) -> Result<(FrameHeader, usize)> {
    let (header, payload) = checked_payload(input, max_frame)?;
    let total = HEADER_LEN + payload.len();
    let out_start = out.len();
    if let Err(e) = codec_for(header.codec).decompress_within(
        scratch,
        payload,
        header.uncompressed_len as usize,
        want,
        out,
    ) {
        // Decoders may have appended partial output before detecting the
        // corruption; never leak it to the caller.
        out.truncate(out_start);
        return Err(e);
    }
    Ok((header, total))
}

/// Streaming frame writer over any [`Write`].
///
/// Holds both a reusable wire buffer and reusable codec working memory
/// ([`Scratch`]), so steady-state block writing performs no heap
/// allocation.
///
/// Every block written is one [`CodecEvent`] observed through the
/// writer's [`TraceHandle`] (disabled by default), tagged with the
/// epoch/time mark last set via [`FrameWriter::set_trace_mark`]: that one
/// call feeds the trace and the registry's codec families.
pub struct FrameWriter<W: Write> {
    inner: W,
    wire_buf: Vec<u8>,
    codec_scratch: Scratch,
    trace: TraceHandle,
    trace_epoch: u64,
    trace_t: f64,
    /// When collecting (seekable mode), one entry per block written.
    index: Option<Vec<crate::seek::IndexEntry>>,
    /// Totals for reporting.
    pub app_bytes: u64,
    pub wire_bytes: u64,
    pub blocks: u64,
}

impl<W: Write> FrameWriter<W> {
    pub fn new(inner: W) -> Self {
        FrameWriter {
            inner,
            wire_buf: Vec::new(),
            codec_scratch: Scratch::new(),
            trace: TraceHandle::disabled(),
            trace_epoch: NO_EPOCH,
            trace_t: 0.0,
            index: None,
            app_bytes: 0,
            wire_bytes: 0,
            blocks: 0,
        }
    }

    /// Attaches a trace handle, keeping stream state.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Starts collecting one [`crate::seek::IndexEntry`] per block written,
    /// for a seekable stream's index trailer. Block frames themselves are
    /// byte-identical to the non-indexed writer's — the index only records
    /// where they landed.
    pub fn enable_index(&mut self) {
        if self.index.is_none() {
            self.index = Some(Vec::new());
        }
    }

    /// Takes the collected index (disabling collection), for callers that
    /// emit the trailer themselves via [`crate::seek::encode_index_trailer`].
    pub fn take_index(&mut self) -> Option<crate::seek::StreamIndex> {
        self.index.take().map(|entries| crate::seek::StreamIndex { entries })
    }

    /// Writes the index trailer frame for every block recorded since
    /// [`FrameWriter::enable_index`] and stops collecting. Returns the
    /// trailer's wire length (0 when collection was never enabled). The
    /// trailer counts toward `wire_bytes` but not `app_bytes`/`blocks`.
    pub fn finish_index(&mut self) -> io::Result<usize> {
        let Some(index) = self.take_index() else { return Ok(0) };
        self.wire_buf.clear();
        crate::seek::encode_index_trailer(&index, &mut self.wire_buf);
        self.inner.write_all(&self.wire_buf)?;
        self.wire_bytes += self.wire_buf.len() as u64;
        Ok(self.wire_buf.len())
    }

    /// Records one written frame into the active index, if any. `frame` is
    /// the complete wire frame (header + payload).
    fn record_index_entry(&mut self, frame: &[u8], info: &BlockInfo) {
        let Some(entries) = self.index.as_mut() else { return };
        entries.push(crate::seek::IndexEntry {
            frame_offset: self.wire_bytes,
            uncompressed_offset: self.app_bytes,
            frame_len: info.frame_len as u32,
            uncompressed_len: info.uncompressed_len as u32,
            crc: u32::from_le_bytes(frame[12..16].try_into().unwrap()),
            codec: info.codec,
        });
    }

    /// Sets the epoch tag and timestamp stamped onto subsequent
    /// [`CodecEvent`]s. The adaptive layer calls this as epochs roll over;
    /// raw frame users may ignore it (events carry [`NO_EPOCH`]).
    pub fn set_trace_mark(&mut self, epoch: u64, t: f64) {
        self.trace_epoch = epoch;
        self.trace_t = t;
    }

    /// Encodes one block with the given codec into the reusable wire buffer
    /// and writes it via [`FrameWriter::write_frame`].
    pub fn write_block(&mut self, codec: &dyn Codec, data: &[u8]) -> io::Result<BlockInfo> {
        let mut frame = std::mem::take(&mut self.wire_buf);
        frame.clear();
        // Timestamping is trace/metrics-only work; with a disabled handle
        // and no registry installed this is one `None` test and one
        // relaxed load.
        let timed = self.trace.enabled()
            || registry::global().is_some_and(MetricsRegistry::wall_spans);
        let start = timed.then(std::time::Instant::now);
        let info = encode_block_with(&mut self.codec_scratch, codec, data, &mut frame);
        let compress_ns = start.map_or(0, |s| s.elapsed().as_nanos() as u64);
        let written = self.write_frame(codec.id(), &frame, info, compress_ns);
        self.wire_buf = frame;
        written.map(|()| info)
    }

    /// Writes one encoded frame (from [`FrameWriter::write_block`] or from
    /// a compress pool), updating the totals and the index and observing
    /// the block's [`CodecEvent`]. `requested` is the codec the
    /// caller asked for (the event's level name — `info.codec` may be `Raw`
    /// after fallback), `compress_ns` the caller-measured encode time.
    pub fn write_frame(
        &mut self,
        requested: CodecId,
        frame: &[u8],
        info: BlockInfo,
        compress_ns: u64,
    ) -> io::Result<()> {
        self.trace.observe(TraceEvent::Codec(CodecEvent {
            epoch: self.trace_epoch,
            t: self.trace_t,
            level: requested.level_name(),
            in_bytes: info.uncompressed_len as u64,
            out_bytes: info.frame_len as u64,
            compress_ns,
            raw_fallback: info.raw_fallback,
        }));
        self.inner.write_all(frame)?;
        self.record_index_entry(frame, &info);
        self.app_bytes += info.uncompressed_len as u64;
        self.wire_bytes += info.frame_len as u64;
        self.blocks += 1;
        Ok(())
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    pub fn get_ref(&self) -> &W {
        &self.inner
    }

    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Counters a frame reader keeps of the incidents that ended its stream —
/// surfaced through `StreamStats` and the registry. All zero while the
/// stream is clean; a reader stops at its first incident, so a stream
/// counts at most one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Frames refused for bad magic/codec id, length-cap violations, CRC
    /// mismatch or decode failure.
    pub corrupt_frames: u64,
    /// Mid-frame end-of-stream incidents (header or payload cut short).
    pub truncations: u64,
}

impl RecoveryStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.corrupt_frames += other.corrupt_frames;
        self.truncations += other.truncations;
    }
}

/// Streaming frame reader over any [`Read`]; it fails fast. Every frame is
/// checked before a byte of it is handed on — magic, codec table, bomb
/// guard ([`DEFAULT_MAX_FRAME`]), payload CRC, the decoder's own length
/// checks — and the first one that does not check out ends the stream in
/// a typed error (`InvalidData`, or `UnexpectedEof` naming the offset and
/// block of a cut), counted in [`RecoveryStats`] and in the registry's
/// fault-kind family.
pub struct FrameReader<R: Read> {
    inner: R,
    payload_buf: Vec<u8>,
    /// Reusable decode working memory — steady-state decode is zero-alloc.
    decode_scratch: DecodeScratch,
    /// Offset of the next unconsumed byte in the wire stream.
    stream_offset: u64,
    /// Incident counters (all zero while the stream is clean).
    pub recovery: RecoveryStats,
    /// Totals for reporting.
    pub app_bytes: u64,
    pub wire_bytes: u64,
    pub blocks: u64,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            payload_buf: Vec::new(),
            decode_scratch: DecodeScratch::new(),
            stream_offset: 0,
            recovery: RecoveryStats::default(),
            app_bytes: 0,
            wire_bytes: 0,
            blocks: 0,
        }
    }

    /// Counts a frame that failed a check and returns its typed error.
    fn corrupt(&mut self, err: CodecError) -> io::Error {
        self.recovery.corrupt_frames += 1;
        count_fault(match err {
            CodecError::FrameTooLarge { .. } => "frame_too_large",
            _ => "corrupt_frame",
        });
        to_io(err)
    }

    /// Counts a mid-frame end of stream and returns its typed error, which
    /// names what was cut, where, and the block index.
    fn truncated(&mut self, what: std::fmt::Arguments) -> io::Error {
        self.recovery.truncations += 1;
        count_fault("truncated");
        let why = format!("truncated frame {what}, block {}", self.blocks);
        io::Error::new(io::ErrorKind::UnexpectedEof, why)
    }

    /// Reads and decodes the next frame, appending application bytes to
    /// `out`: [`FrameReader::read_frame`]'s validated frame, then the
    /// decode, on this thread. Returns `Ok(None)` on a clean end of stream.
    pub fn read_block(&mut self, out: &mut Vec<u8>) -> io::Result<Option<FrameHeader>> {
        let metrics = registry::global();
        let timed = metrics.is_some_and(MetricsRegistry::wall_spans);
        let Some(header) = self.next_frame()? else {
            return Ok(None);
        };
        let out_start = out.len();
        let start = timed.then(std::time::Instant::now);
        if let Err(e) = codec_for(header.codec).decompress_with(
            &mut self.decode_scratch,
            &self.payload_buf,
            header.uncompressed_len as usize,
            out,
        ) {
            out.truncate(out_start);
            return Err(self.corrupt(e));
        }
        if let Some(m) = metrics {
            if let Some(s) = start {
                m.span_ns(SpanKind::Decompress, s.elapsed().as_nanos() as u64);
            }
            m.counter_add(CounterKind::BlocksDecompressed, 1);
        }
        self.wire_bytes += wire_in(&header);
        self.app_bytes += header.uncompressed_len as u64;
        self.blocks += 1;
        Ok(Some(header))
    }

    /// Reads the next CRC-valid frame *without* decompressing it: the
    /// payload is read straight into `payload` (the caller's buffer stands
    /// in as the reader's own for this one frame — no copy, no second
    /// buffer) and the parsed header is returned. Every header, length and
    /// CRC check has run; only the decompression is left to the caller, on
    /// this thread or a pool's. The frame is the caller's to account once
    /// its block is delivered: `wire_bytes`, `blocks` and `app_bytes` are
    /// not touched here.
    pub fn read_frame(&mut self, payload: &mut Vec<u8>) -> io::Result<Option<FrameHeader>> {
        std::mem::swap(&mut self.payload_buf, payload);
        let frame = self.next_frame();
        std::mem::swap(&mut self.payload_buf, payload);
        let Some(header) = frame? else {
            return Ok(None);
        };
        wire_in(&header);
        Ok(Some(header))
    }

    /// The one frame loop under [`FrameReader::read_block`] and
    /// [`FrameReader::read_frame`]: the next validated *data* frame, its
    /// payload in `self.payload_buf`. Index trailers (CRC-validated, no
    /// application bytes) are counted and consumed here. A frame flagged as
    /// one that is not one — the flag bit flipped on a data frame, which no
    /// CRC covers — is a damaged frame: counted, and a typed `InvalidData`.
    fn next_frame(&mut self) -> io::Result<Option<FrameHeader>> {
        let metrics = registry::global();
        loop {
            let start = metrics
                .is_some_and(MetricsRegistry::wall_spans)
                .then(std::time::Instant::now);
            let frame = self.read_valid_frame()?;
            if let (Some(m), Some(s)) = (metrics, start) {
                m.span_ns(SpanKind::FrameRead, s.elapsed().as_nanos() as u64);
            }
            match frame {
                Some(header) if header.index => {
                    check_index_trailer(&header, &self.payload_buf).map_err(|e| self.corrupt(e))?;
                    self.wire_bytes += wire_in(&header);
                }
                other => return Ok(other),
            }
        }
    }

    /// Next frame whose header parses, passes the length caps and whose
    /// payload matches its CRC. On return the payload sits in
    /// `self.payload_buf`. `Ok(None)` on a clean end of stream.
    fn read_valid_frame(&mut self) -> io::Result<Option<FrameHeader>> {
        let header_off = self.stream_offset;
        let mut header_bytes = [0u8; HEADER_LEN];
        let got = read_full(&mut self.inner, &mut header_bytes)?;
        self.stream_offset += got as u64;
        match got {
            0 => return Ok(None),
            HEADER_LEN => {}
            n => {
                let at = header_off;
                return Err(self.truncated(format_args!(
                    "header: got {n} of {HEADER_LEN} bytes at stream offset {at}"
                )));
            }
        }
        let header =
            FrameHeader::parse(&header_bytes, DEFAULT_MAX_FRAME).map_err(|e| self.corrupt(e))?;
        let payload_off = self.stream_offset;
        let want = header.payload_len as usize;
        let got = read_payload(&mut self.inner, &mut self.payload_buf, want)?;
        self.stream_offset += got as u64;
        if got < want {
            return Err(self.truncated(format_args!(
                "payload: got {got} of {want} bytes at stream offset {payload_off} \
                 (header at {header_off})"
            )));
        }
        let actual_crc = crc32(&self.payload_buf);
        if actual_crc != header.crc {
            let e = CodecError::ChecksumMismatch { expected: header.crc, actual: actual_crc };
            return Err(self.corrupt(e));
        }
        Ok(Some(header))
    }

    pub fn into_inner(self) -> R {
        self.inner
    }
}

/// Fills `buf` from `inner` until it is full or the stream ends, retrying
/// `Interrupted` as `std` does; returns the bytes read.
fn read_full(inner: &mut impl Read, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match inner.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Reads up to `want` payload bytes into `buf`, replacing its contents;
/// returns how many arrived. The buffer grows with what arrives — by at
/// most a block, or double what is already in — never by what the header
/// claims, so a forged `payload_len` costs only the bytes actually sent.
/// An honest frame that fits the capacity the buffer already has is one
/// fill, without an allocation.
fn read_payload(inner: &mut impl Read, buf: &mut Vec<u8>, want: usize) -> io::Result<usize> {
    buf.clear();
    while buf.len() < want {
        let filled = buf.len();
        let room = want.min(buf.capacity().max(2 * filled).max(DEFAULT_BLOCK_LEN));
        buf.resize(room, 0);
        let n = read_full(inner, &mut buf[filled..])?;
        buf.truncate(filled + n);
        if filled + n < room {
            break;
        }
    }
    Ok(buf.len())
}

fn count_fault(kind: &'static str) {
    if let Some(m) = registry::global() {
        m.label_count(LabelFamily::FaultKind, kind, 1);
    }
}

fn to_io(e: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// A frame carrying [`FLAG_INDEX`] is an index trailer only if it is one:
/// no application bytes, a RAW payload, and a payload the index parser
/// accepts.
fn check_index_trailer(header: &FrameHeader, payload: &[u8]) -> Result<()> {
    header.is_index_trailer()?;
    crate::seek::StreamIndex::parse_payload(payload).map(drop)
}

/// Reports one whole frame taken in off the wire to the registry and
/// returns its length.
fn wire_in(header: &FrameHeader) -> u64 {
    let flen = (HEADER_LEN + header.payload_len as usize) as u64;
    if let Some(m) = registry::global() {
        m.counter_add(CounterKind::WireInBytes, flen);
    }
    flen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HeavyCodec, QlzLightCodec, QlzMediumCodec, RawCodec};

    #[test]
    fn header_roundtrip() {
        let h = FrameHeader {
            codec: CodecId::QlzMedium,
            raw_fallback: false,
            index: false,
            uncompressed_len: 131072,
            payload_len: 4242,
            crc: 0xDEADBEEF,
        };
        let mut b = h.to_bytes();
        assert_eq!(FrameHeader::from_bytes(&b).unwrap(), h);
        // Bit 1 is reserved: older record-aligned writers set it.
        b[3] |= 0b10;
        assert_eq!(FrameHeader::from_bytes(&b).unwrap(), h);
    }

    #[test]
    fn header_rejects_bad_magic() {
        let mut b = FrameHeader {
            codec: CodecId::Raw,
            raw_fallback: false,
            index: false,
            uncompressed_len: 0,
            payload_len: 0,
            crc: 0,
        }
        .to_bytes();
        b[0] = 0x00;
        assert!(matches!(FrameHeader::from_bytes(&b), Err(CodecError::BadMagic)));
    }

    #[test]
    fn block_roundtrip_all_codecs() {
        let data = b"block roundtrip data, repeated enough to compress. ".repeat(100);
        for codec in [&RawCodec as &dyn Codec, &QlzLightCodec, &QlzMediumCodec, &HeavyCodec] {
            let mut wire = Vec::new();
            let info = encode_block(codec, &data, &mut wire);
            assert_eq!(info.frame_len, wire.len());
            let mut out = Vec::new();
            let (header, consumed) = decode_block(&wire, &mut out).unwrap();
            assert_eq!(consumed, wire.len());
            assert_eq!(out, data);
            assert_eq!(header.codec, info.codec);
        }
    }

    #[test]
    fn incompressible_block_falls_back_to_raw() {
        // A xorshift byte soup defeats the LZ codecs.
        let mut x = 0x1234_5678_9ABC_DEFFu64;
        let data: Vec<u8> = (0..8192)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let mut wire = Vec::new();
        let info = encode_block(&QlzLightCodec, &data, &mut wire);
        assert!(info.raw_fallback);
        assert_eq!(info.codec, CodecId::Raw);
        assert_eq!(info.frame_len, HEADER_LEN + data.len());
        let mut out = Vec::new();
        decode_block(&wire, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn corrupted_payload_detected_by_crc() {
        let data = b"corruption test ".repeat(64);
        let mut wire = Vec::new();
        encode_block(&QlzLightCodec, &data, &mut wire);
        let idx = HEADER_LEN + 5;
        wire[idx] ^= 0x80;
        let mut out = Vec::new();
        assert!(matches!(
            decode_block(&wire, &mut out),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_frame_detected() {
        let data = b"truncate me ".repeat(64);
        let mut wire = Vec::new();
        encode_block(&QlzMediumCodec, &data, &mut wire);
        let mut out = Vec::new();
        assert!(matches!(
            decode_block(&wire[..wire.len() - 1], &mut out),
            Err(CodecError::Truncated)
        ));
        assert!(matches!(decode_block(&wire[..8], &mut out), Err(CodecError::Truncated)));
    }

    #[test]
    fn empty_block_roundtrip() {
        let mut wire = Vec::new();
        let info = encode_block(&QlzLightCodec, &[], &mut wire);
        assert_eq!(info.uncompressed_len, 0);
        let mut out = Vec::new();
        let (h, consumed) = decode_block(&wire, &mut out).unwrap();
        assert_eq!(consumed, wire.len());
        assert_eq!(h.uncompressed_len, 0);
        assert!(out.is_empty());
    }

    #[test]
    fn stream_writer_reader_roundtrip() {
        let blocks: Vec<Vec<u8>> = vec![
            b"first block ".repeat(100),
            b"second, different content block ".repeat(50),
            Vec::new(),
            b"third".to_vec(),
        ];
        let mut wire = Vec::new();
        {
            let mut w = FrameWriter::new(&mut wire);
            for (i, b) in blocks.iter().enumerate() {
                let codec: &dyn Codec =
                    if i % 2 == 0 { &QlzLightCodec } else { &HeavyCodec };
                w.write_block(codec, b).unwrap();
            }
            assert_eq!(w.blocks, 4);
        }
        let mut r = FrameReader::new(&wire[..]);
        let mut i = 0;
        loop {
            let mut out = Vec::new();
            match r.read_block(&mut out).unwrap() {
                Some(_) => {
                    assert_eq!(out, blocks[i]);
                    i += 1;
                }
                None => break,
            }
        }
        assert_eq!(i, blocks.len());
        assert_eq!(r.wire_bytes, wire.len() as u64);
    }

    /// A LIGHT data frame with `FLAG_INDEX` (bit 2 of byte 3) set is a
    /// damaged data frame, not an index trailer to skip: one counted
    /// corrupt frame and a typed error, through either read — even with a
    /// good frame behind it.
    #[test]
    fn index_flag_on_a_data_frame_is_a_corrupt_frame() {
        let data = b"a data frame is never an index trailer. ".repeat(64);
        let mut wire = Vec::new();
        let info = encode_block(&QlzLightCodec, &data, &mut wire);
        assert_eq!(info.codec, CodecId::QlzLight);
        wire[3] |= FLAG_INDEX;
        encode_block(&QlzLightCodec, &data, &mut wire);

        let mut r = FrameReader::new(&wire[..]);
        let mut out = Vec::new();
        let err = r.read_block(&mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(r.recovery, RecoveryStats { corrupt_frames: 1, truncations: 0 });
        assert!(out.is_empty());

        let mut r = FrameReader::new(&wire[..]);
        let err = r.read_frame(&mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(r.recovery.corrupt_frames, 1);
    }

    #[test]
    fn reader_reports_partial_header_as_error() {
        let data = b"some data".to_vec();
        let mut wire = Vec::new();
        encode_block(&RawCodec, &data, &mut wire);
        let mut r = FrameReader::new(&wire[..HEADER_LEN - 3]);
        let mut out = Vec::new();
        assert!(r.read_block(&mut out).is_err());
    }

    #[test]
    fn traced_writer_emits_one_codec_event_per_block() {
        let trace = TraceHandle::collecting();
        let mut w = FrameWriter::new(Vec::new());
        w.set_trace(trace.clone());
        w.set_trace_mark(7, 14.5);
        let data = b"traced block data, repeated for compression. ".repeat(50);
        w.write_block(&QlzLightCodec, &data).unwrap();
        w.write_block(&RawCodec, &data).unwrap();
        let events = trace.take();
        assert_eq!(events.len(), 2);
        let TraceEvent::Codec(first) = events[0] else { panic!("expected codec event") };
        assert_eq!(first.epoch, 7);
        assert_eq!(first.t, 14.5);
        assert_eq!(first.level, "LIGHT");
        assert_eq!(first.in_bytes, data.len() as u64);
        assert!(first.out_bytes < first.in_bytes);
        let TraceEvent::Codec(second) = events[1] else { panic!("expected codec event") };
        assert_eq!(second.level, "NO");
        assert_eq!(second.out_bytes, data.len() as u64 + HEADER_LEN as u64);
    }

    #[test]
    fn wire_ratio_sane() {
        let data = vec![0u8; 65536];
        let mut wire = Vec::new();
        let info = encode_block(&QlzLightCodec, &data, &mut wire);
        assert!(info.frame_len * 20 < info.uncompressed_len, "{info:?}");
        assert_eq!(info.frame_len, wire.len());
    }
}
