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
//!                             bit 1: record-aligned; bit 2: index trailer)
//! 4   u32 uncompressed length
//! 8   u32 payload length
//! 12  u32 CRC-32 of payload
//! 16  payload bytes
//! ```

use crate::crc32::crc32;
use crate::{codec_for, Codec, CodecError, CodecId, DecodeScratch, Result, Scratch};
use adcomp_metrics::registry::{self, CounterKind, LabelFamily, MetricsRegistry, SpanKind};
use adcomp_trace::{CodecEvent, FaultEvent, NullSink, TraceEvent, TraceSink, NO_EPOCH};
use std::io::{self, Read, Write};

/// Frame magic bytes.
pub const MAGIC: [u8; 2] = [0xAD, 0xC2];
/// Size of the fixed frame header.
pub const HEADER_LEN: usize = 16;
/// The paper's block size: at most 128 KiB of application data per block.
pub const DEFAULT_BLOCK_LEN: usize = 128 * 1024;
/// Flag: payload stored raw because compression expanded the block.
pub const FLAG_RAW_FALLBACK: u8 = 0b0000_0001;
/// Flag: the first application byte of this block is a record boundary.
/// Set by record-aligned writers so a reader that dropped a corrupt block
/// can resynchronize its record framing at the next aligned block.
pub const FLAG_RECORD_ALIGNED: u8 = 0b0000_0010;
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
    /// The block's first application byte is a record boundary
    /// ([`FLAG_RECORD_ALIGNED`]). Always `false` unless a record-aligned
    /// writer produced the stream.
    pub record_aligned: bool,
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
            | if self.record_aligned { FLAG_RECORD_ALIGNED } else { 0 }
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
            record_aligned: b[3] & FLAG_RECORD_ALIGNED != 0,
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

impl BlockInfo {
    /// Wire bytes divided by application bytes (≥ a little over 0 for very
    /// compressible data; slightly above 1.0 for incompressible data).
    pub fn wire_ratio(&self) -> f64 {
        if self.uncompressed_len == 0 {
            return 1.0;
        }
        self.frame_len as f64 / self.uncompressed_len as f64
    }
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
pub fn encode_block_with(
    scratch: &mut Scratch,
    codec: &dyn Codec,
    input: &[u8],
    out: &mut Vec<u8>,
) -> BlockInfo {
    encode_block_flags(scratch, codec, input, out, 0)
}

/// [`encode_block_with`] with extra header flags (e.g.
/// [`FLAG_RECORD_ALIGNED`]); with `extra_flags == 0` the output is
/// bit-identical to [`encode_block_with`].
pub fn encode_block_flags(
    scratch: &mut Scratch,
    codec: &dyn Codec,
    input: &[u8],
    out: &mut Vec<u8>,
    extra_flags: u8,
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
        codec.compress_with(scratch, input, out);
        if out.len() - payload_pos >= input.len() {
            out.truncate(payload_pos);
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
        record_aligned: extra_flags & FLAG_RECORD_ALIGNED != 0,
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
    decode_block_limited(input, out, DEFAULT_MAX_FRAME)
}

/// [`decode_block`] with an explicit decompression-bomb cap: both header
/// length fields must be ≤ `max_frame` or the frame is rejected with
/// [`CodecError::FrameTooLarge`] *before* any payload or output allocation.
pub fn decode_block_limited(
    input: &[u8],
    out: &mut Vec<u8>,
    max_frame: u32,
) -> Result<(FrameHeader, usize)> {
    decode_block_with(&mut DecodeScratch::new(), input, out, max_frame)
}

/// [`decode_block_limited`] with reusable decode working memory: zero
/// per-block heap allocation in steady state, output byte-identical to the
/// fresh-scratch path.
pub fn decode_block_with(
    scratch: &mut DecodeScratch,
    input: &[u8],
    out: &mut Vec<u8>,
    max_frame: u32,
) -> Result<(FrameHeader, usize)> {
    if input.len() < HEADER_LEN {
        return Err(CodecError::Truncated);
    }
    let header = FrameHeader::parse(input[..HEADER_LEN].try_into().unwrap(), max_frame)?;
    let total = HEADER_LEN + header.payload_len as usize;
    if input.len() < total {
        return Err(CodecError::Truncated);
    }
    let payload = &input[HEADER_LEN..total];
    let actual_crc = crc32(payload);
    if actual_crc != header.crc {
        return Err(CodecError::ChecksumMismatch { expected: header.crc, actual: actual_crc });
    }
    let out_start = out.len();
    if let Err(e) = codec_for(header.codec).decompress_with(
        scratch,
        payload,
        header.uncompressed_len as usize,
        out,
    ) {
        // Decoders may have appended partial output before detecting the
        // corruption; never leak it to the caller.
        out.truncate(out_start);
        return Err(e);
    }
    Ok((header, total))
}

/// Scans `buf` for the next frame [`MAGIC`] pair, returning its offset.
/// The resync primitive: after corruption, discard bytes up to the returned
/// offset and try to parse a header there.
pub fn find_magic(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == MAGIC)
}

/// Streaming frame writer over any [`Write`].
///
/// Holds both a reusable wire buffer and reusable codec working memory
/// ([`Scratch`]), so steady-state block writing performs no heap
/// allocation.
///
/// The second type parameter is the trace sink (defaulting to the
/// statically-disabled [`NullSink`]); with the default, every trace branch
/// is dead code after monomorphization and the write path is bit- and
/// allocation-identical to the untraced writer. An enabled sink receives
/// one [`CodecEvent`] per block, tagged with the epoch/time mark last set
/// via [`FrameWriter::set_trace_mark`].
pub struct FrameWriter<W: Write, S: TraceSink = NullSink> {
    inner: W,
    wire_buf: Vec<u8>,
    codec_scratch: Scratch,
    sink: S,
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
        FrameWriter::with_sink(inner, NullSink)
    }
}

impl<W: Write, S: TraceSink> FrameWriter<W, S> {
    /// A frame writer emitting one [`CodecEvent`] per block into `sink`.
    pub fn with_sink(inner: W, sink: S) -> Self {
        FrameWriter {
            inner,
            wire_buf: Vec::new(),
            codec_scratch: Scratch::new(),
            sink,
            trace_epoch: NO_EPOCH,
            trace_t: 0.0,
            index: None,
            app_bytes: 0,
            wire_bytes: 0,
            blocks: 0,
        }
    }

    /// Replaces the trace sink (same sink type), keeping stream state.
    pub fn set_sink(&mut self, sink: S) {
        self.sink = sink;
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
        // Timestamping is trace/metrics-only work; with `NullSink` and no
        // registry installed this reduces to one relaxed load.
        let timed = self.sink.enabled()
            || registry::global().is_some_and(MetricsRegistry::wall_spans);
        let start = timed.then(std::time::Instant::now);
        let info = encode_block_with(&mut self.codec_scratch, codec, data, &mut frame);
        let compress_ns = start.map_or(0, |s| s.elapsed().as_nanos() as u64);
        let written = self.write_frame(codec.id(), &frame, info, compress_ns);
        self.wire_buf = frame;
        written.map(|()| info)
    }

    /// Writes one encoded frame (from [`FrameWriter::write_block`] or from
    /// a compress pool), updating the totals, the index and the registry
    /// and emitting the block's [`CodecEvent`]. `requested` is the codec the
    /// caller asked for (the event's level name — `info.codec` may be `Raw`
    /// after fallback), `compress_ns` the caller-measured encode time.
    pub fn write_frame(
        &mut self,
        requested: CodecId,
        frame: &[u8],
        info: BlockInfo,
        compress_ns: u64,
    ) -> io::Result<()> {
        if self.sink.enabled() {
            self.sink.emit(&TraceEvent::Codec(CodecEvent {
                epoch: self.trace_epoch,
                t: self.trace_t,
                level: requested.level_name(),
                in_bytes: info.uncompressed_len as u64,
                out_bytes: info.frame_len as u64,
                compress_ns,
                raw_fallback: info.raw_fallback,
            }));
        }
        if let Some(m) = registry::global() {
            m.span_ns(SpanKind::Compress, compress_ns);
            m.counter_add(CounterKind::BlocksCompressed, 1);
            m.counter_add(CounterKind::CodecInBytes, info.uncompressed_len as u64);
            m.counter_add(CounterKind::CodecOutBytes, info.frame_len as u64);
            if info.raw_fallback {
                m.counter_add(CounterKind::RawFallbacks, 1);
            }
        }
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

/// How a frame reader reacts to corruption in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// First bad byte aborts the transfer with a typed error (default —
    /// the pre-fault-model behavior, and the zero-overhead fast path).
    FailFast,
    /// Corrupt frames are dropped: the reader scans forward to the next
    /// frame magic, counts the incident, and keeps going. Surviving frames
    /// decode byte-identically.
    SkipAndCount,
}

/// Recovery policy for [`FrameReader`] and the layers built on it.
///
/// Three presets cover the taxonomy from the fault model: fail-fast
/// ([`RecoveryPolicy::fail_fast`]), skip-and-count
/// ([`RecoveryPolicy::skip_and_count`]) and bounded retry with exponential
/// backoff for transient I/O errors ([`RecoveryPolicy::bounded_retry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Corruption handling.
    pub mode: RecoveryMode,
    /// Bounded retries for *transient* I/O errors (`WouldBlock`,
    /// `TimedOut`). `Interrupted` is always retried, as `std` does.
    pub max_retries: u32,
    /// Backoff before retry `k` is `backoff_base_us << (k-1)` microseconds
    /// (capped at 2^10×). 0 disables sleeping (pure spin — what the
    /// deterministic tests use).
    pub backoff_base_us: u64,
    /// Decompression-bomb cap applied to both header length fields before
    /// any allocation.
    pub max_frame: u32,
    /// Upper bound on bytes scanned forward during a single resync before
    /// the reader gives up with a typed error (guards against pathological
    /// streams turning recovery into an unbounded scan).
    pub max_resync_scan: u64,
}

impl RecoveryPolicy {
    /// Abort on the first fault. The default; the fault-free fast path.
    pub fn fail_fast() -> Self {
        RecoveryPolicy {
            mode: RecoveryMode::FailFast,
            max_retries: 0,
            backoff_base_us: 0,
            max_frame: DEFAULT_MAX_FRAME,
            max_resync_scan: 64 * 1024 * 1024,
        }
    }

    /// Drop corrupt frames, resync, and keep counters.
    pub fn skip_and_count() -> Self {
        RecoveryPolicy { mode: RecoveryMode::SkipAndCount, ..RecoveryPolicy::fail_fast() }
    }

    /// Skip-and-count plus up to `max_retries` retries with exponential
    /// backoff for transient I/O errors.
    pub fn bounded_retry(max_retries: u32, backoff_base_us: u64) -> Self {
        RecoveryPolicy { max_retries, backoff_base_us, ..RecoveryPolicy::skip_and_count() }
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy::fail_fast()
    }
}

/// Counters kept by the recovery machinery — surfaced through
/// `StreamStats`, trace events and the Prometheus snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Frames dropped because of bad magic/codec id, length-cap violations,
    /// CRC mismatch or decode failure.
    pub corrupt_frames: u64,
    /// Successful forward scans to a new frame magic.
    pub resyncs: u64,
    /// Transient-I/O retries performed.
    pub retries: u64,
    /// Wire bytes discarded while resyncing.
    pub skipped_bytes: u64,
    /// Mid-frame end-of-stream incidents (header or payload cut short).
    pub truncations: u64,
}

impl RecoveryStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.corrupt_frames += other.corrupt_frames;
        self.resyncs += other.resyncs;
        self.retries += other.retries;
        self.skipped_bytes += other.skipped_bytes;
        self.truncations += other.truncations;
    }
}

/// Streaming frame reader over any [`Read`], hardened against corruption.
///
/// By default ([`RecoveryPolicy::fail_fast`]) behaves exactly like the
/// historical reader: the first bad byte is a typed error, and the hot path
/// adds only a carry-buffer emptiness check. Under
/// [`RecoveryMode::SkipAndCount`] the reader drops corrupt frames, scans
/// forward to the next frame [`MAGIC`] (including *inside* suspect bytes,
/// so a forged length field cannot swallow later good frames), and keeps
/// [`RecoveryStats`]. The optional trace sink receives one
/// [`FaultEvent`] per incident.
pub struct FrameReader<R: Read, S: TraceSink = NullSink> {
    inner: R,
    payload_buf: Vec<u8>,
    /// Reusable decode working memory — steady-state decode is zero-alloc.
    decode_scratch: DecodeScratch,
    /// Bytes returned to the stream for re-scanning (recovery only; empty
    /// on the fault-free path).
    carry: Vec<u8>,
    carry_pos: usize,
    policy: RecoveryPolicy,
    sink: S,
    trace_epoch: u64,
    trace_t: f64,
    /// Offset of the next unconsumed byte in the wire stream.
    stream_offset: u64,
    /// Recovery counters (all zero while the stream is clean).
    pub recovery: RecoveryStats,
    /// Totals for reporting.
    pub app_bytes: u64,
    pub wire_bytes: u64,
    pub blocks: u64,
}

/// Outcome of an exact-read attempt against the carry + inner stream.
#[derive(Clone, Copy)]
enum FillOutcome {
    Full,
    /// End of stream after `0 < n < requested` bytes.
    Partial(usize),
    /// End of stream before any byte.
    Eof,
}

impl<R: Read> FrameReader<R> {
    /// A reader with an explicit [`RecoveryPolicy`] (untraced).
    pub fn with_policy(inner: R, policy: RecoveryPolicy) -> Self {
        FrameReader::with_sink(inner, policy, NullSink)
    }
}

impl<R: Read, S: TraceSink> FrameReader<R, S> {
    /// A reader emitting one [`FaultEvent`] per fault/recovery incident
    /// into `sink`.
    pub fn with_sink(inner: R, policy: RecoveryPolicy, sink: S) -> Self {
        FrameReader {
            inner,
            payload_buf: Vec::new(),
            decode_scratch: DecodeScratch::new(),
            carry: Vec::new(),
            carry_pos: 0,
            policy,
            sink,
            trace_epoch: NO_EPOCH,
            trace_t: 0.0,
            stream_offset: 0,
            recovery: RecoveryStats::default(),
            app_bytes: 0,
            wire_bytes: 0,
            blocks: 0,
        }
    }

    /// The active recovery policy.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Sets the epoch tag and timestamp stamped onto subsequent
    /// [`FaultEvent`]s (mirrors [`FrameWriter::set_trace_mark`]).
    pub fn set_trace_mark(&mut self, epoch: u64, t: f64) {
        self.trace_epoch = epoch;
        self.trace_t = t;
    }

    fn emit_fault(&self, kind: &'static str, bytes: u64, attempt: u64) {
        if self.sink.enabled() {
            self.sink.emit(&TraceEvent::Fault(FaultEvent {
                epoch: self.trace_epoch,
                t: self.trace_t,
                kind,
                bytes,
                attempt,
            }));
        }
        if let Some(m) = registry::global() {
            m.label_count(LabelFamily::FaultKind, kind, 1);
        }
    }

    /// One `read` against the inner stream with the policy's transient
    /// retry/backoff loop. `Interrupted` is always retried.
    fn read_inner_retry(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut attempt = 0u32;
        loop {
            match self.inner.read(buf) {
                Ok(n) => return Ok(n),
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) && attempt < self.policy.max_retries =>
                {
                    attempt += 1;
                    self.recovery.retries += 1;
                    self.emit_fault("retry", 0, attempt as u64);
                    if self.policy.backoff_base_us > 0 {
                        let shift = (attempt - 1).min(10);
                        std::thread::sleep(std::time::Duration::from_micros(
                            self.policy.backoff_base_us << shift,
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fills `buf` exactly, consuming the carry first, then the inner
    /// stream. Advances `stream_offset` by every byte consumed.
    fn fill(&mut self, buf: &mut [u8]) -> io::Result<FillOutcome> {
        let mut filled = 0;
        if self.carry_pos < self.carry.len() {
            let n = (self.carry.len() - self.carry_pos).min(buf.len());
            buf[..n].copy_from_slice(&self.carry[self.carry_pos..self.carry_pos + n]);
            self.carry_pos += n;
            filled = n;
            if self.carry_pos == self.carry.len() {
                self.carry.clear();
                self.carry_pos = 0;
            }
        }
        while filled < buf.len() {
            let n = self.read_inner_retry(&mut buf[filled..])?;
            if n == 0 {
                self.stream_offset += filled as u64;
                return Ok(if filled == 0 { FillOutcome::Eof } else { FillOutcome::Partial(filled) });
            }
            filled += n;
        }
        self.stream_offset += filled as u64;
        Ok(FillOutcome::Full)
    }

    /// Returns `head ++ tail` to the front of the stream for re-scanning.
    fn unread2(&mut self, head: &[u8], tail: &[u8]) {
        let returned = head.len() + tail.len();
        if returned == 0 {
            return;
        }
        let mut nc = Vec::with_capacity(returned + self.carry.len() - self.carry_pos);
        nc.extend_from_slice(head);
        nc.extend_from_slice(tail);
        nc.extend_from_slice(&self.carry[self.carry_pos..]);
        self.carry = nc;
        self.carry_pos = 0;
        self.stream_offset -= returned as u64;
    }

    /// Scans forward (carry first, then the inner stream) for the next
    /// frame magic. Returns `Ok(true)` when positioned at a magic,
    /// `Ok(false)` on end of stream. Discarded bytes are counted.
    fn resync(&mut self) -> io::Result<bool> {
        const CHUNK: usize = 4096;
        let mut skipped: u64 = 0;
        let found = loop {
            if let Some(i) = find_magic(&self.carry[self.carry_pos..]) {
                self.carry_pos += i;
                skipped += i as u64;
                self.stream_offset += i as u64;
                break true;
            }
            // No magic: everything but a possible trailing MAGIC[0] byte is
            // dead. Keep that byte — the pair may span the chunk boundary.
            let keep = usize::from(self.carry[self.carry_pos..].last() == Some(&MAGIC[0]));
            let dead = self.carry.len() - self.carry_pos - keep;
            skipped += dead as u64;
            self.stream_offset += dead as u64;
            if skipped > self.policy.max_resync_scan {
                self.recovery.skipped_bytes += skipped;
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "resync scan exceeded {} bytes at stream offset {}",
                        self.policy.max_resync_scan, self.stream_offset
                    ),
                ));
            }
            if keep == 1 {
                let b = *self.carry.last().unwrap();
                self.carry.clear();
                self.carry.push(b);
            } else {
                self.carry.clear();
            }
            self.carry_pos = 0;
            let old_len = self.carry.len();
            self.carry.resize(old_len + CHUNK, 0);
            let mut tmp = std::mem::take(&mut self.carry);
            let r = self.read_inner_retry(&mut tmp[old_len..]);
            self.carry = tmp;
            match r {
                Ok(0) => {
                    // Stream over; the kept half-magic byte is dead too.
                    skipped += old_len as u64;
                    self.stream_offset += old_len as u64;
                    self.carry.clear();
                    self.carry_pos = 0;
                    break false;
                }
                Ok(n) => self.carry.truncate(old_len + n),
                Err(e) => {
                    self.carry.truncate(old_len);
                    return Err(e);
                }
            }
        };
        self.recovery.skipped_bytes += skipped;
        if found {
            self.recovery.resyncs += 1;
        }
        self.emit_fault("resync", skipped, u64::from(found));
        Ok(found)
    }

    /// Handles a corrupt frame according to the policy: in skip mode,
    /// returns the suspect bytes (minus the first, so progress is
    /// guaranteed) to the stream and resyncs. `Ok(true)` means "retry the
    /// read loop", `Ok(false)` means clean end of stream.
    fn recover_corrupt(
        &mut self,
        err: CodecError,
        header_bytes: &[u8; HEADER_LEN],
        payload_len: usize,
    ) -> io::Result<bool> {
        self.recovery.corrupt_frames += 1;
        let kind = match err {
            CodecError::FrameTooLarge { .. } => "frame_too_large",
            _ => "corrupt_frame",
        };
        self.emit_fault(kind, (HEADER_LEN + payload_len) as u64, self.blocks);
        if self.policy.mode == RecoveryMode::FailFast {
            return Err(to_io(err));
        }
        let payload = std::mem::take(&mut self.payload_buf);
        self.unread2(&header_bytes[1..], &payload[..payload_len.min(payload.len())]);
        self.payload_buf = payload;
        self.resync()
    }

    /// Handles a mid-frame end of stream: in skip mode the partial bytes
    /// are re-scanned (a forged length may have swallowed good frames) and
    /// the incident is counted; in fail-fast mode it is a typed error
    /// naming the truncation site, stream offset and block index.
    fn recover_truncated(
        &mut self,
        site: &str,
        got: usize,
        want: usize,
        at: u64,
        partial: &[u8],
    ) -> io::Result<bool> {
        self.recovery.truncations += 1;
        self.emit_fault("truncated", got as u64, self.blocks);
        if self.policy.mode == RecoveryMode::FailFast {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "truncated frame {site}: got {got} of {want} bytes at stream offset {at}, \
                     block {}",
                    self.blocks
                ),
            ));
        }
        // Drop the first partial byte (progress), re-scan the rest: a
        // forged length field may have swallowed whole good frames.
        let head: &[u8] = if partial.is_empty() { &[] } else { &partial[1..] };
        self.unread2(head, &[]);
        self.resync()
    }
}

impl<R: Read, S: TraceSink> FrameReader<R, S> {
    /// Reads and decodes the next frame, appending application bytes to
    /// `out`: [`FrameReader::read_frame`]'s validated frame, then the
    /// decode, on this thread. Returns `Ok(None)` on a clean end of stream
    /// — and, under [`RecoveryMode::SkipAndCount`], after dropping any
    /// trailing corrupt/truncated bytes (check [`FrameReader::recovery`] to
    /// tell the two apart). A CRC-valid payload that fails to decode is
    /// handled like any other corrupt frame: counted and, in skip mode,
    /// re-scanned for embedded frames.
    pub fn read_block(&mut self, out: &mut Vec<u8>) -> io::Result<Option<FrameHeader>> {
        let metrics = registry::global();
        let timed = metrics.is_some_and(MetricsRegistry::wall_spans);
        loop {
            let Some((header, header_bytes)) = self.next_frame()? else {
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
                let plen = header.payload_len as usize;
                if self.recover_corrupt(e, &header_bytes, plen)? {
                    continue;
                }
                return Ok(None);
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
            return Ok(Some(header));
        }
    }

    /// Reads the next CRC-valid frame *without* decompressing it: the
    /// payload is read straight into `payload` (the caller's buffer stands
    /// in as the reader's own for this one frame — no copy, no second
    /// buffer) and the parsed header is returned. All header/length/CRC
    /// validation and the full recovery machinery (retry, resync,
    /// truncation handling) have run; only the decompression is left to the
    /// caller, on this thread or a pool's. The frame is the caller's to
    /// account once its block is delivered: `wire_bytes`, `blocks` and
    /// `app_bytes` are not touched here.
    pub fn read_frame(&mut self, payload: &mut Vec<u8>) -> io::Result<Option<FrameHeader>> {
        std::mem::swap(&mut self.payload_buf, payload);
        let frame = self.next_frame();
        std::mem::swap(&mut self.payload_buf, payload);
        let Some((header, _)) = frame? else {
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
    /// CRC covers — is a damaged frame and takes the rule for a CRC-valid
    /// frame that fails to decode: counted; a typed `InvalidData` when
    /// failing fast; otherwise dropped whole into `skipped_bytes`.
    fn next_frame(&mut self) -> io::Result<Option<(FrameHeader, [u8; HEADER_LEN])>> {
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
                Some((header, _)) if header.index => {
                    let frame_len = wire_in(&header);
                    let Err(e) = check_index_trailer(&header, &self.payload_buf) else {
                        self.wire_bytes += frame_len;
                        continue;
                    };
                    self.recovery.corrupt_frames += 1;
                    self.emit_fault("corrupt_frame", frame_len, self.blocks);
                    if self.policy.mode == RecoveryMode::FailFast {
                        return Err(to_io(e));
                    }
                    self.recovery.skipped_bytes += frame_len;
                }
                other => return Ok(other),
            }
        }
    }

    /// Next frame whose header parses, passes the length caps and whose
    /// payload matches its CRC. On return the payload sits in
    /// `self.payload_buf`. Recovery per the policy; `Ok(None)` on (possibly
    /// recovered-to) end of stream.
    fn read_valid_frame(&mut self) -> io::Result<Option<(FrameHeader, [u8; HEADER_LEN])>> {
        loop {
            let header_off = self.stream_offset;
            let mut header_bytes = [0u8; HEADER_LEN];
            match self.fill(&mut header_bytes)? {
                FillOutcome::Eof => return Ok(None),
                FillOutcome::Partial(n) => {
                    let h = header_bytes;
                    if self.recover_truncated("header", n, HEADER_LEN, header_off, &h[..n])? {
                        continue;
                    }
                    return Ok(None);
                }
                FillOutcome::Full => {}
            }
            let header = match FrameHeader::parse(&header_bytes, self.policy.max_frame) {
                Ok(h) => h,
                Err(e) => {
                    if self.recover_corrupt(e, &header_bytes, 0)? {
                        continue;
                    }
                    return Ok(None);
                }
            };
            let payload_off = self.stream_offset;
            self.payload_buf.clear();
            self.payload_buf.resize(header.payload_len as usize, 0);
            let mut payload = std::mem::take(&mut self.payload_buf);
            let outcome = self.fill(&mut payload);
            self.payload_buf = payload;
            let outcome = outcome?;
            match outcome {
                FillOutcome::Eof | FillOutcome::Partial(_) => {
                    let got = match outcome {
                        FillOutcome::Partial(n) => n,
                        _ => 0,
                    };
                    let want = header.payload_len as usize;
                    self.recovery.truncations += 1;
                    self.emit_fault("truncated", got as u64, self.blocks);
                    if self.policy.mode == RecoveryMode::FailFast {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            format!(
                                "truncated frame payload: got {got} of {want} bytes at stream \
                                 offset {payload_off} (header at {header_off}), block {}",
                                self.blocks
                            ),
                        ));
                    }
                    // The partial payload may contain whole good frames a
                    // forged length field tried to swallow: re-scan it.
                    let payload = std::mem::take(&mut self.payload_buf);
                    let head: &[u8] = if got == 0 { &[] } else { &payload[1..got] };
                    self.unread2(head, &[]);
                    self.payload_buf = payload;
                    if self.resync()? {
                        continue;
                    }
                    return Ok(None);
                }
                FillOutcome::Full => {}
            }
            let actual_crc = crc32(&self.payload_buf);
            if actual_crc != header.crc {
                let e = CodecError::ChecksumMismatch { expected: header.crc, actual: actual_crc };
                let plen = header.payload_len as usize;
                if self.recover_corrupt(e, &header_bytes, plen)? {
                    continue;
                }
                return Ok(None);
            }
            return Ok(Some((header, header_bytes)));
        }
    }

    pub fn into_inner(self) -> R {
        self.inner
    }
}

fn to_io(e: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// A frame carrying [`FLAG_INDEX`] is an index trailer only if it is one:
/// no application bytes, a RAW payload, and a payload the index parser
/// accepts.
fn check_index_trailer(header: &FrameHeader, payload: &[u8]) -> Result<()> {
    if header.uncompressed_len != 0 || header.codec != CodecId::Raw {
        return Err(CodecError::Corrupt("index flag on a data frame"));
    }
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
            record_aligned: true,
            index: false,
            uncompressed_len: 131072,
            payload_len: 4242,
            crc: 0xDEADBEEF,
        };
        assert_eq!(FrameHeader::from_bytes(&h.to_bytes()).unwrap(), h);
    }

    #[test]
    fn header_rejects_bad_magic() {
        let mut b = FrameHeader {
            codec: CodecId::Raw,
            raw_fallback: false,
            record_aligned: false,
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
        let mut r = FrameReader::with_policy(&wire[..], RecoveryPolicy::default());
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
    /// damaged data frame, not an index trailer to skip: a typed error when
    /// failing fast, one counted corrupt frame dropped whole when skipping
    /// — and the frame after it still decodes.
    #[test]
    fn index_flag_on_a_data_frame_is_a_corrupt_frame() {
        let data = b"a data frame is never an index trailer. ".repeat(64);
        let mut flipped = Vec::new();
        let info = encode_block(&QlzLightCodec, &data, &mut flipped);
        assert_eq!(info.codec, CodecId::QlzLight);
        flipped[3] |= FLAG_INDEX;

        let mut r = FrameReader::with_policy(&flipped[..], RecoveryPolicy::default());
        let mut out = Vec::new();
        let err = r.read_block(&mut out).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(r.recovery.corrupt_frames, 1);
        assert!(out.is_empty());

        let mut wire = flipped.clone();
        encode_block(&QlzLightCodec, &data, &mut wire);
        let mut r = FrameReader::with_policy(&wire[..], RecoveryPolicy::skip_and_count());
        let mut payload = Vec::new();
        let header = r.read_frame(&mut payload).unwrap().expect("the good frame");
        assert_eq!(header.uncompressed_len as usize, data.len());
        assert!(r.read_frame(&mut payload).unwrap().is_none());
        assert_eq!(
            r.recovery,
            RecoveryStats {
                corrupt_frames: 1,
                skipped_bytes: flipped.len() as u64,
                ..RecoveryStats::default()
            }
        );
    }

    #[test]
    fn reader_reports_partial_header_as_error() {
        let data = b"some data".to_vec();
        let mut wire = Vec::new();
        encode_block(&RawCodec, &data, &mut wire);
        let mut r = FrameReader::with_policy(&wire[..HEADER_LEN - 3], RecoveryPolicy::default());
        let mut out = Vec::new();
        assert!(r.read_block(&mut out).is_err());
    }

    #[test]
    fn traced_writer_emits_one_codec_event_per_block() {
        use adcomp_trace::{MemorySink, TraceEvent};
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        let mut w = FrameWriter::with_sink(Vec::new(), Arc::clone(&sink));
        w.set_trace_mark(7, 14.5);
        let data = b"traced block data, repeated for compression. ".repeat(50);
        w.write_block(&QlzLightCodec, &data).unwrap();
        w.write_block(&RawCodec, &data).unwrap();
        let events = sink.snapshot();
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
        assert!(info.wire_ratio() < 0.05);
        let empty = BlockInfo { uncompressed_len: 0, frame_len: 16, codec: CodecId::Raw, raw_fallback: false };
        assert_eq!(empty.wire_ratio(), 1.0);
    }
}
