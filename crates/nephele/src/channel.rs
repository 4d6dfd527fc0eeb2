//! Channels: the edges of a Nephele job graph.
//!
//! As in the paper's framework, "tasks can exchange data through
//! communication channels" of three kinds — in-memory, TCP network and
//! file. Records are length-prefixed byte strings packed into blocks of at
//! most 128 KiB; each block is independently (and, when enabled,
//! adaptively) compressed into a self-describing frame before it reaches
//! the transport. The compression layer is completely transparent to task
//! code.
//!
//! [`RecordWriter`] has one block path: every block is submitted to a
//! [`CompressPool`] and shipped when the pool releases it. By default the
//! pool has no threads and encodes inside `submit`;
//! [`RecordWriter::set_pipeline_workers`] only changes how many threads
//! stand behind the same calls. A codec panic on one block therefore
//! degrades that block to raw and forces level NONE at every worker count.
//!
//! On the receiving side the byte-stream transports (TCP, spool file)
//! reassemble frames through one `read_frame`, whose header parse is the
//! checked one: a length field is bounded before anything is allocated by
//! it. [`RecordReader`] decodes every frame on the task's thread with one
//! long-lived `DecodeScratch`.

use crate::error::{NepheleError, Result};
use adcomp_codecs::frame::{
    decode_block_with, FrameHeader, RecoveryMode, RecoveryPolicy, RecoveryStats,
    DEFAULT_BLOCK_LEN, DEFAULT_MAX_FRAME, FLAG_RECORD_ALIGNED, HEADER_LEN,
};
use adcomp_codecs::{DecodeScratch, LevelSet};
use adcomp_core::controller::ControllerConfig;
use adcomp_core::epoch::{Clock, EpochContext, EpochDriver, WallClock};
use adcomp_core::model::{DecisionModel, RateBasedModel, StaticModel};
use adcomp_core::pipeline::{Completion, CompressPool};
use adcomp_metrics::registry::{self, CounterKind, MetricsRegistry, SpanKind};
use adcomp_trace::{ChannelEvent, TraceHandle, TraceSink as _, NO_EPOCH};
use crossbeam::channel::{bounded, Receiver, Sender};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Transport flavour of a channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelType {
    /// Blocks move through a bounded in-process queue (no compression
    /// benefit, but supported for symmetry with the paper's engine).
    InMemory,
    /// Blocks move over a real loopback TCP connection.
    Network,
    /// Blocks are spooled through a file on disk.
    File,
}

/// Compression policy of a channel.
#[derive(Debug, Clone)]
pub enum CompressionMode {
    /// Pass blocks through uncompressed (still framed, for uniformity).
    Off,
    /// A fixed compression level.
    Static(usize),
    /// The paper's rate-based adaptive scheme.
    Adaptive(ControllerConfig),
}

impl CompressionMode {
    fn make_model(&self, levels: &LevelSet) -> Box<dyn DecisionModel> {
        match self {
            CompressionMode::Off => Box::new(StaticModel::new(0, levels.len())),
            CompressionMode::Static(l) => Box::new(StaticModel::new(*l, levels.len())),
            CompressionMode::Adaptive(cfg) => Box::new(RateBasedModel::new(*cfg)),
        }
    }
}

/// Statistics of one channel after job completion.
#[derive(Debug, Clone, Default)]
pub struct ChannelStats {
    pub app_bytes: u64,
    pub wire_bytes: u64,
    pub records: u64,
    pub blocks_per_level: Vec<u64>,
    pub epochs: u64,
    /// Fault-recovery counters (all zero on a clean channel). Populated by
    /// [`RecordReader`] when a [`RecoveryPolicy`] other than fail-fast is
    /// installed; the writer side never touches it.
    pub recovery: RecoveryStats,
}

impl ChannelStats {
    pub fn wire_ratio(&self) -> f64 {
        if self.app_bytes == 0 {
            1.0
        } else {
            self.wire_bytes as f64 / self.app_bytes as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Block transports
// ---------------------------------------------------------------------------

/// Moves opaque frame-encoded blocks from a writer to a reader thread.
pub trait BlockTransport: Send {
    fn send(&mut self, frame: &[u8]) -> Result<()>;
    /// Signals end of stream.
    fn close(&mut self) -> Result<()>;
}

/// Receiving half.
pub trait BlockSource: Send {
    /// Next complete frame, or `None` at end of stream.
    fn recv(&mut self) -> Result<Option<Vec<u8>>>;
}

/// In-memory transport over a bounded crossbeam queue.
pub struct MemTransport {
    tx: Option<Sender<Vec<u8>>>,
}

pub struct MemSource {
    rx: Receiver<Vec<u8>>,
}

/// Creates a connected in-memory transport pair with the given block
/// capacity (backpressure bound).
pub fn mem_pair(capacity: usize) -> (MemTransport, MemSource) {
    let (tx, rx) = bounded(capacity.max(1));
    (MemTransport { tx: Some(tx) }, MemSource { rx })
}

impl BlockTransport for MemTransport {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        self.tx
            .as_ref()
            .expect("send after close")
            .send(frame.to_vec())
            .map_err(|_| NepheleError::InvalidGraph("receiver dropped".into()))
    }

    fn close(&mut self) -> Result<()> {
        self.tx = None;
        Ok(())
    }
}

impl BlockSource for MemSource {
    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        Ok(self.rx.recv().ok())
    }
}

/// TCP transport: frames stream over a socket; EOF marks the end.
pub struct TcpTransport {
    stream: Option<TcpStream>,
}

impl TcpTransport {
    pub fn new(stream: TcpStream) -> Self {
        TcpTransport { stream: Some(stream) }
    }
}

impl BlockTransport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        self.stream.as_mut().expect("send after close").write_all(frame)?;
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        if let Some(s) = self.stream.take() {
            s.shutdown(std::net::Shutdown::Write).ok();
        }
        Ok(())
    }
}

/// TCP receiving half: reassembles frames from the byte stream.
pub struct TcpSource {
    stream: TcpStream,
}

impl TcpSource {
    pub fn new(stream: TcpStream) -> Self {
        TcpSource { stream }
    }
}

impl BlockSource for TcpSource {
    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        read_frame(&mut self.stream)
    }
}

/// Reads one complete frame (header + payload) from a byte stream. The
/// header comes from outside, so it goes through the checked parse before
/// anything is allocated by what it says: a forged length is a typed
/// `FrameTooLarge`, not a multi-gigabyte zero-fill.
fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(NepheleError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "truncated frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let parsed = FrameHeader::parse(&header, DEFAULT_MAX_FRAME)
        .map_err(|e| NepheleError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e)))?;
    let mut frame = Vec::with_capacity(HEADER_LEN + parsed.payload_len as usize);
    frame.extend_from_slice(&header);
    frame.resize(HEADER_LEN + parsed.payload_len as usize, 0);
    r.read_exact(&mut frame[HEADER_LEN..])?;
    Ok(Some(frame))
}

/// File transport: frames are appended to a spool file; a shared counter +
/// condvar lets the reader tail the file while the writer is still running.
pub struct FileTransport {
    file: std::fs::File,
    state: Arc<FileState>,
}

pub struct FileSource {
    file: std::fs::File,
    state: Arc<FileState>,
    read_pos: u64,
}

struct FileState {
    written: Mutex<(u64, bool)>, // (bytes durable, writer done)
    cond: Condvar,
    path: PathBuf,
}

impl FileState {
    /// Each update is one plain store, so the pair is valid at every step:
    /// a lock poisoned by a panicking task is taken over, not propagated
    /// (a writer that cannot mark itself done leaves the reader blocked).
    fn lock(&self) -> MutexGuard<'_, (u64, bool)> {
        self.written.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for FileState {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Creates a connected file-spool transport pair in `dir`.
pub fn file_pair(dir: &std::path::Path, name: &str) -> Result<(FileTransport, FileSource)> {
    let path = dir.join(format!("nephele-spool-{name}-{}.bin", std::process::id()));
    let file = std::fs::File::create(&path)?;
    let reader = std::fs::File::open(&path)?;
    let state = Arc::new(FileState {
        written: Mutex::new((0, false)),
        cond: Condvar::new(),
        path,
    });
    Ok((
        FileTransport { file, state: state.clone() },
        FileSource { file: reader, state, read_pos: 0 },
    ))
}

impl Drop for FileTransport {
    fn drop(&mut self) {
        // A writer that dies without close() must not leave the reader
        // blocked on the condvar forever.
        self.state.lock().1 = true;
        self.state.cond.notify_all();
    }
}

impl BlockTransport for FileTransport {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        self.file.write_all(frame)?;
        self.file.flush()?;
        self.state.lock().0 += frame.len() as u64;
        self.state.cond.notify_all();
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        self.file.flush()?;
        self.state.lock().1 = true;
        self.state.cond.notify_all();
        Ok(())
    }
}

/// Tailing read: blocks until the writer has made at least one more byte
/// durable or is done (then 0, end of stream).
impl Read for FileSource {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let written = self
            .state
            .cond
            .wait_while(self.state.lock(), |w| w.0 <= self.read_pos && !w.1)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
        let avail = (written - self.read_pos).min(buf.len() as u64) as usize;
        let n = self.file.read(&mut buf[..avail])?;
        self.read_pos += n as u64;
        Ok(n)
    }
}

impl BlockSource for FileSource {
    fn recv(&mut self) -> Result<Option<Vec<u8>>> {
        read_frame(self)
    }
}

// ---------------------------------------------------------------------------
// Record writer / reader (the task-facing API)
// ---------------------------------------------------------------------------

/// Writes length-prefixed records into adaptively compressed blocks.
pub struct RecordWriter {
    transport: Box<dyn BlockTransport>,
    levels: LevelSet,
    driver: EpochDriver,
    clock: Box<dyn Clock>,
    buf: Vec<u8>,
    block_len: usize,
    stats: ChannelStats,
    trace: TraceHandle,
    /// Record-aligned mode: blocks are flushed before a record would span
    /// them and stamped with [`FLAG_RECORD_ALIGNED`] when their first byte
    /// is a record boundary, so a skip-mode reader can realign after loss.
    aligned: bool,
    /// Whether the block currently accumulating in `buf` starts at a
    /// record boundary.
    cur_block_aligned: bool,
    /// Every block is encoded here: on the caller's thread by default, on
    /// worker threads after [`RecordWriter::set_pipeline_workers`].
    pool: CompressPool,
    /// Reused landing buffer for the pool's in-order completions.
    ready: Vec<Completion>,
    /// Wire ratio of the most recently *shipped* block, fed to the epoch
    /// driver as `observed_ratio`: this block's without threads, the last
    /// drained one's with threads (an in-flight block's ratio is not known
    /// at submission time).
    last_ratio: Option<f64>,
}

impl RecordWriter {
    pub fn new(
        transport: Box<dyn BlockTransport>,
        mode: &CompressionMode,
        levels: LevelSet,
        epoch_secs: f64,
    ) -> Self {
        let model = mode.make_model(&levels);
        let clock: Box<dyn Clock> = Box::new(WallClock::new());
        let now = clock.now();
        let nlevels = levels.len();
        RecordWriter {
            transport,
            levels,
            driver: EpochDriver::new(model, epoch_secs, now),
            clock,
            buf: Vec::with_capacity(DEFAULT_BLOCK_LEN),
            block_len: DEFAULT_BLOCK_LEN,
            stats: ChannelStats { blocks_per_level: vec![0; nlevels], ..Default::default() },
            trace: TraceHandle::disabled(),
            aligned: false,
            cur_block_aligned: true,
            pool: CompressPool::new(1),
            ready: Vec::new(),
            last_ratio: None,
        }
    }

    /// Encodes blocks on a bounded pool of `workers` threads (`workers <= 1`:
    /// on the caller's thread, the default). Levels are still chosen by the
    /// epoch driver at submission time and frames are shipped strictly in
    /// submission order, so the wire stream is byte-identical for any worker
    /// count given the same decision trajectory. Must be called before the
    /// first block is emitted: panics afterwards (blocks in flight would be
    /// lost).
    pub fn set_pipeline_workers(&mut self, workers: usize) {
        self.pool.set_workers(workers);
    }

    /// Number of compression workers (1 = no threads).
    pub fn pipeline_workers(&self) -> usize {
        self.pool.workers()
    }

    /// Enables record-aligned block emission: a record that would span the
    /// current block forces a flush first, and every block whose first
    /// application byte is a record boundary carries
    /// [`FLAG_RECORD_ALIGNED`]. Off by default (the wire stream is then
    /// bit-identical to the pre-fault-model writer); records larger than a
    /// block still span, and the spanned continuation blocks are simply
    /// left unflagged.
    pub fn set_record_aligned(&mut self, on: bool) {
        self.aligned = on;
    }

    /// Overrides the block size (default [`DEFAULT_BLOCK_LEN`]). Must be
    /// called before the first record; the fault-injection soak uses small
    /// blocks to exercise many frames per case cheaply.
    pub fn set_block_len(&mut self, len: usize) {
        assert!(len >= 16, "block length too small");
        assert!(self.buf.is_empty(), "set_block_len after writing");
        self.block_len = len;
    }

    /// Attaches a trace sink: the epoch driver emits epoch/decision events
    /// and the channel emits one [`ChannelEvent`] per shipped block plus a
    /// `"flush"` event for the explicit tail flush in [`RecordWriter::finish`].
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.driver.set_trace(trace.clone());
        self.pool.set_trace(trace.clone());
        self.trace = trace;
    }

    /// Writes one record (any byte payload; may span blocks).
    pub fn write_record(&mut self, record: &[u8]) -> Result<()> {
        if self.aligned
            && !self.buf.is_empty()
            && self.buf.len() + 4 + record.len() > self.block_len
        {
            // Flush so this record starts a fresh (aligned) block instead
            // of spanning the current one.
            self.emit_block()?;
        }
        if self.buf.is_empty() {
            // The block about to accumulate starts at a record boundary.
            self.cur_block_aligned = true;
        }
        let len = (record.len() as u32).to_le_bytes();
        self.push_bytes(&len)?;
        self.push_bytes(record)?;
        self.stats.records += 1;
        if let Some(m) = registry::global() {
            m.counter_add(CounterKind::ChannelRecords, 1);
        }
        Ok(())
    }

    fn push_bytes(&mut self, mut data: &[u8]) -> Result<()> {
        while !data.is_empty() {
            let room = self.block_len - self.buf.len();
            let take = room.min(data.len());
            self.buf.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.buf.len() == self.block_len {
                self.emit_block()?;
                // The next block continues mid-record unless the next
                // write_record (which sees an empty buf) says otherwise.
                self.cur_block_aligned = false;
            }
        }
        Ok(())
    }

    /// The one block path: the level is captured from the driver *now*, the
    /// block goes to the pool, and whatever blocks the pool releases are
    /// shipped in order. The application rate is recorded at submission, so
    /// the rate the epoch driver observes is the true producer rate, not
    /// the pool's drain rate.
    fn emit_block(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let level = self.driver.level();
        let flags = if self.aligned && self.cur_block_aligned { FLAG_RECORD_ALIGNED } else { 0 };
        let data = std::mem::take(&mut self.buf);
        let bytes = data.len() as u64;
        if self.trace.enabled() {
            self.pool.set_trace_mark(self.driver.epochs(), self.clock.now());
        }
        self.pool.submit(level, self.levels.id(level), flags, data, &mut self.ready);
        self.ship_completions()?;
        let ctx = EpochContext { observed_ratio: self.last_ratio, ..Default::default() };
        self.driver.record(bytes, self.clock.now(), &ctx);
        Ok(())
    }

    /// Ships the pool completions landed in `ready` (already in submission
    /// order) over the transport and accounts for them.
    fn ship_completions(&mut self) -> Result<()> {
        let mut ready = std::mem::take(&mut self.ready);
        let shipped = ready.drain(..).try_for_each(|c| self.ship_completion(c));
        self.ready = ready;
        shipped
    }

    fn ship_completion(&mut self, c: Completion) -> Result<()> {
        let level = if c.degraded {
            // The codec panicked on this block and the pool re-emitted it
            // raw: force level NONE until the next epoch decision.
            self.driver.force_level(0, self.clock.now());
            0
        } else {
            c.level
        };
        if self.trace.enabled() {
            self.trace.emit(
                &ChannelEvent {
                    epoch: self.driver.epochs(),
                    t: self.clock.now(),
                    kind: "block",
                    bytes: c.info.uncompressed_len as u64,
                    wait_ns: c.compress_ns,
                    level: level as u32,
                }
                .into(),
            );
        }
        self.transport.send(&c.frame)?;
        self.stats.app_bytes += c.info.uncompressed_len as u64;
        self.stats.wire_bytes += c.info.frame_len as u64;
        self.stats.blocks_per_level[level] += 1;
        if let Some(m) = registry::global() {
            m.counter_add(CounterKind::ChannelBlocks, 1);
            m.level_block(level, 1);
            m.span_ns(SpanKind::Compress, c.compress_ns);
        }
        self.last_ratio = Some(c.info.wire_ratio());
        // Both buffers go round again: the frame's to the pool, the block's
        // to the next fill.
        self.pool.recycle(c.frame);
        if self.buf.capacity() == 0 {
            let mut d = c.data;
            d.clear();
            self.buf = d;
        }
        Ok(())
    }

    /// Flushes the tail block and closes the channel; returns final stats.
    pub fn finish(mut self) -> Result<ChannelStats> {
        if self.trace.enabled() {
            self.trace.emit(
                &ChannelEvent {
                    epoch: self.driver.epochs(),
                    t: self.clock.now(),
                    kind: "flush",
                    bytes: self.buf.len() as u64,
                    wait_ns: 0,
                    level: self.driver.level() as u32,
                }
                .into(),
            );
        }
        self.emit_block()?;
        self.pool.drain(&mut self.ready);
        self.ship_completions()?;
        self.transport.close()?;
        self.stats.epochs = self.driver.epochs();
        Ok(self.stats)
    }

    /// Current compression level (for tests / introspection).
    pub fn level(&self) -> usize {
        self.driver.level()
    }
}

/// Reads length-prefixed records from compressed blocks.
///
/// With the default fail-fast [`RecoveryPolicy`] any damaged frame aborts
/// the transfer with a typed error, exactly as before the fault model.
/// Under [`RecoveryMode::SkipAndCount`] the reader drops frames that fail
/// to decode, counts the incidents in [`ChannelStats::recovery`], and —
/// on streams produced by a record-aligned writer
/// ([`RecordWriter::set_record_aligned`]) — realigns its record framing at
/// the next [`FLAG_RECORD_ALIGNED`] block, so every record that did not
/// share bytes with a damaged or lost block is recovered byte-identically.
pub struct RecordReader {
    source: Box<dyn BlockSource>,
    buf: Vec<u8>,
    pos: usize,
    eof: bool,
    stats: ChannelStats,
    trace: TraceHandle,
    started: std::time::Instant,
    policy: RecoveryPolicy,
    /// Set after a skipped frame (or a detected desync): decoded bytes are
    /// discarded until a block flagged [`FLAG_RECORD_ALIGNED`] arrives.
    realign: bool,
    /// Decode working memory, kept across frames.
    scratch: DecodeScratch,
}

impl RecordReader {
    pub fn new(source: Box<dyn BlockSource>) -> Self {
        RecordReader::with_policy(source, RecoveryPolicy::default())
    }

    /// A reader with an explicit [`RecoveryPolicy`].
    pub fn with_policy(source: Box<dyn BlockSource>, policy: RecoveryPolicy) -> Self {
        RecordReader {
            source,
            buf: Vec::new(),
            pos: 0,
            eof: false,
            stats: ChannelStats::default(),
            trace: TraceHandle::disabled(),
            started: std::time::Instant::now(),
            policy,
            realign: false,
            scratch: DecodeScratch::new(),
        }
    }

    /// The active recovery policy.
    pub fn policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Replaces the recovery policy mid-stream.
    pub fn set_policy(&mut self, policy: RecoveryPolicy) {
        self.policy = policy;
    }

    /// Attaches a trace sink: the reader emits a `"stall"` [`ChannelEvent`]
    /// (wait nanoseconds on the transport) for every block fetch. The
    /// reader has no epoch driver, so events carry [`NO_EPOCH`].
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    fn ensure(&mut self, needed: usize) -> Result<bool> {
        while self.buf.len() - self.pos < needed {
            if self.eof {
                return Ok(false);
            }
            let metrics = registry::global();
            let timed = self.trace.enabled() || metrics.is_some_and(MetricsRegistry::wall_spans);
            let received = if timed {
                let start = std::time::Instant::now();
                let received = self.source.recv()?;
                let wait_ns = start.elapsed().as_nanos() as u64;
                if self.trace.enabled() {
                    self.trace.emit(
                        &ChannelEvent {
                            epoch: NO_EPOCH,
                            t: self.started.elapsed().as_secs_f64(),
                            kind: "stall",
                            bytes: received.as_ref().map_or(0, |f| f.len() as u64),
                            wait_ns,
                            level: 0,
                        }
                        .into(),
                    );
                }
                if let Some(m) = metrics {
                    m.span_ns(SpanKind::ChannelStall, wait_ns);
                }
                received
            } else {
                self.source.recv()?
            };
            match received {
                Some(frame) => {
                    // Compact consumed prefix before appending.
                    if self.pos > 0 {
                        self.buf.drain(..self.pos);
                        self.pos = 0;
                    }
                    let before = self.buf.len();
                    match decode_block_with(
                        &mut self.scratch,
                        &frame,
                        &mut self.buf,
                        self.policy.max_frame,
                    ) {
                        Ok((header, _consumed)) => {
                            if self.realign {
                                if header.record_aligned {
                                    // Back on a record boundary.
                                    self.realign = false;
                                    self.stats.recovery.resyncs += 1;
                                } else {
                                    // Still desynced: this block's bytes
                                    // cannot be framed; drop them.
                                    let n = self.buf.len() - before;
                                    self.buf.truncate(before);
                                    self.stats.recovery.skipped_bytes += n as u64;
                                    continue;
                                }
                            }
                            self.stats.app_bytes += (self.buf.len() - before) as u64;
                            self.stats.wire_bytes += frame.len() as u64;
                        }
                        Err(e) => {
                            if self.policy.mode == RecoveryMode::FailFast {
                                return Err(NepheleError::Io(std::io::Error::new(
                                    std::io::ErrorKind::InvalidData,
                                    e,
                                )));
                            }
                            // Skip-and-count: drop the damaged frame. On a
                            // record-aligned stream the bytes already in
                            // `buf` end at a record boundary, so parsing
                            // them stays valid; realignment gates the next
                            // appended block.
                            self.stats.recovery.corrupt_frames += 1;
                            self.stats.recovery.skipped_bytes += frame.len() as u64;
                            self.realign = true;
                        }
                    }
                }
                None => self.eof = true,
            }
        }
        Ok(true)
    }

    /// Drops all unconsumed buffered bytes (a detected record-framing
    /// desync) and requires realignment before any further parsing.
    fn drop_buffered(&mut self) {
        let n = self.buf.len() - self.pos;
        self.stats.recovery.skipped_bytes += n as u64;
        self.pos = self.buf.len();
        self.realign = true;
    }

    /// Next record, or `None` at a clean end of stream.
    ///
    /// In skip-and-count mode an implausible record length (a silent
    /// desync from a dropped block on a non-aligned stream) and a trailing
    /// partial record are recovered from rather than fatal; see
    /// [`ChannelStats::recovery`] for what happened.
    pub fn next_record(&mut self) -> Result<Option<Vec<u8>>> {
        loop {
            if !self.ensure(4)? {
                let leftover = self.buf.len() - self.pos;
                if leftover != 0 {
                    if self.policy.mode == RecoveryMode::SkipAndCount {
                        self.stats.recovery.truncations += 1;
                        self.stats.recovery.skipped_bytes += leftover as u64;
                        self.pos = self.buf.len();
                        return Ok(None);
                    }
                    return Err(NepheleError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "trailing partial record",
                    )));
                }
                return Ok(None);
            }
            // Peek the length; only consume once the whole record is here,
            // so recovery never leaves a half-parsed record behind.
            let len =
                u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize;
            if len as u64 > self.policy.max_frame as u64 {
                if self.policy.mode == RecoveryMode::SkipAndCount {
                    // Record framing desynced (e.g. a dropped block on a
                    // stream without alignment flags): drop the buffered
                    // bytes and realign at the next aligned block.
                    self.stats.recovery.corrupt_frames += 1;
                    self.drop_buffered();
                    continue;
                }
                return Err(NepheleError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "implausible record length {len} (cap {}): record framing desynced",
                        self.policy.max_frame
                    ),
                )));
            }
            if !self.ensure(4 + len)? {
                let leftover = self.buf.len() - self.pos;
                if self.policy.mode == RecoveryMode::SkipAndCount {
                    self.stats.recovery.truncations += 1;
                    self.stats.recovery.skipped_bytes += leftover as u64;
                    self.pos = self.buf.len();
                    return Ok(None);
                }
                return Err(NepheleError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "record body truncated",
                )));
            }
            self.pos += 4;
            let rec = self.buf[self.pos..self.pos + len].to_vec();
            self.pos += len;
            self.stats.records += 1;
            return Ok(Some(rec));
        }
    }

    /// Reader-side statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(mode: CompressionMode, records: &[Vec<u8>]) -> (Vec<Vec<u8>>, ChannelStats) {
        let (tx, rx) = mem_pair(1024);
        let mut w = RecordWriter::new(Box::new(tx), &mode, LevelSet::paper_default(), 2.0);
        for r in records {
            w.write_record(r).unwrap();
        }
        let stats = w.finish().unwrap();
        let mut reader = RecordReader::new(Box::new(rx));
        let mut out = Vec::new();
        while let Some(r) = reader.next_record().unwrap() {
            out.push(r);
        }
        (out, stats)
    }

    #[test]
    fn mem_channel_roundtrips_records() {
        let records: Vec<Vec<u8>> =
            (0..100).map(|i| format!("record number {i}, payload payload").into_bytes()).collect();
        let (out, stats) = roundtrip(CompressionMode::Off, &records);
        assert_eq!(out, records);
        assert_eq!(stats.records, 100);
    }

    #[test]
    fn static_compression_reduces_wire_bytes() {
        let records: Vec<Vec<u8>> = (0..200)
            .map(|_| b"very repetitive content here. ".repeat(20).to_vec())
            .collect();
        let (out, stats) = roundtrip(CompressionMode::Static(1), &records);
        assert_eq!(out.len(), 200);
        assert!(stats.wire_ratio() < 0.3, "ratio {}", stats.wire_ratio());
        assert!(stats.blocks_per_level[1] > 0);
    }

    #[test]
    fn adaptive_mode_runs_and_roundtrips() {
        let records: Vec<Vec<u8>> =
            (0..500).map(|i| format!("{i} ").repeat(100).into_bytes()).collect();
        let (out, _stats) =
            roundtrip(CompressionMode::Adaptive(ControllerConfig::default()), &records);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn empty_record_and_empty_stream() {
        let (out, stats) = roundtrip(CompressionMode::Off, &[Vec::new(), b"x".to_vec()]);
        assert_eq!(out, vec![Vec::new(), b"x".to_vec()]);
        assert_eq!(stats.records, 2);
        let (out, _) = roundtrip(CompressionMode::Off, &[]);
        assert!(out.is_empty());
    }

    #[test]
    fn large_record_spans_blocks() {
        let big = vec![0xABu8; 500_000]; // ~4 blocks
        let (out, stats) = roundtrip(CompressionMode::Static(1), std::slice::from_ref(&big));
        assert_eq!(out, vec![big]);
        assert!(stats.blocks_per_level.iter().sum::<u64>() >= 4);
    }

    /// Transport that appends every frame to a shared byte vector, so tests
    /// can compare exact wire output across writer configurations.
    struct CaptureTransport(Arc<Mutex<Vec<u8>>>);

    impl BlockTransport for CaptureTransport {
        fn send(&mut self, frame: &[u8]) -> Result<()> {
            self.0.lock().unwrap().extend_from_slice(frame);
            Ok(())
        }
        fn close(&mut self) -> Result<()> {
            Ok(())
        }
    }

    fn captured_wire(workers: usize, aligned: bool, records: &[Vec<u8>]) -> (Vec<u8>, ChannelStats) {
        let wire = Arc::new(Mutex::new(Vec::new()));
        let mut w = RecordWriter::new(
            Box::new(CaptureTransport(wire.clone())),
            &CompressionMode::Static(2),
            LevelSet::paper_default(),
            2.0,
        );
        w.set_block_len(4096);
        w.set_record_aligned(aligned);
        if workers > 1 {
            w.set_pipeline_workers(workers);
        }
        for r in records {
            w.write_record(r).unwrap();
        }
        let stats = w.finish().unwrap();
        let bytes = wire.lock().unwrap().clone();
        (bytes, stats)
    }

    #[test]
    fn pipelined_record_writer_matches_serial_wire() {
        let records: Vec<Vec<u8>> = (0..400)
            .map(|i| format!("record {i}: channel pipelining payload payload ").into_bytes())
            .collect();
        for aligned in [false, true] {
            let (reference, ref_stats) = captured_wire(1, aligned, &records);
            for workers in [2usize, 4] {
                let (wire, stats) = captured_wire(workers, aligned, &records);
                assert_eq!(
                    wire, reference,
                    "aligned={aligned} workers={workers}: pipelined wire differs"
                );
                assert_eq!(stats.app_bytes, ref_stats.app_bytes);
                assert_eq!(stats.wire_bytes, ref_stats.wire_bytes);
                assert_eq!(stats.blocks_per_level, ref_stats.blocks_per_level);
            }
        }
    }

    #[test]
    #[should_panic(expected = "set_pipeline_workers must be called before the first write")]
    fn set_pipeline_workers_after_first_block_panics() {
        let mut w = RecordWriter::new(
            Box::new(CaptureTransport(Arc::new(Mutex::new(Vec::new())))),
            &CompressionMode::Static(3),
            LevelSet::paper_default(),
            2.0,
        );
        w.set_block_len(4096);
        w.set_pipeline_workers(4);
        for _ in 0..32 {
            w.write_record(&[9u8; 4092]).unwrap();
        }
        w.set_pipeline_workers(1);
    }

    #[test]
    fn pipelined_record_writer_roundtrips_over_mem_channel() {
        let records: Vec<Vec<u8>> =
            (0..600).map(|i| format!("{i} ").repeat(80).into_bytes()).collect();
        let (tx, rx) = mem_pair(1024);
        let mut w = RecordWriter::new(
            Box::new(tx),
            &CompressionMode::Adaptive(ControllerConfig::default()),
            LevelSet::paper_default(),
            2.0,
        );
        w.set_pipeline_workers(4);
        assert_eq!(w.pipeline_workers(), 4);
        for r in &records {
            w.write_record(r).unwrap();
        }
        let stats = w.finish().unwrap();
        assert_eq!(stats.records, 600);
        let mut reader = RecordReader::new(Box::new(rx));
        let mut out = Vec::new();
        while let Some(r) = reader.next_record().unwrap() {
            out.push(r);
        }
        assert_eq!(out, records);
    }

    #[test]
    fn file_transport_roundtrip() {
        let dir = std::env::temp_dir();
        let (tx, rx) = file_pair(&dir, "test-rt").unwrap();
        let path = tx.state.path.clone();
        let mut w =
            RecordWriter::new(Box::new(tx), &CompressionMode::Static(2), LevelSet::paper_default(), 2.0);
        let records: Vec<Vec<u8>> =
            (0..50).map(|i| format!("file record {i} ").repeat(30).into_bytes()).collect();
        for r in &records {
            w.write_record(r).unwrap();
        }
        w.finish().unwrap();
        let mut reader = RecordReader::new(Box::new(rx));
        let mut out = Vec::new();
        while let Some(r) = reader.next_record().unwrap() {
            out.push(r);
        }
        assert_eq!(out, records);
        drop(reader);
        assert!(!path.exists(), "spool file should be cleaned up");
    }

    #[test]
    fn file_transport_supports_concurrent_tailing() {
        let dir = std::env::temp_dir();
        let (tx, rx) = file_pair(&dir, "test-tail").unwrap();
        let writer = std::thread::spawn(move || {
            let mut w = RecordWriter::new(
                Box::new(tx),
                &CompressionMode::Off,
                LevelSet::paper_default(),
                2.0,
            );
            for i in 0..200 {
                w.write_record(format!("tail {i}").as_bytes()).unwrap();
                if i % 50 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            w.finish().unwrap()
        });
        let mut reader = RecordReader::new(Box::new(rx));
        let mut n = 0;
        while let Some(r) = reader.next_record().unwrap() {
            assert_eq!(r, format!("tail {n}").as_bytes());
            n += 1;
        }
        assert_eq!(n, 200);
        writer.join().unwrap();
    }

    #[test]
    fn tcp_transport_roundtrip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let records: Vec<Vec<u8>> =
            (0..100).map(|i| format!("tcp record {i} ").repeat(10).into_bytes()).collect();
        let recs = records.clone();
        let sender = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut w = RecordWriter::new(
                Box::new(TcpTransport::new(stream)),
                &CompressionMode::Static(1),
                LevelSet::paper_default(),
                2.0,
            );
            for r in &recs {
                w.write_record(r).unwrap();
            }
            w.finish().unwrap()
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = RecordReader::new(Box::new(TcpSource::new(stream)));
        let mut out = Vec::new();
        while let Some(r) = reader.next_record().unwrap() {
            out.push(r);
        }
        assert_eq!(out, records);
        let stats = sender.join().unwrap();
        assert_eq!(stats.records, 100);
    }

    /// A `Read` that serves `wire` and then fails the test if asked for
    /// more: the forged frame's payload must never be waited for.
    struct NoMoreAfter<'a>(&'a [u8]);

    impl Read for NoMoreAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            assert!(!self.0.is_empty(), "read past the forged header");
            self.0.read(buf)
        }
    }

    /// Headers are not CRC-covered: a forged `payload_len` must be refused
    /// by the checked parse before the frame buffer is sized by it (it used
    /// to zero-fill 4 GiB, then block on the socket for the payload).
    #[test]
    fn forged_payload_len_is_refused_before_allocating() {
        use adcomp_codecs::{codec_for, CodecError, CodecId};
        let mut good = Vec::new();
        adcomp_codecs::frame::encode_block(codec_for(CodecId::QlzLight), &[7u8; 5000], &mut good);
        let mut forged = good[..HEADER_LEN].to_vec();
        forged[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let wire = [&good[..], &forged[..]].concat();
        let assert_refused = |res: Result<Option<Vec<u8>>>| match res {
            Err(NepheleError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                let inner = e.get_ref().and_then(|e| e.downcast_ref::<CodecError>());
                assert!(
                    matches!(
                        inner,
                        Some(CodecError::FrameTooLarge { field: "payload_len", len: u32::MAX, .. })
                    ),
                    "expected FrameTooLarge, got {e:?}"
                );
            }
            other => panic!("forged header must be refused, got {other:?}"),
        };

        // Any `Read` through the shared function: the ordinary frame round-
        // trips, the forged one errors without another byte being read.
        let mut plain = NoMoreAfter(&wire);
        assert_eq!(read_frame(&mut plain).unwrap().as_deref(), Some(&good[..]));
        assert_refused(read_frame(&mut plain));

        // The same over a real socket whose peer stays open and silent: a
        // reader waiting for the forged payload would hang here.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut source = TcpSource::new(listener.accept().unwrap().0);
        peer.write_all(&wire).unwrap();
        assert_eq!(source.recv().unwrap().as_deref(), Some(&good[..]));
        assert_refused(source.recv());
        drop(peer);
    }

    #[test]
    fn traced_channel_emits_block_flush_and_stall_events() {
        use adcomp_trace::{MemorySink, TraceEvent};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new());
        let (tx, rx) = mem_pair(1024);
        let mut w = RecordWriter::new(
            Box::new(tx),
            &CompressionMode::Static(1),
            LevelSet::paper_default(),
            2.0,
        );
        w.set_trace(TraceHandle::new(sink.clone()));
        let records: Vec<Vec<u8>> = (0..200)
            .map(|_| b"channel trace payload, repetitive. ".repeat(40).to_vec())
            .collect();
        for r in &records {
            w.write_record(r).unwrap();
        }
        let stats = w.finish().unwrap();

        let mut reader = RecordReader::new(Box::new(rx));
        reader.set_trace(TraceHandle::new(sink.clone()));
        let mut n = 0;
        while reader.next_record().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 200);

        let events = sink.snapshot();
        let channel_kinds: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Channel(c) => Some(c.kind),
                _ => None,
            })
            .collect();
        let blocks = channel_kinds.iter().filter(|k| **k == "block").count() as u64;
        assert_eq!(blocks, stats.blocks_per_level.iter().sum::<u64>());
        assert_eq!(channel_kinds.iter().filter(|k| **k == "flush").count(), 1);
        // One stall per block fetch plus the terminal EOF fetch.
        let stalls = channel_kinds.iter().filter(|k| **k == "stall").count() as u64;
        assert_eq!(stalls, blocks + 1);
        for e in &events {
            if let TraceEvent::Channel(c) = e {
                if c.kind == "block" {
                    assert_eq!(c.level, 1);
                    assert!(c.bytes > 0);
                }
            }
        }
    }

    #[test]
    fn aligned_writer_flags_blocks_and_roundtrips() {
        let (tx, rx) = mem_pair(1024);
        let mut w = RecordWriter::new(
            Box::new(tx),
            &CompressionMode::Static(1),
            LevelSet::paper_default(),
            2.0,
        );
        w.set_record_aligned(true);
        let records: Vec<Vec<u8>> =
            (0..300).map(|i| format!("aligned record {i} ").repeat(40).into_bytes()).collect();
        for r in &records {
            w.write_record(r).unwrap();
        }
        w.finish().unwrap();
        let mut reader = RecordReader::new(Box::new(rx));
        let mut out = Vec::new();
        while let Some(r) = reader.next_record().unwrap() {
            out.push(r);
        }
        assert_eq!(out, records);
    }

    #[test]
    fn skip_mode_drops_corrupt_block_and_recovers_aligned_records() {
        use adcomp_codecs::frame::RecoveryPolicy;
        // Build an aligned stream, then damage exactly one middle frame.
        let (tx, rx) = mem_pair(4096);
        let mut w = RecordWriter::new(
            Box::new(tx),
            &CompressionMode::Static(1),
            LevelSet::paper_default(),
            2.0,
        );
        w.set_record_aligned(true);
        let records: Vec<Vec<u8>> =
            (0..1200).map(|i| format!("rec {i} ").repeat(60).into_bytes()).collect();
        for r in &records {
            w.write_record(r).unwrap();
        }
        let wstats = w.finish().unwrap();
        let blocks: u64 = wstats.blocks_per_level.iter().sum();
        assert!(blocks >= 3, "need several blocks, got {blocks}");

        // Re-route through a corrupting middleman: flip a payload byte of
        // the second frame.
        let (tx2, rx2) = mem_pair(4096);
        let mut tx2: Box<dyn BlockTransport> = Box::new(tx2);
        let mut idx = 0u64;
        {
            let mut src: Box<dyn BlockSource> = Box::new(rx);
            while let Some(mut frame) = src.recv().unwrap() {
                if idx == 1 {
                    let k = adcomp_codecs::frame::HEADER_LEN + 3;
                    frame[k] ^= 0x40;
                }
                tx2.send(&frame).unwrap();
                idx += 1;
            }
        }
        tx2.close().unwrap();

        let mut reader =
            RecordReader::with_policy(Box::new(rx2), RecoveryPolicy::skip_and_count());
        let mut out = Vec::new();
        while let Some(r) = reader.next_record().unwrap() {
            out.push(r);
        }
        let rec = reader.stats().recovery;
        assert_eq!(rec.corrupt_frames, 1);
        assert_eq!(rec.resyncs, 1);
        assert!(out.len() < records.len(), "some records must be lost");
        // Every surviving record is byte-identical to an original, in order.
        let mut it = records.iter();
        for r in &out {
            assert!(it.any(|orig| orig == r), "recovered record not in original order");
        }
    }

    #[test]
    fn fail_fast_reader_errors_on_corrupt_block() {
        let (mut tx, rx) = mem_pair(8);
        let mut wire = Vec::new();
        let mut payload = Vec::new();
        payload.extend_from_slice(&4u32.to_le_bytes());
        payload.extend_from_slice(b"abcd");
        adcomp_codecs::frame::encode_block(
            adcomp_codecs::codec_for(adcomp_codecs::CodecId::Raw),
            &payload,
            &mut wire,
        );
        wire[adcomp_codecs::frame::HEADER_LEN] ^= 0xFF; // payload damage
        tx.send(&wire).unwrap();
        tx.close().unwrap();
        let mut reader = RecordReader::new(Box::new(rx));
        assert!(reader.next_record().is_err());
    }

    #[test]
    fn reader_detects_truncated_record() {
        // Write a block whose record length header promises more bytes than
        // the stream delivers.
        let (mut tx, rx) = mem_pair(4);
        let mut wire = Vec::new();
        let mut payload = Vec::new();
        payload.extend_from_slice(&100u32.to_le_bytes());
        payload.extend_from_slice(b"only ten b");
        adcomp_codecs::frame::encode_block(
            adcomp_codecs::codec_for(adcomp_codecs::CodecId::Raw),
            &payload,
            &mut wire,
        );
        tx.send(&wire).unwrap();
        tx.close().unwrap();
        let mut reader = RecordReader::new(Box::new(rx));
        assert!(reader.next_record().is_err());
    }
}
