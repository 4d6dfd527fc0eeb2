//! Channels: the edges of a Nephele job graph.
//!
//! As in the paper's framework, "tasks can exchange data through
//! communication channels"; the executor wires every edge as a loopback
//! TCP connection ([`TcpTransport`]), the network channel the paper
//! evaluates. Records are length-prefixed byte strings packed into blocks
//! of at most 128 KiB; each block is independently (and, when enabled,
//! adaptively) compressed into a self-describing frame before it reaches
//! the transport. The compression layer is completely transparent to task
//! code.
//!
//! A channel is a record framer over the one stream stack, not a second
//! one. [`RecordWriter`] writes each record's length prefix and bytes into
//! an [`AdaptiveWriter`] whose sink ships every frame with one
//! [`BlockTransport::send`]; [`RecordReader`] parses records out of an
//! [`AdaptiveReader`] over the receiving end, a byte stream on every
//! transport (the in-process queue of [`mem_pair`], which the chaos soak
//! drives, reads as one too). The block pool, the epoch driver,
//! degrade-to-raw, the checked header parse and truncation handling are
//! theirs. The framer owns the length prefix, the block cuts and the
//! record count.
//!
//! A channel relies on its transport (TCP, [`mem_pair`]) to deliver every
//! frame, in order: records span blocks, so a lost frame would garble the
//! record across it. Every damaged frame the reader can see ends the
//! channel in a typed error.

use crate::error::{NepheleError, Result};
use adcomp_codecs::frame::{RecoveryStats, DEFAULT_BLOCK_LEN, DEFAULT_MAX_FRAME, HEADER_LEN};
use adcomp_codecs::LevelSet;
use adcomp_core::controller::ControllerConfig;
use adcomp_core::epoch::WallClock;
use adcomp_core::model::{DecisionModel, RateBasedModel, StaticModel};
use adcomp_core::stream::{AdaptiveReader, AdaptiveWriter};
use adcomp_metrics::registry::{self, CounterKind};
use adcomp_trace::TraceHandle;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

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
    /// Incident counters of [`RecordReader`]'s stream (all zero on a clean
    /// channel and on the writer side).
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

/// Moves opaque frame-encoded blocks from a writer to a reader thread. The
/// receiving half of every transport is a plain byte-stream [`Read`].
pub trait BlockTransport: Send {
    fn send(&mut self, frame: &[u8]) -> Result<()>;
    /// Signals end of stream.
    fn close(&mut self) -> Result<()>;
}

/// In-memory transport over a bounded queue: `send` blocks while the
/// queue is full and fails once the [`MemSource`] is gone.
pub struct MemTransport {
    tx: Option<SyncSender<Vec<u8>>>,
}

/// Receiving half of [`mem_pair`]: the queued frames, read back to back as
/// one byte stream that ends (`read` returns 0) once the queue is drained
/// and the [`MemTransport`] is closed or dropped.
pub struct MemSource {
    rx: Receiver<Vec<u8>>,
    frame: Vec<u8>,
    pos: usize,
}

/// Creates a connected in-memory transport pair with the given block
/// capacity (backpressure bound).
pub fn mem_pair(capacity: usize) -> (MemTransport, MemSource) {
    let (tx, rx) = sync_channel(capacity.max(1));
    (MemTransport { tx: Some(tx) }, MemSource { rx, frame: Vec::new(), pos: 0 })
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

impl Read for MemSource {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        while self.pos == self.frame.len() {
            let Ok(frame) = self.rx.recv() else { return Ok(0) };
            self.frame = frame;
            self.pos = 0;
        }
        let n = (&self.frame[self.pos..]).read(buf)?;
        self.pos += n;
        Ok(n)
    }
}

/// TCP transport: frames stream over a socket; EOF marks the end. The
/// receiving half is the accepted [`TcpStream`] itself.
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

// ---------------------------------------------------------------------------
// Record writer / reader (the task-facing API)
// ---------------------------------------------------------------------------

/// The sink under a channel's [`AdaptiveWriter`]: `FrameWriter` hands it
/// one whole frame per `write_all`, and each is one [`BlockTransport::send`]
/// — which is what lets a message transport carry the byte stream.
struct TransportSink(Box<dyn BlockTransport>);

impl Write for TransportSink {
    fn write(&mut self, frame: &[u8]) -> io::Result<usize> {
        debug_assert!(
            frame.len() >= HEADER_LEN
                && frame.len()
                    == HEADER_LEN + u32::from_le_bytes(frame[8..12].try_into().unwrap()) as usize,
            "a sink write must be one whole frame"
        );
        self.0.send(frame).map_err(|e| match e {
            NepheleError::Io(e) => e,
            other => io::Error::other(other),
        })?;
        Ok(frame.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Writes length-prefixed records into adaptively compressed blocks.
pub struct RecordWriter {
    stream: AdaptiveWriter<TransportSink>,
    /// Blocks are cut after this many application bytes.
    block_len: usize,
    records: u64,
}

impl RecordWriter {
    pub fn new(
        transport: Box<dyn BlockTransport>,
        mode: &CompressionMode,
        levels: LevelSet,
        epoch_secs: f64,
    ) -> Self {
        let (sink, model) = (TransportSink(transport), mode.make_model(&levels));
        let clock = Box::new(WallClock::new());
        let stream =
            AdaptiveWriter::with_params(sink, levels, model, DEFAULT_BLOCK_LEN, epoch_secs, clock);
        RecordWriter { stream, block_len: DEFAULT_BLOCK_LEN, records: 0 }
    }

    /// Encodes blocks on a bounded pool of `workers` threads (`workers <= 1`:
    /// on the caller's thread, the default), as
    /// [`AdaptiveWriter::set_pipeline_workers`]: the wire stream is
    /// byte-identical for any worker count. Panics after the first block.
    pub fn set_pipeline_workers(&mut self, workers: usize) {
        self.stream.set_pipeline_workers(workers);
    }

    /// Lowers the block size from [`DEFAULT_BLOCK_LEN`]. Must be called
    /// before the first record; the fault-injection soak uses small blocks
    /// to exercise many frames per case cheaply.
    pub fn set_block_len(&mut self, len: usize) {
        assert!((16..=DEFAULT_BLOCK_LEN).contains(&len), "block length must be 16..=128 KiB");
        assert!(self.records == 0, "set_block_len after writing");
        self.block_len = len;
    }

    /// Attaches a trace handle to the stream: epoch/decision events and
    /// one codec event per block.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.stream.set_trace(trace);
    }

    /// Writes one record (any byte payload; may span blocks).
    pub fn write_record(&mut self, record: &[u8]) -> Result<()> {
        self.push(&(record.len() as u32).to_le_bytes())?;
        self.push(record)?;
        self.records += 1;
        if let Some(m) = registry::global() {
            m.counter_add(CounterKind::ChannelRecords, 1);
        }
        Ok(())
    }

    /// Writes `data` into the stream, cutting a block every `block_len`
    /// bytes: the stream cuts at its own block length, fixed to
    /// [`DEFAULT_BLOCK_LEN`] when it is built, before any `set_block_len`.
    fn push(&mut self, mut data: &[u8]) -> io::Result<()> {
        while !data.is_empty() {
            let take = data.len().min(self.block_len - self.stream.buffered());
            self.stream.write_all(&data[..take])?;
            data = &data[take..];
            if self.stream.buffered() == self.block_len {
                self.stream.flush_block()?;
            }
        }
        Ok(())
    }

    /// Flushes the tail block and closes the channel; returns final stats.
    pub fn finish(self) -> Result<ChannelStats> {
        let (mut sink, s) = self.stream.finish()?;
        sink.0.close()?;
        Ok(ChannelStats {
            app_bytes: s.app_bytes,
            wire_bytes: s.wire_bytes,
            records: self.records,
            blocks_per_level: s.blocks_per_level,
            epochs: s.epochs,
            recovery: RecoveryStats::default(),
        })
    }
}

/// Reads length-prefixed records from compressed blocks. It fails fast: a
/// damaged frame, an implausible record length or a stream that ends
/// inside a record is a typed error.
pub struct RecordReader {
    /// Decodes on the caller's thread: the inline lane reads no frame
    /// ahead, so a reader that stops early has taken nothing past it.
    stream: AdaptiveReader<Box<dyn Read + Send>>,
    /// Decoded bytes; the unparsed ones start at `pos`.
    buf: Vec<u8>,
    pos: usize,
    stats: ChannelStats,
}

impl RecordReader {
    pub fn new(source: Box<dyn Read + Send>) -> Self {
        RecordReader {
            stream: AdaptiveReader::new(source),
            buf: Vec::new(),
            pos: 0,
            stats: ChannelStats::default(),
        }
    }

    /// Buffers at least `needed` unparsed bytes; `false` at end of stream.
    fn ensure(&mut self, needed: usize) -> Result<bool> {
        while self.buf.len() - self.pos < needed {
            self.buf.drain(..self.pos);
            self.pos = 0;
            let Some(block) = self.stream.read_block()? else {
                return Ok(false);
            };
            self.buf.extend_from_slice(block);
        }
        Ok(true)
    }

    /// Next record, or `None` at a clean end of stream.
    pub fn next_record(&mut self) -> Result<Option<Vec<u8>>> {
        let next = self.parse();
        self.stats.app_bytes = self.stream.app_bytes();
        self.stats.wire_bytes = self.stream.wire_bytes();
        self.stats.recovery = self.stream.recovery();
        next
    }

    fn parse(&mut self) -> Result<Option<Vec<u8>>> {
        // Peek the length; only consume once the whole record is here.
        if !self.ensure(4)? {
            return self.end();
        }
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        if len > DEFAULT_MAX_FRAME as usize {
            let why = format!("implausible record length {len}: record framing desynced");
            return Err(io::Error::new(io::ErrorKind::InvalidData, why).into());
        }
        if !self.ensure(4 + len)? {
            return self.end();
        }
        let rec = self.buf[self.pos + 4..self.pos + 4 + len].to_vec();
        self.pos += 4 + len;
        self.stats.records += 1;
        Ok(Some(rec))
    }

    /// End of stream: clean if nothing is left unparsed, else a truncated
    /// record.
    fn end(&self) -> Result<Option<Vec<u8>>> {
        if self.pos == self.buf.len() {
            return Ok(None);
        }
        let why = "stream ended inside a record";
        Err(io::Error::new(io::ErrorKind::UnexpectedEof, why).into())
    }

    /// Reader-side statistics.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::{Arc, Mutex};

    fn read_all(reader: &mut RecordReader) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(r) = reader.next_record().unwrap() {
            out.push(r);
        }
        out
    }

    fn roundtrip(mode: CompressionMode, records: &[Vec<u8>]) -> (Vec<Vec<u8>>, ChannelStats) {
        let (tx, rx) = mem_pair(1024);
        let mut w = RecordWriter::new(Box::new(tx), &mode, LevelSet::paper_default(), 2.0);
        for r in records {
            w.write_record(r).unwrap();
        }
        let stats = w.finish().unwrap();
        (read_all(&mut RecordReader::new(Box::new(rx))), stats)
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

    fn captured_wire(workers: usize, records: &[Vec<u8>]) -> (Vec<u8>, ChannelStats) {
        let wire = Arc::new(Mutex::new(Vec::new()));
        let mut w = RecordWriter::new(
            Box::new(CaptureTransport(wire.clone())),
            &CompressionMode::Static(2),
            LevelSet::paper_default(),
            2.0,
        );
        w.set_block_len(4096);
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
        let (reference, ref_stats) = captured_wire(1, &records);
        for workers in [2usize, 4] {
            let (wire, stats) = captured_wire(workers, &records);
            assert_eq!(wire, reference, "workers={workers}: pipelined wire differs");
            assert_eq!(stats.app_bytes, ref_stats.app_bytes);
            assert_eq!(stats.wire_bytes, ref_stats.wire_bytes);
            assert_eq!(stats.blocks_per_level, ref_stats.blocks_per_level);
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
        for r in &records {
            w.write_record(r).unwrap();
        }
        let stats = w.finish().unwrap();
        assert_eq!(stats.records, 600);
        assert_eq!(read_all(&mut RecordReader::new(Box::new(rx))), records);
    }

    /// The queue's disconnect rules, seen through the transport pair: a
    /// send with the source gone is a typed error, and the source reads
    /// every queued frame, then end of stream, once the sender is closed.
    #[test]
    fn mem_pair_disconnects_both_ways() {
        let (mut tx, rx) = mem_pair(4);
        drop(rx);
        assert!(matches!(tx.send(b"orphan"), Err(NepheleError::InvalidGraph(_))));

        let (mut tx, mut rx) = mem_pair(4);
        tx.send(b"first ").unwrap();
        tx.send(b"second").unwrap();
        tx.close().unwrap();
        let mut out = Vec::new();
        rx.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"first second");
        assert_eq!(rx.read(&mut [0u8; 8]).unwrap(), 0);
    }

    #[test]
    fn tcp_transport_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
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
        assert_eq!(read_all(&mut RecordReader::new(Box::new(stream))), records);
        let stats = sender.join().unwrap();
        assert_eq!(stats.records, 100);
    }

    /// A `Read` that serves `wire` and then fails the test if asked for
    /// more: the forged frame's payload must never be waited for.
    struct NoMoreAfter(io::Cursor<Vec<u8>>);

    impl Read for NoMoreAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            assert!(
                self.0.position() < self.0.get_ref().len() as u64,
                "read past the forged header"
            );
            self.0.read(buf)
        }
    }

    /// Headers are not CRC-covered: a forged `payload_len` must be refused
    /// by the checked parse before the frame buffer is sized by it (it used
    /// to zero-fill 4 GiB, then block on the socket for the payload).
    #[test]
    fn forged_payload_len_is_refused_before_allocating() {
        use adcomp_codecs::{codec_for, CodecError, CodecId};
        let mut record = 4996u32.to_le_bytes().to_vec();
        record.extend_from_slice(&[7u8; 4996]);
        let mut good = Vec::new();
        adcomp_codecs::frame::encode_block(codec_for(CodecId::QlzLight), &record, &mut good);
        let mut forged = good[..HEADER_LEN].to_vec();
        forged[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let wire = [&good[..], &forged[..]].concat();
        let assert_refused = |source: Box<dyn Read + Send>| {
            let mut reader = RecordReader::new(source);
            assert_eq!(reader.next_record().unwrap(), Some(vec![7u8; 4996]));
            match reader.next_record() {
                Err(NepheleError::Io(e)) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    let inner = e.get_ref().and_then(|e| e.downcast_ref::<CodecError>());
                    assert!(
                        matches!(
                            inner,
                            Some(CodecError::FrameTooLarge {
                                field: "payload_len",
                                len: u32::MAX,
                                ..
                            })
                        ),
                        "expected FrameTooLarge, got {e:?}"
                    );
                }
                other => panic!("forged header must be refused, got {other:?}"),
            }
        };

        // Any `Read`: the ordinary frame's record comes back, the forged
        // header errors without another byte being read.
        assert_refused(Box::new(NoMoreAfter(io::Cursor::new(wire.clone()))));

        // The same over a real socket whose peer stays open and silent: a
        // reader waiting for the forged payload would block here (the read
        // timeout turns that into a failure instead of a hang).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let socket = listener.accept().unwrap().0;
        socket.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        peer.write_all(&wire).unwrap();
        assert_refused(Box::new(socket));
        drop(peer);
    }

    #[test]
    fn traced_channel_emits_block_flush_and_stall_events() {
        use adcomp_trace::TraceEvent;

        let trace = TraceHandle::collecting();
        let (tx, rx) = mem_pair(1024);
        let mut w = RecordWriter::new(
            Box::new(tx),
            &CompressionMode::Static(1),
            LevelSet::paper_default(),
            2.0,
        );
        w.set_trace(trace.clone());
        let records: Vec<Vec<u8>> = (0..200)
            .map(|_| b"channel trace payload, repetitive. ".repeat(40).to_vec())
            .collect();
        for r in &records {
            w.write_record(r).unwrap();
        }
        let stats = w.finish().unwrap();
        assert_eq!(read_all(&mut RecordReader::new(Box::new(rx))).len(), 200);

        // Channel blocks are traced where every stream's are: one codec
        // event per block, from the writer's stream.
        let codec: Vec<_> = trace
            .take()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Codec(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(codec.len() as u64, stats.blocks_per_level.iter().sum::<u64>());
        for c in &codec {
            assert_eq!(c.level, "LIGHT");
            assert!(c.in_bytes > 0);
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
