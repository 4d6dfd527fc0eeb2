//! Channels: the edges of a Nephele job graph.
//!
//! As in the paper's framework, "tasks can exchange data through
//! communication channels"; the executor wires every edge as a loopback
//! TCP connection, the network channel the paper evaluates. Records are
//! length-prefixed byte strings packed into blocks of at most 128 KiB; each
//! block is independently (and, when enabled, adaptively) compressed into a
//! self-describing frame before it reaches the socket. The compression
//! layer is completely transparent to task code.
//!
//! A channel is a length-prefix framer over the one stream stack, not a
//! second one. [`RecordWriter`] writes each record's length prefix and
//! bytes into an [`AdaptiveWriter`] its caller built over any [`Write`],
//! with the block length, model, workers and trace it wants;
//! [`RecordReader`] parses records out of an [`AdaptiveReader`] over any
//! [`Read`]. The block cuts, the block pool, the epoch driver,
//! degrade-to-raw, the checked header parse and truncation handling are
//! the stream's. The framer owns the length prefix and the record count.
//!
//! A channel relies on its byte stream (a socket, a buffer) to deliver
//! every frame, in order: records span blocks, so a lost frame would garble
//! the record across it. Every damaged frame the reader can see ends the
//! channel in a typed error.

use crate::error::Result;
use adcomp_codecs::frame::DEFAULT_MAX_FRAME;
use adcomp_codecs::LevelSet;
use adcomp_core::controller::ControllerConfig;
use adcomp_core::model::{DecisionModel, RateBasedModel, StaticModel};
use adcomp_core::stream::{AdaptiveReader, AdaptiveWriter, StreamStats};
use adcomp_metrics::registry::{self, CounterKind};
use std::io::{self, Read, Write};

/// Compression policy of a channel.
#[derive(Debug, Clone)]
pub enum CompressionMode {
    /// A fixed compression level (`Static(0)`: blocks pass through
    /// uncompressed, still framed).
    Static(usize),
    /// The paper's rate-based adaptive scheme.
    Adaptive(ControllerConfig),
}

impl CompressionMode {
    pub(crate) fn make_model(&self, levels: &LevelSet) -> Box<dyn DecisionModel> {
        match self {
            CompressionMode::Static(l) => Box::new(StaticModel::new(*l, levels.len())),
            CompressionMode::Adaptive(cfg) => Box::new(RateBasedModel::new(*cfg)),
        }
    }
}

/// Writes length-prefixed records into an adaptively compressed stream.
pub struct RecordWriter<W: Write> {
    stream: AdaptiveWriter<W>,
    records: u64,
}

impl<W: Write> RecordWriter<W> {
    /// Frames records into `stream`, which cuts them into blocks at its own
    /// block length: set its workers and trace before wrapping it.
    pub fn new(stream: AdaptiveWriter<W>) -> Self {
        RecordWriter { stream, records: 0 }
    }

    /// Writes one record (any byte payload; may span blocks).
    pub fn write_record(&mut self, record: &[u8]) -> Result<()> {
        self.stream.write_all(&(record.len() as u32).to_le_bytes())?;
        self.stream.write_all(record)?;
        self.records += 1;
        if let Some(m) = registry::global() {
            m.counter_add(CounterKind::ChannelRecords, 1);
        }
        Ok(())
    }

    /// Flushes the tail block. Returns the sink (dropping a socket ends the
    /// peer's stream), the stream's statistics and the record count.
    pub fn finish(self) -> Result<(W, StreamStats, u64)> {
        let (sink, stats) = self.stream.finish()?;
        Ok((sink, stats, self.records))
    }
}

/// Reads length-prefixed records from compressed blocks. It fails fast: a
/// damaged frame, an implausible record length or a stream that ends
/// inside a record is a typed error.
pub struct RecordReader<R: Read> {
    /// Decodes on the caller's thread: the inline lane reads no frame
    /// ahead, so a reader that stops early has taken nothing past it.
    stream: AdaptiveReader<R>,
    /// Decoded bytes; the unparsed ones start at `pos`.
    buf: Vec<u8>,
    pos: usize,
}

impl<R: Read> RecordReader<R> {
    pub fn new(source: R) -> Self {
        RecordReader { stream: AdaptiveReader::new(source), buf: Vec::new(), pos: 0 }
    }

    /// Buffers at least `needed` unparsed bytes, fewer only at end of
    /// stream.
    fn fill(&mut self, needed: usize) -> io::Result<()> {
        while self.buf.len() - self.pos < needed {
            self.buf.drain(..self.pos);
            self.pos = 0;
            let Some(block) = self.stream.read_block()? else {
                return Ok(());
            };
            self.buf.extend_from_slice(block);
        }
        Ok(())
    }

    /// Next record, or `None` at a clean end of stream.
    pub fn next_record(&mut self) -> Result<Option<Vec<u8>>> {
        // Peek the length; only consume once the whole record is here.
        self.fill(4)?;
        let Some(&prefix) = self.buf[self.pos..].first_chunk::<4>() else {
            return self.end();
        };
        let len = u32::from_le_bytes(prefix) as usize;
        if len > DEFAULT_MAX_FRAME as usize {
            let why = format!("implausible record length {len}: record framing desynced");
            return Err(io::Error::new(io::ErrorKind::InvalidData, why).into());
        }
        self.fill(4 + len)?;
        let Some(rec) = self.buf.get(self.pos + 4..self.pos + 4 + len) else {
            return self.end();
        };
        let rec = rec.to_vec();
        self.pos += 4 + len;
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

    /// The stream's statistics so far: byte counters and the incident that
    /// ended it, if any.
    pub fn stats(&self) -> StreamStats {
        self.stream.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NepheleError;
    use adcomp_codecs::frame::{DEFAULT_BLOCK_LEN, HEADER_LEN};
    use adcomp_core::epoch::WallClock;
    use adcomp_trace::TraceHandle;
    use std::net::{TcpListener, TcpStream};

    /// The stream a channel of `mode` writes into, with `block_len` blocks.
    fn stream<W: Write>(sink: W, mode: &CompressionMode, block_len: usize) -> AdaptiveWriter<W> {
        let levels = LevelSet::paper_default();
        let model = mode.make_model(&levels);
        let clock = Box::new(WallClock::new());
        AdaptiveWriter::with_params(sink, levels, model, block_len, 2.0, clock)
    }

    fn read_all<R: Read>(reader: &mut RecordReader<R>) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(r) = reader.next_record().unwrap() {
            out.push(r);
        }
        out
    }

    fn roundtrip(mode: CompressionMode, records: &[Vec<u8>]) -> (Vec<Vec<u8>>, StreamStats, u64) {
        let mut w = RecordWriter::new(stream(Vec::new(), &mode, DEFAULT_BLOCK_LEN));
        for r in records {
            w.write_record(r).unwrap();
        }
        let (wire, stats, written) = w.finish().unwrap();
        (read_all(&mut RecordReader::new(&wire[..])), stats, written)
    }

    #[test]
    fn mem_channel_roundtrips_records() {
        let records: Vec<Vec<u8>> =
            (0..100).map(|i| format!("record number {i}, payload payload").into_bytes()).collect();
        let (out, _, written) = roundtrip(CompressionMode::Static(0), &records);
        assert_eq!(out, records);
        assert_eq!(written, 100);
    }

    #[test]
    fn static_compression_reduces_wire_bytes() {
        let records: Vec<Vec<u8>> =
            (0..200).map(|_| b"very repetitive content here. ".repeat(20).to_vec()).collect();
        let (out, stats, _) = roundtrip(CompressionMode::Static(1), &records);
        assert_eq!(out.len(), 200);
        assert!(stats.wire_ratio() < 0.3, "ratio {}", stats.wire_ratio());
        assert!(stats.blocks_per_level[1] > 0);
    }

    #[test]
    fn adaptive_mode_runs_and_roundtrips() {
        let records: Vec<Vec<u8>> =
            (0..500).map(|i| format!("{i} ").repeat(100).into_bytes()).collect();
        let (out, _, _) =
            roundtrip(CompressionMode::Adaptive(ControllerConfig::default()), &records);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn empty_record_and_empty_stream() {
        let (out, _, written) = roundtrip(CompressionMode::Static(0), &[Vec::new(), b"x".to_vec()]);
        assert_eq!(out, vec![Vec::new(), b"x".to_vec()]);
        assert_eq!(written, 2);
        let (out, _, _) = roundtrip(CompressionMode::Static(0), &[]);
        assert!(out.is_empty());
    }

    #[test]
    fn large_record_spans_blocks() {
        let big = vec![0xABu8; 500_000]; // ~4 blocks
        let (out, stats, _) = roundtrip(CompressionMode::Static(1), std::slice::from_ref(&big));
        assert_eq!(out, vec![big]);
        assert!(stats.blocks_per_level.iter().sum::<u64>() >= 4);
    }

    /// The wire and stats of 4 KiB blocks at `workers` encode threads.
    fn captured_wire(workers: usize, records: &[Vec<u8>]) -> (Vec<u8>, StreamStats) {
        let mut s = stream(Vec::new(), &CompressionMode::Static(2), 4096);
        s.set_pipeline_workers(workers);
        let mut w = RecordWriter::new(s);
        for r in records {
            w.write_record(r).unwrap();
        }
        let (wire, stats, _) = w.finish().unwrap();
        (wire, stats)
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
    fn pipelined_record_writer_roundtrips_over_mem_channel() {
        let records: Vec<Vec<u8>> =
            (0..600).map(|i| format!("{i} ").repeat(80).into_bytes()).collect();
        let mode = CompressionMode::Adaptive(ControllerConfig::default());
        let mut s = stream(Vec::new(), &mode, DEFAULT_BLOCK_LEN);
        s.set_pipeline_workers(4);
        let mut w = RecordWriter::new(s);
        for r in &records {
            w.write_record(r).unwrap();
        }
        let (wire, _, written) = w.finish().unwrap();
        assert_eq!(written, 600);
        assert_eq!(read_all(&mut RecordReader::new(&wire[..])), records);
    }

    /// Over a bare socket: the writer's stream owns the sending half, and
    /// dropping it at `finish` ends the reader's stream.
    #[test]
    fn tcp_transport_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let records: Vec<Vec<u8>> =
            (0..100).map(|i| format!("tcp record {i} ").repeat(10).into_bytes()).collect();
        let recs = records.clone();
        let sender = std::thread::spawn(move || {
            let socket = TcpStream::connect(addr).unwrap();
            let mode = CompressionMode::Static(1);
            let mut w = RecordWriter::new(stream(socket, &mode, DEFAULT_BLOCK_LEN));
            for r in &recs {
                w.write_record(r).unwrap();
            }
            let (_, _, written) = w.finish().unwrap();
            written
        });
        let (socket, _) = listener.accept().unwrap();
        assert_eq!(read_all(&mut RecordReader::new(socket)), records);
        assert_eq!(sender.join().unwrap(), 100);
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
        fn assert_refused(source: impl Read) {
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
        }

        // Any `Read`: the ordinary frame's record comes back, the forged
        // header errors without another byte being read.
        assert_refused(NoMoreAfter(io::Cursor::new(wire.clone())));

        // The same over a real socket whose peer stays open and silent: a
        // reader waiting for the forged payload would block here (the read
        // timeout turns that into a failure instead of a hang).
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let socket = listener.accept().unwrap().0;
        socket.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        peer.write_all(&wire).unwrap();
        assert_refused(socket);
        drop(peer);
    }

    #[test]
    fn traced_channel_emits_block_flush_and_stall_events() {
        use adcomp_trace::TraceEvent;

        let trace = TraceHandle::collecting();
        let mut s = stream(Vec::new(), &CompressionMode::Static(1), DEFAULT_BLOCK_LEN);
        s.set_trace(trace.clone());
        let mut w = RecordWriter::new(s);
        let records: Vec<Vec<u8>> =
            (0..200).map(|_| b"channel trace payload, repetitive. ".repeat(40).to_vec()).collect();
        for r in &records {
            w.write_record(r).unwrap();
        }
        let (wire, stats, _) = w.finish().unwrap();
        assert_eq!(read_all(&mut RecordReader::new(&wire[..])).len(), 200);

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

    /// One RAW frame of `payload`, as a channel's first block.
    fn raw_frame(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        adcomp_codecs::frame::encode_block(
            adcomp_codecs::codec_for(adcomp_codecs::CodecId::Raw),
            payload,
            &mut wire,
        );
        wire
    }

    #[test]
    fn fail_fast_reader_errors_on_corrupt_block() {
        let mut wire = raw_frame(&[&4u32.to_le_bytes()[..], b"abcd"].concat());
        wire[HEADER_LEN] ^= 0xFF; // payload damage
        assert!(RecordReader::new(&wire[..]).next_record().is_err());
    }

    #[test]
    fn reader_detects_truncated_record() {
        // A block whose record length header promises more bytes than the
        // stream delivers.
        let wire = raw_frame(&[&100u32.to_le_bytes()[..], b"only ten b"].concat());
        assert!(RecordReader::new(&wire[..]).next_record().is_err());
    }
}
