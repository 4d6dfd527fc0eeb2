//! Transparent adaptive-compression stream wrappers.
//!
//! [`AdaptiveWriter`] sits "between the application and the respective I/O
//! layer" (paper §III-A): application writes are buffered into blocks of at
//! most 128 KiB, each block is compressed at the level currently chosen by
//! the decision model and emitted as a self-describing frame. The receiving
//! side ([`AdaptiveReader`]) needs no coordination — every frame names its
//! codec.
//!
//! The writer has one block path: every block is submitted to a
//! [`CompressPool`] and written when the pool releases it. By default the
//! pool has no threads and encodes inside `submit`;
//! [`AdaptiveWriter::set_pipeline_workers`] only changes how many threads
//! stand behind the same calls. The reader is its mirror image: every
//! validated frame is submitted to a [`DecodePool`] and served out of the
//! block the pool releases, and [`AdaptiveReader::set_pipeline_workers`]
//! likewise only changes the thread count. Frames are read straight into
//! recycled buffers and served out of them, so neither side copies a block
//! between stages or allocates per block in steady state.
//!
//! Record framers (nephele's channels) are a layer above, not a second
//! stack: they write through the writer's `Write`, which cuts blocks at its
//! own block length, and read through one hook,
//! [`AdaptiveReader::read_block`], which takes whole blocks without a copy.
//!
//! These wrappers run on real I/O (sockets, files, pipes) under a wall
//! clock; the simulator reuses the same controller under virtual time.

use crate::epoch::{Clock, EpochContext, EpochDriver, WallClock};
use crate::model::DecisionModel;
use crate::pipeline::{Completion, CompressPool, DecodePool, Decoded};
use adcomp_codecs::frame::{FrameReader, FrameWriter, RecoveryStats, DEFAULT_BLOCK_LEN, HEADER_LEN};
use adcomp_codecs::{CodecId, LevelSet};
use adcomp_metrics::registry;
use adcomp_trace::{FaultEvent, TraceEvent, TraceHandle};
use std::io::{self, Read, Write};

/// Aggregate statistics of an adaptive stream, for reporting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    /// Application bytes accepted.
    pub app_bytes: u64,
    /// Frame bytes emitted to the I/O layer.
    pub wire_bytes: u64,
    /// Blocks emitted per compression level.
    pub blocks_per_level: Vec<u64>,
    /// Blocks emitted per wire codec id (writer side; indexed by
    /// `CodecId as usize` over the full registry, so portfolio streams
    /// report their codec mix). Counts the codec actually on the wire —
    /// raw fallbacks and degrades land on id 0. Empty on the reader.
    pub blocks_per_codec: Vec<u64>,
    /// Blocks whose compression expanded and fell back to raw.
    pub raw_fallbacks: u64,
    /// Completed decision epochs.
    pub epochs: u64,
    /// The incident that ended a reader's stream, if any (`corrupt_frames`,
    /// `truncations`). All zero on a clean stream and on the writer.
    pub recovery: RecoveryStats,
    /// Writer-side codec failures that forced a degrade to level NONE
    /// until the next epoch decision.
    pub degraded_blocks: u64,
}

impl StreamStats {
    /// Overall wire/app ratio (1.0 when nothing was written).
    pub fn wire_ratio(&self) -> f64 {
        if self.app_bytes == 0 {
            1.0
        } else {
            self.wire_bytes as f64 / self.app_bytes as f64
        }
    }
}

/// Adaptive compressing writer.
pub struct AdaptiveWriter<W: Write> {
    frames: FrameWriter<W>,
    levels: LevelSet,
    driver: EpochDriver,
    clock: Box<dyn Clock>,
    buf: Vec<u8>,
    block_len: usize,
    blocks_per_level: Vec<u64>,
    blocks_per_codec: Vec<u64>,
    raw_fallbacks: u64,
    degraded_blocks: u64,
    /// Every block is encoded here: on the caller's thread by default, on
    /// worker threads after [`AdaptiveWriter::set_pipeline_workers`].
    pool: CompressPool,
    /// Reused landing buffer for the pool's in-order completions.
    ready: Vec<Completion>,
    /// Content-aware portfolio mode: each block's codec family is chosen
    /// by [`crate::portfolio::select`] over the controller's level.
    portfolio: bool,
}

impl<W: Write> AdaptiveWriter<W> {
    /// Wraps `inner` with the paper's defaults: 128 KiB blocks, epoch
    /// `t = 2 s`, wall clock.
    pub fn new(inner: W, levels: LevelSet, model: Box<dyn DecisionModel>) -> Self {
        Self::with_params(inner, levels, model, DEFAULT_BLOCK_LEN, 2.0, Box::new(WallClock::new()))
    }

    /// Full-control constructor.
    pub fn with_params(
        inner: W,
        levels: LevelSet,
        model: Box<dyn DecisionModel>,
        block_len: usize,
        epoch_secs: f64,
        clock: Box<dyn Clock>,
    ) -> Self {
        assert!(block_len > 0);
        assert_eq!(
            model.num_levels(),
            levels.len(),
            "decision model and level set must agree on the number of levels"
        );
        let now = clock.now();
        let nlevels = levels.len();
        AdaptiveWriter {
            frames: FrameWriter::new(inner),
            levels,
            driver: EpochDriver::new(model, epoch_secs, now),
            clock,
            buf: Vec::with_capacity(block_len),
            block_len,
            blocks_per_level: vec![0; nlevels],
            blocks_per_codec: vec![0; CodecId::REGISTRY.len()],
            raw_fallbacks: 0,
            degraded_blocks: 0,
            pool: CompressPool::new(1),
            ready: Vec::new(),
            portfolio: false,
        }
    }

    /// Encodes blocks on `workers` pool threads (`workers <= 1`: on the
    /// caller's thread, the default). The wire stream is byte-identical
    /// for any worker count: levels are chosen at submission time and
    /// frames are re-emitted in submission order through the same
    /// [`FrameWriter`], while the pool's bounded queues push back on the
    /// caller so the rate the `EpochDriver` observes stays the true
    /// application rate. Call before writing any data: panics once a
    /// block has been submitted (blocks in flight would be lost).
    pub fn set_pipeline_workers(&mut self, workers: usize) {
        self.pool.set_workers(workers);
    }

    /// Enables per-block content-aware codec selection: each block is
    /// probed ([`crate::portfolio::probe`]) and the codec family backing
    /// the controller's current level comes from the nominated ladder
    /// instead of the fixed [`LevelSet`]. The rate controller still makes
    /// the online level decision; the wire format is unchanged (every
    /// frame names its codec). Selection is a pure function of the block
    /// bytes and runs at submission time, so portfolio streams stay
    /// byte-identical for any worker count.
    pub fn set_portfolio(&mut self, portfolio: bool) {
        self.portfolio = portfolio;
    }

    /// Makes the stream seekable: every emitted frame is recorded in an
    /// in-memory block index and [`AdaptiveWriter::finish`] appends it as a
    /// self-describing trailer frame, which
    /// [`crate::seek::IndexedReader`] uses for O(block) random access. The
    /// block frames themselves are byte-identical to a non-seekable
    /// stream's — old readers skip the trailer and decode unchanged.
    /// Call before writing any data.
    pub fn set_seekable(&mut self, seekable: bool) {
        assert!(
            self.frames.app_bytes == 0,
            "set_seekable must be called before the first write"
        );
        if seekable {
            self.frames.enable_index();
        }
    }

    /// Attaches a trace handle: it collects the epoch driver's
    /// epoch/decision events and the frame writer's per-block codec
    /// events, tagged with the epoch in force when the block was
    /// compressed.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.driver.set_trace(trace.clone());
        self.pool.set_trace(trace.clone());
        self.frames.set_trace(trace);
    }

    /// Currently applied compression level.
    pub fn level(&self) -> usize {
        self.driver.level()
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            app_bytes: self.frames.app_bytes,
            wire_bytes: self.frames.wire_bytes,
            blocks_per_level: self.blocks_per_level.clone(),
            blocks_per_codec: self.blocks_per_codec.clone(),
            raw_fallbacks: self.raw_fallbacks,
            epochs: self.driver.epochs(),
            recovery: RecoveryStats::default(),
            degraded_blocks: self.degraded_blocks,
        }
    }

    /// The one block path: emits the buffered (possibly partial) block now
    /// — nothing if the buffer is empty — without flushing the pool or the
    /// underlying writer. The level is captured *now* (submission order ==
    /// decision order), the block goes to the pool, and whatever frames the
    /// pool releases are written in sequence. `driver.record` runs at
    /// submission with this block's `(bytes, now)`, so the level trajectory
    /// — and therefore the wire bytes — cannot depend on the worker count.
    fn flush_block(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let level = self.driver.level();
        let now = self.clock.now();
        // Portfolio selection happens here, at submission time, on the
        // block bytes themselves — the same purity argument that makes
        // level capture sufficient for byte-identity covers the codec id.
        let codec_id = if self.portfolio {
            crate::portfolio::select(&self.buf, level)
        } else {
            self.levels.id(level)
        };
        let data = std::mem::take(&mut self.buf);
        let bytes = data.len() as u64;
        if self.driver.trace().enabled() {
            self.pool.set_trace_mark(self.driver.epochs(), now);
        }
        self.pool.submit(level, codec_id, data, &mut self.ready);
        self.write_completions(now)?;
        self.driver.record(bytes, now, &EpochContext::default());
        Ok(())
    }

    /// Writes the pool completions landed in `ready` (already in submission
    /// order) to the wire. Self-healing: a degraded completion (the codec
    /// panicked on that block and the pool re-encoded it raw) forces the
    /// level to NONE until the next epoch decision. Transport I/O errors
    /// are NOT degraded around: we cannot know how much of a frame already
    /// reached the wire, so they stay fail-fast.
    fn write_completions(&mut self, now: f64) -> io::Result<()> {
        let mut ready = std::mem::take(&mut self.ready);
        let written = ready.drain(..).try_for_each(|c| self.write_completion(c, now));
        self.ready = ready;
        written
    }

    fn write_completion(&mut self, c: Completion, now: f64) -> io::Result<()> {
        let traced = self.driver.trace().enabled();
        if c.degraded {
            self.degraded_blocks += 1;
            if traced {
                self.driver.trace().observe(TraceEvent::Fault(FaultEvent {
                    epoch: self.driver.epochs(),
                    t: now,
                    kind: "degrade",
                    bytes: c.info.uncompressed_len as u64,
                    attempt: c.level as u64,
                }));
            }
            self.driver.force_level(0, now);
        }
        if traced {
            self.frames.set_trace_mark(self.driver.epochs(), now);
        }
        let requested = if c.degraded { CodecId::Raw } else { c.requested };
        self.frames.write_frame(requested, &c.frame, c.info, c.compress_ns)?;
        let level = if c.degraded { 0 } else { c.level };
        self.blocks_per_level[level] += 1;
        if let Some(m) = registry::global() {
            m.level_block(level, 1);
        }
        let wire_codec = if c.info.raw_fallback { CodecId::Raw } else { requested };
        self.blocks_per_codec[wire_codec as usize] += 1;
        if c.info.raw_fallback {
            self.raw_fallbacks += 1;
        }
        // Both buffers go round again: the frame's to the pool, the
        // block's to the next fill.
        self.pool.recycle(c.frame);
        if self.buf.capacity() == 0 {
            let mut d = c.data;
            d.clear();
            self.buf = d;
        }
        Ok(())
    }

    /// Drains every in-flight block to the wire.
    fn drain_pipeline(&mut self) -> io::Result<()> {
        self.pool.drain(&mut self.ready);
        self.write_completions(self.clock.now())
    }

    /// Flushes buffered data as a (possibly short) block and flushes the
    /// underlying writer. Call before dropping to avoid losing the tail.
    pub fn finish(mut self) -> io::Result<(W, StreamStats)> {
        self.flush_block()?;
        self.drain_pipeline()?;
        self.frames.finish_index()?;
        self.frames.flush()?;
        let stats = self.stats();
        Ok((self.frames.into_inner(), stats))
    }
}

impl<W: Write> Write for AdaptiveWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut consumed = 0;
        while consumed < data.len() {
            let room = self.block_len - self.buf.len();
            let take = room.min(data.len() - consumed);
            self.buf.extend_from_slice(&data[consumed..consumed + take]);
            consumed += take;
            if self.buf.len() == self.block_len {
                self.flush_block()?;
            }
        }
        Ok(consumed)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.flush_block()?;
        self.drain_pipeline()?;
        self.frames.flush()
    }
}

/// Decompressing reader for streams produced by [`AdaptiveWriter`].
///
/// One block path, the mirror of the writer's: `FrameReader::read_frame`
/// validates the next frame on the caller's thread (header, caps, CRC), the
/// payload is submitted to the [`DecodePool`], and bytes are served
/// straight out of the block the pool releases. The reader fails fast: the
/// first frame that fails a check ends the stream in a typed error, after
/// every block before it has been served.
pub struct AdaptiveReader<R: Read> {
    frames: FrameReader<R>,
    /// Every block is decoded here: on the caller's thread by default, on
    /// worker threads after [`AdaptiveReader::set_pipeline_workers`].
    pool: DecodePool,
    /// Blocks the pool has released in wire order and that are not served
    /// yet (at most the pool depth).
    ready: Vec<Decoded>,
    /// The block being served, and how much of it has been.
    block: Option<Decoded>,
    pos: usize,
    eof: bool,
    /// A frame-layer error met while reading ahead. It surfaces once every
    /// block before it has been served, as it would without read-ahead.
    failed: Option<io::Error>,
}

impl<R: Read> AdaptiveReader<R> {
    pub fn new(inner: R) -> Self {
        AdaptiveReader {
            frames: FrameReader::new(inner),
            pool: DecodePool::new(1),
            ready: Vec::new(),
            block: None,
            pos: 0,
            eof: false,
            failed: None,
        }
    }

    /// Decodes blocks on `workers` pool threads (`workers <= 1`: on the
    /// caller's thread, the default). Decoded bytes, the error a damaged
    /// stream ends in, its incident counters and the byte/block counters
    /// are identical for any worker count: validation never leaves the
    /// caller's thread, and a frame is counted when its block is released
    /// in wire order. Call before reading any data.
    pub fn set_pipeline_workers(&mut self, workers: usize) {
        assert!(
            self.frames.wire_bytes == 0,
            "set_pipeline_workers must be called before the first read"
        );
        self.pool = DecodePool::new(workers);
    }

    /// Incident counters (all zero on a clean stream).
    pub fn recovery(&self) -> RecoveryStats {
        self.frames.recovery
    }

    /// Statistics snapshot mirroring the writer side's [`StreamStats`]
    /// (per-level block counts are unknown on the reader, so that vector
    /// is empty).
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            app_bytes: self.frames.app_bytes,
            wire_bytes: self.frames.wire_bytes,
            blocks_per_level: Vec::new(),
            blocks_per_codec: Vec::new(),
            raw_fallbacks: 0,
            epochs: 0,
            recovery: self.frames.recovery,
            degraded_blocks: 0,
        }
    }

    /// Application bytes of the blocks released so far.
    pub fn app_bytes(&self) -> u64 {
        self.frames.app_bytes
    }

    /// Wire bytes of the frames whose blocks have been released so far
    /// (plus any index trailer skipped): frames read ahead or refused as
    /// damaged are not in it.
    pub fn wire_bytes(&self) -> u64 {
        self.frames.wire_bytes
    }

    /// Blocks released so far.
    pub fn blocks(&self) -> u64 {
        self.frames.blocks
    }

    /// Returns the underlying reader (discarding any buffered plaintext).
    pub fn into_inner(self) -> R {
        self.frames.into_inner()
    }

    /// Validates and submits frames until the pool releases a block or the
    /// stream ends, so at most the pool depth is ever read ahead.
    fn refill(&mut self) {
        while self.ready.is_empty() {
            if self.eof || self.failed.is_some() {
                // Nothing more to submit: what is in flight comes out.
                self.pool.drain(&mut self.ready);
                return;
            }
            let mut payload = self.pool.wire_buf();
            match self.frames.read_frame(&mut payload) {
                Ok(Some(h)) => {
                    let len = h.uncompressed_len as usize;
                    self.pool.submit(h.codec, len, payload, 0, &mut self.ready)
                }
                Ok(None) => self.eof = true,
                Err(e) => self.failed = Some(e),
            }
        }
    }

    /// Accounts for a released block. The frame passed its CRC, so a decode
    /// failure means a damaged header field or a checksum collision: a
    /// counted corrupt frame and a typed error — the same rule at every
    /// worker count.
    fn accept(&mut self, mut d: Decoded) -> io::Result<()> {
        if let Some(e) = d.err.take() {
            self.frames.recovery.corrupt_frames += 1;
            self.pool.recycle(d);
            return Err(io::Error::new(io::ErrorKind::InvalidData, e));
        }
        // `refill` submits the bare payload, so the frame is that + header.
        self.frames.app_bytes += d.bytes.len() as u64;
        self.frames.wire_bytes += (HEADER_LEN + d.wire.len()) as u64;
        self.frames.blocks += 1;
        self.block = Some(d);
        self.pos = 0;
        Ok(())
    }

    fn block_bytes(&self) -> &[u8] {
        self.block.as_ref().map_or(&[], |d| &d.bytes)
    }

    /// Moves on to the next released block with bytes in it unless the
    /// current one has bytes left to serve; `false` at end of stream.
    fn fill_block(&mut self) -> io::Result<bool> {
        while self.pos >= self.block_bytes().len() {
            // Hand the consumed block's buffers back before the next submit,
            // so the inline lane decodes into the same, still-hot buffer.
            if let Some(d) = self.block.take() {
                self.pool.recycle(d);
            }
            self.refill();
            if self.ready.is_empty() {
                return self.failed.take().map_or(Ok(false), Err);
            }
            // Never more than the pool depth to shift.
            let next = self.ready.remove(0);
            self.accept(next)?;
        }
        Ok(true)
    }

    /// The block-granular read for record framers: the unserved rest of the
    /// current block, or the next released block whole; `None` at end of
    /// stream.
    pub fn read_block(&mut self) -> io::Result<Option<&[u8]>> {
        if !self.fill_block()? {
            return Ok(None);
        }
        let start = self.pos;
        self.pos = self.block_bytes().len();
        Ok(Some(&self.block_bytes()[start..]))
    }
}

impl<R: Read> Read for AdaptiveReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if !self.fill_block()? {
            return Ok(0);
        }
        let n = (&self.block_bytes()[self.pos..]).read(buf)?;
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::ManualClock;
    use crate::model::{RateBasedModel, StaticModel};
    use adcomp_codecs::LevelSet;

    fn levels() -> LevelSet {
        LevelSet::paper_default()
    }

    #[test]
    fn writer_reader_roundtrip_static_level() {
        let data = b"stream roundtrip data! ".repeat(10_000);
        let mut w = AdaptiveWriter::new(
            Vec::new(),
            levels(),
            Box::new(StaticModel::new(1, 4)),
        );
        w.write_all(&data).unwrap();
        let (wire, stats) = w.finish().unwrap();
        assert_eq!(stats.app_bytes, data.len() as u64);
        assert!(stats.wire_ratio() < 0.5, "ratio {}", stats.wire_ratio());
        assert!(stats.blocks_per_level[1] > 0);

        let mut r = AdaptiveReader::new(&wire[..]);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(r.app_bytes(), data.len() as u64);
        assert_eq!(r.wire_bytes(), wire.len() as u64);
    }

    #[test]
    fn writer_reader_roundtrip_adaptive_model() {
        let data = b"adaptive roundtrip, with some repetition repetition. ".repeat(20_000);
        let clock = ManualClock::new();
        let mut w = AdaptiveWriter::with_params(
            Vec::new(),
            levels(),
            Box::new(RateBasedModel::paper_default()),
            4096,
            0.01,
            Box::new(clock.clone()),
        );
        // Advance time as we write so epochs fire and levels change.
        for (i, chunk) in data.chunks(4096).enumerate() {
            clock.set(i as f64 * 0.004);
            w.write_all(chunk).unwrap();
        }
        let (wire, stats) = w.finish().unwrap();
        assert!(stats.epochs > 10, "expected many epochs, got {}", stats.epochs);
        assert!(
            stats.blocks_per_level.iter().filter(|&&c| c > 0).count() > 1,
            "adaptive run should have used multiple levels: {:?}",
            stats.blocks_per_level
        );
        let mut out = Vec::new();
        AdaptiveReader::new(&wire[..]).read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn partial_final_block_flushed_by_finish() {
        let data = b"short tail";
        let mut w = AdaptiveWriter::new(Vec::new(), levels(), Box::new(StaticModel::new(0, 4)));
        w.write_all(data).unwrap();
        let (wire, stats) = w.finish().unwrap();
        assert_eq!(stats.app_bytes, data.len() as u64);
        let mut out = Vec::new();
        AdaptiveReader::new(&wire[..]).read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn flush_mid_stream_keeps_stream_decodable() {
        let mut w = AdaptiveWriter::new(Vec::new(), levels(), Box::new(StaticModel::new(1, 4)));
        w.write_all(b"first part ").unwrap();
        w.flush().unwrap();
        w.write_all(b"second part").unwrap();
        let (wire, _) = w.finish().unwrap();
        let mut out = Vec::new();
        AdaptiveReader::new(&wire[..]).read_to_end(&mut out).unwrap();
        assert_eq!(out, b"first part second part");
    }

    #[test]
    fn empty_stream_roundtrip() {
        let w = AdaptiveWriter::new(Vec::new(), levels(), Box::new(StaticModel::new(2, 4)));
        let (wire, stats) = w.finish().unwrap();
        assert!(wire.is_empty());
        assert_eq!(stats.app_bytes, 0);
        assert_eq!(stats.wire_ratio(), 1.0);
        let mut out = Vec::new();
        AdaptiveReader::new(&wire[..]).read_to_end(&mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn incompressible_data_counts_fallbacks() {
        let mut x = 99u64;
        let data: Vec<u8> = (0..300_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let mut w = AdaptiveWriter::new(Vec::new(), levels(), Box::new(StaticModel::new(1, 4)));
        w.write_all(&data).unwrap();
        let (wire, stats) = w.finish().unwrap();
        assert!(stats.raw_fallbacks > 0);
        assert!(stats.wire_ratio() < 1.01);
        let mut out = Vec::new();
        AdaptiveReader::new(&wire[..]).read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn traced_stream_emits_codec_and_decision_events() {
        use adcomp_trace::{TraceEvent, TraceHandle};

        let trace = TraceHandle::collecting();
        let clock = ManualClock::new();
        let mut w = AdaptiveWriter::with_params(
            Vec::new(),
            levels(),
            Box::new(RateBasedModel::paper_default()),
            1024,
            0.05,
            Box::new(clock.clone()),
        );
        w.set_trace(trace.clone());
        let data = b"traced stream payload with repetition repetition ".repeat(400);
        for (i, chunk) in data.chunks(1024).enumerate() {
            clock.set(i as f64 * 0.02);
            w.write_all(chunk).unwrap();
        }
        let (wire, stats) = w.finish().unwrap();
        assert!(stats.epochs > 2);
        let events = trace.take();
        let codecs = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Codec(_)))
            .count();
        let decisions = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Decision(_)))
            .count();
        let epochs = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Epoch(_)))
            .count();
        assert_eq!(codecs as u64, stats.blocks_per_level.iter().sum::<u64>());
        assert_eq!(decisions as u64, stats.epochs);
        assert_eq!(epochs as u64, stats.epochs);
        // Without threads there is no pipeline to report on: the pool the
        // blocks went through stays silent. (The registry half of this
        // contract needs its own process: `tests/inline_lane_registry.rs`.)
        assert!(!events.iter().any(|e| matches!(e, TraceEvent::Pipeline(_))));
        // Codec events are tagged with an epoch that has actually started.
        for e in &events {
            if let TraceEvent::Codec(c) = e {
                assert!(c.epoch <= stats.epochs, "codec epoch {} out of range", c.epoch);
            }
        }
        // The stream stays decodable with tracing attached.
        let mut out = Vec::new();
        AdaptiveReader::new(&wire[..]).read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn panicking_codec_degrades_to_raw_and_stream_survives() {
        let clock = ManualClock::new();
        let mut w = AdaptiveWriter::with_params(
            Vec::new(),
            levels(),
            Box::new(StaticModel::new(2, 4)),
            1024,
            1.0,
            Box::new(clock.clone()),
        );
        let data = b"degrade path payload, quite repetitive indeed. ".repeat(100);
        // First block encodes fine at level 2.
        w.write_all(&data[..1024]).unwrap();
        assert_eq!(w.level(), 2);
        // Second block: codec "bug" — encode panics. The writer must catch
        // it, emit the block raw, and force level NONE.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        w.pool.bomb_next_block();
        w.write_all(&data[1024..2048]).unwrap();
        std::panic::set_hook(prev);
        assert_eq!(w.level(), 0, "degrade must force level NONE");
        // Remaining data flows at level 0 until the next epoch decision
        // (ManualClock never advances here, so no epoch fires).
        w.write_all(&data[2048..]).unwrap();
        let (wire, stats) = w.finish().unwrap();
        assert_eq!(stats.degraded_blocks, 1);
        assert!(stats.blocks_per_level[0] > 0, "{:?}", stats.blocks_per_level);
        // The whole stream — including the degraded block — decodes.
        let mut out = Vec::new();
        AdaptiveReader::new(&wire[..]).read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn forced_level_applies_until_next_epoch() {
        let clock = ManualClock::new();
        let mut w = AdaptiveWriter::with_params(
            Vec::new(),
            levels(),
            Box::new(StaticModel::new(2, 4)),
            1024,
            1.0,
            Box::new(clock.clone()),
        );
        assert_eq!(w.level(), 2);
        w.driver.force_level(0, 0.0);
        assert_eq!(w.level(), 0);
        // Next epoch: the static model pulls it back to 2.
        clock.set(1.5);
        w.write_all(&[0u8; 2048]).unwrap();
        assert_eq!(w.level(), 2);
    }

    #[test]
    #[should_panic(expected = "must agree on the number of levels")]
    fn mismatched_model_and_levels_rejected() {
        AdaptiveWriter::new(Vec::new(), levels(), Box::new(StaticModel::new(0, 2)));
    }

    #[test]
    fn reader_handles_small_read_buffers() {
        let data = b"tiny reads ".repeat(1000);
        let mut w = AdaptiveWriter::new(Vec::new(), levels(), Box::new(StaticModel::new(1, 4)));
        w.write_all(&data).unwrap();
        let (wire, _) = w.finish().unwrap();
        let mut r = AdaptiveReader::new(&wire[..]);
        let mut out = Vec::new();
        let mut small = [0u8; 7];
        loop {
            let n = r.read(&mut small).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&small[..n]);
        }
        assert_eq!(out, data);
    }

    /// The reference no longer comes from a second writer implementation:
    /// it is a bare `encode_block` loop, which shares nothing with the
    /// writer and its pool but the pure encode function.
    #[test]
    fn writer_matches_bare_encode_block_loop() {
        use adcomp_codecs::frame::encode_block;
        let data = b"independent reference corpus, mildly repetitive. ".repeat(3000);
        for level in 0..4 {
            let mut reference = Vec::new();
            for block in data.chunks(4096) {
                encode_block(levels().codec(level), block, &mut reference);
            }
            for workers in [1usize, 4] {
                let mut w = AdaptiveWriter::with_params(
                    Vec::new(),
                    levels(),
                    Box::new(StaticModel::new(level, 4)),
                    4096,
                    1.0,
                    Box::new(ManualClock::new()),
                );
                w.set_pipeline_workers(workers);
                w.write_all(&data).unwrap();
                let (wire, stats) = w.finish().unwrap();
                assert_eq!(wire, reference, "level {level} workers {workers}");
                assert_eq!(stats.blocks_per_level[level], data.chunks(4096).count() as u64);
            }
        }
    }

    /// 64 × 4 KiB blocks at HEAVY on 4 workers, worker count changed after
    /// 32 of them.
    fn heavy_writer_mid_stream(data: &[u8]) -> AdaptiveWriter<Vec<u8>> {
        let mut w = AdaptiveWriter::with_params(
            Vec::new(),
            levels(),
            Box::new(StaticModel::new(3, 4)),
            4096,
            1.0,
            Box::new(ManualClock::new()),
        );
        w.set_pipeline_workers(4);
        w.write_all(&data[..32 * 4096]).unwrap();
        w
    }

    /// Replacing the pool mid-stream used to drop the blocks in flight
    /// silently (the stream decoded short, `app_bytes` agreed with the
    /// short count). The call is refused instead and the stream is whole.
    #[test]
    fn set_pipeline_workers_mid_stream_is_refused_and_loses_nothing() {
        let data = b"blocks in flight must not vanish. ".repeat(8000);
        let data = &data[..64 * 4096];
        let mut w = heavy_writer_mid_stream(data);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.set_pipeline_workers(1)
        }));
        std::panic::set_hook(prev);
        assert!(refused.is_err(), "mid-stream worker change must be refused");
        w.write_all(&data[32 * 4096..]).unwrap();
        let (wire, stats) = w.finish().unwrap();
        assert_eq!(stats.app_bytes, data.len() as u64);
        let mut out = Vec::new();
        AdaptiveReader::new(&wire[..]).read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    #[should_panic(expected = "set_pipeline_workers must be called before the first write")]
    fn set_pipeline_workers_after_first_write_panics() {
        let data = vec![7u8; 64 * 4096];
        heavy_writer_mid_stream(&data).set_pipeline_workers(1);
    }

    #[test]
    #[should_panic(expected = "set_pipeline_workers must be called before the first read")]
    fn reader_set_pipeline_workers_after_first_read_panics() {
        let wire = serial_wire(&b"reader in flight ".repeat(4000), 1, 4096);
        let mut r = AdaptiveReader::new(&wire[..]);
        r.set_pipeline_workers(4);
        r.read_exact(&mut [0u8; 16]).unwrap();
        r.set_pipeline_workers(1);
    }

    /// Serial wire bytes for a fixed corpus, used as the reference in the
    /// pipelined-equivalence tests below.
    fn serial_wire(data: &[u8], level: usize, block: usize) -> Vec<u8> {
        let mut w = AdaptiveWriter::with_params(
            Vec::new(),
            levels(),
            Box::new(StaticModel::new(level, 4)),
            block,
            1.0,
            Box::new(ManualClock::new()),
        );
        w.write_all(data).unwrap();
        w.finish().unwrap().0
    }

    #[test]
    fn pipelined_writer_matches_serial_bytes_static_levels() {
        let data = b"pipelined equivalence corpus, mildly repetitive. ".repeat(3000);
        for level in 0..4 {
            let reference = serial_wire(&data, level, 4096);
            for workers in [1usize, 2, 4, 7] {
                let mut w = AdaptiveWriter::with_params(
                    Vec::new(),
                    levels(),
                    Box::new(StaticModel::new(level, 4)),
                    4096,
                    1.0,
                    Box::new(ManualClock::new()),
                );
                w.set_pipeline_workers(workers);
                w.write_all(&data).unwrap();
                let (wire, stats) = w.finish().unwrap();
                assert_eq!(
                    wire, reference,
                    "level {level} workers {workers}: pipelined wire differs from serial"
                );
                assert_eq!(stats.app_bytes, data.len() as u64);
                assert_eq!(stats.wire_bytes, reference.len() as u64);
            }
        }
    }

    #[test]
    fn pipelined_writer_matches_serial_bytes_adaptive_model() {
        let data = b"adaptive pipelined corpus with repetition repetition. ".repeat(8000);
        let run = |workers: usize| -> (Vec<u8>, StreamStats) {
            let clock = ManualClock::new();
            let mut w = AdaptiveWriter::with_params(
                Vec::new(),
                levels(),
                Box::new(RateBasedModel::paper_default()),
                4096,
                0.01,
                Box::new(clock.clone()),
            );
            if workers > 1 {
                w.set_pipeline_workers(workers);
            }
            for (i, chunk) in data.chunks(4096).enumerate() {
                clock.set(i as f64 * 0.004);
                w.write_all(chunk).unwrap();
            }
            w.finish().unwrap()
        };
        let (reference, ref_stats) = run(1);
        assert!(ref_stats.epochs > 10);
        for workers in [2usize, 4, 8] {
            let (wire, stats) = run(workers);
            assert_eq!(wire, reference, "workers {workers}: adaptive wire differs");
            assert_eq!(stats.epochs, ref_stats.epochs);
            assert_eq!(stats.blocks_per_level, ref_stats.blocks_per_level);
        }
        let mut out = Vec::new();
        AdaptiveReader::new(&reference[..]).read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }

    /// Heterogeneous corpus: each 4096-byte block is a different shape, so
    /// portfolio selection yields a genuinely mixed-codec stream.
    fn heterogeneous_corpus(blocks: usize) -> Vec<u8> {
        let mut data = Vec::new();
        let mut x = 0x2545_F491u32;
        for b in 0..blocks {
            match b % 3 {
                0 => data.extend(std::iter::repeat_n((b % 5) as u8, 4096)),
                1 => data.extend(
                    b"text-like content with words and repetition, repetition. "
                        .iter()
                        .copied()
                        .cycle()
                        .take(4096),
                ),
                _ => data.extend((0..4096).map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    (x >> 24) as u8
                })),
            }
        }
        data
    }

    /// Codec ids of every frame in a wire stream, by walking the headers.
    fn codec_ids(wire: &[u8]) -> Vec<u8> {
        let mut ids = Vec::new();
        let mut pos = 0;
        while pos + 16 <= wire.len() {
            assert_eq!(&wire[pos..pos + 2], &[0xAD, 0xC2], "frame magic at {pos}");
            ids.push(wire[pos + 2]);
            let payload = u32::from_le_bytes(wire[pos + 8..pos + 12].try_into().unwrap());
            pos += 16 + payload as usize;
        }
        assert_eq!(pos, wire.len());
        ids
    }

    #[test]
    fn portfolio_streams_are_mixed_codec_and_worker_count_invariant() {
        let data = heterogeneous_corpus(12);
        let run = |workers: usize| -> Vec<u8> {
            let mut w = AdaptiveWriter::with_params(
                Vec::new(),
                levels(),
                Box::new(StaticModel::new(2, 4)),
                4096,
                1.0,
                Box::new(ManualClock::new()),
            );
            w.set_portfolio(true);
            if workers > 1 {
                w.set_pipeline_workers(workers);
            }
            w.write_all(&data).unwrap();
            w.finish().unwrap().0
        };
        let reference = run(1);
        // The stream genuinely mixes codec families per block content.
        let distinct: std::collections::BTreeSet<u8> =
            codec_ids(&reference).into_iter().collect();
        assert!(
            distinct.len() >= 3,
            "expected a mixed-codec stream, got ids {distinct:?}"
        );
        assert!(
            distinct.iter().any(|&id| id >= 4),
            "expected a portfolio codec in {distinct:?}"
        );
        for workers in [2usize, 4, 7] {
            assert_eq!(run(workers), reference, "workers {workers}: portfolio wire differs");
        }
        // Mixed-codec streams decode through the ordinary reader, serial
        // and pooled alike.
        for workers in [1usize, 3] {
            let mut r = AdaptiveReader::new(&reference[..]);
            r.set_pipeline_workers(workers);
            let mut out = Vec::new();
            r.read_to_end(&mut out).unwrap();
            assert_eq!(out, data, "decode workers {workers}");
        }
    }

    #[test]
    fn portfolio_adaptive_model_stays_deterministic() {
        let data = heterogeneous_corpus(24);
        let run = |workers: usize| -> (Vec<u8>, StreamStats) {
            let clock = ManualClock::new();
            let mut w = AdaptiveWriter::with_params(
                Vec::new(),
                levels(),
                Box::new(RateBasedModel::paper_default()),
                4096,
                0.01,
                Box::new(clock.clone()),
            );
            w.set_portfolio(true);
            if workers > 1 {
                w.set_pipeline_workers(workers);
            }
            for (i, chunk) in data.chunks(4096).enumerate() {
                clock.set(i as f64 * 0.004);
                w.write_all(chunk).unwrap();
            }
            w.finish().unwrap()
        };
        let (reference, ref_stats) = run(1);
        for workers in [2usize, 4] {
            let (wire, stats) = run(workers);
            assert_eq!(wire, reference, "workers {workers}");
            assert_eq!(stats.blocks_per_level, ref_stats.blocks_per_level);
        }
        let mut out = Vec::new();
        AdaptiveReader::new(&reference[..]).read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn pipelined_reader_roundtrips_and_counts_bytes() {
        let data = b"parallel decode corpus, quite compressible indeed. ".repeat(5000);
        let wire = serial_wire(&data, 2, 4096);
        for workers in [1usize, 2, 4] {
            let mut r = AdaptiveReader::new(&wire[..]);
            r.set_pipeline_workers(workers);
            let mut out = Vec::new();
            r.read_to_end(&mut out).unwrap();
            assert_eq!(out, data, "workers {workers}");
            assert_eq!(r.app_bytes(), data.len() as u64);
            assert_eq!(r.wire_bytes(), wire.len() as u64);
        }
    }

    /// A source slower than the decoders (a socket): one call hands out at
    /// most one header or payload, after a pause.
    struct SlowSource<'a> {
        wire: &'a [u8],
        handed_out: usize,
    }

    impl Read for SlowSource<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            std::thread::sleep(std::time::Duration::from_millis(1));
            let n = buf.len().min(self.wire.len() - self.handed_out);
            buf[..n].copy_from_slice(&self.wire[self.handed_out..self.handed_out + n]);
            self.handed_out += n;
            Ok(n)
        }
    }

    /// Refill stops at the first releasable block, so what a `read` takes
    /// from the source ahead of what it serves is bounded by the pool depth
    /// — however far the workers outrun the source.
    #[test]
    fn read_ahead_is_bounded_by_the_pool_depth() {
        const BLOCK: usize = 128 * 1024;
        let data = b"read-ahead corpus, compressible enough. ".repeat(256 * BLOCK / 40);
        let wire = serial_wire(&data, 1, BLOCK);
        let mut frame_ends = Vec::new();
        let mut at = 0;
        while at < wire.len() {
            at += 16 + u32::from_le_bytes(wire[at + 8..at + 12].try_into().unwrap()) as usize;
            frame_ends.push(at);
        }
        assert_eq!(frame_ends.len(), 256);
        for workers in [1usize, 2, 4] {
            // Nothing is ever in flight on the inline lane; thread lanes hold
            // `depth = 2 × workers` blocks plus the frame being submitted.
            let bound = if workers == 1 { 1 } else { 2 * workers + 1 };
            let mut source = SlowSource { wire: &wire, handed_out: 0 };
            let mut r = AdaptiveReader::new(&mut source);
            r.set_pipeline_workers(workers);
            let mut first = [0u8; 1024];
            r.read_exact(&mut first).unwrap();
            assert_eq!(&first[..], &data[..1024]);
            let released = r.app_bytes();
            drop(r);
            assert!(
                source.handed_out <= frame_ends[bound - 1],
                "workers {workers}: {} bytes taken for the first read, {bound} frames end at {}",
                source.handed_out,
                frame_ends[bound - 1]
            );
            assert!(
                released <= (bound * BLOCK) as u64,
                "workers {workers}: {released} bytes released before the first was served"
            );
        }
    }

    #[test]
    fn pipelined_degrade_forces_raw_and_level_zero() {
        let clock = ManualClock::new();
        let mut w = AdaptiveWriter::with_params(
            Vec::new(),
            levels(),
            Box::new(StaticModel::new(2, 4)),
            1024,
            1.0,
            Box::new(clock.clone()),
        );
        w.set_pipeline_workers(3);
        let data = b"pipelined degrade payload, rather repetitive too. ".repeat(100);
        w.write_all(&data[..1024]).unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        w.pool.bomb_next_block();
        w.write_all(&data[1024..2048]).unwrap();
        // The degraded completion may still be in flight; draining the pool
        // applies the forced level before any later submission is observed.
        w.flush().unwrap();
        std::panic::set_hook(prev);
        assert_eq!(w.level(), 0, "degrade must force level NONE");
        w.write_all(&data[2048..]).unwrap();
        let (wire, stats) = w.finish().unwrap();
        assert_eq!(stats.degraded_blocks, 1);
        assert!(stats.blocks_per_level[0] > 0, "{:?}", stats.blocks_per_level);
        let mut out = Vec::new();
        AdaptiveReader::new(&wire[..]).read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn pipelined_traced_stream_emits_pipeline_events() {
        use adcomp_trace::{TraceEvent, TraceHandle};

        let trace = TraceHandle::collecting();
        let mut w = AdaptiveWriter::with_params(
            Vec::new(),
            levels(),
            Box::new(StaticModel::new(1, 4)),
            2048,
            1.0,
            Box::new(ManualClock::new()),
        );
        w.set_trace(trace.clone());
        w.set_pipeline_workers(2);
        let data = b"traced pipelined payload with repetition repetition ".repeat(600);
        w.write_all(&data).unwrap();
        let (wire, stats) = w.finish().unwrap();
        let events = trace.take();
        let submits = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Pipeline(p) if p.kind == "submit"))
            .count();
        let drains = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Pipeline(p) if p.kind == "drain"))
            .count();
        let blocks: u64 = stats.blocks_per_level.iter().sum();
        assert_eq!(submits as u64, blocks, "one submit event per block");
        assert_eq!(drains as u64, blocks, "one drain event per block");
        let codecs = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Codec(_)))
            .count();
        assert_eq!(codecs as u64, blocks);
        let mut out = Vec::new();
        AdaptiveReader::new(&wire[..]).read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }
}
