//! Ordered block compression and decompression on zero to `N` threads.
//!
//! The paper's premise is that the compressing channel must never become
//! the bottleneck the controller is trying to route around: Algorithm 1
//! only observes the *application* data rate, so how a block gets encoded
//! must never show in the bytes or in what the `EpochDriver` is told. Every
//! block therefore takes the same path — submit, encode, release in order —
//! and only the number of threads behind it varies:
//!
//! * [`CompressPool`] — encodes application blocks into complete frames and
//!   hands them back **in submission order**. It is the only encode path of
//!   `AdaptiveWriter` and nephele's `RecordWriter`.
//! * [`DecodePool`] — the mirror image for the read side: CRC-validated
//!   payloads go in, plaintext blocks come out in wire order. It is the
//!   only decode path of `AdaptiveReader` and `IndexedReader`. All frame
//!   parsing, validation and fault recovery stay on the caller's thread
//!   (see `FrameReader::read_frame`), so recovery does not depend on the
//!   worker count.
//!
//! Both are thin shells over one private ordering core (`Ordered`), which
//! owns the sequence numbers, the in-flight bound, the reorder gate and the
//! lanes. A lane is one [`Scratch`] (or [`DecodeScratch`]) plus the pure
//! per-block function; the core runs it in one of two places:
//!
//! * **Inline lane** (`workers <= 1`): `submit` runs the per-block function
//!   on the caller's thread and releases the completion in the same call.
//!   No threads, no channels, nothing ever in flight — and so no `pipeline`
//!   trace events and no pipeline registry counters, because there is no
//!   pipeline to observe.
//! * **Thread lanes** (`workers >= 2`): the same function runs on `N`
//!   worker threads behind bounded channels.
//!
//! ## Invariants
//!
//! * **Ordering**: completions are released strictly by sequence number.
//!   A frame is never emitted before every lower-numbered frame.
//! * **Backpressure**: at most `depth` blocks are in flight (queued,
//!   compressing, or parked in the reorder buffer). A full pipeline blocks
//!   the submitting thread, so the producer's observed rate — what the
//!   `EpochDriver` measures — remains the true end-to-end rate rather
//!   than the rate of filling an unbounded queue.
//! * **Determinism**: the level for each block is chosen by the caller at
//!   submission time and travels with the job; lanes only run
//!   `encode_block_with`, which is a pure function of
//!   `(codec, input)`. Scheduling therefore cannot change a single
//!   output byte, and the inline lane is byte-identical to any worker count
//!   by construction: it *is* the worker function.
//!
//! A codec that panics mid-encode (a codec bug on one specific block)
//! degrades that block to a raw frame instead of poisoning the stream; the
//! completion is flagged so the caller can force the controller to level 0.
//! This is the one `catch_unwind` of the write side, on every lane.

use adcomp_codecs::frame::{encode_block_with, BlockInfo};
use adcomp_codecs::{codec_for, CodecError, CodecId, DecodeScratch, Scratch};
use adcomp_metrics::registry::{self, CounterKind, GaugeKind, HistKind, SpanKind};
use adcomp_trace::{PipelineEvent, TraceEvent, TraceHandle, NO_EPOCH};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// The machine's available parallelism, the worker count `-j 0` asks
/// for. `1` means "no threads".
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// In-order release gate: completions arrive in any order, leave strictly
/// by sequence number.
struct SeqGate<T> {
    next_emit: u64,
    stash: BTreeMap<u64, T>,
    /// Most completions ever parked at once.
    peak: usize,
}

impl<T> SeqGate<T> {
    fn new() -> Self {
        SeqGate { next_emit: 0, stash: BTreeMap::new(), peak: 0 }
    }

    fn park(&mut self, seq: u64, v: T) {
        self.stash.insert(seq, v);
        self.peak = self.peak.max(self.stash.len());
    }

    /// Pops every completion that is next in sequence.
    fn release(&mut self, out: &mut Vec<T>) {
        while let Some(v) = self.stash.remove(&self.next_emit) {
            out.push(v);
            self.next_emit += 1;
        }
    }

    fn parked(&self) -> usize {
        self.stash.len()
    }
}

/// One lane of a pool: its private working memory plus the per-block
/// function. The same `run` serves the caller's thread (inline lane) and
/// every worker thread.
trait Lane: Send + 'static {
    type Job: Send + 'static;
    type Done: Send + 'static;
    /// Registry series a pool of this lane keeps while it has threads.
    const SUBMITS: CounterKind;
    const IN_FLIGHT: GaugeKind;
    const IN_FLIGHT_MAX: GaugeKind;
    fn new() -> Self;
    fn run(&mut self, seq: u64, job: Self::Job) -> Self::Done;
}

enum Lanes<L: Lane> {
    /// Zero threads: the caller's thread is the lane.
    Inline(L),
    Threads {
        /// `None` once shut down; closing it lets the workers exit.
        job_tx: Option<SyncSender<(u64, L::Job)>>,
        done_rx: Receiver<(u64, L::Done)>,
        handles: Vec<JoinHandle<()>>,
    },
}

/// The ordering core shared by [`CompressPool`] and [`DecodePool`]:
/// sequence numbering, the in-flight bound and in-order release, over
/// either lane kind. Completions always leave through a caller-owned `Vec`
/// so steady state allocates nothing here.
struct Ordered<L: Lane> {
    lanes: Lanes<L>,
    nworkers: usize,
    depth: usize,
    next_seq: u64,
    in_flight: usize,
    gate: SeqGate<L::Done>,
}

impl<L: Lane> Ordered<L> {
    /// `workers` lanes and at most `2 × workers` blocks in flight.
    fn new(workers: usize) -> Self {
        let nworkers = workers.max(1);
        let depth = (workers * 2).max(nworkers);
        let lanes = if nworkers == 1 {
            Lanes::Inline(L::new())
        } else {
            let (job_tx, job_rx) = sync_channel::<(u64, L::Job)>(depth);
            let (done_tx, done_rx) = sync_channel::<(u64, L::Done)>(depth);
            // The workers share one job queue; each holds the lock only
            // while it waits for its next job, never while running one. A
            // receiver has no state a panic could leave half-updated, so a
            // poisoned lock is taken over.
            let job_rx = Arc::new(Mutex::new(job_rx));
            let handles = (0..nworkers)
                .map(|_| {
                    let rx = Arc::clone(&job_rx);
                    let tx = done_tx.clone();
                    std::thread::spawn(move || {
                        let mut lane = L::new();
                        loop {
                            let next = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                            let Ok((seq, job)) = next else { break };
                            if tx.send((seq, lane.run(seq, job))).is_err() {
                                break;
                            }
                        }
                    })
                })
                .collect();
            Lanes::Threads { job_tx: Some(job_tx), done_rx, handles }
        };
        Ordered {
            lanes,
            nworkers,
            depth,
            next_seq: 0,
            in_flight: 0,
            gate: SeqGate::new(),
        }
    }

    fn threaded(&self) -> bool {
        matches!(self.lanes, Lanes::Threads { .. })
    }

    /// At the in-flight bound: the next dispatch must wait. Never true on
    /// the inline lane, where nothing is ever in flight.
    fn full(&self) -> bool {
        self.in_flight >= self.depth
    }

    /// Hands `job` to a lane and returns its sequence number. The inline
    /// lane runs it here and pushes the completion straight to `out`.
    fn dispatch(&mut self, job: L::Job, out: &mut Vec<L::Done>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        match &mut self.lanes {
            Lanes::Inline(lane) => out.push(lane.run(seq, job)),
            Lanes::Threads { job_tx, .. } => {
                job_tx
                    .as_ref()
                    .expect("pool already shut down")
                    .send((seq, job))
                    .expect("worker pool hung up");
                self.in_flight += 1;
                if let Some(m) = registry::global() {
                    m.counter_add(L::SUBMITS, 1);
                    m.gauge_add(L::IN_FLIGHT, 1);
                    m.gauge_max(L::IN_FLIGHT_MAX, self.in_flight as i64);
                    m.observe(HistKind::QueueDepth, self.in_flight as u64);
                }
            }
        }
        seq
    }

    fn release(&mut self, out: &mut Vec<L::Done>) {
        let before = out.len();
        self.gate.release(out);
        let released = out.len() - before;
        self.in_flight -= released;
        if released > 0 {
            if let Some(m) = registry::global() {
                m.gauge_add(L::IN_FLIGHT, -(released as i64));
            }
        }
    }

    /// Non-blocking: parks whatever the workers have finished and releases
    /// everything that is next in sequence.
    fn release_ready(&mut self, out: &mut Vec<L::Done>) {
        if let Lanes::Threads { done_rx, .. } = &self.lanes {
            while let Ok((seq, done)) = done_rx.try_recv() {
                self.gate.park(seq, done);
            }
        }
        self.release(out);
    }

    /// Blocks for one more completion. Only reachable with work in flight,
    /// i.e. on thread lanes; every lower-numbered job is already with the
    /// workers, so the wait always ends.
    fn wait_one(&mut self, out: &mut Vec<L::Done>) {
        let Lanes::Threads { done_rx, .. } = &self.lanes else {
            unreachable!("the inline lane never has work in flight");
        };
        let (seq, done) = done_rx.recv().expect("worker pool hung up");
        self.gate.park(seq, done);
        self.release(out);
    }

    /// Backpressure: blocks until the next dispatch fits under the bound.
    fn make_room(&mut self, out: &mut Vec<L::Done>) {
        while self.full() {
            self.wait_one(out);
        }
    }

    /// Blocks until nothing is in flight. The core stays usable afterwards.
    fn drain(&mut self, out: &mut Vec<L::Done>) {
        while self.in_flight > 0 {
            self.wait_one(out);
        }
    }
}

impl<L: Lane> Drop for Ordered<L> {
    fn drop(&mut self) {
        if let Lanes::Threads { job_tx, handles, .. } = &mut self.lanes {
            // Closing the job channel lets workers drain and exit.
            *job_tx = None;
            for h in handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

/// One compression job travelling to a lane.
struct Job {
    level: usize,
    codec: CodecId,
    data: Vec<u8>,
    /// Recycled frame buffer (capacity retained from an earlier block, see
    /// [`CompressPool::recycle`]).
    frame: Vec<u8>,
    /// Test seam: makes this block's encode panic, exercising the
    /// degrade-to-raw path.
    #[cfg(test)]
    bomb: bool,
}

/// One finished frame coming back from a lane, in submission order by the
/// time the caller sees it.
pub struct Completion {
    /// Block sequence number (0-based submission order).
    pub seq: u64,
    /// Level index the caller chose at submission.
    pub level: usize,
    /// Codec the caller requested (before any raw fallback/degrade).
    pub requested: CodecId,
    /// The complete frame (header + payload), ready for the wire.
    pub frame: Vec<u8>,
    /// Encode outcome.
    pub info: BlockInfo,
    /// The encode panicked and the block was re-emitted raw.
    pub degraded: bool,
    /// Lane-measured encode time.
    pub compress_ns: u64,
    /// The application bytes of the block, returned for buffer reuse.
    pub data: Vec<u8>,
}

struct EncodeLane {
    scratch: Scratch,
}

impl Lane for EncodeLane {
    type Job = Job;
    type Done = Completion;
    const SUBMITS: CounterKind = CounterKind::PipelineSubmits;
    const IN_FLIGHT: GaugeKind = GaugeKind::CompressInFlight;
    const IN_FLIGHT_MAX: GaugeKind = GaugeKind::CompressInFlightMax;

    fn new() -> Self {
        EncodeLane { scratch: Scratch::new() }
    }

    fn run(&mut self, seq: u64, job: Job) -> Completion {
        let mut frame = job.frame;
        frame.clear();
        let start = std::time::Instant::now();
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if job.bomb {
                panic!("injected codec bomb");
            }
            encode_block_with(&mut self.scratch, codec_for(job.codec), &job.data, &mut frame)
        }));
        let (info, degraded) = match attempt {
            Ok(info) => (info, false),
            Err(_panic) => {
                // The codec failed on this block; its scratch state is
                // suspect. Replace it and emit the block raw — a plain
                // copy cannot fail — so the stream survives.
                self.scratch = Scratch::new();
                frame.clear();
                let info = encode_block_with(
                    &mut self.scratch,
                    codec_for(CodecId::Raw),
                    &job.data,
                    &mut frame,
                );
                (info, true)
            }
        };
        Completion {
            seq,
            level: job.level,
            requested: job.codec,
            frame,
            info,
            degraded,
            compress_ns: start.elapsed().as_nanos() as u64,
            data: job.data,
        }
    }
}

/// Turns application blocks into wire frames, in order, on zero to `N`
/// threads. See the module docs for the ordering/backpressure invariants.
pub struct CompressPool {
    core: Ordered<EncodeLane>,
    /// Frame buffers returned via [`CompressPool::recycle`], reissued to
    /// later jobs so steady-state encode is allocation-free.
    spare_frames: Vec<Vec<u8>>,
    trace: TraceHandle,
    trace_epoch: u64,
    trace_t: f64,
    #[cfg(test)]
    bomb_next: bool,
}

impl CompressPool {
    /// A pool with `workers` threads (`workers <= 1`: none, blocks are
    /// encoded inside [`CompressPool::submit`]) and a pipeline depth of
    /// `2 × workers` blocks in flight (submitted but not yet released in
    /// order).
    pub fn new(workers: usize) -> Self {
        CompressPool {
            core: Ordered::new(workers),
            spare_frames: Vec::new(),
            trace: TraceHandle::disabled(),
            trace_epoch: NO_EPOCH,
            trace_t: 0.0,
            #[cfg(test)]
            bomb_next: false,
        }
    }

    /// Attaches a trace handle collecting one `PipelineEvent` per
    /// submit/stall/drain (thread lanes only).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Sets the epoch tag and timestamp stamped onto subsequent events.
    pub fn set_trace_mark(&mut self, epoch: u64, t: f64) {
        self.trace_epoch = epoch;
        self.trace_t = t;
    }

    /// Rebuilds the pool with `workers` threads, keeping the trace handle.
    /// Only before the first block: a pool swapped out with blocks in
    /// flight would drop them silently, so that is refused loudly.
    pub fn set_workers(&mut self, workers: usize) {
        assert!(
            self.core.next_seq == 0,
            "set_pipeline_workers must be called before the first write"
        );
        self.core = Ordered::new(workers);
    }

    #[cfg(test)]
    pub fn bomb_next_block(&mut self) {
        self.bomb_next = true;
    }

    /// Hands a written frame's buffer back for reuse by a later block.
    /// Callers that recycle every [`Completion::frame`] make the encode
    /// path zero-alloc in steady state.
    pub fn recycle(&mut self, frame: Vec<u8>) {
        // Anything beyond one buffer per pipeline slot can never be in use
        // at once.
        if self.spare_frames.len() < self.core.depth {
            self.spare_frames.push(frame);
        }
    }

    /// The inline lane has no queue to report on, so it emits nothing.
    fn emit_event(&self, kind: &'static str, seq: u64) {
        if self.core.threaded() && self.trace.enabled() {
            self.trace.observe(TraceEvent::Pipeline(PipelineEvent {
                epoch: self.trace_epoch,
                t: self.trace_t,
                kind,
                seq,
                in_flight: self.core.in_flight as u32,
                reorder_depth: self.core.gate.parked() as u32,
                workers: self.core.nworkers as u32,
            }));
        }
    }

    /// Reports the completions the core just released into `released`.
    fn note_released(&self, released: &[Completion]) {
        for c in released {
            self.emit_event("drain", c.seq);
        }
        if self.core.gate.peak > 0 {
            if let Some(m) = registry::global() {
                m.gauge_max(GaugeKind::ReorderDepthMax, self.core.gate.peak as i64);
            }
        }
    }

    /// Submits one block for compression at the caller-chosen `level` /
    /// `codec`, and appends every frame that is now releasable in order to
    /// `out` (on the inline lane: exactly this block's). Blocks
    /// (backpressure) while the pipeline is at capacity.
    pub fn submit(&mut self, level: usize, codec: CodecId, data: Vec<u8>, out: &mut Vec<Completion>) {
        let job = Job {
            level,
            codec,
            data,
            frame: self.spare_frames.pop().unwrap_or_default(),
            #[cfg(test)]
            bomb: std::mem::replace(&mut self.bomb_next, false),
        };
        if self.core.full() {
            self.emit_event("stall", self.core.next_seq);
            if let Some(m) = registry::global() {
                m.counter_add(CounterKind::PipelineStalls, 1);
            }
            let _stalled = registry::span(SpanKind::PoolStall);
            let before = out.len();
            self.core.make_room(out);
            self.note_released(&out[before..]);
        }
        let seq = self.core.dispatch(job, out);
        self.emit_event("submit", seq);
        self.drain_ready(out);
    }

    /// Opportunistically pulls finished completions without blocking and
    /// appends everything releasable in order to `out`.
    pub fn drain_ready(&mut self, out: &mut Vec<Completion>) {
        let before = out.len();
        self.core.release_ready(out);
        self.note_released(&out[before..]);
    }

    /// Blocks until every in-flight block has completed and appends the
    /// remaining frames in order to `out`. The pool stays usable afterwards.
    pub fn drain(&mut self, out: &mut Vec<Completion>) {
        let before = out.len();
        self.core.drain(out);
        self.note_released(&out[before..]);
    }
}

/// One decompression job travelling to a lane.
struct DecodeJob {
    codec: CodecId,
    uncompressed_len: usize,
    /// The wire buffer; the CRC-validated payload starts at `payload_at`
    /// (0 for a bare payload, `HEADER_LEN` for a whole frame).
    wire: Vec<u8>,
    payload_at: usize,
    /// Recycled output buffer (capacity retained from a previous block so
    /// steady-state decode allocates nothing).
    out: Vec<u8>,
}

/// One decoded block coming back from a [`DecodePool`] lane.
pub struct Decoded {
    /// Frame sequence number (0-based wire order).
    pub seq: u64,
    /// The recovered application bytes (empty when `err` is set).
    pub bytes: Vec<u8>,
    /// The wire buffer the job travelled in, exactly as submitted.
    pub wire: Vec<u8>,
    /// Decode failure, if any. The payload's CRC was checked upstream, so
    /// this fires on a checksum collision over corrupt data or on a
    /// damaged header field (headers are not CRC-covered) — the caller
    /// applies its recovery rule when the block is released.
    pub err: Option<CodecError>,
}

struct DecodeLane {
    scratch: DecodeScratch,
}

impl Lane for DecodeLane {
    type Job = DecodeJob;
    type Done = Decoded;
    const SUBMITS: CounterKind = CounterKind::DecodeSubmits;
    const IN_FLIGHT: GaugeKind = GaugeKind::DecodeInFlight;
    const IN_FLIGHT_MAX: GaugeKind = GaugeKind::DecodeInFlightMax;

    fn new() -> Self {
        DecodeLane { scratch: DecodeScratch::new() }
    }

    fn run(&mut self, seq: u64, job: DecodeJob) -> Decoded {
        let mut bytes = job.out;
        bytes.clear();
        let timer = registry::span(SpanKind::Decompress);
        let err = match codec_for(job.codec).decompress_with(
            &mut self.scratch,
            &job.wire[job.payload_at..],
            job.uncompressed_len,
            &mut bytes,
        ) {
            Ok(()) => None,
            Err(e) => {
                bytes.clear();
                Some(e)
            }
        };
        drop(timer);
        if err.is_none() {
            if let Some(m) = registry::global() {
                m.counter_add(CounterKind::BlocksDecompressed, 1);
            }
        }
        Decoded { seq, bytes, wire: job.wire, err }
    }
}

/// Decompresses CRC-validated frame payloads, in wire order, on zero to
/// `N` threads. It is the only decode path of `AdaptiveReader` and
/// `IndexedReader`; frame parsing, validation and recovery stay with the
/// caller. Both buffers of every [`Decoded`] come back through
/// [`DecodePool::recycle`] and go out again with later jobs, so steady
/// state allocates nothing.
pub struct DecodePool {
    core: Ordered<DecodeLane>,
    spare_out: Vec<Vec<u8>>,
    spare_wire: Vec<Vec<u8>>,
}

impl DecodePool {
    /// A pool with `workers` threads (`workers <= 1`: none, blocks are
    /// decoded inside [`DecodePool::submit`]) and a pipeline depth of
    /// `2 × workers`.
    pub fn new(workers: usize) -> Self {
        DecodePool {
            core: Ordered::new(workers),
            spare_out: Vec::new(),
            spare_wire: Vec::new(),
        }
    }

    /// Hands a consumed block's two buffers back for reuse by later jobs.
    pub fn recycle(&mut self, d: Decoded) {
        // One buffer per pipeline slot plus the block being served is all
        // that can be in use at once; a caller may submit wire buffers it
        // did not take from `wire_buf`, so the lists are bounded.
        let cap = self.core.depth + 1;
        if self.spare_out.len() < cap {
            self.spare_out.push(d.bytes);
        }
        if self.spare_wire.len() < cap {
            self.spare_wire.push(d.wire);
        }
    }

    /// A recycled wire buffer (or a fresh one) for the caller to fill with
    /// the next frame and [`DecodePool::submit`].
    pub fn wire_buf(&mut self) -> Vec<u8> {
        self.spare_wire.pop().unwrap_or_default()
    }

    /// Submits one validated payload (`wire[payload_at..]`) for
    /// decompression and appends every block now releasable in wire order
    /// to `out` (on the inline lane: exactly this one). Blocks while the
    /// pipeline is at capacity.
    pub fn submit(
        &mut self,
        codec: CodecId,
        uncompressed_len: usize,
        wire: Vec<u8>,
        payload_at: usize,
        out: &mut Vec<Decoded>,
    ) {
        if self.core.full() {
            let _waited = registry::span(SpanKind::DecodeWait);
            self.core.make_room(out);
        }
        let job = DecodeJob {
            codec,
            uncompressed_len,
            wire,
            payload_at,
            out: self.spare_out.pop().unwrap_or_default(),
        };
        self.core.dispatch(job, out);
        self.core.release_ready(out);
    }

    /// Blocks until every in-flight payload is decoded and appends the rest
    /// in wire order to `out`. The pool stays usable afterwards.
    pub fn drain(&mut self, out: &mut Vec<Decoded>) {
        if self.core.in_flight > 0 {
            let _waited = registry::span(SpanKind::DecodeWait);
            self.core.drain(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_codecs::frame::{decode_block, encode_block, HEADER_LEN};

    fn block(i: usize) -> Vec<u8> {
        format!("pipeline block {i} ").repeat(200 + i * 7).into_bytes()
    }

    fn collect_frames(pool: &mut CompressPool, blocks: &[Vec<u8>], codec: CodecId) -> Vec<u8> {
        let mut wire = Vec::new();
        let mut ready = Vec::new();
        for b in blocks {
            pool.submit(1, codec, b.clone(), &mut ready);
        }
        pool.drain(&mut ready);
        assert_eq!(ready.len(), blocks.len());
        for (i, c) in ready.iter().enumerate() {
            assert_eq!(c.seq, i as u64, "frames must release in submission order");
            wire.extend_from_slice(&c.frame);
        }
        wire
    }

    #[test]
    fn parallel_output_matches_serial_for_any_worker_count() {
        let blocks: Vec<Vec<u8>> = (0..24).map(block).collect();
        let mut serial = Vec::new();
        for b in &blocks {
            encode_block(codec_for(CodecId::QlzMedium), b, &mut serial);
        }
        for workers in [1, 2, 3, 4, 8] {
            let mut pool = CompressPool::new(workers);
            let wire = collect_frames(&mut pool, &blocks, CodecId::QlzMedium);
            assert_eq!(wire, serial, "byte mismatch at {workers} workers");
        }
    }

    #[test]
    fn backpressure_bounds_in_flight() {
        let mut pool = CompressPool::new(2);
        let blocks: Vec<Vec<u8>> = (0..32).map(block).collect();
        let mut ready = Vec::new();
        for b in &blocks {
            assert!(pool.core.in_flight <= 4);
            pool.submit(0, CodecId::Raw, b.clone(), &mut ready);
        }
        pool.drain(&mut ready);
        assert_eq!(pool.core.in_flight, 0);
        assert_eq!(ready.len(), blocks.len());
    }

    #[test]
    fn bombed_block_degrades_to_raw_and_is_flagged() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the injected panic
        let data = block(3);
        // The inline lane and the thread lanes run the same per-block
        // function, so both degrade the same way.
        let mut runs = Vec::new();
        for workers in [1, 2] {
            let mut pool = CompressPool::new(workers);
            let mut all = Vec::new();
            pool.bomb_next_block();
            pool.submit(3, CodecId::Heavy, data.clone(), &mut all);
            pool.drain(&mut all);
            runs.push((workers, all));
        }
        std::panic::set_hook(prev);
        for (workers, all) in runs {
            assert_eq!(all.len(), 1, "{workers} workers");
            let c = &all[0];
            assert!(c.degraded, "{workers} workers");
            assert_eq!(c.info.codec, CodecId::Raw);
            assert_eq!(c.requested, CodecId::Heavy);
            let mut out = Vec::new();
            decode_block(&c.frame, &mut out).unwrap();
            assert_eq!(out, data, "{workers} workers");
        }
    }

    #[test]
    fn decode_pool_roundtrips_in_wire_order() {
        let blocks: Vec<Vec<u8>> = (0..16).map(block).collect();
        let mut frames = Vec::new();
        for b in &blocks {
            let mut wire = Vec::new();
            let info = encode_block(codec_for(CodecId::QlzLight), b, &mut wire);
            frames.push((info.codec, b.len(), wire));
        }
        for workers in [1, 2, 4] {
            let mut pool = DecodePool::new(workers);
            let mut ready = Vec::new();
            for (i, (codec, len, wire)) in frames.iter().enumerate() {
                // A whole frame and a bare payload travel the same way.
                let at = if i % 2 == 0 { HEADER_LEN } else { 0 };
                pool.submit(*codec, *len, wire[HEADER_LEN - at..].to_vec(), at, &mut ready);
            }
            pool.drain(&mut ready);
            assert_eq!(pool.core.in_flight, 0);
            assert_eq!(ready.len(), blocks.len());
            for (i, d) in ready.into_iter().enumerate() {
                assert!(d.err.is_none());
                assert_eq!(d.seq, i as u64);
                assert_eq!(d.bytes, blocks[i], "decode order broken at {workers} workers");
                assert_eq!(d.wire, frames[i].2[HEADER_LEN * (i % 2)..], "wire comes back as sent");
            }
        }
    }

    #[test]
    fn decode_pool_reports_corrupt_payload() {
        let data = block(1);
        let mut wire = Vec::new();
        let info = encode_block(codec_for(CodecId::Heavy), &data, &mut wire);
        assert_eq!(info.codec, CodecId::Heavy);
        let mut payload = wire[HEADER_LEN..].to_vec();
        payload.truncate(payload.len() / 2); // simulate a CRC collision slipping through
        let mut pool = DecodePool::new(2);
        let mut all = Vec::new();
        pool.submit(CodecId::Heavy, data.len(), payload, 0, &mut all);
        pool.drain(&mut all);
        assert_eq!(all.len(), 1);
        assert!(all[0].err.is_some());
        assert!(all[0].bytes.is_empty());
    }

    /// A pool dropped with jobs queued, running and finished but not yet
    /// released joins every worker: closing the job queue ends each worker
    /// once it has handed back what it holds, and the completion queue has
    /// room for every job in flight. A hang here is the failure.
    #[test]
    fn dropping_pools_with_jobs_in_flight_joins_every_worker() {
        let data: Vec<u8> = (0..128 * 1024u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut frames = Vec::new();
        for _ in 0..8 {
            let mut wire = Vec::new();
            encode_block(codec_for(CodecId::Heavy), &data, &mut wire);
            frames.push(wire);
        }
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            let mut pool = CompressPool::new(4);
            let mut ready = Vec::new();
            for _ in 0..8 {
                pool.submit(3, CodecId::Heavy, data.clone(), &mut ready);
            }
            assert!(pool.core.in_flight > 0);
            drop(pool);
            let mut pool = DecodePool::new(4);
            let mut ready = Vec::new();
            for wire in frames {
                pool.submit(CodecId::Heavy, data.len(), wire, HEADER_LEN, &mut ready);
            }
            assert!(pool.core.in_flight > 0);
            drop(pool);
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("a dropped pool did not join its workers");
        dropper.join().unwrap();
    }

    #[test]
    fn default_workers_is_at_least_one() {
        assert!(default_workers() >= 1);
    }
}
