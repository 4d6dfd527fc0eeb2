//! Live, lock-free metrics registry: atomic counters, gauges and
//! log-linear (HDR-style) histograms, sharded per thread and folded at
//! scrape time.
//!
//! Unlike [`crate::stats`] (post-hoc, single-threaded aggregation) this
//! module is built to be written from *inside* the hot paths while they
//! run — codec block loops, pool workers, epoch decisions — and read at
//! any moment by a scraper without stopping the world:
//!
//! * **Counters / histogram buckets are sharded.** Each thread is lazily
//!   assigned one of [`SHARDS`] shard slots; every write is a single
//!   relaxed `fetch_add` on that shard's atomics. A scrape *folds* the
//!   shards by summing — addition is commutative, so the folded totals
//!   are identical no matter how work was distributed across threads.
//!   That is what makes sim-mode scrapes byte-identical for any
//!   `ADCOMP_THREADS` value.
//! * **Histograms are log-linear.** Values (microseconds for spans,
//!   plain units otherwise) index into 16 linear sub-buckets per
//!   power-of-two octave, giving ≤ 6.25 % relative bucket width over the
//!   full `u64` range that matters (clamped at 2⁴⁰). Quantiles are read
//!   from the folded buckets by cumulative walk and always report a
//!   bucket's upper bound, so p50/p99/p999 are deterministic too.
//! * **Gauges are small and unsharded** with per-kind write semantics:
//!   `add` (e.g. queue depth, returns to zero when drained), `max`
//!   (high-water marks) — both commutative — and `set` (last-write-wins,
//!   e.g. current level), which is only meaningful from a single writer.
//!
//! ## Wall vs. virtual time
//!
//! The registry is clock-agnostic like the rest of `adcomp-metrics`: it
//! records durations handed to it. A registry runs in one of two modes:
//!
//! * [`RegistryMode::Wall`] — live processes. Wall-clock spans
//!   ([`MetricsRegistry::span_ns`], [`SpanTimer`]) and last-write-wins
//!   gauge `set`s are recorded.
//! * [`RegistryMode::Virtual`] — deterministic simulations. Only
//!   commutative operations and virtual-clock durations
//!   ([`MetricsRegistry::span_secs`]) are admitted; wall spans and
//!   `set` gauges are dropped so the scrape never depends on host speed
//!   or thread scheduling.
//!
//! ## Cost contract
//!
//! With no registry installed, every instrumentation point reduces to one
//! relaxed atomic load ([`global`]) and a branch: no allocation, no
//! timestamp. The codecs counting-allocator tests hold with this module's
//! call sites compiled in. With a registry installed the hot-path cost is
//! a few relaxed `fetch_add`s — still allocation-free.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of thread shards (power of two). More shards than physical
/// cores just wastes fold time; eight covers the worker pools this
/// workspace spawns.
pub const SHARDS: usize = 8;

/// Compression levels tracked by the per-level counters (matches the
/// trace crate's `MAX_LEVELS`).
pub const REG_MAX_LEVELS: usize = 8;

/// Log-linear bucket geometry: 16 sub-buckets per octave, values clamped
/// to `2^40 - 1` (≈ 12.7 days in microseconds).
const SUB_BITS: u32 = 4;
const SUBS: usize = 1 << SUB_BITS;
const MAX_MSB: usize = 39;
/// Total bucket count: indices `0..16` are exact, then 16 per octave.
pub const N_BUCKETS: usize = (MAX_MSB - SUB_BITS as usize + 2) * SUBS;

/// Maps a non-negative value to its bucket index.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        v as usize
    } else {
        let v = v.min((1u64 << (MAX_MSB + 1)) - 1);
        let msb = 63 - v.leading_zeros() as usize;
        ((msb - (SUB_BITS as usize - 1)) << SUB_BITS) + ((v >> (msb - SUB_BITS as usize)) & (SUBS as u64 - 1)) as usize
    }
}

/// Largest value mapping to bucket `i` (the Prometheus `le` edge).
#[inline]
pub fn bucket_upper(i: usize) -> u64 {
    if i < SUBS {
        i as u64
    } else {
        let msb = (i >> SUB_BITS) + (SUB_BITS as usize - 1);
        let sub = (i & (SUBS - 1)) as u64;
        ((sub + SUBS as u64 + 1) << (msb - SUB_BITS as usize)) - 1
    }
}

/// Which clock regime feeds the registry; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryMode {
    /// Live process: wall spans and `set` gauges are recorded.
    Wall,
    /// Deterministic simulation: only commutative, virtual-clock
    /// observations are admitted.
    Virtual,
}

impl RegistryMode {
    pub fn as_str(self) -> &'static str {
        match self {
            RegistryMode::Wall => "wall",
            RegistryMode::Virtual => "virtual",
        }
    }
}

macro_rules! kinds {
    ($(#[$doc:meta])* $vis:vis enum $name:ident { $($variant:ident => ($metric:literal, $help:literal),)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis enum $name {
            $($variant,)*
        }

        impl $name {
            pub const ALL: &'static [$name] = &[$($name::$variant,)*];

            /// Canonical index (also the scrape order).
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }

            /// Prometheus metric (or label) name.
            pub fn metric(self) -> &'static str {
                match self {
                    $($name::$variant => $metric,)*
                }
            }

            /// One-line help text for the exposition.
            pub fn help(self) -> &'static str {
                match self {
                    $($name::$variant => $help,)*
                }
            }
        }
    };
}

kinds! {
    /// Monotone counters, one sharded atomic each.
    pub enum CounterKind {
        Epochs => ("adcomp_epochs_total", "Epoch-driver decision epochs completed."),
        BlocksCompressed => ("adcomp_blocks_compressed_total", "Blocks encoded into frames."),
        BlocksDecompressed => ("adcomp_blocks_decompressed_total", "Frames decoded back into blocks."),
        CodecInBytes => ("adcomp_codec_in_bytes_total", "Application bytes fed to codecs."),
        CodecOutBytes => ("adcomp_codec_out_bytes_total", "Frame bytes produced on the wire."),
        WireInBytes => ("adcomp_wire_in_bytes_total", "Frame bytes consumed by readers."),
        RawFallbacks => ("adcomp_raw_fallbacks_total", "Blocks that fell back to raw frames."),
        PipelineSubmits => ("adcomp_pipeline_submits_total", "Blocks submitted to the compress pool."),
        PipelineStalls => ("adcomp_pipeline_stalls_total", "Compress-pool submissions that hit backpressure."),
        DecodeSubmits => ("adcomp_decode_submits_total", "Frames submitted to the decode pool."),
        ChannelRecords => ("adcomp_channel_records_total", "Records written to nephele channels."),
        SimBlocks => ("adcomp_sim_blocks_total", "Blocks transferred by the vcloud simulator."),
        ServeAccepted => ("adcomp_serve_accepted_total", "Transfers admitted by the serve daemon."),
        ServeCompleted => ("adcomp_serve_completed_total", "Transfers fully received and CRC-verified."),
        ServeTimeouts => ("adcomp_serve_timeouts_total", "Connections aborted on read/write/idle deadlines."),
        ServeAborts => ("adcomp_serve_aborts_total", "PUT streams aborted on damage, a protocol error, a failed accept write or a stopping server."),
        ServeResumes => ("adcomp_serve_resumes_total", "Transfers resumed from a verified prefix."),
        ServeDrains => ("adcomp_serve_drains_total", "Graceful drain requests received."),
        ServeDrainedTransfers => ("adcomp_serve_drained_transfers_total", "In-flight transfers completed during a drain."),
        ClientRetries => ("adcomp_client_retries_total", "Client reconnect attempts after transport failures."),
        RecoveryCorruptFrames => ("adcomp_recovery_corrupt_frames_total", "Frames refused on CRC mismatch or malformed headers."),
        RecoveryTruncations => ("adcomp_recovery_truncations_total", "Mid-frame end-of-stream incidents."),
        RangedReads => ("adcomp_ranged_reads_total", "Ranged reads served via the seekable block index."),
        CacheHits => ("adcomp_cache_hits_total", "Block-cache lookups served without invoking a decoder."),
        CacheMisses => ("adcomp_cache_misses_total", "Block-cache lookups that had to decode the block."),
        CacheEvictions => ("adcomp_cache_evictions_total", "Blocks evicted from the block cache to stay under budget."),
    }
}

kinds! {
    /// Gauges; the metric name encodes the intended write semantics
    /// (`add`/`max`/`set` — see the module docs).
    pub enum GaugeKind {
        CurrentLevel => ("adcomp_current_level", "Compression level currently applied (set; -1 until first epoch)."),
        CompressInFlight => ("adcomp_compress_in_flight", "Blocks inside the compress pool right now (add/sub)."),
        CompressInFlightMax => ("adcomp_compress_in_flight_max", "High-water mark of compress-pool occupancy (max)."),
        DecodeInFlight => ("adcomp_decode_in_flight", "Frames inside the decode pool right now (add/sub)."),
        DecodeInFlightMax => ("adcomp_decode_in_flight_max", "High-water mark of decode-pool occupancy (max)."),
        ReorderDepthMax => ("adcomp_reorder_depth_max", "High-water mark of the order-restoring buffer (max)."),
        ServeActiveConns => ("adcomp_serve_active_conns", "Connections currently inside the serve daemon (add/sub)."),
        ServeActiveConnsMax => ("adcomp_serve_active_conns_max", "High-water mark of concurrent serve connections (max)."),
        CacheResidentBytes => ("adcomp_cache_resident_bytes", "Decoded bytes resident in the block cache (add/sub)."),
    }
}

kinds! {
    /// Span (duration) histograms; recorded in microseconds, exposed in
    /// seconds as one `adcomp_span_seconds{span="…"}` family.
    pub enum SpanKind {
        Compress => ("compress", "Per-block encode time."),
        Decompress => ("decompress", "Per-block decode time."),
        FrameRead => ("frame_read", "Frame fetch + validation time."),
        EpochDecision => ("epoch_decision", "Algorithm-1 decision time."),
        PoolStall => ("pool_stall", "Compress-pool backpressure waits."),
        DecodeWait => ("decode_wait", "Decode-pool in-order waits."),
        SimBlock => ("sim_block", "Virtual end-to-end block latency (sim only)."),
        RangedRead => ("ranged_read", "Seek + ranged block decode time."),
    }
}

kinds! {
    /// Plain value histograms (unit in the metric name).
    pub enum HistKind {
        AppRate => ("adcomp_epoch_rate_bytes_per_second", "Per-epoch application data rate."),
        QueueDepth => ("adcomp_queue_depth", "Pool occupancy sampled at submit time."),
    }
}

kinds! {
    /// Families of dynamically-labelled counters (labels are `'static`
    /// strings registered on first use, rendered in sorted order).
    pub enum LabelFamily {
        DecisionCase => ("adcomp_decisions_total", "Algorithm-1 decision branches taken."),
        FaultKind => ("adcomp_frame_faults_total", "Frame faults by kind."),
        ShedReason => ("adcomp_serve_shed_total", "Connections shed at admission by reason."),
    }
}

const N_COUNTERS: usize = CounterKind::ALL.len();
const N_GAUGES: usize = GaugeKind::ALL.len();
const N_SPANS: usize = SpanKind::ALL.len();
const N_HISTS: usize = HistKind::ALL.len();
const N_FAMILIES: usize = LabelFamily::ALL.len();
/// Distinct labels per dynamic family (house enums are far smaller).
const LABEL_SLOTS: usize = 32;

/// One histogram's sharded storage: bucket counts plus an exact sum (in
/// the recorded unit) for the Prometheus `_sum` series.
struct AtomicHist {
    buckets: Box<[AtomicU64; N_BUCKETS]>,
    sum: AtomicU64,
}

impl AtomicHist {
    fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; N_BUCKETS]> =
            buckets.into_boxed_slice().try_into().map_err(|_| ()).unwrap();
        AtomicHist { buckets, sum: AtomicU64::new(0) }
    }

    #[inline]
    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }
}

/// One thread shard: all sharded instruments side by side.
struct Shard {
    counters: [AtomicU64; N_COUNTERS],
    level_epochs: [AtomicU64; REG_MAX_LEVELS],
    level_blocks: [AtomicU64; REG_MAX_LEVELS],
    spans: Vec<AtomicHist>,
    hists: Vec<AtomicHist>,
}

impl Shard {
    fn new() -> Self {
        Shard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            level_epochs: std::array::from_fn(|_| AtomicU64::new(0)),
            level_blocks: std::array::from_fn(|_| AtomicU64::new(0)),
            spans: (0..N_SPANS).map(|_| AtomicHist::new()).collect(),
            hists: (0..N_HISTS).map(|_| AtomicHist::new()).collect(),
        }
    }
}

/// A dynamically-labelled counter slot. The label is a `'static` string
/// published with release ordering: once `ptr` reads non-null, `len` is
/// valid. Claims happen under [`MetricsRegistry::label_lock`].
struct LabelSlot {
    ptr: AtomicPtr<u8>,
    len: AtomicUsize,
    count: AtomicU64,
}

impl LabelSlot {
    fn new() -> Self {
        LabelSlot {
            ptr: AtomicPtr::new(std::ptr::null_mut()),
            len: AtomicUsize::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// The published label, if any.
    fn label(&self) -> Option<&'static str> {
        let p = self.ptr.load(Ordering::Acquire);
        if p.is_null() {
            return None;
        }
        let len = self.len.load(Ordering::Relaxed);
        // SAFETY: (ptr, len) were taken from a `&'static str` and
        // published with release ordering after `len` was stored.
        Some(unsafe { std::str::from_utf8_unchecked(std::slice::from_raw_parts(p, len)) })
    }
}

/// The live registry. Construct directly for tests; long-lived processes
/// use the process-wide instance via [`install`] / [`global`].
pub struct MetricsRegistry {
    mode: RegistryMode,
    shards: Vec<Shard>,
    gauges: [AtomicI64; N_GAUGES],
    labeled: Vec<Vec<LabelSlot>>,
    label_lock: Mutex<()>,
    /// Labels dropped because a family's 32 slots were exhausted;
    /// surfaced in the snapshot so truncation is never silent.
    label_overflow: AtomicU64,
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Round-robin shard assignment, fixed for the thread's lifetime.
    static SHARD_IDX: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
}

impl MetricsRegistry {
    pub fn new(mode: RegistryMode) -> Self {
        let gauges: [AtomicI64; N_GAUGES] = std::array::from_fn(|_| AtomicI64::new(0));
        gauges[GaugeKind::CurrentLevel.index()].store(-1, Ordering::Relaxed);
        MetricsRegistry {
            mode,
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
            gauges,
            labeled: (0..N_FAMILIES)
                .map(|_| (0..LABEL_SLOTS).map(|_| LabelSlot::new()).collect())
                .collect(),
            label_lock: Mutex::new(()),
            label_overflow: AtomicU64::new(0),
        }
    }

    /// Whether wall-clock spans are admitted (i.e. worth measuring).
    #[inline]
    pub fn wall_spans(&self) -> bool {
        self.mode == RegistryMode::Wall
    }

    #[inline]
    fn shard(&self) -> &Shard {
        &self.shards[SHARD_IDX.with(|i| *i)]
    }

    #[inline]
    pub fn counter_add(&self, kind: CounterKind, n: u64) {
        self.shard().counters[kind.index()].fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one epoch spent at `level`.
    #[inline]
    pub fn level_epoch(&self, level: usize) {
        if level < REG_MAX_LEVELS {
            self.shard().level_epochs[level].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts `n` blocks emitted at `level`.
    #[inline]
    pub fn level_block(&self, level: usize, n: u64) {
        if level < REG_MAX_LEVELS {
            self.shard().level_blocks[level].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Commutative gauge update (queue depths; pair `+1`/`-1`).
    #[inline]
    pub fn gauge_add(&self, kind: GaugeKind, delta: i64) {
        self.gauges[kind.index()].fetch_add(delta, Ordering::Relaxed);
    }

    /// Commutative high-water update.
    #[inline]
    pub fn gauge_max(&self, kind: GaugeKind, v: i64) {
        self.gauges[kind.index()].fetch_max(v, Ordering::Relaxed);
    }

    /// Last-write-wins gauge. Dropped in [`RegistryMode::Virtual`]: with
    /// sim cells racing on worker threads the final value would depend
    /// on scheduling and break scrape determinism.
    #[inline]
    pub fn gauge_set(&self, kind: GaugeKind, v: i64) {
        if self.mode == RegistryMode::Wall {
            self.gauges[kind.index()].store(v, Ordering::Relaxed);
        }
    }

    /// Records a wall-clock span; dropped in virtual mode (host-speed
    /// dependent, so it would break sim determinism).
    #[inline]
    pub fn span_ns(&self, kind: SpanKind, ns: u64) {
        if self.mode == RegistryMode::Wall {
            self.shard().spans[kind.index()].record(ns / 1_000);
        }
    }

    /// Records a virtual-clock span in seconds (the simulator's native
    /// unit); admitted in both modes.
    #[inline]
    pub fn span_secs(&self, kind: SpanKind, secs: f64) {
        let us = (secs * 1e6).round();
        if us >= 0.0 && us.is_finite() {
            self.shard().spans[kind.index()].record(us as u64);
        }
    }

    /// Records a plain value observation.
    #[inline]
    pub fn observe(&self, kind: HistKind, v: u64) {
        self.shard().hists[kind.index()].record(v);
    }

    /// Bumps the dynamically-labelled counter `family{label}` by `n`.
    /// `label` must be a `'static` literal (house enums expose those).
    pub fn label_count(&self, family: LabelFamily, label: &'static str, n: u64) {
        let slots = &self.labeled[family.index()];
        for slot in slots {
            match slot.label() {
                Some(l) if l == label => {
                    slot.count.fetch_add(n, Ordering::Relaxed);
                    return;
                }
                Some(_) => continue,
                None => break,
            }
        }
        // Slow path: claim a slot under the lock (first use of a label).
        let _guard = self.label_lock.lock().unwrap();
        for slot in slots {
            match slot.label() {
                Some(l) if l == label => {
                    slot.count.fetch_add(n, Ordering::Relaxed);
                    return;
                }
                Some(_) => continue,
                None => {
                    slot.len.store(label.len(), Ordering::Relaxed);
                    slot.ptr.store(label.as_ptr() as *mut u8, Ordering::Release);
                    slot.count.fetch_add(n, Ordering::Relaxed);
                    return;
                }
            }
        }
        self.label_overflow.fetch_add(n, Ordering::Relaxed);
    }

    /// Folds all shards into a plain-data snapshot (see module docs for
    /// why the fold is deterministic).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let fold_counter = |i: usize| -> u64 {
            self.shards.iter().map(|s| s.counters[i].load(Ordering::Relaxed)).sum()
        };
        let fold_hist = |pick: &dyn Fn(&Shard) -> &AtomicHist| -> HistSnapshot {
            let mut buckets = vec![0u64; N_BUCKETS];
            let mut sum = 0u64;
            for s in &self.shards {
                let h = pick(s);
                for (b, a) in buckets.iter_mut().zip(h.buckets.iter()) {
                    *b += a.load(Ordering::Relaxed);
                }
                sum += h.sum.load(Ordering::Relaxed);
            }
            HistSnapshot::from_dense(&buckets, sum)
        };

        let mut labeled = Vec::with_capacity(N_FAMILIES);
        for (fi, family) in LabelFamily::ALL.iter().enumerate() {
            let mut entries: Vec<(String, u64)> = self.labeled[fi]
                .iter()
                .filter_map(|s| {
                    s.label().map(|l| (l.to_string(), s.count.load(Ordering::Relaxed)))
                })
                .collect();
            entries.sort();
            labeled.push((*family, entries));
        }

        RegistrySnapshot {
            mode: self.mode,
            counters: CounterKind::ALL.iter().map(|k| (*k, fold_counter(k.index()))).collect(),
            level_epochs: (0..REG_MAX_LEVELS)
                .map(|l| self.shards.iter().map(|s| s.level_epochs[l].load(Ordering::Relaxed)).sum())
                .collect(),
            level_blocks: (0..REG_MAX_LEVELS)
                .map(|l| self.shards.iter().map(|s| s.level_blocks[l].load(Ordering::Relaxed)).sum())
                .collect(),
            gauges: GaugeKind::ALL
                .iter()
                .map(|k| (*k, self.gauges[k.index()].load(Ordering::Relaxed)))
                .collect(),
            spans: SpanKind::ALL
                .iter()
                .map(|k| (*k, fold_hist(&|s: &Shard| &s.spans[k.index()])))
                .collect(),
            hists: HistKind::ALL
                .iter()
                .map(|k| (*k, fold_hist(&|s: &Shard| &s.hists[k.index()])))
                .collect(),
            labeled,
            label_overflow: self.label_overflow.load(Ordering::Relaxed),
        }
    }
}

/// One folded histogram: sparse cumulative buckets plus exact sum.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// Total observations.
    pub count: u64,
    /// Exact sum of recorded values (µs for spans).
    pub sum: u64,
    /// `(upper_bound, cumulative_count)` for buckets that hold data.
    pub buckets: Vec<(u64, u64)>,
}

impl HistSnapshot {
    fn from_dense(dense: &[u64], sum: u64) -> Self {
        let mut buckets = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in dense.iter().enumerate() {
            if c > 0 {
                cum += c;
                buckets.push((bucket_upper(i), cum));
            }
        }
        HistSnapshot { count: cum, sum, buckets }
    }

    /// Quantile from the folded buckets: the upper bound of the first
    /// bucket whose cumulative count reaches rank `ceil(q·count)`.
    /// Deterministic; overestimates by at most one bucket width (6.25 %).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        for &(ub, cum) in &self.buckets {
            if cum >= rank {
                return ub;
            }
        }
        self.buckets.last().map_or(0, |&(ub, _)| ub)
    }
}

/// Plain-data fold of a [`MetricsRegistry`]; everything a renderer needs.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    pub mode: RegistryMode,
    pub counters: Vec<(CounterKind, u64)>,
    pub level_epochs: Vec<u64>,
    pub level_blocks: Vec<u64>,
    pub gauges: Vec<(GaugeKind, i64)>,
    pub spans: Vec<(SpanKind, HistSnapshot)>,
    pub hists: Vec<(HistKind, HistSnapshot)>,
    pub labeled: Vec<(LabelFamily, Vec<(String, u64)>)>,
    pub label_overflow: u64,
}

/// RAII wall-clock span: records into the global registry on drop.
/// [`span`] returns `None` when no registry is installed *or* the
/// registry runs in virtual mode, so the `Instant` is never taken when
/// it would be wasted or dropped.
pub struct SpanTimer {
    start: Instant,
    kind: SpanKind,
    reg: &'static MetricsRegistry,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.reg.span_ns(self.kind, self.start.elapsed().as_nanos() as u64);
    }
}

static GLOBAL: OnceLock<&'static MetricsRegistry> = OnceLock::new();
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Installs (or returns) the process-wide registry. The first caller
/// fixes the mode; later calls return the existing instance unchanged.
pub fn install(mode: RegistryMode) -> &'static MetricsRegistry {
    let reg = GLOBAL.get_or_init(|| Box::leak(Box::new(MetricsRegistry::new(mode))));
    INSTALLED.store(true, Ordering::Release);
    reg
}

/// The installed registry, if any. This is the instrumentation fast
/// path: one relaxed load and a branch when metrics are off.
#[inline]
pub fn global() -> Option<&'static MetricsRegistry> {
    if !INSTALLED.load(Ordering::Relaxed) {
        return None;
    }
    GLOBAL.get().copied()
}

/// Starts a wall span against the global registry (see [`SpanTimer`]).
#[inline]
pub fn span(kind: SpanKind) -> Option<SpanTimer> {
    let reg = global()?;
    if !reg.wall_spans() {
        return None;
    }
    Some(SpanTimer { start: Instant::now(), kind, reg })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_upper_agree() {
        // Exhaustive over the low range, sampled across octaves.
        for v in 0..4096u64 {
            let i = bucket_index(v);
            assert!(bucket_upper(i) >= v, "v={v} i={i} ub={}", bucket_upper(i));
            if i > 0 {
                assert!(bucket_upper(i - 1) < v, "v={v} lands above bucket {i}");
            }
        }
        for shift in 12..40 {
            for off in [0u64, 1, 7, 255] {
                let v = (1u64 << shift) + off;
                let i = bucket_index(v);
                assert!(bucket_upper(i) >= v && (i == 0 || bucket_upper(i - 1) < v));
                // Relative bucket width stays under 2^-SUB_BITS.
                let lo = if i == 0 { 0 } else { bucket_upper(i - 1) + 1 };
                let width = bucket_upper(i) - lo + 1;
                assert!(width as f64 / v as f64 <= 1.0 / SUBS as f64 + 1e-9);
            }
        }
        // Clamp: huge values land in the last bucket, index stays in range.
        assert_eq!(bucket_index(u64::MAX), N_BUCKETS - 1);
    }

    #[test]
    fn fold_sums_across_threads_is_schedule_independent() {
        let reg = MetricsRegistry::new(RegistryMode::Virtual);
        std::thread::scope(|s| {
            for t in 0..4 {
                let reg = &reg;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        reg.counter_add(CounterKind::BlocksCompressed, 1);
                        reg.span_secs(SpanKind::Compress, (t * 1000 + i) as f64 * 1e-6);
                        reg.level_block((i % 4) as usize, 1);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters[CounterKind::BlocksCompressed.index()].1, 4000);
        let (_, compress) = &snap.spans[SpanKind::Compress.index()];
        assert_eq!(compress.count, 4000);
        // Sum of 0..4000 µs, exactly.
        assert_eq!(compress.sum, (0..4000u64).sum::<u64>());
        assert_eq!(snap.level_blocks[..4], [1000, 1000, 1000, 1000]);
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let reg = MetricsRegistry::new(RegistryMode::Wall);
        for v in 1..=1000u64 {
            reg.span_ns(SpanKind::Compress, v * 1_000); // v µs
        }
        let snap = reg.snapshot();
        let (_, h) = &snap.spans[SpanKind::Compress.index()];
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        let p999 = h.quantile(0.999);
        assert!((500..=532).contains(&p50), "p50={p50}");
        assert!((990..=1055).contains(&p99), "p99={p99}");
        assert!((999..=1055).contains(&p999), "p999={p999}");
        assert!(p50 <= p99 && p99 <= p999);
    }

    #[test]
    fn virtual_mode_drops_wall_spans_and_sets() {
        let reg = MetricsRegistry::new(RegistryMode::Virtual);
        reg.span_ns(SpanKind::Compress, 5_000_000);
        reg.gauge_set(GaugeKind::CurrentLevel, 3);
        reg.gauge_add(GaugeKind::CompressInFlight, 2);
        reg.gauge_max(GaugeKind::CompressInFlightMax, 2);
        reg.span_secs(SpanKind::SimBlock, 0.25);
        let snap = reg.snapshot();
        assert_eq!(snap.spans[SpanKind::Compress.index()].1.count, 0);
        assert_eq!(snap.gauges[GaugeKind::CurrentLevel.index()].1, -1);
        assert_eq!(snap.gauges[GaugeKind::CompressInFlight.index()].1, 2);
        assert_eq!(snap.gauges[GaugeKind::CompressInFlightMax.index()].1, 2);
        let (_, sim) = &snap.spans[SpanKind::SimBlock.index()];
        assert_eq!(sim.count, 1);
        assert_eq!(sim.sum, 250_000);
    }

    #[test]
    fn labeled_counters_register_once_and_sort() {
        let reg = MetricsRegistry::new(RegistryMode::Wall);
        reg.label_count(LabelFamily::DecisionCase, "stable", 2);
        reg.label_count(LabelFamily::DecisionCase, "degraded", 1);
        reg.label_count(LabelFamily::DecisionCase, "stable", 3);
        let snap = reg.snapshot();
        let (fam, entries) = &snap.labeled[LabelFamily::DecisionCase.index()];
        assert_eq!(*fam, LabelFamily::DecisionCase);
        assert_eq!(
            entries,
            &vec![("degraded".to_string(), 1), ("stable".to_string(), 5)]
        );
        assert_eq!(snap.label_overflow, 0);
    }

    #[test]
    fn label_overflow_is_counted_not_silent() {
        let reg = MetricsRegistry::new(RegistryMode::Wall);
        // 32 slots; the 33rd distinct label overflows.
        const NAMES: [&str; 33] = [
            "l00", "l01", "l02", "l03", "l04", "l05", "l06", "l07", "l08", "l09", "l10",
            "l11", "l12", "l13", "l14", "l15", "l16", "l17", "l18", "l19", "l20", "l21",
            "l22", "l23", "l24", "l25", "l26", "l27", "l28", "l29", "l30", "l31", "l32",
        ];
        for n in NAMES {
            reg.label_count(LabelFamily::FaultKind, n, 1);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.labeled[LabelFamily::FaultKind.index()].1.len(), 32);
        assert_eq!(snap.label_overflow, 1);
    }

    #[test]
    fn snapshot_orders_follow_enum_declaration() {
        let snap = MetricsRegistry::new(RegistryMode::Wall).snapshot();
        for (i, (k, _)) in snap.counters.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        for (i, (k, _)) in snap.spans.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
