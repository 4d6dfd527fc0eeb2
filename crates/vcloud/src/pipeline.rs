//! Virtual-time simulation of the paper's sample job: sender tasks
//! streaming data through compressing channels into one sink — the shared
//! network link and a receiver task on another VM, or the VM's virtual
//! disk — with co-located background flows on the link.
//!
//! ## Pipeline model
//!
//! The paper's guests have **one CPU core**, so compression and the TCP
//! stack serialize on the sender's vCPU while wire transmission (NIC DMA)
//! overlaps. Each 128 KiB block passes three stages:
//!
//! 1. **Sender CPU** — `block/compress_bps + wire/tcp_proc_bps`, inflated
//!    by co-location CPU pressure and jitter; blocked when the send queue
//!    (socket buffer) is full.
//! 2. **Wire** — `wire_bytes` at the fluctuating contended share.
//! 3. **Receiver CPU** — decompression + TCP receive cost; backpressure
//!    propagates to the sender through the bounded queues, so the
//!    application data rate "also includes the decompression time at the
//!    receiver because of the network's flow control" (paper §III-A).
//!
//! The decision model runs inside the loop: every epoch (t = 2 s of
//! *virtual* time) it sees the application data rate and picks the level
//! for subsequent blocks.
//!
//! ## Worker-pool extension
//!
//! [`TransferConfig::pipeline_workers`] models the pipelined compression
//! engine: `W > 1` gives the sender `W` vCPU lanes, each block is
//! dispatched to the earliest-free lane, and frames still enter the wire
//! stage in submission order (the reorder gate), so `wire_bytes` is
//! invariant across worker counts. `W = 1` reduces to exactly the serial
//! arithmetic above, bit-for-bit.
//!
//! ## Flows and sinks
//!
//! One engine runs every transfer: N flows, each with its own model,
//! class schedule, lanes and epoch clock, into one sink.
//!
//! * **Link** — the [`SharedLink`], then the receiver's CPU. Flows that
//!   transmit at the same moment split the foreground share equally; the
//!   split is taken at each block's wire start, from the flows whose
//!   previous block is still on the wire, so it changes between block
//!   events. One flow is [`run_transfer`]; several are
//!   [`run_multiflow_traced`](crate::multiflow::run_multiflow_traced).
//! * **Disk** — a [`VirtualDisk`] in place of the wire, no TCP cost and
//!   no receiver. The guest's one vCPU compresses a block and then writes
//!   it, so a block is done when the disk accepts it and the next one
//!   starts compressing only then; a run is done when a final `fsync` made
//!   it durable. A sync-aware flow also `fsync`s once per epoch
//!   ([`run_file_transfer`](crate::filepipe::run_file_transfer)).
//!
//! Blocks are simulated in the order they reach the sink, so every flow's
//! arithmetic stays its own, and one flow into the link is the serial
//! loop above. The link's fluctuation is sampled in that order too: a
//! block that starts while another flow's block is on the wire reads the
//! fluctuation sample that block reached (the AR(1) grid is 50 ms, a block
//! a few ms).

use crate::disk::VirtualDisk;
use crate::link::SharedLink;
use crate::platform::{IoOp, Platform};
use crate::speed::{LevelProfile, SpeedModel};
use adcomp_codecs::frame::HEADER_LEN;
use adcomp_core::epoch::{EpochContext, EpochDriver};
use adcomp_core::model::{DecisionModel, GuestMetrics};
use adcomp_corpus::{Class, Prng};
use adcomp_metrics::registry::{self, CounterKind, SpanKind};
use adcomp_metrics::TimeSeries;
use adcomp_trace::{SimEvent, TraceHandle};
use std::collections::VecDeque;

/// Assigns a compressibility class to every byte offset of the stream.
pub trait ClassSchedule: Send {
    fn class_at(&mut self, byte_offset: u64) -> Class;
}

/// A single class for the whole stream (Table II, Figs. 4–5).
pub struct ConstantClass(pub Class);

impl ClassSchedule for ConstantClass {
    fn class_at(&mut self, _byte_offset: u64) -> Class {
        self.0
    }
}

/// Cycles through classes every `period_bytes` (Fig. 6: HIGH ↔ LOW every
/// 10 GB).
pub struct AlternatingClass {
    pub classes: Vec<Class>,
    pub period_bytes: u64,
}

impl ClassSchedule for AlternatingClass {
    fn class_at(&mut self, byte_offset: u64) -> Class {
        let idx = (byte_offset / self.period_bytes) as usize % self.classes.len();
        self.classes[idx]
    }
}

/// Block size (paper: ≤ 128 KiB).
const BLOCK_LEN: usize = 128 * 1024;
/// Bounded send queue between compression and wire, in blocks.
const SEND_QUEUE_BLOCKS: usize = 8;
/// Bounded receive queue between wire and decompression, in blocks.
const RECV_QUEUE_BLOCKS: usize = 8;

/// Transfer experiment parameters.
#[derive(Debug, Clone)]
pub struct TransferConfig {
    /// Platform whose link/CPU characteristics apply (the paper's §IV setup
    /// is KVM-paravirtualized).
    pub platform: Platform,
    /// Co-located competing TCP connections (0–3 in Table II).
    pub background_flows: usize,
    /// Total application bytes to move (paper: 50 GB).
    pub total_bytes: u64,
    /// Decision epoch `t` in seconds (paper: 2 s).
    pub epoch_secs: f64,
    /// Relative jitter on per-block CPU time.
    pub cpu_jitter: f64,
    /// Disables bandwidth fluctuation (deterministic tests).
    pub deterministic: bool,
    /// RNG / fluctuation seed — vary per repetition.
    pub seed: u64,
    /// Sender-side compression worker lanes (the pipelined engine's vCPU
    /// count). 1 = the paper's single-core guest, serial arithmetic.
    pub pipeline_workers: usize,
}

impl TransferConfig {
    /// The paper's §IV configuration (50 GB may take a second or two of
    /// host time to simulate; tests use smaller volumes).
    pub fn paper_default() -> Self {
        TransferConfig {
            platform: Platform::KvmPara,
            background_flows: 0,
            total_bytes: 50_000_000_000,
            epoch_secs: 2.0,
            cpu_jitter: 0.02,
            deterministic: false,
            seed: 1,
            pipeline_workers: 1,
        }
    }
}

/// Result of one simulated transfer.
#[derive(Debug, Clone)]
pub struct TransferOutcome {
    /// Virtual seconds until the receiver finished the last block — the
    /// paper's "completion time".
    pub completion_secs: f64,
    pub app_bytes: u64,
    pub wire_bytes: u64,
    /// `(t, level)` — Figs. 4–6 bottom panels.
    pub level_trace: TimeSeries,
    /// `(t, app bytes/s)` per epoch — "Application Throughput".
    pub app_rate_trace: TimeSeries,
    /// `(t, wire bytes/s)` per epoch — "Network Throughput".
    pub net_rate_trace: TimeSeries,
    /// `(t, sender CPU utilization %)` per epoch.
    pub cpu_trace: TimeSeries,
    /// Blocks emitted at each level.
    pub blocks_per_level: Vec<u64>,
    pub epochs: u64,
}

impl TransferOutcome {
    /// Mean application throughput over the whole run, bytes/second.
    pub fn mean_app_rate(&self) -> f64 {
        self.app_bytes as f64 / self.completion_secs
    }

    /// Overall wire/app ratio.
    pub fn wire_ratio(&self) -> f64 {
        self.wire_bytes as f64 / self.app_bytes.max(1) as f64
    }
}

/// One sender: the data it moves, the model that picks its level, and how
/// many application bytes it moves.
pub struct FlowSpec<'a> {
    pub schedule: &'a mut dyn ClassSchedule,
    pub model: Box<dyn DecisionModel>,
    pub total_bytes: u64,
}

/// Runs one transfer under the given decision model.
pub fn run_transfer(
    cfg: &TransferConfig,
    speed: &SpeedModel,
    schedule: &mut dyn ClassSchedule,
    model: Box<dyn DecisionModel>,
) -> TransferOutcome {
    run_transfer_traced(cfg, speed, schedule, model, TraceHandle::disabled())
}

/// [`run_transfer`] with a trace handle attached: the epoch driver emits
/// epoch/decision events and the simulator emits [`SimEvent`]s — transfer
/// lifecycle, per-epoch contended-bandwidth samples and wire-rate samples —
/// all under **virtual time**, so traces are bit-identical across hosts and
/// worker counts.
pub fn run_transfer_traced(
    cfg: &TransferConfig,
    speed: &SpeedModel,
    schedule: &mut dyn ClassSchedule,
    model: Box<dyn DecisionModel>,
    trace: TraceHandle,
) -> TransferOutcome {
    let flow = FlowSpec { schedule, model, total_bytes: cfg.total_bytes };
    let mut runs = run_flows(cfg, speed, vec![flow], Sink::link(cfg), trace);
    runs.pop().expect("one flow").0
}

/// Where every flow's blocks go.
pub(crate) enum Sink {
    /// The shared link, then the receiver's CPU.
    Link(SharedLink),
    /// A virtual disk; a `sync_aware` flow `fsync`s once per epoch, so the
    /// drain is charged to the epoch it closes and its controller sees the
    /// durable rate instead of the host cache's.
    Disk { disk: VirtualDisk, sync_aware: bool },
}

impl Sink {
    /// `cfg`'s link: its platform's bandwidth and fluctuation, shared with
    /// its background flows.
    pub(crate) fn link(cfg: &TransferConfig) -> Sink {
        let fluct = if cfg.deterministic {
            Platform::no_fluctuation()
        } else {
            cfg.platform.net_fluctuation(cfg.seed)
        };
        Sink::Link(SharedLink::new(cfg.platform.net_bandwidth_bps(), cfg.background_flows, fluct))
    }

    /// Sender CPU seconds the I/O path costs per block of `wire` bytes.
    fn io_cpu_secs(&self, speed: &SpeedModel, wire: u64) -> f64 {
        match self {
            Sink::Link(_) => wire as f64 / speed.tcp_proc_bps,
            Sink::Disk { .. } => 0.0,
        }
    }
}

/// A block staged up to the moment it can enter the sink.
struct Staged {
    block: usize,
    class: Class,
    level: usize,
    prof: LevelProfile,
    wire: u64,
    comp_secs: f64,
    cpu_start: f64,
    /// When the block was handed to the I/O layer.
    emit_t: f64,
    /// When the sink can take it.
    start: f64,
}

/// One flow's clocks, queues and tallies.
struct Flow<'a> {
    schedule: &'a mut dyn ClassSchedule,
    total_bytes: u64,
    driver: EpochDriver,
    rng: Prng,
    /// `flow` of this flow's [`SimEvent`]s.
    trace_id: u32,
    /// One CPU lane per compression worker; `W = 1` makes `lanes[0]` the
    /// serial `cpu_free`.
    lanes: Vec<f64>,
    /// Monotone clock for epoch bookkeeping: with several lanes, blocks
    /// can *finish* compression out of order even though they are
    /// dispatched (and shipped) in order.
    record_clock: f64,
    net_free: f64,
    rx_free: f64,
    net_done_q: VecDeque<f64>,
    rx_done_q: VecDeque<f64>,
    next_sync_t: f64,
    // Per-epoch accumulators for the CPU/network traces.
    epoch_cpu_busy: f64,
    epoch_wire_bytes: u64,
    last_epoch_count: u64,
    last_epoch_t: f64,
    produced: u64,
    wire_total: u64,
    blocks_per_level: Vec<u64>,
    net_rate_trace: TimeSeries,
    cpu_trace: TimeSeries,
    staged: Option<Staged>,
}

impl Flow<'_> {
    /// Compresses the next block on the earliest-free lane and stages it,
    /// or stages nothing once every byte is out.
    fn stage(&mut self, cfg: &TransferConfig, speed: &SpeedModel, sink: &Sink, cpu_factor: f64) {
        if self.produced >= self.total_bytes {
            self.staged = None;
            return;
        }
        let block = (BLOCK_LEN as u64).min(self.total_bytes - self.produced) as usize;
        let class = self.schedule.class_at(self.produced);
        let level = self.driver.level();
        let prof = speed.profile(class, level);
        let wire = (block as f64 * prof.ratio) as u64 + HEADER_LEN as u64;

        // Stage 1: sender CPU.
        let mut comp_secs =
            (block as f64 / prof.compress_bps + sink.io_cpu_secs(speed, wire)) / cpu_factor;
        if cfg.cpu_jitter > 0.0 {
            comp_secs *= (1.0 + self.rng.normal(0.0, cfg.cpu_jitter)).clamp(0.5, 2.0);
        }
        let backpressure = if self.net_done_q.len() >= SEND_QUEUE_BLOCKS {
            self.net_done_q.pop_front().unwrap()
        } else {
            0.0
        };
        let lane = self
            .lanes
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        let cpu_start = self.lanes[lane].max(backpressure);
        let cpu_done = cpu_start + comp_secs;
        self.lanes[lane] = cpu_done;
        // The reorder gate ships frames in submission order, so epoch time
        // advances monotonically even when lanes finish out of order.
        let emit_t = cpu_done.max(self.record_clock);
        self.record_clock = emit_t;

        let rx_backpressure = if self.rx_done_q.len() >= RECV_QUEUE_BLOCKS {
            self.rx_done_q.pop_front().unwrap()
        } else {
            0.0
        };
        let start = emit_t.max(self.net_free).max(rx_backpressure);
        self.staged =
            Some(Staged { block, class, level, prof, wire, comp_secs, cpu_start, emit_t, start });
    }
}

/// The engine: runs `flows` into `sink` until every flow's bytes are done
/// and returns, per flow, its outcome and when its sink accepted its last
/// block. The last block of a flow into the disk is durable only after a
/// final `fsync`, which its completion time includes.
pub(crate) fn run_flows(
    cfg: &TransferConfig,
    speed: &SpeedModel,
    flows: Vec<FlowSpec<'_>>,
    mut sink: Sink,
    trace: TraceHandle,
) -> Vec<(TransferOutcome, f64)> {
    assert!(!flows.is_empty());
    let n = flows.len();
    let cpu_factor = match &sink {
        Sink::Link(link) => link.cpu_capacity_factor(n),
        Sink::Disk { .. } => 1.0,
    };
    // Guest-displayed metric distortion for the metric-based baseline: the
    // guest sees only a fraction of its true CPU cost (Fig. 1) and believes
    // the device's nominal solo bandwidth is available.
    let (op, displayed_bw) = match &sink {
        Sink::Link(_) => (IoOp::NetSend, cfg.platform.net_bandwidth_bps()),
        Sink::Disk { .. } => (IoOp::FileWrite, cfg.platform.disk_write_bps()),
    };
    let display_factor = match cfg.platform.cpu_accuracy(op).gap() {
        Some(gap) if gap > 0.0 => 1.0 / gap,
        _ => 1.0,
    };
    let metrics = registry::global();

    let mut flows: Vec<Flow> = flows
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            assert_eq!(spec.model.num_levels(), speed.num_levels());
            assert!(spec.total_bytes > 0);
            let mut driver = EpochDriver::new(spec.model, cfg.epoch_secs, 0.0);
            // Decision and epoch events name no flow, so only a lone flow
            // traces them.
            if n == 1 {
                driver.set_trace(trace.clone());
            }
            let trace_id = if n == 1 { SimEvent::NO_FLOW } else { i as u32 };
            let (bytes, background) = (spec.total_bytes as f64, cfg.background_flows as f64);
            sim_event(&trace, 0, 0.0, "transfer_start", trace_id, bytes, background);
            Flow {
                schedule: spec.schedule,
                total_bytes: spec.total_bytes,
                driver,
                rng: Prng::new((cfg.seed ^ 0x51D).wrapping_add(i as u64)),
                trace_id,
                lanes: vec![0.0; cfg.pipeline_workers.max(1)],
                record_clock: 0.0,
                net_free: 0.0,
                rx_free: 0.0,
                net_done_q: VecDeque::with_capacity(SEND_QUEUE_BLOCKS),
                rx_done_q: VecDeque::with_capacity(RECV_QUEUE_BLOCKS),
                next_sync_t: cfg.epoch_secs,
                epoch_cpu_busy: 0.0,
                epoch_wire_bytes: 0,
                last_epoch_count: 0,
                last_epoch_t: 0.0,
                produced: 0,
                wire_total: 0,
                blocks_per_level: vec![0; speed.num_levels()],
                net_rate_trace: TimeSeries::new(),
                cpu_trace: TimeSeries::new(),
                staged: None,
            }
        })
        .collect();
    for f in flows.iter_mut() {
        f.stage(cfg, speed, &sink, cpu_factor);
    }

    // The staged block that reaches the sink first goes next; ties go to
    // the lower flow index.
    while let Some((i, _)) = (0..n)
        .filter_map(|i| flows[i].staged.as_ref().map(|s| (i, s.start)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    {
        let s = flows[i].staged.take().unwrap();
        let sharers = 1 + (0..n).filter(|&j| j != i && flows[j].net_free > s.start).count();
        let f = &mut flows[i];

        // Stage 2: the sink.
        let net_secs = match &mut sink {
            Sink::Link(link) => link.transmit_secs(s.wire, s.start, sharers),
            Sink::Disk { disk, .. } => disk.write_secs(s.wire, s.start),
        };
        let net_done = s.start + net_secs;
        f.net_free = net_done;
        f.net_done_q.push_back(net_done);

        // Stage 3: receiver CPU.
        let rx_secs = match &sink {
            Sink::Link(_) => {
                s.block as f64 / s.prof.decompress_bps + s.wire as f64 / speed.tcp_proc_bps
            }
            Sink::Disk { .. } => 0.0,
        };
        let rx_done = net_done.max(f.rx_free) + rx_secs;
        f.rx_free = rx_done;
        f.rx_done_q.push_back(rx_done);

        let mut emit_t = s.emit_t;
        if let Sink::Disk { disk, sync_aware } = &mut sink {
            // The write runs on the vCPU that compressed the block, so the
            // block counts once the disk took it, and a sync-aware writer
            // then blocks in `fsync` until its writes are on disk. The
            // drain stretches the closing epoch's window, so its measured
            // rate is the durable rate, every epoch.
            emit_t = net_done;
            if *sync_aware && emit_t >= f.next_sync_t {
                emit_t += disk.sync_secs();
                f.next_sync_t = emit_t + cfg.epoch_secs;
            }
            f.lanes.iter_mut().for_each(|l| *l = l.max(emit_t));
            f.record_clock = emit_t;
            f.net_free = emit_t;
        }

        f.produced += s.block as u64;
        f.wire_total += s.wire;
        f.blocks_per_level[s.level] += 1;
        f.epoch_cpu_busy += s.comp_secs;
        f.epoch_wire_bytes += s.wire;
        if let Some(m) = metrics {
            // Virtual-clock feeds: durations come from the simulated
            // pipeline clocks, so the same histograms fill identically
            // whichever wall-clock thread runs this cell.
            m.counter_add(CounterKind::SimBlocks, 1);
            m.counter_add(CounterKind::CodecInBytes, s.block as u64);
            m.counter_add(CounterKind::CodecOutBytes, s.wire);
            m.level_block(s.level, 1);
            m.span_secs(SpanKind::Compress, s.comp_secs);
            m.span_secs(SpanKind::Decompress, rx_secs);
            m.span_secs(SpanKind::SimBlock, rx_done - s.cpu_start);
        }

        // Decision epoch bookkeeping: application bytes count at the moment
        // they were handed (compressed) to the I/O layer.
        let queue_depth = f.net_done_q.iter().filter(|&&d| d > emit_t).count();
        let true_busy_frac = 1.0f64.min(f.epoch_cpu_busy / cfg.epoch_secs);
        let ctx = EpochContext {
            queue_depth,
            queue_capacity: SEND_QUEUE_BLOCKS,
            guest: Some(GuestMetrics {
                cpu_idle_frac: (1.0 - true_busy_frac * display_factor).clamp(0.0, 1.0),
                net_bandwidth: displayed_bw,
            }),
            // What an in-channel entropy probe of this class's data reports
            // (order-0 bits/byte, measured once on the generated corpus).
            data_entropy: Some(match s.class {
                Class::High => 1.4,
                Class::Moderate => 4.3,
                Class::Low => 8.0,
            }),
        };
        f.driver.record(s.block as u64, emit_t, &ctx);
        if f.driver.epochs() != f.last_epoch_count {
            let dt = (emit_t - f.last_epoch_t).max(1e-9);
            let wire_rate = f.epoch_wire_bytes as f64 / dt;
            let busy = 100.0 * (f.epoch_cpu_busy / dt).min(1.0);
            f.net_rate_trace.push(emit_t, wire_rate);
            f.cpu_trace.push(emit_t, busy);
            // One contended-share sample and one wire-rate sample per
            // epoch keeps trace volume proportional to epochs, not blocks.
            let epoch = f.driver.epochs() - 1;
            if let Sink::Link(link) = &sink {
                let share = link.nominal_share_bps() / sharers as f64;
                let background = cfg.background_flows as f64;
                sim_event(&trace, epoch, emit_t, "bandwidth", f.trace_id, share, background);
            }
            sim_event(&trace, epoch, emit_t, "sample", f.trace_id, wire_rate, busy);
            f.epoch_cpu_busy = 0.0;
            f.epoch_wire_bytes = 0;
            f.last_epoch_count = f.driver.epochs();
            f.last_epoch_t = emit_t;
        }
        f.stage(cfg, speed, &sink, cpu_factor);
    }

    flows
        .into_iter()
        .map(|f| {
            let completion_secs = match &mut sink {
                Sink::Link(_) => f.rx_free,
                Sink::Disk { disk, .. } => f.net_free + disk.sync_secs(),
            };
            let epochs = f.driver.epochs();
            let (t, wire) = (completion_secs, f.wire_total as f64);
            sim_event(&trace, epochs, t, "transfer_done", f.trace_id, t, wire);
            let outcome = TransferOutcome {
                completion_secs,
                app_bytes: f.produced,
                wire_bytes: f.wire_total,
                level_trace: f.driver.level_trace().clone(),
                app_rate_trace: f.driver.rate_trace().clone(),
                net_rate_trace: f.net_rate_trace,
                cpu_trace: f.cpu_trace,
                blocks_per_level: f.blocks_per_level,
                epochs,
            };
            (outcome, f.net_free)
        })
        .collect()
}

/// Observes one [`SimEvent`] if `trace` collects.
fn sim_event(
    trace: &TraceHandle,
    epoch: u64,
    t: f64,
    kind: &'static str,
    flow: u32,
    value: f64,
    aux: f64,
) {
    if trace.enabled() {
        trace.observe(SimEvent { epoch, t, kind, flow, value, aux }.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_core::model::{RateBasedModel, StaticModel};

    fn small_cfg(total_mb: u64, flows: usize) -> TransferConfig {
        TransferConfig {
            total_bytes: total_mb * 1_000_000,
            background_flows: flows,
            deterministic: true,
            cpu_jitter: 0.0,
            ..TransferConfig::paper_default()
        }
    }

    fn static_run(class: Class, level: usize, total_mb: u64, flows: usize) -> TransferOutcome {
        let cfg = small_cfg(total_mb, flows);
        let speed = SpeedModel::paper_fit();
        run_transfer(&cfg, &speed, &mut ConstantClass(class), Box::new(StaticModel::new(level, 4)))
    }

    #[test]
    fn uncompressed_run_is_wire_bound() {
        // 1 GB at ~100 MB/s nominal KVM-para bandwidth → ≈ 10 s.
        let out = static_run(Class::High, 0, 1000, 0);
        let rate = out.mean_app_rate() / 1e6;
        assert!((85.0..105.0).contains(&rate), "NO rate {rate} MB/s");
        assert_eq!(out.app_bytes, 1_000_000_000);
        assert!(out.wire_ratio() > 1.0 && out.wire_ratio() < 1.01);
    }

    #[test]
    fn light_on_high_data_beats_no_compression() {
        let no = static_run(Class::High, 0, 1000, 0);
        let light = static_run(Class::High, 1, 1000, 0);
        let speedup = no.completion_secs / light.completion_secs;
        // Paper Table II: 569 / 252 ≈ 2.26×.
        assert!((1.8..2.8).contains(&speedup), "speedup {speedup}");
    }

    #[test]
    fn heavy_is_cpu_bound_and_slow() {
        let heavy = static_run(Class::High, 3, 200, 0);
        let rate = heavy.mean_app_rate() / 1e6;
        // Paper: 50 GB in 1881 s ≈ 27 MB/s.
        assert!((22.0..30.0).contains(&rate), "HEAVY rate {rate}");
    }

    #[test]
    fn light_on_low_data_is_slower_than_no() {
        // Paper Table II LOW column: NO 566 s < LIGHT 629 s (wasted CPU).
        let no = static_run(Class::Low, 0, 1000, 0);
        let light = static_run(Class::Low, 1, 1000, 0);
        assert!(
            light.completion_secs > no.completion_secs * 1.05,
            "LIGHT {} vs NO {}",
            light.completion_secs,
            no.completion_secs
        );
    }

    #[test]
    fn contention_slows_uncompressed_transfers_like_table2() {
        let base = static_run(Class::High, 0, 500, 0).completion_secs;
        let one = static_run(Class::High, 0, 500, 1).completion_secs;
        let three = static_run(Class::High, 0, 500, 3).completion_secs;
        // Paper: 569 → 908 (×1.60) → 1642 (×2.89).
        assert!((1.4..1.9).contains(&(one / base)), "×{}", one / base);
        assert!((2.4..3.4).contains(&(three / base)), "×{}", three / base);
    }

    #[test]
    fn dynamic_tracks_best_static_on_high_data() {
        let cfg = small_cfg(2000, 0);
        let speed = SpeedModel::paper_fit();
        let dynamic = run_transfer(
            &cfg,
            &speed,
            &mut ConstantClass(Class::High),
            Box::new(RateBasedModel::paper_default()),
        );
        let light = static_run(Class::High, 1, 2000, 0);
        let slowdown = dynamic.completion_secs / light.completion_secs;
        // Paper: DYNAMIC within 22 % of the best static level.
        assert!(slowdown < 1.25, "DYNAMIC {slowdown}× of LIGHT");
        assert!(
            dynamic.blocks_per_level[1] > dynamic.blocks_per_level[3],
            "most blocks should be LIGHT: {:?}",
            dynamic.blocks_per_level
        );
    }

    #[test]
    fn dynamic_follows_compressibility_switch() {
        let cfg = TransferConfig {
            total_bytes: 3_000_000_000,
            deterministic: true,
            cpu_jitter: 0.0,
            ..TransferConfig::paper_default()
        };
        let speed = SpeedModel::paper_fit();
        let mut sched = AlternatingClass {
            classes: vec![Class::High, Class::Low],
            period_bytes: 1_000_000_000,
        };
        let out = run_transfer(&cfg, &speed, &mut sched, Box::new(RateBasedModel::paper_default()));
        // Level must move: HIGH phases favour LIGHT+, LOW phases favour NO.
        assert!(out.level_trace.len() > 4, "level changes: {}", out.level_trace.len());
        assert!(out.blocks_per_level[0] > 0, "{:?}", out.blocks_per_level);
        assert!(out.blocks_per_level[1] > 0, "{:?}", out.blocks_per_level);
    }

    #[test]
    fn traces_are_populated_and_causal() {
        let out = static_run(Class::Moderate, 1, 500, 1);
        assert!(out.epochs > 2);
        assert_eq!(out.app_rate_trace.len() as u64, out.epochs);
        assert!(out.net_rate_trace.len() as u64 <= out.epochs);
        for w in out.app_rate_trace.points().windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
        assert!(out.completion_secs > 0.0);
    }

    #[test]
    fn repeated_runs_with_noise_vary_but_cluster() {
        let cfg = TransferConfig {
            total_bytes: 300_000_000,
            deterministic: false,
            ..TransferConfig::paper_default()
        };
        let speed = SpeedModel::paper_fit();
        let times: Vec<f64> = (0..5u64)
            .map(|r| {
                let cfg_r = TransferConfig { seed: cfg.seed + r * 7919 + 13, ..cfg.clone() };
                let mut sched = ConstantClass(Class::High);
                run_transfer(&cfg_r, &speed, &mut sched, Box::new(StaticModel::new(1, 4)))
                    .completion_secs
            })
            .collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        for t in &times {
            assert!((t / mean - 1.0).abs() < 0.2, "outlier {t} vs mean {mean}");
        }
    }

    #[test]
    fn traced_transfer_emits_virtual_time_events() {
        use adcomp_trace::TraceEvent;

        let cfg = small_cfg(200, 1);
        let speed = SpeedModel::paper_fit();
        let trace = TraceHandle::collecting();
        let out = run_transfer_traced(
            &cfg,
            &speed,
            &mut ConstantClass(Class::High),
            Box::new(RateBasedModel::paper_default()),
            trace.clone(),
        );
        let events = trace.take();
        let decisions = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Decision(_)))
            .count() as u64;
        assert_eq!(decisions, out.epochs);
        let sims: Vec<&adcomp_trace::SimEvent> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Sim(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(sims.first().map(|s| s.kind), Some("transfer_start"));
        assert_eq!(sims.last().map(|s| s.kind), Some("transfer_done"));
        assert!(sims.iter().filter(|s| s.kind == "bandwidth").count() as u64 <= out.epochs);
        assert!(sims.iter().any(|s| s.kind == "sample"));
        // Virtual-time determinism: a second traced run is event-identical.
        let trace2 = TraceHandle::collecting();
        run_transfer_traced(
            &cfg,
            &speed,
            &mut ConstantClass(Class::High),
            Box::new(RateBasedModel::paper_default()),
            trace2.clone(),
        );
        // Compare via JSON: NaN fields (seed-epoch pdr) serialize to null,
        // while NaN != NaN would fail a direct PartialEq comparison.
        let json = |evs: Vec<TraceEvent>| -> Vec<String> {
            evs.iter().map(|e| e.to_json()).collect()
        };
        assert_eq!(json(events), json(trace2.take()));
    }

    #[test]
    fn deterministic_runs_reproduce_exactly() {
        let a = static_run(Class::Moderate, 2, 200, 2);
        let b = static_run(Class::Moderate, 2, 200, 2);
        assert_eq!(a.completion_secs, b.completion_secs);
        assert_eq!(a.wire_bytes, b.wire_bytes);
    }

    fn pooled_run(class: Class, level: usize, total_mb: u64, workers: usize) -> TransferOutcome {
        let cfg = TransferConfig { pipeline_workers: workers, ..small_cfg(total_mb, 0) };
        let speed = SpeedModel::paper_fit();
        run_transfer(&cfg, &speed, &mut ConstantClass(class), Box::new(StaticModel::new(level, 4)))
    }

    #[test]
    fn one_worker_pool_is_bit_identical_to_serial() {
        let serial = static_run(Class::Moderate, 2, 200, 0);
        let pooled = pooled_run(Class::Moderate, 2, 200, 1);
        assert_eq!(serial.completion_secs, pooled.completion_secs);
        assert_eq!(serial.wire_bytes, pooled.wire_bytes);
        assert_eq!(serial.epochs, pooled.epochs);
    }

    #[test]
    fn worker_pool_accelerates_cpu_bound_transfer() {
        // HEAVY on HIGH data is CPU-bound (~27 MB/s on one lane); four
        // lanes must cut completion time well past the 1.5× acceptance bar.
        let serial = pooled_run(Class::High, 3, 200, 1);
        let pooled = pooled_run(Class::High, 3, 200, 4);
        let speedup = serial.completion_secs / pooled.completion_secs;
        assert!(speedup >= 1.5, "4-worker speedup only {speedup:.2}×");
        // The reorder gate keeps the wire stream identical.
        assert_eq!(serial.wire_bytes, pooled.wire_bytes);
        assert_eq!(serial.blocks_per_level, pooled.blocks_per_level);
    }

    #[test]
    fn two_flows_on_two_lanes_account_for_every_byte() {
        const BLOCK: u64 = BLOCK_LEN as u64;
        let speed = SpeedModel::paper_fit();
        for case in 0..6u64 {
            let cfg = TransferConfig {
                background_flows: (case % 3) as usize,
                seed: case * 31 + 5,
                pipeline_workers: 2,
                ..TransferConfig::paper_default()
            };
            let totals = [40_000_777 + case * 23_456_789, 150_000_001 - case * 17_654_321];
            let classes = [Class::ALL[(case % 3) as usize], Class::ALL[(case / 2 % 3) as usize]];
            let levels = [(case % 4) as usize, (3 - case % 4) as usize];
            let mut schedules = classes.map(ConstantClass);
            let flows = schedules
                .iter_mut()
                .zip(totals.into_iter().zip(levels))
                .map(|(schedule, (total_bytes, l))| FlowSpec {
                    schedule,
                    model: Box::new(StaticModel::new(l, 4)),
                    total_bytes,
                })
                .collect();
            let out = run_flows(&cfg, &speed, flows, Sink::link(&cfg), TraceHandle::disabled());
            assert_eq!(out.len(), 2);
            for (i, (f, _)) in out.iter().enumerate() {
                let ratio = speed.profile(classes[i], levels[i]).ratio;
                let blocks = totals[i].div_ceil(BLOCK);
                let tail = totals[i] - (blocks - 1) * BLOCK;
                let frame = |len: u64| (len as f64 * ratio) as u64 + HEADER_LEN as u64;
                assert_eq!(f.app_bytes, totals[i], "case {case} flow {i}");
                assert_eq!(f.blocks_per_level[levels[i]], blocks, "case {case} flow {i}");
                assert_eq!(f.blocks_per_level.iter().sum::<u64>(), blocks, "case {case} flow {i}");
                assert_eq!(f.wire_bytes, (blocks - 1) * frame(BLOCK) + frame(tail));
                assert!(f.completion_secs.is_finite() && f.completion_secs > 0.0);
            }
        }
    }

    #[test]
    fn worker_pool_does_not_change_wire_bound_transfer() {
        // Uncompressed transfers are wire-bound: extra CPU lanes must not
        // buy more than a few percent.
        let serial = pooled_run(Class::High, 0, 500, 1);
        let pooled = pooled_run(Class::High, 0, 500, 4);
        let speedup = serial.completion_secs / pooled.completion_secs;
        assert!(speedup < 1.1, "wire-bound speedup {speedup:.2}× should be ~1");
        assert_eq!(serial.wire_bytes, pooled.wire_bytes);
    }
}
