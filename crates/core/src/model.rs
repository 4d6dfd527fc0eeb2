//! Decision models: the paper's rate-based scheme plus reimplementations of
//! the related-work schemes it argues against.
//!
//! Every epoch, each model reads the epoch's application data rate and one
//! [`EpochContext`], and returns one [`Decision`]: the compression level for
//! the next epoch. Only the rate-based model restricts itself to the rate;
//! the baselines consume queue state or (possibly distorted) guest metrics,
//! which is exactly what makes them fragile in virtualized environments
//! (paper §II).

use crate::controller::DecisionCase;
pub use crate::controller::RateBasedModel;
use crate::epoch::EpochContext;
use adcomp_trace::MAX_LEVELS;

/// Guest-visible system metrics, as a VM's `/proc` would display them.
/// In a cloud these can be wildly inaccurate — that is the paper's point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuestMetrics {
    /// Displayed idle CPU fraction in `[0, 1]`.
    pub cpu_idle_frac: f64,
    /// Displayed available network bandwidth estimate, bytes/second.
    pub net_bandwidth: f64,
}

/// One epoch decision: the level plus Algorithm 1's detail about *why*.
/// Each detail field is `None` for models without that state.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "dropping a Decision loses the level the model chose"]
pub struct Decision {
    /// Level to apply for the next epoch.
    pub level: usize,
    /// Algorithm-1 branch that fired.
    pub case: Option<DecisionCase>,
    /// The previous rate the decision compared against (`None` also on
    /// Algorithm 1's seeding call, where the paper sets `pdr := cdr`).
    pub pdr: Option<f64>,
    /// Snapshot of the per-level backoff exponent table (first
    /// `num_levels` entries are meaningful).
    pub backoffs: Option<[u32; MAX_LEVELS]>,
}

/// A decision with no Algorithm-1 detail.
fn level_only(level: usize) -> Decision {
    Decision { level, case: None, pdr: None, backoffs: None }
}

/// A compression-level decision policy, evaluated once per epoch.
pub trait DecisionModel: Send {
    /// Number of levels this model chooses between.
    fn num_levels(&self) -> usize;

    /// Level to apply before the first epoch completes (default: 0, i.e.
    /// start uncompressed like the paper's controller).
    fn initial_level(&self) -> usize {
        0
    }

    /// Decides the level for the next epoch from the epoch's application
    /// data rate (`cdr`, bytes/second) and the context the caller keeps.
    fn decide(&mut self, rate: f64, ctx: &EpochContext) -> Decision;
}

/// Entropy delta (bits/byte) that counts as a compressibility change.
const ENTROPY_SHIFT: f64 = 1.0;

/// Entropy-guided extension of the paper's model.
///
/// The paper observes a weakness of the pure rate-based scheme: "without
/// compression the application data rate is not affected by the
/// compressibility of the data", so backoff accumulated at level 0 during
/// an incompressible phase delays the switch back to compression when the
/// data becomes compressible again (Fig. 6 discussion).
///
/// This variant runs the identical [`RateBasedModel`] but additionally
/// watches a *cheap, direct* signal — the order-0 entropy of a small data
/// sample per epoch. When the entropy moves by more than one bit/byte, the
/// accumulated backoff is forgotten so optimistic probing resumes
/// immediately. The decision itself is still purely rate-based; the
/// entropy only re-arms the probe timer, so the scheme keeps the paper's
/// "no training phase, no system metrics" properties (the sample comes from
/// the application's own data).
pub struct EntropyGuidedModel {
    rate: RateBasedModel,
    last_entropy: Option<f64>,
}

impl EntropyGuidedModel {
    pub fn paper_default() -> Self {
        EntropyGuidedModel { rate: RateBasedModel::paper_default(), last_entropy: None }
    }
}

impl DecisionModel for EntropyGuidedModel {
    fn num_levels(&self) -> usize {
        self.rate.num_levels()
    }

    fn decide(&mut self, rate: f64, ctx: &EpochContext) -> Decision {
        if let Some(h) = ctx.data_entropy {
            if self.last_entropy.is_some_and(|prev| (h - prev).abs() > ENTROPY_SHIFT) {
                self.rate.forget_backoffs();
            }
            self.last_entropy = Some(h);
        }
        self.rate.decide(rate, ctx)
    }
}

/// A fixed level (Table II rows `NO`, `LIGHT`, `MEDIUM`, `HEAVY`).
pub struct StaticModel {
    level: usize,
    num_levels: usize,
}

impl StaticModel {
    pub fn new(level: usize, num_levels: usize) -> Self {
        assert!(level < num_levels);
        StaticModel { level, num_levels }
    }
}

impl DecisionModel for StaticModel {
    fn num_levels(&self) -> usize {
        self.num_levels
    }

    fn initial_level(&self) -> usize {
        self.level
    }

    fn decide(&mut self, _rate: f64, _ctx: &EpochContext) -> Decision {
        level_only(self.level)
    }
}

/// Blocks the queue must move by to trigger a change.
const QUEUE_HYSTERESIS: usize = 1;

/// FIFO-queue-driven model after Jeannot, Knutsson & Björkman (HPDC 2002):
/// the sender is split into a compression thread and a sending thread with a
/// queue in between; a *growing* queue means the network is the bottleneck
/// (→ compress harder), a *shrinking* queue means compression is the
/// bottleneck (→ compress less).
///
/// The paper notes its weakness: it assumes a higher level always yields a
/// better ratio, which fails on incompressible data.
pub struct QueueBasedModel {
    num_levels: usize,
    level: usize,
    prev_depth: Option<usize>,
}

impl QueueBasedModel {
    pub fn new(num_levels: usize) -> Self {
        QueueBasedModel { num_levels, level: 0, prev_depth: None }
    }
}

impl DecisionModel for QueueBasedModel {
    fn num_levels(&self) -> usize {
        self.num_levels
    }

    fn decide(&mut self, _rate: f64, ctx: &EpochContext) -> Decision {
        let depth = ctx.queue_depth;
        if let Some(prev) = self.prev_depth {
            if depth > prev + QUEUE_HYSTERESIS || depth == ctx.queue_capacity.max(1) {
                // Queue filling: network-bound, raise compression.
                self.level = (self.level + 1).min(self.num_levels - 1);
            } else if depth + QUEUE_HYSTERESIS < prev || depth == 0 {
                // Queue draining: compression-bound, lower compression.
                self.level = self.level.saturating_sub(1);
            }
        }
        self.prev_depth = Some(depth);
        level_only(self.level)
    }
}

/// Characteristics of one level learned in an offline training phase —
/// the input the metric-based scheme depends on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainedLevel {
    /// Compression throughput measured on the *unloaded* training system,
    /// bytes/second of input.
    pub compress_bps: f64,
    /// Wire/app ratio measured during training.
    pub ratio: f64,
}

/// Metric-based model after Krintz & Sucu (TPDS 2006): combines displayed
/// CPU availability and displayed network bandwidth with offline-trained
/// per-level compression speed and ratio, then picks the level with the
/// highest *predicted* throughput.
///
/// Prediction per level: `min(trained_speed × displayed_idle_cpu,
/// displayed_bandwidth / ratio)`. With accurate metrics this is near
/// optimal; with the distorted metrics of §II it mis-decides — which is why
/// the paper's model refuses to use them.
pub struct MetricBasedModel {
    trained: Vec<TrainedLevel>,
    level: usize,
}

impl MetricBasedModel {
    /// `trained` must contain one entry per level (level 0 = raw).
    pub fn new(trained: Vec<TrainedLevel>) -> Self {
        assert!(!trained.is_empty());
        MetricBasedModel { trained, level: 0 }
    }

    /// Predicted application throughput for one level under the displayed
    /// metrics.
    fn predict(&self, level: usize, guest: &GuestMetrics) -> f64 {
        let t = &self.trained[level];
        let cpu_limited = t.compress_bps * guest.cpu_idle_frac.clamp(0.0, 1.0);
        let net_limited = guest.net_bandwidth / t.ratio.max(1e-9);
        cpu_limited.min(net_limited)
    }
}

impl DecisionModel for MetricBasedModel {
    fn num_levels(&self) -> usize {
        self.trained.len()
    }

    fn decide(&mut self, _rate: f64, ctx: &EpochContext) -> Decision {
        // No metrics displayed at all: keep the current level.
        if let Some(guest) = ctx.guest {
            let mut best = 0usize;
            let mut best_rate = f64::NEG_INFINITY;
            for l in 0..self.trained.len() {
                let r = self.predict(l, &guest);
                if r > best_rate {
                    best_rate = r;
                    best = l;
                }
            }
            self.level = best;
        }
        level_only(self.level)
    }
}

/// Sensor-threshold model after Motgi & Mukherjee's NCTCSys (ITCC 2001):
/// the level is looked up from displayed *sensor* values — network
/// bandwidth and server load — against fixed thresholds. Scarcer displayed
/// bandwidth selects heavier compression; high displayed load vetoes
/// compression entirely.
///
/// Like the metric-based scheme, it inherits every distortion of the
/// displayed values: a cache-inflated bandwidth reading or an idle-looking
/// CPU flips its decision.
pub struct SensorThresholdModel {
    /// Descending bandwidth thresholds (bytes/second): displayed bandwidth
    /// below `thresholds[i]` selects at least level `i + 1`.
    bw_thresholds: Vec<f64>,
    /// Veto: if the displayed idle CPU fraction drops below this, transmit
    /// uncompressed (the "server load" sensor).
    load_veto_idle: f64,
    num_levels: usize,
    level: usize,
}

impl SensorThresholdModel {
    pub fn new(num_levels: usize, bw_thresholds: Vec<f64>, load_veto_idle: f64) -> Self {
        assert!(bw_thresholds.len() < num_levels);
        assert!(bw_thresholds.windows(2).all(|w| w[0] >= w[1]), "thresholds must descend");
        SensorThresholdModel { bw_thresholds, load_veto_idle, num_levels, level: 0 }
    }

    /// Thresholds tuned for the paper's 1 GbE setting: compress once the
    /// displayed bandwidth falls under 80 MB/s, harder under 40, hardest
    /// under 10.
    pub fn paper_scale() -> Self {
        SensorThresholdModel::new(4, vec![80.0e6, 40.0e6, 10.0e6], 0.15)
    }
}

impl DecisionModel for SensorThresholdModel {
    fn num_levels(&self) -> usize {
        self.num_levels
    }

    fn decide(&mut self, _rate: f64, ctx: &EpochContext) -> Decision {
        if let Some(guest) = ctx.guest {
            if guest.cpu_idle_frac < self.load_veto_idle {
                self.level = 0;
            } else {
                let mut level = 0usize;
                for (i, &t) in self.bw_thresholds.iter().enumerate() {
                    if guest.net_bandwidth < t {
                        level = i + 1;
                    }
                }
                self.level = level.min(self.num_levels - 1);
            }
        }
        level_only(self.level)
    }
}

/// Sampling model after Wiseman, Schwan & Widener (ICDCS 2004): a short
/// sampling phase cycles through every level measuring the achieved rate,
/// then commits to the winner for a fixed (hard-coded) holding period. The
/// paper criticizes the hard-coded parameters and the need for an unloaded
/// sampling phase.
pub struct ThresholdSamplingModel {
    num_levels: usize,
    /// Epochs to hold the winner before resampling.
    hold_epochs: u32,
    state: SamplingState,
    sampled_rates: Vec<f64>,
    level: usize,
    epochs_left: u32,
}

enum SamplingState {
    Sampling(usize),
    Holding,
}

impl ThresholdSamplingModel {
    pub fn new(num_levels: usize, hold_epochs: u32) -> Self {
        ThresholdSamplingModel {
            num_levels,
            hold_epochs,
            state: SamplingState::Sampling(0),
            sampled_rates: vec![0.0; num_levels],
            level: 0,
            epochs_left: 0,
        }
    }
}

impl DecisionModel for ThresholdSamplingModel {
    fn num_levels(&self) -> usize {
        self.num_levels
    }

    fn decide(&mut self, rate: f64, _ctx: &EpochContext) -> Decision {
        match self.state {
            SamplingState::Sampling(i) => {
                self.sampled_rates[i] = rate;
                if i + 1 < self.num_levels {
                    self.state = SamplingState::Sampling(i + 1);
                    self.level = i + 1;
                } else {
                    // Commit to the best sampled level.
                    let best = self
                        .sampled_rates
                        .iter()
                        .enumerate()
                        .max_by(|a, b| a.1.total_cmp(b.1))
                        .map(|(i, _)| i)
                        .unwrap_or(0);
                    self.level = best;
                    self.state = SamplingState::Holding;
                    self.epochs_left = self.hold_epochs;
                }
            }
            SamplingState::Holding => {
                if self.epochs_left == 0 {
                    self.state = SamplingState::Sampling(0);
                    self.level = 0;
                } else {
                    self.epochs_left -= 1;
                }
            }
        }
        level_only(self.level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_CTX: EpochContext =
        EpochContext { queue_depth: 0, queue_capacity: 0, guest: None, data_entropy: None };

    #[test]
    fn static_model_never_moves() {
        let mut m = StaticModel::new(2, 4);
        for r in [10.0, 1000.0, 0.0] {
            assert_eq!(m.decide(r, &NO_CTX).level, 2);
        }
    }

    #[test]
    fn rate_based_delegates_to_controller() {
        let mut m = RateBasedModel::paper_default();
        let l = m.decide(100.0, &NO_CTX).level;
        assert_eq!(l, 1, "first epoch probes up");
    }

    #[test]
    fn queue_model_raises_when_queue_grows() {
        let mut m = QueueBasedModel::new(4);
        let mut o = NO_CTX;
        o.queue_capacity = 16;
        o.queue_depth = 2;
        assert_eq!(m.decide(0.0, &o).level, 0, "first call only records state");
        o.queue_depth = 8;
        assert_eq!(m.decide(0.0, &o).level, 1);
        o.queue_depth = 14;
        assert_eq!(m.decide(0.0, &o).level, 2);
    }

    #[test]
    fn queue_model_lowers_when_queue_drains() {
        let mut m = QueueBasedModel::new(4);
        let mut o = NO_CTX;
        o.queue_capacity = 16;
        o.queue_depth = 10;
        let _ = m.decide(0.0, &o);
        o.queue_depth = 12;
        let _ = m.decide(0.0, &o); // -> 1
        o.queue_depth = 3;
        assert_eq!(m.decide(0.0, &o).level, 0);
        o.queue_depth = 0;
        assert_eq!(m.decide(0.0, &o).level, 0, "saturates at zero");
    }

    #[test]
    fn queue_model_hysteresis_suppresses_jitter() {
        let mut m = QueueBasedModel::new(4);
        let mut o = NO_CTX;
        o.queue_capacity = 16;
        o.queue_depth = 8;
        let _ = m.decide(0.0, &o);
        o.queue_depth = 10; // +2: beyond the one-block hysteresis
        assert_eq!(m.decide(0.0, &o).level, 1);
        o.queue_depth = 11; // +1: within hysteresis
        assert_eq!(m.decide(0.0, &o).level, 1);
        o.queue_depth = 10; // -1: within hysteresis
        assert_eq!(m.decide(0.0, &o).level, 1);
    }

    #[test]
    fn metric_model_picks_best_under_accurate_metrics() {
        // Trained on an unloaded system: level 1 compresses 200 MB/s at
        // ratio 0.5; level 2: 60 MB/s at 0.4; raw "compresses" at 10 GB/s.
        let trained = vec![
            TrainedLevel { compress_bps: 1e10, ratio: 1.0 },
            TrainedLevel { compress_bps: 200e6, ratio: 0.5 },
            TrainedLevel { compress_bps: 60e6, ratio: 0.4 },
        ];
        let mut m = MetricBasedModel::new(trained);
        // Accurate: full CPU idle, 50 MB/s of bandwidth -> level 1 predicted
        // min(200, 100) = 100 beats raw (50) and level 2 (min(60,125)=60).
        let mut o = NO_CTX;
        o.guest = Some(GuestMetrics { cpu_idle_frac: 1.0, net_bandwidth: 50e6 });
        assert_eq!(m.decide(0.0, &o).level, 1);
    }

    #[test]
    fn metric_model_misdecides_under_distorted_metrics() {
        let trained = vec![
            TrainedLevel { compress_bps: 1e10, ratio: 1.0 },
            TrainedLevel { compress_bps: 200e6, ratio: 0.5 },
        ];
        let mut m = MetricBasedModel::new(trained);
        // The VM displays 95 % idle CPU (wrong: the host is saturated) and a
        // cache-inflated 800 MB/s bandwidth. The model predicts compression
        // cannot help (raw "800 MB/s" beats level 1's min(190, 1600) = 190)
        // and stays raw even though the real link is a scarce 30 MB/s where
        // LIGHT would roughly double goodput.
        let mut o = NO_CTX;
        o.guest = Some(GuestMetrics { cpu_idle_frac: 0.95, net_bandwidth: 800e6 });
        assert_eq!(m.decide(0.0, &o).level, 0, "distorted metrics keep it uncompressed");
    }

    #[test]
    fn metric_model_holds_level_without_metrics() {
        let trained = vec![
            TrainedLevel { compress_bps: 1e10, ratio: 1.0 },
            TrainedLevel { compress_bps: 200e6, ratio: 0.5 },
        ];
        let mut m = MetricBasedModel::new(trained);
        let mut o = NO_CTX;
        o.guest = Some(GuestMetrics { cpu_idle_frac: 1.0, net_bandwidth: 10e6 });
        let l = m.decide(0.0, &o).level;
        let o2 = NO_CTX;
        assert_eq!(m.decide(0.0, &o2).level, l);
    }

    #[test]
    fn sampling_model_cycles_then_commits() {
        let mut m = ThresholdSamplingModel::new(3, 5);
        // Sampling phase: level sequence 0 -> 1 -> 2 while recording rates.
        assert_eq!(m.decide(50.0, &NO_CTX).level, 1); // sampled level 0 at 50
        assert_eq!(m.decide(90.0, &NO_CTX).level, 2); // sampled level 1 at 90
        let committed = m.decide(60.0, &NO_CTX).level; // sampled level 2 at 60 -> commit
        assert_eq!(committed, 1, "level 1 had the best sampled rate");
        // Holds for hold_epochs.
        for _ in 0..5 {
            assert_eq!(m.decide(90.0, &NO_CTX).level, 1);
        }
        // Then resamples from level 0.
        assert_eq!(m.decide(90.0, &NO_CTX).level, 0);
    }

    #[test]
    fn entropy_guided_behaves_like_rate_based_on_stable_entropy() {
        let mut a = RateBasedModel::paper_default();
        let mut b = EntropyGuidedModel::paper_default();
        for rate in [100.0, 180.0, 180.0, 150.0, 200.0, 200.0, 90.0] {
            let mut o = NO_CTX;
            o.data_entropy = Some(2.0);
            assert_eq!(a.decide(rate, &NO_CTX).level, b.decide(rate, &o).level);
        }
    }

    #[test]
    fn entropy_shift_rearms_probing() {
        // The paper's asymmetric case: during an incompressible (LOW)
        // phase the controller sits at level 0 and accumulates backoff
        // there; when the data turns compressible, the rate *at level 0*
        // does not change ("without compression the application data rate
        // is not affected by the compressibility of the data"), so only an
        // optimistic probe can discover the better level. The guided model
        // re-arms that probe from the entropy shift.
        let run = |guided: bool| -> usize {
            let mut plain = RateBasedModel::paper_default();
            let mut ent = EntropyGuidedModel::paper_default();
            let mut level = 0usize;
            // Phase 1 (LOW data): level 0 is best; backoff builds at 0.
            let low_rates = [90.0, 60.0, 40.0, 5.0];
            for _ in 0..150 {
                let rate = low_rates[level];
                let mut o = NO_CTX;
                o.data_entropy = Some(7.9);
                level = if guided { ent.decide(rate, &o).level } else { plain.decide(rate, &o).level };
            }
            assert_eq!(level, 0, "phase 1 must settle at level 0");
            // Phase 2 (HIGH data): entropy drops; level-0 rate is identical,
            // so the rate alone cannot trigger anything. Count epochs until
            // the first probe away from 0.
            let high_rates = [90.0, 205.0, 145.0, 27.0];
            for epoch in 0..300 {
                let rate = high_rates[level];
                let mut o = NO_CTX;
                o.data_entropy = Some(1.4);
                let new = if guided { ent.decide(rate, &o).level } else { plain.decide(rate, &o).level };
                if new != 0 {
                    return epoch;
                }
                level = new;
            }
            300
        };
        let guided_delay = run(true);
        let plain_delay = run(false);
        assert!(
            guided_delay < plain_delay,
            "guided {guided_delay} should probe sooner than plain {plain_delay}"
        );
        assert!(guided_delay <= 2, "guided should react almost immediately: {guided_delay}");
        assert!(plain_delay >= 8, "plain should be stuck behind backoff: {plain_delay}");
    }

    #[test]
    fn sensor_model_follows_bandwidth_thresholds() {
        let mut m = SensorThresholdModel::paper_scale();
        let mut o = NO_CTX;
        o.guest = Some(GuestMetrics { cpu_idle_frac: 0.9, net_bandwidth: 100e6 });
        assert_eq!(m.decide(0.0, &o).level, 0, "plentiful bandwidth: no compression");
        o.guest = Some(GuestMetrics { cpu_idle_frac: 0.9, net_bandwidth: 60e6 });
        assert_eq!(m.decide(0.0, &o).level, 1);
        o.guest = Some(GuestMetrics { cpu_idle_frac: 0.9, net_bandwidth: 20e6 });
        assert_eq!(m.decide(0.0, &o).level, 2);
        o.guest = Some(GuestMetrics { cpu_idle_frac: 0.9, net_bandwidth: 5e6 });
        assert_eq!(m.decide(0.0, &o).level, 3);
    }

    #[test]
    fn sensor_model_load_veto_forces_raw() {
        let mut m = SensorThresholdModel::paper_scale();
        let mut o = NO_CTX;
        o.guest = Some(GuestMetrics { cpu_idle_frac: 0.05, net_bandwidth: 5e6 });
        assert_eq!(m.decide(0.0, &o).level, 0, "high displayed load vetoes compression");
    }

    #[test]
    fn sensor_model_fooled_by_inflated_bandwidth_display() {
        // A cache-inflated or nominal-NIC bandwidth display keeps NCTCSys
        // uncompressed even when the real share is scarce — the paper's
        // criticism of sensor-driven schemes in VMs.
        let mut m = SensorThresholdModel::paper_scale();
        let mut o = NO_CTX;
        o.guest = Some(GuestMetrics { cpu_idle_frac: 0.95, net_bandwidth: 100e6 });
        assert_eq!(m.decide(0.0, &o).level, 0);
    }

    #[test]
    #[should_panic(expected = "thresholds must descend")]
    fn sensor_model_rejects_unordered_thresholds() {
        SensorThresholdModel::new(4, vec![10e6, 40e6], 0.1);
    }

    #[test]
    fn decide_detailed_surfaces_algorithm_state() {
        let mut m = RateBasedModel::paper_default();
        let d = m.decide(100.0, &NO_CTX);
        assert_eq!(d.level, 1);
        assert_eq!(d.case, Some(DecisionCase::Seed));
        assert_eq!(d.pdr, None);
        let bck = d.backoffs.expect("rate model snapshots backoffs");
        assert_eq!(&bck[..4], &[0, 0, 0, 0]);
        let d2 = m.decide(220.0, &NO_CTX);
        assert_eq!(d2.case, Some(DecisionCase::Improved));
        assert_eq!(d2.pdr, Some(100.0));
        assert_eq!(d2.backoffs.unwrap()[1], 1, "reward went to level 1");
    }

    #[test]
    fn decide_detailed_default_is_bare_for_simple_models() {
        let mut s = StaticModel::new(2, 4);
        let d = s.decide(50.0, &NO_CTX);
        assert_eq!(d.level, 2);
        assert_eq!(d.case, None);
        assert_eq!(d.pdr, None);
        assert_eq!(d.backoffs, None);
    }
}
