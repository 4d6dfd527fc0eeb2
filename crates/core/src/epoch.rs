//! Epoch driving: glue between a clock, the application byte stream and a
//! [`crate::model::DecisionModel`].
//!
//! The paper reconsiders the compression level every `t` seconds (t = 2 s in
//! all experiments). [`EpochDriver`] owns that loop: it meters application
//! bytes, detects epoch boundaries from any clock, builds the observation
//! and records the model's decision together with a level trace for the
//! time-series figures.

use crate::controller::DecisionCase;
use crate::model::{DecisionModel, EpochObservation, GuestMetrics};
use adcomp_metrics::{RateMeter, TimeSeries};
use adcomp_trace::{DecisionEvent, EpochEvent, TraceHandle, MAX_LEVELS};
use std::time::Instant;

/// A monotonically nondecreasing time source in seconds.
pub trait Clock: Send {
    fn now(&self) -> f64;
}

/// Wall-clock time since creation.
pub struct WallClock {
    start: Instant,
}

impl WallClock {
    pub fn new() -> Self {
        WallClock { start: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// A manually advanced clock for tests and simulation.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    now: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl ManualClock {
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Sets the current time (seconds). Time must not go backwards.
    pub fn set(&self, secs: f64) {
        self.now
            .store(secs.to_bits(), std::sync::atomic::Ordering::Release);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> f64 {
        f64::from_bits(self.now.load(std::sync::atomic::Ordering::Acquire))
    }
}

/// Auxiliary inputs for building the epoch observation; the caller (stream
/// or simulator) refreshes these as its state changes.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochContext {
    pub queue_depth: usize,
    pub queue_capacity: usize,
    pub guest: Option<GuestMetrics>,
    pub observed_ratio: Option<f64>,
    pub data_entropy: Option<f64>,
}

/// Everything one completed epoch surfaced: the observation, the decision
/// and — for rate-based models — the full Algorithm-1 detail that used to
/// be computed and dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "an EpochStep carries the DecisionCase callers asked to surface"]
pub struct EpochStep {
    /// 0-based index of the epoch that just closed.
    pub epoch: u64,
    /// Time at the boundary (seconds).
    pub t: f64,
    /// Application data rate over the epoch (bytes/s).
    pub rate: f64,
    /// Epoch duration (seconds).
    pub duration: f64,
    /// Level in force during the epoch.
    pub prev_level: usize,
    /// Level chosen for the next epoch.
    pub level: usize,
    /// Algorithm-1 branch, when the model is rate-based.
    pub case: Option<DecisionCase>,
    /// The rate the decision consumed.
    pub cdr: f64,
    /// The previous rate it compared against, if any.
    pub pdr: Option<f64>,
    /// Backoff exponent table snapshot, if the model keeps one.
    pub backoffs: Option<[u32; MAX_LEVELS]>,
    /// Application bytes accounted to the epoch.
    pub bytes: u64,
    /// Number of levels the model drives.
    pub num_levels: usize,
}

impl EpochStep {
    /// The step as a trace [`EpochEvent`].
    pub fn epoch_event(&self) -> EpochEvent {
        EpochEvent {
            epoch: self.epoch,
            t: self.t,
            duration: self.duration,
            bytes: self.bytes,
            rate: self.rate,
            level: self.prev_level as u32,
        }
    }

    /// The step as a trace [`DecisionEvent`] (`case` is `"static"` for
    /// models without Algorithm-1 state).
    pub fn decision_event(&self) -> DecisionEvent {
        DecisionEvent {
            epoch: self.epoch,
            t: self.t,
            cdr: self.cdr,
            pdr: self.pdr.unwrap_or(f64::NAN),
            ccl: self.level as u32,
            prev_level: self.prev_level as u32,
            case: self.case.map_or("static", DecisionCase::name),
            backoffs: self.backoffs.unwrap_or([0; MAX_LEVELS]),
            num_levels: self.num_levels.min(MAX_LEVELS) as u32,
        }
    }
}

/// Drives a [`DecisionModel`] from a stream of byte completions.
pub struct EpochDriver {
    meter: RateMeter,
    model: Box<dyn DecisionModel>,
    level: usize,
    level_trace: TimeSeries,
    rate_trace: TimeSeries,
    epochs: u64,
    trace: TraceHandle,
}

impl EpochDriver {
    /// `epoch_len` is the paper's `t` in seconds; the model starts at its
    /// initial level (0 for fresh models).
    pub fn new(model: Box<dyn DecisionModel>, epoch_len: f64, now: f64) -> Self {
        let level = model.initial_level();
        let mut level_trace = TimeSeries::new();
        level_trace.push(now, level as f64);
        EpochDriver {
            meter: RateMeter::new(epoch_len, now),
            model,
            level,
            level_trace,
            rate_trace: TimeSeries::new(),
            epochs: 0,
            trace: TraceHandle::disabled(),
        }
    }

    /// Attaches a trace handle. Every completed epoch is observed as an
    /// [`EpochEvent`] followed by a [`DecisionEvent`], collected or not;
    /// those two calls also feed the registry's epoch families.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The currently attached trace handle (disabled by default).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Currently applied compression level.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Number of completed epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// `(time, level)` history.
    pub fn level_trace(&self) -> &TimeSeries {
        &self.level_trace
    }

    /// `(time, application bytes/s)` history, one point per epoch.
    pub fn rate_trace(&self) -> &TimeSeries {
        &self.rate_trace
    }

    /// Records `app_bytes` of application data accepted at time `now`;
    /// on an epoch boundary, consults the model. Returns the level to use
    /// for subsequent data.
    pub fn record(&mut self, app_bytes: u64, now: f64, ctx: &EpochContext) -> usize {
        let _ = self.record_step(app_bytes, now, ctx);
        self.level
    }

    /// Like [`EpochDriver::record`], but surfaces the full [`EpochStep`]
    /// when an epoch boundary was crossed instead of dropping it.
    pub fn record_step(
        &mut self,
        app_bytes: u64,
        now: f64,
        ctx: &EpochContext,
    ) -> Option<EpochStep> {
        let epoch = self.meter.record(app_bytes, now)?;
        Some(self.on_epoch(&epoch, now, ctx))
    }

    /// Forces the applied level outside the epoch cadence — the degrade
    /// path: after a codec failure the writer drops to level 0 (NONE)
    /// immediately and lets the next epoch decision climb back. The change
    /// is recorded in the level trace like any other switch.
    pub fn force_level(&mut self, level: usize, now: f64) {
        assert!(level < self.model.num_levels(), "forced level out of range");
        if level != self.level {
            self.level = level;
            self.level_trace.push(now, level as f64);
        }
    }

    /// Forces an epoch check without new bytes (e.g. while stalled).
    pub fn poll(&mut self, now: f64, ctx: &EpochContext) -> usize {
        let _ = self.poll_step(now, ctx);
        self.level
    }

    /// Like [`EpochDriver::poll`], but surfaces the full [`EpochStep`].
    pub fn poll_step(&mut self, now: f64, ctx: &EpochContext) -> Option<EpochStep> {
        let epoch = self.meter.poll(now)?;
        Some(self.on_epoch(&epoch, now, ctx))
    }

    fn on_epoch(&mut self, epoch: &adcomp_metrics::EpochRate, now: f64, ctx: &EpochContext) -> EpochStep {
        let obs = EpochObservation {
            app_rate: epoch.rate,
            epoch_secs: epoch.duration,
            queue_depth: ctx.queue_depth,
            queue_capacity: ctx.queue_capacity,
            guest: ctx.guest,
            observed_ratio: ctx.observed_ratio,
            data_entropy: ctx.data_entropy,
        };
        let metrics = adcomp_metrics::registry::global();
        // Wall-timing the decision is skipped in virtual-mode registries
        // (sim cells feed this same code path; see registry docs).
        let decide_start = metrics
            .is_some_and(adcomp_metrics::MetricsRegistry::wall_spans)
            .then(std::time::Instant::now);
        let decision = self.model.decide(&obs);
        if let (Some(m), Some(s)) = (metrics, decide_start) {
            m.span_ns(adcomp_metrics::SpanKind::EpochDecision, s.elapsed().as_nanos() as u64);
        }
        debug_assert!(decision.level < self.model.num_levels());
        let step = EpochStep {
            epoch: self.epochs,
            t: now,
            rate: epoch.rate,
            duration: epoch.duration,
            prev_level: self.level,
            level: decision.level,
            case: decision.case,
            cdr: decision.cdr,
            pdr: decision.pdr,
            backoffs: decision.backoffs,
            bytes: epoch.bytes,
            num_levels: self.model.num_levels(),
        };
        self.epochs += 1;
        self.rate_trace.push(now, epoch.rate);
        if decision.level != self.level {
            self.level = decision.level;
            self.level_trace.push(now, decision.level as f64);
        }
        self.trace.observe(step.epoch_event().into());
        self.trace.observe(step.decision_event().into());
        step
    }

    /// Total application bytes metered.
    pub fn total_bytes(&self) -> u64 {
        self.meter.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{RateBasedModel, StaticModel};

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_set_and_advance() {
        let c = ManualClock::new();
        assert_eq!(c.now(), 0.0);
        c.set(5.0);
        assert_eq!(c.now(), 5.0);
        c.set(7.5);
        assert_eq!(c.now(), 7.5);
    }

    #[test]
    fn driver_consults_model_only_on_epoch_boundaries() {
        let mut d = EpochDriver::new(Box::new(RateBasedModel::paper_default()), 2.0, 0.0);
        assert_eq!(d.record(1000, 0.5, &EpochContext::default()), 0);
        assert_eq!(d.record(1000, 1.5, &EpochContext::default()), 0);
        // Crosses t = 2 s: first decision probes to level 1.
        assert_eq!(d.record(1000, 2.1, &EpochContext::default()), 1);
        assert_eq!(d.epochs(), 1);
    }

    #[test]
    fn driver_traces_levels_and_rates() {
        let mut d = EpochDriver::new(Box::new(RateBasedModel::paper_default()), 1.0, 0.0);
        d.record(1_000, 1.0, &EpochContext::default());
        d.record(5_000, 2.0, &EpochContext::default());
        d.record(5_000, 3.0, &EpochContext::default());
        assert_eq!(d.rate_trace().len(), 3);
        assert!(d.level_trace().len() >= 2, "initial point plus the first probe");
        assert_eq!(d.total_bytes(), 11_000);
    }

    #[test]
    fn static_model_driver_never_changes_level() {
        let mut d = EpochDriver::new(Box::new(StaticModel::new(0, 4)), 1.0, 0.0);
        for i in 1..10 {
            assert_eq!(d.record(100, i as f64, &EpochContext::default()), 0);
        }
        assert_eq!(d.level_trace().len(), 1);
    }

    #[test]
    fn record_step_surfaces_algorithm_state() {
        let mut d = EpochDriver::new(Box::new(RateBasedModel::paper_default()), 2.0, 0.0);
        assert!(d.record_step(1000, 0.5, &EpochContext::default()).is_none());
        let step = d
            .record_step(1000, 2.1, &EpochContext::default())
            .expect("epoch boundary crossed");
        assert_eq!(step.epoch, 0);
        assert_eq!(step.prev_level, 0);
        assert_eq!(step.level, 1, "first decision probes to level 1");
        assert_eq!(step.case, Some(DecisionCase::Seed));
        assert!(step.pdr.is_none(), "seeding epoch has no previous rate");
        assert!(step.backoffs.is_some());
        assert_eq!(step.bytes, 2000);
        assert_eq!(step.num_levels, 4);
        let ev = step.decision_event();
        assert_eq!(ev.case, "seed");
        assert!(ev.pdr.is_nan());
        assert_eq!(ev.ccl, 1);
    }

    #[test]
    fn static_model_step_reports_static_case() {
        let mut d = EpochDriver::new(Box::new(StaticModel::new(2, 4)), 1.0, 0.0);
        let step = d.poll_step(1.5, &EpochContext::default()).unwrap();
        assert_eq!(step.case, None);
        assert_eq!(step.decision_event().case, "static");
        assert_eq!(step.level, 2);
    }

    #[test]
    fn traced_driver_emits_epoch_then_decision_events() {
        use adcomp_trace::TraceEvent;

        let trace = TraceHandle::collecting();
        let mut d = EpochDriver::new(Box::new(RateBasedModel::paper_default()), 1.0, 0.0);
        d.set_trace(trace.clone());
        d.record(1000, 1.5, &EpochContext::default());
        d.record(1000, 2.5, &EpochContext::default());
        let events = trace.take();
        assert_eq!(events.len(), 4, "one epoch + one decision event per epoch");
        assert!(matches!(events[0], TraceEvent::Epoch(_)));
        assert!(matches!(events[1], TraceEvent::Decision(_)));
        if let TraceEvent::Decision(ev) = &events[1] {
            assert_eq!(ev.epoch, 0);
            assert_eq!(ev.case, "seed");
        }
        if let TraceEvent::Decision(ev) = &events[3] {
            assert_eq!(ev.epoch, 1);
            assert_ne!(ev.case, "seed");
        }
    }

    #[test]
    fn poll_advances_epochs_without_bytes() {
        let mut d = EpochDriver::new(Box::new(RateBasedModel::paper_default()), 1.0, 0.0);
        d.poll(1.5, &EpochContext::default());
        assert_eq!(d.epochs(), 1);
        assert_eq!(d.rate_trace().points()[0].1, 0.0);
    }
}
