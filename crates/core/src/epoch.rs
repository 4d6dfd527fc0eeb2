//! Epoch driving: glue between a clock, the application byte stream and a
//! [`crate::model::DecisionModel`].
//!
//! The paper reconsiders the compression level every `t` seconds (t = 2 s in
//! all experiments); here the first, seed epoch is shorter (see
//! `SEED_EPOCH_DIVISOR`). [`EpochDriver`] owns that loop: it meters
//! application bytes, detects epoch boundaries from any clock, hands the
//! epoch's rate and the caller's [`EpochContext`] to the model, and turns
//! the one [`crate::model::Decision`] it returns into the epoch's trace
//! events and a level trace for the time-series figures.

use crate::controller::DecisionCase;
use crate::model::{DecisionModel, GuestMetrics};
use adcomp_metrics::TimeSeries;
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

/// What a model may read besides the epoch's rate; the caller (stream or
/// simulator) refreshes it as its state changes.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochContext {
    /// Blocks waiting in the send queue at epoch end.
    pub queue_depth: usize,
    /// Send queue capacity in blocks.
    pub queue_capacity: usize,
    /// Displayed guest metrics, if the platform exposes them.
    pub guest: Option<GuestMetrics>,
    /// Order-0 entropy (bits/byte) of a recent data sample, if the channel
    /// probes it. Cheap to compute and — unlike the application data rate at
    /// level 0 — it *does* reveal compressibility changes.
    pub data_entropy: Option<f64>,
}

/// The seed epoch, the first one, lasts `t / SEED_EPOCH_DIVISOR`; every
/// later epoch lasts `t`. Algorithm 1's first call sets `pdr := cdr`, so
/// with fresh backoffs it probes up whatever the seed epoch measured: a
/// full `t` there only delays the first decision that compares two rates,
/// which a short stream pays for at level 0. 16 is the choice of {4, 8,
/// 16, 32} on the start-up table and the `shared_link` legs: 32 gains at
/// most 1.8 % there and halves the window that the first probe's `pdr` is
/// measured over (EXPERIMENTS.md §"Seed epoch").
const SEED_EPOCH_DIVISOR: f64 = 16.0;

/// Drives a [`DecisionModel`] from a stream of byte completions.
pub struct EpochDriver {
    model: Box<dyn DecisionModel>,
    /// The paper's `t`, seconds.
    epoch_len: f64,
    /// Start of the open epoch, seconds.
    epoch_start: f64,
    /// Application bytes recorded in the open epoch.
    epoch_bytes: u64,
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
        assert!(epoch_len > 0.0);
        let level = model.initial_level();
        let mut level_trace = TimeSeries::new();
        level_trace.push(now, level as f64);
        EpochDriver {
            model,
            epoch_len,
            epoch_start: now,
            epoch_bytes: 0,
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

    /// Records `app_bytes` of application data accepted at time `now` and
    /// returns the level to use for subsequent data. Once the epoch length
    /// has elapsed (`t / SEED_EPOCH_DIVISOR` for the seed epoch, `t` after
    /// it), the epoch closes: its rate is its bytes over its actual
    /// duration (which may exceed the length when arrivals straddle the
    /// boundary), the model decides once, and the epoch is observed as one
    /// [`EpochEvent`] and one [`DecisionEvent`].
    pub fn record(&mut self, app_bytes: u64, now: f64, ctx: &EpochContext) -> usize {
        self.epoch_bytes += app_bytes;
        let duration = now - self.epoch_start;
        let len = if self.epochs == 0 {
            self.epoch_len / SEED_EPOCH_DIVISOR
        } else {
            self.epoch_len
        };
        if duration < len {
            return self.level;
        }
        let bytes = std::mem::take(&mut self.epoch_bytes);
        let rate = bytes as f64 / duration;
        self.epoch_start = now;

        let metrics = adcomp_metrics::registry::global();
        // Wall-timing the decision is skipped in virtual-mode registries
        // (sim cells feed this same code path; see registry docs).
        let decide_start = metrics
            .is_some_and(adcomp_metrics::MetricsRegistry::wall_spans)
            .then(std::time::Instant::now);
        let decision = self.model.decide(rate, ctx);
        if let (Some(m), Some(s)) = (metrics, decide_start) {
            m.span_ns(adcomp_metrics::SpanKind::EpochDecision, s.elapsed().as_nanos() as u64);
        }
        let num_levels = self.model.num_levels();
        debug_assert!(decision.level < num_levels);

        let (epoch, prev_level) = (self.epochs, self.level);
        self.epochs += 1;
        self.rate_trace.push(now, rate);
        if decision.level != prev_level {
            self.level = decision.level;
            self.level_trace.push(now, decision.level as f64);
        }
        self.trace.observe(
            EpochEvent { epoch, t: now, duration, bytes, rate, level: prev_level as u32 }.into(),
        );
        self.trace.observe(
            DecisionEvent {
                epoch,
                t: now,
                cdr: rate,
                pdr: decision.pdr.unwrap_or(f64::NAN),
                ccl: decision.level as u32,
                prev_level: prev_level as u32,
                // Models without Algorithm-1 state report "static".
                case: decision.case.map_or("static", DecisionCase::name),
                backoffs: decision.backoffs.unwrap_or([0; MAX_LEVELS]),
                num_levels: num_levels.min(MAX_LEVELS) as u32,
            }
            .into(),
        );
        self.level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{RateBasedModel, StaticModel};
    use adcomp_trace::TraceEvent;

    /// A driver over `model` whose trace collects every event.
    fn traced(model: Box<dyn DecisionModel>, epoch_len: f64) -> (EpochDriver, TraceHandle) {
        let trace = TraceHandle::collecting();
        let mut d = EpochDriver::new(model, epoch_len, 0.0);
        d.set_trace(trace.clone());
        (d, trace)
    }

    fn epoch_events(trace: &TraceHandle) -> Vec<EpochEvent> {
        trace
            .take()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Epoch(ev) => Some(ev),
                _ => None,
            })
            .collect()
    }

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
        assert_eq!(d.record(1000, 0.0625, &EpochContext::default()), 0);
        assert_eq!(d.record(1000, 0.12, &EpochContext::default()), 0);
        // Crosses t/16 = 0.125 s: the seed decision probes to level 1.
        assert_eq!(d.record(1000, 0.125, &EpochContext::default()), 1);
        assert_eq!(d.epochs(), 1);
        // The second epoch closes only after a further t.
        d.record(1000, 2.0, &EpochContext::default());
        assert_eq!(d.epochs(), 1);
        d.record(1000, 2.125, &EpochContext::default());
        assert_eq!(d.epochs(), 2);
    }

    #[test]
    fn no_epoch_before_boundary() {
        let (mut d, trace) = traced(Box::new(RateBasedModel::paper_default()), 2.0);
        d.record(100, 0.0625, &EpochContext::default());
        d.record(100, 0.12, &EpochContext::default());
        assert!(trace.take().is_empty());
        assert_eq!(d.epochs(), 0);
        d.record(100, 0.125, &EpochContext::default());
        assert_eq!(trace.take().len(), 2, "the seed epoch closed");
        d.record(100, 2.12, &EpochContext::default());
        assert!(trace.take().is_empty(), "the second epoch lasts a full t");
        assert_eq!(d.epochs(), 1);
    }

    #[test]
    fn epoch_rate_computed_over_actual_duration() {
        let (mut d, trace) = traced(Box::new(RateBasedModel::paper_default()), 2.0);
        d.record(1000, 0.0625, &EpochContext::default());
        d.record(1000, 0.25, &EpochContext::default());
        let e = epoch_events(&trace);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].bytes, 2000);
        assert!((e[0].duration - 0.25).abs() < 1e-12);
        assert!((e[0].rate - 8000.0).abs() < 1e-9);
        assert_eq!(e[0].t - e[0].duration, 0.0, "the epoch started at 0");
        d.record(1000, 2.0, &EpochContext::default());
        assert!(epoch_events(&trace).is_empty(), "the second epoch lasts a full t");
        d.record(1000, 2.75, &EpochContext::default());
        let e = epoch_events(&trace);
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].bytes, 2000);
        assert!((e[0].duration - 2.5).abs() < 1e-12);
        assert!((e[0].rate - 800.0).abs() < 1e-9);
        assert_eq!(e[0].t - e[0].duration, 0.25, "it started where the seed epoch ended");
    }

    #[test]
    fn epochs_reset_cleanly() {
        let (mut d, trace) = traced(Box::new(RateBasedModel::paper_default()), 1.0);
        d.record(500, 1.0, &EpochContext::default());
        d.record(300, 2.0, &EpochContext::default());
        let e = epoch_events(&trace);
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].bytes, 500);
        assert_eq!(e[1].bytes, 300);
        assert_eq!(e[1].t - e[1].duration, 1.0, "the second epoch starts where the first ended");
    }

    #[test]
    fn driver_traces_levels_and_rates() {
        let mut d = EpochDriver::new(Box::new(RateBasedModel::paper_default()), 1.0, 0.0);
        d.record(1_000, 1.0, &EpochContext::default());
        d.record(5_000, 2.0, &EpochContext::default());
        d.record(5_000, 3.0, &EpochContext::default());
        assert_eq!(d.rate_trace().len(), 3);
        assert!(d.level_trace().len() >= 2, "initial point plus the first probe");
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
    fn epoch_events_surface_algorithm_state() {
        let (mut d, trace) = traced(Box::new(RateBasedModel::paper_default()), 2.0);
        d.record(1000, 0.0625, &EpochContext::default());
        assert!(trace.take().is_empty(), "no epoch closed yet");
        assert_eq!(d.record(1000, 0.25, &EpochContext::default()), 1);
        let events = trace.take();
        let [TraceEvent::Epoch(ep), TraceEvent::Decision(ev)] = &events[..] else {
            panic!("expected one epoch and one decision event: {events:?}");
        };
        assert_eq!((ep.epoch, ep.level, ep.bytes), (0, 0, 2000));
        assert_eq!(ev.epoch, 0);
        assert_eq!(ev.prev_level, 0);
        assert_eq!(ev.ccl, 1, "first decision probes to level 1");
        assert_eq!(ev.case, "seed");
        assert!(ev.pdr.is_nan(), "seeding epoch has no previous rate");
        assert_eq!(ev.cdr, ep.rate);
        assert_eq!(ev.backoffs, [0; MAX_LEVELS]);
        assert_eq!(ev.num_levels, 4);
        d.record(1000, 2.2, &EpochContext::default());
        assert!(trace.take().is_empty(), "the second epoch lasts a full t");
        d.record(1000, 2.25, &EpochContext::default());
        let events = trace.take();
        let [TraceEvent::Epoch(ep), TraceEvent::Decision(ev)] = &events[..] else {
            panic!("expected one epoch and one decision event: {events:?}");
        };
        assert_eq!((ep.epoch, ep.level, ep.bytes), (1, 1, 2000));
        assert_eq!(ev.pdr, 8000.0, "the seed epoch's rate is the probe's yardstick");
    }

    #[test]
    fn static_model_step_reports_static_case() {
        // An epoch closes on time alone: no bytes is a zero-rate epoch.
        let (mut d, trace) = traced(Box::new(StaticModel::new(2, 4)), 1.0);
        assert_eq!(d.record(0, 1.5, &EpochContext::default()), 2);
        let events = trace.take();
        let [TraceEvent::Epoch(ep), TraceEvent::Decision(ev)] = &events[..] else {
            panic!("expected one epoch and one decision event: {events:?}");
        };
        assert_eq!((ep.bytes, ep.rate), (0, 0.0));
        assert_eq!(ev.case, "static");
        assert_eq!(ev.ccl, 2);
    }

    #[test]
    fn traced_driver_emits_epoch_then_decision_events() {
        let (mut d, trace) = traced(Box::new(RateBasedModel::paper_default()), 1.0);
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
}
