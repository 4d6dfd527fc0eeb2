//! The trace handle, and the one place an event reaches the registry.
//!
//! The overhead contract:
//!
//! * [`TraceHandle::enabled`] is the *gate* for trace-only work. Code
//!   that builds an event only for the trace (simulator samples, pipeline
//!   snapshots, the degrade incident) wraps it in `if trace.enabled()`.
//! * [`TraceHandle::observe`] is the one call per occurrence that both
//!   records keep: a written block ([`CodecEvent`]) or a closed epoch
//!   ([`EpochEvent`], [`DecisionEvent`]). It folds the event into the
//!   installed metrics registry, if any, and appends it to the handle's
//!   events, if collecting. With tracing disabled and no registry it costs
//!   one relaxed load and one `None` test, and never allocates.

use crate::events::{CodecEvent, DecisionEvent, EpochEvent, TraceEvent};
use adcomp_metrics::registry::{
    self, CounterKind, GaugeKind, HistKind, LabelFamily, MetricsRegistry, SpanKind,
};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Cheap, clonable trace handle: disabled (the default) or collecting
/// every event in memory, in observation order, shared by its clones.
///
/// Each cell of the experiment runner gets its own collecting handle, and
/// the grid serializes them in *cell order* after the parallel phase,
/// which is what makes JSONL traces bit-identical across `ADCOMP_THREADS`.
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Arc<Mutex<Vec<TraceEvent>>>>);

impl TraceHandle {
    /// A handle that keeps nothing.
    pub fn disabled() -> Self {
        TraceHandle(None)
    }

    /// A handle that collects every observed event until [`TraceHandle::take`].
    pub fn collecting() -> Self {
        TraceHandle(Some(Arc::default()))
    }

    /// Whether events are being collected. Trace-only work is gated on it.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one event: the registry families it stands for, when a
    /// registry is installed, and the event itself, when collecting.
    #[inline]
    pub fn observe(&self, ev: TraceEvent) {
        let metrics = registry::global();
        if metrics.is_some() || self.0.is_some() {
            self.record(metrics, ev);
        }
    }

    #[inline(never)]
    fn record(&self, metrics: Option<&MetricsRegistry>, ev: TraceEvent) {
        if let Some(m) = metrics {
            fold(m, &ev);
        }
        if let Some(events) = &self.0 {
            lock(events).push(ev);
        }
    }

    /// Drains the events collected so far (empty when disabled).
    #[must_use]
    pub fn take(&self) -> Vec<TraceEvent> {
        self.0.as_ref().map_or_else(Vec::new, |events| std::mem::take(&mut *lock(events)))
    }
}

/// Every update is one `push` or one `take`, so the events stay valid
/// even if a panic poisoned the lock.
fn lock(events: &Mutex<Vec<TraceEvent>>) -> MutexGuard<'_, Vec<TraceEvent>> {
    events.lock().unwrap_or_else(PoisonError::into_inner)
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TraceHandle").field(&self.enabled()).finish()
    }
}

/// The event-to-metric mapping. Only written blocks and closed epochs
/// have registry families; the other kinds are trace-only.
fn fold(m: &MetricsRegistry, ev: &TraceEvent) {
    match *ev {
        TraceEvent::Codec(CodecEvent { in_bytes, out_bytes, compress_ns, raw_fallback, .. }) => {
            m.span_ns(SpanKind::Compress, compress_ns);
            m.counter_add(CounterKind::BlocksCompressed, 1);
            m.counter_add(CounterKind::CodecInBytes, in_bytes);
            m.counter_add(CounterKind::CodecOutBytes, out_bytes);
            if raw_fallback {
                m.counter_add(CounterKind::RawFallbacks, 1);
            }
        }
        TraceEvent::Epoch(EpochEvent { rate, .. }) => {
            m.counter_add(CounterKind::Epochs, 1);
            if rate.is_finite() && rate >= 0.0 {
                m.observe(HistKind::AppRate, rate as u64);
            }
        }
        // `ccl` is the level just chosen; `"static"` models have no
        // Algorithm-1 branch to count.
        TraceEvent::Decision(DecisionEvent { ccl, case, .. }) => {
            m.level_epoch(ccl as usize);
            if case != "static" {
                m.label_count(LabelFamily::DecisionCase, case, 1);
            }
            // Last-write-wins: dropped by virtual-mode registries, where
            // parallel sim cells would race on it.
            m.gauge_set(GaugeKind::CurrentLevel, i64::from(ccl));
        }
        TraceEvent::Sim(_) | TraceEvent::Fault(_) | TraceEvent::Pipeline(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(epoch: u64) -> TraceEvent {
        EpochEvent { epoch, t: epoch as f64, duration: 1.0, bytes: 1, rate: 1.0, level: 0 }
            .into()
    }

    #[test]
    fn handle_disabled_and_enabled() {
        let h = TraceHandle::disabled();
        assert!(!h.enabled());
        h.observe(ev(0));
        assert!(h.take().is_empty());

        let h = TraceHandle::collecting();
        assert!(h.enabled());
        h.observe(ev(1));
        assert_eq!(h.take().len(), 1);
    }

    #[test]
    fn memory_sink_preserves_order() {
        let h = TraceHandle::collecting();
        let clone = h.clone();
        for i in 0..10 {
            clone.observe(ev(i));
        }
        let evs = h.take();
        assert_eq!(evs.len(), 10);
        assert!(evs.iter().enumerate().all(|(i, e)| e.epoch() == i as u64));
        assert!(h.take().is_empty(), "take drains what every clone collected");
    }
}
