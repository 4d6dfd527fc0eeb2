//! Sink trait and the standard sinks.
//!
//! The overhead contract:
//!
//! * [`TraceSink::enabled`] is the *gate*. Instrumented code must wrap any
//!   work done purely for tracing (timestamping, event construction) in
//!   `if sink.enabled() { … }`. For the monomorphized [`NullSink`] the
//!   method is a constant `false`, so the whole branch is dead code after
//!   inlining — disabled tracing compiles to nothing, which is what the
//!   zero-alloc and bench guards verify.
//! * [`TraceSink::emit`] takes `&self` and must not block the caller in
//!   the steady state.
//!
//! For dynamic (runtime-chosen) tracing, [`TraceHandle`] wraps an
//! `Option<Arc<dyn TraceSink>>` and itself implements `TraceSink`, so the
//! same generic instrumentation points accept either the static `NullSink`
//! or a runtime handle.

use crate::events::TraceEvent;
use std::sync::{Arc, Mutex};

/// A consumer of trace events.
pub trait TraceSink: Send + Sync {
    /// Whether events are currently being consumed. Instrumentation must
    /// gate all trace-only work on this.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event. Must be cheap and non-blocking.
    fn emit(&self, ev: &TraceEvent);
}

/// The zero-cost disabled sink: `enabled()` is statically `false` and
/// `emit` is empty, so instrumented hot paths compile to the untraced
/// code exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn emit(&self, _ev: &TraceEvent) {}
}

/// Collects every event in memory, in emission order. The per-cell sink
/// of the experiment runner: each cell gets its own `MemorySink`, and the
/// grid serializes them in *cell order* after the parallel phase, which is
/// what makes JSONL traces bit-identical across `ADCOMP_THREADS`.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events collected so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the collected events.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Drains the collected events.
    #[must_use]
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().unwrap())
    }
}

impl TraceSink for MemorySink {
    fn emit(&self, ev: &TraceEvent) {
        self.events.lock().unwrap().push(*ev);
    }
}

/// Cheap, clonable handle to an optional dynamic sink.
///
/// `TraceHandle::disabled()` behaves exactly like [`NullSink`] (one
/// branch on an always-`None` option); `TraceHandle::new(sink)` forwards
/// to the shared sink. This is the plumbing type threaded through
/// `EpochDriver`, the simulators and the record channel, where the sink
/// is chosen at runtime by a `--trace` flag.
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Arc<dyn TraceSink>>);

impl TraceHandle {
    /// A handle that consumes nothing.
    pub fn disabled() -> Self {
        TraceHandle(None)
    }

    /// A handle forwarding to `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        TraceHandle(Some(sink))
    }

    /// The inner sink, if any.
    pub fn sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.0.as_ref()
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("TraceHandle")
            .field(&self.0.as_ref().map(|s| s.enabled()))
            .finish()
    }
}

impl TraceSink for TraceHandle {
    #[inline]
    fn enabled(&self) -> bool {
        match &self.0 {
            Some(s) => s.enabled(),
            None => false,
        }
    }

    #[inline]
    fn emit(&self, ev: &TraceEvent) {
        if let Some(s) = &self.0 {
            s.emit(ev);
        }
    }
}

impl<S: TraceSink + ?Sized> TraceSink for Arc<S> {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn emit(&self, ev: &TraceEvent) {
        (**self).emit(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EpochEvent;

    fn ev(epoch: u64) -> TraceEvent {
        EpochEvent { epoch, t: epoch as f64, duration: 1.0, bytes: 1, rate: 1.0, level: 0 }
            .into()
    }

    #[test]
    fn null_sink_is_disabled() {
        let s = NullSink;
        assert!(!s.enabled());
        s.emit(&ev(0)); // no-op, no panic
    }

    #[test]
    fn memory_sink_preserves_order() {
        let s = MemorySink::new();
        for i in 0..10 {
            s.emit(&ev(i));
        }
        let evs = s.snapshot();
        assert_eq!(evs.len(), 10);
        assert!(evs.iter().enumerate().all(|(i, e)| e.epoch() == i as u64));
        assert_eq!(s.take().len(), 10);
        assert!(s.is_empty());
    }

    #[test]
    fn handle_disabled_and_enabled() {
        let h = TraceHandle::disabled();
        assert!(!h.enabled());
        h.emit(&ev(0));

        let mem = Arc::new(MemorySink::new());
        let h = TraceHandle::new(mem.clone());
        assert!(h.enabled());
        h.emit(&ev(1));
        assert_eq!(mem.len(), 1);
    }
}
