//! # adcomp-trace — zero-cost-when-disabled structured tracing
//!
//! The paper's core claim is that guest-visible metrics lie under shared
//! I/O, so the adaptive controller must be judged *only* by what it
//! observed (cdr/pdr) and what it decided (Algorithm 1 branches). This
//! crate makes those observations and decisions first-class, durable
//! artifacts:
//!
//! * [`events`] — the typed, `Copy`, epoch-tagged event taxonomy:
//!   [`DecisionEvent`], [`EpochEvent`], [`CodecEvent`], [`SimEvent`],
//!   [`FaultEvent`], [`PipelineEvent`];
//! * [`sink`] — [`TraceHandle`], the one trace type: disabled or
//!   collecting in memory, and the one place an event feeds the metrics
//!   registry;
//! * [`jsonl`] — JSONL serialization ([`JsonlWriter`]) of collected
//!   events;
//! * [`prom`] — Prometheus-text snapshots ([`PromSnapshot`]) and
//!   [`render_registry`], the one renderer, for the live `adcomp_metrics`
//!   registry;
//! * [`promlint`] — hand-rolled exposition parser and the conformance
//!   lint shared by CI, tests and the dashboard;
//! * [`http`] — the minimal `/metrics` HTTP listener ([`MetricsServer`])
//!   and scrape client ([`http_get`]);
//! * [`dash`] — the `adcomp top` ASCII dashboard ([`render_top`]),
//!   rendered purely from exposition text;
//! * [`timeline`] — the ASCII Fig.-5-style level-over-time renderer;
//! * [`manifest`] — per-run/per-cell [`RunManifest`]s so any table cell
//!   can be replayed and inspected;
//! * [`diag`] — the stderr [`progress!`](crate::progress) channel that
//!   keeps experiment stdout machine-parseable;
//! * [`json`] — the hand-rolled (offline, serde-free) JSON layer and the
//!   JSONL schema validator the lint tool uses.
//!
//! ## Overhead contract
//!
//! Instrumentation points hold a [`TraceHandle`]. A written block and a
//! closed epoch make one [`TraceHandle::observe`] call each, which feeds
//! both the trace and the registry, so the two records cannot disagree.
//! Work done only for the trace is gated on [`TraceHandle::enabled`]. A
//! disabled handle with no registry installed costs one relaxed load and
//! one `None` test per event and never allocates: the codecs zero-alloc
//! tests hold with tracing compiled in.

pub mod dash;
pub mod diag;
pub mod events;
pub mod http;
pub mod json;
pub mod jsonl;
pub mod manifest;
pub mod prom;
pub mod promlint;
pub mod sink;
pub mod timeline;

pub use events::{
    CodecEvent, DecisionEvent, EpochEvent, EventCounts, FaultEvent, PipelineEvent, SimEvent,
    TraceEvent, MAX_LEVELS, NO_EPOCH,
};
pub use dash::render_top;
pub use http::{http_get, MetricsServer};
pub use jsonl::JsonlWriter;
pub use manifest::RunManifest;
pub use prom::{render_registry, PromSnapshot};
pub use promlint::{conformance_lint, parse_samples};
pub use sink::TraceHandle;
pub use timeline::render_level_timeline;
