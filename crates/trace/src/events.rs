//! Typed trace events — the event taxonomy of the observability layer.
//!
//! Every event is `Copy` (fixed-size, `&'static str` names, no heap) so
//! that building one never allocates and a collecting handle stores
//! events by value. All events carry:
//!
//! * `epoch` — the controller epoch the event belongs to (epoch-tagged
//!   contract; `u64::MAX` means "outside any epoch");
//! * `t` — seconds. Virtual time in the simulators, wall-clock seconds
//!   since stream start elsewhere. Never a raw system timestamp, so traces
//!   of deterministic runs are bit-identical.
//!
//! Serialization is hand-rolled JSON (see [`crate::json`]); the first key
//! of every line is `"ev"`, which is what the schema lint keys on.

use crate::json::ObjWriter;

/// Maximum number of compression levels an event can snapshot. The paper
/// uses 4 (NO/LIGHT/MEDIUM/HEAVY); 8 leaves headroom for extended level
/// sets without heap allocation.
pub const MAX_LEVELS: usize = 8;

/// Epoch tag for events that occur outside any controller epoch.
pub const NO_EPOCH: u64 = u64::MAX;

/// One Algorithm-1 decision: what the controller observed and which branch
/// it took. Emitted once per epoch by rate-based models.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "trace events do nothing unless observed"]
pub struct DecisionEvent {
    /// Epoch index (0-based) that just closed.
    pub epoch: u64,
    /// Time at the epoch boundary (seconds).
    pub t: f64,
    /// Current data rate observed this epoch (bytes/s).
    pub cdr: f64,
    /// Previous data rate the controller compared against (NaN on the
    /// seeding epoch — serialized as `null`).
    pub pdr: f64,
    /// Current compression level *after* the decision (ccl).
    pub ccl: u32,
    /// Level before the decision.
    pub prev_level: u32,
    /// Algorithm-1 branch taken: `"seed"`, `"stable"`, `"probe"`,
    /// `"improved"`, `"degraded"` — or `"static"` for fixed-level models.
    pub case: &'static str,
    /// Per-level backoff exponent table snapshot (first `num_levels`
    /// entries are meaningful).
    pub backoffs: [u32; MAX_LEVELS],
    /// Number of levels the model drives.
    pub num_levels: u32,
}

/// One epoch boundary: the rate meter's aggregate for the epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "trace events do nothing unless observed"]
pub struct EpochEvent {
    pub epoch: u64,
    /// Time at the epoch boundary (seconds).
    pub t: f64,
    /// Epoch duration (seconds).
    pub duration: f64,
    /// Application bytes accounted to the epoch.
    pub bytes: u64,
    /// Application data rate over the epoch (bytes/s).
    pub rate: f64,
    /// Level in force during the epoch.
    pub level: u32,
}

/// One block-frame encode on the wire path.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "trace events do nothing unless observed"]
pub struct CodecEvent {
    pub epoch: u64,
    pub t: f64,
    /// Codec level name (`"NO"`, `"LIGHT"`, `"MEDIUM"`, `"HEAVY"`).
    pub level: &'static str,
    /// Input (application) bytes.
    pub in_bytes: u64,
    /// Output bytes on the wire, including frame header.
    pub out_bytes: u64,
    /// Time spent compressing, nanoseconds (0 in virtual-time contexts).
    pub compress_ns: u64,
    /// Whether the frame fell back to a raw block (incompressible input).
    pub raw_fallback: bool,
}

/// One simulator event: link arbitration, flow lifecycle, bandwidth
/// fluctuation. Emitted in virtual time only.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "trace events do nothing unless observed"]
pub struct SimEvent {
    pub epoch: u64,
    /// Virtual time (seconds).
    pub t: f64,
    /// `"transfer_start"`, `"transfer_done"`, `"bandwidth"`, `"sample"`.
    pub kind: &'static str,
    /// Flow index when several flows share a run, or `u32::MAX`.
    pub flow: u32,
    /// Kind-dependent primary payload (bytes/s for bandwidth events,
    /// seconds for lifecycle events, …).
    pub value: f64,
    /// Kind-dependent secondary payload (e.g. contended share).
    pub aux: f64,
}

impl SimEvent {
    /// Flow value for events that are not scoped to a flow.
    pub const NO_FLOW: u32 = u32::MAX;
}

/// One fault incident on the transport path.
///
/// Emitted by the adaptive writer when a codec failure degrades a block to
/// RAW. (The fault injectors of `adcomp-faults` count what they do in
/// their own stats and emit nothing; readers fail fast and count their
/// incidents in the registry's fault-kind family.)
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "trace events do nothing unless observed"]
pub struct FaultEvent {
    pub epoch: u64,
    pub t: f64,
    /// What happened: `"degrade"`.
    pub kind: &'static str,
    /// Bytes involved (degraded, lost — kind-dependent; 0 if n/a).
    pub bytes: u64,
    /// Ordinal detail: level, frame index, … (kind-dependent).
    pub attempt: u64,
}

/// One snapshot of the parallel compression pipeline's internal state.
///
/// Emitted by the worker-pool writer/reader when a block is submitted or
/// drained, so a trace shows how full the bounded queues ran and how much
/// reordering the in-order emitter had to absorb. The pool never emits
/// these on the worker threads themselves — only the caller thread does —
/// so event order in a trace is the submission/drain order.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "trace events do nothing unless observed"]
pub struct PipelineEvent {
    pub epoch: u64,
    pub t: f64,
    /// What happened: `"submit"` (block handed to the pool), `"drain"`
    /// (frame re-emitted in order), `"stall"` (caller blocked on the
    /// bounded queue — the backpressure path).
    pub kind: &'static str,
    /// Block sequence number the event refers to.
    pub seq: u64,
    /// Blocks submitted but not yet re-emitted (in-flight).
    pub in_flight: u32,
    /// Completed frames parked in the reorder buffer, waiting for an
    /// earlier sequence number.
    pub reorder_depth: u32,
    /// Worker count of the pool.
    pub workers: u32,
}

/// The sum type a [`crate::TraceHandle`] observes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "trace events do nothing unless observed"]
pub enum TraceEvent {
    Decision(DecisionEvent),
    Epoch(EpochEvent),
    Codec(CodecEvent),
    Sim(SimEvent),
    Fault(FaultEvent),
    Pipeline(PipelineEvent),
}

impl TraceEvent {
    /// The schema name written as the `"ev"` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Decision(_) => "decision",
            TraceEvent::Epoch(_) => "epoch",
            TraceEvent::Codec(_) => "codec",
            TraceEvent::Sim(_) => "sim",
            TraceEvent::Fault(_) => "fault",
            TraceEvent::Pipeline(_) => "pipeline",
        }
    }

    /// The epoch tag.
    pub fn epoch(&self) -> u64 {
        match self {
            TraceEvent::Decision(e) => e.epoch,
            TraceEvent::Epoch(e) => e.epoch,
            TraceEvent::Codec(e) => e.epoch,
            TraceEvent::Sim(e) => e.epoch,
            TraceEvent::Fault(e) => e.epoch,
            TraceEvent::Pipeline(e) => e.epoch,
        }
    }

    /// Serializes the event as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        o.str_field("ev", self.kind());
        match self {
            TraceEvent::Decision(e) => {
                o.u64_field("epoch", e.epoch);
                o.f64_field("t", e.t);
                o.f64_field("cdr", e.cdr);
                o.f64_field("pdr", e.pdr); // NaN -> null on the seed epoch
                o.u64_field("ccl", e.ccl as u64);
                o.u64_field("prev_level", e.prev_level as u64);
                o.str_field("case", e.case);
                let n = (e.num_levels as usize).min(MAX_LEVELS);
                o.u32_array_field("backoffs", &e.backoffs[..n]);
            }
            TraceEvent::Epoch(e) => {
                o.u64_field("epoch", e.epoch);
                o.f64_field("t", e.t);
                o.f64_field("duration", e.duration);
                o.u64_field("bytes", e.bytes);
                o.f64_field("rate", e.rate);
                o.u64_field("level", e.level as u64);
            }
            TraceEvent::Codec(e) => {
                o.u64_field("epoch", e.epoch);
                o.f64_field("t", e.t);
                o.str_field("level", e.level);
                o.u64_field("in_bytes", e.in_bytes);
                o.u64_field("out_bytes", e.out_bytes);
                o.u64_field("compress_ns", e.compress_ns);
                o.bool_field("raw_fallback", e.raw_fallback);
            }
            TraceEvent::Sim(e) => {
                o.u64_field("epoch", e.epoch);
                o.f64_field("t", e.t);
                o.str_field("kind", e.kind);
                if e.flow != SimEvent::NO_FLOW {
                    o.u64_field("flow", e.flow as u64);
                }
                o.f64_field("value", e.value);
                o.f64_field("aux", e.aux);
            }
            TraceEvent::Fault(e) => {
                o.u64_field("epoch", e.epoch);
                o.f64_field("t", e.t);
                o.str_field("kind", e.kind);
                o.u64_field("bytes", e.bytes);
                o.u64_field("attempt", e.attempt);
            }
            TraceEvent::Pipeline(e) => {
                o.u64_field("epoch", e.epoch);
                o.f64_field("t", e.t);
                o.str_field("kind", e.kind);
                o.u64_field("seq", e.seq);
                o.u64_field("in_flight", e.in_flight as u64);
                o.u64_field("reorder_depth", e.reorder_depth as u64);
                o.u64_field("workers", e.workers as u64);
            }
        }
        o.finish()
    }
}

impl From<DecisionEvent> for TraceEvent {
    fn from(e: DecisionEvent) -> Self {
        TraceEvent::Decision(e)
    }
}
impl From<EpochEvent> for TraceEvent {
    fn from(e: EpochEvent) -> Self {
        TraceEvent::Epoch(e)
    }
}
impl From<CodecEvent> for TraceEvent {
    fn from(e: CodecEvent) -> Self {
        TraceEvent::Codec(e)
    }
}
impl From<SimEvent> for TraceEvent {
    fn from(e: SimEvent) -> Self {
        TraceEvent::Sim(e)
    }
}
impl From<FaultEvent> for TraceEvent {
    fn from(e: FaultEvent) -> Self {
        TraceEvent::Fault(e)
    }
}
impl From<PipelineEvent> for TraceEvent {
    fn from(e: PipelineEvent) -> Self {
        TraceEvent::Pipeline(e)
    }
}

/// Per-kind event counts — the manifest's summary of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    pub decision: u64,
    pub epoch: u64,
    pub codec: u64,
    pub sim: u64,
    pub fault: u64,
    pub pipeline: u64,
}

impl EventCounts {
    pub fn add(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::Decision(_) => self.decision += 1,
            TraceEvent::Epoch(_) => self.epoch += 1,
            TraceEvent::Codec(_) => self.codec += 1,
            TraceEvent::Sim(_) => self.sim += 1,
            TraceEvent::Fault(_) => self.fault += 1,
            TraceEvent::Pipeline(_) => self.pipeline += 1,
        }
    }

    pub fn from_events<'a>(evs: impl IntoIterator<Item = &'a TraceEvent>) -> Self {
        let mut c = EventCounts::default();
        for ev in evs {
            c.add(ev);
        }
        c
    }

    pub fn total(&self) -> u64 {
        self.decision + self.epoch + self.codec + self.sim + self.fault + self.pipeline
    }

    /// Serializes as a JSON object fragment.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        o.u64_field("decision", self.decision);
        o.u64_field("epoch", self.epoch);
        o.u64_field("codec", self.codec);
        o.u64_field("sim", self.sim);
        o.u64_field("fault", self.fault);
        o.u64_field("pipeline", self.pipeline);
        o.u64_field("total", self.total());
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_line;

    fn sample_decision() -> TraceEvent {
        TraceEvent::Decision(DecisionEvent {
            epoch: 3,
            t: 6.0,
            cdr: 1.5e7,
            pdr: f64::NAN,
            ccl: 2,
            prev_level: 1,
            case: "seed",
            backoffs: [0; MAX_LEVELS],
            num_levels: 4,
        })
    }

    #[test]
    fn decision_json_shape() {
        let j = sample_decision().to_json();
        assert!(j.starts_with("{\"ev\":\"decision\""), "{j}");
        assert!(j.contains("\"pdr\":null"), "seed pdr must be null: {j}");
        assert!(j.contains("\"backoffs\":[0,0,0,0]"), "{j}");
        validate_line(&j).unwrap();
    }

    #[test]
    fn all_kinds_validate() {
        let evs: [TraceEvent; 5] = [
            sample_decision(),
            EpochEvent { epoch: 0, t: 2.0, duration: 2.0, bytes: 1024, rate: 512.0, level: 1 }
                .into(),
            CodecEvent {
                epoch: 0,
                t: 0.5,
                level: "LIGHT",
                in_bytes: 131072,
                out_bytes: 60000,
                compress_ns: 1234,
                raw_fallback: false,
            }
            .into(),
            SimEvent {
                epoch: 1,
                t: 3.0,
                kind: "link_arbitration",
                flow: SimEvent::NO_FLOW,
                value: 1.17e8,
                aux: 0.65,
            }
            .into(),
            PipelineEvent {
                epoch: 2,
                t: 4.5,
                kind: "drain",
                seq: 17,
                in_flight: 3,
                reorder_depth: 1,
                workers: 4,
            }
            .into(),
        ];
        let mut counts = EventCounts::default();
        for ev in &evs {
            counts.add(ev);
            let j = ev.to_json();
            let keys = validate_line(&j).unwrap();
            assert_eq!(keys[0], "ev");
        }
        assert_eq!(counts.total(), 5);
        assert_eq!(counts, EventCounts::from_events(&evs));
        validate_line(&counts.to_json()).unwrap();
    }

    #[test]
    fn sim_event_omits_flow_when_unscoped() {
        let ev: TraceEvent = SimEvent {
            epoch: 0,
            t: 0.0,
            kind: "bandwidth",
            flow: SimEvent::NO_FLOW,
            value: 1.0,
            aux: 0.0,
        }
        .into();
        assert!(!ev.to_json().contains("\"flow\""));
        let ev: TraceEvent =
            SimEvent { epoch: 0, t: 0.0, kind: "flow_join", flow: 2, value: 1.0, aux: 0.0 }
                .into();
        assert!(ev.to_json().contains("\"flow\":2"));
    }
}
