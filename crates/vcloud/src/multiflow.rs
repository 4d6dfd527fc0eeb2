//! Multi-flow fluid simulation: several *foreground* senders — each with
//! its own decision model — share one link.
//!
//! The paper's Table II keeps the co-located traffic dumb (greedy TCP
//! blasts) and adapts only one flow. The obvious next question, which the
//! paper leaves open, is what happens when *every* co-located VM deploys
//! adaptive compression: do the controllers fight, and does the aggregate
//! goodput still improve? This module answers it with a fluid
//! (time-quantized processor-sharing) model:
//!
//! * each flow runs the same three-stage pipeline as
//!   [`crate::pipeline`] — sender CPU (compression + TCP cost), shared
//!   wire, receiver CPU — with bounded queues and backpressure;
//! * the link serves all flows with queued wire bytes at an equal share of
//!   the (fluctuating) capacity, i.e. ideal TCP fairness;
//! * every flow's controller sees only its own application data rate, at
//!   its own epoch boundaries — exactly the deployment model of the paper.

use crate::fluctuation::Fluctuation;
use crate::platform::Platform;
use crate::speed::SpeedModel;
use adcomp_core::epoch::{EpochContext, EpochDriver};
use adcomp_core::model::DecisionModel;
use adcomp_corpus::Class;
use adcomp_trace::{SimEvent, TraceHandle};

/// One sender in the shared-link scenario.
pub struct FlowSpec {
    /// Human-readable flow name for reports.
    pub name: String,
    /// Compressibility class of this flow's data.
    pub class: Class,
    /// Decision model driving this flow's compression level.
    pub model: Box<dyn DecisionModel>,
    /// Application bytes this flow wants to move.
    pub total_bytes: u64,
}

/// The paper's §IV platform.
const PLATFORM: Platform = Platform::KvmPara;
/// Decision epoch per flow (paper: 2 s).
const EPOCH_SECS: f64 = 2.0;
/// Sender-side wire queue bound per flow, bytes.
const SEND_QUEUE_BYTES: f64 = 2.0 * 1024.0 * 1024.0;
/// Fluid time quantum, seconds: a four-hundredth of an epoch.
const QUANTUM_SECS: f64 = 0.005;


/// Per-flow result.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    pub name: String,
    /// When this flow's last byte left the wire (virtual seconds).
    pub completion_secs: f64,
    pub app_bytes: u64,
    pub wire_bytes: u64,
    /// Mean application goodput, bytes/second, over this flow's lifetime.
    pub mean_app_rate: f64,
    /// Fraction of app bytes sent at each level.
    pub level_share: Vec<f64>,
    pub epochs: u64,
}

/// Aggregate result.
#[derive(Debug, Clone)]
pub struct MultiFlowOutcome {
    pub flows: Vec<FlowOutcome>,
    /// Time until the last flow finished.
    pub makespan_secs: f64,
}

impl MultiFlowOutcome {
    /// Aggregate application goodput while any flow was active.
    pub fn aggregate_goodput(&self) -> f64 {
        let total: u64 = self.flows.iter().map(|f| f.app_bytes).sum();
        total as f64 / self.makespan_secs
    }

    /// Jain's fairness index over per-flow mean application rates.
    pub fn jain_fairness(&self) -> f64 {
        let rates: Vec<f64> = self.flows.iter().map(|f| f.mean_app_rate).collect();
        let sum: f64 = rates.iter().sum();
        let sq_sum: f64 = rates.iter().map(|r| r * r).sum();
        if sq_sum == 0.0 {
            return 1.0;
        }
        sum * sum / (rates.len() as f64 * sq_sum)
    }
}

struct FlowState {
    name: String,
    class: Class,
    total_bytes: u64,
    driver: EpochDriver,
    /// App bytes handed to the compressor so far.
    produced: u64,
    /// App bytes accumulated since the last epoch record.
    epoch_pending: u64,
    /// Wire bytes queued for the link.
    queue_bytes: f64,
    /// Wire bytes ever enqueued.
    wire_bytes: f64,
    /// Virtual time when the last wire byte drained.
    done_at: Option<f64>,
    /// App bytes accounted per level.
    level_app_bytes: Vec<u64>,
}

/// Runs the scenario to completion. An enabled `trace` receives
/// `flow_join` / `flow_leave` lifecycle events per flow and a periodic
/// `link_arbitration` sample (active-flow count + per-flow share), so the
/// arbitration behaviour is reconstructible from the trace. All timestamps
/// are virtual time. `seed` seeds the link's bandwidth fluctuation.
pub fn run_multiflow_traced(
    seed: u64,
    speed: &SpeedModel,
    flows: Vec<FlowSpec>,
    trace: TraceHandle,
) -> MultiFlowOutcome {
    assert!(!flows.is_empty());
    let mut fluct: Box<dyn Fluctuation> = PLATFORM.net_fluctuation(seed);
    let base_bw = PLATFORM.net_bandwidth_bps();
    let n = flows.len();
    // Co-location CPU pressure: each extra VM's I/O backend costs cycles
    // on every guest (same constant as the single-flow pipeline).
    let cpu_factor = (1.0 - 0.10 * (n - 1) as f64).max(0.5);

    let mut states: Vec<FlowState> = flows
        .into_iter()
        .map(|spec| {
            let levels = spec.model.num_levels();
            assert_eq!(levels, speed.num_levels());
            FlowState {
                name: spec.name,
                class: spec.class,
                total_bytes: spec.total_bytes,
                driver: EpochDriver::new(spec.model, EPOCH_SECS, 0.0),
                produced: 0,
                epoch_pending: 0,
                queue_bytes: 0.0,
                wire_bytes: 0.0,
                done_at: None,
                level_app_bytes: vec![0; levels],
            }
        })
        .collect();

    if trace.enabled() {
        for (i, s) in states.iter().enumerate() {
            trace.observe(
                SimEvent {
                    epoch: 0,
                    t: 0.0,
                    kind: "flow_join",
                    flow: i as u32,
                    value: s.total_bytes as f64,
                    aux: 0.0,
                }
                .into(),
            );
        }
    }

    let dt = QUANTUM_SECS;
    let mut t = 0.0f64;
    let mut next_arb_emit = 0.0f64;
    let hard_stop = 1e7; // virtual-seconds safety net
    loop {
        let all_done = states
            .iter()
            .all(|s| s.produced >= s.total_bytes && s.queue_bytes <= 0.0);
        if all_done || t > hard_stop {
            break;
        }

        // --- Sender CPU stage: produce compressed bytes into the queue.
        for s in states.iter_mut() {
            if s.produced >= s.total_bytes {
                continue;
            }
            let level = s.driver.level();
            let prof = speed.profile(s.class, level);
            // CPU seconds per app byte: compression + TCP cost of the
            // resulting wire bytes, scaled by co-location pressure.
            let per_byte =
                (1.0 / prof.compress_bps + prof.ratio / speed.tcp_proc_bps) / cpu_factor;
            let cpu_capacity_bytes = dt / per_byte;
            let queue_room =
                ((SEND_QUEUE_BYTES - s.queue_bytes) / prof.ratio).max(0.0);
            let remaining = (s.total_bytes - s.produced) as f64;
            let app_bytes = cpu_capacity_bytes.min(queue_room).min(remaining);
            if app_bytes > 0.0 {
                let app_u = app_bytes as u64;
                s.produced += app_u;
                s.epoch_pending += app_u;
                s.level_app_bytes[level] += app_u;
                let wire = app_bytes * prof.ratio;
                s.queue_bytes += wire;
                s.wire_bytes += wire;
            }
        }

        // --- Shared wire: equal share among flows with queued bytes.
        let active: usize = states.iter().filter(|s| s.queue_bytes > 0.0).count();
        if active > 0 {
            let share = base_bw * fluct.factor_at(t) / active as f64;
            if trace.enabled() && t >= next_arb_emit {
                // Sampled once per epoch interval so trace volume tracks
                // epochs, not fluid quanta.
                trace.observe(
                    SimEvent {
                        epoch: (t / EPOCH_SECS) as u64,
                        t,
                        kind: "link_arbitration",
                        flow: SimEvent::NO_FLOW,
                        value: share,
                        aux: active as f64,
                    }
                    .into(),
                );
                next_arb_emit = t + EPOCH_SECS;
            }
            for (i, s) in states.iter_mut().enumerate() {
                if s.queue_bytes > 0.0 {
                    let drained = (share * dt).min(s.queue_bytes);
                    s.queue_bytes -= drained;
                    if s.queue_bytes <= 1e-6 && s.produced >= s.total_bytes {
                        s.queue_bytes = 0.0;
                        let leave_t = *s.done_at.get_or_insert(t + dt);
                        if trace.enabled() {
                            trace.observe(
                                SimEvent {
                                    epoch: (leave_t / EPOCH_SECS) as u64,
                                    t: leave_t,
                                    kind: "flow_leave",
                                    flow: i as u32,
                                    value: s.produced as f64,
                                    aux: s.wire_bytes,
                                }
                                .into(),
                            );
                        }
                    }
                }
            }
        }

        t += dt;

        // --- Epoch boundaries: each flow's controller sees only its own
        // application data rate.
        for s in states.iter_mut() {
            if s.done_at.is_some() {
                continue;
            }
            let pending = std::mem::take(&mut s.epoch_pending);
            s.driver.record(pending, t, &EpochContext::default());
        }
    }

    let makespan = states
        .iter()
        .map(|s| s.done_at.unwrap_or(t))
        .fold(0.0f64, f64::max)
        .max(dt);
    let flows = states
        .into_iter()
        .map(|s| {
            let completion = s.done_at.unwrap_or(t);
            let total: u64 = s.level_app_bytes.iter().sum();
            FlowOutcome {
                name: s.name,
                completion_secs: completion,
                app_bytes: s.produced,
                wire_bytes: s.wire_bytes as u64,
                mean_app_rate: s.produced as f64 / completion.max(1e-9),
                level_share: s
                    .level_app_bytes
                    .iter()
                    .map(|&b| b as f64 / total.max(1) as f64)
                    .collect(),
                epochs: s.driver.epochs(),
            }
        })
        .collect();
    MultiFlowOutcome { flows, makespan_secs: makespan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_core::model::{RateBasedModel, StaticModel};

    fn spec(name: &str, class: Class, level: Option<usize>, gb: u64) -> FlowSpec {
        FlowSpec {
            name: name.to_string(),
            class,
            model: match level {
                Some(l) => Box::new(StaticModel::new(l, 4)),
                None => Box::new(RateBasedModel::paper_default()),
            },
            total_bytes: gb * 1_000_000_000,
        }
    }

    fn untraced(seed: u64, speed: &SpeedModel, flows: Vec<FlowSpec>) -> MultiFlowOutcome {
        run_multiflow_traced(seed, speed, flows, TraceHandle::disabled())
    }

    #[test]
    fn single_flow_matches_wire_bound_rate() {
        let speed = SpeedModel::paper_fit();
        let out = untraced(1, &speed, vec![spec("a", Class::High, Some(0), 1)]);
        let rate = out.flows[0].mean_app_rate / 1e6;
        // Solo uncompressed ≈ the platform's ~100 MB/s wire rate.
        assert!((88.0..105.0).contains(&rate), "rate {rate}");
        assert_eq!(out.flows[0].app_bytes, 1_000_000_000);
    }

    #[test]
    fn two_equal_flows_share_fairly() {
        let speed = SpeedModel::paper_fit();
        let out = untraced(
            1,
            &speed,
            vec![spec("a", Class::Low, Some(0), 1), spec("b", Class::Low, Some(0), 1)],
        );
        assert!(out.jain_fairness() > 0.99, "fairness {}", out.jain_fairness());
        let r0 = out.flows[0].mean_app_rate;
        let r1 = out.flows[1].mean_app_rate;
        assert!((r0 / r1 - 1.0).abs() < 0.02);
        // Each gets roughly half the wire.
        assert!((40.0..60.0).contains(&(r0 / 1e6)), "rate {}", r0 / 1e6);
    }

    #[test]
    fn compressing_flow_frees_wire_for_the_other() {
        let speed = SpeedModel::paper_fit();
        // Both uncompressed baseline.
        let base = untraced(
            1,
            &speed,
            vec![spec("a", Class::High, Some(0), 1), spec("b", Class::Low, Some(0), 1)],
        );
        // Flow a compresses (LIGHT): its wire demand drops ~10×, so flow b
        // should finish markedly faster too.
        let adaptive = untraced(
            1,
            &speed,
            vec![spec("a", Class::High, Some(1), 1), spec("b", Class::Low, Some(0), 1)],
        );
        let b_base = base.flows[1].completion_secs;
        let b_light = adaptive.flows[1].completion_secs;
        assert!(
            b_light < b_base * 0.75,
            "b should benefit from a's compression: {b_light} vs {b_base}"
        );
    }

    #[test]
    fn all_adaptive_beats_all_uncompressed_in_aggregate() {
        let speed = SpeedModel::paper_fit();
        let classes = [Class::High, Class::Moderate, Class::High];
        let none = untraced(
            1,
            &speed,
            classes
                .iter()
                .enumerate()
                .map(|(i, &c)| spec(&format!("f{i}"), c, Some(0), 1))
                .collect(),
        );
        let all = untraced(
            1,
            &speed,
            classes
                .iter()
                .enumerate()
                .map(|(i, &c)| spec(&format!("f{i}"), c, None, 1))
                .collect(),
        );
        assert!(
            all.aggregate_goodput() > none.aggregate_goodput() * 1.5,
            "all-adaptive {} vs all-NO {}",
            all.aggregate_goodput() / 1e6,
            none.aggregate_goodput() / 1e6
        );
    }

    #[test]
    fn adaptive_controllers_do_not_starve_each_other() {
        let speed = SpeedModel::paper_fit();
        let out = untraced(
            1,
            &speed,
            vec![
                spec("a", Class::High, None, 1),
                spec("b", Class::High, None, 1),
                spec("c", Class::High, None, 1),
            ],
        );
        assert!(out.jain_fairness() > 0.9, "fairness {}", out.jain_fairness());
        // Every adaptive flow should carry most bytes at LIGHT.
        for f in &out.flows {
            assert!(
                f.level_share[1] > 0.5,
                "{} level share {:?}",
                f.name,
                f.level_share
            );
        }
    }

    #[test]
    fn mismatched_volumes_finish_in_order() {
        let speed = SpeedModel::paper_fit();
        let out = untraced(
            1,
            &speed,
            vec![spec("small", Class::Low, Some(0), 1), spec("big", Class::Low, Some(0), 3)],
        );
        assert!(out.flows[0].completion_secs < out.flows[1].completion_secs);
        assert!((out.makespan_secs - out.flows[1].completion_secs).abs() < 1.0);
    }

    #[test]
    fn traced_multiflow_emits_lifecycle_and_arbitration_events() {
        use adcomp_trace::TraceEvent;

        let speed = SpeedModel::paper_fit();
        let trace = TraceHandle::collecting();
        let out = run_multiflow_traced(
            1,
            &speed,
            vec![spec("a", Class::High, Some(1), 1), spec("b", Class::Low, Some(0), 1)],
            trace.clone(),
        );
        let events = trace.take();
        let kinds: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Sim(s) => Some(s.kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds.iter().filter(|k| **k == "flow_join").count(), 2);
        assert_eq!(kinds.iter().filter(|k| **k == "flow_leave").count(), 2);
        assert!(kinds.contains(&"link_arbitration"));
        // The trace is consistent with the outcome: last leave ≈ makespan.
        let last_leave = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Sim(s) if s.kind == "flow_leave" => Some(s.t),
                _ => None,
            })
            .fold(0.0f64, f64::max);
        assert!((last_leave - out.makespan_secs).abs() < 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let speed = SpeedModel::paper_fit();
        let mk = || {
            untraced(
                7,
                &speed,
                vec![spec("a", Class::Moderate, None, 1), spec("b", Class::High, Some(0), 1)],
            )
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.flows[0].completion_secs, b.flows[0].completion_secs);
        assert_eq!(a.flows[1].wire_bytes, b.flows[1].wire_bytes);
    }
}
