//! Several *foreground* senders — each with its own decision model —
//! share one link.
//!
//! The paper's Table II keeps the co-located traffic dumb (greedy TCP
//! blasts) and adapts only one flow. The obvious next question, which the
//! paper leaves open, is what happens when *every* co-located VM deploys
//! adaptive compression: do the controllers fight, and does the aggregate
//! goodput still improve? Each flow here is one flow of the transfer
//! engine ([`crate::pipeline`]):
//!
//! * it runs the three-stage pipeline — sender CPU (compression + TCP
//!   cost), shared wire, receiver CPU — with bounded queues and
//!   backpressure, and the other senders count as co-located VMs in its
//!   CPU pressure;
//! * flows that transmit at the same moment split the link's (fluctuating)
//!   share equally, i.e. ideal TCP fairness, re-split at every block;
//! * every flow's controller sees only its own application data rate, at
//!   its own epoch boundaries — exactly the deployment model of the paper.

use crate::pipeline::{run_flows, FlowSpec, Sink, TransferConfig, TransferOutcome};
use crate::speed::SpeedModel;
use adcomp_trace::TraceHandle;

/// Aggregate result.
#[derive(Debug, Clone)]
pub struct MultiFlowOutcome {
    /// Per flow, in the order given; `completion_secs` is when its
    /// receiver finished its last block.
    pub flows: Vec<TransferOutcome>,
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
        let rates: Vec<f64> = self.flows.iter().map(TransferOutcome::mean_app_rate).collect();
        let sum: f64 = rates.iter().sum();
        let sq_sum: f64 = rates.iter().map(|r| r * r).sum();
        if sq_sum == 0.0 {
            return 1.0;
        }
        sum * sum / (rates.len() as f64 * sq_sum)
    }
}

/// Runs `flows` to completion over the paper's §IV link (KVM-para, 2 s
/// epochs, no CPU jitter); each flow moves its own `total_bytes`. `seed`
/// seeds the link's bandwidth fluctuation. An enabled `trace` receives,
/// per flow, a `transfer_start` and a `transfer_done` event and each
/// epoch's `bandwidth` (the flow's share of the link at its last block)
/// and `sample` events, with `flow` the flow's index; a single flow's
/// trace is [`run_transfer_traced`](crate::run_transfer_traced)'s. All
/// timestamps are virtual time.
pub fn run_multiflow_traced(
    seed: u64,
    speed: &SpeedModel,
    flows: Vec<FlowSpec<'_>>,
    trace: TraceHandle,
) -> MultiFlowOutcome {
    let cfg = TransferConfig { seed, cpu_jitter: 0.0, ..TransferConfig::paper_default() };
    let flows: Vec<TransferOutcome> = run_flows(&cfg, speed, flows, Sink::link(&cfg), trace)
        .into_iter()
        .map(|(f, _)| f)
        .collect();
    let makespan_secs = flows.iter().map(|f| f.completion_secs).fold(0.0, f64::max);
    MultiFlowOutcome { flows, makespan_secs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ConstantClass;
    use adcomp_core::model::{DecisionModel, RateBasedModel, StaticModel};
    use adcomp_corpus::Class;

    /// One flow: its class, its static level (`None` = DYNAMIC) and its
    /// volume in GB.
    type Spec = (Class, Option<usize>, u64);

    fn traced(seed: u64, specs: &[Spec], trace: TraceHandle) -> MultiFlowOutcome {
        let mut schedules: Vec<ConstantClass> =
            specs.iter().map(|&(class, ..)| ConstantClass(class)).collect();
        let flows = schedules
            .iter_mut()
            .zip(specs)
            .map(|(schedule, &(_, level, gb))| FlowSpec {
                schedule,
                model: match level {
                    Some(l) => Box::new(StaticModel::new(l, 4)) as Box<dyn DecisionModel>,
                    None => Box::new(RateBasedModel::paper_default()),
                },
                total_bytes: gb * 1_000_000_000,
            })
            .collect();
        run_multiflow_traced(seed, &SpeedModel::paper_fit(), flows, trace)
    }

    fn untraced(seed: u64, specs: &[Spec]) -> MultiFlowOutcome {
        traced(seed, specs, TraceHandle::disabled())
    }

    /// Share of `f`'s blocks sent at `level`.
    fn level_share(f: &TransferOutcome, level: usize) -> f64 {
        f.blocks_per_level[level] as f64 / f.blocks_per_level.iter().sum::<u64>() as f64
    }

    #[test]
    fn single_flow_matches_wire_bound_rate() {
        let out = untraced(1, &[(Class::High, Some(0), 1)]);
        let rate = out.flows[0].mean_app_rate() / 1e6;
        // Solo uncompressed ≈ the platform's ~100 MB/s wire rate.
        assert!((88.0..105.0).contains(&rate), "rate {rate}");
        assert_eq!(out.flows[0].app_bytes, 1_000_000_000);
    }

    #[test]
    fn two_equal_flows_share_fairly() {
        let out = untraced(1, &[(Class::Low, Some(0), 1), (Class::Low, Some(0), 1)]);
        assert!(out.jain_fairness() > 0.99, "fairness {}", out.jain_fairness());
        let r0 = out.flows[0].mean_app_rate();
        let r1 = out.flows[1].mean_app_rate();
        assert!((r0 / r1 - 1.0).abs() < 0.02);
        // Each gets roughly half the wire.
        assert!((40.0..60.0).contains(&(r0 / 1e6)), "rate {}", r0 / 1e6);
    }

    #[test]
    fn compressing_flow_frees_wire_for_the_other() {
        // Both uncompressed baseline.
        let base = untraced(1, &[(Class::High, Some(0), 1), (Class::Low, Some(0), 1)]);
        // Flow a compresses (LIGHT): its wire demand drops ~10×, so flow b
        // should finish markedly faster too.
        let adaptive = untraced(1, &[(Class::High, Some(1), 1), (Class::Low, Some(0), 1)]);
        let b_base = base.flows[1].completion_secs;
        let b_light = adaptive.flows[1].completion_secs;
        assert!(
            b_light < b_base * 0.75,
            "b should benefit from a's compression: {b_light} vs {b_base}"
        );
    }

    #[test]
    fn all_adaptive_beats_all_uncompressed_in_aggregate() {
        let classes = [Class::High, Class::Moderate, Class::High];
        let none = untraced(1, &classes.map(|c| (c, Some(0), 1)));
        let all = untraced(1, &classes.map(|c| (c, None, 1)));
        assert!(
            all.aggregate_goodput() > none.aggregate_goodput() * 1.5,
            "all-adaptive {} vs all-NO {}",
            all.aggregate_goodput() / 1e6,
            none.aggregate_goodput() / 1e6
        );
    }

    #[test]
    fn adaptive_controllers_do_not_starve_each_other() {
        let out = untraced(1, &[(Class::High, None, 1); 3]);
        assert!(out.jain_fairness() > 0.9, "fairness {}", out.jain_fairness());
        // Every adaptive flow should carry most bytes at LIGHT.
        for (i, f) in out.flows.iter().enumerate() {
            assert!(level_share(f, 1) > 0.5, "flow {i} blocks per level {:?}", f.blocks_per_level);
        }
    }

    #[test]
    fn mismatched_volumes_finish_in_order() {
        let out = untraced(1, &[(Class::Low, Some(0), 1), (Class::Low, Some(0), 3)]);
        assert!(out.flows[0].completion_secs < out.flows[1].completion_secs);
        assert!((out.makespan_secs - out.flows[1].completion_secs).abs() < 1.0);
    }

    #[test]
    fn traced_multiflow_emits_lifecycle_and_arbitration_events() {
        use adcomp_trace::{SimEvent, TraceEvent};

        let trace = TraceHandle::collecting();
        let out = traced(1, &[(Class::High, Some(1), 1), (Class::Low, Some(0), 1)], trace.clone());
        let sims: Vec<SimEvent> = trace
            .take()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Sim(s) => Some(s),
                _ => None,
            })
            .collect();
        let of =
            |kind: &str| -> Vec<&SimEvent> { sims.iter().filter(|s| s.kind == kind).collect() };
        // One start and one done per flow, each naming its flow.
        for kind in ["transfer_start", "transfer_done"] {
            let flows: Vec<u32> = of(kind).iter().map(|s| s.flow).collect();
            assert_eq!(flows, [0, 1], "{kind}");
        }
        // Arbitration: while both flows send, the share a flow gets is
        // half the link's; once the first is done, the other has it all.
        let shares: Vec<f64> = of("bandwidth").iter().map(|s| s.value).collect();
        let full = shares.iter().cloned().fold(0.0, f64::max);
        assert!(shares.iter().any(|&s| (s - full / 2.0).abs() < 1.0), "shares {shares:?}");
        // The trace is consistent with the outcome: last done = makespan.
        let last_done = of("transfer_done").iter().map(|s| s.t).fold(0.0f64, f64::max);
        assert_eq!(last_done, out.makespan_secs);
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || untraced(7, &[(Class::Moderate, None, 1), (Class::High, Some(0), 1)]);
        let a = mk();
        let b = mk();
        assert_eq!(a.flows[0].completion_secs, b.flows[0].completion_secs);
        assert_eq!(a.flows[1].wire_bytes, b.flows[1].wire_bytes);
    }
}
