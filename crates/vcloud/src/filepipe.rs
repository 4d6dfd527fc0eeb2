//! Adaptive compression for **file I/O** — the paper's declared future
//! work, implemented.
//!
//! The paper integrated its scheme into Nephele's file channels but had to
//! exclude file I/O from the evaluation: on XEN, the *host's* write-back
//! page cache absorbs writes at memory speed, so the application data rate
//! observed by the guest has nothing to do with the disk. A rate-based
//! controller is then actively misled — no compression maximizes the
//! *apparent* rate, while the *durable* rate (what the disk actually
//! sustains) would favour compression by the compression ratio.
//!
//! This is one flow of the transfer engine ([`crate::pipeline`]) into a
//! XEN guest's virtual disk, with the fix the paper hints at: **sync-aware
//! rate measurement**. A sync-aware flow issues an `fsync` at every
//! decision epoch and charges its duration to the epoch, so the controller
//! observes the durable data rate instead of the cache mirage. Completion
//! time is always measured to durability (final sync included), which is
//! the metric that matters for a dataflow engine's file channels.

use crate::disk::VirtualDisk;
use crate::pipeline::{run_flows, ConstantClass, FlowSpec, Sink, TransferConfig};
use crate::platform::Platform;
use crate::speed::SpeedModel;
use adcomp_core::model::DecisionModel;
use adcomp_corpus::Class;

/// Result of a simulated file transfer.
#[derive(Debug, Clone)]
pub struct FileOutcome {
    /// Seconds until all data was *durable* (final sync included).
    pub durable_secs: f64,
    /// Seconds until the last write was merely *accepted* (what a naive
    /// benchmark would report).
    pub apparent_secs: f64,
    pub app_bytes: u64,
    pub blocks_per_level: Vec<u64>,
}

impl FileOutcome {
    /// Durable goodput, bytes/second.
    pub fn durable_rate(&self) -> f64 {
        self.app_bytes as f64 / self.durable_secs
    }
}

/// Runs one adaptive (or static) compressed write of `total_bytes` of
/// `class` data on a XEN guest, whose host absorbs writes in its
/// write-back cache, at the paper's 2 s epoch; `sync_aware` adds the
/// per-epoch `fsync`.
pub fn run_file_transfer(
    total_bytes: u64,
    speed: &SpeedModel,
    class: Class,
    model: Box<dyn DecisionModel>,
    sync_aware: bool,
) -> FileOutcome {
    let cfg = TransferConfig {
        platform: Platform::XenPara,
        total_bytes,
        cpu_jitter: 0.0,
        ..TransferConfig::paper_default()
    };
    let flow = FlowSpec { schedule: &mut ConstantClass(class), model, total_bytes };
    let sink = Sink::Disk { disk: VirtualDisk::xen_paper_default(), sync_aware };
    let (out, apparent_secs) =
        run_flows(&cfg, speed, vec![flow], sink, adcomp_trace::TraceHandle::disabled())
            .pop()
            .expect("one flow");
    FileOutcome {
        durable_secs: out.completion_secs,
        apparent_secs,
        app_bytes: out.app_bytes,
        blocks_per_level: out.blocks_per_level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_core::model::{RateBasedModel, StaticModel};

    fn run(sync_aware: bool, class: Class, model: Box<dyn DecisionModel>) -> FileOutcome {
        run_file_transfer(5_000_000_000, &SpeedModel::paper_fit(), class, model, sync_aware)
    }

    #[test]
    fn xen_cache_inflates_apparent_over_durable() {
        let out = run(false, Class::High, Box::new(StaticModel::new(0, 4)));
        assert!(
            out.durable_secs > out.apparent_secs * 1.1,
            "durable {} vs apparent {}",
            out.durable_secs,
            out.apparent_secs
        );
    }

    #[test]
    fn cache_mirage_misleads_naive_adaptive_controller() {
        let naive = run(false, Class::High, Box::new(RateBasedModel::paper_default()));
        // Under the cache mirage the apparent rate is maximized by *not*
        // compressing, so the naive controller keeps most blocks at NO.
        let total: u64 = naive.blocks_per_level.iter().sum();
        assert!(
            naive.blocks_per_level[0] > total / 2,
            "naive mix {:?}",
            naive.blocks_per_level
        );
    }

    #[test]
    fn sync_aware_controller_recovers_compression_benefit() {
        let naive = run(false, Class::High, Box::new(RateBasedModel::paper_default()));
        let aware = run(true, Class::High, Box::new(RateBasedModel::paper_default()));
        // The first epoch is an unavoidable cache-speed NO burst (~1.2 GB
        // before the first decision fires), so the achievable gain on 5 GB
        // is bounded; it grows with volume.
        assert!(
            aware.durable_secs < naive.durable_secs * 0.75,
            "sync-aware {} vs naive {}",
            aware.durable_secs,
            naive.durable_secs
        );
        // And it should carry most bytes compressed.
        let total: u64 = aware.blocks_per_level.iter().sum();
        assert!(
            aware.blocks_per_level[1] + aware.blocks_per_level[2] + aware.blocks_per_level[3]
                > total / 2,
            "aware mix {:?}",
            aware.blocks_per_level
        );
    }

    #[test]
    fn incompressible_data_keeps_no_compression_either_way() {
        let aware = run(true, Class::Low, Box::new(RateBasedModel::paper_default()));
        let no = run(true, Class::Low, Box::new(StaticModel::new(0, 4)));
        // On LOW data, sync-aware DYNAMIC must stay close to plain NO.
        assert!(
            aware.durable_secs < no.durable_secs * 1.3,
            "DYNAMIC {} vs NO {}",
            aware.durable_secs,
            no.durable_secs
        );
    }
}
