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
//! This module simulates that file-write pipeline and implements the fix
//! the paper hints at: **sync-aware rate measurement**. With
//! [`FileTransferConfig::sync_aware`] enabled, the channel issues an
//! `fsync` at every decision epoch and charges its duration to the epoch,
//! so the controller observes the durable data rate instead of the cache
//! mirage. Completion time is always measured to durability (final sync
//! included), which is the metric that matters for a dataflow engine's
//! file channels.

use crate::disk::VirtualDisk;
use crate::speed::SpeedModel;
use adcomp_core::epoch::{EpochContext, EpochDriver};
use adcomp_core::model::DecisionModel;
use adcomp_corpus::Class;

/// Block size (paper: ≤ 128 KiB).
const BLOCK_LEN: u64 = 128 * 1024;
/// Decision epoch, seconds (paper: 2 s); also the fsync period.
const EPOCH_SECS: f64 = 2.0;

/// File-transfer experiment parameters. The guest is a XEN one: its host's
/// write-back cache is the mirage this module is about.
#[derive(Debug, Clone)]
pub struct FileTransferConfig {
    pub total_bytes: u64,
    /// `fsync` every epoch so the controller sees the durable rate.
    pub sync_aware: bool,
}

/// Result of a simulated file transfer.
#[derive(Debug, Clone)]
pub struct FileOutcome {
    /// Seconds until all data was *durable* (final sync included).
    pub durable_secs: f64,
    /// Seconds until the last write was merely *accepted* (what a naive
    /// benchmark would report).
    pub apparent_secs: f64,
    pub app_bytes: u64,
    pub wire_bytes: u64,
    pub blocks_per_level: Vec<u64>,
    pub epochs: u64,
}

impl FileOutcome {
    /// Durable goodput, bytes/second.
    pub fn durable_rate(&self) -> f64 {
        self.app_bytes as f64 / self.durable_secs
    }
}

/// Runs one adaptive (or static) compressed file write.
pub fn run_file_transfer(
    cfg: &FileTransferConfig,
    speed: &SpeedModel,
    class: Class,
    model: Box<dyn DecisionModel>,
) -> FileOutcome {
    assert_eq!(model.num_levels(), speed.num_levels());
    let mut disk = VirtualDisk::xen_paper_default();
    let mut driver = EpochDriver::new(model, EPOCH_SECS, 0.0);
    let mut t = 0.0f64;
    let mut produced = 0u64;
    let mut wire_total = 0u64;
    let mut blocks_per_level = vec![0u64; speed.num_levels()];
    let mut next_sync_t = EPOCH_SECS;

    while produced < cfg.total_bytes {
        let block = BLOCK_LEN.min(cfg.total_bytes - produced);
        let level = driver.level();
        let prof = speed.profile(class, level);
        let wire = (block as f64 * prof.ratio) as u64 + crate::pipeline_header_len() as u64;
        // Single core: compression, then the (page-cache) write.
        let comp_secs = block as f64 / prof.compress_bps;
        let write_secs = disk.write_secs(wire, t);
        t += comp_secs + write_secs;
        if cfg.sync_aware && t >= next_sync_t {
            // fsync *before* the epoch boundary is recorded: the drain time
            // stretches the closing epoch's window, so its measured rate is
            // the durable rate, not the cache mirage — consistently, every
            // epoch.
            t += disk.sync_secs();
            next_sync_t = t + EPOCH_SECS;
        }
        produced += block;
        wire_total += wire;
        blocks_per_level[level] += 1;
        driver.record(block, t, &EpochContext::default());
    }

    let apparent_secs = t;
    let durable_secs = t + disk.sync_secs();
    FileOutcome {
        durable_secs,
        apparent_secs,
        app_bytes: produced,
        wire_bytes: wire_total,
        blocks_per_level,
        epochs: driver.epochs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_core::model::{RateBasedModel, StaticModel};

    fn cfg(sync_aware: bool) -> FileTransferConfig {
        FileTransferConfig {
            total_bytes: 5_000_000_000,
            sync_aware,
        }
    }

    #[test]
    fn xen_cache_inflates_apparent_over_durable() {
        let speed = SpeedModel::paper_fit();
        let out = run_file_transfer(
            &cfg(false),
            &speed,
            Class::High,
            Box::new(StaticModel::new(0, 4)),
        );
        assert!(
            out.durable_secs > out.apparent_secs * 1.1,
            "durable {} vs apparent {}",
            out.durable_secs,
            out.apparent_secs
        );
    }

    #[test]
    fn cache_mirage_misleads_naive_adaptive_controller() {
        let speed = SpeedModel::paper_fit();
        let naive = run_file_transfer(
            &cfg(false),
            &speed,
            Class::High,
            Box::new(RateBasedModel::paper_default()),
        );
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
        let speed = SpeedModel::paper_fit();
        let naive = run_file_transfer(
            &cfg(false),
            &speed,
            Class::High,
            Box::new(RateBasedModel::paper_default()),
        );
        let aware = run_file_transfer(
            &cfg(true),
            &speed,
            Class::High,
            Box::new(RateBasedModel::paper_default()),
        );
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
        let speed = SpeedModel::paper_fit();
        let aware = run_file_transfer(
            &cfg(true),
            &speed,
            Class::Low,
            Box::new(RateBasedModel::paper_default()),
        );
        let no = run_file_transfer(
            &cfg(true),
            &speed,
            Class::Low,
            Box::new(StaticModel::new(0, 4)),
        );
        // On LOW data, sync-aware DYNAMIC must stay close to plain NO.
        assert!(
            aware.durable_secs < no.durable_secs * 1.3,
            "DYNAMIC {} vs NO {}",
            aware.durable_secs,
            no.durable_secs
        );
    }
}
