//! Registry half of the inline-lane contract: a stream written without
//! threads goes through the same `CompressPool` calls as a pipelined one
//! but leaves every *pipeline* series of an installed registry untouched,
//! while the per-block series (codec counters, blocks per level) count as
//! ever. With two workers the same series move, which shows the probe
//! looks at the right ones.
//!
//! The registry is process-wide, so this lives in its own test binary with
//! a single `#[test]`: inside the library's unit-test process any pipelined
//! test running on another thread would move the same counters.

use adcomp_codecs::LevelSet;
use adcomp_core::epoch::ManualClock;
use adcomp_core::{AdaptiveWriter, StaticModel};
use adcomp_metrics::registry::{self, CounterKind, GaugeKind, RegistryMode, RegistrySnapshot};
use std::io::Write;

fn counter(s: &RegistrySnapshot, kind: CounterKind) -> u64 {
    s.counters.iter().find(|(k, _)| *k == kind).expect("counter kind in snapshot").1
}

fn gauge(s: &RegistrySnapshot, kind: GaugeKind) -> i64 {
    s.gauges.iter().find(|(k, _)| *k == kind).expect("gauge kind in snapshot").1
}

fn write_stream(workers: usize) -> u64 {
    let mut w = AdaptiveWriter::with_params(
        Vec::new(),
        LevelSet::paper_default(),
        Box::new(StaticModel::new(2, 4)),
        4096,
        1.0,
        Box::new(ManualClock::new()),
    );
    w.set_pipeline_workers(workers);
    w.write_all(&b"registry probe payload, repetitive enough. ".repeat(2000)).unwrap();
    let (_, stats) = w.finish().unwrap();
    stats.blocks_per_level.iter().sum()
}

#[test]
fn inline_lane_leaves_pipeline_series_untouched() {
    let reg = registry::install(RegistryMode::Wall);

    let blocks = write_stream(1);
    let s = reg.snapshot();
    assert!(blocks > 10);
    assert_eq!(counter(&s, CounterKind::BlocksCompressed), blocks);
    assert_eq!(s.level_blocks[2], blocks, "every block counts at its level");
    assert_eq!(counter(&s, CounterKind::PipelineSubmits), 0);
    assert_eq!(counter(&s, CounterKind::PipelineStalls), 0);
    assert_eq!(gauge(&s, GaugeKind::CompressInFlight), 0);
    assert_eq!(gauge(&s, GaugeKind::CompressInFlightMax), 0);
    assert_eq!(gauge(&s, GaugeKind::ReorderDepthMax), 0);

    let more = write_stream(2);
    let s = reg.snapshot();
    assert_eq!(counter(&s, CounterKind::BlocksCompressed), blocks + more);
    assert_eq!(s.level_blocks[2], blocks + more);
    assert_eq!(counter(&s, CounterKind::PipelineSubmits), more);
    assert_eq!(gauge(&s, GaugeKind::CompressInFlight), 0, "everything drained");
    assert!(gauge(&s, GaugeKind::CompressInFlightMax) >= 1);
    assert!(gauge(&s, GaugeKind::ReorderDepthMax) >= 1);
}
