//! Integration: full Nephele jobs across every compression mode, verifying
//! payload integrity and compression effect over the executor's TCP
//! channels.

use adcomp::core::stream::StreamStats;
use adcomp::corpus::Class;
use adcomp::nephele::prelude::*;
use adcomp::nephele::{NepheleError, SinkTask};

/// Wraps a closure as a task.
struct FnTask<F>(F);

impl<F: FnMut(&mut TaskContext) -> Result<(), NepheleError> + Send + 'static> Task for FnTask<F> {
    fn run(&mut self, ctx: &mut TaskContext) -> Result<(), NepheleError> {
        (self.0)(ctx)
    }
}

/// Copies every record of input 0 to output 0.
fn forward(ctx: &mut TaskContext) -> Result<(), NepheleError> {
    while let Some(rec) = ctx.read(0)? {
        ctx.write(0, &rec)?;
    }
    Ok(())
}

fn sample_job(mode: CompressionMode, class: Class, bytes: u64) -> (u64, u64, StreamStats) {
    let mut g = JobGraph::new("it-sample");
    let s = g.add_vertex(
        "sender",
        Box::new(SourceTask { class, total_bytes: bytes, record_len: 4096, seed: 3 }),
    );
    let r = g.add_vertex("receiver", Box::new(SinkTask::new()));
    g.connect(s, r, mode).unwrap();
    let report = Executor::default().run(g).unwrap();
    let sink: &SinkTask = report.task("receiver").unwrap();
    (sink.bytes, sink.checksum, report.edges[0].stats.clone())
}

#[test]
fn all_channel_and_mode_combinations_preserve_payload() {
    let bytes = 2_000_000u64;
    let mut checksums = Vec::new();
    for mode in [
        CompressionMode::Static(0),
        CompressionMode::Static(1),
        CompressionMode::Static(3),
        CompressionMode::Adaptive(Default::default()),
    ] {
        let (got, checksum, _) = sample_job(mode.clone(), Class::Moderate, bytes);
        assert_eq!(got, bytes, "{mode:?}");
        checksums.push(checksum);
    }
    // Same source data => identical checksum through every mode.
    assert!(checksums.windows(2).all(|w| w[0] == w[1]), "checksums diverged: {checksums:?}");
}

#[test]
fn compression_shrinks_wire_traffic_on_compressible_data() {
    let (_, _, off) = sample_job(CompressionMode::Static(0), Class::High, 3_000_000);
    let (_, _, light) = sample_job(CompressionMode::Static(1), Class::High, 3_000_000);
    assert!(off.wire_ratio() > 0.99);
    assert!(
        light.wire_bytes < off.wire_bytes / 4,
        "LIGHT {} vs OFF {}",
        light.wire_bytes,
        off.wire_bytes
    );
}

#[test]
fn incompressible_data_does_not_blow_up_wire_traffic() {
    let (_, _, heavy) = sample_job(CompressionMode::Static(3), Class::Low, 2_000_000);
    assert!(heavy.wire_ratio() < 1.02, "ratio {}", heavy.wire_ratio());
}

#[test]
fn multi_stage_job_with_mixed_channels() {
    // src --LIGHT--> stage --DYNAMIC--> sink: different compression per hop.
    let mut g = JobGraph::new("mixed");
    let src = g.add_vertex(
        "src",
        Box::new(SourceTask {
            class: Class::High,
            total_bytes: 1_000_000,
            record_len: 2048,
            seed: 5,
        }),
    );
    let stage = g.add_vertex("stage", Box::new(FnTask(forward)));
    let sink = g.add_vertex("sink", Box::new(SinkTask::new()));
    g.connect(src, stage, CompressionMode::Static(1)).unwrap();
    g.connect(stage, sink, CompressionMode::Adaptive(Default::default())).unwrap();
    let report = Executor::default().run(g).unwrap();
    assert_eq!(report.task::<SinkTask>("sink").unwrap().bytes, 1_000_000);
    assert_eq!(report.edges.len(), 2);
    assert!(report.edges[0].stats.wire_ratio() < 0.5);
}

#[test]
fn many_parallel_edges_do_not_deadlock() {
    // A source fanning out to 4 sinks.
    let mut g = JobGraph::new("fan4");
    let src = g.add_vertex(
        "src",
        Box::new(FnTask(|ctx: &mut TaskContext| -> Result<(), NepheleError> {
            for i in 0..2000u32 {
                let payload = i.to_le_bytes().repeat(64);
                ctx.write((i % 4) as usize, &payload)?;
            }
            Ok(())
        })),
    );
    for i in 0..4 {
        let sink = g.add_vertex(format!("sink{i}"), Box::new(SinkTask::new()));
        g.connect(src, sink, CompressionMode::Static(1)).unwrap();
    }
    let report = Executor::default().run(g).unwrap();
    let total: u64 =
        (0..4).map(|i| report.task::<SinkTask>(&format!("sink{i}")).unwrap().records).sum();
    assert_eq!(total, 2000);
}

#[test]
fn split_merge_diamond_preserves_every_record() {
    let mut g = JobGraph::new("diamond");
    let src = g.add_vertex(
        "src",
        Box::new(SourceTask {
            class: Class::Moderate,
            total_bytes: 2_000_000,
            record_len: 1024,
            seed: 21,
        }),
    );
    // Round-robin split over two outputs; the merge takes one record per
    // input in turn, which keeps the diamond deadlock-free for balanced
    // branches.
    let split = g.add_vertex(
        "split",
        Box::new(FnTask(|ctx: &mut TaskContext| -> Result<(), NepheleError> {
            let mut i = 0usize;
            while let Some(rec) = ctx.read(0)? {
                ctx.write(i % 2, &rec)?;
                i += 1;
            }
            Ok(())
        })),
    );
    let m1 = g.add_vertex("worker1", Box::new(FnTask(forward)));
    let m2 = g.add_vertex("worker2", Box::new(FnTask(forward)));
    let merge = g.add_vertex(
        "merge",
        Box::new(FnTask(|ctx: &mut TaskContext| -> Result<(), NepheleError> {
            let mut open = [true, true];
            while open.contains(&true) {
                for (i, live) in open.iter_mut().enumerate() {
                    if *live {
                        match ctx.read(i)? {
                            Some(rec) => ctx.write(0, &rec)?,
                            None => *live = false,
                        }
                    }
                }
            }
            Ok(())
        })),
    );
    let sink = g.add_vertex("sink", Box::new(SinkTask::new()));
    g.connect(src, split, CompressionMode::Static(0)).unwrap();
    g.connect(split, m1, CompressionMode::Static(1)).unwrap();
    g.connect(split, m2, CompressionMode::Static(1)).unwrap();
    g.connect(m1, merge, CompressionMode::Static(0)).unwrap();
    g.connect(m2, merge, CompressionMode::Static(0)).unwrap();
    g.connect(merge, sink, CompressionMode::Adaptive(Default::default())).unwrap();
    let report = Executor::default().run(g).unwrap();
    let s: &SinkTask = report.task("sink").unwrap();
    assert_eq!(s.bytes, 2_000_000);
    assert_eq!(s.records, 2_000_000 / 1024 + 1); // 1953 full + 1 tail record
}
