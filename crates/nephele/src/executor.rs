//! Job execution: one worker thread per vertex, channels wired per edge.
//!
//! The executor materializes each edge as a loopback TCP connection, hands
//! every vertex a [`TaskContext`] with its readers/writers, runs all
//! vertices concurrently, and reports wall-clock completion time plus
//! per-channel compression statistics — the measurements behind the
//! paper's Table II.

use crate::channel::{RecordReader, RecordWriter};
use crate::error::{NepheleError, Result};
use crate::graph::JobGraph;
use crate::task::{Task, TaskContext};
use adcomp_codecs::frame::DEFAULT_BLOCK_LEN;
use adcomp_codecs::LevelSet;
use adcomp_core::epoch::WallClock;
use adcomp_core::stream::{AdaptiveWriter, StreamStats};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Per-edge report after completion.
#[derive(Debug, Clone)]
pub struct EdgeReport {
    pub from: String,
    pub to: String,
    /// The writer's stream statistics.
    pub stats: StreamStats,
    /// Records written.
    pub records: u64,
}

/// A finished output channel: its stream's statistics and record count.
type OutputStats = (StreamStats, u64);

/// Result of a completed job.
pub struct JobReport {
    pub job_name: String,
    /// Wall-clock duration of the whole job in seconds.
    pub completion_secs: f64,
    /// Writer-side statistics per edge, in graph edge order.
    pub edges: Vec<EdgeReport>,
    /// The task objects, so callers can inspect results (e.g. sink counts).
    tasks: Vec<(String, Box<dyn Task>)>,
}

impl std::fmt::Debug for JobReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobReport")
            .field("job_name", &self.job_name)
            .field("completion_secs", &self.completion_secs)
            .field("edges", &self.edges)
            .field("tasks", &self.tasks.iter().map(|(n, _)| n).collect::<Vec<_>>())
            .finish()
    }
}

impl JobReport {
    /// Looks up a finished task by vertex name and concrete type.
    pub fn task<T: Task>(&self, name: &str) -> Option<&T> {
        self.tasks.iter().find(|(n, _)| n == name).and_then(|(_, t)| {
            let any: &dyn std::any::Any = t.as_ref();
            any.downcast_ref::<T>()
        })
    }
}

/// Executor configuration. Every channel runs the paper's four levels
/// and encodes its blocks on the sending task's own thread.
pub struct Executor {
    /// Decision epoch for adaptive channels, seconds (paper: 2 s).
    pub epoch_secs: f64,
}

impl Default for Executor {
    fn default() -> Self {
        Executor { epoch_secs: 2.0 }
    }
}

impl Executor {
    /// Runs a job to completion.
    pub fn run(&self, graph: JobGraph) -> Result<JobReport> {
        graph.validate()?;
        let JobGraph { name: job_name, vertices, edges } = graph;
        let nv = vertices.len();

        // Materialize one loopback TCP connection per edge and hand its
        // ends to their vertices, in connection order.
        let mut contexts: Vec<TaskContext> = vertices
            .iter()
            .map(|v| TaskContext {
                vertex_name: v.name.clone(),
                inputs: Vec::new(),
                outputs: Vec::new(),
            })
            .collect();
        // Each edge's index among its source vertex's outputs.
        let mut out_idx: Vec<usize> = Vec::with_capacity(edges.len());
        for e in &edges {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let client = TcpStream::connect(listener.local_addr()?)?;
            client.set_nodelay(true).ok();
            let (server, _) = listener.accept()?;
            let levels = LevelSet::paper_default();
            let model = e.compression.make_model(&levels);
            let clock = Box::new(WallClock::new());
            let stream = AdaptiveWriter::with_params(
                client,
                levels,
                model,
                DEFAULT_BLOCK_LEN,
                self.epoch_secs,
                clock,
            );
            out_idx.push(contexts[e.from].outputs.len());
            contexts[e.from].outputs.push(RecordWriter::new(stream));
            contexts[e.to].inputs.push(RecordReader::new(server));
        }

        // Run: one thread per vertex.
        let start = Instant::now();
        let mut handles = Vec::with_capacity(nv);
        let mut names = Vec::with_capacity(nv);
        for (vertex, mut ctx) in vertices.into_iter().zip(contexts) {
            names.push(vertex.name.clone());
            let mut task = vertex.task;
            let vname = vertex.name;
            handles.push(std::thread::spawn(
                move || -> Result<(Box<dyn Task>, Vec<OutputStats>)> {
                    task.run(&mut ctx).map_err(|e| NepheleError::TaskFailed {
                        vertex: vname.clone(),
                        message: e.to_string(),
                    })?;
                    let mut out_stats = Vec::with_capacity(ctx.outputs.len());
                    for w in ctx.outputs.drain(..) {
                        // Dropping the socket ends the reader's stream.
                        let (_, stats, records) = w.finish()?;
                        out_stats.push((stats, records));
                    }
                    Ok((task, out_stats))
                },
            ));
        }

        let mut per_vertex_out: Vec<Vec<OutputStats>> = Vec::with_capacity(nv);
        let mut tasks = Vec::with_capacity(nv);
        let mut first_err: Option<NepheleError> = None;
        for (h, name) in handles.into_iter().zip(names) {
            match h.join() {
                Ok(Ok((task, stats))) => {
                    tasks.push((name, task));
                    per_vertex_out.push(stats);
                }
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                Err(_) => {
                    first_err.get_or_insert(NepheleError::WorkerPanic(name));
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        let completion_secs = start.elapsed().as_secs_f64();

        let edge_reports = edges
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let (stats, records) =
                    per_vertex_out[e.from].get(out_idx[i]).cloned().unwrap_or_default();
                EdgeReport {
                    from: tasks[e.from].0.clone(),
                    to: tasks[e.to].0.clone(),
                    stats,
                    records,
                }
            })
            .collect();

        Ok(JobReport { job_name, completion_secs, edges: edge_reports, tasks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::CompressionMode;
    use crate::task::{SinkTask, SourceTask};
    use adcomp_corpus::Class;

    /// Wraps a closure as a task.
    struct FnTask<F>(F);

    impl<F: FnMut(&mut TaskContext) -> Result<()> + Send + 'static> Task for FnTask<F> {
        fn run(&mut self, ctx: &mut TaskContext) -> Result<()> {
            (self.0)(ctx)
        }
    }

    fn two_task_job(mode: CompressionMode, mb: u64) -> JobReport {
        let mut g = JobGraph::new("sample-job");
        let src = g.add_vertex(
            "sender",
            Box::new(SourceTask {
                class: Class::Moderate,
                total_bytes: mb * 1_000_000,
                record_len: 8192,
                seed: 42,
            }),
        );
        let dst = g.add_vertex("receiver", Box::new(SinkTask::new()));
        g.connect(src, dst, mode).unwrap();
        Executor::default().run(g).unwrap()
    }

    #[test]
    fn memory_job_moves_all_bytes() {
        let r = two_task_job(CompressionMode::Static(0), 5);
        let sink: &SinkTask = r.task("receiver").unwrap();
        assert_eq!(sink.bytes, 5_000_000);
        assert_eq!(r.edges.len(), 1);
        assert_eq!(r.edges[0].stats.app_bytes, 5_000_000 + 4 * sink.records);
        assert!(r.completion_secs > 0.0);
    }

    #[test]
    fn network_job_with_static_compression() {
        let r = two_task_job(CompressionMode::Static(1), 5);
        let sink: &SinkTask = r.task("receiver").unwrap();
        assert_eq!(sink.bytes, 5_000_000);
        assert!(
            r.edges[0].stats.wire_ratio() < 0.8,
            "text should compress, ratio {}",
            r.edges[0].stats.wire_ratio()
        );
    }

    #[test]
    fn sink_checksum_matches_source_data() {
        // Two identical jobs must deliver identical payloads end to end,
        // regardless of the channel's compression mode.
        let a = two_task_job(CompressionMode::Static(0), 2);
        let b = two_task_job(CompressionMode::Static(3), 2);
        let ca = a.task::<SinkTask>("receiver").unwrap().checksum;
        let cb = b.task::<SinkTask>("receiver").unwrap().checksum;
        assert_eq!(ca, cb);
    }

    #[test]
    fn three_stage_pipeline_with_map() {
        let mut g = JobGraph::new("pipeline");
        let src = g.add_vertex(
            "src",
            Box::new(SourceTask {
                class: Class::High,
                total_bytes: 1_000_000,
                record_len: 4096,
                seed: 7,
            }),
        );
        let map = g.add_vertex(
            "map",
            Box::new(FnTask(|ctx: &mut TaskContext| -> Result<()> {
                while let Some(mut r) = ctx.read(0)? {
                    for b in &mut r {
                        *b = b.wrapping_add(1);
                    }
                    ctx.write(0, &r)?;
                }
                Ok(())
            })),
        );
        let sink = g.add_vertex("sink", Box::new(SinkTask::new()));
        g.connect(src, map, CompressionMode::Static(1)).unwrap();
        g.connect(map, sink, CompressionMode::Static(1)).unwrap();
        let r = Executor::default().run(g).unwrap();
        let s: &SinkTask = r.task("sink").unwrap();
        assert_eq!(s.bytes, 1_000_000);
        assert_eq!(r.edges.len(), 2);
        assert!(r.edges.iter().map(|e| e.stats.app_bytes).sum::<u64>() >= 2_000_000);
    }

    #[test]
    fn failing_task_reported() {
        let mut g = JobGraph::new("fails");
        let src = g.add_vertex(
            "boom",
            Box::new(FnTask(|_ctx: &mut TaskContext| -> Result<()> {
                Err(NepheleError::TaskFailed { vertex: "boom".into(), message: "bang".into() })
            })),
        );
        let dst = g.add_vertex("sink", Box::new(SinkTask::new()));
        g.connect(src, dst, CompressionMode::Static(0)).unwrap();
        let err = Executor::default().run(g).unwrap_err();
        assert!(err.to_string().contains("boom"), "{err}");
    }

    #[test]
    fn invalid_graph_rejected_before_spawning() {
        let g = JobGraph::new("empty");
        assert!(matches!(Executor::default().run(g), Err(NepheleError::InvalidGraph(_))));
    }

    #[test]
    fn fan_out_to_two_sinks() {
        let mut g = JobGraph::new("fanout");
        let src = g.add_vertex(
            "src",
            Box::new(FnTask(|ctx: &mut TaskContext| -> Result<()> {
                for i in 0..100 {
                    let rec = format!("item {i}");
                    ctx.write(i % 2, rec.as_bytes())?;
                }
                Ok(())
            })),
        );
        let s1 = g.add_vertex("sink1", Box::new(SinkTask::new()));
        let s2 = g.add_vertex("sink2", Box::new(SinkTask::new()));
        g.connect(src, s1, CompressionMode::Static(0)).unwrap();
        g.connect(src, s2, CompressionMode::Static(0)).unwrap();
        let r = Executor::default().run(g).unwrap();
        let a: &SinkTask = r.task("sink1").unwrap();
        let b: &SinkTask = r.task("sink2").unwrap();
        assert_eq!(a.records + b.records, 100);
        assert_eq!(a.records, 50);
    }
}
