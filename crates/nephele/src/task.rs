//! The task-programming interface.
//!
//! A task sees only record readers and writers; whether its channels'
//! blocks are compressed, and at which level, is invisible, exactly as the
//! paper requires ("the implementation is completely transparent to the
//! tasks, so there is no modification required to their program code").

use crate::channel::{RecordReader, RecordWriter};
use crate::error::Result;
use std::net::TcpStream;

/// Execution context handed to [`Task::run`]: the connected inputs and
/// outputs, in connection order.
pub struct TaskContext {
    pub(crate) vertex_name: String,
    pub(crate) inputs: Vec<RecordReader<TcpStream>>,
    pub(crate) outputs: Vec<RecordWriter<TcpStream>>,
}

impl TaskContext {
    pub fn vertex_name(&self) -> &str {
        &self.vertex_name
    }

    /// Reads the next record from input `idx` (`None` = end of stream).
    pub fn read(&mut self, idx: usize) -> Result<Option<Vec<u8>>> {
        self.inputs[idx].next_record()
    }

    /// Writes a record to output `idx`.
    pub fn write(&mut self, idx: usize, record: &[u8]) -> Result<()> {
        self.outputs[idx].write_record(record)
    }
}

/// A unit of work at a job-graph vertex.
///
/// `Any` is a supertrait so finished tasks can be downcast from a
/// [`JobReport`](crate::executor::JobReport) to read their results.
pub trait Task: Send + std::any::Any {
    /// Consumes inputs and produces outputs until done. Outputs are
    /// finished (flushed + closed) by the executor after `run` returns.
    fn run(&mut self, ctx: &mut TaskContext) -> Result<()>;
}

/// Generates `total_bytes` of synthetic data of a compressibility class as
/// fixed-size records — the paper's sender task, which replays a test file
/// until 50 GB have been produced.
pub struct SourceTask {
    pub class: adcomp_corpus::Class,
    pub total_bytes: u64,
    pub record_len: usize,
    pub seed: u64,
}

impl Task for SourceTask {
    fn run(&mut self, ctx: &mut TaskContext) -> Result<()> {
        use adcomp_corpus::{ByteSource, CyclicSource};
        let mut src = CyclicSource::of_class(self.class, adcomp_corpus::DEFAULT_FILE_LEN, self.seed);
        let mut produced = 0u64;
        let mut buf = vec![0u8; self.record_len];
        while produced < self.total_bytes {
            let len = (self.record_len as u64).min(self.total_bytes - produced) as usize;
            src.fill(&mut buf[..len]);
            ctx.write(0, &buf[..len])?;
            produced += len as u64;
        }
        Ok(())
    }
}

/// Consumes and counts everything from input 0 — the paper's receiver task.
pub struct SinkTask {
    pub records: u64,
    pub bytes: u64,
    /// Simple checksum so tests can assert payload integrity end to end.
    pub checksum: u64,
}

impl SinkTask {
    pub fn new() -> Self {
        SinkTask { records: 0, bytes: 0, checksum: 0 }
    }
}

impl Default for SinkTask {
    fn default() -> Self {
        SinkTask::new()
    }
}

impl Task for SinkTask {
    fn run(&mut self, ctx: &mut TaskContext) -> Result<()> {
        while let Some(rec) = ctx.read(0)? {
            self.records += 1;
            self.bytes += rec.len() as u64;
            for &b in &rec {
                self.checksum = self.checksum.wrapping_mul(31).wrapping_add(b as u64);
            }
        }
        Ok(())
    }
}
