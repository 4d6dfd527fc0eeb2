//! # adcomp-nephele — a miniature Nephele dataflow engine
//!
//! The paper integrates its adaptive compression scheme into Nephele, the
//! authors' "framework for massively parallel data processing \[which\]
//! executes data flow programs expressed as directed acyclic graphs". This
//! crate rebuilds the parts the integration needs:
//!
//! * [`graph`] — job DAGs of named task vertices and channel edges;
//! * [`task`] — the task trait plus the paper's source and sink tasks;
//! * [`channel`] — record channels: a length-prefix framer over an
//!   adaptive stream on any `Write` / `Read`, whose ≤ 128 KiB blocks are
//!   each independently compressed (a static level, level 0 being none,
//!   or the paper's adaptive scheme) into a self-describing frame —
//!   completely transparent to task code;
//! * [`executor`] — one worker thread per vertex, a loopback TCP
//!   connection per edge, each channel's stream statistics and record
//!   count in the final report.
//!
//! ## Example: the paper's sample job
//!
//! ```
//! use adcomp_nephele::prelude::*;
//! use adcomp_corpus::Class;
//!
//! let mut g = JobGraph::new("sample-job");
//! let send = g.add_vertex("sender", Box::new(SourceTask {
//!     class: Class::High, total_bytes: 1_000_000, record_len: 8192, seed: 1,
//! }));
//! let recv = g.add_vertex("receiver", Box::new(SinkTask::new()));
//! g.connect(send, recv, CompressionMode::Adaptive(Default::default())).unwrap();
//! let report = Executor::default().run(g).unwrap();
//! assert_eq!(report.task::<SinkTask>("receiver").unwrap().bytes, 1_000_000);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod channel;
pub mod error;
pub mod executor;
pub mod graph;
pub mod task;

pub use channel::{CompressionMode, RecordReader, RecordWriter};
pub use error::{NepheleError, Result};
pub use executor::{EdgeReport, Executor, JobReport};
pub use graph::{JobGraph, VertexId};
pub use task::{SinkTask, SourceTask, Task, TaskContext};

/// Common imports.
pub mod prelude {
    pub use crate::channel::CompressionMode;
    pub use crate::executor::{Executor, JobReport};
    pub use crate::graph::JobGraph;
    pub use crate::task::{SinkTask, SourceTask, Task, TaskContext};
}
