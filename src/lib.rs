//! # adcomp — adaptive online compression for shared-I/O clouds
//!
//! A complete Rust reproduction of *"Evaluating Adaptive Compression to
//! Mitigate the Effects of Shared I/O in Clouds"* (Hovestadt, Kao, Kliem,
//! Warneke — IEEE IPDPS 2011).
//!
//! This facade crate re-exports the workspace:
//!
//! | Module | Crate | What it contains |
//! |---|---|---|
//! | [`core`] | `adcomp-core` | **The paper's contribution**: the rate-based decision model (Algorithm 1), baselines, adaptive `Write`/`Read` streams |
//! | [`codecs`] | `adcomp-codecs` | From-scratch LZ codecs (QuickLZ-like LIGHT/MEDIUM, range-coded HEAVY), block frames |
//! | [`corpus`] | `adcomp-corpus` | Deterministic stand-ins for the paper's test files (`ptt5`, `alice29.txt`, JPEG) |
//! | [`vcloud`] | `adcomp-vcloud` | Discrete-event simulator of XEN/KVM/EC2 I/O: shared links, metric distortion, page caches |
//! | [`nephele`] | `adcomp-nephele` | Miniature Nephele dataflow engine with transparently compressing channels |
//! | [`hostprobe`] | `adcomp-hostprobe` | The paper's §II methodology on the real host: `/proc/stat` sampling + I/O load generators |
//! | [`metrics`] | `adcomp-metrics` | Rate meters, summary statistics, table rendering |
//! | [`serve`] | (this crate) | The `adcomp serve` overload-resilient multi-tenant daemon, its retry/resume client, and the socket-level chaos soak |
//!
//! ## Sixty-second tour
//!
//! ```
//! use adcomp::prelude::*;
//! use std::io::{Read, Write};
//!
//! // Wrap any Write in the paper's adaptive compression scheme:
//! let model = Box::new(RateBasedModel::paper_default());
//! let mut w = AdaptiveWriter::new(Vec::new(), LevelSet::paper_default(), model);
//! w.write_all(b"data data data data data!").unwrap();
//! let (wire, stats) = w.finish().unwrap();
//! assert_eq!(stats.app_bytes, 25);
//!
//! // The receiver needs no coordination — frames are self-describing:
//! let mut out = Vec::new();
//! AdaptiveReader::new(&wire[..]).read_to_end(&mut out).unwrap();
//! assert_eq!(&out[..], b"data data data data data!" as &[u8]);
//! ```
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `crates/bench` for the binaries that regenerate every figure and table
//! of the paper.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod serve;

pub use adcomp_codecs as codecs;
pub use adcomp_core as core;
pub use adcomp_corpus as corpus;
pub use adcomp_faults as faults;
pub use adcomp_hostprobe as hostprobe;
pub use adcomp_metrics as metrics;
pub use adcomp_nephele as nephele;
pub use adcomp_trace as trace;
pub use adcomp_vcloud as vcloud;

/// One-stop imports for applications.
pub mod prelude {
    pub use adcomp_codecs::{CodecId, LevelSet};
    pub use adcomp_core::controller::ControllerConfig;
    pub use adcomp_core::model::{DecisionModel, RateBasedModel, StaticModel};
    pub use adcomp_core::stream::{AdaptiveReader, AdaptiveWriter, StreamStats};
    pub use adcomp_corpus::{Class, CyclicSource, SourceReader};
    pub use adcomp_nephele::prelude::*;
    pub use adcomp_trace::{JsonlWriter, RunManifest, TraceHandle};
    pub use adcomp_vcloud::{Platform, SpeedModel, TransferConfig};
}
