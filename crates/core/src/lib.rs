//! # adcomp-core — rate-based adaptive compression (the paper's contribution)
//!
//! This crate implements the decision model of *"Evaluating Adaptive
//! Compression to Mitigate the Effects of Shared I/O in Clouds"* (IPDPS'11)
//! and the transparent stream layer around it:
//!
//! * [`controller`] — Algorithm 1: [`RateBasedModel`], the paper's model,
//!   with exponential backoff. No training phase, no CPU/bandwidth metrics;
//!   only the application data rate.
//! * [`model`] — the [`DecisionModel`] trait (the epoch's rate plus one
//!   [`EpochContext`] in, one [`Decision`] out) and reimplementations of
//!   the related-work baselines (static, FIFO-queue, metric-based with
//!   offline training, sensor thresholds, threshold sampling).
//! * [`epoch`] — clock abstraction and [`EpochDriver`], the
//!   per-`t`-seconds loop: it meters the epoch's rate, asks the model once
//!   and records the decision as one epoch and one decision trace event.
//! * [`stream`] — [`AdaptiveWriter`] /
//!   [`AdaptiveReader`]: drop-in `Write`/`Read`
//!   wrappers that make the whole scheme transparent to the application,
//!   as in the paper's Nephele integration.
//! * [`pipeline`] — the one ordered block path of each direction
//!   ([`CompressPool`] under the writers, [`DecodePool`] under the readers,
//!   over a shared ordering core): the pure per-block codec work runs on
//!   the caller's thread by default and on a bounded set of worker threads
//!   on request, with byte-identical output because both run the same
//!   function.
//! * [`seek`] — [`IndexedReader`]: random access over any stream,
//!   indexed once at open by its trailer (written with
//!   [`AdaptiveWriter::set_seekable`]; O(block) per request) or by a walk
//!   of its frame headers (the first request also decodes the blocks
//!   before its range), with ranged reads decoded through the decode pool.
//!
//! ## Quick start
//!
//! ```
//! use adcomp_core::prelude::*;
//! use std::io::{Read, Write};
//!
//! let levels = LevelSet::paper_default();
//! let model = Box::new(RateBasedModel::paper_default());
//! let mut writer = AdaptiveWriter::new(Vec::new(), levels, model);
//! writer.write_all(b"hello adaptive world, hello again!").unwrap();
//! let (wire, stats) = writer.finish().unwrap();
//! assert_eq!(stats.app_bytes, 34);
//!
//! let mut out = Vec::new();
//! AdaptiveReader::new(&wire[..]).read_to_end(&mut out).unwrap();
//! assert_eq!(&out[..], b"hello adaptive world, hello again!" as &[u8]);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod controller;
pub mod epoch;
pub mod model;
pub mod pipeline;
pub mod portfolio;
pub mod retry;
pub mod seek;
pub mod stream;
pub mod throttle;

pub use controller::{ControllerConfig, DecisionCase, RateBasedModel};
pub use epoch::{Clock, EpochContext, EpochDriver, ManualClock, WallClock};
pub use retry::Backoff;
pub use throttle::{SharedThrottle, ThrottledReader, ThrottledWriter};
pub use model::{
    Decision, DecisionModel, EntropyGuidedModel, GuestMetrics, MetricBasedModel, QueueBasedModel,
    SensorThresholdModel, StaticModel, ThresholdSamplingModel, TrainedLevel,
};
pub use pipeline::{Completion, CompressPool, Decoded, DecodePool};
pub use seek::IndexedReader;
pub use stream::{AdaptiveReader, AdaptiveWriter, StreamStats};

/// Common imports for downstream users.
pub mod prelude {
    pub use crate::controller::ControllerConfig;
    pub use crate::epoch::{Clock, ManualClock, WallClock};
    pub use crate::model::{DecisionModel, RateBasedModel, StaticModel};
    pub use crate::stream::{AdaptiveReader, AdaptiveWriter, StreamStats};
    pub use adcomp_codecs::{CodecId, LevelSet};
}
