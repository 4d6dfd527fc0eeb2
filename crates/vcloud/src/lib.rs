//! # adcomp-vcloud — a discrete-event simulator of virtualized cloud I/O
//!
//! The paper's evaluation environment — Eucalyptus-provisioned XEN/KVM
//! guests, Amazon EC2 instances, a shared 1 GbE link with co-located
//! virtual machines — is rebuilt here as a deterministic virtual-time
//! simulator:
//!
//! * [`platform`] — the five platforms with constants calibrated from the
//!   paper's Section II measurements (guest-vs-host CPU display gaps of up
//!   to 15×, per-platform bandwidth and fluctuation regimes);
//! * [`fluctuation`] — AR(1) noise for the local cloud, a violent on/off
//!   process for EC2;
//! * [`link`] — bandwidth sharing with co-located flows (β-contention fit
//!   to Table II);
//! * [`disk`] — host write-back page-cache model (XEN's "tremendous caching
//!   effects", Fig. 3);
//! * [`cpu`] — guest/host CPU utilization breakdowns and sampling (Fig. 1);
//! * [`speed`] — per-(compressibility, level) codec profiles, either
//!   back-fitted from Table II or measured from this repo's real codecs;
//! * [`pipeline`] — the transfer engine: virtual-time senders → wire →
//!   receiver (or → virtual disk), with any
//!   [`DecisionModel`](adcomp_core::model::DecisionModel) in each flow's
//!   loop; [`multiflow`] (several adaptive flows on one link) and
//!   [`filepipe`] (a write to the disk) are two of its configurations;
//! * [`experiments`] — sample generators for Figures 1–3.
//!
//! Virtual time means a 50 GB × 4 levels × 4 contention sweep simulates in
//! seconds while preserving the paper's bottleneck structure.

pub mod cpu;
pub mod disk;
pub mod experiments;
pub mod filepipe;
pub mod fluctuation;
pub mod link;
pub mod multiflow;
pub mod pipeline;
pub mod platform;
pub mod speed;

pub use cpu::{CpuAccuracyModel, CpuBreakdown};
pub use disk::VirtualDisk;
pub use filepipe::{run_file_transfer, FileOutcome};
pub use fluctuation::{Ar1, Constant, Fluctuation, OnOff, Outages};
pub use link::SharedLink;
pub use multiflow::{run_multiflow_traced, MultiFlowOutcome};
pub use pipeline::{
    run_transfer, run_transfer_traced, AlternatingClass, ClassSchedule, ConstantClass, FlowSpec,
    TransferConfig, TransferOutcome,
};
pub use platform::{IoOp, Platform};
pub use speed::{LevelProfile, SpeedModel};
