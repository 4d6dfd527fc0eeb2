//! Deterministic fault injection and chaos-soak harness.
//!
//! This crate is the robustness counterpart to the rest of the
//! adaptive-compression workspace: it produces *reproducible* hostility.
//! A [`FaultSpec`] `(seed, rate)` pins a complete schedule of bit flips,
//! frame drops and mid-frame cuts; the `std::io` adapter [`CorruptingWriter`]
//! applies that schedule to any `Write` — a bare frame stream, an adaptive
//! stream or a nephele record channel alike — counting what it did in
//! [`InjectStats`] (it emits no trace events);
//! and the [`soak`] engine drives whole encode → corrupt → recover → verify
//! round trips, asserting that the stack either reads to the end, every
//! item it hands back byte-identical, or stops at a typed error — never a
//! panic, hang, or silent corruption.
//!
//! Layout:
//! - [`plan`] — `FaultSpec` / `FaultPlan` / `FaultAction`: the seeded
//!   per-frame decision stream.
//! - [`io`] — the `std::io` adapter [`CorruptingWriter`].
//! - [`net`] — [`ChaosProxy`], the socket-level counterpart: a seeded
//!   fault-injecting TCP proxy for client↔server soak runs on loopback.
//! - [`soak`] — [`SoakCase`] / [`run_case`] /
//!   [`SoakSummary`](soak::SoakSummary): the chaos harness with a
//!   deterministic JSON summary (consumed by `chaos_soak` in the bench
//!   crate and the `adcomp chaos` CLI subcommand).
//!
//! Everything here is deterministic for a fixed seed on every platform:
//! the PRNG is the workspace's fixed xoshiro256++ and each decision burns
//! the same number of draws on every branch.

pub mod io;
pub mod net;
pub mod plan;
pub mod soak;

pub use io::CorruptingWriter;
pub use net::{ChaosProxy, Direction, NetAction, NetFaultSpec, NetPlan, ProxyStats};
pub use plan::{FaultAction, FaultPlan, FaultSpec, InjectStats};
pub use soak::{run_case, CaseResult, SoakCase, SoakLayer};
