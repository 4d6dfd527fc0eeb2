//! The four workloads. Each runs alone in its process, so that peak
//! memory is its own.

pub mod file_roundtrip;
pub mod serve_ingest;
pub mod serve_read;
pub mod shared_link;
pub mod store;

use crate::harness::{Cfg, Outcome};

pub fn run(name: &str, traced: bool, cfg: &Cfg) -> Outcome {
    let mut out = match (name, traced) {
        ("file_roundtrip", false) => file_roundtrip::run(cfg),
        ("file_roundtrip", true) => file_roundtrip::traced(cfg),
        ("shared_link", false) => shared_link::run(cfg),
        ("shared_link", true) => shared_link::traced(cfg),
        ("serve_ingest", false) => serve_ingest::run(cfg),
        ("serve_ingest", true) => serve_ingest::traced(cfg),
        ("serve_read", false) => serve_read::run(cfg),
        ("serve_read", true) => serve_read::traced(cfg),
        _ => unreachable!("workload names are checked by the caller"),
    };
    if traced {
        // The layers that are not on this workload's path.
        out.zero_fill(&crate::suite::PER_LAYER);
    }
    out
}
