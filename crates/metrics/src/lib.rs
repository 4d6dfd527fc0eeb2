//! # adcomp-metrics — measurement instruments and reporting
//!
//! Shared measurement layer for the adaptive-compression workspace:
//!
//! * [`rate`] — [`TimeSeries`], the `(time, value)` series behind the
//!   figures (the epoch rate itself is metered by the core crate's
//!   `EpochDriver`);
//! * [`registry`] — the live, lock-free sharded [`MetricsRegistry`]
//!   (atomic counters/gauges, log-linear histograms, span timers) that
//!   running processes scrape while under load;
//! * [`stats`] — online moments, five-number summaries, histograms;
//! * [`table`] — paper-style ASCII tables.
//!
//! Everything here is clock-agnostic: timestamps are plain `f64` seconds,
//! supplied either by a wall clock or by the discrete-event simulator
//! (the registry makes the split explicit via [`RegistryMode`]).

pub mod plot;
pub mod rate;
pub mod registry;
pub mod stats;
pub mod table;

pub use rate::TimeSeries;
pub use registry::{
    HistKind, HistSnapshot, LabelFamily, MetricsRegistry, RegistryMode, RegistrySnapshot,
    SpanKind, SpanTimer,
};
pub use registry::{CounterKind, GaugeKind};
pub use stats::{Histogram, OnlineStats, Summary};
pub use table::{mean_sd_cell, Table};

/// Converts bytes/second to MBit/s (decimal, as the paper's figures use).
pub fn bps_to_mbit(bytes_per_sec: f64) -> f64 {
    bytes_per_sec * 8.0 / 1e6
}

/// Converts bytes/second to MB/s (decimal).
pub fn bps_to_mb(bytes_per_sec: f64) -> f64 {
    bytes_per_sec / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert!((bps_to_mbit(125_000_000.0) - 1000.0).abs() < 1e-9);
        assert!((bps_to_mb(125_000_000.0) - 125.0).abs() < 1e-9);
    }
}
