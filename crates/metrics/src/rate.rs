//! Data-rate measurement.
//!
//! [`RateMeter`] is the instrument behind the paper's decision model: it
//! accumulates application bytes and, every epoch, yields the *application
//! data rate* over that epoch. It is clock-agnostic — callers feed it
//! explicit timestamps, so it works identically under wall clock and under
//! the simulator's virtual clock.

/// Accumulates bytes between epoch boundaries and reports per-epoch rates.
#[derive(Debug, Clone)]
pub struct RateMeter {
    epoch_len: f64,
    epoch_start: f64,
    bytes_in_epoch: u64,
    total_bytes: u64,
}

/// One completed epoch: its duration and the mean rate achieved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRate {
    /// Epoch start time (seconds).
    pub start: f64,
    /// Actual epoch duration (seconds) — may exceed the nominal length if
    /// byte arrivals straddle the boundary.
    pub duration: f64,
    /// Bytes accumulated during the epoch.
    pub bytes: u64,
    /// Mean data rate over the epoch, bytes/second.
    pub rate: f64,
}

impl RateMeter {
    /// `epoch_len` is the paper's parameter `t` in seconds (their
    /// experiments use 2 s).
    pub fn new(epoch_len: f64, now: f64) -> Self {
        assert!(epoch_len > 0.0);
        RateMeter { epoch_len, epoch_start: now, bytes_in_epoch: 0, total_bytes: 0 }
    }

    /// Records `bytes` of application data at time `now`. Returns the
    /// completed epoch if the nominal epoch length has elapsed.
    pub fn record(&mut self, bytes: u64, now: f64) -> Option<EpochRate> {
        self.bytes_in_epoch += bytes;
        self.total_bytes += bytes;
        self.poll(now)
    }

    /// Checks for an epoch boundary without recording bytes.
    pub fn poll(&mut self, now: f64) -> Option<EpochRate> {
        let elapsed = now - self.epoch_start;
        if elapsed < self.epoch_len {
            return None;
        }
        let epoch = EpochRate {
            start: self.epoch_start,
            duration: elapsed,
            bytes: self.bytes_in_epoch,
            rate: self.bytes_in_epoch as f64 / elapsed,
        };
        self.epoch_start = now;
        self.bytes_in_epoch = 0;
        Some(epoch)
    }

    /// Total bytes ever recorded.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

/// A `(time, value)` series recorded during an experiment — the raw
/// material for the paper's time-series figures (Figs. 4–6).
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    pub fn new() -> Self {
        TimeSeries { points: Vec::new() }
    }

    pub fn push(&mut self, t: f64, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|&(pt, _)| t >= pt),
            "time series must be appended in order"
        );
        self.points.push((t, value));
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|&(_, v)| v)
    }

    /// Last value, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        self.points.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_epoch_before_boundary() {
        let mut m = RateMeter::new(2.0, 0.0);
        assert!(m.record(100, 0.5).is_none());
        assert!(m.record(100, 1.9).is_none());
        assert_eq!(m.total_bytes(), 200);
    }

    #[test]
    fn epoch_rate_computed_over_actual_duration() {
        let mut m = RateMeter::new(2.0, 0.0);
        m.record(1000, 1.0);
        let e = m.record(1000, 2.5).unwrap();
        assert_eq!(e.bytes, 2000);
        assert!((e.duration - 2.5).abs() < 1e-12);
        assert!((e.rate - 800.0).abs() < 1e-9);
        assert_eq!(e.start, 0.0);
    }

    #[test]
    fn epochs_reset_cleanly() {
        let mut m = RateMeter::new(1.0, 0.0);
        let e1 = m.record(500, 1.0).unwrap();
        assert_eq!(e1.bytes, 500);
        let e2 = m.record(300, 2.0).unwrap();
        assert_eq!(e2.bytes, 300);
        assert_eq!(e2.start, 1.0);
        assert_eq!(m.total_bytes(), 800);
    }

    #[test]
    fn poll_without_bytes_yields_zero_rate_epoch() {
        let mut m = RateMeter::new(1.0, 0.0);
        let e = m.poll(1.5).unwrap();
        assert_eq!(e.bytes, 0);
        assert_eq!(e.rate, 0.0);
    }

    #[test]
    fn time_series_degenerate_cases() {
        let ts = TimeSeries::new();
        assert!(ts.is_empty() && ts.last().is_none());
        let mut ts = TimeSeries::new();
        ts.push(1.0, 5.0);
        assert_eq!(ts.last(), Some((1.0, 5.0)));
    }
}
