//! Time series recorded during an experiment.

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
    fn time_series_degenerate_cases() {
        let ts = TimeSeries::new();
        assert!(ts.is_empty() && ts.last().is_none());
        let mut ts = TimeSeries::new();
        ts.push(1.0, 5.0);
        assert_eq!(ts.last(), Some((1.0, 5.0)));
    }
}
