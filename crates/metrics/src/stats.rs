//! Summary statistics used by the experiment harness: Welford online
//! moments, five-number summaries for the paper's box plots, and simple
//! histograms.

/// Online mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Sample variance (n − 1 denominator).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Five-number summary plus mean/SD — everything a box plot needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub sd: f64,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Computes the summary of a sample. Returns `None` on an empty sample.
    pub fn from_samples(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
        let mut stats = OnlineStats::new();
        for &x in samples {
            stats.push(x);
        }
        Some(Summary {
            n: samples.len(),
            mean: stats.mean(),
            sd: stats.std_dev(),
            min: sorted[0],
            q1: quantile(&sorted, 0.25),
            median: quantile(&sorted, 0.5),
            q3: quantile(&sorted, 0.75),
            max: *sorted.last().unwrap(),
        })
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Box-plot whisker bounds (Tukey 1.5 × IQR, clamped to data range).
    pub fn whiskers(&self) -> (f64, f64) {
        let lo = (self.q1 - 1.5 * self.iqr()).max(self.min);
        let hi = (self.q3 + 1.5 * self.iqr()).min(self.max);
        (lo, hi)
    }
}

/// Linear-interpolation quantile over a pre-sorted slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=1.0).contains(&q));
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Fixed-width-bucket histogram over `[lo, hi)` with out-of-range counters.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    sum: f64,
    pub underflow: u64,
    pub overflow: u64,
}

impl Histogram {
    pub fn new(lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(hi > lo && buckets > 0);
        Histogram { lo, hi, buckets: vec![0; buckets], sum: 0.0, underflow: 0, overflow: 0 }
    }

    pub fn push(&mut self, x: f64) {
        self.sum += x;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.buckets.len();
            let idx = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.buckets[idx.min(n - 1)] += 1;
        }
    }

    pub fn counts(&self) -> &[u64] {
        &self.buckets
    }

    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Exact sum of every pushed value (including out-of-range ones);
    /// feeds the Prometheus `_sum` series.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// A terminal sparkline of the distribution shape.
    pub fn sparkline(&self) -> String {
        const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let max = self.buckets.iter().copied().max().unwrap_or(0).max(1);
        self.buckets
            .iter()
            .map(|&c| GLYPHS[(c as usize * (GLYPHS.len() - 1)) / max as usize])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_match_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Sample SD of this classic data set is sqrt(32/7).
        assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert!(s.mean().is_nan());
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::from_samples(&[]).is_none());
    }

    #[test]
    fn quantile_interpolates() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&sorted, 0.0), 10.0);
        assert_eq!(quantile(&sorted, 1.0), 40.0);
        assert!((quantile(&sorted, 0.5) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn whiskers_clamped_to_range() {
        let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
        let (lo, hi) = s.whiskers();
        assert!(lo >= 1.0);
        assert!(hi <= 100.0);
    }

    #[test]
    fn histogram_buckets_and_bounds() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.push(i as f64 + 0.5);
        }
        h.push(-1.0);
        h.push(10.0);
        h.push(11.0);
        assert_eq!(h.counts(), &[1u64; 10][..]);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.total(), 13);
        assert_eq!(h.sparkline().chars().count(), 10);
    }
}
