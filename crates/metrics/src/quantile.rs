//! Streaming quantile estimation (the P² algorithm of Jain & Chlamtac,
//! CACM 1985): tracks a quantile of an unbounded stream in O(1) memory.
//!
//! The experiment harness keeps full sample vectors for the paper's
//! figures, but long-running deployments of the adaptive channel want
//! latency/rate percentiles without unbounded buffers — this estimator
//! backs [`StreamingSummary`].

/// P² estimator for a single quantile `q` of a stream.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (estimates of the quantile positions).
    heights: [f64; 5],
    /// Marker positions (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired position increments per observation.
    increments: [f64; 5],
    count: usize,
}

impl P2Quantile {
    pub fn new(q: f64) -> Self {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            count: 0,
        }
    }

    /// Observations seen so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite());
        if self.count < 5 {
            self.heights[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights.sort_by(|a, b| a.partial_cmp(b).unwrap());
            }
            return;
        }
        self.count += 1;

        // Find the cell k containing x and update extreme markers.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if x >= self.heights[i] && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments) {
            *d += inc;
        }

        // Adjust the three interior markers with parabolic interpolation.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let room_right = self.positions[i + 1] - self.positions[i];
            let room_left = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && room_right > 1.0) || (d <= -1.0 && room_left < -1.0) {
                let s = d.signum();
                let candidate = self.parabolic(i, s);
                self.heights[i] = if self.heights[i - 1] < candidate
                    && candidate < self.heights[i + 1]
                {
                    candidate
                } else {
                    self.linear(i, s)
                };
                self.positions[i] += s;
            }
        }
    }

    fn parabolic(&self, i: usize, s: f64) -> f64 {
        let (qm, q0, qp) = (self.heights[i - 1], self.heights[i], self.heights[i + 1]);
        let (nm, n0, np) = (self.positions[i - 1], self.positions[i], self.positions[i + 1]);
        q0 + s / (np - nm)
            * ((n0 - nm + s) * (qp - q0) / (np - n0) + (np - n0 - s) * (q0 - qm) / (n0 - nm))
    }

    fn linear(&self, i: usize, s: f64) -> f64 {
        let j = (i as f64 + s) as usize;
        self.heights[i]
            + s * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current estimate (exact for fewer than five observations).
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        if self.count < 5 {
            let mut sorted = self.heights[..self.count].to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            return crate::stats::quantile(&sorted, self.q);
        }
        self.heights[2]
    }
}

/// A constant-memory summary of an unbounded stream: mean/SD plus
/// median and tail quantiles via P².
#[derive(Debug, Clone)]
pub struct StreamingSummary {
    stats: crate::stats::OnlineStats,
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
}

impl StreamingSummary {
    pub fn new() -> Self {
        StreamingSummary {
            stats: crate::stats::OnlineStats::new(),
            p50: P2Quantile::new(0.5),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
        }
    }

    pub fn push(&mut self, x: f64) {
        self.stats.push(x);
        self.p50.push(x);
        self.p95.push(x);
        self.p99.push(x);
    }

    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }

    pub fn median(&self) -> f64 {
        self.p50.estimate()
    }

    pub fn p95(&self) -> f64 {
        self.p95.estimate()
    }

    pub fn p99(&self) -> f64 {
        self.p99.estimate()
    }

    pub fn min(&self) -> f64 {
        self.stats.min()
    }

    pub fn max(&self) -> f64 {
        self.stats.max()
    }
}

impl Default for StreamingSummary {
    fn default() -> Self {
        StreamingSummary::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcomp_corpus_free_rng::Lcg;

    /// Tiny local LCG so this crate stays dependency-free.
    mod adcomp_corpus_free_rng {
        pub struct Lcg(pub u64);
        impl Lcg {
            pub fn next_f64(&mut self) -> f64 {
                self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (self.0 >> 11) as f64 / (1u64 << 53) as f64
            }
        }
    }

    #[test]
    fn exact_for_small_samples() {
        let mut p = P2Quantile::new(0.5);
        for x in [3.0, 1.0, 2.0] {
            p.push(x);
        }
        assert_eq!(p.estimate(), 2.0);
        assert!(P2Quantile::new(0.5).estimate().is_nan());
    }

    #[test]
    fn median_of_uniform_converges() {
        let mut p = P2Quantile::new(0.5);
        let mut rng = Lcg(42);
        for _ in 0..50_000 {
            p.push(rng.next_f64());
        }
        let est = p.estimate();
        assert!((est - 0.5).abs() < 0.02, "median estimate {est}");
    }

    #[test]
    fn p95_of_uniform_converges() {
        let mut p = P2Quantile::new(0.95);
        let mut rng = Lcg(7);
        for _ in 0..50_000 {
            p.push(rng.next_f64());
        }
        let est = p.estimate();
        assert!((est - 0.95).abs() < 0.02, "p95 estimate {est}");
    }

    #[test]
    fn skewed_distribution_tail() {
        // Squaring a uniform skews mass toward 0; p99 of U^2 is 0.99^2.
        let mut p = P2Quantile::new(0.99);
        let mut rng = Lcg(9);
        for _ in 0..100_000 {
            let u = rng.next_f64();
            p.push(u * u);
        }
        let est = p.estimate();
        assert!((est - 0.9801).abs() < 0.02, "p99 estimate {est}");
    }

    #[test]
    fn monotone_input_is_handled() {
        let mut p = P2Quantile::new(0.5);
        for i in 0..10_000 {
            p.push(i as f64);
        }
        let est = p.estimate();
        assert!((est - 5_000.0).abs() < 500.0, "median of ramp {est}");
    }

    #[test]
    fn streaming_summary_tracks_all_stats() {
        let mut s = StreamingSummary::new();
        let mut rng = Lcg(3);
        for _ in 0..20_000 {
            s.push(10.0 + rng.next_f64() * 20.0); // U(10, 30)
        }
        assert_eq!(s.count(), 20_000);
        assert!((s.mean() - 20.0).abs() < 0.2);
        assert!((s.median() - 20.0).abs() < 0.5);
        assert!((s.p95() - 29.0).abs() < 0.5);
        assert!(s.min() >= 10.0 && s.max() <= 30.0);
        assert!((s.std_dev() - (400.0f64 / 12.0).sqrt()).abs() < 0.2);
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn rejects_out_of_range_q() {
        P2Quantile::new(1.5);
    }
}
