//! Order statistics for the harness. Latency percentiles interpolate
//! linearly between closest ranks; quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" rule), because that
//! is what the acceptance check of the benchmark contract computes.

/// The `p`-th percentile (`0.0..=100.0`) of `values`; NaN when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

/// [`percentile`] of an ascending slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Median, quartiles and count of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let quartile = |i: usize| match n {
            0 => f64::NAN,
            1 => v[0],
            _ => {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            }
        };
        Summary {
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
            n,
        }
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_closest_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 25.0), 1.75);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn summary_orders_quartiles_and_reports_spread() {
        // statistics.quantiles([9, 10, 11, 12, 13], n=4) == [9.5, 11.0, 12.5]
        let s = Summary::of(&[10.0, 12.0, 11.0, 9.0, 13.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (9.5, 11.0, 12.5, 5));
        assert!((s.spread() - 3.0 / 11.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 10], n=4) == [1.25, 2.5, 8.25]
        let s = Summary::of(&[1.0, 2.0, 3.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 8.25));
        assert_eq!(Summary::of(&[5.0]).q3, 5.0);
    }
}
