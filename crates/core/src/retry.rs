//! Retry backoff schedules — the timer math of the network client, kept
//! as pure functions of the attempt number so every property is testable
//! without sleeping.
//!
//! [`Backoff`] answers "how long before attempt *n*": exponential growth
//! from a base delay, hard-capped, with optional deterministic seeded
//! jitter (multiplicative in `[0.5, 1.0]`, so the cap still holds).

/// An exponential backoff schedule with a hard cap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Backoff {
    /// Delay before the first retry (seconds).
    pub base_secs: f64,
    /// Multiplier between consecutive retries (≥ 1).
    pub factor: f64,
    /// Hard ceiling on any single delay (seconds).
    pub cap_secs: f64,
    /// Attempts allowed before giving up (0 = never retry).
    pub max_retries: u32,
    /// Seed for deterministic jitter; `None` = no jitter.
    pub jitter_seed: Option<u64>,
}

impl Backoff {
    /// A schedule `base * factor^n`, capped at `cap`, without jitter.
    pub fn new(base_secs: f64, factor: f64, cap_secs: f64, max_retries: u32) -> Self {
        assert!(base_secs >= 0.0 && cap_secs >= 0.0, "delays must be non-negative");
        assert!(factor >= 1.0, "backoff factor must be >= 1");
        Backoff { base_secs, factor, cap_secs, max_retries, jitter_seed: None }
    }

    /// The client default: 50 ms base, doubling, 2 s cap, 6 retries.
    pub fn client_default() -> Self {
        Backoff::new(0.05, 2.0, 2.0, 6)
    }

    /// Enables deterministic jitter derived from `seed`.
    pub fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = Some(seed);
        self
    }

    /// Whether attempt `attempt` (0-based) is still within budget.
    pub fn allows(&self, attempt: u32) -> bool {
        attempt < self.max_retries
    }

    /// The un-jittered delay before retry `attempt` (0-based): monotone
    /// non-decreasing in `attempt` and never above `cap_secs`.
    pub fn raw_delay_secs(&self, attempt: u32) -> f64 {
        // factor >= 1 can overflow f64 range for huge attempts; powi
        // saturates to +inf, and min() brings it back under the cap.
        let d = self.base_secs * self.factor.powi(attempt.min(1024) as i32);
        d.min(self.cap_secs)
    }

    /// The delay before retry `attempt`, jittered when a seed is set.
    /// Jitter is multiplicative in `[0.5, 1.0]` — a pure function of
    /// `(seed, attempt)` — so the jittered delay never exceeds the raw
    /// (capped) one and never drops below half of it.
    pub fn delay_secs(&self, attempt: u32) -> f64 {
        let raw = self.raw_delay_secs(attempt);
        match self.jitter_seed {
            None => raw,
            Some(seed) => raw * (0.5 + 0.5 * unit(seed, attempt)),
        }
    }
}

/// Splitmix64-derived uniform in `[0, 1)`, pure in `(seed, n)`.
fn unit(seed: u64, n: u32) -> f64 {
    let mut z = seed ^ (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn raw_schedule_doubles_then_caps() {
        let b = Backoff::new(0.1, 2.0, 1.0, 8);
        assert!((b.raw_delay_secs(0) - 0.1).abs() < 1e-12);
        assert!((b.raw_delay_secs(1) - 0.2).abs() < 1e-12);
        assert!((b.raw_delay_secs(2) - 0.4).abs() < 1e-12);
        assert!((b.raw_delay_secs(3) - 0.8).abs() < 1e-12);
        assert_eq!(b.raw_delay_secs(4), 1.0);
        assert_eq!(b.raw_delay_secs(30), 1.0);
    }

    #[test]
    fn allows_counts_retries() {
        let b = Backoff::new(0.1, 2.0, 1.0, 3);
        assert!(b.allows(0) && b.allows(2));
        assert!(!b.allows(3));
        assert!(!Backoff::new(0.1, 2.0, 1.0, 0).allows(0));
    }

    #[test]
    fn jitter_is_deterministic() {
        let b = Backoff::client_default().with_jitter(42);
        for attempt in 0..10 {
            assert_eq!(b.delay_secs(attempt), b.delay_secs(attempt));
        }
        let other = Backoff::client_default().with_jitter(43);
        assert_ne!(
            (0..10).map(|a| b.delay_secs(a)).collect::<Vec<_>>(),
            (0..10).map(|a| other.delay_secs(a)).collect::<Vec<_>>(),
        );
    }

    proptest! {
        #[test]
        fn raw_delays_monotone_and_capped(
            base in 0.0f64..10.0,
            factor in 1.0f64..4.0,
            cap in 0.0f64..60.0,
            attempts in 1u32..64,
        ) {
            let b = Backoff::new(base, factor, cap, attempts);
            let mut prev = 0.0f64;
            for a in 0..attempts {
                let d = b.raw_delay_secs(a);
                prop_assert!(d >= prev - 1e-12, "attempt {a}: {d} < {prev}");
                prop_assert!(d <= cap + 1e-12, "attempt {a}: {d} above cap {cap}");
                prop_assert!(d.is_finite());
                prev = d;
            }
        }

        #[test]
        fn jittered_delays_stay_bounded(
            base in 0.001f64..5.0,
            cap in 0.001f64..30.0,
            seed in any::<u64>(),
            attempt in 0u32..64,
        ) {
            let b = Backoff::new(base, 2.0, cap, 64).with_jitter(seed);
            let raw = b.raw_delay_secs(attempt);
            let d = b.delay_secs(attempt);
            prop_assert!(d <= raw + 1e-12, "jitter raised the delay: {d} > {raw}");
            prop_assert!(d >= raw * 0.5 - 1e-12, "jitter below half: {d} < {}", raw * 0.5);
        }
    }
}
