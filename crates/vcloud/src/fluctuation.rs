//! Stochastic processes modelling I/O throughput fluctuation.
//!
//! Section II of the paper measures three qualitatively different regimes:
//! near-constant throughput (native hardware), mildly noisy throughput
//! (local Eucalyptus cloud) and the violent on/off switching reported for
//! Amazon EC2 — "TCP/UDP throughput can vary between 1 GBit/s and zero at a
//! time granularity of tens of milliseconds" (Wang & Ng, INFOCOM'10, which
//! the paper's own EC2 runs confirm).
//!
//! All processes produce a multiplicative factor around 1.0 that scales a
//! nominal bandwidth, sampled at arbitrary (monotone) virtual times.

use adcomp_corpus::Prng;

/// A time-indexed multiplicative throughput factor.
pub trait Fluctuation: Send {
    /// Factor at virtual time `t` (seconds). Calls must use non-decreasing
    /// `t` — processes evolve state forward only.
    fn factor_at(&mut self, t: f64) -> f64;
}

/// No fluctuation: always 1.0.
#[derive(Debug, Clone, Default)]
pub struct Constant;

impl Fluctuation for Constant {
    fn factor_at(&mut self, _t: f64) -> f64 {
        1.0
    }
}

/// First-order autoregressive noise around 1.0, resampled on a fixed grid.
///
/// `x_{k+1} = rho * x_k + e_k`, `e_k ~ N(0, sigma)`; factor = `1 + x`,
/// clamped to stay positive.
#[derive(Debug, Clone)]
pub struct Ar1 {
    rho: f64,
    sigma: f64,
    step: f64,
    state: f64,
    next_t: f64,
    rng: Prng,
}

impl Ar1 {
    /// `sigma` is the innovation standard deviation; `step` the resampling
    /// interval in seconds.
    pub fn new(rho: f64, sigma: f64, step: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rho));
        assert!(sigma >= 0.0 && step > 0.0);
        Ar1 { rho, sigma, step, state: 0.0, next_t: 0.0, rng: Prng::new(seed ^ 0xA21) }
    }
}

impl Fluctuation for Ar1 {
    fn factor_at(&mut self, t: f64) -> f64 {
        while t >= self.next_t {
            self.state = self.rho * self.state + self.rng.normal(0.0, self.sigma);
            self.next_t += self.step;
        }
        (1.0 + self.state).max(0.05)
    }
}

/// Two-state on/off (Gilbert-style) process: a *good* state near full
/// throughput and a *bad* state near zero, with exponentially distributed
/// sojourn times — the EC2 regime.
#[derive(Debug, Clone)]
pub struct OnOff {
    good_factor: f64,
    bad_factor: f64,
    mean_good_s: f64,
    mean_bad_s: f64,
    in_good: bool,
    until_t: f64,
    rng: Prng,
}

impl OnOff {
    pub fn new(
        good_factor: f64,
        bad_factor: f64,
        mean_good_s: f64,
        mean_bad_s: f64,
        seed: u64,
    ) -> Self {
        assert!(good_factor > bad_factor && bad_factor >= 0.0);
        assert!(mean_good_s > 0.0 && mean_bad_s > 0.0);
        OnOff {
            good_factor,
            bad_factor,
            mean_good_s,
            mean_bad_s,
            in_good: true,
            until_t: 0.0,
            rng: Prng::new(seed ^ 0x0F0F),
        }
    }

    /// The paper-calibrated EC2 regime: swings between near-line-rate and
    /// near-zero on a tens-of-milliseconds timescale.
    pub fn ec2(seed: u64) -> Self {
        OnOff::new(1.0, 0.04, 0.060, 0.025, seed)
    }
}

impl Fluctuation for OnOff {
    fn factor_at(&mut self, t: f64) -> f64 {
        while t >= self.until_t {
            self.in_good = !self.in_good;
            let mean = if self.in_good { self.mean_good_s } else { self.mean_bad_s };
            self.until_t += self.rng.exp(mean);
        }
        if self.in_good {
            self.good_factor
        } else {
            self.bad_factor
        }
    }
}

/// Forwarding impl so combinators like [`Outages`] can wrap an
/// already-boxed process (e.g. the one a [`SharedLink`](crate::link)
/// was built with).
impl Fluctuation for Box<dyn Fluctuation> {
    fn factor_at(&mut self, t: f64) -> f64 {
        (**self).factor_at(t)
    }
}

/// Deterministic full link outages layered over any base process.
///
/// Unlike [`OnOff`], whose "bad" state still trickles a few percent of
/// line rate, an outage forces the factor to **exactly zero** — the link
/// is dead, nothing moves. This models hard stalls on a
/// [`SharedLink`](crate::link::SharedLink) (via
/// [`with_outages`](crate::link::SharedLink::with_outages)): live-migration
/// blackouts, ARP storms, or a neighbour VM saturating the host NIC
/// queue outright. It is kept as an input of the planned seeded
/// bandwidth trace that drives both the simulator and the real link. Up/outage sojourns are exponentially distributed from
/// a dedicated seeded stream, so two processes built with the same seed
/// stall at the same virtual times.
pub struct Outages<F: Fluctuation> {
    inner: F,
    mean_up_s: f64,
    mean_outage_s: f64,
    up: bool,
    until_t: f64,
    outages_seen: u64,
    rng: Prng,
}

impl<F: Fluctuation> Outages<F> {
    /// `mean_up_s` / `mean_outage_s` are the mean sojourn times of the
    /// healthy and dead states.
    pub fn new(inner: F, mean_up_s: f64, mean_outage_s: f64, seed: u64) -> Self {
        assert!(mean_up_s > 0.0 && mean_outage_s > 0.0);
        Outages {
            inner,
            mean_up_s,
            mean_outage_s,
            // The first `factor_at` flip lands in the *up* state, so a
            // fresh link starts healthy (mirrors `OnOff` mechanics).
            up: false,
            until_t: 0.0,
            outages_seen: 0,
            rng: Prng::new(seed ^ 0x007A6E5),
        }
    }

    /// How many distinct outage windows have started so far.
    pub fn outages_seen(&self) -> u64 {
        self.outages_seen
    }
}

impl<F: Fluctuation> Fluctuation for Outages<F> {
    fn factor_at(&mut self, t: f64) -> f64 {
        while t >= self.until_t {
            self.up = !self.up;
            let mean = if self.up { self.mean_up_s } else { self.mean_outage_s };
            if !self.up {
                self.outages_seen += 1;
            }
            self.until_t += self.rng.exp(mean);
        }
        if self.up {
            self.inner.factor_at(t)
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_one() {
        let mut c = Constant;
        assert_eq!(c.factor_at(0.0), 1.0);
        assert_eq!(c.factor_at(100.0), 1.0);
    }

    #[test]
    fn ar1_mean_near_one_and_positive() {
        let mut p = Ar1::new(0.9, 0.02, 0.1, 7);
        let mut sum = 0.0;
        let n = 10_000;
        for i in 0..n {
            let f = p.factor_at(i as f64 * 0.1);
            assert!(f > 0.0);
            sum += f;
        }
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn ar1_is_autocorrelated() {
        let mut p = Ar1::new(0.95, 0.05, 0.1, 3);
        let xs: Vec<f64> = (0..5000).map(|i| p.factor_at(i as f64 * 0.1) - 1.0).collect();
        let var: f64 = xs.iter().map(|x| x * x).sum::<f64>() / xs.len() as f64;
        let cov: f64 =
            xs.windows(2).map(|w| w[0] * w[1]).sum::<f64>() / (xs.len() - 1) as f64;
        let rho = cov / var;
        assert!(rho > 0.7, "lag-1 autocorrelation {rho}");
    }

    #[test]
    fn onoff_alternates_between_exactly_two_levels() {
        let mut p = OnOff::new(1.0, 0.1, 0.05, 0.02, 11);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..20_000 {
            let f = p.factor_at(i as f64 * 0.001);
            seen.insert((f * 1000.0) as i64);
        }
        assert_eq!(seen.len(), 2, "factors seen: {seen:?}");
    }

    #[test]
    fn onoff_occupancy_matches_sojourn_means() {
        let mut p = OnOff::new(1.0, 0.0, 0.06, 0.02, 5);
        let mut good = 0u32;
        let n = 200_000;
        for i in 0..n {
            if p.factor_at(i as f64 * 0.001) > 0.5 {
                good += 1;
            }
        }
        let frac = good as f64 / n as f64;
        let expect = 0.06 / 0.08;
        assert!((frac - expect).abs() < 0.05, "good fraction {frac} vs {expect}");
    }

    #[test]
    fn ec2_process_is_violent() {
        let mut p = OnOff::ec2(1);
        let xs: Vec<f64> = (0..50_000).map(|i| p.factor_at(i as f64 * 0.001)).collect();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(0.0, f64::max);
        assert!(min < 0.1 && max > 0.9, "range [{min}, {max}]");
    }

    #[test]
    fn outages_force_factor_to_exact_zero() {
        let mut p = Outages::new(Constant, 0.05, 0.02, 9);
        let mut zeros = 0u32;
        let mut ones = 0u32;
        for i in 0..50_000 {
            let f = p.factor_at(i as f64 * 0.001);
            if f == 0.0 {
                zeros += 1;
            } else if f == 1.0 {
                ones += 1;
            } else {
                panic!("outage combinator leaked factor {f}");
            }
        }
        assert!(zeros > 0 && ones > 0, "zeros {zeros} ones {ones}");
        assert!(p.outages_seen() > 10);
        // Long-run availability is mean_up / (mean_up + mean_outage).
        let frac_up = ones as f64 / 50_000.0;
        assert!((frac_up - 0.05 / 0.07).abs() < 0.08, "up fraction {frac_up}");
    }

    #[test]
    fn outages_pass_inner_process_through_when_up() {
        // Same seed: the wrapped AR(1) must agree with a bare copy at
        // every up-instant (outages never perturb the inner stream at
        // times it actually gets sampled).
        let mut bare = Ar1::new(0.9, 0.05, 0.01, 21);
        // mean_up so large the first up window effectively never ends.
        let mut wrapped = Outages::new(Ar1::new(0.9, 0.05, 0.01, 21), 1e9, 100.0, 4);
        for i in 0..40 {
            let t = i as f64 * 0.005;
            assert_eq!(wrapped.factor_at(t), bare.factor_at(t));
        }
    }

    #[test]
    fn outages_deterministic_and_boxable() {
        let mk = || {
            let inner: Box<dyn Fluctuation> = Box::new(OnOff::ec2(5));
            Outages::new(inner, 0.2, 0.05, 77)
        };
        let (mut a, mut b) = (mk(), mk());
        for i in 0..5_000 {
            let t = i as f64 * 0.002;
            assert_eq!(a.factor_at(t), b.factor_at(t));
        }
        assert_eq!(a.outages_seen(), b.outages_seen());
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut a = Ar1::new(0.9, 0.05, 0.1, 42);
        let mut b = Ar1::new(0.9, 0.05, 0.1, 42);
        for i in 0..100 {
            let t = i as f64;
            assert_eq!(a.factor_at(t), b.factor_at(t));
        }
    }
}
