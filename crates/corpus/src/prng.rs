//! Small deterministic PRNG (xoshiro256++) used across the workspace.
//!
//! The experiments in this repository must be exactly reproducible across
//! machines and crate versions, so instead of an external RNG crate we carry
//! a tiny, well-known generator whose output is fixed forever. The
//! implementation follows the public-domain reference by Blackman & Vigna.

/// A deterministic 64-bit PRNG (xoshiro256++) with convenience samplers.
///
/// Not cryptographically secure; used only for workload synthesis and
/// stochastic simulation.
#[derive(Debug, Clone)]
pub struct Prng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Creates a generator from a 64-bit seed. Equal seeds produce equal
    /// streams on every platform.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Prng { s }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0]
            .wrapping_add(s[3])
            .rotate_left(23)
            .wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform `u32`.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform byte.
    #[inline]
    pub fn next_u8(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift rejection-free mapping; bias is negligible for the
        // workload-synthesis ranges used here (n << 2^64).
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo < hi);
        lo + self.below(hi - lo)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed sample with the given mean.
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        // Inverse CDF; clamp the uniform away from 0 to avoid inf.
        let u = self.next_f64().max(1e-12);
        -mean * u.ln()
    }

    /// Standard normal sample (Box–Muller, one branch).
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        let u1 = self.next_f64().max(1e-12);
        let u2 = self.next_f64();
        let mag = (-2.0 * u1.ln()).sqrt();
        mean + sd * mag * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Geometric-ish positive run length with the given mean (at least 1).
    pub fn run_len(&mut self, mean: f64) -> usize {
        (self.exp(mean).round() as usize).max(1)
    }

    /// Fills a buffer with uniform random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let b = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&b[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Prng::new(42);
        let mut b = Prng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Prng::new(1);
        let mut b = Prng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 3);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut p = Prng::new(7);
        for _ in 0..10_000 {
            let x = p.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut p = Prng::new(9);
        for n in [1u64, 2, 3, 10, 1000] {
            for _ in 0..200 {
                assert!(p.below(n) < n);
            }
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut p = Prng::new(11);
        for _ in 0..1000 {
            let x = p.range(5, 10);
            assert!((5..10).contains(&x));
        }
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut p = Prng::new(3);
        let mut buf = [0u8; 13];
        p.fill_bytes(&mut buf);
        // Probability of the last 5 bytes all being zero is ~2^-40.
        assert!(buf[8..].iter().any(|&b| b != 0));
    }

    #[test]
    fn exp_mean_roughly_correct() {
        let mut p = Prng::new(5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| p.exp(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.2, "mean was {mean}");
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut p = Prng::new(6);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| p.normal(10.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1);
        assert!((var.sqrt() - 2.0).abs() < 0.1);
    }
}
