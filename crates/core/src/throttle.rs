//! Token-bucket pacing, shared between examples and serve mode.
//!
//! A private token bucket is the pure math: given a target rate and a
//! clock reading it answers "how long must this write sleep to stay under
//! budget". It is clock-agnostic (callers pass `now` in seconds), so the
//! schedule is unit-testable without sleeping. [`SharedThrottle`] is the
//! one wall-clock pacer built on it: several streams (every connection of
//! one serve tenant) may draw from one bucket. [`ThrottledWriter`] and
//! [`ThrottledReader`] pace a `Write` or a `Read` through one.

use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Most credit a bucket keeps, in seconds of its rate. A sender idle for
/// longer may then send `rate × BURST_SECS` bytes at once and no more;
/// without a bound, a tenant idle for `s` seconds could send `s × rate`
/// bytes at memory speed. A 16 KiB burst (one slice) also bounds it, but
/// costs short DYNAMIC transfers on a throttled link much more
/// (EXPERIMENTS.md §"Tenant cap burst").
const BURST_SECS: f64 = 0.05;

/// Pure token-bucket state: credit earned at `rate_bps` since the last
/// account, capped at [`BURST_SECS`] of the rate, less the bytes sent.
#[derive(Debug)]
struct TokenBucket {
    rate_bps: f64,
    /// Clock reading of the last account.
    last: f64,
    /// Bytes the sender may still send now; negative is a debt.
    credit: f64,
}

impl TokenBucket {
    /// A bucket refilling at `rate_bps` bytes per second, opened at
    /// clock reading `now` (seconds) with no credit.
    fn new(rate_bps: f64, now: f64) -> Self {
        assert!(rate_bps > 0.0, "throttle rate must be positive");
        TokenBucket { rate_bps, last: now, credit: 0.0 }
    }

    /// Accounts `bytes` sent at clock reading `now` and returns the debt
    /// in seconds the sender must pause to stay at or under the rate
    /// (0.0 when within budget). Monotone in `bytes`, and never negative.
    /// A reading older than the last one earns nothing.
    fn debt_secs(&mut self, bytes: usize, now: f64) -> f64 {
        let earned = (now - self.last).max(0.0) * self.rate_bps;
        self.last = self.last.max(now);
        self.credit = (self.credit + earned).min(self.rate_bps * BURST_SECS) - bytes as f64;
        (-self.credit).max(0.0) / self.rate_bps
    }
}

/// Preferred slice size for paced writes: small enough that sleeps stay
/// short and smooth, large enough to amortize syscalls.
const THROTTLE_SLICE: usize = 16 * 1024;

/// A token bucket shared by several streams (e.g. every connection of one
/// tenant). Cloning shares the underlying bucket.
#[derive(Clone)]
pub struct SharedThrottle {
    bucket: Arc<Mutex<TokenBucket>>,
    start: Instant,
}

impl SharedThrottle {
    pub fn new(rate_bps: f64) -> Self {
        SharedThrottle {
            bucket: Arc::new(Mutex::new(TokenBucket::new(rate_bps, 0.0))),
            start: Instant::now(),
        }
    }

    /// Accounts `bytes` against the shared budget and sleeps off any debt.
    pub fn pace(&self, bytes: usize) {
        let now = self.start.elapsed().as_secs_f64();
        // Only `debt_secs` runs under the lock, and nothing between its two
        // field writes can panic, so even a poisoned lock guards a whole
        // bucket: it is taken over.
        let debt = self
            .bucket
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .debt_secs(bytes, now);
        if debt > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(debt));
        }
    }
}

/// Caps writes to `rate_bps` through a bucket of its own (sleeps when
/// exhausted).
pub struct ThrottledWriter<W: Write> {
    inner: W,
    throttle: SharedThrottle,
}

impl<W: Write> ThrottledWriter<W> {
    pub fn new(inner: W, rate_bps: f64) -> Self {
        ThrottledWriter { inner, throttle: SharedThrottle::new(rate_bps) }
    }

    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for ThrottledWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // Pace in slices so sleeps stay short and smooth.
        let n = buf.len().min(THROTTLE_SLICE);
        self.inner.write_all(&buf[..n])?;
        self.throttle.pace(n);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A reader paced by a [`SharedThrottle`] — serve mode wraps each tenant
/// connection's socket in one so all of that tenant's streams together
/// stay under the per-tenant ingest cap.
pub struct ThrottledReader<R: Read> {
    inner: R,
    throttle: SharedThrottle,
}

impl<R: Read> ThrottledReader<R> {
    pub fn new(inner: R, throttle: SharedThrottle) -> Self {
        ThrottledReader { inner, throttle }
    }

    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for ThrottledReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let cap = buf.len().min(THROTTLE_SLICE);
        let n = self.inner.read(&mut buf[..cap])?;
        if n > 0 {
            self.throttle.pace(n);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_debt_under_budget() {
        let mut b = TokenBucket::new(1000.0, 0.0);
        // 50 bytes after one second at 1000 B/s: within the 50 ms burst.
        assert_eq!(b.debt_secs(50, 1.0), 0.0);
    }

    #[test]
    fn idle_time_banks_at_most_one_burst() {
        let mut b = TokenBucket::new(1000.0, 0.0);
        // Ten idle seconds at 1000 B/s bank 50 bytes, not 10 000.
        let debt = b.debt_secs(1050, 10.0);
        assert!((debt - 1.0).abs() < 1e-9, "debt {debt}");
    }

    /// Seeded schedules of sends and idle gaps, from one sender that
    /// sleeps off its debt and from two that share the bucket: in every
    /// window `[a, b]`, the bytes admitted by `b` (those sent in the
    /// window, less the debt still owed at `b`) are at most
    /// `rate × (b − a) + burst`.
    #[test]
    fn admitted_bytes_stay_under_rate_plus_burst_in_every_window() {
        let mut x = 0x7B0Cu64;
        let mut next = |m: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        for case in 0..200 {
            let rate = 1_000.0 + next(1_000_000) as f64;
            let burst = rate * BURST_SECS;
            let mut bucket = TokenBucket::new(rate, 0.0);
            // (clock reading, bytes, debt owed after the send)
            let mut sends: Vec<(f64, f64, f64)> = Vec::new();
            let mut now = 0.0;
            let mut paid_until = [0.0f64; 2];
            for _ in 0..60 {
                let who = next(2) as usize;
                let mut t = now;
                match next(4) {
                    // An idle gap of up to a second.
                    0 => t += next(1_000) as f64 / 1_000.0,
                    // A sender that waits out its own debt first.
                    1 | 2 => t = t.max(paid_until[who]),
                    // A send straight after the last one, debt or not.
                    _ => {}
                }
                now = t;
                let bytes = 1 + next(2 * THROTTLE_SLICE as u64) as usize;
                let debt = bucket.debt_secs(bytes, now);
                assert!(debt >= 0.0);
                paid_until[who] = now + debt;
                sends.push((now, bytes as f64, debt));
            }
            for (j, &(a, _, _)) in sends.iter().enumerate() {
                let mut sent = 0.0;
                for &(b, bytes, debt) in &sends[j..] {
                    sent += bytes;
                    let admitted = sent - debt * rate;
                    let cap = rate * (b - a) + burst;
                    assert!(
                        admitted <= cap * (1.0 + 1e-9) + 1e-6,
                        "case {case}: {admitted} B admitted in [{a}, {b}] over a cap of {cap}"
                    );
                }
            }
        }
    }

    #[test]
    fn debt_is_shortfall_over_rate() {
        let mut b = TokenBucket::new(1000.0, 0.0);
        // 3000 bytes instantly at 1000 B/s: 3 seconds of debt.
        let debt = b.debt_secs(3000, 0.0);
        assert!((debt - 3.0).abs() < 1e-9, "debt {debt}");
        // After sleeping the debt off, the next small write is free.
        assert_eq!(b.debt_secs(0, 3.0), 0.0);
    }

    #[test]
    fn debt_never_negative_and_monotone_in_bytes() {
        let mut x = 0x2E5Au64;
        for _ in 0..500 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let rate = 1.0 + (x >> 48) as f64;
            let now = ((x >> 32) & 0xFFFF) as f64 / 64.0;
            let small = (x & 0xFFF) as usize;
            let mut a = TokenBucket::new(rate, 0.0);
            let mut b = TokenBucket::new(rate, 0.0);
            let da = a.debt_secs(small, now);
            let db = b.debt_secs(small + 1024, now);
            assert!(da >= 0.0 && db >= 0.0);
            assert!(db >= da, "more bytes cannot owe less: {db} < {da}");
        }
    }

    #[test]
    fn throttled_writer_caps_rate() {
        let start = Instant::now();
        let mut w = ThrottledWriter::new(Vec::new(), 200_000.0);
        w.write_all(&[0u8; 100_000]).unwrap();
        let secs = start.elapsed().as_secs_f64();
        // 100 kB at 200 kB/s takes ≥ 0.5 s (minus one slice of slack).
        assert!(secs > 0.35, "finished in {secs}s — not throttled");
        assert_eq!(w.into_inner().len(), 100_000);
    }

    #[test]
    fn shared_throttle_paces_across_clones() {
        let t = SharedThrottle::new(400_000.0);
        let t2 = t.clone();
        let start = Instant::now();
        let h = std::thread::spawn(move || t2.pace(100_000));
        t.pace(100_000);
        h.join().unwrap();
        let secs = start.elapsed().as_secs_f64();
        // 200 kB combined at 400 kB/s: ≥ 0.5 s together.
        assert!(secs > 0.35, "shared budget not enforced: {secs}s");
    }

    #[test]
    fn throttled_reader_delivers_all_bytes() {
        let data = vec![7u8; 50_000];
        let mut r = ThrottledReader::new(&data[..], SharedThrottle::new(1e9));
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }
}
