//! Token-bucket pacing, shared between examples and serve mode.
//!
//! [`TokenBucket`] is the pure math: given a target rate and a clock
//! reading it answers "how long must this write sleep to stay under
//! budget". It is clock-agnostic (callers pass `now` in seconds), so the
//! schedule is unit-testable without sleeping. [`ThrottledWriter`] is the
//! wall-clock `Write` adapter built on it (the shape
//! `examples/tcp_transfer.rs` used to hand-roll), and
//! [`SharedThrottle`] lets several connections of one tenant draw from a
//! single bucket — the serve-mode per-tenant bandwidth cap.

use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pure token-bucket state: bytes sent since `window_start` against an
/// allowance of `rate_bps * elapsed`.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_bps: f64,
    window_start: f64,
    sent_in_window: f64,
}

impl TokenBucket {
    /// A bucket refilling at `rate_bps` bytes per second, opened at
    /// clock reading `now` (seconds).
    pub fn new(rate_bps: f64, now: f64) -> Self {
        assert!(rate_bps > 0.0, "throttle rate must be positive");
        TokenBucket { rate_bps, window_start: now, sent_in_window: 0.0 }
    }

    /// Accounts `bytes` sent at clock reading `now` and returns the debt
    /// in seconds the sender must pause to stay at or under the rate
    /// (0.0 when within budget). Monotone in `bytes`, and never negative.
    pub fn debt_secs(&mut self, bytes: usize, now: f64) -> f64 {
        self.sent_in_window += bytes as f64;
        let elapsed = (now - self.window_start).max(0.0);
        let allowed = elapsed * self.rate_bps;
        if self.sent_in_window > allowed {
            (self.sent_in_window - allowed) / self.rate_bps
        } else {
            0.0
        }
    }
}

/// Preferred slice size for paced writes: small enough that sleeps stay
/// short and smooth, large enough to amortize syscalls.
pub const THROTTLE_SLICE: usize = 16 * 1024;

/// Caps writes to `rate_bps` with a token bucket (sleeps when exhausted).
pub struct ThrottledWriter<W: Write> {
    inner: W,
    bucket: TokenBucket,
    start: Instant,
}

impl<W: Write> ThrottledWriter<W> {
    pub fn new(inner: W, rate_bps: f64) -> Self {
        ThrottledWriter { inner, bucket: TokenBucket::new(rate_bps, 0.0), start: Instant::now() }
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
        let debt = self.bucket.debt_secs(n, self.start.elapsed().as_secs_f64());
        if debt > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(debt));
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

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
        let debt = self.bucket.lock().expect("throttle poisoned").debt_secs(bytes, now);
        if debt > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(debt));
        }
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
        // 500 bytes after one second at 1000 B/s: well under budget.
        assert_eq!(b.debt_secs(500, 1.0), 0.0);
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
