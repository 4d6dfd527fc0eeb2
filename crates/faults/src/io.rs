//! Composable `Read`/`Write` fault-injection adapters.
//!
//! Each adapter wraps an inner stream and applies the deterministic
//! decisions of a [`FaultPlan`]:
//!
//! * [`CorruptingWriter`] — frame-granular bit flips, frame drops and
//!   mid-frame cuts (each `write` call is treated as one frame, which is
//!   exactly how `FrameWriter`/`BlockTransport` emit);
//! * [`FlakyReader`] — transient `WouldBlock`-style errors in
//!   deterministic bounded bursts, exercising the bounded-retry recovery
//!   path.
//!
//! Injection events are mirrored into an optional trace sink as
//! [`FaultEvent`]s (`inject_flip` / `inject_drop` / `inject_cut` /
//! `inject_transient`), so a trace shows cause and response interleaved.

use crate::plan::{FaultAction, FaultPlan, InjectStats};
use adcomp_trace::{FaultEvent, NullSink, TraceEvent, TraceSink, NO_EPOCH};
use std::io::{self, Read, Write};

fn emit<S: TraceSink>(sink: &S, kind: &'static str, bytes: u64, attempt: u64) {
    if sink.enabled() {
        sink.emit(&TraceEvent::Fault(FaultEvent {
            epoch: NO_EPOCH,
            t: 0.0,
            kind,
            bytes,
            attempt,
        }));
    }
}

/// Frame-granular corrupting writer: every `write` call is one frame and
/// may be passed through, bit-flipped, dropped, or cut short. The caller
/// always observes full acceptance (`Ok(buf.len())`), as a faulty network
/// would — the damage is only visible at the receiver.
pub struct CorruptingWriter<W: Write, S: TraceSink = NullSink> {
    inner: W,
    plan: FaultPlan,
    sink: S,
    scratch: Vec<u8>,
    stats: InjectStats,
}

impl<W: Write> CorruptingWriter<W> {
    pub fn new(inner: W, plan: FaultPlan) -> Self {
        CorruptingWriter::with_sink(inner, plan, NullSink)
    }
}

impl<W: Write, S: TraceSink> CorruptingWriter<W, S> {
    pub fn with_sink(inner: W, plan: FaultPlan, sink: S) -> Self {
        CorruptingWriter { inner, plan, sink, scratch: Vec::new(), stats: InjectStats::default() }
    }

    pub fn stats(&self) -> InjectStats {
        self.stats
    }

    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write, S: TraceSink> Write for CorruptingWriter<W, S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stats.frames += 1;
        self.stats.bytes_in += buf.len() as u64;
        match self.plan.next_frame_action(buf.len()) {
            FaultAction::Pass => {
                self.inner.write_all(buf)?;
                self.stats.bytes_out += buf.len() as u64;
            }
            FaultAction::FlipBit { byte, bit } => {
                self.scratch.clear();
                self.scratch.extend_from_slice(buf);
                let idx = (byte % buf.len() as u64) as usize;
                self.scratch[idx] ^= 1 << (bit & 7);
                self.inner.write_all(&self.scratch)?;
                self.stats.flips += 1;
                self.stats.bytes_out += buf.len() as u64;
                emit(&self.sink, "inject_flip", buf.len() as u64, idx as u64);
            }
            FaultAction::Drop => {
                self.stats.drops += 1;
                emit(&self.sink, "inject_drop", buf.len() as u64, self.stats.frames);
            }
            FaultAction::Cut { keep_permille } => {
                let keep = (buf.len() as u64 * keep_permille as u64 / 1000) as usize;
                self.inner.write_all(&buf[..keep])?;
                self.stats.cuts += 1;
                self.stats.bytes_out += keep as u64;
                emit(&self.sink, "inject_cut", (buf.len() - keep) as u64, keep as u64);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Injects deterministic bounded bursts of transient errors before reads.
pub struct FlakyReader<R: Read, S: TraceSink = NullSink> {
    inner: R,
    plan: FaultPlan,
    sink: S,
    burst_left: u32,
    stats: InjectStats,
}

impl<R: Read> FlakyReader<R> {
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        FlakyReader::with_sink(inner, plan, NullSink)
    }
}

impl<R: Read, S: TraceSink> FlakyReader<R, S> {
    pub fn with_sink(inner: R, plan: FaultPlan, sink: S) -> Self {
        FlakyReader { inner, plan, sink, burst_left: 0, stats: InjectStats::default() }
    }

    pub fn stats(&self) -> InjectStats {
        self.stats
    }

    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read, S: TraceSink> Read for FlakyReader<R, S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.burst_left == 0 {
            self.burst_left = self.plan.next_transient_burst();
        }
        if self.burst_left > 0 {
            self.burst_left -= 1;
            self.stats.transients += 1;
            emit(&self.sink, "inject_transient", 0, self.stats.transients);
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "injected transient stall"));
        }
        let n = self.inner.read(buf)?;
        self.stats.bytes_out += n as u64;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultSpec;

    #[test]
    fn quiet_corrupting_writer_is_transparent() {
        let mut w = CorruptingWriter::new(Vec::new(), FaultPlan::new(FaultSpec::quiet(3)));
        w.write_all(b"frame one").unwrap();
        w.write_all(b"frame two").unwrap();
        assert_eq!(w.stats().flips + w.stats().drops + w.stats().cuts, 0);
        assert_eq!(w.into_inner(), b"frame oneframe two");
    }

    #[test]
    fn corrupting_writer_damages_deterministically() {
        let spec = FaultSpec::from_rate(11, 0.5);
        let run = || {
            let mut w = CorruptingWriter::new(Vec::new(), FaultPlan::new(spec));
            for i in 0..50u8 {
                w.write_all(&[i; 64]).unwrap();
            }
            (w.stats(), w.into_inner())
        };
        let (s1, b1) = run();
        let (s2, b2) = run();
        assert_eq!(s1, s2);
        assert_eq!(b1, b2);
        assert!(s1.flips + s1.drops + s1.cuts > 0, "{s1:?}");
        assert!(b1.len() < 50 * 64, "drops/cuts should shrink the stream");
    }

    #[test]
    fn flaky_reader_errors_then_recovers() {
        let data = vec![7u8; 4096];
        let mut r = FlakyReader::new(&data[..], FaultPlan::new(FaultSpec::from_rate(5, 0.4)));
        let mut out = Vec::new();
        let mut buf = [0u8; 257];
        let mut transients = 0;
        loop {
            match r.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => transients += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(out, data, "transient errors must not lose bytes");
        assert!(transients > 0);
        assert_eq!(r.stats().transients, transients);
    }
}
