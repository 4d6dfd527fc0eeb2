//! The `std::io` fault-injection adapter: [`CorruptingWriter`] wraps an
//! inner stream and applies the deterministic decisions of a
//! [`FaultPlan`] — frame-granular bit flips, frame drops and mid-frame cuts
//! (each `write` call is treated as one frame, which is exactly how
//! `FrameWriter` emits, under every stream and record channel).
//!
//! What was injected is counted in [`InjectStats`]; the adapter emits no
//! trace events.

use crate::plan::{FaultAction, FaultPlan, InjectStats};
use std::io::{self, Write};

/// Frame-granular corrupting writer: every `write` call is one frame and
/// may be passed through, bit-flipped, dropped, or cut short. The caller
/// always observes full acceptance (`Ok(buf.len())`), as a faulty network
/// would — the damage is only visible at the receiver.
pub struct CorruptingWriter<W: Write> {
    inner: W,
    plan: FaultPlan,
    scratch: Vec<u8>,
    stats: InjectStats,
}

impl<W: Write> CorruptingWriter<W> {
    pub fn new(inner: W, plan: FaultPlan) -> Self {
        CorruptingWriter { inner, plan, scratch: Vec::new(), stats: InjectStats::default() }
    }

    pub fn stats(&self) -> InjectStats {
        self.stats
    }

    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for CorruptingWriter<W> {
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
            }
            FaultAction::Drop => {
                self.stats.drops += 1;
            }
            FaultAction::Cut { keep_permille } => {
                let keep = (buf.len() as u64 * keep_permille as u64 / 1000) as usize;
                self.inner.write_all(&buf[..keep])?;
                self.stats.cuts += 1;
                self.stats.bytes_out += keep as u64;
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultSpec;

    #[test]
    fn quiet_corrupting_writer_is_transparent() {
        let mut w = CorruptingWriter::new(Vec::new(), FaultPlan::new(FaultSpec::from_rate(3, 0.0)));
        w.write_all(b"frame one").unwrap();
        w.write_all(b"frame two").unwrap();
        assert_eq!(w.stats().flips + w.stats().drops + w.stats().cuts, 0);
        assert_eq!(w.stats().bytes_in, w.stats().bytes_out);
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
        assert!(s1.flips > 0 && s1.drops > 0 && s1.cuts > 0, "{s1:?}");
        assert!(b1.len() < 50 * 64, "drops/cuts should shrink the stream");
        assert_eq!(b1.len() as u64, s1.bytes_out);
    }
}
