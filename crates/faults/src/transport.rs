//! Fault injection at the nephele block-transport layer.
//!
//! [`FaultingTransport`] wraps any [`BlockTransport`] and applies the same
//! fault taxonomy as [`CorruptingWriter`](crate::io::CorruptingWriter) —
//! but at the granularity the record layer actually ships: one `send` is
//! one self-describing frame. This is the adapter the chaos soak uses to
//! attack a whole `RecordWriter → transport → RecordReader` channel
//! without either endpoint knowing. What was injected is counted in
//! [`InjectStats`]; the adapter emits no trace events.

use crate::plan::{FaultAction, FaultPlan, InjectStats};
use adcomp_nephele::channel::BlockTransport;
use adcomp_nephele::error::Result;
use std::sync::{Arc, Mutex};

/// A [`BlockTransport`] decorator that deterministically corrupts, drops
/// or cuts the frames flowing through it.
///
/// Injection counters live behind a shared handle
/// ([`FaultingTransport::stats_handle`]) because the transport itself is
/// typically swallowed by a `Box<dyn BlockTransport>` (e.g. handed to a
/// `RecordWriter`), yet the harness still needs to know what was done to
/// the stream afterwards.
pub struct FaultingTransport<T: BlockTransport> {
    inner: T,
    plan: FaultPlan,
    scratch: Vec<u8>,
    stats: Arc<Mutex<InjectStats>>,
}

impl<T: BlockTransport> FaultingTransport<T> {
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultingTransport {
            inner,
            plan,
            scratch: Vec::new(),
            stats: Arc::new(Mutex::new(InjectStats::default())),
        }
    }

    /// What the adapter actually did so far.
    pub fn stats(&self) -> InjectStats {
        *self.stats.lock().unwrap()
    }

    /// Shared counter handle that stays readable after the transport has
    /// been boxed away into a `RecordWriter`.
    pub fn stats_handle(&self) -> Arc<Mutex<InjectStats>> {
        Arc::clone(&self.stats)
    }

    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: BlockTransport> BlockTransport for FaultingTransport<T> {
    fn send(&mut self, frame: &[u8]) -> Result<()> {
        let mut stats = *self.stats.lock().unwrap();
        stats.frames += 1;
        stats.bytes_in += frame.len() as u64;
        match self.plan.next_frame_action(frame.len()) {
            FaultAction::Pass => {
                self.inner.send(frame)?;
                stats.bytes_out += frame.len() as u64;
            }
            FaultAction::FlipBit { byte, bit } => {
                self.scratch.clear();
                self.scratch.extend_from_slice(frame);
                let idx = (byte % frame.len().max(1) as u64) as usize;
                self.scratch[idx] ^= 1 << (bit & 7);
                self.inner.send(&self.scratch)?;
                stats.flips += 1;
                stats.bytes_out += frame.len() as u64;
            }
            FaultAction::Drop => {
                stats.drops += 1;
            }
            FaultAction::Cut { keep_permille } => {
                let keep = (frame.len() as u64 * keep_permille as u64 / 1000) as usize;
                self.inner.send(&frame[..keep])?;
                stats.cuts += 1;
                stats.bytes_out += keep as u64;
            }
        }
        *self.stats.lock().unwrap() = stats;
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        self.inner.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultSpec;
    use adcomp_nephele::channel::mem_pair;
    use std::io::Read;

    #[test]
    fn quiet_transport_is_transparent() {
        let (tx, mut rx) = mem_pair(16);
        let mut t = FaultingTransport::new(tx, FaultPlan::new(FaultSpec::from_rate(1, 0.0)));
        t.send(b"frame a").unwrap();
        t.send(b"frame b").unwrap();
        t.close().unwrap();
        let mut wire = Vec::new();
        rx.read_to_end(&mut wire).unwrap();
        assert_eq!(wire, b"frame aframe b");
        let s = t.stats();
        assert_eq!((s.flips, s.drops, s.cuts), (0, 0, 0));
        assert_eq!(s.bytes_in, s.bytes_out);
    }

    #[test]
    fn hostile_transport_damages_deterministically() {
        let spec = FaultSpec::from_rate(77, 0.5);
        let run = || {
            let (tx, mut rx) = mem_pair(256);
            let mut t = FaultingTransport::new(tx, FaultPlan::new(spec));
            for i in 0..100u8 {
                t.send(&[i; 48]).unwrap();
            }
            t.close().unwrap();
            let mut wire = Vec::new();
            rx.read_to_end(&mut wire).unwrap();
            (t.stats(), wire)
        };
        let (s1, w1) = run();
        let (s2, w2) = run();
        assert_eq!(s1, s2);
        assert_eq!(w1, w2);
        assert!(s1.flips > 0 && s1.drops > 0 && s1.cuts > 0, "{s1:?}");
        assert_eq!(w1.len() as u64, s1.bytes_out);
    }
}
