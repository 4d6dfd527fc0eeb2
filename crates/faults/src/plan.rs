//! Seeded, schedule-driven fault plans.
//!
//! A [`FaultSpec`] is a declarative `(seed, rates)` description of how
//! hostile a link is; a [`FaultPlan`] turns it into a deterministic stream
//! of per-frame [`FaultAction`]s.
//! Two plans built from equal specs make identical decisions on every
//! platform (the PRNG is the workspace's fixed xoshiro256++), which is what
//! lets the chaos soak assert byte-identical summaries for a fixed seed.

use adcomp_corpus::Prng;

/// Declarative description of an injected fault workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Master seed: it pins the whole schedule.
    pub seed: u64,
    /// Probability that a frame gets a single bit flip.
    pub flip_rate: f64,
    /// Probability that a frame is dropped entirely.
    pub drop_rate: f64,
    /// Probability that a frame is cut mid-way (stream truncation /
    /// mid-frame cut; everything after the cut in that frame is lost).
    pub cut_rate: f64,
}

impl FaultSpec {
    /// The `(seed, rate)` form: one knob split across the fault taxonomy —
    /// half bit flips, a quarter drops, a quarter cuts. Rate 0 makes the
    /// adapters transparent pass-throughs.
    pub fn from_rate(seed: u64, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        FaultSpec { seed, flip_rate: rate * 0.5, drop_rate: rate * 0.25, cut_rate: rate * 0.25 }
    }
}

/// What happens to one frame on its way through a faulty adapter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Delivered untouched.
    Pass,
    /// One bit flipped at this byte/bit position (modulo frame length).
    FlipBit { byte: u64, bit: u8 },
    /// Frame silently discarded.
    Drop,
    /// Frame cut: only `keep_permille`/1000 of its bytes are delivered.
    Cut { keep_permille: u16 },
}

/// Deterministic decision stream for one adapter.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    frames: Prng,
}

impl FaultPlan {
    pub fn new(spec: FaultSpec) -> Self {
        // The xor constant keeps the stream distinct from the seed's own.
        FaultPlan { spec, frames: Prng::new(spec.seed ^ 0xF0A7_11E5_0000_0001) }
    }

    /// Decides the fate of the next frame of `frame_len` bytes.
    pub fn next_frame_action(&mut self, frame_len: usize) -> FaultAction {
        // One uniform draw partitioned by the rates: the decision sequence
        // is a pure function of (seed, call index), independent of
        // frame_len except for the flip position.
        let u = self.frames.next_f64();
        let s = self.spec;
        if u < s.flip_rate {
            let byte = self.frames.next_u64();
            let bit = (self.frames.next_u32() % 8) as u8;
            if frame_len == 0 {
                return FaultAction::Pass;
            }
            FaultAction::FlipBit { byte, bit }
        } else if u < s.flip_rate + s.drop_rate {
            // Burn the draws a flip would have used so downstream decisions
            // do not depend on which branch was taken.
            let _ = self.frames.next_u64();
            let _ = self.frames.next_u32();
            FaultAction::Drop
        } else if u < s.flip_rate + s.drop_rate + s.cut_rate {
            let keep = (self.frames.next_u64() % 1000) as u16;
            let _ = self.frames.next_u32();
            FaultAction::Cut { keep_permille: keep }
        } else {
            let _ = self.frames.next_u64();
            let _ = self.frames.next_u32();
            FaultAction::Pass
        }
    }
}

/// Counters an injecting adapter keeps about what it actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectStats {
    pub frames: u64,
    pub flips: u64,
    pub drops: u64,
    pub cuts: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_schedules() {
        let spec = FaultSpec::from_rate(42, 0.1);
        let mut a = FaultPlan::new(spec);
        let mut b = FaultPlan::new(spec);
        for len in [16usize, 1000, 77, 131072, 5] {
            assert_eq!(a.next_frame_action(len), b.next_frame_action(len));
        }
    }

    #[test]
    fn quiet_spec_always_passes() {
        let mut p = FaultPlan::new(FaultSpec::from_rate(7, 0.0));
        for _ in 0..100 {
            assert_eq!(p.next_frame_action(64), FaultAction::Pass);
        }
    }

    #[test]
    fn rates_are_roughly_respected() {
        let mut p = FaultPlan::new(FaultSpec::from_rate(1, 0.2));
        let mut faults = 0;
        const N: usize = 5000;
        for _ in 0..N {
            if p.next_frame_action(1024) != FaultAction::Pass {
                faults += 1;
            }
        }
        let frac = faults as f64 / N as f64;
        assert!((0.15..0.25).contains(&frac), "fault fraction {frac}");
    }
}
