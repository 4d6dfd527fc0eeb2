//! Algorithm 1 of the paper: `GetNextCompressionLevel(cdr, pdr, ccl)`.
//!
//! The controller adapts the compression level purely in response to
//! changes in the **application data rate** — the rate at which the
//! application can hand data to the (compressing) channel. It deliberately
//! ignores CPU utilization and displayed I/O bandwidth, which Section II of
//! the paper shows to be unreliable inside virtual machines.
//!
//! Three cases per epoch (every `t` seconds):
//!
//! 1. **Stable** (`|cdr − pdr| ≤ α·pdr`): once the exponential backoff for
//!    the current level expires, optimistically probe the next level in the
//!    direction of the last change (`inc`).
//! 2. **Improved** (`cdr − pdr > α·pdr`): reward the current level by
//!    incrementing its backoff exponent — probes away from good levels
//!    decay exponentially.
//! 3. **Degraded**: reset the current level's backoff and revert the last
//!    change immediately (within one epoch, as the paper emphasizes).
//!
//! `ccl`, `inc` and `pdr` are updated outside the core algorithm, exactly
//! as the paper notes below Algorithm 1. [`RateBasedModel`] holds that
//! state and is the paper's [`DecisionModel`].

use crate::epoch::EpochContext;
use crate::model::{Decision, DecisionModel};
use adcomp_trace::MAX_LEVELS;

/// Tuning parameters of the decision model.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use = "a config does nothing until a RateBasedModel is built from it"]
pub struct ControllerConfig {
    /// Relative dead-band α: rate changes within `α × pdr` count as "no
    /// change". The paper found 0.2 reasonable.
    pub alpha: f64,
    /// Number of compression levels (paper prototype: 4).
    pub num_levels: usize,
    /// Cap on backoff exponents so `2^bck` cannot overflow and a long-lived
    /// good level can still be probed eventually.
    pub max_backoff_exp: u32,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig { alpha: 0.2, num_levels: 4, max_backoff_exp: 16 }
    }
}

/// Which branch of Algorithm 1 fired — exposed for traces and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionCase {
    /// First observation: `pdr` seeded with `cdr`; treated as stable.
    Seed,
    /// Rate stable, backoff still running.
    Stable,
    /// Rate stable, backoff expired → optimistic probe.
    Probe,
    /// Rate improved → backoff reward.
    Improved,
    /// Rate degraded → immediate revert.
    Degraded,
}

impl DecisionCase {
    /// Stable lowercase name used in trace events and JSONL output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DecisionCase::Seed => "seed",
            DecisionCase::Stable => "stable",
            DecisionCase::Probe => "probe",
            DecisionCase::Improved => "improved",
            DecisionCase::Degraded => "degraded",
        }
    }
}

/// The paper's model (Table II row `DYNAMIC`): Algorithm 1's Table I
/// state, stepped once per epoch by [`DecisionModel::decide`].
#[derive(Debug, Clone)]
pub struct RateBasedModel {
    cfg: ControllerConfig,
    /// `ccl`: currently applied compression level.
    ccl: usize,
    /// `c`: decision calls since the last level change.
    c: u64,
    /// `inc`: whether the last level change was an increase.
    inc: bool,
    /// `bck`: per-level backoff exponents (first `num_levels` used).
    bck: [u32; MAX_LEVELS],
    /// `pdr`: application data rate of the previous epoch.
    pdr: Option<f64>,
}

impl RateBasedModel {
    pub fn new(cfg: ControllerConfig) -> Self {
        assert!(cfg.num_levels >= 1, "need at least one level");
        assert!(cfg.num_levels <= MAX_LEVELS, "at most {MAX_LEVELS} levels");
        assert!(cfg.alpha >= 0.0, "alpha must be non-negative");
        RateBasedModel { cfg, ccl: 0, c: 0, inc: true, bck: [0; MAX_LEVELS], pdr: None }
    }

    /// Paper defaults: α = 0.2, four levels.
    pub fn paper_default() -> Self {
        RateBasedModel::new(ControllerConfig::default())
    }

    /// Forgets all backoff state while keeping the current level —
    /// optimistic probing resumes at the next stable epoch. Used by the
    /// entropy-guided extension when the data's compressibility visibly
    /// changes (the paper notes that accumulated backoff at level 0 delays
    /// the reaction to such changes).
    pub(crate) fn forget_backoffs(&mut self) {
        self.bck.fill(0);
        self.c = 0;
    }
}

impl DecisionModel for RateBasedModel {
    fn num_levels(&self) -> usize {
        self.cfg.num_levels
    }

    /// Feeds one epoch's application data rate (`cdr`, bytes/second) and
    /// returns the level for the next epoch: Algorithm 1 plus the
    /// out-of-algorithm updates of `ccl`, `inc` and `pdr` described in the
    /// paper. The context is not read.
    fn decide(&mut self, cdr: f64, _ctx: &EpochContext) -> Decision {
        let prev_pdr = self.pdr;
        // "On the first call of the decision algorithm, pdr is set to cdr"
        // — d becomes 0 and the stable case applies, so with fresh backoffs
        // the first probe happens immediately.
        let pdr = self.pdr.unwrap_or(cdr);

        let d = cdr - pdr;
        self.c += 1;
        let mut ncl = self.ccl as i64;
        let case;
        if d.abs() <= self.cfg.alpha * pdr {
            // Case 1: no change in application data rate.
            if self.c >= 1u64 << self.bck[self.ccl].min(62) {
                ncl += if self.inc { 1 } else { -1 };
                self.c = 0;
                case = if self.pdr.is_none() { DecisionCase::Seed } else { DecisionCase::Probe };
            } else {
                case = DecisionCase::Stable;
            }
        } else if d > 0.0 {
            // Case 2: application data rate improved.
            self.bck[self.ccl] = (self.bck[self.ccl] + 1).min(self.cfg.max_backoff_exp);
            self.c = 0;
            case = DecisionCase::Improved;
        } else {
            // Case 3: application data rate degraded — revert immediately.
            self.bck[self.ccl] = 0;
            ncl += if self.inc { -1 } else { 1 };
            self.c = 0;
            case = DecisionCase::Degraded;
        }

        // Boundary handling (the paper's pseudo code leaves this implicit):
        // clamp into the valid range; if an optimistic *probe* bounced off a
        // boundary, reflect it so probing can continue in the only possible
        // direction.
        let n = self.cfg.num_levels as i64;
        if ncl < 0 {
            ncl = if case == DecisionCase::Probe && n > 1 { 1 } else { 0 };
        } else if ncl >= n {
            ncl = if case == DecisionCase::Probe && n > 1 { n - 2 } else { n - 1 };
        }
        let ncl = ncl as usize;

        // Out-of-algorithm updates (paper: "inc is usually updated outside
        // of the displayed algorithm depending on ccl and the return value
        // ncl").
        if ncl != self.ccl {
            self.inc = ncl > self.ccl;
            self.ccl = ncl;
        }
        self.pdr = Some(cdr);

        Decision { level: self.ccl, case: Some(case), pdr: prev_pdr, backoffs: Some(self.bck) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl(levels: usize) -> RateBasedModel {
        RateBasedModel::new(ControllerConfig { alpha: 0.2, num_levels: levels, max_backoff_exp: 16 })
    }

    fn observe(c: &mut RateBasedModel, cdr: f64) -> Decision {
        c.decide(cdr, &EpochContext::default())
    }

    #[test]
    fn first_epoch_probes_upward() {
        let mut c = ctl(4);
        // First call: pdr = cdr, stable case, backoff 2^0 = 1 expired.
        let d = observe(&mut c, 100.0);
        assert_eq!(d.level, 1);
        assert!(c.inc);
    }

    #[test]
    fn improvement_rewards_level_with_backoff() {
        let mut c = ctl(4);
        let _ = observe(&mut c, 100.0); // -> level 1
        let d = observe(&mut c, 200.0); // big improvement at level 1
        assert_eq!(d.case, Some(DecisionCase::Improved));
        assert_eq!(d.level, 1, "improvement itself does not switch");
        assert_eq!(c.bck[1], 1);
    }

    #[test]
    fn degradation_reverts_within_one_epoch() {
        let mut c = ctl(4);
        let _ = observe(&mut c, 100.0); // 0 -> 1
        let _ = observe(&mut c, 200.0); // improved at 1
        // Stable epochs until probe to level 2 (backoff 2^1 = 2).
        let _ = observe(&mut c, 200.0); // stable, c=1 < 2
        let d = observe(&mut c, 200.0); // c=2 -> probe up to 2
        assert_eq!(d.level, 2);
        assert_eq!(d.case, Some(DecisionCase::Probe));
        // Level 2 tanks the rate: revert to 1 immediately.
        let d = observe(&mut c, 50.0);
        assert_eq!(d.case, Some(DecisionCase::Degraded));
        assert_eq!(d.level, 1);
        assert_eq!(c.bck[2], 0, "degrading level's backoff reset");
    }

    #[test]
    fn backoff_grows_probe_intervals_exponentially() {
        let mut c = ctl(4);
        let _ = observe(&mut c, 100.0); // -> 1
        let _ = observe(&mut c, 200.0); // improved, bck[1] = 1
        // From now on the rate is flat at level 1; count epochs between
        // probes. After each probe + revert cycle bck[1] grows again.
        let mut probe_gaps = Vec::new();
        let mut gap = 0;
        for _ in 0..200 {
            let d = observe(&mut c, 200.0);
            gap += 1;
            if d.case == Some(DecisionCase::Probe) {
                probe_gaps.push(gap);
                gap = 0;
                // The probe went to level 0 or 2; pretend it degrades so
                // we come back to 1 — next epoch rate is lower.
                let d2 = observe(&mut c, 100.0);
                assert_eq!(d2.level, 1, "revert must come back to 1");
                // Now rate recovers at level 1 -> Improved -> bck[1]+1.
                let d3 = observe(&mut c, 200.0);
                assert_eq!(d3.case, Some(DecisionCase::Improved));
            }
        }
        assert!(probe_gaps.len() >= 3, "expected several probes, got {probe_gaps:?}");
        // Gaps must be non-decreasing and grow overall (exponential backoff).
        assert!(
            probe_gaps.windows(2).all(|w| w[1] >= w[0]),
            "gaps not monotone: {probe_gaps:?}"
        );
        assert!(
            probe_gaps.last().unwrap() > probe_gaps.first().unwrap(),
            "gaps did not grow: {probe_gaps:?}"
        );
    }

    #[test]
    fn probe_reflects_at_bottom_boundary() {
        let mut c = ctl(4);
        let _ = observe(&mut c, 100.0); // 0 -> 1 (probe)
        let d = observe(&mut c, 50.0); // degraded -> revert to 0, inc=false
        assert_eq!(d.level, 0);
        assert!(!c.inc);
        // Stable at 0: next probe would go to -1; must reflect to 1.
        let d = observe(&mut c, 50.0);
        assert_eq!(d.case, Some(DecisionCase::Probe));
        assert_eq!(d.level, 1, "probe at bottom must reflect upward");
    }

    #[test]
    fn probe_reflects_at_top_boundary() {
        let mut c = ctl(2); // levels {0, 1}
        let _ = observe(&mut c, 100.0); // 0 -> 1
        let _ = observe(&mut c, 100.0); // stable at 1, c=1 >= 2^0 -> probe up, reflect to 0
        assert_eq!(c.ccl, 0);
    }

    #[test]
    fn single_level_never_moves() {
        let mut c = ctl(1);
        for r in [100.0, 200.0, 50.0, 100.0] {
            assert_eq!(observe(&mut c, r).level, 0);
        }
    }

    #[test]
    fn dead_band_alpha_suppresses_small_changes() {
        let mut c = ctl(4);
        let _ = observe(&mut c, 100.0); // -> 1
        // +15 % is within alpha = 0.2: stable case, not "improved".
        let d = observe(&mut c, 115.0);
        assert_ne!(d.case, Some(DecisionCase::Improved));
        // A change beyond 20 % counts.
        let d = observe(&mut c, 150.0);
        assert_eq!(d.case, Some(DecisionCase::Improved));
    }

    #[test]
    fn zero_rate_handled() {
        let mut c = ctl(4);
        let _ = observe(&mut c, 0.0);
        let _ = observe(&mut c, 0.0);
        let d = observe(&mut c, 0.0);
        // Never panics; stays within range.
        assert!(d.level < 4);
    }

    #[test]
    fn converges_to_best_level_in_synthetic_world() {
        // Synthetic world: the achievable rate per level; level 1 is best
        // (LIGHT on highly compressible data).
        let rates = [90.0, 205.0, 145.0, 27.0];
        let mut c = ctl(4);
        let mut level = 0usize;
        let mut occupancy = [0u32; 4];
        for _ in 0..300 {
            let d = observe(&mut c, rates[level]);
            level = d.level;
            occupancy[level] += 1;
        }
        assert!(
            occupancy[1] > 240,
            "controller should spend most epochs at level 1: {occupancy:?}"
        );
    }

    #[test]
    fn adapts_when_best_level_shifts() {
        // World A: level 1 best. World B (compressibility drops): level 0
        // best, with gaps well beyond the α = 0.2 dead band.
        let world_b = [90.0, 60.0, 40.0, 5.0];
        let world_a = [90.0, 205.0, 145.0, 27.0];
        let mut c = ctl(4);
        let mut level = 0usize;
        for _ in 0..100 {
            level = observe(&mut c, world_a[level]).level;
        }
        assert_eq!(level, 1);
        let mut back_at_zero = None;
        for i in 0..200 {
            level = observe(&mut c, world_b[level]).level;
            if level == 0 && back_at_zero.is_none() {
                back_at_zero = Some(i);
            }
        }
        let when = back_at_zero.expect("controller must fall back to level 0");
        assert!(when < 10, "fallback should be fast (one degraded epoch), got {when}");
        assert_eq!(level, 0);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_rejected() {
        ctl(0);
    }

    #[test]
    fn decision_surfaces_pdr_and_case() {
        let mut c = ctl(4);
        let d = observe(&mut c, 100.0);
        assert_eq!(d.pdr, None, "seeding call has no previous rate");
        assert_eq!(d.case, Some(DecisionCase::Seed));
        let d2 = observe(&mut c, 130.0);
        assert_eq!(d2.pdr, Some(100.0), "second call compares against the first cdr");
    }

    #[test]
    fn case_names_are_stable_and_distinct() {
        let names: Vec<&str> = [
            DecisionCase::Seed,
            DecisionCase::Stable,
            DecisionCase::Probe,
            DecisionCase::Improved,
            DecisionCase::Degraded,
        ]
        .into_iter()
        .map(DecisionCase::name)
        .collect();
        assert_eq!(names, vec!["seed", "stable", "probe", "improved", "degraded"]);
    }

    #[test]
    fn backoff_exponent_capped() {
        let mut c = RateBasedModel::new(ControllerConfig {
            alpha: 0.2,
            num_levels: 4,
            max_backoff_exp: 3,
        });
        let _ = observe(&mut c, 100.0); // -> 1
        let mut rate = 100.0;
        for _ in 0..20 {
            rate *= 1.5; // perpetual improvement at level 1
            let _ = observe(&mut c, rate);
        }
        assert_eq!(c.bck[1], 3);
    }
}
