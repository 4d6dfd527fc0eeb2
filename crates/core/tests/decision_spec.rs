//! Executable reference specification of Algorithm 1.
//!
//! `spec_next` below is a direct, self-contained transcription of the
//! paper's decision table — about fifty lines, written independently of
//! `adcomp_core::controller` and kept deliberately dumb so a reviewer can
//! check it against the paper line by line. The property tests then assert
//! that, for arbitrary rate sequences, the production [`RateBasedModel`]
//! and the [`EpochDriver`] stack produce *identical* level trajectories,
//! and that every traced decision carries the branch, `pdr` and backoff
//! table the spec has at that epoch.

use adcomp_core::controller::{ControllerConfig, RateBasedModel};
use adcomp_core::epoch::{EpochContext, EpochDriver};
use adcomp_core::model::DecisionModel;
use adcomp_trace::{TraceEvent, TraceHandle};
use proptest::prelude::*;

/// Table I state, named exactly as in the paper.
#[derive(Clone, Debug)]
struct Spec {
    /// Currently applied compression level.
    ccl: usize,
    /// Decision calls since the last level change.
    c: u64,
    /// Whether the last level change was an increase.
    inc: bool,
    /// Per-level backoff exponents.
    bck: Vec<u32>,
    /// Previous epoch's application data rate.
    pdr: Option<f64>,
}

impl Spec {
    fn new(num_levels: usize) -> Self {
        Spec { ccl: 0, c: 0, inc: true, bck: vec![0; num_levels], pdr: None }
    }
}

/// One epoch of Algorithm 1: consumes `cdr`, returns the next level and
/// the name of the branch that fired.
fn spec_next(s: &mut Spec, cdr: f64, alpha: f64, max_backoff_exp: u32) -> (usize, &'static str) {
    let n = s.bck.len() as i64;
    let pdr = s.pdr.unwrap_or(cdr); // first call: pdr := cdr
    let d = cdr - pdr;
    s.c += 1;
    let mut ncl = s.ccl as i64;
    let mut probed = false;
    let case;
    if d.abs() <= alpha * pdr {
        // Case 1 — stable: probe once the backoff for ccl has expired.
        if s.c >= 1u64 << s.bck[s.ccl].min(62) {
            ncl += if s.inc { 1 } else { -1 };
            s.c = 0;
            probed = true;
        }
        // The first call's probe is the seeding one.
        case = match (probed, s.pdr) {
            (false, _) => "stable",
            (true, None) => "seed",
            (true, Some(_)) => "probe",
        };
    } else if d > 0.0 {
        // Case 2 — improved: reward ccl with a longer backoff, stay put.
        s.bck[s.ccl] = (s.bck[s.ccl] + 1).min(max_backoff_exp);
        s.c = 0;
        case = "improved";
    } else {
        // Case 3 — degraded: reset ccl's backoff, revert the last change.
        s.bck[s.ccl] = 0;
        ncl += if s.inc { -1 } else { 1 };
        s.c = 0;
        case = "degraded";
    }
    // Boundaries: clamp, but let an optimistic probe reflect off the wall.
    if ncl < 0 {
        ncl = if probed && n > 1 { 1 } else { 0 };
    } else if ncl >= n {
        ncl = if probed && n > 1 { n - 2 } else { n - 1 };
    }
    // Out-of-algorithm updates of ccl / inc / pdr.
    if ncl as usize != s.ccl {
        s.inc = ncl as usize > s.ccl;
        s.ccl = ncl as usize;
    }
    s.pdr = Some(cdr);
    (s.ccl, case)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The production model matches the reference spec decision for
    /// decision on arbitrary rate sequences.
    #[test]
    fn controller_matches_reference_spec(
        rates in proptest::collection::vec(0u64..1_000_000_000, 1..200)
    ) {
        let cfg = ControllerConfig::default();
        let mut model = RateBasedModel::new(cfg);
        let mut s = Spec::new(cfg.num_levels);
        for &r in &rates {
            let (want, _) = spec_next(&mut s, r as f64, cfg.alpha, cfg.max_backoff_exp);
            let got = model.decide(r as f64, &EpochContext::default());
            prop_assert_eq!(got.level, want, "diverged at cdr={}", r);
            let backoffs = got.backoffs.expect("Algorithm 1 reports its backoffs");
            prop_assert_eq!(&backoffs[..cfg.num_levels], &s.bck[..]);
        }
    }

    /// Driving the full EpochDriver + RateBasedModel stack — one record per
    /// epoch boundary, bytes chosen so the epoch rate equals the intended
    /// cdr — yields the reference spec's level trajectory exactly, and each
    /// epoch's traced decision is the spec's: branch, cdr, pdr, the level
    /// before and after, and the backoff table.
    #[test]
    fn epoch_driver_matches_reference_spec(
        rates in proptest::collection::vec(0u64..1_000_000_000, 1..150)
    ) {
        let cfg = ControllerConfig::default();
        let trace = TraceHandle::collecting();
        let mut driver =
            EpochDriver::new(Box::new(RateBasedModel::new(cfg)), 1.0, 0.0);
        driver.set_trace(trace.clone());
        let ctx = EpochContext::default();
        let mut s = Spec::new(cfg.num_levels);
        for (k, &bytes) in rates.iter().enumerate() {
            let (prev_level, pdr) = (s.ccl, s.pdr);
            let (want, case) = spec_next(&mut s, bytes as f64, cfg.alpha, cfg.max_backoff_exp);
            // Recording exactly at the boundary closes the epoch with
            // duration 1 s, so rate == bytes.
            prop_assert_eq!(driver.record(bytes, (k + 1) as f64, &ctx), want);
            let events = trace.take();
            let decision = events.iter().find_map(|e| match e {
                TraceEvent::Decision(d) => Some(d),
                _ => None,
            });
            let Some(ev) = decision else {
                panic!("epoch {k}: no decision event");
            };
            prop_assert_eq!(ev.epoch, k as u64);
            prop_assert_eq!(ev.case, case, "epoch {}", k);
            prop_assert_eq!(ev.cdr, bytes as f64);
            prop_assert_eq!(ev.pdr.to_bits(), pdr.unwrap_or(f64::NAN).to_bits());
            prop_assert_eq!(ev.prev_level as usize, prev_level);
            prop_assert_eq!(ev.ccl as usize, want);
            prop_assert_eq!(&ev.backoffs[..cfg.num_levels], &s.bck[..]);
        }
        prop_assert_eq!(driver.epochs(), rates.len() as u64);
    }

    /// Fed a seeded sequence of `record` calls at uneven times, the driver
    /// returns the levels a bare `RateBasedModel` picks from the driver's
    /// own per-epoch rates, in the same order, and holds each level until
    /// the next epoch closes; every epoch after the seed epoch lasts at
    /// least `t`.
    #[test]
    fn epoch_driver_decides_as_bare_model_on_its_epoch_rates(
        calls in proptest::collection::vec((0u64..10_000_000, 1u32..700), 1..300)
    ) {
        const T: f64 = 1.0;
        let cfg = ControllerConfig::default();
        let trace = TraceHandle::collecting();
        let mut driver = EpochDriver::new(Box::new(RateBasedModel::new(cfg)), T, 0.0);
        driver.set_trace(trace.clone());
        let mut bare = RateBasedModel::new(cfg);
        let ctx = EpochContext::default();
        let (mut now, mut level) = (0.0, 0);
        let (mut driven, mut reference) = (Vec::new(), Vec::new());
        for &(bytes, ms) in &calls {
            now += f64::from(ms) / 1000.0;
            let got = driver.record(bytes, now, &ctx);
            let closed: Vec<_> = trace
                .take()
                .into_iter()
                .filter_map(|e| match e {
                    TraceEvent::Epoch(ep) => Some(ep),
                    _ => None,
                })
                .collect();
            match &closed[..] {
                [] => prop_assert_eq!(got, level, "level moved inside an epoch at t={}", now),
                [ep] => {
                    if ep.epoch > 0 {
                        let (k, secs) = (ep.epoch, ep.duration);
                        prop_assert!(secs >= T, "epoch {} lasted {} s", k, secs);
                    }
                    reference.push(bare.decide(ep.rate, &ctx).level);
                    driven.push(got);
                    level = got;
                }
                _ => panic!("one record closed {} epochs", closed.len()),
            }
        }
        prop_assert_eq!(&driven, &reference);
        prop_assert_eq!(driver.epochs(), reference.len() as u64);
    }

    /// Spec sanity: trajectories never leave the level range and the
    /// model still matches under non-default configs.
    #[test]
    fn spec_holds_for_other_configs(
        rates in proptest::collection::vec(0u64..10_000_000, 1..100),
        num_levels in 1usize..6,
        max_exp in 1u32..8,
    ) {
        let cfg = ControllerConfig { alpha: 0.2, num_levels, max_backoff_exp: max_exp };
        let mut model = RateBasedModel::new(cfg);
        let mut s = Spec::new(num_levels);
        for &r in &rates {
            let (want, _) = spec_next(&mut s, r as f64, cfg.alpha, cfg.max_backoff_exp);
            prop_assert!(want < num_levels);
            prop_assert_eq!(model.decide(r as f64, &EpochContext::default()).level, want);
        }
    }
}
