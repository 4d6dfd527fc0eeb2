//! The chaos-soak engine: deterministic encode → corrupt → recover →
//! verify round trips.
//!
//! Each [`SoakCase`] is a pure function of its fields (seed, fault rate,
//! compression level, layer, …): [`run_case`] builds the payloads, writes
//! them through a [`CorruptingWriter`], reads them back with the stack's
//! fail-fast readers and verifies every item handed back byte-for-byte
//! against its regenerated original. The contract asserted per case:
//!
//! 1. **no panic, no hang** — the whole case runs under `catch_unwind`
//!    and only bounded loops;
//! 2. **no silent corruption** — every recovered item must be
//!    byte-identical to an original (items carry their index, so the
//!    original is regenerated, not trusted from the stream);
//! 3. **order preserved** — surviving items arrive in their original
//!    relative order;
//! 4. otherwise the run must end in a **typed error**, which is a legal
//!    outcome: every damaged frame a reader can see ends its stream in one.
//!
//! A whole frame lost on the wire is not something a reader can see yet
//! (the stream's index trailer would be the check), so a case may read to
//! the end with items missing — never with an item altered.
//!
//! Aggregation ([`summarize`]) is a commutative sum over case results, so
//! the summary JSON is bit-identical for any `ADCOMP_THREADS` worker
//! count — the property the CI chaos-smoke step diffs.

use crate::io::CorruptingWriter;
use crate::plan::{FaultPlan, FaultSpec, InjectStats};
use adcomp_codecs::frame::{FrameReader, FrameWriter, RecoveryStats};
use adcomp_codecs::{codec_for, LevelSet};
use adcomp_core::model::StaticModel;
use adcomp_core::portfolio;
use adcomp_core::stream::AdaptiveWriter;
use adcomp_core::{IndexedReader, ManualClock};
use adcomp_corpus::Prng;
use adcomp_nephele::channel::{RecordReader, RecordWriter};
use adcomp_trace::json::ObjWriter;
use std::io::{Cursor, Write};

/// Which layer of the stack a case attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoakLayer {
    /// `FrameWriter` → corrupting byte stream → `FrameReader`.
    Frame,
    /// `RecordWriter` → corrupting byte stream → `RecordReader`. Bit flips
    /// only: records span frames, so a dropped or cut frame would garble
    /// the record across it without a check that could see it.
    Record,
    /// Seekable `AdaptiveWriter` (index trailer) → corrupting byte stream
    /// → offset-addressed ranged reads through `IndexedReader`.
    Indexed,
    /// Mixed-codec streams: each block's codec family is chosen by the
    /// portfolio probe (`adcomp_core::portfolio::select`), so one wire
    /// stream interleaves ladder and portfolio codecs before the
    /// corrupting byte stream attacks it.
    Portfolio,
}

impl SoakLayer {
    pub fn name(&self) -> &'static str {
        match self {
            SoakLayer::Frame => "frame",
            SoakLayer::Record => "record",
            SoakLayer::Indexed => "indexed",
            SoakLayer::Portfolio => "portfolio",
        }
    }
}

/// One deterministic chaos run.
#[derive(Debug, Clone, Copy)]
pub struct SoakCase {
    /// Master seed: pins payload contents and the whole fault schedule.
    pub seed: u64,
    /// Fault rate fed to [`FaultSpec::from_rate`]. 0.0 = clean run.
    pub rate: f64,
    /// Compression level index into [`LevelSet::paper_default`] (0..4).
    pub level: usize,
    /// Layer under attack.
    pub layer: SoakLayer,
    /// Items (blocks or records) written.
    pub items: usize,
    /// Base item length in bytes (each item's exact length is a
    /// deterministic function of seed and index around this base).
    pub item_len: usize,
    /// Keep only this many permille of the wire stream (1000 = no cut);
    /// exercises the mid-stream truncation paths.
    pub truncate_permille: u16,
}

/// How a case ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The reader read to the end; the items it handed back were verified.
    Recovered,
    /// The reader stopped at a typed error.
    TypedError,
    /// The case panicked — always a harness/stack bug, never legal.
    Panicked,
}

impl Outcome {
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Recovered => "recovered",
            Outcome::TypedError => "typed_error",
            Outcome::Panicked => "panic",
        }
    }
}

/// Everything one case did and found.
#[derive(Debug, Clone)]
pub struct CaseResult {
    pub seed: u64,
    pub layer: SoakLayer,
    pub level: usize,
    pub rate: f64,
    pub outcome: Outcome,
    /// Display form of the typed error / panic payload (empty otherwise).
    pub error: String,
    pub items_written: u64,
    pub items_recovered: u64,
    /// Recovered items that did NOT match their regenerated original —
    /// silent corruption. Must be zero.
    pub verify_failures: u64,
    /// Surviving items that arrived out of their original order. Must be
    /// zero.
    pub order_violations: u64,
    pub injected: InjectStats,
    pub recovery: RecoveryStats,
}

impl CaseResult {
    /// The soak contract for this case.
    pub fn ok(&self) -> bool {
        match self.outcome {
            Outcome::Recovered => self.verify_failures == 0 && self.order_violations == 0,
            Outcome::TypedError => true,
            Outcome::Panicked => false,
        }
    }

    /// One deterministic JSON line describing this case (for `--verbose`).
    pub fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        o.u64_field("seed", self.seed);
        o.str_field("layer", self.layer.name());
        o.u64_field("level", self.level as u64);
        o.f64_field("rate", self.rate);
        o.str_field("outcome", self.outcome.name());
        o.bool_field("ok", self.ok());
        o.u64_field("written", self.items_written);
        o.u64_field("recovered", self.items_recovered);
        o.u64_field("verify_failures", self.verify_failures);
        o.u64_field("order_violations", self.order_violations);
        o.u64_field("flips", self.injected.flips);
        o.u64_field("drops", self.injected.drops);
        o.u64_field("cuts", self.injected.cuts);
        o.u64_field("corrupt_frames", self.recovery.corrupt_frames);
        o.u64_field("truncations", self.recovery.truncations);
        if !self.error.is_empty() {
            o.str_field("error", &self.error);
        }
        o.finish()
    }
}

/// Deterministic payload for item `index` of a case: 8-byte little-endian
/// index, then seed-derived content in one of three shapes (repetitive
/// text, byte runs, incompressible noise) so every codec sees both its
/// best and worst case. Length is `base_len/2 ..= base_len` plus the
/// index prefix, derived from the same stream.
pub fn gen_item(seed: u64, index: u64, base_len: usize) -> Vec<u8> {
    let mut p = Prng::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x50AC);
    let len = base_len / 2 + p.below(base_len as u64 / 2 + 1) as usize;
    let mut v = Vec::with_capacity(len + 8);
    v.extend_from_slice(&index.to_le_bytes());
    match index % 3 {
        0 => {
            while v.len() < len + 8 {
                v.extend_from_slice(b"adaptive compression chaos soak payload ");
            }
        }
        1 => {
            while v.len() < len + 8 {
                let b = p.next_u8();
                let n = (p.below(48) + 1) as usize;
                v.extend(std::iter::repeat_n(b, n));
            }
        }
        _ => {
            let start = v.len();
            v.resize(len + 8, 0);
            p.fill_bytes(&mut v[start..]);
        }
    }
    v.truncate(len + 8);
    v
}

/// The standard case grid: cycles levels, layers, rates and truncation so
/// `runs` cases cover the full taxonomy. Seeds are splitmix-mixed
/// from `base_seed`, so the grid is a pure function of `(base_seed, runs)`.
pub fn grid(base_seed: u64, runs: usize) -> Vec<SoakCase> {
    fn splitmix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    const RATES: [f64; 4] = [0.0, 0.02, 0.08, 0.2];
    (0..runs)
        .map(|i| {
            let layer = match (i / 4) % 4 {
                0 => SoakLayer::Frame,
                1 => SoakLayer::Record,
                2 => SoakLayer::Indexed,
                _ => SoakLayer::Portfolio,
            };
            let rate = RATES[(i / 8) % 4];
            SoakCase {
                seed: splitmix(base_seed ^ (i as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)),
                rate,
                level: i % 4,
                layer,
                items: match layer {
                    SoakLayer::Frame | SoakLayer::Portfolio => 48,
                    SoakLayer::Record => 160,
                    SoakLayer::Indexed => 40,
                },
                item_len: match layer {
                    SoakLayer::Frame | SoakLayer::Portfolio => 2048,
                    SoakLayer::Record => 280,
                    SoakLayer::Indexed => 1600,
                },
                truncate_permille: if layer != SoakLayer::Record && i % 5 == 0 && rate > 0.0 {
                    700
                } else {
                    1000
                },
            }
        })
        .collect()
}

/// Runs one case under `catch_unwind`; a panic becomes
/// [`Outcome::Panicked`] (which fails the soak) instead of taking the
/// harness down.
pub fn run_case(case: &SoakCase) -> CaseResult {
    let c = *case;
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match c.layer {
        SoakLayer::Frame => run_frame_case(&c),
        SoakLayer::Record => run_record_case(&c),
        SoakLayer::Indexed => run_indexed_case(&c),
        SoakLayer::Portfolio => run_portfolio_case(&c),
    })) {
        Ok(r) => r,
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            CaseResult {
                seed: c.seed,
                layer: c.layer,
                level: c.level,
                rate: c.rate,
                outcome: Outcome::Panicked,
                error: msg,
                items_written: c.items as u64,
                items_recovered: 0,
                verify_failures: 0,
                order_violations: 0,
                injected: InjectStats::default(),
                recovery: RecoveryStats::default(),
            }
        }
    }
}

/// Shared verification loop: pulls decoded items via `next`, checks each
/// against its regenerated original and tracks ordering. Returns
/// `(recovered, verify_failures, order_violations, error)`.
fn verify_items<E: std::fmt::Display>(
    case: &SoakCase,
    mut next: impl FnMut() -> Result<Option<Vec<u8>>, E>,
) -> (u64, u64, u64, Option<String>) {
    let mut recovered = 0u64;
    let mut verify_failures = 0u64;
    let mut order_violations = 0u64;
    let mut last_idx: Option<u64> = None;
    // Bounded: a reader may never yield more items than were written plus
    // slack; more means the reader invented items (harness failure).
    let cap = case.items as u64 * 2 + 16;
    loop {
        match next() {
            Ok(Some(item)) => {
                recovered += 1;
                if recovered > cap {
                    verify_failures += 1;
                    return (recovered, verify_failures, order_violations, None);
                }
                if item.len() < 8 {
                    verify_failures += 1;
                    continue;
                }
                let idx = u64::from_le_bytes(item[..8].try_into().unwrap());
                if idx >= case.items as u64 {
                    verify_failures += 1;
                    continue;
                }
                if gen_item(case.seed, idx, case.item_len) != item {
                    verify_failures += 1;
                }
                if let Some(last) = last_idx {
                    if idx <= last {
                        order_violations += 1;
                    }
                }
                last_idx = Some(idx);
            }
            Ok(None) => return (recovered, verify_failures, order_violations, None),
            Err(e) => return (recovered, verify_failures, order_violations, Some(e.to_string())),
        }
    }
}

fn run_frame_case(case: &SoakCase) -> CaseResult {
    let levels = LevelSet::paper_default();
    let plan = FaultPlan::new(FaultSpec::from_rate(case.seed, case.rate));
    let mut cw = CorruptingWriter::new(Vec::new(), plan);
    {
        let mut fw = FrameWriter::new(&mut cw);
        for i in 0..case.items {
            let item = gen_item(case.seed, i as u64, case.item_len);
            fw.write_block(levels.codec(case.level), &item).expect("Vec write cannot fail");
        }
    }
    frame_case_result(case, cw)
}

/// Cuts the corrupted wire to `truncate_permille`, reads it back through a
/// `FrameReader` and verifies every block it hands back.
fn frame_case_result(case: &SoakCase, cw: CorruptingWriter<Vec<u8>>) -> CaseResult {
    let injected = cw.stats();
    let mut wire = cw.into_inner();
    if case.truncate_permille < 1000 {
        let keep = wire.len() * case.truncate_permille as usize / 1000;
        wire.truncate(keep);
    }
    let mut reader = FrameReader::new(&wire[..]);
    let (recovered, verify_failures, order_violations, error) = verify_items(case, || {
        let mut out = Vec::new();
        reader.read_block(&mut out).map(|h| h.map(|_| out))
    });
    CaseResult {
        seed: case.seed,
        layer: case.layer,
        level: case.level,
        rate: case.rate,
        outcome: if error.is_some() { Outcome::TypedError } else { Outcome::Recovered },
        error: error.unwrap_or_default(),
        items_written: case.items as u64,
        items_recovered: recovered,
        verify_failures,
        order_violations,
        injected,
        recovery: reader.recovery,
    }
}

/// Portfolio layer: every block's codec family comes from the content
/// probe, so a single stream interleaves COLUMNAR, HUFF and the ladder
/// codecs (the three `gen_item` shapes — text, runs, noise — pull the
/// nomination in different directions). The corrupting byte stream then
/// attacks the mixed-codec wire: every block handed back must be
/// byte-accurate and in order, and damage must surface as a typed error,
/// never a panic — the same contract as the frame layer, now across codec
/// families.
fn run_portfolio_case(case: &SoakCase) -> CaseResult {
    let plan = FaultPlan::new(FaultSpec::from_rate(case.seed, case.rate));
    let mut cw = CorruptingWriter::new(Vec::new(), plan);
    {
        let mut fw = FrameWriter::new(&mut cw);
        for i in 0..case.items {
            let item = gen_item(case.seed, i as u64, case.item_len);
            let codec = codec_for(portfolio::select(&item, case.level));
            fw.write_block(codec, &item).expect("Vec write cannot fail");
        }
    }
    frame_case_result(case, cw)
}

fn run_record_case(case: &SoakCase) -> CaseResult {
    let spec =
        FaultSpec { drop_rate: 0.0, cut_rate: 0.0, ..FaultSpec::from_rate(case.seed, case.rate) };
    let cw = CorruptingWriter::new(Vec::new(), FaultPlan::new(spec));
    let mut w = RecordWriter::new(AdaptiveWriter::with_params(
        cw,
        LevelSet::paper_default(),
        Box::new(StaticModel::new(case.level, 4)),
        2048,
        3600.0,
        Box::new(ManualClock::new()),
    ));
    for i in 0..case.items {
        w.write_record(&gen_item(case.seed, i as u64, case.item_len))
            .expect("Vec write cannot fail");
    }
    let (cw, _, _) = w.finish().expect("Vec write cannot fail");
    let injected = cw.stats();

    let wire = cw.into_inner();
    let mut reader = RecordReader::new(&wire[..]);
    let (recovered, verify_failures, order_violations, error) =
        verify_items(case, || reader.next_record());
    let recovery = reader.stats().recovery;
    CaseResult {
        seed: case.seed,
        layer: case.layer,
        level: case.level,
        rate: case.rate,
        outcome: if error.is_some() { Outcome::TypedError } else { Outcome::Recovered },
        error: error.unwrap_or_default(),
        items_written: case.items as u64,
        items_recovered: recovered,
        verify_failures,
        order_violations,
        injected,
        recovery,
    }
}

/// Indexed layer: items are concatenated into a seekable stream (4 KiB
/// blocks, index trailer) written through a corrupting byte stream, then
/// read back item by item as offset-addressed ranged reads through an
/// [`IndexedReader`] — the chaos gauntlet for the random-access path,
/// attacking blocks, frame headers and the index trailer alike.
///
/// The fault plan keeps flips and cuts but disables whole-frame drops: a
/// cleanly excised frame leaves a valid-but-shifted stream that no
/// offset-addressed reader can distinguish from intended content (without
/// a usable trailer, the index is a walk of the frames that are there).
///
/// Contract: every ranged read returns bytes identical to the regenerated
/// item (each covering block checked against its entry and its CRC),
/// stops at the truncated tail, or ends in a typed error — never a panic,
/// never silent corruption.
fn run_indexed_case(case: &SoakCase) -> CaseResult {
    let spec = FaultSpec { drop_rate: 0.0, ..FaultSpec::from_rate(case.seed, case.rate) };
    let cw = CorruptingWriter::new(Vec::new(), FaultPlan::new(spec));
    let items: Vec<Vec<u8>> =
        (0..case.items).map(|i| gen_item(case.seed, i as u64, case.item_len)).collect();
    let mut w = AdaptiveWriter::with_params(
        cw,
        LevelSet::paper_default(),
        Box::new(StaticModel::new(case.level, 4)),
        4096,
        3600.0,
        Box::new(ManualClock::new()),
    );
    w.set_seekable(true);
    for item in &items {
        w.write_all(item).expect("Vec write cannot fail");
    }
    let (cw, _) = w.finish().expect("Vec write cannot fail");
    let injected = cw.stats();
    let mut wire = cw.into_inner();
    if case.truncate_permille < 1000 {
        let keep = wire.len() * case.truncate_permille as usize / 1000;
        wire.truncate(keep);
    }

    let mut recovered = 0u64;
    let mut verify_failures = 0u64;
    let mut error: Option<String> = None;
    match IndexedReader::open(Cursor::new(&wire[..])) {
        Ok(mut reader) => {
            let mut off = 0u64;
            let mut out = Vec::new();
            for (idx, item) in items.iter().enumerate() {
                out.clear();
                match reader.read_range(off, item.len() as u64, &mut out) {
                    Ok(_) if out == item[..] => recovered += 1,
                    Ok(n) if n < item.len() && out[..] == item[..n] => {
                        // Clean end of a truncated stream mid-item.
                        error = Some(format!(
                            "short read at item {idx}: {n} of {} bytes",
                            item.len()
                        ));
                        break;
                    }
                    Ok(_) => verify_failures += 1,
                    Err(e) => {
                        error = Some(e.to_string());
                        break;
                    }
                }
                off += item.len() as u64;
            }
        }
        Err(e) => error = Some(e.to_string()),
    }
    CaseResult {
        seed: case.seed,
        layer: case.layer,
        level: case.level,
        rate: case.rate,
        outcome: if error.is_some() { Outcome::TypedError } else { Outcome::Recovered },
        error: error.unwrap_or_default(),
        items_written: case.items as u64,
        items_recovered: recovered,
        verify_failures,
        order_violations: 0,
        injected,
        recovery: RecoveryStats::default(),
    }
}

/// Commutative aggregate of a soak run — every field is a sum or an AND,
/// so the summary is identical for any execution order / worker count.
#[derive(Debug, Clone, Default)]
pub struct SoakSummary {
    pub runs: u64,
    pub ok_runs: u64,
    pub recovered_runs: u64,
    pub typed_errors: u64,
    pub panics: u64,
    pub verify_failures: u64,
    pub order_violations: u64,
    pub items_written: u64,
    pub items_recovered: u64,
    pub injected: InjectStats,
    pub recovery: RecoveryStats,
    /// Items recovered per compression level (paper levels 0..4).
    pub recovered_per_level: [u64; 4],
}

impl SoakSummary {
    /// True when every case upheld the soak contract.
    pub fn all_ok(&self) -> bool {
        self.runs == self.ok_runs && self.panics == 0
    }

    /// The deterministic summary JSON the CI chaos-smoke step diffs.
    pub fn to_json(&self) -> String {
        let mut o = ObjWriter::new();
        o.str_field("v", "chaos-soak-2");
        o.u64_field("runs", self.runs);
        o.u64_field("ok_runs", self.ok_runs);
        o.bool_field("all_ok", self.all_ok());
        o.u64_field("recovered_runs", self.recovered_runs);
        o.u64_field("typed_errors", self.typed_errors);
        o.u64_field("panics", self.panics);
        o.u64_field("verify_failures", self.verify_failures);
        o.u64_field("order_violations", self.order_violations);
        o.u64_field("items_written", self.items_written);
        o.u64_field("items_recovered", self.items_recovered);
        o.u64_field("inject_frames", self.injected.frames);
        o.u64_field("inject_flips", self.injected.flips);
        o.u64_field("inject_drops", self.injected.drops);
        o.u64_field("inject_cuts", self.injected.cuts);
        o.u64_field("corrupt_frames", self.recovery.corrupt_frames);
        o.u64_field("truncations", self.recovery.truncations);
        let per_level: Vec<u32> =
            self.recovered_per_level.iter().map(|&v| v.min(u32::MAX as u64) as u32).collect();
        o.u32_array_field("recovered_per_level", &per_level);
        o.finish()
    }
}

/// Folds case results into a [`SoakSummary`].
pub fn summarize(results: &[CaseResult]) -> SoakSummary {
    let mut s = SoakSummary::default();
    for r in results {
        s.runs += 1;
        if r.ok() {
            s.ok_runs += 1;
        }
        match r.outcome {
            Outcome::Recovered => s.recovered_runs += 1,
            Outcome::TypedError => s.typed_errors += 1,
            Outcome::Panicked => s.panics += 1,
        }
        s.verify_failures += r.verify_failures;
        s.order_violations += r.order_violations;
        s.items_written += r.items_written;
        s.items_recovered += r.items_recovered;
        s.injected.frames += r.injected.frames;
        s.injected.flips += r.injected.flips;
        s.injected.drops += r.injected.drops;
        s.injected.cuts += r.injected.cuts;
        s.injected.bytes_in += r.injected.bytes_in;
        s.injected.bytes_out += r.injected.bytes_out;
        s.recovery.merge(&r.recovery);
        if r.level < 4 {
            s.recovered_per_level[r.level] += r.items_recovered;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_cases_recover_everything() {
        for layer in
            [SoakLayer::Frame, SoakLayer::Record, SoakLayer::Indexed, SoakLayer::Portfolio]
        {
            for level in 0..4 {
                let case = SoakCase {
                    seed: 1000 + level as u64,
                    rate: 0.0,
                    level,
                    layer,
                    items: 24,
                    item_len: 600,
                    truncate_permille: 1000,
                };
                let r = run_case(&case);
                assert_eq!(r.outcome, Outcome::Recovered, "{layer:?} L{level}: {}", r.error);
                assert_eq!(r.items_recovered, 24);
                assert_eq!(r.verify_failures, 0);
                assert_eq!(r.recovery, RecoveryStats::default());
                assert!(r.ok());
            }
        }
    }

    #[test]
    fn hostile_cases_uphold_the_contract() {
        for case in grid(0xC405, 32) {
            let r = run_case(&case);
            assert!(r.ok(), "case {case:?} violated the contract: {}", r.to_json());
            assert_ne!(r.outcome, Outcome::Panicked);
        }
    }

    #[test]
    fn summary_is_deterministic_and_order_independent() {
        let cases = grid(7, 24);
        let fwd: Vec<CaseResult> = cases.iter().map(run_case).collect();
        let mut rev: Vec<CaseResult> = cases.iter().rev().map(run_case).collect();
        rev.reverse();
        let a = summarize(&fwd);
        let b = summarize(&rev);
        assert_eq!(a.to_json(), b.to_json());
        // And re-running the same grid reproduces it bit-for-bit.
        let again: Vec<CaseResult> = cases.iter().map(run_case).collect();
        assert_eq!(a.to_json(), summarize(&again).to_json());
    }

    #[test]
    fn indexed_layer_survives_trailer_and_block_damage() {
        let mut typed = 0u64;
        let mut recovered_items = 0u64;
        for i in 0..12u64 {
            let case = SoakCase {
                seed: 0x1D7 + i,
                rate: 0.1,
                level: (i % 4) as usize,
                layer: SoakLayer::Indexed,
                items: 32,
                item_len: 1200,
                    truncate_permille: if i % 4 == 0 { 600 } else { 1000 },
                };
            let r = run_case(&case);
            assert!(r.ok(), "indexed case violated the contract: {}", r.to_json());
            assert_ne!(r.outcome, Outcome::Panicked);
            if r.outcome == Outcome::TypedError {
                typed += 1;
            }
            recovered_items += r.items_recovered;
        }
        assert!(recovered_items > 0, "no item ever survived");
        assert!(typed > 0, "damage at 10% never surfaced");

        // Pure truncation, no corruption: the index trailer is cut off,
        // every read below the cut still decodes through the header walk's
        // index, and the cut itself surfaces as a typed error.
        let case = SoakCase {
            seed: 0xC07,
            rate: 0.0,
            level: 1,
            layer: SoakLayer::Indexed,
            items: 32,
            item_len: 1200,
            truncate_permille: 500,
        };
        let r = run_case(&case);
        assert!(r.ok(), "{}", r.to_json());
        assert_eq!(r.outcome, Outcome::TypedError, "the cut must surface: {}", r.to_json());
        assert!(r.items_recovered > 0, "prefix items must still read: {}", r.to_json());
    }

    #[test]
    fn portfolio_layer_mixes_codecs_and_survives_fire() {
        // The three gen_item shapes must pull the probe into several codec
        // families (level 3 ladders converge on HEAVY as the ratio
        // ceiling, so the spread is widest at level 2).
        for (level, want) in [(2usize, 3usize), (3, 2)] {
            let ids: std::collections::BTreeSet<u8> = (0..12u64)
                .map(|i| {
                    let item = gen_item(0xBEEF, i, 2048);
                    portfolio::select(&item, level) as u8
                })
                .collect();
            assert!(ids.len() >= want, "level {level}: portfolio picked only {ids:?}");
        }
        // Under moderate fire the mixed-codec stream hands back its blocks
        // byte-accurately and in order until the first damaged frame ends
        // it, like the single-codec frame layer.
        let case = SoakCase {
            seed: 43,
            rate: 0.05,
            level: 2,
            layer: SoakLayer::Portfolio,
            items: 64,
            item_len: 1500,
            truncate_permille: 1000,
        };
        let r = run_case(&case);
        assert!(r.ok(), "{}", r.to_json());
        assert_eq!(r.verify_failures, 0);
        assert_eq!(r.order_violations, 0);
        assert!(r.items_recovered > 0, "{}", r.to_json());
    }

    #[test]
    fn gen_item_is_pure() {
        for idx in 0..9 {
            assert_eq!(gen_item(5, idx, 512), gen_item(5, idx, 512));
        }
        assert_ne!(gen_item(5, 0, 512), gen_item(6, 0, 512));
    }

    #[test]
    fn summary_json_is_valid() {
        let results: Vec<CaseResult> = grid(11, 8).iter().map(run_case).collect();
        let s = summarize(&results);
        adcomp_trace::json::validate_line(&s.to_json()).expect("summary JSON invalid");
        for r in &results {
            adcomp_trace::json::validate_line(&r.to_json()).expect("case JSON invalid");
        }
    }
}
