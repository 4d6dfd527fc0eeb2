//! Cross-crate round-trip-under-faults: the fault adapters
//! (`adcomp-faults`) attacking real channels built from `adcomp-core`,
//! `adcomp-codecs` and `adcomp-nephele`, verified end to end through the
//! facade crate — the integration the chaos soak runs at scale, pinned
//! here as a deterministic tier-1 test.

use adcomp::codecs::frame::RecoveryPolicy;
use adcomp::codecs::LevelSet;
use adcomp::core::model::StaticModel;
use adcomp::core::stream::{AdaptiveReader, AdaptiveWriter};
use adcomp::core::WallClock;
use adcomp::faults::soak::{grid, run_case, summarize};
use adcomp::faults::{CorruptingWriter, FaultPlan, FaultSpec, FaultingTransport};
use adcomp::nephele::channel::mem_pair;
use adcomp::nephele::{CompressionMode, RecordReader, RecordWriter};
use std::io::{Read, Write};

/// A full record channel — `RecordWriter → FaultingTransport → mem pair →
/// RecordReader` — under 10 % frame damage: every surviving record is
/// byte-identical to what was written, order is preserved, and the damage
/// is visible in the stats instead of silently absorbed.
#[test]
fn record_channel_survives_hostile_transport_end_to_end() {
    let records: Vec<Vec<u8>> = (0..1500u32)
        .map(|i| {
            let mut r = i.to_le_bytes().to_vec();
            r.extend(std::iter::repeat_n((i % 251) as u8, 180 + (i as usize % 97)));
            r
        })
        .collect();

    let plan = FaultPlan::new(FaultSpec::from_rate(0xBEEF, 0.10));
    let (tx, rx) = mem_pair(1 << 15);
    let ft = FaultingTransport::new(tx, plan);
    let inj = ft.stats_handle();
    let mut w = RecordWriter::new(
        Box::new(ft),
        &CompressionMode::Static(2),
        LevelSet::paper_default(),
        3600.0,
    );
    w.set_block_len(2048);
    w.set_record_aligned(true);
    for r in &records {
        w.write_record(r).unwrap();
    }
    w.finish().unwrap();
    let injected = *inj.lock().unwrap();
    assert!(
        injected.flips + injected.drops + injected.cuts > 0,
        "plan was supposed to be hostile: {injected:?}"
    );

    let mut reader = RecordReader::with_policy(Box::new(rx), RecoveryPolicy::skip_and_count());
    let mut got = Vec::new();
    while let Some(rec) = reader.next_record().expect("skip mode must not error") {
        got.push(rec);
    }
    let recovery = reader.stats().recovery;
    assert!(recovery.corrupt_frames > 0, "damage must be accounted: {recovery:?}");

    // Survivors: ordered subsequence, byte-identical to the originals.
    let mut last: Option<u32> = None;
    for rec in &got {
        let idx = u32::from_le_bytes(rec[..4].try_into().unwrap());
        assert_eq!(rec, &records[idx as usize], "record {idx} came back altered");
        if let Some(l) = last {
            assert!(idx > l, "order violated: {idx} after {l}");
        }
        last = Some(idx);
    }
    assert!(
        got.len() > records.len() / 2,
        "10 % frame damage should not destroy most records: {} / {}",
        got.len(),
        records.len()
    );
    assert!(got.len() < records.len(), "some records must actually have been lost");
}

/// The adaptive byte stream (`AdaptiveWriter → CorruptingWriter`, read
/// back by `AdaptiveReader`): fail-fast refuses the damaged wire, skip
/// mode hands back exactly the surviving blocks — original chunks, in
/// order, nothing invented.
#[test]
fn adaptive_stream_skip_policy_survives_wire_damage() {
    const B: usize = 4096;
    const N: usize = 200;
    let mut data = vec![0u8; B * N];
    for (k, chunk) in data.chunks_mut(B).enumerate() {
        for (j, b) in chunk.iter_mut().enumerate() {
            *b = ((k * 31 + j) % 251) as u8;
        }
    }

    let plan = FaultPlan::new(FaultSpec::from_rate(0x51EE7, 0.08));
    let cw = CorruptingWriter::new(Vec::new(), plan);
    let mut w = AdaptiveWriter::with_params(
        cw,
        LevelSet::paper_default(),
        Box::new(StaticModel::new(1, 4)),
        B,
        3600.0,
        Box::new(WallClock::new()),
    );
    w.write_all(&data).unwrap();
    let (cw, _) = w.finish().unwrap();
    let wire = cw.into_inner();

    // Fail-fast (the default) chokes on the first damaged frame.
    let mut out = Vec::new();
    assert!(AdaptiveReader::new(&wire[..]).read_to_end(&mut out).is_err());

    // Skip mode reads to the end; survivors are exact original blocks in
    // write order.
    let mut reader = AdaptiveReader::with_policy(&wire[..], RecoveryPolicy::skip_and_count());
    let mut out = Vec::new();
    reader.read_to_end(&mut out).expect("skip mode must not error");
    let recovery = reader.recovery();
    assert_ne!(recovery, Default::default(), "damage must be accounted");
    assert_eq!(out.len() % B, 0, "partial blocks must never leak");

    let mut next_k = 0usize;
    for chunk in out.chunks(B) {
        let k = (next_k..N)
            .find(|&k| &data[k * B..(k + 1) * B] == chunk)
            .expect("recovered chunk is not an original block (or out of order)");
        next_k = k + 1;
    }
    let survived = out.len() / B;
    assert!(
        survived > N / 2 && survived < N,
        "expected partial survival, got {survived}/{N} blocks"
    );
}

/// A slice of the chaos grid run through the facade: every case upholds
/// the soak contract and the aggregate is internally consistent.
#[test]
fn chaos_grid_contract_holds_from_the_facade() {
    let cases = grid(0xFEED, 24);
    let results: Vec<_> = cases.iter().map(run_case).collect();
    for r in &results {
        assert!(r.ok(), "soak contract broken: {}", r.to_json());
    }
    let s = summarize(&results);
    assert!(s.all_ok());
    assert_eq!(s.runs, 24);
    assert!(s.items_recovered > 0 && s.items_recovered <= s.items_written);
}
