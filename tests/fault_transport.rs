//! Cross-crate round-trip-under-faults: the fault adapters
//! (`adcomp-faults`) attacking real channels built from `adcomp-core`,
//! `adcomp-codecs` and `adcomp-nephele`, verified end to end through the
//! facade crate — the integration the chaos soak runs at scale, pinned
//! here as a deterministic tier-1 test.

use adcomp::codecs::LevelSet;
use adcomp::core::model::StaticModel;
use adcomp::core::stream::AdaptiveWriter;
use adcomp::core::ManualClock;
use adcomp::faults::soak::{grid, run_case, summarize};
use adcomp::faults::{CorruptingWriter, FaultPlan, FaultSpec};
use adcomp::nephele::{NepheleError, RecordReader, RecordWriter};
use std::io::Cursor;

/// A full record channel — `RecordWriter → CorruptingWriter → buffer →
/// RecordReader` — under 5 % frame bit flips: every record handed back is
/// byte-identical to what was written and in order, and the first damaged
/// frame ends the read in a typed error that the stats count.
#[test]
fn record_channel_survives_hostile_transport_end_to_end() {
    let records: Vec<Vec<u8>> = (0..1500u32)
        .map(|i| {
            let mut r = i.to_le_bytes().to_vec();
            r.extend(std::iter::repeat_n((i % 251) as u8, 180 + (i as usize % 97)));
            r
        })
        .collect();

    // Flips only: the channel relies on its transport to deliver every
    // frame, so whole-frame loss is not part of its fault model.
    let spec = FaultSpec { drop_rate: 0.0, cut_rate: 0.0, ..FaultSpec::from_rate(0xBEEF, 0.10) };
    let cw = CorruptingWriter::new(Vec::new(), FaultPlan::new(spec));
    let mut w = RecordWriter::new(AdaptiveWriter::with_params(
        cw,
        LevelSet::paper_default(),
        Box::new(StaticModel::new(2, 4)),
        2048,
        3600.0,
        Box::new(ManualClock::new()),
    ));
    for r in &records {
        w.write_record(r).unwrap();
    }
    let (cw, _, _) = w.finish().unwrap();
    let injected = cw.stats();
    assert!(injected.flips > 0, "plan was supposed to be hostile: {injected:?}");

    let mut reader = RecordReader::new(Cursor::new(cw.into_inner()));
    let mut got = Vec::new();
    let err = loop {
        match reader.next_record() {
            Ok(Some(rec)) => got.push(rec),
            Ok(None) => panic!("a flipped frame went unnoticed: {} records", got.len()),
            Err(e) => break e,
        }
    };
    assert!(matches!(err, NepheleError::Io(_)), "untyped error: {err}");
    let recovery = reader.stats().recovery;
    assert_eq!(recovery.corrupt_frames + recovery.truncations, 1, "{recovery:?}");
    assert!(got.len() < records.len());
    assert_eq!(got, records[..got.len()], "records before the damage came back altered");
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
