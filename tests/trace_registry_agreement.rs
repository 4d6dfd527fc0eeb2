//! **The trace and the registry agree.** A written block and a closed epoch
//! each reach both records through one `TraceHandle::observe` call, so a
//! collecting handle and an installed registry must tell the same story:
//! the same blocks, bytes and raw fallbacks, the same epochs, the same
//! Algorithm-1 branches and the same per-level epoch counts.
//!
//! The registry is process-wide, so this lives in its own test binary with
//! a single `#[test]`, and the `put` phase compares registry deltas.

use adcomp::codecs::LevelSet;
use adcomp::core::epoch::ManualClock;
use adcomp::core::{AdaptiveWriter, RateBasedModel};
use adcomp::corpus::{generate, Class};
use adcomp::metrics::registry::{self, CounterKind, LabelFamily, RegistryMode, RegistrySnapshot};
use adcomp::serve::{put, PutOptions, ServeConfig, Server};
use adcomp::trace::{TraceEvent, TraceHandle};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Duration;

fn counter(s: &RegistrySnapshot, kind: CounterKind) -> u64 {
    s.counters.iter().find(|(k, _)| *k == kind).expect("counter kind in snapshot").1
}

fn decisions(s: &RegistrySnapshot) -> BTreeMap<String, u64> {
    let (_, labels) = s
        .labeled
        .iter()
        .find(|(f, _)| *f == LabelFamily::DecisionCase)
        .expect("decision family in snapshot");
    labels.iter().cloned().collect()
}

#[test]
fn trace_and_registry_tell_the_same_story() {
    let reg = registry::install(RegistryMode::Wall);

    // A DYNAMIC writer on a manual clock, 4 KiB blocks, 1 s epochs. The
    // data alternates between compressible text and noise, so some blocks
    // fall back to RAW, and the bytes per step vary, so the epoch rates
    // rise and fall and the model takes several branches.
    let trace = TraceHandle::collecting();
    let clock = ManualClock::new();
    let mut w = AdaptiveWriter::with_params(
        Vec::new(),
        LevelSet::paper_default(),
        Box::new(RateBasedModel::paper_default()),
        4096,
        1.0,
        Box::new(clock.clone()),
    );
    w.set_trace(trace.clone());
    let high = generate(Class::High, 64 * 1024, 3);
    let low = generate(Class::Low, 64 * 1024, 4);
    for step in 0..48u32 {
        clock.set(f64::from(step) * 0.4);
        let data = if step % 8 < 4 { &high } else { &low };
        w.write_all(&data[..(step as usize * 7 % 5 + 1) * 12 * 1024]).unwrap();
    }
    let (_, stats) = w.finish().unwrap();
    let s = reg.snapshot();
    let events = trace.take();
    assert!(stats.epochs >= 10, "only {} epochs", stats.epochs);

    let codecs: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Codec(c) => Some(c),
            _ => None,
        })
        .collect();
    assert_eq!(codecs.len() as u64, counter(&s, CounterKind::BlocksCompressed));
    assert_eq!(codecs.iter().map(|c| c.in_bytes).sum::<u64>(), counter(&s, CounterKind::CodecInBytes));
    assert_eq!(codecs.iter().map(|c| c.out_bytes).sum::<u64>(), counter(&s, CounterKind::CodecOutBytes));
    let raw = codecs.iter().filter(|c| c.raw_fallback).count() as u64;
    assert!(raw > 0, "the noise blocks fall back to RAW");
    assert_eq!(raw, counter(&s, CounterKind::RawFallbacks));

    let epochs = events.iter().filter(|e| matches!(e, TraceEvent::Epoch(_))).count() as u64;
    assert_eq!(epochs, stats.epochs);
    assert_eq!(epochs, counter(&s, CounterKind::Epochs));

    let mut cases = BTreeMap::new();
    let mut ccl = vec![0u64; s.level_epochs.len()];
    for e in &events {
        if let TraceEvent::Decision(d) = e {
            if d.case != "static" {
                *cases.entry(d.case.to_string()).or_insert(0u64) += 1;
            }
            ccl[d.ccl as usize] += 1;
        }
    }
    assert!(cases.len() >= 3, "several Algorithm-1 branches: {cases:?}");
    assert_eq!(cases, decisions(&s));
    assert_eq!(ccl, s.level_epochs);

    // A DYNAMIC `put` with short epochs counts the branch of every
    // decision it makes, like any other adaptive stream.
    let server = Server::start(ServeConfig {
        io_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    })
    .unwrap();
    let data = [high.as_slice(), low.as_slice()].repeat(16).concat();
    let opts = PutOptions {
        tenant: "agree".into(),
        block_len: 8 * 1024,
        epoch_secs: 0.0005,
        ..PutOptions::default()
    };
    put(server.local_addr(), &data, &opts).unwrap();
    server.shutdown();
    let after = reg.snapshot();
    let put_epochs = counter(&after, CounterKind::Epochs) - counter(&s, CounterKind::Epochs);
    let put_decisions =
        decisions(&after).values().sum::<u64>() - decisions(&s).values().sum::<u64>();
    assert!(put_epochs >= 1, "the put closed no epoch");
    assert_eq!(put_decisions, put_epochs, "every DYNAMIC put epoch counts its branch");
}
