//! Property-based invariants of the cloud simulator: physically sensible
//! monotonicities that must hold for *any* parameterization.

use adcomp_core::model::{DecisionModel, RateBasedModel, StaticModel};
use adcomp_corpus::Class;
use adcomp_trace::TraceHandle;
use adcomp_vcloud::{
    run_transfer, run_transfer_traced, AlternatingClass, ClassSchedule, ConstantClass, Platform,
    SharedLink, SpeedModel, TransferConfig, TransferOutcome, VirtualDisk,
};
use proptest::prelude::*;

fn det_cfg(total_mb: u64, flows: usize) -> TransferConfig {
    TransferConfig {
        total_bytes: total_mb * 1_000_000,
        background_flows: flows,
        deterministic: true,
        cpu_jitter: 0.0,
        ..TransferConfig::paper_default()
    }
}

/// A generated class schedule: one class, or HIGH ↔ LOW every `period` MB.
fn schedule(class_idx: usize, period_mb: u64) -> Box<dyn ClassSchedule> {
    if period_mb == 0 {
        Box::new(ConstantClass(Class::ALL[class_idx]))
    } else {
        Box::new(AlternatingClass {
            classes: vec![Class::High, Class::Low],
            period_bytes: period_mb * 1_000_000,
        })
    }
}

/// A static level, or DYNAMIC for `level == 4`.
fn model(level: usize) -> Box<dyn DecisionModel> {
    if level < 4 {
        Box::new(StaticModel::new(level, 4))
    } else {
        Box::new(RateBasedModel::paper_default())
    }
}

/// FNV-1a (64-bit, stable across hosts and builds) of every field of
/// `out` and every line of its trace, floats by their bits.
fn digest(out: &TransferOutcome, trace: TraceHandle) -> u64 {
    let mut words = vec![out.completion_secs.to_bits(), out.app_bytes, out.wire_bytes];
    for series in [&out.level_trace, &out.app_rate_trace, &out.net_rate_trace, &out.cpu_trace] {
        words.push(series.len() as u64);
        words.extend(series.points().iter().flat_map(|&(t, v)| [t.to_bits(), v.to_bits()]));
    }
    words.extend(&out.blocks_per_level);
    words.push(out.epochs);
    let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    trace.take().iter().for_each(|e| bytes.extend(e.to_json().as_bytes()));
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// The `i`-th generated transfer: every platform, 0–3 background flows,
/// three epoch lengths, jitter and fluctuation on and off, 1 or 3 lanes,
/// constant or alternating classes, the four static levels and DYNAMIC.
fn generated_case(i: u64) -> (TransferConfig, Box<dyn ClassSchedule>, Box<dyn DecisionModel>) {
    let cfg = TransferConfig {
        platform: Platform::ALL[(i % 5) as usize],
        background_flows: (i / 5 % 4) as usize,
        total_bytes: 200_000_000 + i * 37_654_321,
        epoch_secs: [2.0, 0.5, 1.25][(i % 3) as usize],
        cpu_jitter: [0.02, 0.0][(i / 3 % 2) as usize],
        deterministic: i % 7 < 3,
        seed: i * 7919 + 1,
        pipeline_workers: [1, 3][(i / 2 % 2) as usize],
    };
    let period_mb = if i % 3 == 2 { 150 } else { 0 };
    let level = if i.is_multiple_of(2) { 4 } else { (i / 2 % 4) as usize };
    (cfg, schedule((i % 3) as usize, period_mb), model(level))
}

/// `(completion_secs bits, wire_bytes, digest)` of [`generated_case`]
/// `i`, as `run_transfer` computed them before it became one flow of the
/// multi-flow engine.
const GOLDEN: [(u64, u64, u64); 20] = [
    (0x3ff0875fa7b5c5ab, 34986546, 0xdee36f6f8f78cd6f),
    (0x400d43e9ab15eb73, 237730487, 0x395788269cd22216),
    (0x3ffa9a74a30de25f, 142621877, 0xd185e1fc3e2fd616),
    (0x3feb60e2cfb3b567, 32897982, 0x19e69abc8dba59c0),
    (0x401973f958419cbc, 200789177, 0xdfd17d21c9c330c3),
    (0x4015fc5d3f518715, 158561069, 0x89a5f78ec9670eb5),
    (0x3ff4ca2942057153, 50287194, 0x2ef63727e207023a),
    (0x4033e989c01bf8eb, 139128544, 0x4c70e10ca4725176),
    (0x4014c6648a80e070, 271932954, 0xe8416133f3a00dfd),
    (0x4022ba105653145a, 539061577, 0x93cce4ba28cdf6b8),
    (0x401645acc45d8e26, 261008568, 0xd76d0714f477d5b4),
    (0x4026542785bd3799, 317972821, 0x80c394b657b01df4),
    (0x4010633e1c6eaf63, 74388043, 0xd412db60b537baf0),
    (0x402ba3e23aa5b044, 275882437, 0x1b11158504c280e1),
    (0x4020905237638473, 338917529, 0x6bb5744a5c7e261e),
    (0x402b1e48ae470e84, 42152589, 0x6722057f9a017914),
    (0x403386dcf09666ca, 349830864, 0x03fa5fa9aea9a777),
    (0x4038e8878e7adeaa, 840392667, 0xb2d39c53229aaeee),
    (0x40047720960fad8b, 97432852, 0x7eef873b915bd4c4),
    (0x403369ae6904031b, 412053410, 0xd1c932d5bbb2397d),
];

/// One flow into the link is the transfer it always was: every field of
/// the outcome and every trace event, on generated configs.
#[test]
fn run_transfer_is_unchanged_on_generated_configs() {
    let speed = SpeedModel::paper_fit();
    for (i, &(completion_bits, wire_bytes, golden)) in GOLDEN.iter().enumerate() {
        let (cfg, mut schedule, model) = generated_case(i as u64);
        let trace = TraceHandle::collecting();
        let out = run_transfer_traced(&cfg, &speed, &mut *schedule, model, trace.clone());
        assert_eq!(out.completion_secs.to_bits(), completion_bits, "case {i}");
        assert_eq!(out.wire_bytes, wire_bytes, "case {i}");
        assert_eq!(digest(&out, trace), golden, "case {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn completion_scales_linearly_with_volume(
        mb in 50u64..400,
        level in 0usize..4,
    ) {
        let speed = SpeedModel::paper_fit();
        let t1 = run_transfer(
            &det_cfg(mb, 0), &speed,
            &mut ConstantClass(Class::Moderate),
            Box::new(StaticModel::new(level, 4)),
        ).completion_secs;
        let t2 = run_transfer(
            &det_cfg(mb * 2, 0), &speed,
            &mut ConstantClass(Class::Moderate),
            Box::new(StaticModel::new(level, 4)),
        ).completion_secs;
        let ratio = t2 / t1;
        prop_assert!((1.85..2.15).contains(&ratio), "volume doubling gave x{ratio}");
    }

    #[test]
    fn more_background_flows_never_speed_things_up(
        mb in 50u64..200,
        level in 0usize..3,
    ) {
        let speed = SpeedModel::paper_fit();
        let times: Vec<f64> = (0..4).map(|flows| {
            run_transfer(
                &det_cfg(mb, flows), &speed,
                &mut ConstantClass(Class::High),
                Box::new(StaticModel::new(level, 4)),
            ).completion_secs
        }).collect();
        for w in times.windows(2) {
            prop_assert!(w[1] >= w[0] * 0.999, "contention sped things up: {times:?}");
        }
    }

    #[test]
    fn wire_bytes_track_profile_ratio(
        mb in 20u64..200,
        level in 0usize..4,
        class_idx in 0usize..3,
    ) {
        let class = Class::ALL[class_idx];
        let speed = SpeedModel::paper_fit();
        let out = run_transfer(
            &det_cfg(mb, 0), &speed,
            &mut ConstantClass(class),
            Box::new(StaticModel::new(level, 4)),
        );
        let expect = speed.profile(class, level).ratio;
        // Frame headers add a tiny constant per block.
        prop_assert!((out.wire_ratio() - expect).abs() < 0.01,
            "{class} L{level}: wire {} vs profile {}", out.wire_ratio(), expect);
    }

    #[test]
    fn link_share_is_monotone_in_flow_count(bw_mbps in 10.0f64..200.0, n in 0usize..6) {
        let a = SharedLink::new(bw_mbps * 1e6, n, Platform::no_fluctuation()).nominal_share_bps();
        let b = SharedLink::new(bw_mbps * 1e6, n + 1, Platform::no_fluctuation()).nominal_share_bps();
        prop_assert!(b < a);
        prop_assert!(a <= bw_mbps * 1e6);
    }

    #[test]
    fn transmit_time_additive_under_constant_bandwidth(
        bytes_a in 1u64..50_000_000,
        bytes_b in 1u64..50_000_000,
    ) {
        let mut link = SharedLink::new(100e6, 0, Platform::no_fluctuation());
        let together = link.transmit_secs(bytes_a + bytes_b, 0.0, 1);
        let separate = link.transmit_secs(bytes_a, 0.0, 1) + link.transmit_secs(bytes_b, 0.0, 1);
        prop_assert!((together - separate).abs() < 1e-6);
    }

    #[test]
    fn write_back_disk_never_loses_bytes(
        chunks in proptest::collection::vec(1_000_000u64..60_000_000, 1..30),
    ) {
        let mut disk = VirtualDisk::write_back(70e6, 700e6, 1_000_000_000);
        let mut t = 0.0;
        let mut total = 0u64;
        for c in chunks {
            let secs = disk.write_secs(c, t);
            prop_assert!(secs.is_finite() && secs >= 0.0);
            t += secs;
            total += c;
        }
        // Everything is either durable already or still dirty; syncing
        // drains the remainder at disk speed, and a second sync has
        // nothing left to drain.
        let sync = disk.sync_secs();
        prop_assert!(sync >= 0.0 && sync * 70e6 <= total as f64 + 1.0);
        prop_assert_eq!(disk.sync_secs(), 0.0);
    }

    #[test]
    fn write_through_disk_time_is_exact(chunk in 1_000u64..100_000_000) {
        let mut disk = VirtualDisk::write_through(85e6);
        let secs = disk.write_secs(chunk, 0.0);
        prop_assert!((secs - chunk as f64 / 85e6).abs() < 1e-9);
    }
}
