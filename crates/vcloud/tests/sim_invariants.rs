//! Property-based invariants of the cloud simulator: physically sensible
//! monotonicities that must hold for *any* parameterization.

use adcomp_core::model::StaticModel;
use adcomp_corpus::Class;
use adcomp_vcloud::{
    run_transfer, ConstantClass, Platform, SharedLink, SpeedModel, TransferConfig, VirtualDisk,
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
        let together = link.transmit_secs(bytes_a + bytes_b, 0.0);
        let separate = link.transmit_secs(bytes_a, 0.0) + link.transmit_secs(bytes_b, 0.0);
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
