//! Tier-1 gate: the scan round must be invariant in its shard count —
//! `run_scan` is the K=1 round, and every K must reproduce it bit-for-bit
//! on a tiny world, fast enough to run in every `cargo test`.
//!
//! The exhaustive matrix (two worlds, three fault configs, merge-algebra
//! property tests) lives in `crates/verfploeter/tests/sharded_equivalence.rs`;
//! this is the always-on smoke version of the same contract, through the
//! host-parallel entry point.

use verfploeter_suite::hitlist::{Hitlist, HitlistConfig};
use verfploeter_suite::net::SimTime;
use verfploeter_suite::sim::{FaultConfig, Scenario, ShardExecutor, StaticOracle};
use verfploeter_suite::topology::TopologyConfig;
use verfploeter_suite::vp::scan::{run_scan, run_scan_sharded_on, ScanConfig};

#[test]
fn sharded_scan_matches_serial_bit_for_bit() {
    let s = Scenario::broot(TopologyConfig::tiny(7002), 7);
    let hitlist = Hitlist::from_internet(&s.world, &HitlistConfig::default());
    let serial = run_scan(
        &s.world,
        &hitlist,
        &s.announcement,
        Box::new(StaticOracle::new(s.routing())),
        FaultConfig::default(),
        SimTime::ZERO,
        &ScanConfig::default(),
        0x9a7e,
    );
    for shards in [1usize, 2, 7, 16] {
        let sharded = run_scan_sharded_on(
            &ShardExecutor::host_parallel(shards),
            &s.world,
            &hitlist,
            &s.announcement,
            &|| Box::new(StaticOracle::new(s.routing())),
            FaultConfig::default(),
            SimTime::ZERO,
            &ScanConfig::default(),
            0x9a7e,
            shards,
        );
        assert_eq!(serial.cleaning, sharded.cleaning, "K={shards}");
        assert_eq!(serial.sim_stats, sharded.sim_stats, "K={shards}");
        assert_eq!(serial.probes_sent, sharded.probes_sent, "K={shards}");
        assert_eq!(serial.last_probe, sharded.last_probe, "K={shards}");
        assert_eq!(
            serial.catchments.len(),
            sharded.catchments.len(),
            "K={shards}"
        );
        for (block, site) in serial.catchments.iter() {
            assert_eq!(
                sharded.catchments.site_of(block),
                Some(site),
                "K={shards}, block {block}"
            );
        }
        assert_eq!(serial.rtts, sharded.rtts, "K={shards}");
    }
}
