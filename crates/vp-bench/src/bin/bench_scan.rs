//! The (targets, K, threaded) scan matrix, timed and cross-checked.
//!
//! Runs the benchmark scan serially and at K ∈ {2, 4, 8} shards at one or
//! more hitlist scales (`--targets 15000,100000`), folds the per-rep wall
//! times into a [`vp_obs::Histogram`] (the same type the run reports use)
//! and prints median/p90/min/max per (targets, K, threaded) row, then the
//! process's peak RSS. Sharded counts run twice: once on the inline
//! executor (the pure sharding overhead) and once on OS threads via the
//! blessed [`ShardExecutor`] (workers = min(K, 8)). Every rep also
//! cross-checks that the sharded catchment map and metrics registry stay
//! bit-identical to the serial one — a benchmark of a wrong result would
//! be worse than no benchmark, and for the threaded rows the cross-check
//! doubles as the DESIGN.md §7/§14 determinism witness under real
//! preemption. After the table comes the K=1 cost of a probe at the
//! largest scale over its cost at the smallest (`--targets
//! 15000,1000000` prints the 1M/15k figure ROADMAP item 4's bar is
//! stated in).
//!
//! The table is for reading, not for gating: nothing parses it and no
//! artifact is written. The repo's one perf ledger is `benchmark/`
//! (`benchmark/run.sh --compare` is the verdict); this binary keeps the
//! matrix only until it moves there as a workload (ROADMAP item 6b).
//!
//! Each scale builds its scenario and hitlist **once** and reuses them
//! across reps and shard counts: the benchmark times the scan engine, not
//! the topology generator, and at 10^6 blocks regenerating the world per
//! rep would dominate the wall clock. The columnar scan core keeps per-rep
//! memory bounded by the hitlist plus O(hitlist/K) in-flight probe state,
//! which is what makes `--targets 1000000` a one-machine benchmark; peak
//! RSS is printed at exit as the boundedness witness.
//!
//! Percentiles are interpolated ([`Histogram::quantile_interpolated`]):
//! with a single-digit rep count, rank-picking p90 just returns the max —
//! interpolation keeps p90 a distinct, meaningful statistic.
//!
//! Run with: `cargo run --release -p vp-bench --bin bench_scan`
//! (`--reps <n>` per-(scale, K) repetition count, `--targets <n,n,...>`
//! comma-separated hitlist scales, `--flight <path>` to also write a
//! `vp-obs-flight/v1` flight document from one instrumented threaded run
//! at the first scale — `vp-monitor profile` renders it as an attribution
//! report, and `scripts/check.sh` validates and profiles a fresh one).
//!
//! A benchmark may read wall clocks: timing real work is exactly what
//! real time is for.

#![expect(
    clippy::disallowed_methods,
    reason = "a wall-clock benchmark: it times real work and reads its own argv"
)]

use std::time::Instant;

use vp_bench::{bench_hitlist, bench_scenario_scaled};
use vp_hitlist::Hitlist;
use vp_net::SimTime;
use vp_obs::{Clock, FlightDoc, Histogram, WallChannel};
use vp_sim::exec::ShardExecutor;
use vp_sim::{CatchmentOracle, FaultConfig, Scenario, StaticOracle};
use verfploeter::scan::{run_scan, run_scan_sharded_on, ScanConfig, ScanResult};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Worker cap for the threaded rows: keeps the table comparable across
/// hosts with different core counts.
const MAX_WORKERS: usize = 8;

/// 1ms → ~90min in ×1.5 steps: fine enough that median/p90 of a scan
/// that takes tens of ms to seconds land in distinct buckets.
fn wall_time_buckets() -> Vec<u64> {
    Histogram::exponential(1_000_000, 3, 2, 40).bounds().to_vec()
}

fn scan_once(
    s: &Scenario,
    hl: &Hitlist,
    shards: usize,
    threaded: bool,
    seed: u64,
) -> (ScanResult, u64) {
    let table = s.routing();
    let config = ScanConfig::default();
    let start = Instant::now();
    let result = if shards == 1 && !threaded {
        run_scan(
            &s.world,
            hl,
            &s.announcement,
            Box::new(StaticOracle::new(table)),
            FaultConfig::default(),
            SimTime::ZERO,
            &config,
            seed,
        )
    } else {
        // Inline executor for the `threaded: false` rows so the pure
        // sharding overhead is measured identically on every host;
        // K-thread executor (capped) for the `threaded: true` rows.
        let exec = if threaded {
            ShardExecutor::new(shards.min(MAX_WORKERS))
        } else {
            ShardExecutor::serial()
        };
        run_scan_sharded_on(
            &exec,
            &s.world,
            hl,
            &s.announcement,
            &|| Box::new(StaticOracle::new(table.clone())) as Box<dyn CatchmentOracle>,
            FaultConfig::default(),
            SimTime::ZERO,
            &config,
            seed,
            shards,
        )
    };
    (result, start.elapsed().as_nanos() as u64)
}

/// Wall clock behind the flight recorder's wall channel. A benchmark may
/// read real time, and the wall channel never feeds a deterministic
/// artifact — the flight doc labels it as host timing.
struct FlightWall {
    epoch: Instant,
}

impl Clock for FlightWall {
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// One flight-instrumented threaded scan at K=8; returns the document to
/// write. The sim channel must match the uninstrumented reference's
/// byte-for-byte — attaching a wall channel is observation, not
/// perturbation (§7).
fn flight_run(s: &Scenario, hl: &Hitlist, reference: &ScanResult, targets: u64) -> FlightDoc {
    let table = s.routing();
    let config = ScanConfig {
        wall: Some(WallChannel::new(std::sync::Arc::new(FlightWall {
            epoch: Instant::now(),
        }))),
        ..ScanConfig::default()
    };
    let shards = 8;
    let exec = ShardExecutor::new(shards.min(MAX_WORKERS));
    let result = run_scan_sharded_on(
        &exec,
        &s.world,
        hl,
        &s.announcement,
        &|| Box::new(StaticOracle::new(table.clone())) as Box<dyn CatchmentOracle>,
        FaultConfig::default(),
        SimTime::ZERO,
        &config,
        0xbe9c,
        shards,
    );
    assert_eq!(
        result.obs.flight.to_canonical_json(),
        reference.obs.flight.to_canonical_json(),
        "sim flight channel diverged between instrumented threaded and serial runs"
    );
    FlightDoc {
        source: format!("bench_scan/{targets}"),
        sim: result.obs.flight.clone(),
        wall: result.obs.wall_flight.clone(),
    }
}

/// Peak resident set size in kiB (`VmHWM` from `/proc/self/status`), the
/// bounded-memory witness for the million-block scale. `None` off Linux.
fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // 9 reps: enough samples that interpolated p90 sits strictly between
    // the median and the max instead of pinning to either.
    let mut reps: u32 = 9;
    let mut flight: Option<String> = None;
    let mut scales: Vec<usize> = vec![15_000];
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--reps" => {
                i += 1;
                reps = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&r| r > 0)
                    .unwrap_or_else(|| {
                        eprintln!("--reps wants a positive integer");
                        std::process::exit(2);
                    });
            }
            "--targets" => {
                i += 1;
                scales = args
                    .get(i)
                    .map(|s| {
                        s.split(',')
                            .map(|t| match t.trim().parse::<usize>() {
                                Ok(n) if n > 0 => n,
                                _ => {
                                    eprintln!("--targets wants positive integers, got {t:?}");
                                    std::process::exit(2);
                                }
                            })
                            .collect()
                    })
                    .unwrap_or_else(|| {
                        eprintln!("--targets wants a comma-separated list of block counts");
                        std::process::exit(2);
                    });
            }
            "--flight" => {
                i += 1;
                flight = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--flight wants a path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument {other:?} (supported: --reps, --targets, --flight)");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    println!("bench_scan: scales {scales:?}, {reps} reps per K");

    // (targets, K=1 median ns per probe) per scale, for the closing ratio.
    let mut serial_ns_per_probe: Vec<(u64, f64)> = Vec::new();
    for &scale in &scales {
        let s = bench_scenario_scaled(33, scale);
        let hl = bench_hitlist(&s);
        // Fixed reference for the bit-identity cross-check (and a warmup).
        let (reference, _) = scan_once(&s, &hl, 1, false, 0xbe9c);
        let targets = reference.probes_sent;
        assert_eq!(
            targets, scale as u64,
            "scaled scenario undershoots the requested block count — \
             raise num_ases in bench_scenario_scaled"
        );
        // Taken, so only the first scale writes one.
        if let Some(path) = flight.take() {
            let doc = flight_run(&s, &hl, &reference, targets);
            std::fs::write(&path, doc.to_canonical_json())
                .unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("  wrote flight document to {path}");
        }
        println!("  targets={targets}");
        for shards in SHARD_COUNTS {
            // K=1 threaded would measure the same inline path twice.
            let modes: &[bool] = if shards == 1 { &[false] } else { &[false, true] };
            for &threaded in modes {
                let mut hist = Histogram::new(wall_time_buckets());
                for rep in 0..reps {
                    let (result, wall) = scan_once(&s, &hl, shards, threaded, 0xbe9c);
                    assert!(
                        result.catchments == reference.catchments,
                        "targets={targets} K={shards} threaded={threaded} rep={rep}: \
                         catchment map diverged from serial"
                    );
                    assert_eq!(
                        result.obs.registry.to_canonical_json(),
                        reference.obs.registry.to_canonical_json(),
                        "targets={targets} K={shards} threaded={threaded} rep={rep}: \
                         metrics registry diverged from serial"
                    );
                    hist.observe(wall);
                }
                let median = hist.quantile_interpolated(0.5);
                let p90 = hist.quantile_interpolated(0.9);
                if shards == 1 {
                    serial_ns_per_probe.push((targets, median as f64 / targets as f64));
                }
                println!(
                    "    K={shards}{}: median {:.1}ms  p90 {:.1}ms  (min {:.1}ms, max {:.1}ms)",
                    if threaded { " threaded" } else { "" },
                    median as f64 / 1e6,
                    p90 as f64 / 1e6,
                    hist.min() as f64 / 1e6,
                    hist.max() as f64 / 1e6,
                );
            }
        }
    }

    serial_ns_per_probe.sort_by_key(|&(targets, _)| targets);
    if let [(small, small_ns), .., (large, large_ns)] = serial_ns_per_probe[..] {
        println!(
            "K=1 per probe: {large_ns:.0} ns at {large} targets / {small_ns:.0} ns at {small} = {:.2}x",
            large_ns / small_ns
        );
    }
    if let Some(kib) = peak_rss_kib() {
        println!("peak RSS {:.1} MiB", kib as f64 / 1024.0);
    }
}
