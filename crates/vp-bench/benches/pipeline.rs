//! Measurement-pipeline throughput: full scans, cleaning, collection, and
//! the read side (snapshot ingest, round diff).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vp_bench::{bench_hitlist, bench_scenario, synthetic_round};
use vp_bgp::SiteId;
use vp_monitor::diff::{diff_rounds, Origins};
use vp_monitor::ingest::load_round_file;
use vp_net::{Asn, Ipv4Addr, SimDuration, SimTime};
use vp_sim::{CaptureSink, FaultConfig, ServiceHandle, StaticOracle};
use verfploeter::collector::RawReply;
use verfploeter::prober::{ProbeConfig, Prober};
use verfploeter::scan::{run_scan, ScanConfig};
use verfploeter::{clean, CatchmentMap, Cleaner};

fn bench_full_scan(c: &mut Criterion) {
    let s = bench_scenario(11);
    let hl = bench_hitlist(&s);
    let mut g = c.benchmark_group("scan");
    g.sample_size(10);
    g.throughput(Throughput::Elements(hl.len() as u64));
    g.bench_function("full_round_15k_targets", |b| {
        b.iter(|| {
            let result = run_scan(
                &s.world,
                &hl,
                &s.announcement,
                Box::new(StaticOracle::new(s.routing())),
                FaultConfig::default(),
                SimTime::ZERO,
                &ScanConfig::default(),
                1,
            );
            black_box(result.catchments.len())
        })
    });
    g.finish();
}

fn bench_probe_scheduling(c: &mut Criterion) {
    let s = bench_scenario(12);
    let hl = bench_hitlist(&s);
    let prober = Prober::new(ProbeConfig::default());
    let src = s.announcement.measurement_addr();
    let mut g = c.benchmark_group("prober");
    g.sample_size(20);
    g.throughput(Throughput::Elements(hl.len() as u64));
    g.bench_function("schedule_15k", |b| {
        b.iter(|| {
            let probes = prober
                .schedule(hl.len() as u64, SimTime::ZERO)
                .map(|(index, _)| prober.build_probe(&hl, index, src));
            black_box(probes.count())
        })
    });
    g.finish();
}

fn synthetic_replies(n: usize, hl: &vp_hitlist::Hitlist) -> Vec<RawReply> {
    (0..n)
        .map(|i| {
            let idx = (i % hl.len()) as u64;
            RawReply {
                site: SiteId((i % 2) as u8),
                at: SimTime(i as u64 * 1000),
                src: hl.entry(idx as usize).target,
                ident: 1,
                index: Some(idx),
            }
        })
        .collect()
}

fn bench_cleaning(c: &mut Criterion) {
    let s = bench_scenario(13);
    let hl = bench_hitlist(&s);
    let replies = synthetic_replies(50_000, &hl);
    let mut g = c.benchmark_group("cleaning");
    g.sample_size(20);
    g.throughput(Throughput::Elements(replies.len() as u64));
    g.bench_function("clean_50k_replies", |b| {
        b.iter(|| {
            let (kept, stats) = clean(
                &replies,
                &hl,
                1,
                SimTime::ZERO,
                SimDuration::from_mins(15),
            );
            black_box((kept.len(), stats.kept))
        })
    });
    g.finish();
}

fn bench_collector(c: &mut Criterion) {
    // Site captures -> parse -> central cleaning, through the capture sink
    // the scan hands the engine.
    let s = bench_scenario(15);
    let hl = bench_hitlist(&s);
    let captures: Vec<(SiteId, SimTime, vp_packet::Ipv4Packet)> = (0..40_000u64)
        .map(|i| {
            let index = i % hl.len() as u64;
            let icmp = vp_packet::IcmpMessage::EchoReply {
                ident: 1,
                seq: i as u16,
                payload: Prober::encode_payload(index),
            };
            let packet = vp_packet::Ipv4Packet::new(
                hl.entry(index as usize).target,
                Ipv4Addr::new(240, 0, 0, 1),
                vp_packet::Protocol::Icmp,
                icmp.emit(),
            );
            (SiteId((i % 4) as u8), SimTime(i), packet)
        })
        .collect();
    let mut g = c.benchmark_group("collector");
    g.sample_size(10);
    g.throughput(Throughput::Elements(captures.len() as u64));
    g.bench_function("sink_40k_4sites", |b| {
        b.iter(|| {
            let mut sink = Cleaner::new(&hl, 1, SimTime::ZERO, SimDuration::from_mins(15));
            for (key, (site, at, packet)) in (0u64..).zip(&captures) {
                sink.capture(ServiceHandle(0), *site, *at, key, packet);
            }
            black_box(sink.finish().1.total)
        })
    });
    g.finish();
}

fn bench_catchment_fold(c: &mut Criterion) {
    let s = bench_scenario(14);
    let hl = bench_hitlist(&s);
    let replies = synthetic_replies(hl.len(), &hl);
    let (kept, _) = clean(&replies, &hl, 1, SimTime::ZERO, SimDuration::from_mins(15));
    let mut g = c.benchmark_group("catchment");
    g.sample_size(30);
    g.throughput(Throughput::Elements(kept.len() as u64));
    g.bench_function("fold_map", |b| {
        b.iter(|| black_box(CatchmentMap::from_replies("bench", &kept, &hl).len()))
    });
    g.finish();
}

/// The read side of what the scans write, at two sizes a decade apart:
/// ns/entry (the inverse of the elem/s column) must be flat in N.
fn bench_ingest(c: &mut Criterion) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("vp-bench-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let mut g = c.benchmark_group("ingest");
    g.sample_size(10);
    for entries in [30_000usize, 300_000] {
        let prev = synthetic_round(entries, 0);
        let cur = synthetic_round(entries, 1);
        let text = prev.to_json();
        let path = dir.join(format!("r{entries}.json"));
        std::fs::write(&path, &text).expect("write round file");
        let load = |b: &mut criterion::Bencher| {
            b.iter(|| black_box(load_round_file(&path).expect("round file loads").len()))
        };
        g.throughput(Throughput::Bytes(text.len() as u64));
        g.bench_function(BenchmarkId::new("load_round_file_bytes", entries), load);
        g.throughput(Throughput::Elements(entries as u64));
        g.bench_function(BenchmarkId::new("load_round_file", entries), load);
        let origins: Origins = prev.iter().map(|(b, _)| (b, Asn(b.0 % 4_000))).collect();
        g.bench_function(BenchmarkId::new("diff_rounds", entries), |b| {
            b.iter(|| black_box(diff_rounds(&prev, &cur, 1, Some(&origins)).flipped))
        });
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_full_scan,
    bench_probe_scheduling,
    bench_cleaning,
    bench_collector,
    bench_catchment_fold,
    bench_ingest
);
criterion_main!(benches);
