//! Benchmarks of the vp-net primitives, including the probe-order and
//! LPM ablations called out in DESIGN.md.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use vp_bench::{bench_scenario, SortedVecLpm};
use vp_net::{
    FeistelPermutation, LcgPermutation, Prefix, ProbeOrder, SimDuration, SimTime, TokenBucket,
};

fn bench_permutations(c: &mut Criterion) {
    let mut g = c.benchmark_group("probe_order");
    g.sample_size(20);
    for n in [100_000u64, 1_000_000] {
        let feistel = FeistelPermutation::new(n, 42);
        g.bench_with_input(BenchmarkId::new("feistel", n), &n, |b, &n| {
            b.iter(|| {
                let mut acc = 0u64;
                for i in (0..n).step_by(97) {
                    acc ^= feistel.permute(i);
                }
                black_box(acc)
            })
        });
        let lcg = LcgPermutation::new(n, 42);
        g.bench_with_input(BenchmarkId::new("lcg", n), &n, |b, &n| {
            b.iter(|| {
                let mut acc = 0u64;
                for i in (0..n).step_by(97) {
                    acc ^= lcg.permute(i);
                }
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn bench_lpm(c: &mut Criterion) {
    let s = bench_scenario(2);
    let entries: Vec<(Prefix, u32)> = s
        .world
        .prefixes
        .iter()
        .map(|p| (p.prefix, p.origin.0))
        .collect();
    // The trie that ships: the world's own origin table.
    let trie = &s.world.origin_table;
    let vec_lpm = SortedVecLpm::new(entries);
    let probes: Vec<vp_net::Ipv4Addr> = s
        .world
        .blocks
        .iter()
        .step_by(7)
        .map(|b| b.representative())
        .collect();

    let mut g = c.benchmark_group("lpm_lookup");
    g.sample_size(30);
    g.bench_function("arena_lpm", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for ip in &probes {
                if trie.longest_match(*ip).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.bench_function("sorted_vec", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for ip in &probes {
                if vec_lpm.longest_match(*ip).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn bench_token_bucket(c: &mut Criterion) {
    c.bench_function("token_bucket_pacing_10k", |b| {
        b.iter(|| {
            let mut bucket = TokenBucket::new(10_000.0, 1.0);
            let mut t = SimTime::ZERO;
            for _ in 0..10_000 {
                t = bucket.next_available(t);
                assert!(bucket.try_acquire(t));
                t = t + SimDuration(1);
            }
            black_box(t)
        })
    });
}

criterion_group!(benches, bench_permutations, bench_lpm, bench_token_bucket);
criterion_main!(benches);
