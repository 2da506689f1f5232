//! Benchmarks of the vp-net primitives, including the probe-order
//! ablation called out in DESIGN.md.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use vp_net::{FeistelPermutation, LcgPermutation, ProbeOrder, SimDuration, SimTime, TokenBucket};

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

fn bench_token_bucket(c: &mut Criterion) {
    c.bench_function("token_bucket_pacing_10k", |b| {
        b.iter(|| {
            let mut bucket = TokenBucket::new(10_000.0, 1.0);
            let mut t = SimTime::ZERO;
            for _ in 0..10_000 {
                t = bucket.next_available(t);
                assert!(bucket.try_acquire(t));
                t += SimDuration(1);
            }
            black_box(t)
        })
    });
}

criterion_group!(benches, bench_permutations, bench_token_bucket);
criterion_main!(benches);
