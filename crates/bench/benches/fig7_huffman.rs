//! Criterion microbenchmarks for Fig. 7: Huffman construction on the
//! three §6.2 distributions, parallel vs sequential.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phase_parallel::RunConfig;
use pp_algos::huffman;
use pp_parlay::rng::{bounded, hash64};

fn bench_huffman(c: &mut Criterion) {
    let n = 500_000usize;
    let uniform: Vec<u64> = (0..n as u64)
        .map(|i| 1 + bounded(hash64(1, i), 1000))
        .collect();
    let zipf: Vec<u64> = (0..n).map(|i| (n / (i + 1)) as u64 + 1).collect();
    let expo: Vec<u64> = (0..n as u64)
        .map(|i| {
            let u = (hash64(2, i) >> 11) as f64 / (1u64 << 53) as f64;
            ((-u.max(1e-12).ln() * 100.0) as u64).max(1)
        })
        .collect();
    let mut group = c.benchmark_group("fig7_huffman");
    group.sample_size(10);
    for (name, freqs) in [("uniform", uniform), ("zipf", zipf), ("exponential", expo)] {
        group.bench_with_input(BenchmarkId::new("parallel", name), &freqs, |b, f| {
            b.iter(|| huffman::build_par(f, &RunConfig::new()).output)
        });
        group.bench_with_input(BenchmarkId::new("sequential", name), &freqs, |b, f| {
            b.iter(|| huffman::build_seq(f))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_huffman);
criterion_main!(benches);
