//! Criterion microbenchmarks for Figs. 8/9: LIS on segment and line
//! patterns across output sizes — Algorithm 3 (`lis_weighted_par` with
//! unit weights) in both pivot modes, vs the classic DP.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pp_algos::lis::{lis_seq, lis_weighted_par, patterns, PivotMode};
use pp_algos::RunConfig;

fn bench_lis(c: &mut Criterion) {
    let n = 200_000;
    let mut group = c.benchmark_group("fig8_9_lis");
    group.sample_size(10);
    for k in [10usize, 300] {
        for (pat, series) in [
            ("segment", patterns::segment(n, k, 1)),
            ("line", patterns::line_with_target(n, k, 2)),
        ] {
            let id = format!("{pat}_k{k}");
            let ones = vec![1; series.len()];
            group.bench_with_input(BenchmarkId::new("classic_seq", &id), &series, |b, s| {
                b.iter(|| lis_seq(s))
            });
            let rightmost = RunConfig::seeded(3).with_pivot_mode(PivotMode::RightMost);
            group.bench_with_input(BenchmarkId::new("par_rightmost", &id), &series, |b, s| {
                b.iter(|| lis_weighted_par(s, &ones, &rightmost))
            });
            let random = RunConfig::seeded(3).with_pivot_mode(PivotMode::Random);
            group.bench_with_input(BenchmarkId::new("par_random", &id), &series, |b, s| {
                b.iter(|| lis_weighted_par(s, &ones, &random))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_lis);
criterion_main!(benches);
