//! Criterion microbenchmarks for Fig. 5: activity selection at two
//! ranks, sequential vs Type 1 vs Type 2 (plus the PA-BST reference).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use phase_parallel::{PhaseAlgorithm, RunConfig};
use pp_algos::activity::{self, workload};
use pp_algos::api::{ActivityType1, ActivityType1Pam, ActivityType2, UnweightedActivity};

fn bench_activity(c: &mut Criterion) {
    let n = 200_000;
    let mut group = c.benchmark_group("fig5_activity");
    group.sample_size(10);
    for rank in [100u64, 10_000] {
        let acts = workload::with_target_rank(n, rank, 1);
        group.bench_with_input(BenchmarkId::new("classic_seq", rank), &acts, |b, a| {
            b.iter(|| activity::max_weight_seq(a))
        });
        group.bench_with_input(BenchmarkId::new("type1_flat", rank), &acts, |b, a| {
            b.iter(|| ActivityType1.solve_par(a, &RunConfig::new()))
        });
        group.bench_with_input(BenchmarkId::new("type1_pam", rank), &acts, |b, a| {
            b.iter(|| ActivityType1Pam.solve_par(a, &RunConfig::new()))
        });
        group.bench_with_input(BenchmarkId::new("type2", rank), &acts, |b, a| {
            b.iter(|| ActivityType2.solve_par(a, &RunConfig::new()))
        });
        group.bench_with_input(
            BenchmarkId::new("unweighted_logn_span", rank),
            &acts,
            |b, a| b.iter(|| UnweightedActivity.solve_par(a, &RunConfig::new()).output),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_activity);
criterion_main!(benches);
