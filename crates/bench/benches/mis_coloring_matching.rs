//! Criterion microbenchmarks for §5.3: MIS (TAS trees vs rounds vs
//! sequential), Jones–Plassmann coloring, and greedy matching.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pp_algos::RunConfig;
use pp_algos::{coloring, matching, mis};
use pp_graph::gen;
use pp_parlay::shuffle::random_priorities;

fn bench_graph_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("mis_coloring_matching");
    group.sample_size(10);
    for (name, g) in [
        ("uniform_100k", gen::uniform(100_000, 500_000, 1)),
        ("rmat_2^15", gen::rmat(15, 1 << 18, 2)),
    ] {
        let pri = random_priorities(g.num_vertices(), 3);
        group.bench_with_input(BenchmarkId::new("mis_seq", name), &g, |b, g| {
            b.iter(|| mis::mis_seq(g, &pri))
        });
        group.bench_with_input(BenchmarkId::new("mis_tas", name), &g, |b, g| {
            b.iter(|| mis::mis_tas(g, &pri, &RunConfig::new()).output)
        });
        group.bench_with_input(BenchmarkId::new("mis_rounds", name), &g, |b, g| {
            b.iter(|| mis::mis_rounds(g, &pri, &RunConfig::new()))
        });
        let luby_cfg = RunConfig::seeded(5);
        group.bench_with_input(BenchmarkId::new("mis_luby", name), &g, |b, g| {
            b.iter(|| mis::mis_luby(g, &luby_cfg))
        });
        group.bench_with_input(BenchmarkId::new("coloring_seq", name), &g, |b, g| {
            b.iter(|| coloring::coloring_seq(g, &pri))
        });
        group.bench_with_input(BenchmarkId::new("coloring_par", name), &g, |b, g| {
            b.iter(|| coloring::coloring_par(g, &pri, &RunConfig::new()).output)
        });
        let epri = matching::random_edge_priorities(&g, 4);
        group.bench_with_input(BenchmarkId::new("matching_seq", name), &g, |b, g| {
            b.iter(|| matching::matching_seq(g, &epri))
        });
        group.bench_with_input(BenchmarkId::new("matching_par", name), &g, |b, g| {
            b.iter(|| matching::matching_par(g, &epri, &RunConfig::new()))
        });
        group.bench_with_input(
            BenchmarkId::new("matching_reservations", name),
            &g,
            |b, g| b.iter(|| matching::matching_reservations(g, &epri, &RunConfig::new())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_graph_greedy);
criterion_main!(benches);
