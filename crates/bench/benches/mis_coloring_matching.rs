//! Criterion microbenchmarks for §5.3: MIS (TAS trees vs rounds vs
//! sequential), Jones–Plassmann coloring, and greedy matching.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pp_algos::api::{
    Coloring, GraphPriorityInstance, GreedyMis, Matching, MatchingReservations, RoundsMis,
};
use pp_algos::{coloring, matching, mis};
use pp_algos::{PhaseAlgorithm, RunConfig};
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
        let mut inst = GraphPriorityInstance::new(g, pri);
        group.bench_with_input(BenchmarkId::new("mis_seq", name), &inst, |b, i| {
            b.iter(|| mis::mis_seq(&i.graph, &i.priority))
        });
        group.bench_with_input(BenchmarkId::new("mis_tas", name), &inst, |b, i| {
            b.iter(|| GreedyMis.solve_par(i, &RunConfig::new()).output)
        });
        group.bench_with_input(BenchmarkId::new("mis_rounds", name), &inst, |b, i| {
            b.iter(|| RoundsMis.solve_par(i, &RunConfig::new()))
        });
        let luby_cfg = RunConfig::seeded(5);
        group.bench_with_input(BenchmarkId::new("mis_luby", name), &inst, |b, i| {
            b.iter(|| mis::mis_luby(&i.graph, &luby_cfg))
        });
        group.bench_with_input(BenchmarkId::new("coloring_seq", name), &inst, |b, i| {
            b.iter(|| coloring::coloring_seq(&i.graph, &i.priority))
        });
        group.bench_with_input(BenchmarkId::new("coloring_par", name), &inst, |b, i| {
            b.iter(|| Coloring.solve_par(i, &RunConfig::new()).output)
        });
        inst.priority = matching::random_edge_priorities(&inst.graph, 4);
        group.bench_with_input(BenchmarkId::new("matching_seq", name), &inst, |b, i| {
            b.iter(|| matching::matching_seq(&i.graph, &i.priority))
        });
        group.bench_with_input(BenchmarkId::new("matching_par", name), &inst, |b, i| {
            b.iter(|| Matching.solve_par(i, &RunConfig::new()))
        });
        group.bench_with_input(
            BenchmarkId::new("matching_reservations", name),
            &inst,
            |b, i| b.iter(|| MatchingReservations.solve_par(i, &RunConfig::new())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_graph_greedy);
criterion_main!(benches);
