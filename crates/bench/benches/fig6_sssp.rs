//! Criterion microbenchmarks for Fig. 6: Δ-stepping across Δ choices on
//! an RMAT social-network stand-in, plus the baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pp_algos::api::{BellmanFordSssp, DeltaSssp, SsspInstance};
use pp_algos::sssp;
use pp_algos::{PhaseAlgorithm, RunConfig};
use pp_graph::gen;

fn bench_sssp(c: &mut Criterion) {
    let g = gen::rmat(13, 1 << 16, 1);
    let w_star = 1u64 << 20;
    let inst = SsspInstance::new(gen::with_uniform_weights(&g, w_star, 1 << 23, 2), 0);
    let mut group = c.benchmark_group("fig6_sssp");
    group.sample_size(10);
    group.bench_function("dijkstra_seq", |b| {
        b.iter(|| sssp::dijkstra(&inst.graph, 0))
    });
    group.bench_function("bellman_ford", |b| {
        b.iter(|| BellmanFordSssp.solve_par(&inst, &RunConfig::new()).output)
    });
    for dlog in [18u32, 20, 22, 26] {
        let cfg = RunConfig::new().with_delta(1 << dlog);
        group.bench_with_input(
            BenchmarkId::new("delta_stepping", format!("2^{dlog}")),
            &inst,
            |b, inst| b.iter(|| DeltaSssp.solve_par(inst, &cfg)),
        );
    }
    group.bench_function("phase_parallel_w_star", |b| {
        b.iter(|| DeltaSssp.solve_par(&inst, &RunConfig::new()))
    });
    group.finish();
}

criterion_group!(benches, bench_sssp);
criterion_main!(benches);
