//! Criterion microbenchmarks for the remaining algorithms: unlimited
//! knapsack (§4.2), Whac-A-Mole (Appendix B), weighted LIS (§5.2
//! generalization), chains, and random permutations.

use criterion::{criterion_group, criterion_main, Criterion};
use pp_algos::api::{Chain, Knapsack, RandomPerm, Whac, Whac2d};
use pp_algos::chain::chain_seq;
use pp_algos::knapsack::{max_value_seq, Item};
use pp_algos::lis::{lis_weighted_par, lis_weighted_seq, patterns, PivotMode};
use pp_algos::whac::{rotated_v_sequence, whac2d_seq, whac_seq, Mole, Mole2d};
use pp_algos::{PhaseAlgorithm, RunConfig};
use pp_parlay::rng::hash64;

fn bench_misc(c: &mut Criterion) {
    let mut group = c.benchmark_group("misc_algos");
    group.sample_size(10);

    // Knapsack: 60 items, W = 100k, w* = 25.
    let items: Vec<Item> = (0..60u64)
        .map(|i| Item::new(25 + hash64(1, i) % 200, 1 + hash64(2, i) % 1000))
        .collect();
    let knapsack = (items, 100_000);
    group.bench_function("knapsack_par", |b| {
        b.iter(|| Knapsack.solve_par(&knapsack, &RunConfig::new()))
    });
    group.bench_function("knapsack_seq", |b| {
        b.iter(|| max_value_seq(&knapsack.0, knapsack.1))
    });

    // Whac-A-Mole: 100k moles.
    let moles: Vec<Mole> = (0..100_000u64)
        .map(|i| Mole {
            t: (hash64(3, i) % 1_000_000) as i64,
            p: (hash64(4, i) % 10_000) as i64 - 5_000,
        })
        .collect();
    let rm5 = RunConfig::seeded(5).with_pivot_mode(PivotMode::RightMost);
    group.bench_function("whac_par", |b| b.iter(|| Whac.solve_par(&moles, &rm5)));
    // Appendix B's route: Algorithm 3 (unit weights) on the rotation.
    group.bench_function("whac_alg3", |b| {
        b.iter(|| {
            let series = rotated_v_sequence(&moles);
            lis_weighted_par(&series, &vec![1; series.len()], &rm5)
        })
    });
    group.bench_function("whac_seq", |b| b.iter(|| whac_seq(&moles)));

    // Weighted LIS: 100k elements, k ≈ 100.
    let values = patterns::segment(100_000, 100, 6);
    let weights: Vec<u32> = (0..values.len() as u64)
        .map(|i| 1 + (hash64(7, i) % 50) as u32)
        .collect();
    let rm8 = RunConfig::seeded(8).with_pivot_mode(PivotMode::RightMost);
    group.bench_function("lis_weighted_par", |b| {
        b.iter(|| lis_weighted_par(&values, &weights, &rm8))
    });
    group.bench_function("lis_weighted_seq", |b| {
        b.iter(|| lis_weighted_seq(&values, &weights))
    });

    // 3D dominance chain (Appendix B's 3D range-query extension).
    let pts: Vec<[i64; 3]> = (0..20_000u64)
        .map(|i| std::array::from_fn(|j| (hash64(11 + j as u64, i) % 100_000) as i64))
        .collect();
    let rm14 = RunConfig::seeded(14).with_pivot_mode(PivotMode::RightMost);
    group.bench_function("chain3d_par", |b| {
        b.iter(|| Chain::<3>.solve_par(&pts, &rm14))
    });
    group.bench_function("chain3d_seq", |b| b.iter(|| chain_seq(&pts)));

    // 2D-grid Whac-A-Mole (4D dominance, one more tree level).
    let moles2d: Vec<Mole2d> = (0..10_000u64)
        .map(|i| Mole2d {
            t: (hash64(15, i) % 60_000) as i64,
            x: (hash64(16, i) % 200) as i64 - 100,
            y: (hash64(17, i) % 200) as i64 - 100,
        })
        .collect();
    let rm18 = RunConfig::seeded(18).with_pivot_mode(PivotMode::RightMost);
    group.bench_function("whac2d_par", |b| {
        b.iter(|| Whac2d.solve_par(&moles2d, &rm18))
    });
    group.bench_function("whac2d_seq", |b| b.iter(|| whac2d_seq(&moles2d)));

    // Random permutation via deterministic reservations vs sort-based.
    group.bench_function("random_perm_wakeups", |b| {
        b.iter(|| RandomPerm.solve_par(&(200_000, 19), &RunConfig::new()))
    });
    group.bench_function("random_perm_sortbased", |b| {
        b.iter(|| pp_parlay::random_permutation(200_000, 19))
    });

    group.finish();
}

criterion_group!(benches, bench_misc);
criterion_main!(benches);
