//! Criterion microbenchmarks for the substrates behind Table 1's
//! bounds: PA-BST bulk operations (Theorems 2.1/2.2), the 2D range
//! tree, and the parallel primitives.

use criterion::{criterion_group, criterion_main, Criterion};
use pp_pam::{AugTree, MaxAug};
use pp_parlay::monoid::sum_monoid;
use pp_ranges::{PivotMode, RangeTree2d};

fn bench_substrates(c: &mut Criterion) {
    let n = 200_000usize;
    let mut group = c.benchmark_group("table1_substrates");
    group.sample_size(10);

    // parlay primitives.
    let v: Vec<u64> = (0..n as u64).collect();
    group.bench_function("parlay_scan", |b| {
        b.iter(|| pp_parlay::scan_exclusive(&sum_monoid::<u64>(), &v))
    });
    let mut unsorted: Vec<u64> = (0..n as u64).map(|i| pp_parlay::hash64(1, i)).collect();
    group.bench_function("parlay_sort", |b| {
        b.iter(|| {
            let mut w = unsorted.clone();
            pp_parlay::par_sort(&mut w);
            w
        })
    });
    group.bench_function("parlay_radix_sort", |b| {
        b.iter(|| {
            let mut w = unsorted.clone();
            pp_parlay::radix_sort_u64(&mut w);
            w
        })
    });
    unsorted.sort_unstable();
    group.bench_function("parlay_random_permutation", |b| {
        b.iter(|| pp_parlay::random_permutation(n, 3))
    });
    group.bench_function("parlay_forest_depths", |b| {
        let parent: Vec<u32> = (0..n as u32)
            .map(|i| {
                if i == 0 {
                    0
                } else {
                    pp_parlay::hash64(8, u64::from(i)) as u32 % i
                }
            })
            .collect();
        b.iter(|| pp_parlay::list_rank::forest_depths(&parent))
    });

    // PA-BST: build, union, multi_insert, range query (Thm 2.1/2.2).
    let entries: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 2, i % 97)).collect();
    group.bench_function("pam_build", |b| {
        b.iter(|| AugTree::from_sorted(MaxAug, entries.clone()))
    });
    let batch: Vec<(u64, u64)> = (0..n as u64 / 10).map(|i| (i * 20 + 1, i)).collect();
    group.bench_function("pam_multi_insert_10pct", |b| {
        b.iter(|| {
            let mut t = AugTree::from_sorted(MaxAug, entries.clone());
            t.multi_insert(batch.clone());
            t
        })
    });
    let tree = AugTree::from_sorted(MaxAug, entries.clone());
    group.bench_function("pam_range_query", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc ^= tree.aug_range(&(i * 37), &(i * 37 + 10_000));
            }
            acc
        })
    });

    // 2D range tree: build + query + batch finish (Algorithm 3's T_range).
    let ys = pp_parlay::random_permutation(n, 5);
    group.bench_function("range2d_build", |b| {
        b.iter(|| RangeTree2d::new(&ys, PivotMode::RightMost))
    });
    let tree2d = RangeTree2d::new(&ys, PivotMode::RightMost);
    group.bench_function("range2d_query_1k", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for i in 0..1000u64 {
                let qx = pp_parlay::hash64(6, i) % n as u64;
                let qy = pp_parlay::hash64(7, i) % n as u64;
                acc ^= tree2d.query_prefix(qx as u32, qy as u32).unfinished;
            }
            acc
        })
    });
    group.bench_function("range2d_finish_batch_10pct", |b| {
        b.iter(|| {
            let mut t = RangeTree2d::new(&ys, PivotMode::RightMost);
            let batch: Vec<(u32, u32)> = (0..n as u32).step_by(10).map(|x| (x, 1)).collect();
            t.finish_batch(&batch);
            t
        })
    });
    group.finish();
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);
