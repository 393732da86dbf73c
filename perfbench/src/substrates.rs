//! The paper's Table 1 substrates, timed at the input size of
//! `engines-wide` (2000 elements, the graph entries' vertex count): the
//! `pp-parlay` primitives, the `pp-pam` augmented tree and the
//! `pp-ranges` 2D range tree. Each value is the median of many calls.

use crate::{micros, quantile, Metrics, Size};
use pp_pam::{AugTree, MaxAug};
use pp_parlay::monoid::sum_monoid;
use pp_ranges::{PivotMode, RangeTree2d};
use rayon::ThreadPool;
use std::hint::black_box;
use std::time::Instant;

const N: usize = 2000;
const REPS: usize = 101;
/// Queries per timed call of the query-style substrates.
const QUERIES: u64 = 256;

/// Median microseconds of `REPS` calls of `f` on an untimed `setup(rep)`.
fn time_after<S>(mut setup: impl FnMut(u64) -> S, mut f: impl FnMut(S)) -> f64 {
    let mut times: Vec<f64> = (0..REPS as u64)
        .map(|rep| {
            let input = setup(rep);
            let started = Instant::now();
            f(input);
            micros(started.elapsed())
        })
        .collect();
    quantile(&mut times, 0.5)
}

fn time(f: impl FnMut(u64)) -> f64 {
    time_after(|rep| rep, f)
}

pub fn measure(pool: &ThreadPool, size: Size, metrics: &mut Metrics) {
    let n = match size {
        Size::Full => N,
        Size::Smoke => N / 10,
    };
    pool.install(|| {
        let values: Vec<u64> = (0..n as u64).map(|i| pp_parlay::hash64(1, i)).collect();
        metrics.set(
            "parlay.scan_us",
            time(|_| {
                black_box(pp_parlay::scan_exclusive(&sum_monoid::<u64>(), &values));
            }),
        );
        metrics.set(
            "parlay.sort_us",
            time(|_| {
                let mut v = values.clone();
                pp_parlay::par_sort(&mut v);
                black_box(v);
            }),
        );
        let flags: Vec<bool> = values.iter().map(|v| v % 3 == 0).collect();
        metrics.set(
            "parlay.pack_us",
            time(|_| {
                black_box(pp_parlay::pack(&values, &flags));
            }),
        );

        let entries: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 2, i % 97)).collect();
        let batch: Vec<(u64, u64)> = (0..n as u64 / 10).map(|i| (i * 20 + 1, i)).collect();
        let base = AugTree::from_sorted(MaxAug, entries);
        metrics.set(
            "pam.multi_insert_us",
            time_after(
                |_| (base.clone(), batch.clone()),
                |(mut t, batch)| {
                    t.multi_insert(batch);
                    black_box(t);
                },
            ),
        );
        let span = 2 * n as u64;
        metrics.set(
            "pam.aug_range_us",
            time(|rep| {
                let mut acc = 0u64;
                for i in 0..QUERIES {
                    let lo = pp_parlay::hash64(rep, i) % span;
                    acc ^= base.aug_range(&lo, &(lo + span / 8));
                }
                black_box(acc);
            }) / QUERIES as f64,
        );

        let ys = pp_parlay::random_permutation(n, 5);
        let tree = RangeTree2d::new(&ys, PivotMode::RightMost);
        metrics.set(
            "ranges.range2d_query_us",
            time(|rep| {
                let mut acc = 0u32;
                for i in 0..QUERIES {
                    let qx = pp_parlay::hash64(6 ^ rep, i) % n as u64;
                    let qy = pp_parlay::hash64(7 ^ rep, i) % n as u64;
                    acc ^= tree.query_prefix(qx as u32, qy as u32).unfinished;
                }
                black_box(acc);
            }) / QUERIES as f64,
        );
        let finished: Vec<(u32, u32)> = (0..n as u32).step_by(10).map(|x| (x, 1)).collect();
        metrics.set(
            "ranges.range2d_finish_batch_us",
            time_after(
                |_| RangeTree2d::new(&ys, PivotMode::RightMost),
                |mut t| {
                    t.finish_batch(&finished);
                    black_box(t);
                },
            ),
        );
    });
}
