//! The parallel LIS engines.
//!
//! **Unweighted: prefix-minima rounds (Type 1).** The elements of rank
//! `r` are exactly the prefix minima of the elements left after ranks
//! `1..r−1` are removed: element `i` is ready iff no remaining `j < i`
//! has `a_j < a_i`, i.e. iff `a_i ≤ min{a_j : j < i, j left}`. So each
//! round is one frontier *extraction* ([`SegTree::prefix_minima`] over a
//! min segment tree on positions, then a batch removal), and no
//! dependence is ever evaluated. Every visited subtree holds a reported
//! leaf, so the total work is `O(n log n)` and each round's span is
//! `O(log n)`.
//!
//! **Algorithm 3 (Type 2), the Table 2 instrument.** Objects are 2D points
//! `(i, a_i)`; the predecessors of an object are exactly the points in
//! its lower-left quadrant (Fig. 3). A virtual point `p[0] = (0, -∞)`
//! with DP value 0 seeds the computation and is every object's initial
//! pivot. Each round, the objects whose pivot just finished are
//! *attempted*: a prefix-rectangle query on the augmented 2D range tree
//! either certifies readiness (no unfinished predecessor — DP value =
//! max weighted DP in the rectangle + own weight) or yields a new
//! unfinished pivot (uniformly random, or right-most under the §6.4
//! heuristic). With unit weights it is the unweighted Algorithm 3 whose
//! wake-ups Table 2 and Figs. 8–9 measure. The registry's weighted LIS
//! ([`WeightedLis`](crate::api::WeightedLis), in `weighted.rs`) needs no
//! wake-up: it peels the same prefix-minima rounds ([`take_rank`]) and
//! asks each object's rectangle maximum once.

use super::weighted::OVERFLOW;
use phase_parallel::{
    run_type1, run_type2, InitialState, Report, RunConfig, Type1Problem, Type2Problem, WakeResult,
};
use pp_parlay::monoid::MinMonoid;
use pp_parlay::rng::{hash64, Rng};
use pp_ranges::{RangeTree2d, SegTree};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Removed leaves of a [`lis_par_with_dp`] rank tree. Leaves are widened
/// to `i128` so that the sentinel lies above every real value,
/// `i64::MAX` included.
const REMOVED: i128 = i128::MAX;

/// Remove from `tree` the elements of the lowest rank it still holds —
/// its prefix minima — and return them in index order (empty once the
/// tree is empty). Every live leaf is at most `live`; removed leaves
/// hold `removed`, which is above it.
pub(super) fn take_rank<T>(tree: &mut SegTree<MinMonoid<T>>, live: &T, removed: T) -> Vec<u32>
where
    T: Ord + Clone + Send + Sync,
{
    let frontier = tree.prefix_minima(live);
    let removals: Vec<(usize, T)> = frontier.iter().map(|&i| (i, removed.clone())).collect();
    tree.update_batch(&removals);
    frontier.into_iter().map(|i| i as u32).collect()
}

/// Parallel LIS by prefix-minima rounds (Type 1), the body of
/// [`Lis`](crate::api::Lis). Deterministic and schedule-independent; the
/// pivot mode and seed are unused. The output is `(length, dp)` where
/// `dp[i]` is the LIS length ending at element `i` — the round that
/// extracted it. The report's `stats.rounds` is the LIS length `k`, and
/// `stats.frontier_sizes[r − 1]` is the number of elements of rank `r`.
pub fn lis_par_with_dp(values: &[i64], cfg: &RunConfig) -> Report<(u32, Vec<u32>)> {
    struct PrefixMinima {
        tree: SegTree<MinMonoid<i128>>,
        dp: Vec<u32>,
        round: u32,
    }

    impl Type1Problem for PrefixMinima {
        type Output = (u32, Vec<u32>);

        fn extract_frontier(&mut self) -> Vec<u32> {
            take_rank(&mut self.tree, &i128::from(i64::MAX), REMOVED)
        }

        fn process(&mut self, frontier: &[u32]) {
            self.round += 1;
            for &i in frontier {
                self.dp[i as usize] = self.round;
            }
        }

        fn finish(self) -> (u32, Vec<u32>) {
            (self.round, self.dp)
        }
    }

    assert!(values.len() < u32::MAX as usize, "object ids are u32");
    let leaves: Vec<i128> = values.iter().map(|&v| i128::from(v)).collect();
    let problem = PrefixMinima {
        tree: SegTree::new(MinMonoid(REMOVED), &leaves),
        dp: vec![0; values.len()],
        round: 0,
    };
    run_type1(problem, cfg)
}

/// Weighted LIS (§5.2: "our algorithm can be generalized to the
/// weighted case") by Algorithm 3: maximize the total *weight* of a
/// strictly increasing subsequence. The rank structure (rounds, pivots,
/// wake-ups) is the unweighted one — only the DP combine changes, so
/// unit weights reproduce Algorithm 3's unweighted run exactly and this
/// is the engine Table 2's wake-up counts are measured on. Deterministic
/// in `cfg.seed` for a fixed schedule; the report's `stats.rounds` is
/// `k + 1` (one virtual round plus one per rank), and Table 2's
/// "Average # of Wake-ups" is `stats.avg_wakeups()`. Weight sums are
/// added in `u64` and checked: a DP value above `u32::MAX` panics with
/// [`lis_weighted_seq`](super::lis_weighted_seq)'s message, and so does
/// one of exactly `u32::MAX`, which the range tree cannot store (it
/// keeps `dp + 1` per finished point). The output is `(best_weight, dp)`.
pub fn lis_weighted_par(
    values: &[i64],
    weights: &[u32],
    cfg: &RunConfig,
) -> Report<(u32, Vec<u32>)> {
    assert_eq!(values.len(), weights.len());
    let (mode, seed) = (cfg.pivot_mode, cfg.seed);
    let n = values.len();
    if n == 0 {
        return Report::plain((0, Vec::new()));
    }
    assert!(n < u32::MAX as usize - 1);

    // y-slots: virtual point gets slot 0; real point i gets
    // 1 + its rank in (value, index) order. Ties on value are ordered by
    // index, and the *query* bound for object i counts only values
    // strictly below a_i, so duplicates never count as predecessors.
    let mut order: Vec<u32> = (0..n as u32).collect();
    pp_parlay::par_sort_by_key(&mut order, |&i| (values[i as usize], i));
    let mut y_of_x = vec![0u32; n + 1];
    for (slot, &i) in order.iter().enumerate() {
        y_of_x[i as usize + 1] = slot as u32 + 1;
    }
    // qy[i] = 1 + #values strictly below a_i  (the +1 admits the virtual
    // point at slot 0).
    let sorted_vals: Vec<i64> = order.iter().map(|&i| values[i as usize]).collect();
    let qy: Vec<u32> = (0..n)
        .into_par_iter()
        .map(|i| 1 + sorted_vals.partition_point(|&v| v < values[i]) as u32)
        .collect();

    struct Problem<'w> {
        tree: RangeTree2d,
        /// Query bound per real object (indexed by tree-x minus 1).
        qy: Vec<u32>,
        /// DP per tree point (0 = virtual).
        dp: Vec<u32>,
        /// Per-object weights, indexed by tree-x minus 1.
        weights: &'w [u32],
        /// Wake-up attempt counter per tree point, for deterministic
        /// per-attempt randomness.
        attempts: Vec<AtomicU32>,
        seed: u64,
        n: usize,
    }

    impl Type2Problem for Problem<'_> {
        type Info = u32;
        type Output = (Vec<u32>, u32);

        fn initial(&self) -> InitialState<'_, u32> {
            // Every real object initially pivots on the virtual point
            // (Algorithm 3 line 21), which starts with DP value 0.
            let pairs: Vec<_> = (1..=self.n as u32).map(|x| (0, x)).collect();
            (pairs.into(), vec![(0, 0)])
        }

        fn try_wake(&self, x: u32) -> WakeResult<u32> {
            let qy = self.qy[x as usize - 1];
            let info = self.tree.query_prefix(x, qy);
            if info.unfinished == 0 {
                // Ready: the rectangle always contains the (finished)
                // virtual point, so max_dp is present.
                let base = info.max_dp.expect("virtual point in range");
                let dp = u64::from(base) + u64::from(self.weights[x as usize - 1]);
                WakeResult::Ready(
                    u32::try_from(dp)
                        .ok()
                        .filter(|&dp| dp < u32::MAX)
                        .expect(OVERFLOW),
                )
            } else {
                let attempt = self.attempts[x as usize].fetch_add(1, Ordering::Relaxed);
                let mut rng = Rng::new(hash64(self.seed, (attempt as u64) << 32 | x as u64));
                let pivot = self
                    .tree
                    .select_pivot(x, qy, &mut rng)
                    .expect("unfinished predecessor exists");
                WakeResult::Blocked { new_pivot: pivot }
            }
        }

        fn commit(&mut self, ready: &[(u32, u32)]) {
            for &(x, d) in ready {
                self.dp[x as usize] = d;
            }
            self.tree.finish_batch(ready);
        }

        fn finish(self) -> (Vec<u32>, u32) {
            let best = self.dp[1..].iter().copied().max().unwrap_or(0);
            (self.dp, best)
        }
    }

    let problem = Problem {
        tree: RangeTree2d::new(&y_of_x, mode),
        qy,
        dp: vec![0; n + 1],
        weights,
        attempts: (0..=n).map(|_| AtomicU32::new(0)).collect(),
        seed,
        n,
    };
    run_type2(problem, cfg).map(|(dp_all, length)| (length, dp_all[1..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::lis::lis_seq_with_dp;
    use phase_parallel::PivotMode;
    use pp_parlay::rng::Rng;

    #[test]
    fn round_frontiers_follow_ranks() {
        // 1 5 2 6 3 7: dp = 1,2,2,3,3,4 → frontiers are the rank classes
        // {1}, {5,2}, {6,3}, {7}; Algorithm 3 runs the virtual point
        // first.
        let v = vec![1, 5, 2, 6, 3, 7];
        let cfg = RunConfig::seeded(0).with_pivot_mode(PivotMode::RightMost);
        let report = lis_par_with_dp(&v, &cfg);
        let (length, dp) = &report.output;
        assert_eq!(*dp, vec![1, 2, 2, 3, 3, 4]);
        assert_eq!(*length, 4);
        assert_eq!(report.stats.rounds, 4);
        assert_eq!(report.stats.frontier_sizes, vec![1, 2, 2, 1]);
        assert_eq!(report.stats.wakeup_attempts, 0);

        let report = lis_weighted_par(&v, &[1; 6], &cfg);
        assert_eq!(report.output, (4, vec![1, 2, 2, 3, 3, 4]));
        assert_eq!(report.stats.rounds, 5);
        assert_eq!(report.stats.frontier_sizes, vec![1, 1, 2, 2, 1]);
    }

    #[test]
    fn pivot_modes_same_answer_different_wakeups() {
        // Algorithm 3's counters on this input, pinned: unit weights
        // reproduce the unweighted rounds, pivots and wake-ups exactly.
        let v: Vec<i64> = (0..2000).map(|i| ((i * 7919) % 4001) as i64).collect();
        let ones = vec![1u32; v.len()];
        let a = lis_weighted_par(&v, &ones, &RunConfig::seeded(3));
        let b = lis_weighted_par(
            &v,
            &ones,
            &RunConfig::seeded(3).with_pivot_mode(PivotMode::RightMost),
        );
        assert_eq!(a.output, b.output);
        assert_eq!(a.output.0, 43);
        let counters = |r: &Report<(u32, Vec<u32>)>| {
            (
                r.stats.rounds,
                r.stats.wakeup_attempts,
                r.stats.failed_wakeups,
            )
        };
        assert_eq!(counters(&a), (44, 9144, 7144));
        assert_eq!(counters(&b), (44, 10831, 8831));
        assert!(a.stats.avg_wakeups() < 16.0);
        assert!(b.stats.avg_wakeups() < 16.0);
        // The prefix-minima rounds wake nothing and run exactly k rounds.
        let c = lis_par_with_dp(&v, &RunConfig::seeded(3));
        assert_eq!(c.output, a.output);
        assert_eq!(counters(&c), (43, 0, 0));
    }

    fn assert_dp_matches_seq(v: &[i64], label: &str) {
        let (k, dp) = lis_seq_with_dp(v);
        let report = lis_par_with_dp(v, &RunConfig::seeded(1));
        assert_eq!(report.output, (k, dp), "{label}");
        assert_eq!(report.stats.rounds, k as usize, "{label}");
    }

    #[test]
    fn prefix_minima_rounds_match_seq_on_edge_cases() {
        assert_dp_matches_seq(&[], "empty");
        assert_dp_matches_seq(&[i64::MAX], "one");
        assert_dp_matches_seq(&[2, 1], "two, decreasing");
        assert_dp_matches_seq(&[1, 2], "two, increasing");
        // A removed leaf must never read as a real `i64::MAX`.
        assert_dp_matches_seq(&[5, i64::MAX, i64::MIN, i64::MAX], "extremes");
        assert_dp_matches_seq(&[i64::MAX; 5], "all i64::MAX");
        assert_dp_matches_seq(&[i64::MIN, i64::MAX, i64::MIN, i64::MAX], "alternating");
        assert_dp_matches_seq(&[7; 1000], "all equal");
        let interleaved: Vec<i64> = (0..777).flat_map(|i| [i, i]).collect();
        assert_dp_matches_seq(&interleaved, "interleaved duplicates");
        let mut r = Rng::new(9);
        for n in [3usize, 5, 100, 1000, 4097, 10_001] {
            let v: Vec<i64> = (0..n).map(|_| r.range(n as u64 / 2 + 1) as i64).collect();
            assert_dp_matches_seq(&v, &format!("random n = {n}"));
        }
    }

    #[test]
    #[should_panic(expected = "weight sums must fit in u32")]
    fn algorithm3_rejects_weight_sums_above_u32() {
        lis_weighted_par(&[1, 2], &[u32::MAX - 1, 5], &RunConfig::seeded(0));
    }

    #[test]
    #[should_panic(expected = "weight sums must fit in u32")]
    fn algorithm3_rejects_a_dp_the_range_tree_would_wrap() {
        // The first object's DP is u32::MAX, which the range tree would
        // store as dp + 1 = 0; its successor then read a wrong base.
        lis_weighted_par(&[1, 2], &[u32::MAX, 1], &RunConfig::seeded(0));
    }

    #[test]
    #[should_panic(expected = "weight sums must fit in u32")]
    fn algorithm3_rejects_a_total_of_exactly_u32_max() {
        // The baseline returns u32::MAX here; the tree cannot encode it.
        assert_eq!(crate::lis::lis_weighted_seq(&[7], &[u32::MAX]), u32::MAX);
        lis_weighted_par(&[7], &[u32::MAX], &RunConfig::seeded(0));
    }

    #[test]
    fn large_input_is_identical_across_pools() {
        // 2^16 leaves: the traversal joins its children above the grain.
        let mut r = Rng::new(10);
        let v: Vec<i64> = (0..1 << 16)
            .map(|_| r.range(1 << 20) as i64 - (1 << 19))
            .collect();
        let (k, dp) = lis_seq_with_dp(&v);
        let mut frontiers = Vec::new();
        for threads in [1usize, 2, 8] {
            let report = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| lis_par_with_dp(&v, &RunConfig::seeded(2)));
            assert_eq!(report.output, (k, dp.clone()), "{threads} threads");
            frontiers.push(report.stats.frontier_sizes);
        }
        assert_eq!(frontiers[0].len(), k as usize);
        assert!(frontiers.iter().all(|f| *f == frontiers[0]));
    }
}
