//! Algorithm 3: the parallel LIS algorithm.
//!
//! Objects are 2D points `(i, a_i)`; the predecessors of an object are
//! exactly the points in its lower-left quadrant (Fig. 3). A virtual
//! point `p[0] = (0, -∞)` with DP value 0 seeds the computation and is
//! every object's initial pivot. Each round, the objects whose pivot
//! just finished are *attempted*: a prefix-rectangle query on the
//! augmented 2D range tree either certifies readiness (no unfinished
//! predecessor — DP value = max DP in the rectangle + 1) or yields a new
//! unfinished pivot (uniformly random, or right-most under the §6.4
//! heuristic).

use phase_parallel::{run_type2, Report, RunConfig, Type2Problem, WakeResult};
use pp_parlay::rng::{hash64, Rng};
use pp_ranges::RangeTree2d;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Parallel LIS (Algorithm 3). Deterministic in `cfg.seed` for a fixed
/// schedule; the resulting length is schedule-independent. The report's
/// `stats.rounds` is `k + 1` (one virtual round plus one per rank);
/// Table 2's "Average # of Wake-ups" is `stats.avg_wakeups()`.
pub fn lis_par(values: &[i64], cfg: &RunConfig) -> Report<u32> {
    lis_par_with_dp(values, cfg).map(|(length, _)| length)
}

/// [`lis_par`] also returning per-element DP values: the output is
/// `(length, dp)` where `dp[i]` is the LIS length ending at element `i`.
pub fn lis_par_with_dp(values: &[i64], cfg: &RunConfig) -> Report<(u32, Vec<u32>)> {
    lis_engine(values, None, cfg)
}

/// Weighted LIS (§5.2: "our algorithm can be generalized to the
/// weighted case"): maximize the total *weight* of a strictly
/// increasing subsequence. The rank structure (rounds, pivots) is the
/// unweighted one — only the DP combine changes. Weight sums must fit
/// in `u32`. The output is `(best_weight, dp)`.
pub fn lis_weighted_par(
    values: &[i64],
    weights: &[u32],
    cfg: &RunConfig,
) -> Report<(u32, Vec<u32>)> {
    assert_eq!(values.len(), weights.len());
    lis_engine(values, Some(weights), cfg)
}

fn lis_engine(values: &[i64], weights: Option<&[u32]>, cfg: &RunConfig) -> Report<(u32, Vec<u32>)> {
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
        /// Per-object weights (None = unit weights, the length LIS).
        weights: Option<&'w [u32]>,
        /// Wake-up attempt counter per tree point, for deterministic
        /// per-attempt randomness.
        attempts: Vec<AtomicU32>,
        seed: u64,
        n: usize,
    }

    impl Problem<'_> {
        #[inline]
        fn weight_of(&self, x: u32) -> u32 {
            self.weights.map_or(1, |w| w[x as usize - 1])
        }
    }

    impl Type2Problem for Problem<'_> {
        type Info = u32;
        type Output = (Vec<u32>, u32);

        fn initial_pivots(&self) -> Vec<(u32, u32)> {
            // Every real object initially pivots on the virtual point
            // (Algorithm 3 line 21).
            (1..=self.n as u32).map(|x| (0, x)).collect()
        }

        fn initial_frontier(&self) -> Vec<(u32, u32)> {
            vec![(0, 0)] // the virtual point, DP value 0
        }

        fn try_wake(&self, x: u32) -> WakeResult<u32> {
            let qy = self.qy[x as usize - 1];
            let info = self.tree.query_prefix(x, qy);
            if info.unfinished == 0 {
                // Ready: the rectangle always contains the (finished)
                // virtual point, so max_dp is present.
                let base = info.max_dp.expect("virtual point in range");
                WakeResult::Ready(base + self.weight_of(x))
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

    use phase_parallel::PivotMode;

    #[test]
    fn round_frontiers_follow_ranks() {
        // 1 5 2 6 3 7: dp = 1,2,2,3,3,4 → frontiers are the virtual
        // point, then the rank classes {1}, {5,2}, {6,3}, {7}.
        let v = vec![1, 5, 2, 6, 3, 7];
        let cfg = RunConfig::seeded(0).with_pivot_mode(PivotMode::RightMost);
        let report = lis_par_with_dp(&v, &cfg);
        let (length, dp) = &report.output;
        assert_eq!(*dp, vec![1, 2, 2, 3, 3, 4]);
        assert_eq!(*length, 4);
        assert_eq!(report.stats.rounds, 5);
        assert_eq!(report.stats.frontier_sizes, vec![1, 1, 2, 2, 1]);
    }

    #[test]
    fn pivot_modes_same_answer_different_wakeups() {
        let v: Vec<i64> = (0..2000).map(|i| ((i * 7919) % 4001) as i64).collect();
        let a = lis_par(&v, &RunConfig::seeded(3));
        let b = lis_par(
            &v,
            &RunConfig::seeded(3).with_pivot_mode(PivotMode::RightMost),
        );
        assert_eq!(a.output, b.output);
        // Both should be modest; the heuristic usually needs fewer.
        assert!(a.stats.avg_wakeups() < 16.0);
        assert!(b.stats.avg_wakeups() < 16.0);
    }
}
