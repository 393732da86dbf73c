//! Weighted LIS (the §5.2 generalization): the sequential baseline and
//! the k-round parallel query behind [`WeightedLis`].
//!
//! `dp[i] = w_i + max{0, max_{j<i, a_j<a_i} dp[j]}`; answer = max dp.
//! Every predecessor of object `i` has a lower rank (unweighted LIS
//! length ending there), so once the prefix-minima rounds of
//! [`Lis`](crate::api::Lis) name the objects of rank `r`, each of them
//! is ready: one prefix-rectangle maximum over the finished objects
//! gives its DP value. A query runs exactly `k` rounds (the LIS length)
//! with no wake-up, `O(log² n)` work per object on the 2D range tree.
//! Algorithm 3 ([`super::lis_weighted_par`]) stays for Table 2's
//! wake-up counts.

use super::par::take_rank;
use crate::chain::slots;
use phase_parallel::{run_type1, PivotMode, Report, RunConfig, Scratch, Type1Problem};
use pp_parlay::monoid::MinMonoid;
use pp_ranges::{FenwickMax, RangeTree2d, SegTree};
use rayon::prelude::*;

pub(super) const OVERFLOW: &str = "weight sums must fit in u32";

/// Maximum total weight of a strictly increasing subsequence,
/// sequentially (`O(n log n)`).
pub fn lis_weighted_seq(values: &[i64], weights: &[u32]) -> u32 {
    assert_eq!(values.len(), weights.len());
    let n = values.len();
    if n == 0 {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut fw = FenwickMax::new(sorted.len());
    let mut best = 0u64;
    for (i, &v) in values.iter().enumerate() {
        let r = sorted.partition_point(|&x| x < v);
        let d = fw.prefix_max(r) + weights[i] as u64;
        fw.update(r, d);
        best = best.max(d);
    }
    u32::try_from(best).expect(OVERFLOW)
}

/// What [`WeightedLis`](crate::api::WeightedLis) prepares from the
/// values alone; each query refreshes its own copies of the two trees.
pub struct PreparedWeightedLis {
    /// The prefix-minima tree over positions, no element removed. Its
    /// leaves are the bounds below, which order the objects as their
    /// values do, ties included, in `u32` leaves.
    ranks: SegTree<MinMonoid<u32>>,
    /// The 2D range tree over `(i, y-slot of a_i)`, every point
    /// unfinished.
    tree: RangeTree2d,
    /// Per object: the number of values strictly below its own, the
    /// y-bound of its predecessor rectangle.
    bounds: Vec<u32>,
}

/// Build the trees and bounds of a [`PreparedWeightedLis`]. Ties on
/// value take y-slots in index order, and a bound counts strictly
/// smaller values only, so equal values never precede each other.
pub(crate) fn prepare_weighted(values: &[i64]) -> PreparedWeightedLis {
    assert!(values.len() < u32::MAX as usize, "object ids are u32");
    let (ys, bounds) = slots(|i| values[i], values.len());
    PreparedWeightedLis {
        ranks: SegTree::new(MinMonoid(u32::MAX), &bounds),
        tree: RangeTree2d::new(&ys, PivotMode::default()),
        bounds,
    }
}

/// [`WeightedLis`](crate::api::WeightedLis)'s query: `k` Type 1 rounds
/// over copies of the prepared trees, taken from `scratch` and returned
/// to it. Weight sums are added in `u64`; one above `u32::MAX` panics
/// like [`lis_weighted_seq`]. The report's `stats.rounds` is the
/// unweighted LIS length.
pub(crate) fn weighted_query(
    prepared: &PreparedWeightedLis,
    weights: &[u32],
    scratch: &mut Scratch,
    cfg: &RunConfig,
) -> Report<u32> {
    assert_eq!(weights.len(), prepared.bounds.len());
    let report = run_type1(
        RankRounds {
            ranks: scratch.take_copy("lis_weighted.ranks", &prepared.ranks),
            tree: scratch.take_copy("lis_weighted.tree", &prepared.tree),
            bounds: &prepared.bounds,
            weights,
            ready: scratch.take_vec("lis_weighted.ready"),
            best: 0,
        },
        cfg,
    );
    let (stats, outcome) = (report.stats, report.outcome);
    let RankRounds {
        ranks,
        tree,
        ready,
        best,
        ..
    } = report.output;
    scratch.put_any("lis_weighted.ranks", ranks);
    scratch.put_any("lis_weighted.tree", tree);
    scratch.put_vec("lis_weighted.ready", ready);
    Report::new(best, stats).with_outcome(outcome)
}

/// The Type 1 problem: round `r` extracts the objects of rank `r` and
/// finishes each with its DP value. The tree holds `dp − 1` for an
/// object of positive DP value, so every `u32` value fits its `+1`
/// encoding; an object of DP value 0 adds nothing to a maximum and
/// stays unfinished.
struct RankRounds<'a> {
    ranks: SegTree<MinMonoid<u32>>,
    tree: RangeTree2d,
    bounds: &'a [u32],
    weights: &'a [u32],
    /// This round's `(object, dp − 1)` pairs.
    ready: Vec<(u32, u32)>,
    best: u32,
}

impl Type1Problem for RankRounds<'_> {
    type Output = Self;

    fn extract_frontier(&mut self) -> Vec<u32> {
        // Bounds are below n, so `u32::MAX` marks a removed object.
        take_rank(&mut self.ranks, &(u32::MAX - 1), u32::MAX)
    }

    fn process(&mut self, frontier: &[u32]) {
        let (tree, bounds, weights) = (&self.tree, self.bounds, self.weights);
        let dp = |i: u32| {
            let below = tree.query_prefix(i, bounds[i as usize]).max_dp;
            let sum = below.map_or(0, |d| u64::from(d) + 1) + u64::from(weights[i as usize]);
            u32::try_from(sum).expect(OVERFLOW)
        };
        self.ready.clear();
        self.ready.par_extend(
            frontier
                .par_iter()
                .filter_map(|&i| dp(i).checked_sub(1).map(|d| (i, d))),
        );
        let top = self.ready.iter().map(|&(_, d)| d + 1).max();
        self.best = self.best.max(top.unwrap_or(0));
        self.tree.finish_batch(&self.ready);
    }

    fn finish(self) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::super::{lis_seq, lis_weighted_par};
    use super::*;
    use crate::api::WeightedLis;
    use phase_parallel::PhaseAlgorithm;
    use pp_parlay::rng::Rng;

    /// The k-round query's best weight and rounds, checked against the
    /// baseline, Algorithm 3 in both pivot modes, and the unweighted
    /// rank.
    fn assert_k_rounds(values: &[i64], weights: &[u32], label: &str) {
        let want = lis_weighted_seq(values, weights);
        let input = (values.to_vec(), weights.to_vec());
        let report = WeightedLis.solve_par(&input, &RunConfig::seeded(1));
        assert_eq!(report.output, want, "{label}");
        assert_eq!(
            report.stats.rounds,
            lis_seq(values) as usize,
            "{label}: rounds"
        );
        assert_eq!(report.stats.wakeup_attempts, 0, "{label}: wake-ups");
        for mode in [PivotMode::Random, PivotMode::RightMost] {
            let cfg = RunConfig::seeded(2).with_pivot_mode(mode);
            let (best, _) = lis_weighted_par(values, weights, &cfg).output;
            assert_eq!(best, want, "{label}: Algorithm 3, {mode:?}");
        }
    }

    fn brute(values: &[i64], weights: &[u32]) -> u32 {
        let n = values.len();
        let mut dp = vec![0u32; n];
        let mut best = 0;
        for i in 0..n {
            dp[i] = weights[i];
            for j in 0..i {
                if values[j] < values[i] {
                    dp[i] = dp[i].max(dp[j] + weights[i]);
                }
            }
            best = best.max(dp[i]);
        }
        best
    }

    #[test]
    fn weighted_matches_brute() {
        let mut r = Rng::new(1);
        for trial in 0..20 {
            let n = 1 + r.range(200) as usize;
            let values: Vec<i64> = (0..n).map(|_| r.range(60) as i64).collect();
            let weights: Vec<u32> = (0..n).map(|_| 1 + r.range(50) as u32).collect();
            let want = brute(&values, &weights);
            assert_eq!(
                lis_weighted_seq(&values, &weights),
                want,
                "seq trial {trial}"
            );
            let cfg = RunConfig::seeded(trial);
            let (best, dp) = lis_weighted_par(&values, &weights, &cfg).output;
            assert_eq!(best, want, "par trial {trial}");
            assert_k_rounds(&values, &weights, &format!("k rounds, trial {trial}"));
            // Per-element DP values agree with the quadratic oracle's max.
            assert_eq!(*dp.iter().max().unwrap(), want);
        }
    }

    #[test]
    fn unit_weights_reduce_to_plain_lis() {
        let mut r = Rng::new(2);
        let values: Vec<i64> = (0..500).map(|_| r.range(100) as i64).collect();
        let ones = vec![1u32; values.len()];
        assert_eq!(lis_weighted_seq(&values, &ones), lis_seq(&values));
        let cfg = RunConfig::seeded(3).with_pivot_mode(PivotMode::RightMost);
        let (best, _) = lis_weighted_par(&values, &ones, &cfg).output;
        assert_eq!(best, lis_seq(&values));
    }

    #[test]
    fn heavy_single_element_beats_long_chain() {
        // A chain of 5 unit weights vs one element of weight 100.
        let values = vec![1i64, 2, 3, 4, 5, 0];
        let weights = vec![1u32, 1, 1, 1, 1, 100];
        assert_eq!(lis_weighted_seq(&values, &weights), 100);
        let report = lis_weighted_par(&values, &weights, &RunConfig::seeded(4));
        assert_eq!(report.output.0, 100);
        // Rounds still follow the unweighted rank (5 + virtual + ...).
        assert_eq!(report.stats.rounds, 6);
    }

    #[test]
    fn empty_weighted() {
        assert_eq!(lis_weighted_seq(&[], &[]), 0);
        let (best, _) = lis_weighted_par(&[], &[], &RunConfig::seeded(0)).output;
        assert_eq!(best, 0);
    }

    #[test]
    fn k_rounds_on_tiny_inputs() {
        assert_k_rounds(&[], &[], "n = 0");
        assert_k_rounds(&[5], &[7], "n = 1");
        assert_k_rounds(&[5], &[0], "n = 1, weight 0");
        assert_k_rounds(&[1, 2], &[3, 4], "n = 2, increasing");
        assert_k_rounds(&[2, 1], &[3, 4], "n = 2, decreasing");
        assert_k_rounds(&[2, 2], &[3, 4], "n = 2, equal");
        assert_k_rounds(&[i64::MIN, i64::MAX], &[0, 0], "n = 2, zero weights");
    }

    #[test]
    fn k_rounds_on_duplicate_heavy_values() {
        let mut r = Rng::new(5);
        for (n, distinct) in [(200usize, 1u64), (300, 2), (500, 5), (1000, 30)] {
            let values: Vec<i64> = (0..n).map(|_| r.range(distinct) as i64).collect();
            let weights: Vec<u32> = (0..n).map(|_| r.range(50) as u32).collect();
            assert_k_rounds(&values, &weights, &format!("n = {n}, {distinct} values"));
        }
        let interleaved: Vec<i64> = (0..400).flat_map(|i| [i / 3, i / 3]).collect();
        let weights: Vec<u32> = (0..interleaved.len() as u32).map(|i| 1 + i % 7).collect();
        assert_k_rounds(&interleaved, &weights, "interleaved duplicates");
    }

    #[test]
    fn k_rounds_reach_u32_max_exactly() {
        // The best chain weighs exactly u32::MAX: representable, so the
        // query must agree with the baseline rather than overflow.
        // Algorithm 3 rejects this total, since its range tree stores
        // dp + 1 (`algorithm3_rejects_a_total_of_exactly_u32_max`).
        let input = (vec![1, 2, 0], vec![u32::MAX - 10, 10, 1]);
        assert_eq!(lis_weighted_seq(&input.0, &input.1), u32::MAX);
        let report = WeightedLis.solve_par(&input, &RunConfig::seeded(1));
        assert_eq!(report.output, u32::MAX);
        assert_eq!(report.stats.rounds, lis_seq(&input.0) as usize);
        assert_eq!(report.stats.wakeup_attempts, 0);
    }

    #[test]
    #[should_panic(expected = "weight sums must fit in u32")]
    fn k_rounds_reject_weight_sums_above_u32() {
        let input = (vec![1i64, 2], vec![u32::MAX, 1]);
        WeightedLis.solve_par(&input, &RunConfig::seeded(0));
    }

    #[test]
    #[should_panic(expected = "weight sums must fit in u32")]
    fn baseline_rejects_weight_sums_above_u32() {
        lis_weighted_seq(&[1, 2], &[u32::MAX, 1]);
    }
}
