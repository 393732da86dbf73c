//! Unweighted activity selection in `O(n log n)` work and `O(log n)`
//! span whp (Theorem 5.3).
//!
//! With unit weights the DP collapses to `dp[i] = dp[pivot(i)] + 1`
//! (Lemma 5.1), so the dependence graph is a *forest*: each activity
//! points only at its pivot. The rank of each activity is its depth in
//! the pivot forest, computed in parallel by pointer jumping
//! (`pp_parlay::list_rank`) in `⌈log₂ d⌉ + 1` passes for forest depth
//! `d = rank(S) − 1`. The paper cites `O(n)`-work tree contraction for this
//! step; `list_rank` documents the measurements behind the substitution.

use super::pivots::latest_start_pivots;
use super::Activity;
use phase_parallel::{ExecutionStats, Report, RunConfig, RunOutcome};
use pp_parlay::list_rank::forest_depths;
use rayon::prelude::*;

/// The pivot forest over end-ordered activities: each activity's
/// parent is its pivot, or itself for rank-1 activities.
fn pivot_forest(acts: &[Activity]) -> Vec<u32> {
    debug_assert!(acts.windows(2).all(|w| w[0].end <= w[1].end));
    let ends: Vec<u64> = acts.iter().map(|a| a.end).collect();
    latest_start_pivots(acts, &ends)
        .into_par_iter()
        .enumerate()
        .map(|(i, p)| p.unwrap_or(i as u32))
        .collect()
}

/// The rank of every activity (depth in the pivot forest + 1), in end
/// order. `rank(S) = max` of this vector.
pub fn ranks(acts: &[Activity]) -> Vec<u32> {
    if acts.is_empty() {
        return Vec::new();
    }
    forest_depths(&pivot_forest(acts))
        .0
        .into_par_iter()
        .map(|d| d + 1)
        .collect()
}

/// Maximum number of non-overlapping activities (the unweighted
/// optimum): equals the maximum rank. The report's `stats.rounds` is the
/// number of pointer-jumping passes. The algorithm has no round loop of
/// its own, so the config's deadline is polled at the phase boundaries:
/// before the pivot-forest build and before the depth computation. A trip
/// yields `0` under `RunOutcome::DeadlineExceeded`.
pub(crate) fn max_count_unweighted(acts: &[Activity], cfg: &RunConfig) -> Report<u32> {
    if cfg.is_cancelled() {
        return Report::plain(0).with_outcome(RunOutcome::DeadlineExceeded);
    }
    if acts.is_empty() {
        return Report::plain(0);
    }
    let parent = pivot_forest(acts);
    if cfg.is_cancelled() {
        return Report::plain(0).with_outcome(RunOutcome::DeadlineExceeded);
    }
    let (depths, passes) = forest_depths(&parent);
    let best = depths.into_par_iter().map(|d| d + 1).max().unwrap_or(0);
    let mut stats = ExecutionStats::default();
    stats.rounds = passes;
    Report::new(best, stats)
}

#[cfg(test)]
mod tests {
    use super::super::{max_weight_seq, sort_by_end, Activity};
    use super::*;
    use pp_parlay::rng::Rng;

    #[test]
    fn matches_weighted_dp_with_unit_weights() {
        let mut r = Rng::new(31);
        for trial in 0..20 {
            let n = 500;
            let acts: Vec<Activity> = (0..n)
                .map(|_| {
                    let s = r.range(2000);
                    Activity::new(s, s + 1 + r.range(100), 1)
                })
                .collect();
            let acts = sort_by_end(acts);
            let want = max_weight_seq(&acts);
            assert_eq!(
                max_count_unweighted(&acts, &RunConfig::new()).output as u64,
                want,
                "trial {trial}"
            );
        }
    }

    #[test]
    fn greedy_earliest_end_agrees() {
        // Classic earliest-end greedy as an independent oracle.
        let mut r = Rng::new(77);
        let acts: Vec<Activity> = (0..1000)
            .map(|_| {
                let s = r.range(5000);
                Activity::new(s, s + 1 + r.range(200), 1)
            })
            .collect();
        let acts = sort_by_end(acts);
        let mut count = 0u32;
        let mut cur_end = 0u64;
        for a in &acts {
            if a.start >= cur_end {
                count += 1;
                cur_end = a.end;
            }
        }
        assert_eq!(max_count_unweighted(&acts, &RunConfig::new()).output, count);
    }

    #[test]
    fn rank_vector_shape() {
        // Three back-to-back chains of length 3 → ranks 1,2,3 each.
        let acts = sort_by_end(vec![
            Activity::new(0, 10, 1),
            Activity::new(10, 20, 1),
            Activity::new(20, 30, 1),
        ]);
        assert_eq!(ranks(&acts), vec![1, 2, 3]);
    }

    #[test]
    fn empty() {
        assert_eq!(max_count_unweighted(&[], &RunConfig::new()).output, 0);
        assert!(ranks(&[]).is_empty());
    }
}
