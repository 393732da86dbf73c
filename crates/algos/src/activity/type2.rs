//! Type 2 activity selection (§5.1, Theorem 5.2).
//!
//! Each activity `x` precomputes its **pivot**: the latest-*start*
//! activity among those ending no later than `s_x`. Lemma 5.1 proves
//! `rank(x) = rank(pivot(x)) + 1`, so a wake-up triggered by the pivot's
//! completion always finds `x` ready — the exact-pivot special case of
//! the Type 2 framework (no re-pivoting ever happens, which the stats
//! assert). The pivots depend on the input alone, so [`prepare_type2`]
//! computes them once and a query only runs the wake-up rounds.

use super::pivots::latest_start_pivots;
use super::{take_dp, Activity, DP_SLOT};
use phase_parallel::{
    run_type2, InitialState, Report, RunConfig, Scratch, Type2Problem, WakeResult,
};
use pp_ranges::AtomicFenwickMax;
use std::borrow::Cow;

/// What [`ActivityType2`](crate::api::ActivityType2) prepares: the end
/// times, and Lemma 5.1's pivots in the engine's form — a
/// `(pivot, activity)` pair per activity that has one, and the rank-1
/// activities with their weights as the round-0 frontier.
pub struct PreparedType2 {
    ends: Vec<u64>,
    pairs: Vec<(u32, u32)>,
    sources: Vec<(u32, u64)>,
}

/// Compute the pivots once. `acts` sorted by end time.
pub(crate) fn prepare_type2(acts: &[Activity]) -> PreparedType2 {
    debug_assert!(acts.windows(2).all(|w| w[0].end <= w[1].end));
    let ends: Vec<u64> = acts.iter().map(|a| a.end).collect();
    // pivot[i] = latest-start activity among ends <= s_i (Lemma 5.1),
    // or None when i has rank 1.
    let mut pairs = Vec::new();
    let mut sources = Vec::new();
    for (x, p) in latest_start_pivots(acts, &ends).into_iter().enumerate() {
        match p {
            Some(p) => pairs.push((p, x as u32)),
            // Rank 1: no activity ends before x starts.
            None => sources.push((x as u32, acts[x].weight)),
        }
    }
    pairs.shrink_to_fit();
    sources.shrink_to_fit();
    PreparedType2 {
        ends,
        pairs,
        sources,
    }
}

/// Type 2 query over the prepared pivots; its DP tree comes from
/// `scratch` and goes back to it. The report's
/// `stats.failed_wakeups == 0` by Lemma 5.1 and
/// `stats.rounds == rank(S)`. The wake-up round loop polls the config's
/// deadline; a trip returns the best committed DP value under
/// `RunOutcome::DeadlineExceeded`.
pub(crate) fn max_weight_type2(
    acts: &[Activity],
    prepared: &PreparedType2,
    scratch: &mut Scratch,
    cfg: &RunConfig,
) -> Report<u64> {
    let n = acts.len();
    if n == 0 {
        return Report::plain(0);
    }

    struct Problem<'a> {
        acts: &'a [Activity],
        prepared: &'a PreparedType2,
        dp: AtomicFenwickMax,
        best: u64,
    }

    impl Type2Problem for Problem<'_> {
        type Info = u64; // the activity's DP value
        type Output = (u64, AtomicFenwickMax);

        fn initial(&self) -> InitialState<'_, u64> {
            let p = self.prepared;
            (Cow::Borrowed(&p.pairs), p.sources.clone())
        }

        fn try_wake(&self, x: u32) -> WakeResult<u64> {
            // Lemma 5.1: the pivot finishing implies readiness.
            let a = &self.acts[x as usize];
            let cnt = self.prepared.ends.partition_point(|&e| e <= a.start);
            WakeResult::Ready(a.weight + self.dp.prefix_max(cnt))
        }

        fn commit(&mut self, ready: &[(u32, u64)]) {
            for &(x, dp) in ready {
                self.dp.update(x as usize, dp);
                self.best = self.best.max(dp);
            }
        }

        fn finish(self) -> (u64, AtomicFenwickMax) {
            (self.best, self.dp)
        }
    }

    let report = run_type2(
        Problem {
            acts,
            prepared,
            dp: take_dp(scratch, n),
            best: 0,
        },
        cfg,
    );
    report.map(|(best, dp)| {
        scratch.put_any(DP_SLOT, dp);
        best
    })
}

#[cfg(test)]
mod tests {
    use super::super::{sort_by_end, Activity};
    use super::*;
    use crate::api::ActivityType2;
    use phase_parallel::PhaseAlgorithm;

    #[test]
    fn no_failed_wakeups_ever() {
        // Lemma 5.1 guarantees the pivot is exact.
        let acts = sort_by_end(
            (0..500u64)
                .map(|i| {
                    let s = (i * 7919) % 300;
                    Activity::new(s, s + 1 + (i * 31) % 40, 1 + i % 9)
                })
                .collect(),
        );
        let stats = ActivityType2.solve_par(&acts, &RunConfig::new()).stats;
        assert_eq!(stats.failed_wakeups, 0);
        // Every non-rank-1 activity is attempted exactly once.
        assert!(stats.wakeup_attempts <= acts.len());
    }

    #[test]
    fn fig2_pivot_structure() {
        // Fig. 2: 7 activities ordered by end time; pivots follow the
        // "latest start among compatible earlier" rule. Build a concrete
        // instance mirroring the figure's rank structure (ranks 1,1,1,2,2,3,3).
        let acts = vec![
            Activity::new(0, 10, 1),  // 1: rank 1
            Activity::new(2, 14, 1),  // 2: rank 1
            Activity::new(4, 16, 1),  // 3: rank 1 (overlaps 1)
            Activity::new(11, 20, 1), // 4: rank 2 (after 1)
            Activity::new(15, 22, 1), // 5: rank 2 (after 2)
            Activity::new(21, 30, 1), // 6: rank 3
            Activity::new(23, 32, 1), // 7: rank 3
        ];
        let acts = sort_by_end(acts);
        let report = ActivityType2.solve_par(&acts, &RunConfig::new());
        assert_eq!(report.output, 3);
        assert_eq!(report.stats.rounds, 3);
        assert_eq!(report.stats.frontier_sizes, vec![3, 2, 2]);
    }
}
