//! Type 1 activity selection (Algorithm 2, Theorem 4.2).
//!
//! Each round: find the earliest-end unprocessed activity `x` (augmented
//! min over `T_time`), split out every unprocessed activity starting
//! before `e_x` — by Lemma 4.1 exactly the activities of the current
//! rank — and process them in parallel against `T_DP`.
//!
//! Two interchangeable implementations, behind the [`crate::api`] impls:
//!
//! * [`max_weight_type1`] — flat arrays (§6.4 engineering): the
//!   unprocessed set in start order is always a *suffix* (each round
//!   removes a prefix of it), so `T_time` degenerates to a cursor plus a
//!   suffix-minimum array, and `T_DP` is an atomic prefix-max Fenwick
//!   tree over end order. The arrays depend on the input alone, so
//!   [`prepare_type1`] builds them once and a query only runs rounds.
//! * [`max_weight_type1_pam`] — the literal Algorithm 2 on PA-BSTs
//!   (`pp-pam`), kept because it is the algorithm Theorem 4.2 analyzes;
//!   the `activity_pam` rows of the paper report's `ablations` section
//!   measure what the flat arrays save over it.

use super::{take_dp, Activity, DP_SLOT};
use phase_parallel::{run_type1, Report, RunConfig, Scratch, Type1Problem};
use pp_pam::{AugTree, MaxAug, MinAug};
use pp_ranges::AtomicFenwickMax;
use rayon::prelude::*;

/// What [`ActivityType1`](crate::api::ActivityType1) prepares: the
/// activities in start order with their start times, the suffix minimum
/// of end time over that order (the `T_time` augmentation), and the end
/// times in end order.
pub struct PreparedType1 {
    by_start: Vec<u32>,
    starts: Vec<u64>,
    suffix_min_end: Vec<u64>,
    ends: Vec<u64>,
}

/// Build the flat `T_time` arrays. `acts` sorted by end time.
pub(crate) fn prepare_type1(acts: &[Activity]) -> PreparedType1 {
    debug_assert!(acts.windows(2).all(|w| w[0].end <= w[1].end));
    let n = acts.len();
    // Activities in start order: ids into `acts`, plus their start times.
    let mut by_start: Vec<u32> = (0..n as u32).collect();
    pp_parlay::par_sort_by_key(&mut by_start, |&i| (acts[i as usize].start, i));
    let starts: Vec<u64> = by_start.iter().map(|&i| acts[i as usize].start).collect();
    // Suffix-min of end time over start order = the T_time augmentation.
    // The unprocessed set in start order is always a suffix, so a plain
    // O(n) suffix-minimum array answers every extraction query (the
    // paper's §6.4 "flat arrays" engineering, one step further than a
    // sparse table).
    let mut suffix_min_end: Vec<u64> = by_start.iter().map(|&i| acts[i as usize].end).collect();
    for i in (0..n.saturating_sub(1)).rev() {
        suffix_min_end[i] = suffix_min_end[i].min(suffix_min_end[i + 1]);
    }
    let ends: Vec<u64> = acts.iter().map(|a| a.end).collect();
    PreparedType1 {
        by_start,
        starts,
        suffix_min_end,
        ends,
    }
}

/// Flat-array Type 1 query over the prepared arrays; its DP tree comes
/// from `scratch` and goes back to it. The report's
/// `stats.rounds == rank(S)`. The round loop polls the config's
/// deadline; a trip returns the best DP value seen so far under
/// `RunOutcome::DeadlineExceeded`.
pub(crate) fn max_weight_type1(
    acts: &[Activity],
    prepared: &PreparedType1,
    scratch: &mut Scratch,
    cfg: &RunConfig,
) -> Report<u64> {
    let n = acts.len();
    if n == 0 {
        return Report::plain(0);
    }

    struct Problem<'a> {
        acts: &'a [Activity],
        prepared: &'a PreparedType1,
        head: usize,
        dp: AtomicFenwickMax,
        best: u64,
    }

    impl Type1Problem for Problem<'_> {
        type Output = (u64, AtomicFenwickMax);

        fn extract_frontier(&mut self) -> Vec<u32> {
            let p = self.prepared;
            let n = p.by_start.len();
            if self.head >= n {
                return Vec::new();
            }
            // Earliest end among unprocessed (the suffix from head).
            let e_x = p.suffix_min_end[self.head];
            // Frontier: unprocessed activities starting strictly before e_x.
            let new_head = p.starts.partition_point(|&s| s < e_x);
            debug_assert!(new_head > self.head, "frontier cannot be empty");
            let frontier = p.by_start[self.head..new_head].to_vec();
            self.head = new_head;
            frontier
        }

        fn process(&mut self, frontier: &[u32]) {
            // Query phase: all reads against the pre-round DP state.
            let ends = &self.prepared.ends;
            let dps: Vec<(u32, u64)> = frontier
                .par_iter()
                .map(|&i| {
                    let a = &self.acts[i as usize];
                    let cnt = ends.partition_point(|&e| e <= a.start);
                    (i, a.weight + self.dp.prefix_max(cnt))
                })
                .collect();
            // Update phase: publish this round's DP values.
            dps.par_iter().for_each(|&(i, dp)| {
                self.dp.update(i as usize, dp);
            });
            let round_best = dps.par_iter().map(|&(_, dp)| dp).max().unwrap_or(0);
            self.best = self.best.max(round_best);
        }

        fn finish(self) -> (u64, AtomicFenwickMax) {
            (self.best, self.dp)
        }
    }

    let report = run_type1(
        Problem {
            acts,
            prepared,
            head: 0,
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

/// Literal Algorithm 2 on PA-BSTs. `acts` sorted by end time. Same
/// deadline semantics as [`max_weight_type1`].
pub(crate) fn max_weight_type1_pam(acts: &[Activity], cfg: &RunConfig) -> Report<u64> {
    debug_assert!(acts.windows(2).all(|w| w[0].end <= w[1].end));
    let n = acts.len();
    if n == 0 {
        return Report::plain(0);
    }
    // T_time: key (start, id) -> end, augmented on minimum end time.
    let t_time: AugTree<(u64, u32), u64, MinAug> = AugTree::build(
        MinAug,
        acts.iter()
            .enumerate()
            .map(|(i, a)| ((a.start, i as u32), a.end))
            .collect(),
    );
    // T_DP: key (end, id) -> dp, augmented on maximum DP value; dp values
    // are inserted as activities finish.
    let t_dp: AugTree<(u64, u32), u64, MaxAug> = AugTree::new(MaxAug);

    struct Problem<'a> {
        acts: &'a [Activity],
        t_time: Option<AugTree<(u64, u32), u64, MinAug>>,
        t_dp: AugTree<(u64, u32), u64, MaxAug>,
        best: u64,
    }

    impl Type1Problem for Problem<'_> {
        type Output = u64;

        fn extract_frontier(&mut self) -> Vec<u32> {
            let t_time = self.t_time.take().expect("tree present");
            if t_time.is_empty() {
                self.t_time = Some(t_time);
                return Vec::new();
            }
            // Earliest end among unprocessed = root augmented value.
            let e_x = t_time.aug();
            // Split out all activities starting strictly before e_x.
            let (frontier_tree, _, rest) = t_time.split_at(&(e_x, 0));
            self.t_time = Some(rest);
            frontier_tree
                .flatten()
                .into_iter()
                .map(|((_, id), _)| id)
                .collect()
        }

        fn process(&mut self, frontier: &[u32]) {
            let dps: Vec<((u64, u32), u64)> = frontier
                .par_iter()
                .map(|&i| {
                    let a = &self.acts[i as usize];
                    // max dp over activities with end <= a.start.
                    let q = self.t_dp.aug_left(&(a.start, u32::MAX));
                    ((a.end, i), a.weight + q)
                })
                .collect();
            self.best = self
                .best
                .max(dps.par_iter().map(|&(_, dp)| dp).max().unwrap_or(0));
            self.t_dp.multi_insert(dps);
        }

        fn finish(self) -> u64 {
            self.best
        }
    }

    run_type1(
        Problem {
            acts,
            t_time: Some(t_time),
            t_dp,
            best: 0,
        },
        cfg,
    )
}

#[cfg(test)]
mod tests {
    use super::super::{sort_by_end, Activity};
    use super::*;
    use crate::api::ActivityType1;
    use phase_parallel::PhaseAlgorithm;

    #[test]
    fn chain_of_sequential_activities_has_rank_n() {
        // n back-to-back activities: rank = n, so n rounds.
        let acts = sort_by_end(
            (0..50)
                .map(|i| Activity::new(i * 10, i * 10 + 10, 1))
                .collect(),
        );
        let report = ActivityType1.solve_par(&acts, &RunConfig::new());
        assert_eq!(report.output, 50);
        assert_eq!(report.stats.rounds, 50);
        let report2 = max_weight_type1_pam(&acts, &RunConfig::new());
        assert_eq!(report2.output, 50);
        assert_eq!(report2.stats.rounds, 50);
    }

    #[test]
    fn all_overlapping_is_one_round() {
        let acts = sort_by_end((0..100).map(|i| Activity::new(0, 100 + i, 1 + i)).collect());
        let report = ActivityType1.solve_par(&acts, &RunConfig::new());
        assert_eq!(report.output, 100); // best single activity
        assert_eq!(report.stats.rounds, 1);
        assert_eq!(report.stats.max_frontier(), 100);
    }
}
