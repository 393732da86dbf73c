//! Activity selection (§4.1 Type 1, §5.1 Type 2, Thm 5.3 unweighted).
//!
//! Given activities with start time `s_i`, end time `e_i` and weight
//! `w_i`, select a maximum-weight set of pairwise non-overlapping
//! activities. Two activities are compatible when one ends no later than
//! the other starts (`e_j <= s_i`). The DP over activities sorted by end
//! time is Eq. (1): `dp[i] = w_i + max_{e_j <= s_i} dp[j]`.
//!
//! The **rank** of an activity is the maximum number of non-overlapping
//! activities ending at it (Table 1); the paper's experiments sweep this
//! rank, which our workload generator controls through the mean activity
//! length.

mod pivots;
mod seq;
mod type1;
mod type2;
pub mod unweighted;
pub mod workload;

pub use seq::max_weight_seq;
pub use type1::PreparedType1;
pub(crate) use type1::{max_weight_type1, max_weight_type1_pam, prepare_type1};
pub use type2::PreparedType2;
pub(crate) use type2::{max_weight_type2, prepare_type2};
pub(crate) use unweighted::max_count_unweighted;
pub use unweighted::ranks;

use phase_parallel::Scratch;
use pp_ranges::AtomicFenwickMax;

/// The scratch slot of the per-query DP tree of `activity/type1` and
/// `activity/type2`.
const DP_SLOT: &str = "activity.dp";

/// A DP tree over `n` activities, all `0`, reusing the one parked in
/// `scratch` under [`DP_SLOT`] if there is one.
fn take_dp(scratch: &mut Scratch, n: usize) -> AtomicFenwickMax {
    let mut dp = scratch
        .take_any::<AtomicFenwickMax>(DP_SLOT)
        .unwrap_or_else(|| AtomicFenwickMax::new(0));
    dp.reset(n);
    dp
}

/// One activity: `[start, end)` with a weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Activity {
    /// Start time.
    pub start: u64,
    /// End time (must be strictly greater than `start`).
    pub end: u64,
    /// Weight (≥ 1 for the weighted problem; ignored by the unweighted
    /// algorithms).
    pub weight: u64,
}

impl Activity {
    /// Construct an activity; panics if `start >= end` (zero-length
    /// activities break the frontier argument of Lemma 4.1 and are
    /// rejected everywhere).
    pub fn new(start: u64, end: u64, weight: u64) -> Self {
        assert!(start < end, "activity must have positive length");
        Self { start, end, weight }
    }
}

/// Sort activities by end time (the sequential order of §4.1) and
/// validate them. All algorithms in this module expect this order.
pub fn sort_by_end(mut acts: Vec<Activity>) -> Vec<Activity> {
    for a in &acts {
        assert!(a.start < a.end, "activity must have positive length");
    }
    pp_parlay::par_sort_by_key(&mut acts, |a| (a.end, a.start, a.weight));
    acts
}

/// Brute-force optimum by exhaustive search (tests only; exponential).
pub fn max_weight_brute(acts: &[Activity]) -> u64 {
    assert!(acts.len() <= 20);
    let n = acts.len();
    let mut best = 0u64;
    'outer: for mask in 0..(1u32 << n) {
        let chosen: Vec<&Activity> = (0..n)
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| &acts[i])
            .collect();
        for i in 0..chosen.len() {
            for j in i + 1..chosen.len() {
                let (a, b) = (chosen[i], chosen[j]);
                let compatible = a.end <= b.start || b.end <= a.start;
                if !compatible {
                    continue 'outer;
                }
            }
        }
        best = best.max(chosen.iter().map(|a| a.weight).sum());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ActivityType1, ActivityType2};
    use phase_parallel::{PhaseAlgorithm, RunConfig};
    use pp_parlay::rng::Rng;

    pub(crate) fn random_activities(
        n: usize,
        time_range: u64,
        max_len: u64,
        seed: u64,
    ) -> Vec<Activity> {
        let mut r = Rng::new(seed);
        (0..n)
            .map(|_| {
                let s = r.range(time_range);
                let len = 1 + r.range(max_len);
                Activity::new(s, s + len, 1 + r.range(100))
            })
            .collect()
    }

    #[test]
    fn all_algorithms_agree_small() {
        let cfg = RunConfig::new();
        for seed in 0..30 {
            let acts = sort_by_end(random_activities(12, 50, 10, seed));
            let want = max_weight_brute(&acts);
            assert_eq!(max_weight_seq(&acts), want, "seq seed={seed}");
            assert_eq!(
                ActivityType1.solve_par(&acts, &cfg).output,
                want,
                "type1 seed={seed}"
            );
            assert_eq!(
                max_weight_type1_pam(&acts, &cfg).output,
                want,
                "type1_pam seed={seed}"
            );
            assert_eq!(
                ActivityType2.solve_par(&acts, &cfg).output,
                want,
                "type2 seed={seed}"
            );
        }
    }

    #[test]
    fn all_algorithms_agree_large() {
        let cfg = RunConfig::new();
        for (n, range, len) in [
            (5000usize, 10_000u64, 100u64),
            (5000, 500, 400),
            (3000, 1_000_000, 3),
        ] {
            let acts = sort_by_end(random_activities(n, range, len, 99));
            let want = max_weight_seq(&acts);
            assert_eq!(
                ActivityType1.solve_par(&acts, &cfg).output,
                want,
                "type1 n={n}"
            );
            assert_eq!(
                max_weight_type1_pam(&acts, &cfg).output,
                want,
                "type1_pam n={n}"
            );
            assert_eq!(
                ActivityType2.solve_par(&acts, &cfg).output,
                want,
                "type2 n={n}"
            );
        }
    }

    #[test]
    fn rounds_equal_rank() {
        let cfg = RunConfig::new();
        // The engines should run exactly rank(S) rounds (round-efficiency).
        let acts = sort_by_end(random_activities(2000, 1000, 50, 5));
        let rank = *ranks(&acts).iter().max().unwrap() as usize;
        let s1 = ActivityType1.solve_par(&acts, &cfg).stats;
        let s2 = ActivityType2.solve_par(&acts, &cfg).stats;
        assert_eq!(s1.rounds, rank);
        assert_eq!(s2.rounds, rank);
    }

    #[test]
    fn single_and_empty() {
        let cfg = RunConfig::new();
        assert_eq!(max_weight_seq(&[]), 0);
        assert_eq!(ActivityType1.solve_par(&[], &cfg).output, 0);
        assert_eq!(ActivityType2.solve_par(&[], &cfg).output, 0);
        let one = vec![Activity::new(0, 5, 7)];
        assert_eq!(max_weight_seq(&one), 7);
        assert_eq!(ActivityType1.solve_par(&one, &cfg).output, 7);
        assert_eq!(max_weight_type1_pam(&one, &cfg).output, 7);
        assert_eq!(ActivityType2.solve_par(&one, &cfg).output, 7);
    }

    #[test]
    fn touching_endpoints_are_compatible() {
        let cfg = RunConfig::new();
        // e_j <= s_i means back-to-back activities combine.
        let acts = sort_by_end(vec![
            Activity::new(0, 5, 10),
            Activity::new(5, 10, 20),
            Activity::new(10, 15, 30),
        ]);
        assert_eq!(max_weight_seq(&acts), 60);
        assert_eq!(ActivityType1.solve_par(&acts, &cfg).output, 60);
        assert_eq!(ActivityType2.solve_par(&acts, &cfg).output, 60);
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn rejects_zero_length() {
        Activity::new(3, 3, 1);
    }
}
