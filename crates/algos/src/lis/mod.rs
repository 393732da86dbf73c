//! Longest increasing subsequence (§5.2, Algorithm 3; experiments §6.4).
//!
//! The paper's headline Type 2 result is Algorithm 3: the first nearly
//! work-efficient (`Õ(n)` work) parallel LIS with round-efficiency
//! (`Õ(k)` span for LIS length `k`), via random pivots over an augmented
//! 2D range tree. Unweighted LIS is also Type 1: the elements of each
//! rank are the prefix minima of the elements not yet ranked, so a round
//! can *extract* its frontier by one pruned traversal of a min segment
//! tree, in `O(n log n)` total work.
//!
//! * [`lis_seq`] — the classic `O(n log n)` sequential DP baseline.
//! * [`lis_par_with_dp`] — the prefix-minima rounds (Type 1) on
//!   [`pp_ranges::SegTree`]: exactly `k` rounds, no wake-ups. The
//!   [`Lis`](crate::api::Lis) impl keeps only the length.
//! * [`WeightedLis`](crate::api::WeightedLis) — weighted LIS in the
//!   same `k` prefix-minima rounds: each object of the round's rank asks
//!   [`pp_ranges::RangeTree2d`] once for the best DP value below it
//!   ([`lis_weighted_seq`] is its baseline).
//! * [`lis_weighted_par`] — Algorithm 3 on [`pp_ranges::RangeTree2d`],
//!   with the pivot strategy selectable: [`PivotMode::Random`] (the
//!   analyzed one, Lemma 5.5) or [`PivotMode::RightMost`] (§6.4's
//!   heuristic). With unit weights it is the unweighted Algorithm 3, and
//!   the Table 2 and Fig. 8–9 reproductions run it that way.
//! * [`patterns`] — the segment / line input generators of Fig. 10.
//! * [`reconstruct`] — recover one optimal subsequence from DP values.

mod par;
pub mod patterns;
mod seq;
mod weighted;

pub use par::{lis_par_with_dp, lis_weighted_par};
pub use phase_parallel::PivotMode;
pub use seq::{lis_seq, lis_seq_with_dp};
pub use weighted::{lis_weighted_seq, PreparedWeightedLis};
pub(crate) use weighted::{prepare_weighted, weighted_query};

/// Recover one LIS (as indices) from per-element DP values
/// (`dp[i]` = LIS length ending at `i`). `O(n)` backward scan.
pub fn reconstruct(values: &[i64], dp: &[u32]) -> Vec<usize> {
    let k = dp.iter().copied().max().unwrap_or(0);
    let mut out = Vec::with_capacity(k as usize);
    let mut need = k;
    let mut upper = i64::MAX;
    for i in (0..values.len()).rev() {
        if need == 0 {
            break;
        }
        if dp[i] == need && values[i] < upper {
            out.push(i);
            upper = values[i];
            need -= 1;
        }
    }
    out.reverse();
    out
}

/// Brute-force LIS length (tests only; `O(2^n)`-ish via DP is fine but
/// keep it obviously correct: quadratic DP).
pub fn lis_brute(values: &[i64]) -> u32 {
    let n = values.len();
    let mut dp = vec![0u32; n];
    let mut best = 0;
    for i in 0..n {
        dp[i] = 1;
        for j in 0..i {
            if values[j] < values[i] {
                dp[i] = dp[i].max(dp[j] + 1);
            }
        }
        best = best.max(dp[i]);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{api::Lis, PhaseAlgorithm};
    use pp_parlay::rng::Rng;

    fn cfg(mode: PivotMode, seed: u64) -> phase_parallel::RunConfig {
        phase_parallel::RunConfig::seeded(seed).with_pivot_mode(mode)
    }

    #[test]
    fn fig1_example() {
        // Fig. 1(b): sequence 4 7 3 2 8 1 6 5 — LIS length 3 (e.g. 4 7 8).
        let v = vec![4, 7, 3, 2, 8, 1, 6, 5];
        assert_eq!(lis_brute(&v), 3);
        assert_eq!(lis_seq(&v), 3);
        assert_eq!(Lis.solve_par(&v, &cfg(PivotMode::Random, 1)).output, 3);
        assert_eq!(Lis.solve_par(&v, &cfg(PivotMode::RightMost, 1)).output, 3);
    }

    #[test]
    fn random_instances_all_agree() {
        let mut r = Rng::new(11);
        for trial in 0..25 {
            let n = 1 + r.range(400) as usize;
            let vals: Vec<i64> = (0..n).map(|_| r.range(100) as i64).collect();
            let want = lis_brute(&vals);
            assert_eq!(lis_seq(&vals), want, "seq trial {trial}");
            assert_eq!(
                Lis.solve_par(&vals, &cfg(PivotMode::Random, trial)).output,
                want,
                "par/random trial {trial}"
            );
            assert_eq!(
                Lis.solve_par(&vals, &cfg(PivotMode::RightMost, trial))
                    .output,
                want,
                "par/rightmost trial {trial}"
            );
        }
    }

    #[test]
    fn duplicates_are_not_increasing() {
        let v = vec![3, 3, 3, 3];
        assert_eq!(lis_seq(&v), 1);
        assert_eq!(Lis.solve_par(&v, &cfg(PivotMode::Random, 0)).output, 1);
        let v = vec![1, 2, 2, 3];
        assert_eq!(lis_seq(&v), 3);
        assert_eq!(Lis.solve_par(&v, &cfg(PivotMode::RightMost, 0)).output, 3);
    }

    #[test]
    fn sorted_and_reverse() {
        let ones = vec![1u32; 500];
        let v: Vec<i64> = (0..500).collect();
        assert_eq!(lis_seq(&v), 500);
        let res = Lis.solve_par(&v, &cfg(PivotMode::RightMost, 0));
        assert_eq!(res.output, 500);
        assert_eq!(res.stats.rounds, 500); // one round per rank
        let res = lis_weighted_par(&v, &ones, &cfg(PivotMode::RightMost, 0));
        assert_eq!(res.output.0, 500);
        assert_eq!(res.stats.rounds, 501); // virtual round + k rounds
        let v: Vec<i64> = (0..500).rev().collect();
        assert_eq!(lis_seq(&v), 1);
        let res = Lis.solve_par(&v, &cfg(PivotMode::Random, 0));
        assert_eq!(res.output, 1);
        assert_eq!(res.stats.rounds, 1); // one frontier
        let res = lis_weighted_par(&v, &ones, &cfg(PivotMode::Random, 0));
        assert_eq!(res.output.0, 1);
        assert_eq!(res.stats.rounds, 2); // virtual round + one frontier
    }

    #[test]
    fn dp_values_match_between_seq_and_par() {
        let mut r = Rng::new(12);
        let vals: Vec<i64> = (0..1000).map(|_| r.range(500) as i64).collect();
        let (_, dp_seq) = lis_seq_with_dp(&vals);
        let report = lis_par_with_dp(&vals, &cfg(PivotMode::Random, 5));
        let (length, dp_par) = report.output;
        assert_eq!(dp_seq, dp_par);
        assert_eq!(length, *dp_seq.iter().max().unwrap());
    }

    #[test]
    fn reconstruction_is_valid_lis() {
        let mut r = Rng::new(13);
        let vals: Vec<i64> = (0..800).map(|_| r.range(300) as i64).collect();
        let (k, dp) = lis_seq_with_dp(&vals);
        let idx = reconstruct(&vals, &dp);
        assert_eq!(idx.len() as u32, k);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert!(idx.windows(2).all(|w| vals[w[0]] < vals[w[1]]));
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(lis_seq(&[]), 0);
        assert_eq!(Lis.solve_par(&[], &cfg(PivotMode::Random, 0)).output, 0);
        assert_eq!(lis_seq(&[42]), 1);
        assert_eq!(
            Lis.solve_par(&[42], &cfg(PivotMode::RightMost, 0)).output,
            1
        );
    }

    #[test]
    fn wakeup_attempts_stay_logarithmic() {
        // Lemma 5.5: O(log n) wake-ups per object whp; §6.4 observes ≤ 8.4.
        for n in (8..=14).map(|e| 1usize << e).chain([5000]) {
            let mut r = Rng::new(14);
            let vals: Vec<i64> = (0..n).map(|_| r.range(1 << 30) as i64).collect();
            let bound = 0.75 * (n as f64).log2();
            for mode in [PivotMode::Random, PivotMode::RightMost] {
                let res = lis_weighted_par(&vals, &vec![1; n], &cfg(mode, 9));
                let avg = res.stats.avg_wakeups();
                assert!(
                    avg <= bound,
                    "n = {n} {mode:?}: avg wake-ups {avg} above 0.75·log2 n = {bound}"
                );
            }
        }
    }
}
