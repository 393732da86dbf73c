//! Parallel random permutation via deterministic reservations.
//!
//! §5.3 of the paper lists *random permutation* (with list ranking and tree
//! contraction) among the sequential iterative algorithms whose dependence
//! structure has constant in-degree and therefore parallelizes directly
//! \[12, 64\]. The sequential algorithm is the Knuth (Fisher–Yates) shuffle:
//!
//! ```text
//! for i = n-1 downto 1: swap(a[i], a[H[i]])   where H[i] ∈ [0, i] uniform
//! ```
//!
//! Iteration `i` depends on the earlier iterations that touch cell `i` or
//! cell `H[i]`; Shun et al. \[64\] show this dependence forest is shallow
//! (`Θ(log n)` depth whp), so the deterministic-reservations driver
//! ([`phase_parallel::reservations`]) finishes in `O(log n)` rounds whp —
//! and, because reservations are priority-ordered by the *sequential*
//! iteration index, it produces **bit-for-bit the sequential shuffle's
//! output** for the same swap targets `H`.
//!
//! This gives the workspace a second, independently-derived permutation
//! primitive; `pp_parlay::shuffle::random_permutation` (sort-based) is used
//! where any permutation will do, while this module is the §5.3
//! "sequential iterative algorithm" reproduction, exercised by tests and
//! the conformance suite.

use phase_parallel::reservations::{speculative_for, ReservationProblem, ReservationTable};
use phase_parallel::{Report, RunConfig};
use pp_parlay::rng::{bounded, hash64};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// The swap targets of a Knuth shuffle: `H[i] ∈ [0, i]` uniform,
/// deterministic per `(seed, i)`.
pub fn swap_targets(n: usize, seed: u64) -> Vec<u32> {
    (0..n)
        .into_par_iter()
        .map(|i| bounded(hash64(seed, i as u64), i as u64 + 1) as u32)
        .collect()
}

/// Sequential Knuth shuffle with explicit swap targets (the reference the
/// parallel version must match exactly).
pub fn knuth_shuffle_seq(n: usize, targets: &[u32]) -> Vec<u32> {
    assert_eq!(n, targets.len());
    let mut a: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        a.swap(i, targets[i] as usize);
    }
    a
}

struct ShuffleProblem<'a> {
    /// `targets[i]` = H[i]; iterate `j` is loop iteration `i = n-1-j` so
    /// that lower iterate index = earlier in sequential order.
    targets: &'a [u32],
    data: Vec<AtomicU32>,
}

impl ShuffleProblem<'_> {
    #[inline]
    fn loop_index(&self, iterate: u32) -> usize {
        self.data.len() - 1 - iterate as usize
    }
}

impl ReservationProblem for ShuffleProblem<'_> {
    fn num_iterates(&self) -> usize {
        // Iteration i = 0 is a no-op (H[0] = 0).
        self.data.len().saturating_sub(1)
    }

    fn reserve(&self, iterate: u32, table: &ReservationTable) {
        let i = self.loop_index(iterate);
        table.reserve(i, iterate);
        table.reserve(self.targets[i] as usize, iterate);
    }

    fn commit(&self, iterate: u32, table: &ReservationTable) -> bool {
        let i = self.loop_index(iterate);
        let h = self.targets[i] as usize;
        if table.holds(i, iterate) && table.holds(h, iterate) {
            // Holding both cells means every earlier iteration touching
            // them has committed, so the swap is the sequential one.
            if i != h {
                let x = self.data[i].load(Ordering::Relaxed);
                let y = self.data[h].load(Ordering::Relaxed);
                self.data[i].store(y, Ordering::Relaxed);
                self.data[h].store(x, Ordering::Relaxed);
            }
            true
        } else {
            false
        }
    }
}

/// [`RandomPerm`](crate::api::RandomPerm)'s body: equals
/// [`knuth_shuffle_seq`] exactly on the swap targets of `seed`, and `cfg`
/// carries only the query's deadline.
///
/// The report's `stats.rounds` ≈ the dependence depth (`Θ(log n)` whp);
/// the `"attempts"` counter totals reserve+commit attempts across
/// rounds (the framework's work proxy).
pub(crate) fn random_permutation_reservations(
    n: usize,
    seed: u64,
    cfg: &RunConfig,
) -> Report<Vec<u32>> {
    let targets = swap_targets(n, seed);
    let problem = ShuffleProblem {
        targets: &targets,
        data: (0..n as u32).map(AtomicU32::new).collect(),
    };
    let table = ReservationTable::new(n);
    let report = speculative_for(&problem, &table, 0, cfg);
    report.map(|()| {
        problem
            .data
            .into_iter()
            .map(AtomicU32::into_inner)
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_permutation(a: &[u32]) -> bool {
        let mut seen = vec![false; a.len()];
        a.iter().all(|&x| {
            let x = x as usize;
            x < seen.len() && !std::mem::replace(&mut seen[x], true)
        })
    }

    #[test]
    fn empty_and_tiny() {
        let cfg = RunConfig::new();
        assert_eq!(random_permutation_reservations(0, 1, &cfg).output, []);
        assert_eq!(random_permutation_reservations(1, 1, &cfg).output, vec![0]);
        let p2 = random_permutation_reservations(2, 1, &cfg).output;
        assert!(is_permutation(&p2));
    }

    #[test]
    fn matches_sequential_exactly() {
        for n in [2usize, 3, 10, 1000, 50_000] {
            for seed in [0u64, 7, 42] {
                let targets = swap_targets(n, seed);
                let want = knuth_shuffle_seq(n, &targets);
                let got = random_permutation_reservations(n, seed, &RunConfig::new()).output;
                assert_eq!(got, want, "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn rounds_are_logarithmic() {
        // [64]: dependence depth is Θ(log n) whp. Allow a generous
        // constant; the point is rounds ≪ n.
        let n = 200_000;
        let stats = random_permutation_reservations(n, 3, &RunConfig::new()).stats;
        assert!(
            stats.rounds <= 8 * (usize::BITS - n.leading_zeros()) as usize,
            "rounds = {} too deep for n = {n}",
            stats.rounds
        );
        // Near-work-efficiency: total attempts stay O(n).
        let attempts = stats.counter("attempts").unwrap();
        assert!(attempts < 8 * n as u64, "attempts = {attempts} blow up");
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_permutation_reservations(1000, 1, &RunConfig::new()).output;
        let b = random_permutation_reservations(1000, 2, &RunConfig::new()).output;
        assert!(is_permutation(&a) && is_permutation(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = random_permutation_reservations(30_000, 9, &RunConfig::new()).output;
        let b = random_permutation_reservations(30_000, 9, &RunConfig::new()).output;
        assert_eq!(a, b);
    }
}
