//! Parallel random permutation on the Type 2 engine.
//!
//! §5.3 of the paper lists *random permutation* (with list ranking and tree
//! contraction) among the sequential iterative algorithms whose dependence
//! structure has constant in-degree and therefore parallelizes directly
//! \[12, 64\]. The sequential algorithm is the Knuth (Fisher–Yates) shuffle:
//!
//! ```text
//! for k = n-1 downto 1: swap(a[k], a[H[k]])   where H[k] ∈ [0, k] uniform
//! ```
//!
//! Iteration `k` touches cells `k` and `H[k] ≤ k`, and no iteration
//! touches cell `c` after iteration `c`. So the dependences form a forest
//! in which iteration `k` has at most two predecessors, the latest earlier
//! iterations touching its cells:
//!
//! - `p1(k)`, the smallest `k' > k` with `H[k'] = k`;
//! - `p2(k)`, the smallest `k' > k` with `H[k'] = H[k]`, when `H[k] ≠ k`;
//!
//! and at most one successor, the next iteration to touch cell `H[k]`.
//! Shun et al. \[64\] show that the forest is `Θ(log n)` deep whp.
//!
//! One stable integer sort of the iterations, listed in sequential order,
//! by target finds every predecessor: within the group of target `c`,
//! `p2` is an iteration's left neighbour, and `p1(c)` is the last member
//! above `c`. After the sort each position takes O(1) work, all in
//! parallel. Each iteration then hangs on an unfinished predecessor in the
//! Type 2 engine ([`phase_parallel::type2`]) and is attempted when it
//! finishes, so it is attempted at most twice, and the run takes exactly
//! as many rounds as the forest is deep. Two iterations that share a cell
//! are ordered by a dependence, so one round's iterations touch pairwise
//! disjoint cells: their swaps run in parallel, and the output is
//! **bit-for-bit the sequential shuffle's** for the same swap targets `H`.
//!
//! This gives the workspace a second, independently-derived permutation
//! primitive; `pp_parlay::shuffle::random_permutation` (sort-based) is used
//! where any permutation will do, while this module is the §5.3
//! "sequential iterative algorithm" reproduction, exercised by tests and
//! the conformance suite.

use phase_parallel::{run_type2, InitialState, Report, RunConfig, Type2Problem, WakeResult};
use pp_parlay::radix_sort::radix_sort_by_key;
use pp_parlay::rng::{bounded, hash64};
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// No predecessor.
const NONE: u32 = u32::MAX;

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

/// The shuffle's iterations `1..n` as a Type 2 problem. Iteration 0 is a
/// no-op (`H[0] = 0`) and takes no part.
///
/// The atomics publish no other data, and each is written in one
/// parallel region that joins before any read of it, so `Relaxed`
/// suffices throughout.
struct Shuffle<'a> {
    targets: &'a [u32],
    /// `[p1(k), p2(k)]`, [`NONE`] where absent; written once while
    /// grouping.
    preds: Vec<[AtomicU32; 2]>,
    data: Vec<AtomicU32>,
    done: Vec<AtomicBool>,
}

impl<'a> Shuffle<'a> {
    fn new(targets: &'a [u32]) -> Self {
        let n = targets.len();
        let preds: Vec<[AtomicU32; 2]> = (0..n)
            .into_par_iter()
            .map(|_| [AtomicU32::new(NONE), AtomicU32::new(NONE)])
            .collect();
        // `H[k] << 32 | k` for the iterations in sequential order,
        // grouped stably by target.
        let mut order: Vec<u64> = (1..n)
            .into_par_iter()
            .map(|j| {
                let k = n - j;
                u64::from(targets[k]) << 32 | k as u64
            })
            .collect();
        let key_bits = (usize::BITS - n.leading_zeros()) as usize;
        radix_sort_by_key(&mut order, key_bits, |&e| e >> 32);
        let target = |i: usize| (order[i] >> 32) as u32;
        (0..order.len()).into_par_iter().for_each(|i| {
            let (k, c) = (order[i] as u32, target(i));
            let left = (i > 0 && target(i - 1) == c).then(|| order[i - 1] as u32);
            // p2(k) is the left neighbour in k's group, unless H[k] = k.
            if let Some(p) = left.filter(|_| c != k) {
                preds[k as usize][1].store(p, Ordering::Relaxed);
            }
            // p1(c) is the last member of group c above c. Every member
            // is at least c, so c itself, when H[c] = c, comes last.
            let last = i + 1 == order.len() || target(i + 1) != c;
            let p1 = if c != k { Some(k) } else { left };
            if let Some(p) = p1.filter(|_| last && c != 0) {
                preds[c as usize][0].store(p, Ordering::Relaxed);
            }
        });
        Shuffle {
            targets,
            preds,
            data: (0..n as u32).into_par_iter().map(AtomicU32::new).collect(),
            done: (0..n)
                .into_par_iter()
                .map(|_| AtomicBool::new(false))
                .collect(),
        }
    }

    /// The predecessors of iteration `k`, `p1` first.
    fn preds(&self, k: u32) -> [u32; 2] {
        let [p1, p2] = &self.preds[k as usize];
        [p1.load(Ordering::Relaxed), p2.load(Ordering::Relaxed)]
    }
}

impl Type2Problem for Shuffle<'_> {
    type Info = ();
    type Output = Vec<u32>;

    fn initial(&self) -> InitialState<()> {
        let n = self.targets.len() as u32;
        let first = |k: u32| self.preds(k).into_iter().find(|&p| p != NONE);
        let pairs = (1..n)
            .into_par_iter()
            .filter_map(|k| first(k).map(|p| (p, k)))
            .collect();
        let frontier = (1..n)
            .into_par_iter()
            .filter(|&k| first(k).is_none())
            .map(|k| (k, ()))
            .collect();
        (pairs, frontier)
    }

    fn try_wake(&self, k: u32) -> WakeResult<()> {
        match self
            .preds(k)
            .into_iter()
            .find(|&p| p != NONE && !self.done[p as usize].load(Ordering::Relaxed))
        {
            Some(p) => WakeResult::Blocked { new_pivot: p },
            None => WakeResult::Ready(()),
        }
    }

    fn commit(&mut self, ready: &[(u32, ())]) {
        let (data, done, targets) = (&self.data, &self.done, self.targets);
        ready.par_iter().for_each(|&(k, ())| {
            let (k, h) = (k as usize, targets[k as usize] as usize);
            if k != h {
                let x = data[k].load(Ordering::Relaxed);
                data[k].store(data[h].load(Ordering::Relaxed), Ordering::Relaxed);
                data[h].store(x, Ordering::Relaxed);
            }
            done[k].store(true, Ordering::Relaxed);
        });
    }

    fn finish(self) -> Vec<u32> {
        self.data.into_iter().map(AtomicU32::into_inner).collect()
    }
}

/// [`RandomPerm`](crate::api::RandomPerm)'s body: equals
/// [`knuth_shuffle_seq`] exactly on the swap targets of `seed`, and `cfg`
/// carries only the query's deadline.
///
/// The report's `stats.rounds` is the depth of the dependence forest
/// (`Θ(log n)` whp), and `stats.wakeup_attempts ≤ 2(n − 1)`.
pub(crate) fn knuth_shuffle_par(n: usize, seed: u64, cfg: &RunConfig) -> Report<Vec<u32>> {
    let targets = swap_targets(n, seed);
    run_type2(Shuffle::new(&targets), cfg)
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
        assert_eq!(knuth_shuffle_par(0, 1, &cfg).output, []);
        assert_eq!(knuth_shuffle_par(1, 1, &cfg).output, vec![0]);
        let p2 = knuth_shuffle_par(2, 1, &cfg).output;
        assert!(is_permutation(&p2));
    }

    #[test]
    fn matches_sequential_exactly() {
        for n in [2usize, 3, 10, 1000, 50_000] {
            for seed in [0u64, 7, 42] {
                let targets = swap_targets(n, seed);
                let want = knuth_shuffle_seq(n, &targets);
                let got = knuth_shuffle_par(n, seed, &RunConfig::new()).output;
                assert_eq!(got, want, "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn rounds_are_logarithmic() {
        // [64]: dependence depth is Θ(log n) whp. Allow a generous
        // constant; the point is rounds ≪ n.
        let n = 200_000;
        let stats = knuth_shuffle_par(n, 3, &RunConfig::new()).stats;
        assert!(
            stats.rounds <= 8 * (usize::BITS - n.leading_zeros()) as usize,
            "rounds = {} too deep for n = {n}",
            stats.rounds
        );
        // Work efficiency: each iteration is attempted at most twice,
        // once per predecessor.
        assert!(
            stats.wakeup_attempts <= 2 * (n - 1),
            "wakeup_attempts = {} blow up",
            stats.wakeup_attempts
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = knuth_shuffle_par(1000, 1, &RunConfig::new()).output;
        let b = knuth_shuffle_par(1000, 2, &RunConfig::new()).output;
        assert!(is_permutation(&a) && is_permutation(&b));
        assert_ne!(a, b);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = knuth_shuffle_par(30_000, 9, &RunConfig::new()).output;
        let b = knuth_shuffle_par(30_000, 9, &RunConfig::new()).output;
        assert_eq!(a, b);
    }
}
