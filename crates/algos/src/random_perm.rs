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
//! Everything up to the engine's starting state depends on `(n, seed)`
//! alone: the swap targets, the forest, each iteration's first
//! predecessor as its initial pivot, and the round-0 frontier of
//! iterations with none. `prepare_perm` builds them once. A query
//! lends the pivot pairs to the engine in place, copies the frontier,
//! and runs only the wake-up rounds and the swaps, on cells and done
//! flags drawn from its [`Scratch`] workspace.
//!
//! This gives the workspace a second, independently-derived permutation
//! primitive; `pp_parlay::shuffle::random_permutation` (sort-based) is used
//! where any permutation will do, while this module is the §5.3
//! "sequential iterative algorithm" reproduction, exercised by tests and
//! the conformance suite.

use phase_parallel::{
    run_type2, InitialState, Report, RunConfig, Scratch, Type2Problem, WakeResult,
};
use pp_parlay::radix_sort::radix_sort_by_key;
use pp_parlay::rng::{bounded, hash64};
use rayon::prelude::*;
use std::borrow::Cow;
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

/// What [`RandomPerm`](crate::api::RandomPerm) prepares from `(n, seed)`:
/// the swap targets, the dependence forest, and the engine's starting
/// state over it. A query only runs the wake-up rounds and the swaps.
pub struct PreparedPerm {
    targets: Vec<u32>,
    /// `[p1(k), p2(k)]`, [`NONE`] where absent.
    preds: Vec<[u32; 2]>,
    /// `(first predecessor, k)` for every iteration `k ≥ 1` that has one.
    pairs: Vec<(u32, u32)>,
    /// The iterations `k ≥ 1` with no predecessor: round 0.
    frontier: Vec<(u32, ())>,
}

/// Draw the swap targets of `seed` and build the dependence forest.
/// Iteration 0 is a no-op (`H[0] = 0`) and takes no part.
pub(crate) fn prepare_perm(n: usize, seed: u64) -> PreparedPerm {
    let targets = swap_targets(n, seed);
    // Each slot is written at most once, in one parallel region that
    // joins before the loads below, so `Relaxed` suffices.
    let slots: Vec<[AtomicU32; 2]> = (0..n)
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
            slots[k as usize][1].store(p, Ordering::Relaxed);
        }
        // p1(c) is the last member of group c above c. Every member
        // is at least c, so c itself, when H[c] = c, comes last.
        let last = i + 1 == order.len() || target(i + 1) != c;
        let p1 = if c != k { Some(k) } else { left };
        if let Some(p) = p1.filter(|_| last && c != 0) {
            slots[c as usize][0].store(p, Ordering::Relaxed);
        }
    });
    let preds: Vec<[u32; 2]> = slots
        .par_iter()
        .map(|[p1, p2]| [p1.load(Ordering::Relaxed), p2.load(Ordering::Relaxed)])
        .collect();
    let first = |k: u32| preds[k as usize].into_iter().find(|&p| p != NONE);
    let pairs = (1..n as u32)
        .into_par_iter()
        .filter_map(|k| first(k).map(|p| (p, k)))
        .collect();
    let frontier = (1..n as u32)
        .into_par_iter()
        .filter(|&k| first(k).is_none())
        .map(|k| (k, ()))
        .collect();
    PreparedPerm {
        targets,
        preds,
        pairs,
        frontier,
    }
}

/// One query's state: the prepared forest, and the cells and done flags
/// the rounds write.
///
/// The atomics publish no other data, and each is written in one
/// parallel region that joins before any read of it, so `Relaxed`
/// suffices throughout.
struct Shuffle<'a> {
    prepared: &'a PreparedPerm,
    data: Vec<AtomicU32>,
    done: Vec<AtomicBool>,
}

impl Type2Problem for Shuffle<'_> {
    type Info = ();
    /// The problem itself: the query hands its buffers back to the
    /// workspace.
    type Output = Self;

    fn initial(&self) -> InitialState<'_, ()> {
        let p = self.prepared;
        (Cow::Borrowed(&p.pairs), p.frontier.clone())
    }

    fn try_wake(&self, k: u32) -> WakeResult<()> {
        match self.prepared.preds[k as usize]
            .into_iter()
            .find(|&p| p != NONE && !self.done[p as usize].load(Ordering::Relaxed))
        {
            Some(p) => WakeResult::Blocked { new_pivot: p },
            None => WakeResult::Ready(()),
        }
    }

    fn commit(&mut self, ready: &[(u32, ())]) {
        let (data, done, targets) = (&self.data, &self.done, &self.prepared.targets);
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

    fn finish(self) -> Self {
        self
    }
}

/// [`RandomPerm`](crate::api::RandomPerm)'s query: equals
/// [`knuth_shuffle_seq`] exactly on the prepared swap targets, and `cfg`
/// carries only the query's deadline. The cells and done flags come
/// from `scratch` and go back to it.
///
/// The report's `stats.rounds` is the depth of the dependence forest
/// (`Θ(log n)` whp), and `stats.wakeup_attempts ≤ 2(n − 1)`.
pub(crate) fn shuffle_query(
    prepared: &PreparedPerm,
    scratch: &mut Scratch,
    cfg: &RunConfig,
) -> Report<Vec<u32>> {
    let n = prepared.targets.len();
    let mut data = scratch.take_vec::<AtomicU32>("random-perm.data");
    data.extend((0..n as u32).map(AtomicU32::new));
    let mut done = scratch.take_vec::<AtomicBool>("random-perm.done");
    done.resize_with(n, || AtomicBool::new(false));
    let report = run_type2(
        Shuffle {
            prepared,
            data,
            done,
        },
        cfg,
    );
    report.map(|Shuffle { data, done, .. }| {
        let out = data.iter().map(|x| x.load(Ordering::Relaxed)).collect();
        scratch.put_vec("random-perm.data", data);
        scratch.put_vec("random-perm.done", done);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RandomPerm;
    use phase_parallel::PhaseAlgorithm;

    fn knuth_shuffle_par(n: usize, seed: u64, cfg: &RunConfig) -> Report<Vec<u32>> {
        RandomPerm.solve_par(&(n, seed), cfg)
    }

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
