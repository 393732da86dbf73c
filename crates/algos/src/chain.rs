//! Longest chain under `D`-dimensional dominance — the Appendix B
//! extension exercised end-to-end.
//!
//! Appendix B closes with: "When extending the setting to 2D grid ...
//! the problem requires a 3D range query, which adds up an extra
//! `O(log n)` factor to both work and span." This module runs the
//! phase-parallel Type 2 machinery one or two dimensions up from LIS:
//! given points `[i64; D]`, find the longest chain `p_1 ≺ p_2 ≺ …` under
//! strict coordinate-wise dominance (every coordinate strictly
//! increases). LIS is the 2D special case (index, value). For `D = 3`
//! this is the exact shape of the appendix's range-query extension; the
//! 2D-grid Whac-A-Mole cone rotates into four halfspace constraints, so
//! [`Whac2d`](crate::api::Whac2d) runs the `D = 4` chain.
//!
//! [`Chain`](crate::api::Chain) runs on the `D`-dimensional [`Layered`]
//! dominance tree: `O(n log^(D+1) n)` work and `O(k log^D n)` span for
//! chain length `k` — each extra dimension costs the one extra `log` the
//! appendix describes. The per-coordinate slots and bounds and the tree
//! with every point unfinished depend on the points alone, so
//! `prepare_chain` builds them once ([`PreparedChain`]). Each query
//! refreshes a copy of the tree in its [`Scratch`] workspace with
//! `clone_from`, which reuses the copy's allocations, and sets the
//! query's pivot mode on it. [`chain_seq`] sweeps the points in
//! first-coordinate order over the `(D − 1)`-dimensional tree, and
//! [`chain_brute`] is the quadratic oracle.

use phase_parallel::{
    run_type2, InitialState, PivotMode, Report, RunConfig, Scratch, Type2Problem, WakeResult,
};
use pp_parlay::rng::{hash64, Rng};
use pp_ranges::{Dominance, Layered, RangeTree2d};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// A point dimension the chain algorithms run in: `Sweep` is the
/// dominance tree over all coordinates but the first, which
/// [`chain_seq`] queries and [`Chain`](crate::api::Chain) layers over.
pub trait ChainPoint {
    /// The `(D − 1)`-dimensional dominance tree.
    type Sweep: Dominance;
}

impl ChainPoint for [i64; 3] {
    type Sweep = RangeTree2d;
}

impl ChainPoint for [i64; 4] {
    type Sweep = Layered<RangeTree2d>;
}

/// Slot assignment for one coordinate: returns `(slot_of_point,
/// strict_prefix_bound_of_point)` — slots break ties by id, bounds count
/// strictly smaller values only.
pub(crate) fn slots(values: impl Fn(usize) -> i64 + Send + Sync, n: usize) -> (Vec<u32>, Vec<u32>) {
    let mut order: Vec<u32> = (0..n as u32).collect();
    pp_parlay::par_sort_by_key(&mut order, |&i| (values(i as usize), i));
    let mut slot = vec![0u32; n];
    for (s, &i) in order.iter().enumerate() {
        slot[i as usize] = s as u32;
    }
    let sorted: Vec<i64> = order.iter().map(|&i| values(i as usize)).collect();
    let bound: Vec<u32> = (0..n)
        .into_par_iter()
        .map(|i| sorted.partition_point(|&v| v < values(i)) as u32)
        .collect();
    (slot, bound)
}

/// Longest strict-dominance chain, quadratic oracle (tests only).
pub fn chain_brute<const D: usize>(pts: &[[i64; D]]) -> u32 {
    let n = pts.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| pts[i]);
    let mut dp = vec![0u32; n];
    let mut best = 0;
    for &i in &idx {
        dp[i] = 1;
        for j in 0..n {
            if (0..D).all(|k| pts[j][k] < pts[i][k]) {
                dp[i] = dp[i].max(dp[j] + 1);
            }
        }
        best = best.max(dp[i]);
    }
    best
}

/// Longest strict-dominance chain, sequential `O(n log^(D−1) n)`:
/// process in first-coordinate order, querying a `(D − 1)`-dimensional
/// max structure over the other coordinates — the natural generalization
/// of the classic LIS DP (for `D = 4`, the appendix's "3D range query",
/// with the processing order standing in for the fourth constraint).
pub fn chain_seq<const D: usize>(pts: &[[i64; D]]) -> u32
where
    [i64; D]: ChainPoint,
{
    let n = pts.len();
    if n == 0 {
        return 0;
    }
    let coords: Vec<(Vec<u32>, Vec<u32>)> = (1..D).map(|j| slots(|i| pts[i][j], n)).collect();
    // The sweep tree's points are the second-coordinate slots; finishing
    // in first-coordinate order makes `max_dp` range over exactly the
    // already-processed points.
    let by_b = &coords[0].0;
    let rest: Vec<Vec<u32>> = coords[1..]
        .iter()
        .map(|(slot, _)| {
            let mut at_b = vec![0u32; n];
            for (i, &b) in by_b.iter().enumerate() {
                at_b[b as usize] = slot[i];
            }
            at_b
        })
        .collect();
    let rest: Vec<&[u32]> = rest.iter().map(Vec::as_slice).collect();
    let mut tree = <[i64; D] as ChainPoint>::Sweep::build(&rest, PivotMode::RightMost);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&i| (pts[i as usize][0], i));
    let mut q = [0u32; D];
    let mut best = 0;
    let mut i0 = 0;
    while i0 < n {
        // Points with an equal first coordinate are mutually
        // incomparable: process the whole tie-group against the
        // pre-group state.
        let mut i1 = i0;
        while i1 < n && pts[order[i1] as usize][0] == pts[order[i0] as usize][0] {
            i1 += 1;
        }
        let batch: Vec<(u32, u32)> = order[i0..i1]
            .iter()
            .map(|&i| {
                for (qj, (_, bound)) in q.iter_mut().zip(&coords) {
                    *qj = bound[i as usize];
                }
                let info = tree.query_prefix(&q[..D - 1]);
                let dp = info.max_dp.map_or(1, |d| d + 1);
                (by_b[i as usize], dp)
            })
            .collect();
        best = batch.iter().map(|&(_, dp)| dp).fold(best, u32::max);
        tree.finish_batch(&batch);
        i0 = i1;
    }
    best
}

/// What [`Chain`](crate::api::Chain) prepares from the points alone:
/// the `D`-dimensional dominance tree with every point unfinished, and
/// each point's strict prefix bounds. A query runs on its own copy of
/// the tree, refreshed from this one.
pub struct PreparedChain<const D: usize>
where
    [i64; D]: ChainPoint,
{
    tree: Layered<<[i64; D] as ChainPoint>::Sweep>,
    /// Each point's strict prefix bounds, `D` per point.
    bounds: Vec<u32>,
}

/// Build the per-coordinate slots and bounds and the dominance tree.
/// Reads no query setting: the tree's pivot mode is set on each
/// query's copy.
pub(crate) fn prepare_chain<const D: usize>(pts: &[[i64; D]]) -> PreparedChain<D>
where
    [i64; D]: ChainPoint,
{
    let n = pts.len();
    let coords: Vec<(Vec<u32>, Vec<u32>)> = (0..D).map(|j| slots(|i| pts[i][j], n)).collect();
    let slot_of: Vec<&[u32]> = coords.iter().map(|(slot, _)| slot.as_slice()).collect();
    let tree = Layered::new(&slot_of, PivotMode::default());
    let bounds: Vec<u32> = (0..n)
        .flat_map(|i| coords.iter().map(move |(_, bound)| bound[i]))
        .collect();
    PreparedChain { tree, bounds }
}

/// [`Chain`](crate::api::Chain)'s query: Type 2 over a copy of the
/// prepared dominance tree, in `cfg`'s pivot mode. The copy, the DP
/// values and the attempt counters come from `scratch` and go back to
/// it. The report's `stats.rounds` equals the chain length
/// (round-efficiency, one rank per round).
pub(crate) fn chain_query<const D: usize>(
    prepared: &PreparedChain<D>,
    scratch: &mut Scratch,
    cfg: &RunConfig,
) -> Report<u32>
where
    [i64; D]: ChainPoint,
{
    let n = prepared.tree.len();
    if n == 0 {
        return Report::plain(0);
    }
    let mut tree = scratch.take_copy("chain.tree", &prepared.tree);
    tree.set_pivot_mode(cfg.pivot_mode);
    let mut dp = scratch.take_vec::<u32>("chain.dp");
    dp.resize(n, 0);
    let mut attempts = scratch.take_vec::<AtomicU32>("chain.attempts");
    attempts.resize_with(n, || AtomicU32::new(0));
    let report = run_type2(
        ChainProblem {
            tree,
            bounds: &prepared.bounds,
            dp,
            attempts,
            seed: cfg.seed,
        },
        cfg,
    );
    let (stats, outcome) = (report.stats, report.outcome);
    let ChainProblem {
        tree, dp, attempts, ..
    } = report.output;
    let best = dp.iter().copied().max().unwrap_or(0);
    scratch.put_any("chain.tree", tree);
    scratch.put_vec("chain.dp", dp);
    scratch.put_vec("chain.attempts", attempts);
    Report::new(best, stats).with_outcome(outcome)
}

/// The Type 2 problem: object `x` is ready once its dominance box holds
/// no unfinished point.
struct ChainProblem<'a, T> {
    tree: T,
    /// Each point's strict prefix bounds, `T::DIM` per point.
    bounds: &'a [u32],
    dp: Vec<u32>,
    attempts: Vec<AtomicU32>,
    seed: u64,
}

impl<T: Dominance> ChainProblem<'_, T> {
    fn probe(&self, x: u32) -> WakeResult<u32> {
        let i = x as usize;
        let q = &self.bounds[i * T::DIM..(i + 1) * T::DIM];
        let info = self.tree.query_prefix(q);
        if info.unfinished == 0 {
            WakeResult::Ready(info.max_dp.map_or(1, |d| d + 1))
        } else {
            let attempt = self.attempts[i].fetch_add(1, Ordering::Relaxed);
            let mut rng = Rng::new(hash64(self.seed, (attempt as u64) << 32 | x as u64));
            let pivot = self
                .tree
                .select_pivot(q, &mut rng)
                .expect("unfinished predecessor exists");
            WakeResult::Blocked { new_pivot: pivot }
        }
    }
}

impl<'a, T: Dominance> Type2Problem for ChainProblem<'a, T> {
    type Info = u32;
    /// The problem itself: the query hands its buffers back to the
    /// workspace.
    type Output = Self;

    fn initial(&self) -> InitialState<'_, u32> {
        // No virtual point here: probe every object once up front;
        // blocked ones hang off their first pivot.
        let probes: Vec<(u32, WakeResult<u32>)> = (0..self.dp.len() as u32)
            .into_par_iter()
            .map(|x| (x, self.probe(x)))
            .collect();
        let mut pairs = Vec::new();
        let mut frontier = Vec::new();
        for (x, r) in probes {
            match r {
                WakeResult::Ready(dp) => frontier.push((x, dp)),
                WakeResult::Blocked { new_pivot } => {
                    // Skip attempt 1 of x's RNG stream, so wake-ups start
                    // at attempt 2 and the pinned pivot sequences replay.
                    self.attempts[x as usize].fetch_add(1, Ordering::Relaxed);
                    pairs.push((new_pivot, x));
                }
            }
        }
        (pairs.into(), frontier)
    }

    fn try_wake(&self, x: u32) -> WakeResult<u32> {
        self.probe(x)
    }

    fn commit(&mut self, ready: &[(u32, u32)]) {
        for &(x, d) in ready {
            self.dp[x as usize] = d;
        }
        self.tree.finish_batch(ready);
    }

    fn finish(self) -> Self {
        self
    }
}

/// Helpers for the per-dimension tests of this module, which run under
/// the registry names `chain3d` and `chain4d` (see the crate root).
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use phase_parallel::PhaseAlgorithm;
    use pp_parlay::rng::Rng as TRng;

    pub(crate) fn random_points<const D: usize>(n: usize, range: u64, seed: u64) -> Vec<[i64; D]> {
        let mut r = TRng::new(seed);
        (0..n)
            .map(|_| std::array::from_fn(|_| r.range(range) as i64))
            .collect()
    }

    /// The longest chain in `pts` has `rank` points by [`chain_seq`] and
    /// by [`Chain`](crate::api::Chain), which takes one round per rank.
    pub(crate) fn assert_rank<const D: usize>(
        pts: &[[i64; D]],
        rank: u32,
        mode: PivotMode,
        seed: u64,
    ) where
        [i64; D]: ChainPoint,
    {
        assert_eq!(chain_seq(pts), rank, "{D}D seq seed={seed}");
        let cfg = RunConfig::seeded(seed).with_pivot_mode(mode);
        let report = crate::api::Chain::<D>.solve_par(pts, &cfg);
        assert_eq!(report.output, rank, "{D}D par/{mode:?} seed={seed}");
        assert_eq!(report.stats.rounds as u32, rank, "{D}D rounds seed={seed}");
    }

    /// Brute force, sweep and both pivot modes agree on random points.
    pub(crate) fn agree_small<const D: usize>(seeds: u64, n: usize, range: u64)
    where
        [i64; D]: ChainPoint,
    {
        for seed in 0..seeds {
            let pts = random_points::<D>(n, range, seed);
            let want = chain_brute(&pts);
            for mode in [PivotMode::Random, PivotMode::RightMost] {
                assert_rank(&pts, want, mode, seed);
            }
        }
    }

    /// Larger instances agree, in exactly one round per rank.
    pub(crate) fn agree_larger<const D: usize>(n: usize, range: u64)
    where
        [i64; D]: ChainPoint,
    {
        let pts = random_points::<D>(n, range, 7);
        assert_rank(&pts, chain_seq(&pts), PivotMode::Random, 8);
    }
}
