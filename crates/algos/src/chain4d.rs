//! Longest chain under 4D dominance — the 2D-grid Whac-A-Mole substrate.
//!
//! The 2D-grid mole cone `|dx| + |dy| ≤ dt` rotates into **four**
//! halfspace constraints (see `whac.rs`), so the grid game is a longest
//! chain under coordinate-wise dominance in four (linearly dependent)
//! coordinates. This module runs the phase-parallel Type 2 machinery one
//! more dimension up from [`crate::chain3d`], on
//! [`pp_ranges::RangeTree4d`]: `O(n log^5 n)` work and `O(k log^4 n)`
//! span for chain length `k` — each extra dimension costs the one extra
//! `log` the appendix describes.
//!
//! The module is generic over points, so it also serves as the stress
//! test for the 4D tree; [`crate::whac::whac2d_par`] maps moles onto it.

use crate::chain3d::slots;
use phase_parallel::{run_type2, PivotMode, Report, RunConfig, Type2Problem, WakeResult};
use pp_parlay::rng::{hash64, Rng};
use pp_ranges::{RangeTree3d, RangeTree4d};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// A 4D point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Point4 {
    /// First coordinate.
    pub a: i64,
    /// Second coordinate.
    pub b: i64,
    /// Third coordinate.
    pub c: i64,
    /// Fourth coordinate.
    pub d: i64,
}

/// Longest strict-dominance chain, quadratic oracle (tests only).
pub fn chain4d_brute(pts: &[Point4]) -> u32 {
    let n = pts.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| (pts[i].a, pts[i].b, pts[i].c, pts[i].d));
    let mut dp = vec![0u32; n];
    let mut best = 0;
    for &i in &idx {
        dp[i] = 1;
        for j in 0..n {
            if pts[j].a < pts[i].a
                && pts[j].b < pts[i].b
                && pts[j].c < pts[i].c
                && pts[j].d < pts[i].d
            {
                dp[i] = dp[i].max(dp[j] + 1);
            }
        }
        best = best.max(dp[i]);
    }
    best
}

/// Longest strict-dominance chain, sequential `O(n log^3 n)`: process in
/// `a`-order, querying a 3D max structure over `(b, c, d)` — the
/// appendix's "3D range query" reading, with the processing order
/// standing in for the fourth constraint.
pub fn chain4d_seq(pts: &[Point4]) -> u32 {
    let n = pts.len();
    if n == 0 {
        return 0;
    }
    let (b_slot, b_bound) = slots(|i| pts[i].b, n);
    let (c_slot, c_bound) = slots(|i| pts[i].c, n);
    let (d_slot, d_bound) = slots(|i| pts[i].d, n);
    let mut tree = RangeTree3d::new(&b_slot, &c_slot, &d_slot, PivotMode::RightMost);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&i| (pts[i as usize].a, i));
    let mut best = 0;
    let mut i0 = 0;
    while i0 < n {
        // Points with equal `a` are mutually incomparable: process the
        // whole tie-group against the pre-group state.
        let mut i1 = i0;
        while i1 < n && pts[order[i1] as usize].a == pts[order[i0] as usize].a {
            i1 += 1;
        }
        let batch: Vec<(u32, u32)> = order[i0..i1]
            .iter()
            .map(|&i| {
                let info = tree.query_prefix(
                    b_bound[i as usize],
                    c_bound[i as usize],
                    d_bound[i as usize],
                );
                let dp = info.max_dp.map_or(1, |d| d + 1);
                (i, dp)
            })
            .collect();
        for &(_, dp) in &batch {
            best = best.max(dp);
        }
        tree.finish_batch(&batch);
        i0 = i1;
    }
    best
}

/// Phase-parallel longest 4D dominance chain (Type 2 over a 4D range
/// tree). The report's `stats.rounds` equals the chain length
/// (round-efficiency, one rank per round).
pub fn chain4d_par(pts: &[Point4], cfg: &RunConfig) -> Report<u32> {
    let (mode, seed) = (cfg.pivot_mode, cfg.seed);
    let n = pts.len();
    if n == 0 {
        return Report::plain(0);
    }
    let (a_slot, a_bound) = slots(|i| pts[i].a, n);
    let (b_slot, b_bound) = slots(|i| pts[i].b, n);
    let (c_slot, c_bound) = slots(|i| pts[i].c, n);
    let (d_slot, d_bound) = slots(|i| pts[i].d, n);
    let tree = RangeTree4d::new(&a_slot, &b_slot, &c_slot, &d_slot, mode);

    struct Problem {
        tree: RangeTree4d,
        qa: Vec<u32>,
        qb: Vec<u32>,
        qc: Vec<u32>,
        qd: Vec<u32>,
        dp: Vec<u32>,
        attempts: Vec<AtomicU32>,
        seed: u64,
        n: usize,
    }

    impl Problem {
        fn probe(&self, x: u32) -> WakeResult<u32> {
            let i = x as usize;
            let (qa, qb, qc, qd) = (self.qa[i], self.qb[i], self.qc[i], self.qd[i]);
            let info = self.tree.query_prefix(qa, qb, qc, qd);
            if info.unfinished == 0 {
                WakeResult::Ready(info.max_dp.map_or(1, |d| d + 1))
            } else {
                let attempt = self.attempts[i].fetch_add(1, Ordering::Relaxed);
                let mut rng = Rng::new(hash64(self.seed, (attempt as u64) << 32 | x as u64));
                let pivot = self
                    .tree
                    .select_pivot(qa, qb, qc, qd, &mut rng)
                    .expect("unfinished predecessor exists");
                WakeResult::Blocked { new_pivot: pivot }
            }
        }
    }

    impl Type2Problem for Problem {
        type Info = u32;
        type Output = (Vec<u32>, u32);

        fn initial_pivots(&self) -> Vec<(u32, u32)> {
            (0..self.n as u32)
                .into_par_iter()
                .filter_map(|x| match self.probe(x) {
                    WakeResult::Ready(_) => None,
                    WakeResult::Blocked { new_pivot } => Some((new_pivot, x)),
                })
                .collect()
        }

        fn initial_frontier(&self) -> Vec<(u32, u32)> {
            (0..self.n as u32)
                .into_par_iter()
                .filter_map(|x| match self.probe(x) {
                    WakeResult::Ready(dp) => Some((x, dp)),
                    WakeResult::Blocked { .. } => None,
                })
                .collect()
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

        fn finish(self) -> (Vec<u32>, u32) {
            let best = self.dp.iter().copied().max().unwrap_or(0);
            (self.dp, best)
        }
    }

    run_type2(
        Problem {
            tree,
            qa: a_bound,
            qb: b_bound,
            qc: c_bound,
            qd: d_bound,
            dp: vec![0; n],
            attempts: (0..n).map(|_| AtomicU32::new(0)).collect(),
            seed,
            n,
        },
        cfg,
    )
    .map(|(_, best)| best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_parlay::rng::Rng as TRng;

    fn cfg(mode: PivotMode, seed: u64) -> RunConfig {
        RunConfig::seeded(seed).with_pivot_mode(mode)
    }

    fn random_points(n: usize, range: u64, seed: u64) -> Vec<Point4> {
        let mut r = TRng::new(seed);
        (0..n)
            .map(|_| Point4 {
                a: r.range(range) as i64,
                b: r.range(range) as i64,
                c: r.range(range) as i64,
                d: r.range(range) as i64,
            })
            .collect()
    }

    #[test]
    fn all_agree_small() {
        for seed in 0..12 {
            let pts = random_points(70, 25, seed);
            let want = chain4d_brute(&pts);
            assert_eq!(chain4d_seq(&pts), want, "seq seed={seed}");
            assert_eq!(
                chain4d_par(&pts, &cfg(PivotMode::Random, seed)).output,
                want,
                "par/random seed={seed}"
            );
            assert_eq!(
                chain4d_par(&pts, &cfg(PivotMode::RightMost, seed)).output,
                want,
                "par/rightmost seed={seed}"
            );
        }
    }

    #[test]
    fn agree_larger_and_round_efficient() {
        let pts = random_points(1500, 400, 7);
        let want = chain4d_seq(&pts);
        let report = chain4d_par(&pts, &cfg(PivotMode::Random, 8));
        let (got, stats) = (report.output, &report.stats);
        assert_eq!(got, want);
        assert_eq!(stats.rounds as u32, want);
    }

    #[test]
    fn fully_dominating_chain() {
        let pts: Vec<Point4> = (0..150)
            .map(|i| Point4 {
                a: i,
                b: 2 * i,
                c: 3 * i,
                d: -100 + i,
            })
            .collect();
        assert_eq!(chain4d_seq(&pts), 150);
        assert_eq!(chain4d_par(&pts, &cfg(PivotMode::RightMost, 1)).output, 150);
    }

    #[test]
    fn antichain_on_one_coordinate() {
        let pts: Vec<Point4> = (0..80)
            .map(|i| Point4 {
                a: i,
                b: i,
                c: i,
                d: 9, // shared: nothing dominates
            })
            .collect();
        assert_eq!(chain4d_seq(&pts), 1);
        let report = chain4d_par(&pts, &cfg(PivotMode::Random, 2));
        let (got, stats) = (report.output, &report.stats);
        assert_eq!(got, 1);
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn chain3d_embeds() {
        // (a, b, c) chains embed as (a, b, c, a).
        let mut r = TRng::new(4);
        let pts3: Vec<crate::chain3d::Point3> = (0..400)
            .map(|_| crate::chain3d::Point3 {
                a: r.range(100) as i64,
                b: r.range(100) as i64,
                c: r.range(100) as i64,
            })
            .collect();
        let pts4: Vec<Point4> = pts3
            .iter()
            .map(|p| Point4 {
                a: p.a,
                b: p.b,
                c: p.c,
                d: p.a,
            })
            .collect();
        assert_eq!(chain4d_seq(&pts4), crate::chain3d::chain3d_seq(&pts3));
        assert_eq!(
            chain4d_par(&pts4, &cfg(PivotMode::Random, 5)).output,
            crate::chain3d::chain3d_seq(&pts3)
        );
    }

    #[test]
    fn empty() {
        assert_eq!(chain4d_seq(&[]), 0);
        assert_eq!(chain4d_par(&[], &cfg(PivotMode::Random, 0)).output, 0);
    }
}
