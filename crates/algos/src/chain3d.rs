//! Longest chain under 3D dominance — the Appendix B extension
//! exercised end-to-end.
//!
//! Appendix B closes with: "When extending the setting to 2D grid ...
//! the problem requires a 3D range query, which adds up an extra
//! `O(log n)` factor to both work and span." This module runs the
//! phase-parallel Type 2 machinery one dimension up from LIS: given 3D
//! points, find the longest chain `p_1 ≺ p_2 ≺ …` under strict
//! coordinate-wise dominance (`a`, `b` and `c` all strictly increase).
//! LIS is the 2D special case (index, value); the 2D-grid Whac-A-Mole
//! region is this plus one more halfspace (its four rotated constraints
//! have one linear dependency — see `whac.rs` docs), so the 3D chain is
//! the exact shape of the range-query extension the appendix describes.
//!
//! `O(n log^4 n)` work and `O(k log^3 n)` span via
//! [`pp_ranges::RangeTree3d`] — one `log` above Algorithm 3 in each
//! bound, matching the appendix's claim.

use phase_parallel::{run_type2, PivotMode, Report, RunConfig, Type2Problem, WakeResult};
use pp_parlay::rng::{hash64, Rng};
use pp_ranges::RangeTree3d;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// A 3D point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Point3 {
    /// First coordinate.
    pub a: i64,
    /// Second coordinate.
    pub b: i64,
    /// Third coordinate.
    pub c: i64,
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
pub fn chain3d_brute(pts: &[Point3]) -> u32 {
    let n = pts.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| (pts[i].a, pts[i].b, pts[i].c));
    let mut dp = vec![0u32; n];
    let mut best = 0;
    for &i in &idx {
        dp[i] = 1;
        for j in 0..n {
            if pts[j].a < pts[i].a && pts[j].b < pts[i].b && pts[j].c < pts[i].c {
                dp[i] = dp[i].max(dp[j] + 1);
            }
        }
        best = best.max(dp[i]);
    }
    best
}

/// Longest strict-dominance chain, sequential `O(n log^2 n)`: process in
/// `a`-order, querying a 2D max structure over `(b, c)` — the natural
/// generalization of the classic LIS DP.
pub fn chain3d_seq(pts: &[Point3]) -> u32 {
    let n = pts.len();
    if n == 0 {
        return 0;
    }
    let (b_slot, b_bound) = slots(|i| pts[i].b, n);
    let (_, c_bound) = slots(|i| pts[i].c, n);
    let (c_slot, _) = slots(|i| pts[i].c, n);
    // 2D tree over (b-slot as x, c-slot as y): finishing in a-order makes
    // `max_dp` range over exactly the already-processed points.
    let y_of_x: Vec<u32> = {
        let mut y = vec![0u32; n];
        for i in 0..n {
            y[b_slot[i] as usize] = c_slot[i];
        }
        y
    };
    let mut tree = pp_ranges::RangeTree2d::new(&y_of_x, PivotMode::RightMost);
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
                let info = tree.query_prefix(b_bound[i as usize], c_bound[i as usize]);
                let dp = info.max_dp.map_or(1, |d| d + 1);
                (b_slot[i as usize], dp)
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

/// Phase-parallel longest 3D dominance chain (Type 2 over a 3D range
/// tree). The report's `stats.rounds` equals the chain length
/// (round-efficiency, one rank per round).
pub fn chain3d_par(pts: &[Point3], cfg: &RunConfig) -> Report<u32> {
    let (mode, seed) = (cfg.pivot_mode, cfg.seed);
    let n = pts.len();
    if n == 0 {
        return Report::plain(0);
    }
    let (a_slot, a_bound) = slots(|i| pts[i].a, n);
    let (b_slot, b_bound) = slots(|i| pts[i].b, n);
    let (c_slot, c_bound) = slots(|i| pts[i].c, n);
    let tree = RangeTree3d::new(&a_slot, &b_slot, &c_slot, mode);

    struct Problem {
        tree: RangeTree3d,
        qa: Vec<u32>,
        qb: Vec<u32>,
        qc: Vec<u32>,
        dp: Vec<u32>,
        attempts: Vec<AtomicU32>,
        seed: u64,
        n: usize,
    }

    impl Problem {
        fn probe(&self, x: u32) -> WakeResult<u32> {
            let (qa, qb, qc) = (
                self.qa[x as usize],
                self.qb[x as usize],
                self.qc[x as usize],
            );
            let info = self.tree.query_prefix(qa, qb, qc);
            if info.unfinished == 0 {
                WakeResult::Ready(info.max_dp.map_or(1, |d| d + 1))
            } else {
                let attempt = self.attempts[x as usize].fetch_add(1, Ordering::Relaxed);
                let mut rng = Rng::new(hash64(self.seed, (attempt as u64) << 32 | x as u64));
                let pivot = self
                    .tree
                    .select_pivot(qa, qb, qc, &mut rng)
                    .expect("unfinished predecessor exists");
                WakeResult::Blocked { new_pivot: pivot }
            }
        }
    }

    impl Type2Problem for Problem {
        type Info = u32;
        type Output = (Vec<u32>, u32);

        fn initial_pivots(&self) -> Vec<(u32, u32)> {
            // No virtual point here: probe every object once up front;
            // blocked ones hang off their first pivot.
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

    fn random_points(n: usize, range: u64, seed: u64) -> Vec<Point3> {
        let mut r = TRng::new(seed);
        (0..n)
            .map(|_| Point3 {
                a: r.range(range) as i64,
                b: r.range(range) as i64,
                c: r.range(range) as i64,
            })
            .collect()
    }

    #[test]
    fn all_agree_small() {
        for seed in 0..15 {
            let pts = random_points(80, 30, seed);
            let want = chain3d_brute(&pts);
            assert_eq!(chain3d_seq(&pts), want, "seq seed={seed}");
            assert_eq!(
                chain3d_par(&pts, &cfg(PivotMode::Random, seed)).output,
                want,
                "par/random seed={seed}"
            );
            assert_eq!(
                chain3d_par(&pts, &cfg(PivotMode::RightMost, seed)).output,
                want,
                "par/rightmost seed={seed}"
            );
        }
    }

    #[test]
    fn agree_larger() {
        let pts = random_points(3000, 1000, 7);
        let want = chain3d_seq(&pts);
        let report = chain3d_par(&pts, &cfg(PivotMode::Random, 8));
        let (got, stats) = (report.output, &report.stats);
        assert_eq!(got, want);
        // Round-efficiency: exactly one round per rank.
        assert_eq!(stats.rounds as u32, want);
    }

    #[test]
    fn fully_dominating_chain() {
        let pts: Vec<Point3> = (0..200)
            .map(|i| Point3 {
                a: i,
                b: 2 * i,
                c: 3 * i,
            })
            .collect();
        assert_eq!(chain3d_seq(&pts), 200);
        let report = chain3d_par(&pts, &cfg(PivotMode::RightMost, 1));
        let (got, stats) = (report.output, &report.stats);
        assert_eq!(got, 200);
        assert_eq!(stats.rounds, 200);
    }

    #[test]
    fn antichain_is_one_round() {
        // All points share a coordinate: no dominations.
        let pts: Vec<Point3> = (0..100).map(|i| Point3 { a: 5, b: i, c: -i }).collect();
        assert_eq!(chain3d_seq(&pts), 1);
        let report = chain3d_par(&pts, &cfg(PivotMode::Random, 2));
        let (got, stats) = (report.output, &report.stats);
        assert_eq!(got, 1);
        assert_eq!(stats.rounds, 1);
    }

    #[test]
    fn duplicate_points_do_not_chain() {
        let pts = vec![
            Point3 { a: 1, b: 1, c: 1 },
            Point3 { a: 1, b: 1, c: 1 },
            Point3 { a: 2, b: 2, c: 2 },
        ];
        assert_eq!(chain3d_brute(&pts), 2);
        assert_eq!(chain3d_seq(&pts), 2);
        assert_eq!(chain3d_par(&pts, &cfg(PivotMode::Random, 3)).output, 2);
    }

    #[test]
    fn lis_as_degenerate_3d() {
        // LIS embeds as (index, value, value).
        let mut r = TRng::new(4);
        let vals: Vec<i64> = (0..500).map(|_| r.range(200) as i64).collect();
        let pts: Vec<Point3> = vals
            .iter()
            .enumerate()
            .map(|(i, &v)| Point3 {
                a: i as i64,
                b: v,
                c: v,
            })
            .collect();
        assert_eq!(chain3d_seq(&pts), crate::lis::lis_seq(&vals));
        assert_eq!(
            chain3d_par(&pts, &cfg(PivotMode::Random, 5)).output,
            crate::lis::lis_seq(&vals)
        );
    }

    #[test]
    fn empty() {
        assert_eq!(chain3d_seq(&[]), 0);
        assert_eq!(chain3d_par(&[], &cfg(PivotMode::Random, 0)).output, 0);
    }
}
