//! The Whac-A-Mole problem (Appendix B).
//!
//! Moles pop up at position `p_i` and time `t_i`; the hammer moves one
//! position per time unit and hits mole `i` after mole `j` iff
//! `|p_i - p_j|` is (strictly, per Eq. (5)/(6)) less than `t_i - t_j`'s
//! magnitude in both rotated coordinates:
//!
//! > `t_j + p_j < t_i + p_i` and `t_j - p_j < t_i - p_i`.
//!
//! Rotating to `(u, v) = (t + p, t - p)` turns the DP into *exactly* the
//! LIS problem on the `v`-sequence sorted by `u` — the appendix's point
//! that the pivoting idea transfers wholesale. [`whac_seq`] and
//! [`Whac`](crate::api::Whac) run the LIS solvers on that sequence: the
//! classic sequential DP, and the prefix-minima rounds of
//! [`Lis`](crate::api::Lis). (Note the rotation also subsumes the time
//! order: `u_j < u_i ∧ v_j < v_i` implies `t_j < t_i`, which is why 1D
//! moles need only a 2D query.)
//!
//! **The 2D-grid setting** (appendix closing remark): with moles at 2D
//! positions, the reachability cone `|dx| + |dy| ≤ dt` has *four*
//! rotated halfspace constraints (`t ± (x+y)` and `t ± (x−y)`, using
//! `|dx| + |dy| = max(|d(x+y)|, |d(x−y)|)`), whose coordinates satisfy
//! one linear dependency — one more constraint than pure 3D dominance.
//! [`Whac2d`](crate::api::Whac2d) solves it exactly as a 4D dominance
//! chain ([`Chain<4>`](crate::api::Chain)) on the 4D
//! [`pp_ranges::Layered`] tree, paying the one extra `log` per tree
//! level the appendix describes; [`whac2d_seq`]
//! is the sequential counterpart using the appendix's literal "3D range
//! query" (the fourth constraint handled by processing order).

use crate::chain::{chain_brute, chain_seq};
use crate::lis::lis_seq;

/// One mole: appears at position `p` at time `t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mole {
    /// Appearance time.
    pub t: i64,
    /// Position on the 1D number line.
    pub p: i64,
}

/// Rotate moles to `(u, v)` coordinates and produce the `v`-sequence in
/// `u`-order with ties arranged so that strict LIS = strict dominance
/// chains (equal `u`: descending `v`, so no two tie-mates chain).
pub fn rotated_v_sequence(moles: &[Mole]) -> Vec<i64> {
    let mut uv: Vec<(i64, i64)> = moles.iter().map(|m| (m.t + m.p, m.t - m.p)).collect();
    pp_parlay::par_sort_by(&mut uv, |a, b| {
        (a.0, std::cmp::Reverse(a.1)) < (b.0, std::cmp::Reverse(b.1))
    });
    uv.into_iter().map(|(_, v)| v).collect()
}

/// Maximum number of moles hittable — sequential DP (Eq. (4)).
pub fn whac_seq(moles: &[Mole]) -> u32 {
    lis_seq(&rotated_v_sequence(moles))
}

/// Brute-force quadratic DP straight from Eq. (5)/(6) (tests only):
/// process moles in dominance-topological (`u`-sorted) order.
pub fn whac_brute(moles: &[Mole]) -> u32 {
    let n = moles.len();
    let uv: Vec<(i64, i64)> = moles.iter().map(|m| (m.t + m.p, m.t - m.p)).collect();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by_key(|&i| uv[i]);
    let mut dp = vec![0u32; n];
    let mut best = 0;
    for &i in &idx {
        dp[i] = 1;
        for j in 0..n {
            if uv[j].0 < uv[i].0 && uv[j].1 < uv[i].1 {
                dp[i] = dp[i].max(dp[j] + 1);
            }
        }
        best = best.max(dp[i]);
    }
    best
}

/// One mole on the 2D grid: appears at `(x, y)` at time `t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mole2d {
    /// Appearance time.
    pub t: i64,
    /// Grid x-coordinate.
    pub x: i64,
    /// Grid y-coordinate.
    pub y: i64,
}

/// Rotate a 2D mole into the four halfspace coordinates: mole `j` can
/// precede mole `i` iff all four strictly increase (Eq. (5)/(6) one
/// dimension up: `|dx| + |dy| < dt` in every rotated direction).
pub(crate) fn rotate2d(m: &Mole2d) -> [i64; 4] {
    [
        m.t + m.x + m.y,
        m.t + m.x - m.y,
        m.t - m.x + m.y,
        m.t - m.x - m.y,
    ]
}

/// Maximum number of 2D-grid moles hittable — quadratic oracle straight
/// from the rotated constraints (tests only).
pub fn whac2d_brute(moles: &[Mole2d]) -> u32 {
    let pts: Vec<[i64; 4]> = moles.iter().map(rotate2d).collect();
    chain_brute(&pts)
}

/// Maximum number of 2D-grid moles hittable — sequential
/// `O(n log^3 n)` DP (sort on one rotated coordinate, 3D range queries
/// on the rest: the appendix's "requires a 3D range query").
pub fn whac2d_seq(moles: &[Mole2d]) -> u32 {
    let pts: Vec<[i64; 4]> = moles.iter().map(rotate2d).collect();
    chain_seq(&pts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Whac, Whac2d};
    use crate::{PhaseAlgorithm, PivotMode, RunConfig};
    use pp_parlay::rng::Rng;

    fn par(moles: &[Mole], mode: PivotMode, seed: u64) -> u32 {
        let cfg = RunConfig::seeded(seed).with_pivot_mode(mode);
        Whac.solve_par(moles, &cfg).output
    }

    fn par2d(moles: &[Mole2d], mode: PivotMode, seed: u64) -> u32 {
        let cfg = RunConfig::seeded(seed).with_pivot_mode(mode);
        Whac2d.solve_par(moles, &cfg).output
    }

    #[test]
    fn simple_chain() {
        // Moles along a reachable diagonal: each +2 time, +1 position.
        let moles: Vec<Mole> = (0..10).map(|i| Mole { t: 2 * i, p: i }).collect();
        assert_eq!(whac_seq(&moles), 10);
        assert_eq!(par(&moles, PivotMode::Random, 1), 10);
    }

    #[test]
    fn unreachable_moles() {
        // Same time, different positions: can hit only one.
        let moles = vec![
            Mole { t: 5, p: 0 },
            Mole { t: 5, p: 3 },
            Mole { t: 5, p: -2 },
        ];
        assert_eq!(whac_seq(&moles), 1);
        assert_eq!(par(&moles, PivotMode::RightMost, 0), 1);
    }

    #[test]
    fn random_instances_match_brute() {
        let mut r = Rng::new(6);
        for trial in 0..20 {
            let n = 1 + r.range(150) as usize;
            let moles: Vec<Mole> = (0..n)
                .map(|_| Mole {
                    t: r.range(200) as i64,
                    p: r.range(100) as i64 - 50,
                })
                .collect();
            let want = whac_brute(&moles);
            assert_eq!(whac_seq(&moles), want, "seq trial {trial}");
            assert_eq!(
                par(&moles, PivotMode::Random, trial),
                want,
                "par trial {trial}"
            );
        }
    }

    #[test]
    fn empty() {
        assert_eq!(whac_seq(&[]), 0);
        assert_eq!(par(&[], PivotMode::Random, 0), 0);
        assert_eq!(whac2d_seq(&[]), 0);
        assert_eq!(par2d(&[], PivotMode::Random, 0), 0);
    }

    #[test]
    fn grid_diagonal_chain() {
        // Moles spaced so each is comfortably reachable from the last:
        // +4 time, +1 in each grid direction (L1 distance 2 < 4).
        let moles: Vec<Mole2d> = (0..12)
            .map(|i| Mole2d {
                t: 4 * i,
                x: i,
                y: i,
            })
            .collect();
        assert_eq!(whac2d_brute(&moles), 12);
        assert_eq!(whac2d_seq(&moles), 12);
        assert_eq!(par2d(&moles, PivotMode::Random, 1), 12);
    }

    #[test]
    fn grid_simultaneous_moles() {
        // All at the same time: only one hittable.
        let moles = vec![
            Mole2d { t: 3, x: 0, y: 0 },
            Mole2d { t: 3, x: 5, y: 1 },
            Mole2d { t: 3, x: -2, y: 4 },
        ];
        assert_eq!(whac2d_brute(&moles), 1);
        assert_eq!(whac2d_seq(&moles), 1);
        assert_eq!(par2d(&moles, PivotMode::RightMost, 0), 1);
    }

    #[test]
    fn grid_l1_boundary_is_exclusive() {
        // Exactly |dx|+|dy| = dt: the rotated constraints are strict, so
        // the pair does not chain (matching the 1D Eq. (5)/(6) reading).
        let moles = vec![Mole2d { t: 0, x: 0, y: 0 }, Mole2d { t: 3, x: 2, y: 1 }];
        assert_eq!(whac2d_brute(&moles), 1);
        assert_eq!(whac2d_seq(&moles), 1);
        // And one unit of slack chains them.
        let moles = vec![Mole2d { t: 0, x: 0, y: 0 }, Mole2d { t: 4, x: 2, y: 1 }];
        assert_eq!(whac2d_brute(&moles), 2);
        assert_eq!(whac2d_seq(&moles), 2);
        assert_eq!(par2d(&moles, PivotMode::Random, 2), 2);
    }

    #[test]
    fn grid_random_instances_match_brute() {
        let mut r = Rng::new(11);
        for trial in 0..15 {
            let n = 1 + r.range(120) as usize;
            let moles: Vec<Mole2d> = (0..n)
                .map(|_| Mole2d {
                    t: r.range(150) as i64,
                    x: r.range(40) as i64 - 20,
                    y: r.range(40) as i64 - 20,
                })
                .collect();
            let want = whac2d_brute(&moles);
            assert_eq!(whac2d_seq(&moles), want, "seq trial {trial}");
            assert_eq!(
                par2d(&moles, PivotMode::Random, trial),
                want,
                "par trial {trial}"
            );
        }
    }

    #[test]
    fn grid_degenerates_to_line_when_y_fixed() {
        // Moles with y = 0 behave exactly like 1D moles... for the 4
        // rotated constraints, b = c = t + x − 0 etc. Check against the
        // 1D solver on the same (t, p=x) data.
        let mut r = Rng::new(23);
        for trial in 0..10 {
            let n = 1 + r.range(100) as usize;
            let line: Vec<Mole> = (0..n)
                .map(|_| Mole {
                    t: r.range(120) as i64,
                    p: r.range(60) as i64 - 30,
                })
                .collect();
            let grid: Vec<Mole2d> = line
                .iter()
                .map(|m| Mole2d {
                    t: m.t,
                    x: m.p,
                    y: 0,
                })
                .collect();
            assert_eq!(whac2d_seq(&grid), whac_seq(&line), "trial {trial}");
        }
    }
}
