//! # `pp-algos` — the paper's algorithm suite
//!
//! Every algorithm from *Many Sequential Iterative Algorithms Can Be
//! Parallel and (Nearly) Work-efficient* (SPAA 2022), each with its
//! sequential baseline:
//!
//! | Module | Problem | Paper | Type |
//! |---|---|---|---|
//! | [`activity`] | weighted & unweighted activity selection | §4.1, §5.1 | 1 & 2 |
//! | [`knapsack`] | unlimited knapsack | §4.2 | 1 |
//! | [`huffman`] | Huffman tree construction | §4.3, §6.2 | 1 (relaxed rank) |
//! | [`sssp`] | SSSP: Dijkstra, Bellman-Ford, Δ-stepping (Δ = w*) | §4.3, §6.3 | 1 (relaxed rank) |
//! | [`lis`] | longest increasing subsequence (prefix-minima rounds); weighted LIS in k rounds; Algorithm 3 (the Table 2 wake-up instrument) | §5.2, §6.4 | 1; Algorithm 3: 2 |
//! | [`mis`] | greedy maximal independent set via TAS trees | §5.3 | 2 |
//! | [`coloring`] | greedy (Jones–Plassmann) coloring via TAS trees | §5.3 | 2 |
//! | [`matching`] | greedy maximal matching | §5.3 | 2 |
//! | [`whac`] | Whac-A-Mole DP on a line (as LIS); on a 2D grid (as a 4D chain) | Appendix B | 1; 2D grid 2 |
//! | [`chain`] | longest dominance chain over `[i64; D]` points, d = 3, 4 (the appendix's range-query extension) | Appendix B | 2 |
//! | [`random_perm`] | random permutation (Knuth shuffle) by wake-ups over its dependence forest | §5.3, \[64\] | 2 |
//!
//! All parallel implementations are deterministic given their seeds and
//! agree exactly with their sequential counterparts (greedy algorithms
//! produce the *same* greedy solution, DP algorithms the same values) —
//! enforced by the test suites in each module and in `tests/`.
//!
//! # The unified API
//!
//! Every family speaks the same calling convention
//! ([`phase_parallel::solver`]): a [`RunConfig`] of knobs in, a
//! [`Report`] (output + unified [`ExecutionStats`]) out — and, for
//! repeated traffic, the prepare/query split: `prepare` derives the
//! family's amortizable instance structure (the SSSP family's w* and
//! minimum out-weights, the graph families' CSR mirrors, TAS-tree leaf
//! counts and edge lists) once, as owned data that never borrows the
//! input, and `solve_prepared` answers each query from the input plus
//! that structure, with buffers recycled through a
//! [`phase_parallel::Scratch`] workspace. Because nothing borrows,
//! [`serving::SharedPrepared`] keeps an input and its prepared instance
//! side by side behind one `Arc` without any `unsafe`. Each family's
//! [`api`] impl is its one public parallel entry. Twelve families
//! prepare something (SSSP, MIS, coloring, matching, `lis/weighted`,
//! `activity/type1`, `activity/type2`, `huffman`, `chain3d`, `chain4d`,
//! `whac/2d` and `random-perm`); for them `solve_par` is `prepare` plus
//! one `solve_prepared` query.
//!
//! ```
//! use pp_algos::lis::{lis_seq, lis_weighted_par};
//! use pp_algos::{api::Lis, PhaseAlgorithm, RunConfig};
//!
//! // Fig. 1's example sequence: the LIS (e.g. 4 7 8) has length 3.
//! let s: Vec<i64> = vec![4, 7, 3, 2, 8, 1, 6, 5];
//! let report = Lis.solve_par(&s, &RunConfig::seeded(42));
//! assert_eq!(report.output, 3);
//! assert_eq!(report.output, lis_seq(&s));
//! // Round-efficiency: one round per rank.
//! assert_eq!(report.stats.rounds, 3);
//! // Algorithm 3 (unit weights) runs one virtual round plus one per rank.
//! let report = lis_weighted_par(&s, &[1; 8], &RunConfig::seeded(42));
//! assert_eq!(report.output.0, 3);
//! assert_eq!(report.stats.rounds, 4);
//! ```
//!
//! The [`registry`] exposes every family behind a single string key for
//! generic dispatch (benches, CLIs, conformance suites), and [`api`]
//! defines the typed [`PhaseAlgorithm`] implementations behind it.
//! Registry cases optionally draw their instances from the string-keyed
//! workload scenarios of `pp-workloads` (power-law graphs, grids,
//! meshes, hub skew, sorted / adversarial-chain / zipf sequences):
//!
//! ```
//! use phase_parallel::RunConfig;
//! use pp_algos::registry::{self, CaseSpec};
//!
//! let entry = registry::lookup("lis").expect("registered");
//! let outcome = entry.run_case(&CaseSpec::new(500, 7), &RunConfig::seeded(7)).unwrap();
//! assert_eq!(outcome.expected_digest, outcome.observed_digest); // sequential-equivalent
//!
//! // The same entry on an adversarial workload, fully string-keyed:
//! let case = CaseSpec::new(500, 7).with_scenario_key("seq/adversarial-chain").unwrap();
//! assert!(entry.run_case(&case, &RunConfig::seeded(7)).unwrap().agrees());
//! ```

#![forbid(unsafe_code)]

pub mod activity;
pub mod api;
pub mod chain;
pub mod coloring;
pub mod coloring_orders;
pub mod huffman;
pub mod knapsack;
pub mod lis;
pub mod matching;
pub mod mis;
pub mod random_perm;
pub mod registry;
pub mod serving;
pub mod sssp;
pub mod whac;

pub use phase_parallel::{
    ExecutionStats, PhaseAlgorithm, PivotMode, PrioritySource, Report, RunConfig,
};

/// Tests of [`chain`] at `D = 3`, under the registry name it backs.
#[cfg(test)]
mod chain3d {
    mod tests {
        use crate::chain::chain_brute;
        use crate::chain::testing as t;
        use phase_parallel::PivotMode::{Random, RightMost};
        use pp_parlay::rng::Rng;

        #[test]
        fn all_agree_small() {
            t::agree_small::<3>(15, 80, 30);
        }

        #[test]
        fn agree_larger() {
            t::agree_larger::<3>(3000, 1000);
        }

        #[test]
        fn fully_dominating_chain() {
            let pts: Vec<[i64; 3]> = (0..200).map(|i| [i, 2 * i, 3 * i]).collect();
            t::assert_rank(&pts, 200, RightMost, 1);
        }

        #[test]
        fn antichain_is_one_round() {
            // All points share a coordinate: no dominations.
            let pts: Vec<[i64; 3]> = (0..100).map(|i| [5, i, -i]).collect();
            t::assert_rank(&pts, 1, Random, 2);
        }

        #[test]
        fn duplicate_points_do_not_chain() {
            let pts = [[1, 1, 1], [1, 1, 1], [2, 2, 2]];
            assert_eq!(chain_brute(&pts), 2);
            t::assert_rank(&pts, 2, Random, 3);
        }

        #[test]
        fn lis_as_degenerate_3d() {
            // LIS embeds as (index, value, value).
            let mut r = Rng::new(4);
            let vals: Vec<i64> = (0..500).map(|_| r.range(200) as i64).collect();
            let pts: Vec<[i64; 3]> = (0..).zip(&vals).map(|(i, &v)| [i, v, v]).collect();
            t::assert_rank(&pts, crate::lis::lis_seq(&vals), Random, 5);
        }

        #[test]
        fn empty() {
            t::assert_rank::<3>(&[], 0, Random, 0);
        }
    }
}

/// Tests of [`chain`] at `D = 4`, under the registry name it backs.
#[cfg(test)]
mod chain4d {
    mod tests {
        use crate::chain::chain_seq;
        use crate::chain::testing as t;
        use phase_parallel::PivotMode::{Random, RightMost};

        #[test]
        fn all_agree_small() {
            t::agree_small::<4>(12, 70, 25);
        }

        #[test]
        fn agree_larger_and_round_efficient() {
            t::agree_larger::<4>(1500, 400);
        }

        #[test]
        fn fully_dominating_chain() {
            let pts: Vec<[i64; 4]> = (0..150).map(|i| [i, 2 * i, 3 * i, -100 + i]).collect();
            t::assert_rank(&pts, 150, RightMost, 1);
        }

        #[test]
        fn antichain_on_one_coordinate() {
            // The last coordinate is shared: nothing dominates.
            let pts: Vec<[i64; 4]> = (0..80).map(|i| [i, i, i, 9]).collect();
            t::assert_rank(&pts, 1, Random, 2);
        }

        #[test]
        fn chain3d_embeds() {
            // (a, b, c) chains embed as (a, b, c, a).
            let pts3 = t::random_points::<3>(400, 100, 4);
            let pts4: Vec<[i64; 4]> = pts3.iter().map(|&[a, b, c]| [a, b, c, a]).collect();
            t::assert_rank(&pts4, chain_seq(&pts3), Random, 5);
        }

        #[test]
        fn empty() {
            t::assert_rank::<4>(&[], 0, Random, 0);
        }
    }
}
