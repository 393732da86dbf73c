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
//! | [`lis`] | longest increasing subsequence | §5.2, §6.4 | 2 |
//! | [`mis`] | greedy maximal independent set via TAS trees | §5.3 | 2 |
//! | [`coloring`] | greedy (Jones–Plassmann) coloring via TAS trees | §5.3 | 2 |
//! | [`matching`] | greedy maximal matching | §5.3 | 2 |
//! | [`whac`] | Whac-A-Mole DP | Appendix B | 2 |
//! | [`chain3d`] | longest 3D-dominance chain (the appendix's 3D range-query extension) | Appendix B | 2 |
//! | [`random_perm`] | random permutation (Knuth shuffle) via deterministic reservations | §5.3, baseline \[10, 64\] | — |
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
//! side by side behind one `Arc` without any `unsafe`.
//!
//! ```
//! use pp_algos::lis::{lis_par, lis_seq, lis_weighted_par};
//! use pp_algos::RunConfig;
//!
//! // Fig. 1's example sequence: the LIS (e.g. 4 7 8) has length 3.
//! let s: Vec<i64> = vec![4, 7, 3, 2, 8, 1, 6, 5];
//! let report = lis_par(&s, &RunConfig::seeded(42));
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
//! assert!(registry::run_named("lis", &case, &RunConfig::seeded(7)).unwrap().agrees());
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod activity;
pub mod api;
pub mod chain3d;
pub mod chain4d;
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
    ExecutionStats, PhaseAlgorithm, PivotMode, PrioritySource, Report, RunConfig, Solver,
};
