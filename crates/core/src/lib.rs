//! # `phase-parallel` — the phase-parallel framework (SPAA 2022)
//!
//! This crate implements the framework of Shen, Wan, Gu & Sun, *Many
//! Sequential Iterative Algorithms Can Be Parallel and (Nearly)
//! Work-efficient*: a recipe for parallelizing sequential iterative
//! algorithms by assigning each object a **rank** — the size of its
//! maximum feasible set, equivalently its depth in the dependence graph
//! (Theorem 3.4) — and processing all objects of rank `i` together in
//! round `i` (Algorithm 1).
//!
//! Two engine styles achieve work-efficiency on top of round-efficiency:
//!
//! * **Type 1** ([`type1`]): each round's frontier is *extracted* with a
//!   range query in polylogarithmic work (§4) — activity selection,
//!   unlimited knapsack, Dijkstra (relaxed rank), Huffman trees.
//! * **Type 2** ([`type2`]): objects are *woken up* when a chosen pivot
//!   (an object they depend on) finishes; a failed wake-up re-pivots
//!   (§5) — activity selection, LIS, and — with the [`tas_tree`]
//!   structure instead of pivots — greedy MIS, coloring and matching.
//!
//! The [`rank`] module holds the independence-system vocabulary
//! (Definition 3.1) with a checkable specification used by the
//! conformance tests; [`stats`] carries the execution counters the
//! paper's experiments report (rounds, frontier sizes, wake-up
//! attempts, and named per-algorithm counters); [`solver`] is the
//! unified calling convention every algorithm family exposes:
//! [`RunConfig`] in, [`Report`] out, via the [`PhaseAlgorithm`] trait.
//!
//! ```
//! use phase_parallel::TasTree;
//!
//! // Fig. 4(b): vertex 14 waits for blocking neighbors \[7, 11, 12, 13\].
//! let t = TasTree::new(4);
//! assert!(!t.mark(0)); // 7 removed — tree not complete
//! assert!(!t.mark(3)); // 13 removed
//! assert!(!t.mark(2)); // 12 removed
//! assert!(t.mark(1));  // 11 removed — last blocker: wake vertex 14
//! ```

#![forbid(unsafe_code)]

pub mod cancel;
pub mod frontier;
pub mod rank;
pub mod reservations;
pub mod scratch;
pub mod solver;
pub mod stats;
pub mod tas_tree;
pub mod type1;
pub mod type2;

pub use cancel::{CancelToken, RunOutcome};
pub use frontier::{Frontier, FrontierPolicy};
pub use rank::{IndependenceSystem, RankFn};
pub use reservations::{speculative_for, ReservationProblem, ReservationTable};
pub use scratch::{Scratch, ScratchLease};
pub use solver::{PhaseAlgorithm, PivotMode, PrioritySource, Report, RunConfig};
pub use stats::ExecutionStats;
pub use tas_tree::{TasForest, TasTree};
pub use type1::{run_type1, Type1Problem};
pub use type2::{run_type2, InitialState, Type2Problem, WakeResult};
