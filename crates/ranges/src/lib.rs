//! # `pp-ranges` — flat array-backed augmented range structures
//!
//! Section 6.4 of the paper notes: *"we use nested arrays to represent
//! augmented range trees to improve locality"*. This crate is that layer:
//! cache-friendly, array-backed counterparts of the pointer-based PA-BSTs
//! in `pp-pam`, specialized for the static-key-set workloads of the
//! phase-parallel algorithms (the key set is known up front; only values
//! change between rounds).
//!
//! * [`segtree`] — a generic monoid segment tree with parallel batch
//!   construction and parallel batch point updates; a min tree also
//!   reports its prefix minima in one pruned traversal (the LIS rounds).
//! * [`fenwick`] — Fenwick (binary indexed) trees: prefix sums, prefix
//!   max, and an atomic prefix-max variant that admits concurrent
//!   `fetch_max` updates from a parallel frontier.
//! * [`sparse`] — a sparse table for `O(1)` static idempotent range
//!   queries (range min / max).
//! * [`range2d`] — the augmented 2D range tree of Algorithm 3: prefix
//!   rectangle queries returning (#unfinished, max DP value), pivot
//!   selection among unfinished points (uniformly random by weighted
//!   descent, or the right-most heuristic of §6.4), and parallel batch
//!   "finish" updates. Work `O(log^2 n)` per operation, batch updates with
//!   `O(log^2 n)` span — matching Theorem 2.1 for k = 2.

#![forbid(unsafe_code)]

pub mod fenwick;
pub mod range2d;
pub mod range3d;
pub mod range4d;
pub mod segtree;
pub mod sparse;

pub use fenwick::{AtomicFenwickMax, Fenwick, FenwickMax};
pub use range2d::{PivotMode, PrefixInfo, RangeTree2d};
pub use range3d::RangeTree3d;
pub use range4d::RangeTree4d;
pub use segtree::SegTree;
pub use sparse::SparseTable;
