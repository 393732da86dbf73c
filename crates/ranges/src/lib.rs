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
//! * [`fenwick`] — prefix-max Fenwick (binary indexed) trees, and an
//!   atomic variant that admits concurrent `fetch_max` updates from a
//!   parallel frontier.
//! * [`range2d`] — the augmented 2D range tree of Algorithm 3: prefix
//!   rectangle queries returning (#unfinished, max DP value), pivot
//!   selection among unfinished points (uniformly random by weighted
//!   descent, or the right-most heuristic of §6.4), and parallel batch
//!   "finish" updates. Work `O(log^2 n)` per operation, batch updates with
//!   `O(log^2 n)` span — matching Theorem 2.1 for k = 2.
//! * [`layered`] — dominance range trees in any dimension: the
//!   [`Dominance`] trait over prefix-box queries, implemented by the 2D
//!   tree and by [`Layered`], which adds one coordinate on top of any
//!   dominance tree (`Layered<RangeTree2d>` is 3D,
//!   `Layered<Layered<RangeTree2d>>` 4D). `O(log^d n)` per query and
//!   `O(n log^(d−1) n)` space for `d` coordinates — Appendix B's "extra
//!   `O(log n)` factor" per constraint.

#![forbid(unsafe_code)]

pub mod fenwick;
pub mod layered;
pub mod range2d;
pub mod segtree;

pub use fenwick::{AtomicFenwickMax, FenwickMax};
pub use layered::{Dominance, Layered};
pub use range2d::{PivotMode, PrefixInfo, RangeTree2d};
pub use segtree::SegTree;

/// Tests of [`Layered`] as the 3D tree, `Layered<RangeTree2d>`.
#[cfg(test)]
mod range3d {
    mod tests {
        use crate::layered::testing::{check, check_refresh, LEAF_SIZE};
        use crate::{Dominance, Layered, PivotMode, RangeTree2d};

        #[test]
        fn refreshed_copies_take_the_query_pivot_mode() {
            check_refresh::<Layered<RangeTree2d>>(300, 2);
        }

        #[test]
        fn matches_oracle_small() {
            check::<RangeTree2d>(30, 1, PivotMode::Random, 15);
            check::<RangeTree2d>(30, 2, PivotMode::RightMost, 15);
        }

        #[test]
        fn matches_oracle_spanning_leaves() {
            check::<RangeTree2d>(LEAF_SIZE + 5, 3, PivotMode::Random, 15);
            check::<RangeTree2d>(4 * LEAF_SIZE + 7, 4, PivotMode::Random, 15);
            check::<RangeTree2d>(300, 5, PivotMode::RightMost, 15);
        }

        #[test]
        fn empty_tree() {
            let t = Layered::<RangeTree2d>::new(&[&[], &[], &[]], PivotMode::Random);
            assert!(t.is_empty());
            assert_eq!(t.query_prefix(&[0, 0, 0]).unfinished, 0);
        }
    }
}

/// Tests of [`Layered`] as the 4D tree, `Layered<Layered<RangeTree2d>>`.
#[cfg(test)]
mod range4d {
    mod tests {
        use crate::layered::testing::{check, check_refresh, LEAF_SIZE};
        use crate::{Dominance, Layered, PivotMode, RangeTree2d};
        use pp_parlay::rng::Rng;

        #[test]
        fn refreshed_copies_take_the_query_pivot_mode() {
            check_refresh::<Layered<Layered<RangeTree2d>>>(250, 3);
        }

        #[test]
        fn matches_oracle_small() {
            check::<Layered<RangeTree2d>>(25, 1, PivotMode::Random, 12);
            check::<Layered<RangeTree2d>>(25, 2, PivotMode::RightMost, 12);
        }

        #[test]
        fn matches_oracle_spanning_leaves() {
            check::<Layered<RangeTree2d>>(LEAF_SIZE + 5, 3, PivotMode::Random, 12);
            check::<Layered<RangeTree2d>>(3 * LEAF_SIZE + 7, 4, PivotMode::Random, 12);
            check::<Layered<RangeTree2d>>(250, 5, PivotMode::RightMost, 12);
        }

        #[test]
        fn empty_tree() {
            let t = Layered::<Layered<RangeTree2d>>::new(&[&[], &[], &[], &[]], PivotMode::Random);
            assert!(t.is_empty());
            assert_eq!(t.query_prefix(&[0, 0, 0, 0]).unfinished, 0);
            assert_eq!(t.select_pivot(&[1, 1, 1, 1], &mut Rng::new(1)), None);
        }
    }
}
