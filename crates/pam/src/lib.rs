//! # `pp-pam` — join-based Parallel Augmented BSTs (PA-BST)
//!
//! A from-scratch Rust implementation of the PAM-style parallel augmented
//! balanced binary search trees the paper relies on (§2, Theorems 2.1 and
//! 2.2; Appendix A), after Sun, Ferizovic & Blelloch (PPoPP '18) and
//! Blelloch, Ferizovic & Sun, *Just Join for Parallel Ordered Sets*
//! (SPAA '16).
//!
//! The single primitive is `join(L, k, R)`; every other operation —
//! `split`, `insert`, `delete`, `union`, `intersection`, `difference`,
//! batch (`multi_`) operations and parallel construction — is built on it,
//! and the bulk operations parallelize with `rayon::join` exactly as the
//! divide-and-conquer schemes of \[9, 66\] describe. Operations that take
//! a tree apart rejoin around the nodes they already own
//! (`node::join_node`), so `split`, `union`, `intersection` and
//! `difference` allocate no node.
//!
//! Trees are AVL-balanced (join maintains the AVL invariant), store
//! subtree sizes for `O(log n)` rank/select, and carry an *augmented
//! value* per subtree defined by an [`Augment`] structure — the monoid
//! `(A, f, I_A)` with a base function `g : K × V → A` of §2. Range
//! aggregation (`aug_range`) answers the 1D range-sum queries of
//! Theorem 2.1 in `O(log n)`.
//!
//! ```
//! use pp_pam::{AugTree, MaxAug};
//!
//! // T_DP of Algorithm 2: end-time -> DP value, augmented on the max.
//! let mut t = AugTree::build(MaxAug, vec![(10u64, 5u64), (20, 9), (30, 7)]);
//! assert_eq!(t.aug(), 9);
//! // "max dp among activities ending by 25":
//! assert_eq!(t.aug_left(&25), 9);
//! t.multi_insert(vec![(15, 20), (25, 1)]);
//! assert_eq!(t.aug_left(&25), 20);
//! ```

#![forbid(unsafe_code)]

pub mod augment;
mod node;
pub mod tree;

pub use augment::{Augment, MaxAug, MinAug, NoAug, SumAug};
pub use tree::AugTree;
