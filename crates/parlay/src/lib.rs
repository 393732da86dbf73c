//! # `pp-parlay` — parallel sequence primitives
//!
//! This crate is the lowest substrate of the phase-parallel reproduction:
//! the small set of binary fork-join building blocks that the SPAA 2022
//! paper (and the ParlayLib C++ library it builds on) assumes everywhere:
//!
//! * [`monoid`] — the associative-combine abstraction used by scans,
//!   reductions and every augmented tree in the workspace.
//! * [`scan`] — parallel reductions and prefix sums.
//! * [`mod@pack`] — parallel filtering / packing by flags.
//! * [`merge`] — parallel merging of sorted sequences.
//! * [`sort`] — parallel stable merge sort (and key-based variants).
//! * [`radix_sort`] — parallel stable LSD radix sort for integer keys
//!   (ParlayLib's `integer_sort` shape).
//! * [`rng`] — deterministic, splittable randomness: SplitMix64 mixing so
//!   each index gets an independent random value regardless of scheduling.
//! * [`shuffle`] — parallel random permutations built on [`sort`] + [`rng`].
//! * [`list_rank`] — forest depths by pointer jumping: the ranks of the
//!   unweighted activity selection algorithm (Thm. 5.3 of the paper).
//!
//! All functions are deterministic given their seed arguments, are safe
//! Rust throughout, and fall back to tight sequential loops below a grain
//! size so that small inputs do not pay fork-join overhead.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod list_rank;
pub mod merge;
pub mod monoid;
pub mod pack;
pub mod radix_sort;
pub mod rng;
pub mod scan;
pub mod shuffle;
pub mod sort;

pub use monoid::{MaxMonoid, MinMonoid, Monoid, SumMonoid};
pub use pack::{filter, pack, pack_index, pack_index_into, pack_into};
pub use radix_sort::{radix_sort_by_key, radix_sort_i64, radix_sort_u32, radix_sort_u64};
pub use rng::{hash64, Rng};
pub use scan::{reduce, scan_exclusive, scan_exclusive_into, scan_inclusive};
pub use shuffle::random_permutation;
pub use sort::{par_sort, par_sort_by, par_sort_by_key};

/// Grain size below which parallel primitives run sequentially.
///
/// Chosen so that the fork-join overhead (~100ns per `rayon::join`) is well
/// under 1% of the sequential work of a block.
pub const GRAIN: usize = 4096;

/// Returns `ceil(a / b)` for positive integers.
#[inline]
pub fn div_ceil(a: usize, b: usize) -> usize {
    debug_assert!(b > 0);
    a.div_ceil(b)
}

/// Number of worker threads rayon will use for this process.
pub fn num_threads() -> usize {
    rayon::current_num_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn div_ceil_works() {
        assert_eq!(div_ceil(10, 3), 4);
        assert_eq!(div_ceil(9, 3), 3);
        assert_eq!(div_ceil(1, 1), 1);
        assert_eq!(div_ceil(0, 5), 0);
    }

    #[test]
    fn num_threads_positive() {
        assert!(num_threads() >= 1);
    }
}
