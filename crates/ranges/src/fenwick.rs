//! Fenwick (binary indexed) trees: prefix max, and an atomic prefix-max
//! variant for concurrent frontier updates.
//!
//! The prefix-max Fenwick tree is the classic `O(log n)` structure behind
//! the sequential DP baselines (activity selection Eq. (1), LIS Eq. (3)):
//! values only ever *increase* (DP values are written once), which is
//! exactly the regime where a max-Fenwick is sound.
//!
//! [`AtomicFenwickMax`] extends this to parallel rounds: a whole frontier
//! can publish DP values concurrently with `fetch_max`, because max is
//! commutative and idempotent, so any interleaving of the `O(log n)`
//! per-update chains converges to the same state. Phases are separated by
//! fork-join barriers (rayon `join`), which provide the happens-before
//! edges that make subsequent relaxed reads well-defined.

use std::sync::atomic::{AtomicU64, Ordering};

/// Prefix-max Fenwick tree. Sound only for monotone (non-decreasing)
/// point updates, which is how DP tables are written.
pub struct FenwickMax {
    tree: Vec<u64>,
}

impl FenwickMax {
    /// A tree over `n` elements, all implicitly `0`.
    pub fn new(n: usize) -> Self {
        Self {
            tree: vec![0; n + 1],
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// True iff the tree is over zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Raise element `i` to at least `v`.
    pub fn update(&mut self, i: usize, v: u64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            if self.tree[i] >= v {
                // Ancestor chains are monotone; the remainder already covers v.
                // (Still must continue: different chain nodes cover different
                // ranges — only skip the write, not the walk.)
            } else {
                self.tree[i] = v;
            }
            i += i & i.wrapping_neg();
        }
    }

    /// Max over elements `[0, r)` (0 if the range is empty).
    pub fn prefix_max(&self, r: usize) -> u64 {
        let mut i = r.min(self.len());
        let mut m = 0;
        while i > 0 {
            m = m.max(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        m
    }
}

/// Concurrent prefix-max Fenwick tree via `AtomicU64::fetch_max`.
///
/// Updates may run concurrently with each other (e.g. a parallel frontier
/// publishing DP values). Queries concurrent with updates return a value
/// bounded by some linearization, which phase-structured algorithms never
/// rely on — they query and update in separate fork-join phases.
pub struct AtomicFenwickMax {
    tree: Vec<AtomicU64>,
}

impl AtomicFenwickMax {
    /// A tree over `n` elements, all implicitly `0`.
    pub fn new(n: usize) -> Self {
        Self {
            tree: (0..=n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// True iff the tree is over zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Make this a tree over `n` elements, all `0` again, keeping the
    /// allocation: a per-query tree reused across queries.
    pub fn reset(&mut self, n: usize) {
        self.tree.clear();
        self.tree.resize_with(n + 1, || AtomicU64::new(0));
    }

    /// Raise element `i` to at least `v` (callable concurrently).
    pub fn update(&self, i: usize, v: u64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            // Early exit: if this chain node already dominates v, every
            // further node on the chain covers a superset range and was
            // raised by whoever raised this one... NOT true for Fenwick
            // chains (ranges are not nested), so we must walk the full
            // chain; fetch_max keeps it correct either way.
            self.tree[i].fetch_max(v, Ordering::Relaxed);
            i += i & i.wrapping_neg();
        }
    }

    /// Max over elements `[0, r)` (0 if the range is empty).
    pub fn prefix_max(&self, r: usize) -> u64 {
        let mut i = r.min(self.len());
        let mut m = 0;
        while i > 0 {
            m = m.max(self.tree[i].load(Ordering::Relaxed));
            i -= i & i.wrapping_neg();
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_parlay::rng::Rng;
    use rayon::prelude::*;

    #[test]
    fn fenwick_max_matches_naive() {
        let mut r = Rng::new(2);
        let n = 300;
        let mut naive = vec![0u64; n];
        let mut f = FenwickMax::new(n);
        for _ in 0..2000 {
            let i = r.range(n as u64) as usize;
            let v = r.range(10_000);
            naive[i] = naive[i].max(v);
            f.update(i, v);
            let q = r.range(n as u64 + 1) as usize;
            assert_eq!(
                f.prefix_max(q),
                naive[..q].iter().copied().max().unwrap_or(0)
            );
        }
    }

    #[test]
    fn atomic_fenwick_concurrent_updates() {
        let n = 10_000usize;
        let f = AtomicFenwickMax::new(n);
        // Each index i gets value i+1, published concurrently.
        (0..n).into_par_iter().for_each(|i| {
            f.update(i, (i + 1) as u64);
        });
        for q in [0usize, 1, 17, 5000, n] {
            assert_eq!(f.prefix_max(q), q as u64);
        }
    }

    #[test]
    fn atomic_matches_plain_under_same_updates() {
        let mut r = Rng::new(3);
        let n = 400;
        let mut plain = FenwickMax::new(n);
        let atomic = AtomicFenwickMax::new(n);
        let updates: Vec<(usize, u64)> = (0..3000)
            .map(|_| (r.range(n as u64) as usize, r.range(1_000_000)))
            .collect();
        for &(i, v) in &updates {
            plain.update(i, v);
        }
        updates.par_iter().for_each(|&(i, v)| atomic.update(i, v));
        for q in 0..=n {
            assert_eq!(plain.prefix_max(q), atomic.prefix_max(q));
        }
    }

    #[test]
    fn empty_trees() {
        let f = FenwickMax::new(0);
        assert_eq!(f.prefix_max(0), 0);
        let f = AtomicFenwickMax::new(0);
        assert_eq!(f.prefix_max(0), 0);
    }
}
