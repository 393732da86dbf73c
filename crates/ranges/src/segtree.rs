//! A generic monoid segment tree with parallel batch operations.
//!
//! Layout: the recursive "Euler" numbering — a node covering `[lo, hi)`
//! sits at index `i`, its left child at `i + 1`, and its right child at
//! `i + 2·(mid - lo)` where `mid = (lo + hi) / 2`. A tree over `n` leaves
//! occupies exactly `2n - 1` slots with no power-of-two padding, and both
//! children of any node are contiguous sub-slices — which is what lets
//! batch updates recurse with `rayon::join` on disjoint `&mut` halves.

use pp_parlay::monoid::{MinMonoid, Monoid};
use pp_parlay::GRAIN;

/// A segment tree over a fixed-length sequence of monoid values.
///
/// `clone_from` reuses the target's allocation, so refreshing a
/// per-query copy from one prepared tree allocates nothing once the
/// copy has the same length.
pub struct SegTree<M: Monoid> {
    monoid: M,
    n: usize,
    /// `2n - 1` aggregates in recursive layout (empty when `n == 0`).
    seg: Vec<M::T>,
}

impl<M: Monoid + Clone> Clone for SegTree<M> {
    fn clone(&self) -> Self {
        Self {
            monoid: self.monoid.clone(),
            n: self.n,
            seg: self.seg.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        (self.monoid, self.n) = (src.monoid.clone(), src.n);
        self.seg.clone_from(&src.seg);
    }
}

impl<M: Monoid> SegTree<M> {
    /// Build from leaf values. `O(n)` work, `O(log n)` span.
    pub fn new(monoid: M, values: &[M::T]) -> Self {
        let n = values.len();
        let mut seg = vec![monoid.identity(); if n == 0 { 0 } else { 2 * n - 1 }];
        if n > 0 {
            build_rec(&monoid, &mut seg, values, 0, n);
        }
        Self { monoid, n, seg }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True iff the tree has no leaves.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The aggregate of all leaves.
    pub fn total(&self) -> M::T {
        if self.n == 0 {
            self.monoid.identity()
        } else {
            self.seg[0].clone()
        }
    }

    /// Leaf value at `i`.
    pub fn get(&self, i: usize) -> M::T {
        assert!(i < self.n);
        let (mut node, mut lo, mut hi) = (0usize, 0usize, self.n);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if i < mid {
                node += 1;
                hi = mid;
            } else {
                node += 2 * (mid - lo);
                lo = mid;
            }
        }
        self.seg[node].clone()
    }

    /// Set leaf `i` to `v`, updating `O(log n)` aggregates.
    pub fn update(&mut self, i: usize, v: M::T) {
        assert!(i < self.n);
        update_rec(&self.monoid, &mut self.seg, 0, self.n, i, &v);
    }

    /// Aggregate of leaves in `[l, r)`. `O(log n)`.
    pub fn query(&self, l: usize, r: usize) -> M::T {
        assert!(l <= r && r <= self.n);
        if l == r {
            return self.monoid.identity();
        }
        query_rec(&self.monoid, &self.seg, 0, self.n, l, r)
    }

    /// Batch point update: apply `(index, value)` pairs, which must be
    /// sorted by index with distinct indices. Affected aggregates are
    /// recomputed once. `O(m log(n/m + 1) + m)` work, `O(log n)` span.
    pub fn update_batch(&mut self, updates: &[(usize, M::T)]) {
        debug_assert!(updates.windows(2).all(|w| w[0].0 < w[1].0));
        if updates.is_empty() {
            return;
        }
        assert!(updates.last().unwrap().0 < self.n);
        batch_rec(&self.monoid, &mut self.seg, 0, self.n, updates);
    }

    /// Leftmost index `i` in `[from, n)` such that the leaf value
    /// satisfies `pred`, using `pred` on aggregates to prune (requires
    /// `pred(combine(a, b))` ⇒ `pred(a) || pred(b)`, true for min/max
    /// threshold searches). `O(log n)`.
    pub fn find_first<F: Fn(&M::T) -> bool>(&self, from: usize, pred: F) -> Option<usize> {
        if from >= self.n {
            return None;
        }
        find_rec(&self.seg, 0, self.n, from, &pred)
    }
}

impl<T: Ord + Clone + Send + Sync> SegTree<MinMonoid<T>> {
    /// The prefix minima not above `bound`, in increasing index order:
    /// every leaf `i` with `leaf(i) <= bound` and `leaf(i) <= leaf(j)`
    /// for all `j < i`. One pruned left-to-right traversal carries the
    /// running minimum of `bound` and the leaves to its left, and skips
    /// every subtree whose aggregate exceeds it. The leftmost minimum of
    /// a subtree that is not skipped is reported, so each visited
    /// subtree holds a reported leaf: `O(k log(n/k) + k)` work for `k`
    /// reported leaves, `O(log n)` span (children join above [`GRAIN`]
    /// leaves).
    pub fn prefix_minima(&self, bound: &T) -> Vec<usize> {
        let mut out = Vec::new();
        if self.n > 0 && self.seg[0] <= *bound {
            prefix_minima_rec(&self.seg, 0, self.n, bound, &mut out);
        }
        out
    }
}

fn build_rec<M: Monoid>(m: &M, seg: &mut [M::T], values: &[M::T], lo: usize, hi: usize) {
    if hi - lo == 1 {
        // `values` is already the slice for this node's range.
        seg[0] = values[0].clone();
        return;
    }
    let mid = (lo + hi) / 2;
    let lsize = 2 * (mid - lo) - 1;
    let (node, rest) = seg.split_first_mut().unwrap();
    let (lseg, rseg) = rest.split_at_mut(lsize);
    let (lvals, rvals) = values.split_at(mid - lo);
    if hi - lo > GRAIN {
        rayon::join(
            || build_rec(m, lseg, lvals, lo, mid),
            || build_rec(m, rseg, rvals, mid, hi),
        );
    } else {
        build_rec(m, lseg, lvals, lo, mid);
        build_rec(m, rseg, rvals, mid, hi);
    }
    *node = m.combine(&lseg[0], &rseg[0]);
}

fn update_rec<M: Monoid>(m: &M, seg: &mut [M::T], lo: usize, hi: usize, i: usize, v: &M::T) {
    if hi - lo == 1 {
        seg[0] = v.clone();
        return;
    }
    let mid = (lo + hi) / 2;
    let lsize = 2 * (mid - lo) - 1;
    let (node, rest) = seg.split_first_mut().unwrap();
    let (lseg, rseg) = rest.split_at_mut(lsize);
    if i < mid {
        update_rec(m, lseg, lo, mid, i, v);
    } else {
        update_rec(m, rseg, mid, hi, i, v);
    }
    *node = m.combine(&lseg[0], &rseg[0]);
}

fn query_rec<M: Monoid>(m: &M, seg: &[M::T], lo: usize, hi: usize, l: usize, r: usize) -> M::T {
    if l <= lo && hi <= r {
        return seg[0].clone();
    }
    let mid = (lo + hi) / 2;
    let lsize = 2 * (mid - lo) - 1;
    let lseg = &seg[1..1 + lsize];
    let rseg = &seg[1 + lsize..];
    if r <= mid {
        query_rec(m, lseg, lo, mid, l, r)
    } else if l >= mid {
        query_rec(m, rseg, mid, hi, l, r)
    } else {
        let a = query_rec(m, lseg, lo, mid, l, r);
        let b = query_rec(m, rseg, mid, hi, l, r);
        m.combine(&a, &b)
    }
}

fn batch_rec<M: Monoid>(m: &M, seg: &mut [M::T], lo: usize, hi: usize, updates: &[(usize, M::T)]) {
    if updates.is_empty() {
        return;
    }
    if hi - lo == 1 {
        debug_assert_eq!(updates.len(), 1);
        seg[0] = updates[0].1.clone();
        return;
    }
    let mid = (lo + hi) / 2;
    let lsize = 2 * (mid - lo) - 1;
    let (node, rest) = seg.split_first_mut().unwrap();
    let (lseg, rseg) = rest.split_at_mut(lsize);
    let split = updates.partition_point(|&(i, _)| i < mid);
    let (lups, rups) = updates.split_at(split);
    if updates.len() > 64 {
        rayon::join(
            || batch_rec(m, lseg, lo, mid, lups),
            || batch_rec(m, rseg, mid, hi, rups),
        );
    } else {
        batch_rec(m, lseg, lo, mid, lups);
        batch_rec(m, rseg, mid, hi, rups);
    }
    *node = m.combine(&lseg[0], &rseg[0]);
}

fn find_rec<T, F: Fn(&T) -> bool>(
    seg: &[T],
    lo: usize,
    hi: usize,
    from: usize,
    pred: &F,
) -> Option<usize> {
    if hi <= from || !pred(&seg[0]) {
        // Either entirely left of `from`, or (if `from <= lo`) no leaf in
        // this subtree can satisfy the predicate. When `from` is inside
        // the subtree, the aggregate test is only a sound prune if it
        // fails — a passing aggregate may come from the excluded prefix,
        // handled by recursing.
        if hi <= from {
            return None;
        }
        if from <= lo {
            return None;
        }
    }
    if hi - lo == 1 {
        return if pred(&seg[0]) { Some(lo) } else { None };
    }
    let mid = (lo + hi) / 2;
    let lsize = 2 * (mid - lo) - 1;
    let lseg = &seg[1..1 + lsize];
    let rseg = &seg[1 + lsize..];
    if let Some(i) = find_rec(lseg, lo, mid, from, pred) {
        return Some(i);
    }
    find_rec(rseg, mid, hi, from, pred)
}

/// Report the prefix minima of a subtree whose aggregate is at most
/// `running`, the minimum of the bound and every leaf to its left.
fn prefix_minima_rec<T: Ord + Clone + Send + Sync>(
    seg: &[T],
    lo: usize,
    hi: usize,
    running: &T,
    out: &mut Vec<usize>,
) {
    if hi - lo == 1 {
        out.push(lo);
        return;
    }
    let mid = (lo + hi) / 2;
    let lsize = 2 * (mid - lo) - 1;
    let lseg = &seg[1..1 + lsize];
    let rseg = &seg[1 + lsize..];
    // The right child's running minimum is known before the left child
    // is traversed: it folds in the left child's aggregate.
    let rrunning = running.min(&lseg[0]);
    let (left, right) = (lseg[0] <= *running, rseg[0] <= *rrunning);
    if left && right && hi - lo > GRAIN {
        let mut rout = Vec::new();
        rayon::join(
            || prefix_minima_rec(lseg, lo, mid, running, out),
            || prefix_minima_rec(rseg, mid, hi, rrunning, &mut rout),
        );
        out.append(&mut rout);
        return;
    }
    if left {
        prefix_minima_rec(lseg, lo, mid, running, out);
    }
    if right {
        prefix_minima_rec(rseg, mid, hi, rrunning, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_parlay::monoid::{sum_monoid, MaxMonoid, MinMonoid};
    use pp_parlay::rng::Rng;

    #[test]
    fn build_and_query_sum() {
        let v: Vec<u64> = (0..100).collect();
        let t = SegTree::new(sum_monoid::<u64>(), &v);
        assert_eq!(t.total(), 4950);
        assert_eq!(t.query(0, 100), 4950);
        assert_eq!(t.query(10, 20), (10..20).sum::<u64>());
        assert_eq!(t.query(5, 5), 0);
        assert_eq!(t.query(99, 100), 99);
    }

    #[test]
    fn point_update() {
        let v = vec![1u64, 2, 3, 4, 5];
        let mut t = SegTree::new(sum_monoid::<u64>(), &v);
        t.update(2, 100);
        assert_eq!(t.total(), 112);
        assert_eq!(t.get(2), 100);
        assert_eq!(t.query(0, 3), 103);
    }

    #[test]
    fn random_queries_match_naive() {
        let mut r = Rng::new(1);
        let n = 1000;
        let mut v: Vec<i64> = (0..n).map(|_| r.range(1000) as i64).collect();
        let mut t = SegTree::new(MaxMonoid(i64::MIN), &v);
        for _ in 0..500 {
            match r.range(3) {
                0 => {
                    let i = r.range(n as u64) as usize;
                    let x = r.range(1000) as i64;
                    v[i] = x;
                    t.update(i, x);
                }
                _ => {
                    let a = r.range(n as u64 + 1) as usize;
                    let b = r.range(n as u64 + 1) as usize;
                    let (l, rr) = (a.min(b), a.max(b));
                    let want = v[l..rr].iter().copied().max().unwrap_or(i64::MIN);
                    assert_eq!(t.query(l, rr), want);
                }
            }
        }
    }

    #[test]
    fn batch_update_matches_points() {
        let mut r = Rng::new(2);
        let n = 20_000usize;
        let v: Vec<u64> = (0..n as u64).collect();
        let mut t1 = SegTree::new(sum_monoid::<u64>(), &v);
        let mut t2 = SegTree::new(sum_monoid::<u64>(), &v);
        let mut ups: Vec<(usize, u64)> = Vec::new();
        for i in 0..n {
            if r.range(10) == 0 {
                ups.push((i, r.range(100)));
            }
        }
        ups.sort_by_key(|x| x.0);
        ups.dedup_by_key(|x| x.0);
        for &(i, val) in &ups {
            t1.update(i, val);
        }
        t2.update_batch(&ups);
        assert_eq!(t1.total(), t2.total());
        for step in [7usize, 131, 997] {
            let mut i = 0;
            while i + step <= n {
                assert_eq!(t1.query(i, i + step), t2.query(i, i + step));
                i += step;
            }
        }
    }

    #[test]
    fn large_parallel_build() {
        let n = 100_000u64;
        let v: Vec<u64> = (0..n).collect();
        let t = SegTree::new(sum_monoid::<u64>(), &v);
        assert_eq!(t.total(), n * (n - 1) / 2);
    }

    #[test]
    fn find_first_min_threshold() {
        let v = vec![5u64, 9, 3, 7, 2, 8];
        let t = SegTree::new(MinMonoid(u64::MAX), &v);
        // first index from 0 with value <= 3
        assert_eq!(t.find_first(0, |&x| x <= 3), Some(2));
        // from 3, first value <= 3 is index 4 (value 2)
        assert_eq!(t.find_first(3, |&x| x <= 3), Some(4));
        assert_eq!(t.find_first(5, |&x| x <= 3), None);
        assert_eq!(t.find_first(0, |&x| x == 0), None);
    }

    /// Prefix minima not above `bound` by a left-to-right scan.
    fn naive_prefix_minima(v: &[i64], bound: i64) -> Vec<usize> {
        let mut running = bound;
        let mut out = Vec::new();
        for (i, &x) in v.iter().enumerate() {
            if x <= running {
                out.push(i);
                running = x;
            }
        }
        out
    }

    #[test]
    fn prefix_minima_match_a_scan() {
        let mut r = Rng::new(3);
        for n in [0usize, 1, 2, 3, 7, 100, 1000, 3 * GRAIN + 5] {
            let v: Vec<i64> = (0..n).map(|_| r.range(50) as i64).collect();
            let t = SegTree::new(MinMonoid(i64::MAX), &v);
            for bound in [i64::MAX, 25, 0, -1] {
                assert_eq!(
                    t.prefix_minima(&bound),
                    naive_prefix_minima(&v, bound),
                    "n = {n}, bound = {bound}"
                );
            }
        }
        // Duplicates of the running minimum are all reported.
        let t = SegTree::new(MinMonoid(u64::MAX), &[4u64, 4, 5, 4, 3, 3]);
        assert_eq!(t.prefix_minima(&u64::MAX), vec![0, 1, 3, 4, 5]);
    }

    #[test]
    fn empty_and_single() {
        let t = SegTree::new(sum_monoid::<u64>(), &[]);
        assert_eq!(t.total(), 0);
        assert!(t.is_empty());
        let t = SegTree::new(sum_monoid::<u64>(), &[42]);
        assert_eq!(t.total(), 42);
        assert_eq!(t.query(0, 1), 42);
    }
}
