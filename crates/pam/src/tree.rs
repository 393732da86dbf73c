//! The [`AugTree`] map: join-based ordered map with augmentation and
//! parallel bulk operations.

use crate::augment::Augment;
use crate::node::{aug_of, join, join2, join_node, mk, size, Link};
use pp_parlay::sort::par_sort_by;
use rayon::prelude::*;
use std::cmp::Ordering;

/// Bulk operations go parallel above this size.
const PAR_CUTOFF: usize = 1 << 11;

/// An ordered map of `K → V` with subtree augmentation `G`.
///
/// All single-entry operations are `O(log n)`. Bulk operations (`union`,
/// `multi_insert`, `build`, `flatten`, …) are parallel divide-and-conquer
/// over `join`/`split` and meet the bounds of Theorems 2.1 and 2.2.
pub struct AugTree<K, V, G: Augment<K, V>> {
    root: Link<K, V, G::A>,
    g: G,
}

impl<K, V, G> Clone for AugTree<K, V, G>
where
    K: Clone,
    V: Clone,
    G: Augment<K, V> + Clone,
    G::A: Clone,
{
    fn clone(&self) -> Self {
        Self {
            root: self.root.clone(),
            g: self.g.clone(),
        }
    }
}

impl<K, V, G> AugTree<K, V, G>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    G: Augment<K, V>,
{
    /// An empty map with augmentation `g`.
    pub fn new(g: G) -> Self {
        Self { root: None, g }
    }

    /// Build from entries; on duplicate keys, the *last* occurrence wins
    /// (matching PAM's `build`). `O(n log n)` work, polylog span.
    pub fn build(g: G, mut entries: Vec<(K, V)>) -> Self {
        // Stable sort by key, then keep the last entry of each run.
        let n = entries.len();
        if n <= PAR_CUTOFF {
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            // `dedup_by` keeps the first of a run; swapping each later
            // duplicate into the kept slot leaves the last one there.
            entries.dedup_by(|later, kept| {
                let same = later.0 == kept.0;
                if same {
                    std::mem::swap(later, kept);
                }
                same
            });
            return Self::from_sorted(g, entries);
        }
        par_sort_by(&mut entries, |a, b| a.0 < b.0);
        let keep: Vec<bool> = (0..n)
            .into_par_iter()
            .map(|i| i + 1 == n || entries[i].0 != entries[i + 1].0)
            .collect();
        let entries = pp_parlay::pack(&entries, &keep);
        Self::from_sorted(g, entries)
    }

    /// Build from strictly-increasing entries. `O(n)` work, `O(log n)` span.
    pub fn from_sorted(g: G, entries: Vec<(K, V)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        let root = build_sorted(&g, &entries);
        Self { root, g }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        size(&self.root)
    }

    /// True iff the map is empty.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// The augmented value of the whole map (identity if empty).
    pub fn aug(&self) -> G::A {
        aug_of(&self.g, &self.root)
    }

    /// Look up a key.
    pub fn find(&self, key: &K) -> Option<&V> {
        let mut cur = &self.root;
        while let Some(n) = cur {
            match key.cmp(&n.key) {
                Ordering::Less => cur = &n.left,
                Ordering::Greater => cur = &n.right,
                Ordering::Equal => return Some(&n.val),
            }
        }
        None
    }

    /// Insert (replacing any existing value). `O(log n)`.
    pub fn insert(&mut self, key: K, val: V) {
        let root = self.root.take();
        let (l, _, r) = split(&self.g, root, &key);
        self.root = Some(join(&self.g, l, key, val, r));
    }

    /// Remove a key, returning its value if present. `O(log n)`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let root = self.root.take();
        let (l, found, r) = split(&self.g, root, key);
        self.root = join2(&self.g, l, r);
        found
    }

    /// Smallest entry.
    pub fn first(&self) -> Option<(&K, &V)> {
        let mut cur = self.root.as_ref()?;
        while let Some(l) = cur.left.as_ref() {
            cur = l;
        }
        Some((&cur.key, &cur.val))
    }

    /// Greatest entry.
    pub fn last(&self) -> Option<(&K, &V)> {
        let mut cur = self.root.as_ref()?;
        while let Some(r) = cur.right.as_ref() {
            cur = r;
        }
        Some((&cur.key, &cur.val))
    }

    /// Number of keys strictly less than `key`.
    pub fn rank(&self, key: &K) -> usize {
        let mut cur = &self.root;
        let mut acc = 0;
        while let Some(n) = cur {
            match key.cmp(&n.key) {
                Ordering::Less | Ordering::Equal => cur = &n.left,
                Ordering::Greater => {
                    acc += size(&n.left) + 1;
                    cur = &n.right;
                }
            }
        }
        acc
    }

    /// The `i`-th smallest entry (0-based).
    pub fn select(&self, mut i: usize) -> Option<(&K, &V)> {
        let mut cur = self.root.as_ref()?;
        loop {
            let ls = size(&cur.left);
            match i.cmp(&ls) {
                Ordering::Less => cur = cur.left.as_ref()?,
                Ordering::Equal => return Some((&cur.key, &cur.val)),
                Ordering::Greater => {
                    i -= ls + 1;
                    cur = cur.right.as_ref()?;
                }
            }
        }
    }

    /// Split into (`keys < key`, value at `key` if any, `keys > key`).
    pub fn split_at(mut self, key: &K) -> (Self, Option<V>, Self)
    where
        G: Clone,
    {
        let root = self.root.take();
        let (l, found, r) = split(&self.g, root, key);
        (
            Self {
                root: l,
                g: self.g.clone(),
            },
            found,
            Self { root: r, g: self.g },
        )
    }

    /// Augmented value over keys in `[lo, hi]` (inclusive). `O(log n)`.
    pub fn aug_range(&self, lo: &K, hi: &K) -> G::A {
        aug_range_rec(&self.g, &self.root, Some(lo), Some(hi))
    }

    /// Augmented value over keys `<= hi`. `O(log n)`.
    pub fn aug_left(&self, hi: &K) -> G::A {
        aug_range_rec(&self.g, &self.root, None, Some(hi))
    }

    /// Augmented value over keys `>= lo`. `O(log n)`.
    pub fn aug_right(&self, lo: &K) -> G::A {
        aug_range_rec(&self.g, &self.root, Some(lo), None)
    }

    /// Union with `other`; on key collisions `combine(self_v, other_v)`
    /// decides the value. `O(m log(n/m + 1))` work, polylog span.
    pub fn union_with<F>(self, other: Self, combine: &F) -> Self
    where
        F: Fn(&V, &V) -> V + Send + Sync,
        G: Clone,
    {
        let g = self.g.clone();
        let root = union(&g, self.root, other.root, combine);
        Self { root, g }
    }

    /// Union; `other`'s value wins on collisions.
    pub fn union(self, other: Self) -> Self
    where
        G: Clone,
    {
        self.union_with(other, &|_, b| b.clone())
    }

    /// Intersection: keys present in both maps, with values combined by
    /// `combine(self_v, other_v)`. Same split-based parallel recursion
    /// and bounds as `union`.
    pub fn intersect_with<F>(self, other: Self, combine: &F) -> Self
    where
        F: Fn(&V, &V) -> V + Send + Sync,
        G: Clone,
    {
        let g = self.g.clone();
        let root = intersect(&g, self.root, other.root, combine);
        Self { root, g }
    }

    /// Difference: entries of `self` whose keys are *not* in `other`.
    pub fn difference(self, other: Self) -> Self
    where
        G: Clone,
    {
        let g = self.g.clone();
        let root = difference(&g, self.root, other.root);
        Self { root, g }
    }

    /// Insert a batch of entries (duplicates within the batch: last wins;
    /// collisions with the map: batch wins). Theorem 2.2 bounds.
    pub fn multi_insert(&mut self, entries: Vec<(K, V)>)
    where
        G: Clone,
    {
        let g = self.g.clone();
        let batch = Self::build(g, entries);
        let me = std::mem::replace(self, Self::new(self.g.clone()));
        *self = me.union(batch);
    }

    /// Remove a batch of keys.
    pub fn multi_delete(&mut self, mut keys: Vec<K>)
    where
        G: Clone,
    {
        pp_parlay::par_sort(&mut keys);
        keys.dedup();
        let root = self.root.take();
        self.root = multi_delete_rec(&self.g, root, &keys);
    }

    /// Look up a batch of keys in parallel: returns `(key, value)` for
    /// each present key, in key order. `O(m log n)` work.
    pub fn multi_find(&self, mut keys: Vec<K>) -> Vec<(K, V)> {
        pp_parlay::par_sort(&mut keys);
        keys.dedup();
        let found: Vec<Option<(K, V)>> = keys
            .into_par_iter()
            .map(|k| self.find(&k).map(|v| (k.clone(), v.clone())))
            .collect();
        found.into_iter().flatten().collect()
    }

    /// Flatten into a sorted vector of entries. `O(n)` work, `O(log n)` span.
    pub fn flatten(&self) -> Vec<(K, V)> {
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        flatten_rec(&self.root, &mut out);
        out
    }

    /// Greatest key `<= key` with its value.
    pub fn prev(&self, key: &K) -> Option<(&K, &V)> {
        let mut cur = &self.root;
        let mut best = None;
        while let Some(n) = cur {
            if n.key <= *key {
                best = Some((&n.key, &n.val));
                cur = &n.right;
            } else {
                cur = &n.left;
            }
        }
        best
    }

    /// Smallest key `>= key` with its value.
    pub fn next(&self, key: &K) -> Option<(&K, &V)> {
        let mut cur = &self.root;
        let mut best = None;
        while let Some(n) = cur {
            if n.key >= *key {
                best = Some((&n.key, &n.val));
                cur = &n.left;
            } else {
                cur = &n.right;
            }
        }
        best
    }

    /// Entries with keys in `[lo, hi]`, in order.
    pub fn range_entries(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        range_collect(&self.root, lo, hi, &mut out);
        out
    }

    /// Validate structural invariants (tests / debugging).
    #[cfg(any(test, feature = "validate"))]
    pub fn check_invariants(&self)
    where
        G::A: PartialEq + std::fmt::Debug,
        K: std::fmt::Debug,
    {
        crate::node::validate(&self.g, &self.root, None, None);
    }
}

fn build_sorted<K, V, G>(g: &G, entries: &[(K, V)]) -> Link<K, V, G::A>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    G: Augment<K, V>,
{
    if entries.is_empty() {
        return None;
    }
    let mid = entries.len() / 2;
    let (k, v) = entries[mid].clone();
    let (le, re) = (&entries[..mid], &entries[mid + 1..]);
    let (l, r) = if entries.len() > PAR_CUTOFF {
        rayon::join(|| build_sorted(g, le), || build_sorted(g, re))
    } else {
        (build_sorted(g, le), build_sorted(g, re))
    };
    Some(mk(g, l, k, v, r))
}

/// The result of a split: left subtree, the key's value, right subtree.
pub(crate) type Split<K, V, A> = (Link<K, V, A>, Option<V>, Link<K, V, A>);

/// `split(t, k)`: trees of keys `< k` and `> k`, plus `k`'s value if present.
pub(crate) fn split<K, V, G>(g: &G, t: Link<K, V, G::A>, key: &K) -> Split<K, V, G::A>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    G: Augment<K, V>,
{
    let Some(mut n) = t else {
        return (None, None, None);
    };
    let (left, right) = (n.left.take(), n.right.take());
    match key.cmp(&n.key) {
        Ordering::Equal => (left, Some(n.val), right),
        Ordering::Less => {
            let (ll, found, lr) = split(g, left, key);
            (ll, found, Some(join_node(g, lr, n, right)))
        }
        Ordering::Greater => {
            let (rl, found, rr) = split(g, right, key);
            (Some(join_node(g, left, n, rl)), found, rr)
        }
    }
}

fn union<K, V, G, F>(
    g: &G,
    t1: Link<K, V, G::A>,
    t2: Link<K, V, G::A>,
    combine: &F,
) -> Link<K, V, G::A>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    G: Augment<K, V>,
    F: Fn(&V, &V) -> V + Send + Sync,
{
    match (t1, t2) {
        (None, t2) => t2,
        (t1, None) => t1,
        (Some(n1), Some(n2)) => {
            // Split t1 by t2's root; recurse on both sides in parallel.
            let mut n2 = n2;
            let (l2, r2) = (n2.left.take(), n2.right.take());
            let big = n1.size > PAR_CUTOFF;
            let (l1, found, r1) = split(g, Some(n1), &n2.key);
            if let Some(v1) = &found {
                n2.val = combine(v1, &n2.val);
            }
            let (l, r) = if big {
                rayon::join(|| union(g, l1, l2, combine), || union(g, r1, r2, combine))
            } else {
                (union(g, l1, l2, combine), union(g, r1, r2, combine))
            };
            Some(join_node(g, l, n2, r))
        }
    }
}

fn intersect<K, V, G, F>(
    g: &G,
    t1: Link<K, V, G::A>,
    t2: Link<K, V, G::A>,
    combine: &F,
) -> Link<K, V, G::A>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    G: Augment<K, V>,
    F: Fn(&V, &V) -> V + Send + Sync,
{
    match (t1, t2) {
        (None, _) | (_, None) => None,
        (Some(n1), Some(n2)) => {
            let mut n2 = n2;
            let (l2, r2) = (n2.left.take(), n2.right.take());
            let big = n1.size > PAR_CUTOFF;
            let (l1, found, r1) = split(g, Some(n1), &n2.key);
            let (l, r) = if big {
                rayon::join(
                    || intersect(g, l1, l2, combine),
                    || intersect(g, r1, r2, combine),
                )
            } else {
                (intersect(g, l1, l2, combine), intersect(g, r1, r2, combine))
            };
            match found {
                Some(v1) => {
                    n2.val = combine(&v1, &n2.val);
                    Some(join_node(g, l, n2, r))
                }
                None => join2(g, l, r),
            }
        }
    }
}

fn difference<K, V, G>(g: &G, t1: Link<K, V, G::A>, t2: Link<K, V, G::A>) -> Link<K, V, G::A>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    G: Augment<K, V>,
{
    match (t1, t2) {
        (t1, None) => t1,
        (None, _) => None,
        (Some(n1), Some(n2)) => {
            let mut n2 = n2;
            let (l2, r2) = (n2.left.take(), n2.right.take());
            let big = n1.size > PAR_CUTOFF;
            let (l1, _, r1) = split(g, Some(n1), &n2.key);
            let (l, r) = if big {
                rayon::join(|| difference(g, l1, l2), || difference(g, r1, r2))
            } else {
                (difference(g, l1, l2), difference(g, r1, r2))
            };
            join2(g, l, r)
        }
    }
}

fn multi_delete_rec<K, V, G>(g: &G, t: Link<K, V, G::A>, keys: &[K]) -> Link<K, V, G::A>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    G: Augment<K, V>,
{
    if keys.is_empty() {
        return t;
    }
    let t = t?;
    let mid = keys.len() / 2;
    let key = &keys[mid];
    let (l, _, r) = split(g, Some(t), key);
    let (lk, rk) = (&keys[..mid], &keys[mid + 1..]);
    let (l, r) = if size(&l) + size(&r) > PAR_CUTOFF {
        rayon::join(|| multi_delete_rec(g, l, lk), || multi_delete_rec(g, r, rk))
    } else {
        (multi_delete_rec(g, l, lk), multi_delete_rec(g, r, rk))
    };
    join2(g, l, r)
}

fn aug_range_rec<K, V, G>(g: &G, t: &Link<K, V, G::A>, lo: Option<&K>, hi: Option<&K>) -> G::A
where
    K: Ord,
    G: Augment<K, V>,
{
    let Some(n) = t else { return g.identity() };
    // Entire subtree inside the range?
    if lo.is_none() && hi.is_none() {
        return n.aug.clone();
    }
    let in_lo = lo.is_none_or(|l| n.key >= *l);
    let in_hi = hi.is_none_or(|h| n.key <= *h);
    let mut acc = g.identity();
    if in_lo {
        // Left subtree may intersect; if lo bounds nothing there, take it whole.
        let l_part = aug_range_rec(g, &n.left, lo, if in_hi { None } else { hi });
        acc = g.combine(&acc, &l_part);
    } else {
        // Node below lo: only the right subtree matters.
        return aug_range_rec(g, &n.right, lo, hi);
    }
    if in_hi {
        acc = g.combine(&acc, &g.base(&n.key, &n.val));
        let r_part = aug_range_rec(g, &n.right, if in_lo { None } else { lo }, hi);
        acc = g.combine(&acc, &r_part);
        acc
    } else {
        // Node above hi: discard node and right subtree; but we already
        // recursed left with hi retained, so acc is the answer.
        acc
    }
}

fn flatten_rec<K: Clone, V: Clone, A>(t: &Link<K, V, A>, out: &mut Vec<(K, V)>) {
    if let Some(n) = t {
        flatten_rec(&n.left, out);
        out.push((n.key.clone(), n.val.clone()));
        flatten_rec(&n.right, out);
    }
}

fn range_collect<K: Ord + Clone, V: Clone, A>(
    t: &Link<K, V, A>,
    lo: &K,
    hi: &K,
    out: &mut Vec<(K, V)>,
) {
    let Some(n) = t else { return };
    if n.key >= *lo {
        range_collect(&n.left, lo, hi, out);
    }
    if n.key >= *lo && n.key <= *hi {
        out.push((n.key.clone(), n.val.clone()));
    }
    if n.key <= *hi {
        range_collect(&n.right, lo, hi, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::{MaxAug, MinAug, NoAug, SumAug};
    use pp_parlay::rng::Rng;
    use std::collections::BTreeMap;

    #[test]
    fn insert_find_remove() {
        let mut t = AugTree::new(NoAug);
        for i in [5u64, 3, 8, 1, 4, 9, 2] {
            t.insert(i, i * 10);
        }
        t.check_invariants();
        assert_eq!(t.len(), 7);
        assert_eq!(t.find(&4), Some(&40));
        assert_eq!(t.find(&7), None);
        assert_eq!(t.remove(&3), Some(30));
        assert_eq!(t.remove(&3), None);
        assert_eq!(t.len(), 6);
        t.check_invariants();
    }

    #[test]
    fn matches_btreemap_under_random_ops() {
        let mut r = Rng::new(21);
        let mut t = AugTree::new(SumAug);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..4000 {
            let k = r.range(200);
            match r.range(3) {
                0 => {
                    let v = r.range(1000);
                    t.insert(k, v);
                    model.insert(k, v);
                }
                1 => {
                    assert_eq!(t.remove(&k), model.remove(&k), "step {step}");
                }
                _ => {
                    assert_eq!(t.find(&k), model.get(&k), "step {step}");
                }
            }
            if step % 500 == 0 {
                t.check_invariants();
                assert_eq!(t.len(), model.len());
                assert_eq!(t.aug(), model.values().sum::<u64>());
            }
        }
        let flat = t.flatten();
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(flat, want);
    }

    #[test]
    fn build_large_and_rank_select() {
        let n = 100_000u64;
        let entries: Vec<(u64, u64)> = (0..n).map(|i| (i * 2, i)).collect();
        let t = AugTree::from_sorted(NoAug, entries);
        assert_eq!(t.len(), n as usize);
        t.check_invariants();
        assert_eq!(t.rank(&100), 50);
        assert_eq!(t.rank(&101), 51);
        assert_eq!(t.select(50), Some((&100, &50)));
        assert_eq!(t.first(), Some((&0, &0)));
        assert_eq!(t.last(), Some((&(2 * (n - 1)), &(n - 1))));
    }

    #[test]
    fn build_dedups_last_wins() {
        let entries = vec![(1u64, 10u64), (2, 20), (1, 11), (3, 30), (2, 22)];
        let t = AugTree::build(NoAug, entries);
        assert_eq!(t.len(), 3);
        assert_eq!(t.find(&1), Some(&11));
        assert_eq!(t.find(&2), Some(&22));
    }

    #[test]
    fn aug_range_max() {
        let entries: Vec<(u64, u64)> = (0..1000).map(|i| (i, (i * 7919) % 1000)).collect();
        let t = AugTree::from_sorted(MaxAug, entries.clone());
        let mut r = Rng::new(3);
        for _ in 0..300 {
            let a = r.range(1000);
            let b = r.range(1000);
            let (lo, hi) = (a.min(b), a.max(b));
            let want = entries
                .iter()
                .filter(|(k, _)| *k >= lo && *k <= hi)
                .map(|(_, v)| *v)
                .max()
                .unwrap_or(0);
            assert_eq!(t.aug_range(&lo, &hi), want, "range [{lo},{hi}]");
        }
        // Prefix and suffix forms.
        assert_eq!(
            t.aug_left(&499),
            entries[..500].iter().map(|e| e.1).max().unwrap()
        );
        assert_eq!(
            t.aug_right(&500),
            entries[500..].iter().map(|e| e.1).max().unwrap()
        );
    }

    #[test]
    fn aug_min_like_t_time() {
        // T_time semantics: keys are start times, values are end times,
        // augmented on minimum end time (Algorithm 2 line 1).
        let entries: Vec<(u64, u64)> = vec![(10, 100), (20, 35), (30, 90), (40, 60)];
        let t = AugTree::build(MinAug, entries);
        assert_eq!(t.aug(), 35);
        assert_eq!(t.aug_range(&25, &45), 60);
    }

    #[test]
    fn union_disjoint_and_overlapping() {
        let a: Vec<(u64, u64)> = (0..5000).map(|i| (2 * i, i)).collect();
        let b: Vec<(u64, u64)> = (0..5000).map(|i| (2 * i + 1, i + 10)).collect();
        let ta = AugTree::from_sorted(SumAug, a.clone());
        let tb = AugTree::from_sorted(SumAug, b);
        let t = ta.union(tb);
        t.check_invariants();
        assert_eq!(t.len(), 10_000);
        // Overlapping union with value combine.
        let ta = AugTree::from_sorted(SumAug, a.clone());
        let tc = AugTree::from_sorted(SumAug, a.iter().map(|&(k, v)| (k, v + 1)).collect());
        let t = ta.union_with(tc, &|x, y| x + y);
        t.check_invariants();
        assert_eq!(t.len(), 5000);
        assert_eq!(t.find(&0), Some(&1));
        assert_eq!(t.find(&4), Some(&(2 + 3)));
    }

    #[test]
    fn intersection_and_difference_match_model() {
        use std::collections::BTreeMap;
        let mut r = Rng::new(55);
        for trial in 0..10 {
            let a: Vec<(u64, u64)> = (0..500).map(|_| (r.range(300), r.range(50))).collect();
            let b: Vec<(u64, u64)> = (0..500).map(|_| (r.range(300), r.range(50))).collect();
            let (ma, mb): (BTreeMap<u64, u64>, BTreeMap<u64, u64>) =
                (a.iter().copied().collect(), b.iter().copied().collect());
            let ta = AugTree::build(SumAug, a.clone());
            let tb = AugTree::build(SumAug, b.clone());
            let ti = ta.intersect_with(tb, &|x, y| x + y);
            ti.check_invariants();
            let want: Vec<(u64, u64)> = ma
                .iter()
                .filter_map(|(k, v)| mb.get(k).map(|w| (*k, v + w)))
                .collect();
            assert_eq!(ti.flatten(), want, "intersect trial {trial}");

            let ta = AugTree::build(SumAug, a.clone());
            let tb = AugTree::build(SumAug, b.clone());
            let td = ta.difference(tb);
            td.check_invariants();
            let want: Vec<(u64, u64)> = ma
                .iter()
                .filter(|(k, _)| !mb.contains_key(k))
                .map(|(&k, &v)| (k, v))
                .collect();
            assert_eq!(td.flatten(), want, "difference trial {trial}");
        }
    }

    #[test]
    fn clone_is_deep() {
        let mut t = AugTree::build(SumAug, (0..100u64).map(|i| (i, i)).collect());
        let snapshot = t.clone();
        t.insert(1000, 1);
        t.remove(&5);
        assert_eq!(snapshot.len(), 100);
        assert_eq!(snapshot.find(&5), Some(&5));
        assert_eq!(snapshot.find(&1000), None);
        snapshot.check_invariants();
    }

    #[test]
    fn disjoint_intersection_is_empty() {
        let ta = AugTree::build(NoAug, (0..100u64).map(|i| (2 * i, ())).collect());
        let tb = AugTree::build(NoAug, (0..100u64).map(|i| (2 * i + 1, ())).collect());
        let ti = ta.intersect_with(tb, &|_, _| ());
        assert!(ti.is_empty());
    }

    #[test]
    fn multi_insert_and_delete() {
        let mut t = AugTree::build(SumAug, (0..1000u64).map(|i| (i, 1u64)).collect());
        t.multi_insert((1000..2000u64).map(|i| (i, 2u64)).collect());
        assert_eq!(t.len(), 2000);
        assert_eq!(t.aug(), 1000 + 2000);
        t.check_invariants();
        t.multi_delete((0..2000u64).step_by(2).collect());
        assert_eq!(t.len(), 1000);
        t.check_invariants();
        assert_eq!(t.find(&0), None);
        assert_eq!(t.find(&1), Some(&1));
    }

    #[test]
    fn multi_find() {
        let t = AugTree::build(NoAug, (0..100u64).map(|i| (i * 3, i)).collect());
        let found = t.multi_find(vec![0, 1, 3, 9, 300, 297]);
        assert_eq!(found, vec![(0, 0), (3, 1), (9, 3), (297, 99)]);
    }

    #[test]
    fn prev_next() {
        let t = AugTree::build(NoAug, vec![(10u64, 0u64), (20, 1), (30, 2)]);
        assert_eq!(t.prev(&25).map(|(k, _)| *k), Some(20));
        assert_eq!(t.prev(&20).map(|(k, _)| *k), Some(20));
        assert_eq!(t.prev(&5), None);
        assert_eq!(t.next(&25).map(|(k, _)| *k), Some(30));
        assert_eq!(t.next(&31), None);
    }

    #[test]
    fn split_at() {
        let t = AugTree::build(SumAug, (0..100u64).map(|i| (i, i)).collect());
        let (l, found, r) = t.split_at(&50);
        assert_eq!(found, Some(50));
        assert_eq!(l.len(), 50);
        assert_eq!(r.len(), 49);
        l.check_invariants();
        r.check_invariants();
        assert_eq!(l.aug(), (0..50).sum::<u64>());
        assert_eq!(r.aug(), (51..100).sum::<u64>());
    }

    #[test]
    fn range_entries() {
        let t = AugTree::build(NoAug, (0..50u64).map(|i| (i, i * i)).collect());
        let got = t.range_entries(&10, &14);
        let want: Vec<(u64, u64)> = (10..=14).map(|i| (i, i * i)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_tree_ops() {
        let t: AugTree<u64, u64, SumAug> = AugTree::new(SumAug);
        assert!(t.is_empty());
        assert_eq!(t.aug(), 0);
        assert_eq!(t.find(&1), None);
        assert_eq!(t.first(), None);
        assert_eq!(t.flatten(), vec![]);
        assert_eq!(t.aug_range(&0, &100), 0);
    }
}
