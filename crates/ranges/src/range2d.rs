//! The augmented 2D range tree of the parallel LIS algorithm (Algorithm 3).
//!
//! Points live at coordinates `(x, y)` where `x` is the object's index in
//! the input (exactly `0..n`, one point per index) and `y` is its *y-slot*:
//! the object's rank in value order (a permutation of `0..n`, computed by
//! the caller so that ties are broken the way the problem requires).
//!
//! Every point is either **unfinished** (its DP value is still `+∞` in the
//! paper's terms) or **finished** with a concrete DP value. The tree
//! answers, for a *prefix rectangle* `[0, qx) × [0, qy)`:
//!
//! * the number of unfinished points (`n∞` in Algorithm 3),
//! * the maximum DP value among finished points (`dp*`),
//! * a **pivot** among the unfinished points (`x*`): either uniformly at
//!   random (the analyzed strategy, Lemma 5.5) or the right-most
//!   unfinished point (the practical heuristic of §6.4),
//!
//! and supports parallel batch *finish* updates. Queries are
//! `O(log^2 n)`; a batch of `m` finishes costs `O(m log^2 n)` work and
//! `O(log^2 n)` span — the bounds used in the proof of Theorem 5.6.
//!
//! # Layout
//!
//! A static outer tree over `x`-ranges (recursive array layout, like
//! [`crate::segtree`]); each internal node stores the y-slots of its
//! points in sorted order plus an inner segment tree of `Aug`
//! aggregates over them (a merge-sort tree). Outer recursion stops at
//! buckets of [`LEAF_SIZE`] points, which are answered by scanning —
//! the "nested arrays for locality" engineering noted in §6.4.

use pp_parlay::merge::par_merge_by;
use pp_parlay::rng::Rng;
use rayon::prelude::*;

/// Bucket size at which the outer recursion stops.
pub const LEAF_SIZE: usize = 64;

/// Sentinel for "no unfinished point".
const NONE_X: u32 = u32::MAX;

// The pivot-strategy enum lives with the rest of the unified solver
// vocabulary in the framework crate; re-exported here because the range
// trees consume it.
pub use phase_parallel::PivotMode;

/// Aggregate over a set of points: unfinished count, max finished DP
/// value, and max index among unfinished points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Aug {
    /// Number of unfinished points.
    cnt: u32,
    /// Maximum DP value among finished points (0 if none; DP values
    /// stored here are offset by +1 so "no finished point" and
    /// "finished with dp 0" stay distinguishable).
    dp1: u32,
    /// Maximum x among unfinished points (`NONE_X` if `cnt == 0`).
    maxx: u32,
}

impl Aug {
    const IDENTITY: Aug = Aug {
        cnt: 0,
        dp1: 0,
        maxx: NONE_X,
    };

    #[inline]
    fn combine(a: Aug, b: Aug) -> Aug {
        Aug {
            cnt: a.cnt + b.cnt,
            dp1: a.dp1.max(b.dp1),
            maxx: if a.cnt == 0 {
                b.maxx
            } else if b.cnt == 0 {
                a.maxx
            } else {
                a.maxx.max(b.maxx)
            },
        }
    }

    #[inline]
    fn unfinished(x: u32) -> Aug {
        Aug {
            cnt: 1,
            dp1: 0,
            maxx: x,
        }
    }

    #[inline]
    fn finished(dp: u32) -> Aug {
        Aug {
            cnt: 0,
            dp1: dp + 1,
            maxx: NONE_X,
        }
    }
}

/// Result of a prefix-rectangle query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefixInfo {
    /// Number of unfinished points in the rectangle.
    pub unfinished: u32,
    /// Maximum DP value among finished points, if any point is finished.
    pub max_dp: Option<u32>,
    /// Largest index among unfinished points, if any.
    pub maxx_unfinished: Option<u32>,
}

struct Node {
    /// x-range `[lo, hi)` of points under this node.
    lo: u32,
    hi: u32,
    /// Size of the left subtree in nodes (0 for leaf buckets); the left
    /// child is at `self + 1`, the right at `self + 1 + lsize`.
    lsize: u32,
    /// Internal: y-slots of points in `[lo, hi)`, ascending.
    ys: Vec<u32>,
    /// Internal: inner segment tree (recursive layout, `2m - 1` slots)
    /// of aggregates over `ys`. Empty for leaf buckets.
    seg: Vec<Aug>,
}

impl Node {
    #[inline]
    fn is_leaf(&self) -> bool {
        self.lsize == 0
    }
}

impl Clone for Node {
    fn clone(&self) -> Self {
        Self {
            lo: self.lo,
            hi: self.hi,
            lsize: self.lsize,
            ys: self.ys.clone(),
            seg: self.seg.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        (self.lo, self.hi, self.lsize) = (src.lo, src.hi, src.lsize);
        self.ys.clone_from(&src.ys);
        self.seg.clone_from(&src.seg);
    }
}

/// The augmented 2D range tree. See the module docs.
///
/// `clone_from` reuses the target's allocations, so refreshing a
/// per-query copy from one prepared tree allocates nothing once the
/// copy has the same shape.
pub struct RangeTree2d {
    n: usize,
    mode: PivotMode,
    nodes: Vec<Node>,
    /// Point state, indexed by x.
    finished: Vec<bool>,
    dp: Vec<u32>,
    /// y-slot of each x.
    y_of_x: Vec<u32>,
    /// x of each y-slot (inverse permutation).
    x_of_y: Vec<u32>,
}

impl RangeTree2d {
    /// Build a tree over `n = ys.len()` points, point `x` at y-slot
    /// `ys[x]`. `ys` must be a permutation of `0..n`. All points start
    /// unfinished. `O(n log n)` work, `O(log^2 n)` span.
    pub fn new(ys: &[u32], mode: PivotMode) -> Self {
        let n = ys.len();
        let mut x_of_y = vec![NONE_X; n];
        for (x, &y) in ys.iter().enumerate() {
            assert!((y as usize) < n, "y-slot {y} out of range");
            assert_eq!(x_of_y[y as usize], NONE_X, "duplicate y-slot {y}");
            x_of_y[y as usize] = x as u32;
        }
        let mut nodes = Vec::new();
        if n > 0 {
            let (built, _pairs) = build(0, n as u32, ys);
            nodes = built;
        }
        Self {
            n,
            mode,
            nodes,
            finished: vec![false; n],
            dp: vec![0; n],
            y_of_x: ys.to_vec(),
            x_of_y,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True iff the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Switch the pivot strategy of later [`RangeTree2d::select_pivot`]
    /// calls. The mode is a query setting: a tree prepared once serves
    /// copies queried in either mode.
    pub fn set_pivot_mode(&mut self, mode: PivotMode) {
        self.mode = mode;
    }

    /// Total number of unfinished points.
    pub fn unfinished_total(&self) -> usize {
        if self.n == 0 {
            0
        } else if self.nodes[0].is_leaf() {
            self.finished.iter().filter(|&&f| !f).count()
        } else {
            self.nodes[0].seg[0].cnt as usize
        }
    }

    /// Aggregate information over the prefix rectangle
    /// `[0, qx) × [0, qy)`. `O(log^2 n)`.
    pub fn query_prefix(&self, qx: u32, qy: u32) -> PrefixInfo {
        let mut acc = Aug::IDENTITY;
        if self.n > 0 && qx > 0 && qy > 0 {
            self.query_rec(0, qx, qy, &mut acc);
        }
        PrefixInfo {
            unfinished: acc.cnt,
            max_dp: if acc.dp1 > 0 { Some(acc.dp1 - 1) } else { None },
            maxx_unfinished: if acc.cnt > 0 { Some(acc.maxx) } else { None },
        }
    }

    /// Pick a pivot among the unfinished points in `[0, qx) × [0, qy)`,
    /// according to the tree's [`PivotMode`]. Returns `None` if the
    /// rectangle has no unfinished point. `O(log^2 n)`.
    pub fn select_pivot(&self, qx: u32, qy: u32, rng: &mut Rng) -> Option<u32> {
        if self.n == 0 || qx == 0 || qy == 0 {
            return None;
        }
        match self.mode {
            PivotMode::RightMost => self.query_prefix(qx, qy).maxx_unfinished,
            PivotMode::Random => {
                // Decompose the rectangle into pieces, then draw a point
                // weighted by each piece's unfinished count.
                let mut pieces: Vec<Piece> = Vec::with_capacity(32);
                self.decompose(0, qx, qy, &mut pieces);
                let total: u64 = pieces.iter().map(|p| p.cnt as u64).sum();
                if total == 0 {
                    return None;
                }
                let mut t = rng.range(total);
                for p in &pieces {
                    if t < p.cnt as u64 {
                        return Some(match p.kind {
                            PieceKind::LeafPoint(x) => x,
                            PieceKind::SegPrefix { node, k } => {
                                self.select_in_seg(node as usize, k, t as u32)
                            }
                        });
                    }
                    t -= p.cnt as u64;
                }
                unreachable!("weighted draw out of range")
            }
        }
    }

    /// Mark a batch of points finished with their DP values. Points must
    /// be distinct and currently unfinished. `O(m log^2 n)` work,
    /// `O(log^2 n)` span.
    pub fn finish_batch(&mut self, items: &[(u32, u32)]) {
        if items.is_empty() {
            return;
        }
        let mut batch: Vec<(u32, u32)> = items.to_vec();
        batch.sort_unstable_by_key(|&(x, _)| x);
        debug_assert!(batch.windows(2).all(|w| w[0].0 < w[1].0), "duplicate x");
        // Update global point state (disjoint slots).
        for &(x, dp) in &batch {
            debug_assert!(!self.finished[x as usize], "point {x} already finished");
            self.finished[x as usize] = true;
            self.dp[x as usize] = dp;
        }
        if !self.nodes.is_empty() {
            update_rec(&mut self.nodes[..], 0, &batch, &self.y_of_x);
        }
    }

    // ---- internals ----

    fn query_rec(&self, idx: usize, qx: u32, qy: u32, acc: &mut Aug) {
        let node = &self.nodes[idx];
        if qx <= node.lo {
            return;
        }
        if node.is_leaf() {
            // Scan the bucket against the live point state.
            for x in node.lo..node.hi.min(qx) {
                if self.y_of_x[x as usize] < qy {
                    let a = if self.finished[x as usize] {
                        Aug::finished(self.dp[x as usize])
                    } else {
                        Aug::unfinished(x)
                    };
                    *acc = Aug::combine(*acc, a);
                }
            }
            return;
        }
        if qx >= node.hi {
            // Fully covered in x: aggregate the y-prefix via the inner tree.
            let k = node.ys.partition_point(|&y| y < qy);
            if k > 0 {
                let m = node.ys.len();
                let mut piece = Aug::IDENTITY;
                seg_prefix(&node.seg, 0, m, k, &mut piece);
                *acc = Aug::combine(*acc, piece);
            }
            return;
        }
        let mid = (node.lo + node.hi) / 2;
        self.query_rec(idx + 1, qx, qy, acc);
        if qx > mid {
            self.query_rec(idx + 1 + node.lsize as usize, qx, qy, acc);
        }
    }

    /// Decompose the rectangle into weighted pieces for random selection.
    fn decompose(&self, idx: usize, qx: u32, qy: u32, pieces: &mut Vec<Piece>) {
        let node = &self.nodes[idx];
        if qx <= node.lo {
            return;
        }
        if node.is_leaf() {
            for x in node.lo..node.hi.min(qx) {
                if self.y_of_x[x as usize] < qy && !self.finished[x as usize] {
                    pieces.push(Piece {
                        cnt: 1,
                        kind: PieceKind::LeafPoint(x),
                    });
                }
            }
            return;
        }
        if qx >= node.hi {
            let k = node.ys.partition_point(|&y| y < qy);
            if k > 0 {
                let mut agg = Aug::IDENTITY;
                seg_prefix(&node.seg, 0, node.ys.len(), k, &mut agg);
                if agg.cnt > 0 {
                    pieces.push(Piece {
                        cnt: agg.cnt,
                        kind: PieceKind::SegPrefix {
                            node: idx as u32,
                            k: k as u32,
                        },
                    });
                }
            }
            return;
        }
        let mid = (node.lo + node.hi) / 2;
        self.decompose(idx + 1, qx, qy, pieces);
        if qx > mid {
            self.decompose(idx + 1 + node.lsize as usize, qx, qy, pieces);
        }
    }

    /// Return the x of the `t`-th (0-based) unfinished point among the
    /// first `k` y-ordered points of internal node `idx`.
    fn select_in_seg(&self, idx: usize, k: u32, t: u32) -> u32 {
        let node = &self.nodes[idx];
        let m = node.ys.len();
        let pos = seg_select(&node.seg, 0, m, k as usize, t);
        self.x_of_y[node.ys[pos] as usize]
    }
}

impl Clone for RangeTree2d {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            mode: self.mode,
            nodes: self.nodes.clone(),
            finished: self.finished.clone(),
            dp: self.dp.clone(),
            y_of_x: self.y_of_x.clone(),
            x_of_y: self.x_of_y.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        (self.n, self.mode) = (src.n, src.mode);
        self.nodes.clone_from(&src.nodes);
        self.finished.clone_from(&src.finished);
        self.dp.clone_from(&src.dp);
        self.y_of_x.clone_from(&src.y_of_x);
        self.x_of_y.clone_from(&src.x_of_y);
    }
}

struct Piece {
    cnt: u32,
    kind: PieceKind,
}

enum PieceKind {
    LeafPoint(u32),
    SegPrefix { node: u32, k: u32 },
}

/// Recursive build: returns the subtree's nodes (recursive layout) and
/// its `(y, x)` pairs sorted by y.
fn build(lo: u32, hi: u32, y_of_x: &[u32]) -> (Vec<Node>, Vec<(u32, u32)>) {
    let size = (hi - lo) as usize;
    if size <= LEAF_SIZE {
        let mut pairs: Vec<(u32, u32)> = (lo..hi).map(|x| (y_of_x[x as usize], x)).collect();
        pairs.sort_unstable();
        let node = Node {
            lo,
            hi,
            lsize: 0,
            ys: Vec::new(),
            seg: Vec::new(),
        };
        return (vec![node], pairs);
    }
    let mid = (lo + hi) / 2;
    let ((lnodes, lpairs), (rnodes, rpairs)) =
        rayon::join(|| build(lo, mid, y_of_x), || build(mid, hi, y_of_x));
    let mut pairs = vec![(0u32, 0u32); lpairs.len() + rpairs.len()];
    par_merge_by(&lpairs, &rpairs, &mut pairs, &|a, b| a.0 < b.0);
    let ys: Vec<u32> = pairs.par_iter().map(|&(y, _)| y).collect();
    let m = pairs.len();
    let mut seg = vec![Aug::IDENTITY; 2 * m - 1];
    build_seg(&mut seg, &pairs);
    let mut nodes = Vec::with_capacity(1 + lnodes.len() + rnodes.len());
    nodes.push(Node {
        lo,
        hi,
        lsize: lnodes.len() as u32,
        ys,
        seg,
    });
    nodes.extend(lnodes);
    nodes.extend(rnodes);
    (nodes, pairs)
}

/// Build the inner segment tree over y-ordered pairs (all unfinished).
fn build_seg(seg: &mut [Aug], pairs: &[(u32, u32)]) {
    let m = pairs.len();
    if m == 1 {
        seg[0] = Aug::unfinished(pairs[0].1);
        return;
    }
    let mid = m / 2;
    let lsize = 2 * mid - 1;
    let (node, rest) = seg.split_first_mut().unwrap();
    let (lseg, rseg) = rest.split_at_mut(lsize);
    let (lp, rp) = pairs.split_at(mid);
    if m > 2048 {
        rayon::join(|| build_seg(lseg, lp), || build_seg(rseg, rp));
    } else {
        build_seg(lseg, lp);
        build_seg(rseg, rp);
    }
    *node = Aug::combine(lseg[0], rseg[0]);
}

/// Aggregate the first `k` of the `[lo, hi)` leaves into `acc`.
fn seg_prefix(seg: &[Aug], lo: usize, hi: usize, k: usize, acc: &mut Aug) {
    if k <= lo {
        return;
    }
    if k >= hi {
        *acc = Aug::combine(*acc, seg[0]);
        return;
    }
    let mid = (lo + hi) / 2;
    let lsize = 2 * (mid - lo) - 1;
    seg_prefix(&seg[1..1 + lsize], lo, mid, k, acc);
    if k > mid {
        seg_prefix(&seg[1 + lsize..], mid, hi, k, acc);
    }
}

/// Position (in `[lo, hi)`) of the `t`-th unfinished leaf among the first
/// `k` leaves. Caller guarantees `t < cnt(prefix k)`.
fn seg_select(seg: &[Aug], lo: usize, hi: usize, k: usize, t: u32) -> usize {
    if hi - lo == 1 {
        debug_assert!(t == 0 && seg[0].cnt == 1);
        return lo;
    }
    let mid = (lo + hi) / 2;
    let lsize = 2 * (mid - lo) - 1;
    let lseg = &seg[1..1 + lsize];
    let rseg = &seg[1 + lsize..];
    let lcnt = if k >= mid {
        lseg[0].cnt
    } else {
        let mut a = Aug::IDENTITY;
        seg_prefix(lseg, lo, mid, k, &mut a);
        a.cnt
    };
    if t < lcnt {
        seg_select(lseg, lo, mid, k, t)
    } else {
        seg_select(rseg, mid, hi, k, t - lcnt)
    }
}

/// Batch update of the outer tree: mark `batch` (sorted by x) finished.
fn update_rec(nodes: &mut [Node], idx: usize, batch: &[(u32, u32)], y_of_x: &[u32]) {
    if batch.is_empty() {
        return;
    }
    // Split borrow: the node being updated vs its subtrees.
    let (node, rest) = {
        let (head, tail) = nodes[idx..].split_first_mut().unwrap();
        (head, tail)
    };
    if node.is_leaf() {
        return; // Leaf buckets read live state; nothing cached here.
    }
    // Inner update: positions of the batch points in this node's y-order.
    let mut inner: Vec<(usize, Aug)> = batch
        .iter()
        .map(|&(x, dp)| {
            let y = y_of_x[x as usize];
            let pos = node.ys.partition_point(|&v| v < y);
            debug_assert!(node.ys[pos] == y);
            (pos, Aug::finished(dp))
        })
        .collect();
    inner.sort_unstable_by_key(|&(p, _)| p);
    let m = node.ys.len();
    seg_batch(&mut node.seg, 0, m, &inner);
    // Recurse into children with the batch split at mid.
    let mid = (node.lo + node.hi) / 2;
    let split = batch.partition_point(|&(x, _)| x < mid);
    let (lb, rb) = batch.split_at(split);
    let lsize = node.lsize as usize;
    let (lhalf, rhalf) = rest.split_at_mut(lsize);
    if batch.len() > 256 {
        rayon::join(
            || update_rec(lhalf, 0, lb, y_of_x),
            || update_rec(rhalf, 0, rb, y_of_x),
        );
    } else {
        update_rec(lhalf, 0, lb, y_of_x);
        update_rec(rhalf, 0, rb, y_of_x);
    }
}

/// Batch point update on an inner segment tree (positions sorted).
fn seg_batch(seg: &mut [Aug], lo: usize, hi: usize, ups: &[(usize, Aug)]) {
    if ups.is_empty() {
        return;
    }
    if hi - lo == 1 {
        debug_assert_eq!(ups.len(), 1);
        seg[0] = ups[0].1;
        return;
    }
    let mid = (lo + hi) / 2;
    let lsize = 2 * (mid - lo) - 1;
    let (node, rest) = seg.split_first_mut().unwrap();
    let (lseg, rseg) = rest.split_at_mut(lsize);
    let split = ups.partition_point(|&(p, _)| p < mid);
    let (lu, ru) = ups.split_at(split);
    if ups.len() > 512 {
        rayon::join(
            || seg_batch(lseg, lo, mid, lu),
            || seg_batch(rseg, mid, hi, ru),
        );
    } else {
        seg_batch(lseg, lo, mid, lu);
        seg_batch(rseg, mid, hi, ru);
    }
    *node = Aug::combine(lseg[0], rseg[0]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_parlay::shuffle::random_permutation;

    /// Brute-force oracle mirroring the tree's semantics.
    struct Oracle {
        ys: Vec<u32>,
        finished: Vec<bool>,
        dp: Vec<u32>,
    }

    impl Oracle {
        fn new(ys: &[u32]) -> Self {
            Self {
                ys: ys.to_vec(),
                finished: vec![false; ys.len()],
                dp: vec![0; ys.len()],
            }
        }
        fn query(&self, qx: u32, qy: u32) -> PrefixInfo {
            let mut unfinished = 0u32;
            let mut max_dp = None;
            let mut maxx = None;
            for x in 0..(qx as usize).min(self.ys.len()) {
                if self.ys[x] < qy {
                    if self.finished[x] {
                        max_dp = Some(max_dp.map_or(self.dp[x], |m: u32| m.max(self.dp[x])));
                    } else {
                        unfinished += 1;
                        maxx = Some(maxx.map_or(x as u32, |m: u32| m.max(x as u32)));
                    }
                }
            }
            PrefixInfo {
                unfinished,
                max_dp,
                maxx_unfinished: maxx,
            }
        }
        fn unfinished_in(&self, qx: u32, qy: u32) -> Vec<u32> {
            (0..(qx as usize).min(self.ys.len()))
                .filter(|&x| self.ys[x] < qy && !self.finished[x])
                .map(|x| x as u32)
                .collect()
        }
    }

    fn check_against_oracle(n: usize, seed: u64, mode: PivotMode) {
        let ys_perm = random_permutation(n, seed);
        let mut tree = RangeTree2d::new(&ys_perm, mode);
        let mut oracle = Oracle::new(&ys_perm);
        let mut rng = Rng::new(seed ^ 0xABCD);
        let mut unfinished: Vec<u32> = (0..n as u32).collect();
        let mut round = 0u32;
        while !unfinished.is_empty() {
            // Random queries against the oracle.
            for _ in 0..20 {
                let qx = rng.range(n as u64 + 1) as u32;
                let qy = rng.range(n as u64 + 1) as u32;
                assert_eq!(tree.query_prefix(qx, qy), oracle.query(qx, qy));
                let pivot = tree.select_pivot(qx, qy, &mut rng);
                let candidates = oracle.unfinished_in(qx, qy);
                match pivot {
                    None => assert!(candidates.is_empty()),
                    Some(p) => {
                        assert!(candidates.contains(&p), "pivot {p} not a candidate");
                        if mode == PivotMode::RightMost {
                            assert_eq!(p, *candidates.iter().max().unwrap());
                        }
                    }
                }
            }
            // Finish a random batch.
            let take = (rng.range(unfinished.len() as u64) + 1) as usize;
            let batch: Vec<(u32, u32)> = unfinished
                .drain(..take.min(unfinished.len()))
                .map(|x| (x, round * 10 + x % 7))
                .collect();
            for &(x, d) in &batch {
                oracle.finished[x as usize] = true;
                oracle.dp[x as usize] = d;
            }
            tree.finish_batch(&batch);
            round += 1;
        }
        assert_eq!(tree.unfinished_total(), 0);
    }

    #[test]
    fn matches_oracle_small() {
        check_against_oracle(10, 1, PivotMode::RightMost);
        check_against_oracle(10, 2, PivotMode::Random);
    }

    #[test]
    fn matches_oracle_medium() {
        check_against_oracle(300, 3, PivotMode::RightMost);
        check_against_oracle(300, 4, PivotMode::Random);
    }

    #[test]
    fn matches_oracle_spanning_leaves() {
        // Sizes around the LEAF_SIZE boundary and above.
        check_against_oracle(LEAF_SIZE, 5, PivotMode::RightMost);
        check_against_oracle(LEAF_SIZE + 1, 6, PivotMode::Random);
        check_against_oracle(4 * LEAF_SIZE + 3, 7, PivotMode::RightMost);
        check_against_oracle(1000, 8, PivotMode::Random);
    }

    #[test]
    fn refreshed_copies_take_the_query_pivot_mode() {
        crate::layered::testing::check_refresh::<RangeTree2d>(300, 1);
    }

    #[test]
    fn empty_tree() {
        let tree = RangeTree2d::new(&[], PivotMode::Random);
        assert!(tree.is_empty());
        assert_eq!(tree.unfinished_total(), 0);
        let info = tree.query_prefix(0, 0);
        assert_eq!(info.unfinished, 0);
        assert_eq!(info.max_dp, None);
    }

    #[test]
    fn random_pivot_is_roughly_uniform() {
        // All n points unfinished; pivot over the full rectangle should be
        // close to uniform.
        let n = 64usize;
        let ys = random_permutation(n, 9);
        let tree = RangeTree2d::new(&ys, PivotMode::Random);
        let mut rng = Rng::new(10);
        let trials = 64_000;
        let mut counts = vec![0usize; n];
        for _ in 0..trials {
            let p = tree
                .select_pivot(n as u32, n as u32, &mut rng)
                .expect("some pivot");
            counts[p as usize] += 1;
        }
        let expected = trials / n;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > expected / 2 && c < expected * 2,
                "point {i}: count {c}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn finish_updates_visible() {
        let n = 200usize;
        let ys: Vec<u32> = (0..n as u32).collect(); // identity: y == x
        let mut tree = RangeTree2d::new(&ys, PivotMode::RightMost);
        // Finish evens with dp = x.
        let batch: Vec<(u32, u32)> = (0..n as u32).step_by(2).map(|x| (x, x)).collect();
        tree.finish_batch(&batch);
        let info = tree.query_prefix(n as u32, n as u32);
        assert_eq!(info.unfinished as usize, n / 2);
        assert_eq!(info.max_dp, Some(n as u32 - 2));
        assert_eq!(info.maxx_unfinished, Some(n as u32 - 1));
        // Rectangle excluding the top half by y.
        let info = tree.query_prefix(n as u32, (n / 2) as u32);
        assert_eq!(info.unfinished as usize, n / 4);
        assert_eq!(info.max_dp, Some((n / 2) as u32 - 2));
    }

    #[test]
    fn dp_zero_distinguished_from_no_points() {
        let ys = vec![0u32, 1];
        let mut tree = RangeTree2d::new(&ys, PivotMode::Random);
        tree.finish_batch(&[(0, 0)]);
        let info = tree.query_prefix(1, 1);
        assert_eq!(info.max_dp, Some(0), "finished with dp 0 must be visible");
        let info = tree.query_prefix(2, 2);
        assert_eq!(info.unfinished, 1);
    }
}
