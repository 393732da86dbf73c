//! Dominance range trees in any dimension, one range-tree level per
//! coordinate: the structure behind the longest-chain and 2D-grid
//! Whac-A-Mole extensions (Appendix B: "the problem requires a 3D range
//! query, which adds up an extra `O(log n)` factor to both work and
//! span").
//!
//! A [`Dominance`] tree holds points with `DIM` coordinates, each
//! pre-compressed by the caller to a distinct slot in `0..n`. It answers
//! prefix-box queries `[0, q[0]) × … × [0, q[DIM − 1])` with the same
//! aggregate as [`crate::range2d`] — (#unfinished, max finished DP,
//! pivot among unfinished) — and supports batch finishes.
//! [`RangeTree2d`] is the two-coordinate base case; [`Layered`] adds one
//! coordinate on top of any dominance tree, so
//! `Layered<RangeTree2d>` is the 3D tree and
//! `Layered<Layered<RangeTree2d>>` the 4D one.
//!
//! Layout of [`Layered`]: a static outer tree over the first coordinate;
//! every internal node owns a full inner tree over its points keyed by
//! their local ranks in the other coordinates. Queries decompose the
//! first-coordinate prefix into `O(log n)` nodes and run an inner query
//! in each — `O(log^d n)` per operation and `O(n log^(d−1) n)` space for
//! `d` coordinates. Small outer leaves are answered by scanning, as in
//! the 2D structure.

use crate::range2d::{PivotMode, PrefixInfo, RangeTree2d};
use pp_parlay::rng::Rng;

/// Outer bucket size; leaves are scanned directly.
const LEAF_SIZE: usize = 64;

/// Most coordinates a [`Layered`] tree takes (the 4D tree). Its queries
/// rank their bounds into stack buffers of [`Local`] bounds.
const MAX_DIM: usize = 4;

/// A box ranked into an internal node's local slots: the bounds for its
/// inner tree, in the first `DIM − 1` entries.
type Local = [u32; MAX_DIM - 1];

/// A static dominance range tree over points `0..n` with
/// [`Self::DIM`] slot coordinates each. Every point starts unfinished;
/// finishing it records its DP value.
pub trait Dominance: Clone + Send + Sync {
    /// Number of coordinates per point (and bounds per query).
    const DIM: usize;

    /// Build over points `0..n`: point `x` sits at slot `x` of the first
    /// coordinate and at slot `rest[j][x]` of coordinate `j + 1`. Each
    /// of the `DIM − 1` slices in `rest` is a permutation of `0..n`.
    fn build(rest: &[&[u32]], mode: PivotMode) -> Self;

    /// Aggregate over the prefix box `[0, q[0]) × … × [0, q[DIM − 1])`.
    fn query_prefix(&self, q: &[u32]) -> PrefixInfo;

    /// Pick a pivot among the unfinished points of the box, according
    /// to the tree's [`PivotMode`]; `None` if it has none.
    fn select_pivot(&self, q: &[u32], rng: &mut Rng) -> Option<u32>;

    /// Switch the [`PivotMode`] of later `select_pivot` calls, in every
    /// nested tree. The mode a tree is built with is only its default:
    /// one prepared tree serves copies queried in either mode.
    fn set_pivot_mode(&mut self, mode: PivotMode);

    /// Mark a batch of distinct, unfinished points finished with their
    /// DP values: `(point, dp)` pairs.
    fn finish_batch(&mut self, items: &[(u32, u32)]);
}

impl Dominance for RangeTree2d {
    const DIM: usize = 2;

    fn build(rest: &[&[u32]], mode: PivotMode) -> Self {
        RangeTree2d::new(rest[0], mode)
    }

    #[inline]
    fn query_prefix(&self, q: &[u32]) -> PrefixInfo {
        RangeTree2d::query_prefix(self, q[0], q[1])
    }

    fn select_pivot(&self, q: &[u32], rng: &mut Rng) -> Option<u32> {
        RangeTree2d::select_pivot(self, q[0], q[1], rng)
    }

    fn set_pivot_mode(&mut self, mode: PivotMode) {
        RangeTree2d::set_pivot_mode(self, mode)
    }

    fn finish_batch(&mut self, items: &[(u32, u32)]) {
        RangeTree2d::finish_batch(self, items)
    }
}

struct Node<I> {
    /// First-coordinate slot range `[lo, hi)` of points under this node.
    lo: u32,
    hi: u32,
    /// Left subtree node count (0 = leaf bucket).
    lsize: u32,
    /// Internal: point ids in second-coordinate order; position `x` is
    /// point `x` of the inner tree.
    ids: Vec<u32>,
    /// Internal: the node's global slots in coordinates `1..DIM`, each
    /// sorted ascending, concatenated (coordinate `j + 1` at
    /// `[j * m, (j + 1) * m)` for `m` points).
    sorted: Vec<u32>,
    /// Internal: tree over the points' local ranks in coordinates
    /// `1..DIM`.
    inner: Option<I>,
}

impl<I: Clone> Clone for Node<I> {
    fn clone(&self) -> Self {
        Self {
            lo: self.lo,
            hi: self.hi,
            lsize: self.lsize,
            ids: self.ids.clone(),
            sorted: self.sorted.clone(),
            inner: self.inner.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        (self.lo, self.hi, self.lsize) = (src.lo, src.hi, src.lsize);
        self.ids.clone_from(&src.ids);
        self.sorted.clone_from(&src.sorted);
        self.inner.clone_from(&src.inner);
    }
}

impl<I: Dominance> Node<I> {
    fn is_leaf(&self) -> bool {
        self.lsize == 0
    }

    fn inner(&self) -> &I {
        self.inner.as_ref().expect("internal node")
    }

    /// Rank the bounds `q[1..]` into this internal node's local slots,
    /// writing them to `local[..DIM − 1]`; false if the local box is
    /// empty.
    #[inline]
    fn local_bounds(&self, q: &[u32], local: &mut Local) -> bool {
        let m = self.ids.len();
        for (j, &bound) in q[1..].iter().enumerate() {
            let k = self.sorted[j * m..(j + 1) * m].partition_point(|&x| x < bound);
            if k == 0 {
                return false;
            }
            local[j] = k as u32;
        }
        true
    }
}

/// One more dominance coordinate on top of the inner tree `I`: the outer
/// tree runs over the first coordinate, and each internal node owns an
/// `I` over the rest. See the module docs.
///
/// `clone_from` reuses the target's allocations at every level, so a
/// per-query copy refreshed from one prepared tree allocates nothing
/// once the copy has the same shape.
pub struct Layered<I> {
    n: usize,
    nodes: Vec<Node<I>>,
    /// Point id at each first-coordinate slot (inverse of the first
    /// coordinate).
    id_of_a: Vec<u32>,
    a_of_id: Vec<u32>,
    /// Slots in coordinates `1..DIM` of the point at each
    /// first-coordinate slot, `DIM − 1` per point.
    rest_by_a: Vec<u32>,
    finished: Vec<bool>,
    dp: Vec<u32>,
    mode: PivotMode,
}

impl<I: Clone> Clone for Layered<I> {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            nodes: self.nodes.clone(),
            id_of_a: self.id_of_a.clone(),
            a_of_id: self.a_of_id.clone(),
            rest_by_a: self.rest_by_a.clone(),
            finished: self.finished.clone(),
            dp: self.dp.clone(),
            mode: self.mode,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        (self.n, self.mode) = (src.n, src.mode);
        self.nodes.clone_from(&src.nodes);
        self.id_of_a.clone_from(&src.id_of_a);
        self.a_of_id.clone_from(&src.a_of_id);
        self.rest_by_a.clone_from(&src.rest_by_a);
        self.finished.clone_from(&src.finished);
        self.dp.clone_from(&src.dp);
    }
}

impl<I: Dominance> Layered<I> {
    /// Build over `n` points, point `i` at slot `slots[j][i]` of
    /// coordinate `j`. Takes `DIM` slices, each a permutation of `0..n`.
    pub fn new(slots: &[&[u32]], mode: PivotMode) -> Self {
        let k = I::DIM;
        assert_eq!(slots.len(), k + 1, "one slot array per coordinate");
        assert!(k < MAX_DIM, "at most {MAX_DIM} coordinates");
        let (a, rest) = slots.split_first().expect("at least one coordinate");
        let n = a.len();
        let mut id_of_a = vec![u32::MAX; n];
        for (i, &s) in a.iter().enumerate() {
            assert!((s as usize) < n && id_of_a[s as usize] == u32::MAX);
            id_of_a[s as usize] = i as u32;
        }
        assert!(rest.iter().all(|coord| coord.len() == n));
        let mut rest_by_a = Vec::with_capacity(n * k);
        for &id in &id_of_a {
            rest_by_a.extend(rest.iter().map(|coord| coord[id as usize]));
        }
        let mut nodes = Vec::new();
        if n > 0 {
            build(0, n as u32, &id_of_a, &rest_by_a, mode, &mut nodes);
        }
        Self {
            n,
            nodes,
            id_of_a,
            a_of_id: a.to_vec(),
            rest_by_a,
            finished: vec![false; n],
            dp: vec![0; n],
            mode,
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

    /// True iff the box `q` may hold a point.
    fn box_nonempty(&self, q: &[u32]) -> bool {
        debug_assert_eq!(q.len(), I::DIM + 1);
        self.n > 0 && q.iter().all(|&b| b > 0)
    }

    /// Fold the box `q` restricted to node `idx`'s subtree into `acc`.
    fn query_rec(&self, idx: usize, q: &[u32], acc: &mut Acc) {
        let nd = &self.nodes[idx];
        if q[0] <= nd.lo {
            return;
        }
        if nd.is_leaf() {
            // The scan is the hot loop of small trees: written out here
            // and in `decompose`, since a closure over `acc` measurably
            // slows it.
            let k = I::DIM;
            let (lo, end) = (nd.lo as usize, nd.hi.min(q[0]) as usize);
            let bounds = &q[1..=k];
            let points = self.rest_by_a[lo * k..end * k].chunks_exact(k);
            for (slots, &id) in points.zip(&self.id_of_a[lo..end]) {
                if (0..k).all(|j| slots[j] < bounds[j]) {
                    acc.add_point(id, self.finished[id as usize], self.dp[id as usize]);
                }
            }
            return;
        }
        if q[0] >= nd.hi {
            let mut local = Local::default();
            if nd.local_bounds(q, &mut local) {
                acc.add_piece(nd.inner().query_prefix(&local[..I::DIM]), &nd.ids);
            }
            return;
        }
        let mid = (nd.lo + nd.hi) / 2;
        self.query_rec(idx + 1, q, acc);
        if q[0] > mid {
            self.query_rec(idx + 1 + nd.lsize as usize, q, acc);
        }
    }

    /// Decompose the box `q` restricted to node `idx`'s subtree into
    /// weighted pieces for random selection, left to right.
    fn decompose(&self, idx: usize, q: &[u32], pieces: &mut Vec<Piece>) {
        let nd = &self.nodes[idx];
        if q[0] <= nd.lo {
            return;
        }
        if nd.is_leaf() {
            let k = I::DIM;
            let (lo, end) = (nd.lo as usize, nd.hi.min(q[0]) as usize);
            let bounds = &q[1..=k];
            let points = self.rest_by_a[lo * k..end * k].chunks_exact(k);
            for (slots, &id) in points.zip(&self.id_of_a[lo..end]) {
                if (0..k).all(|j| slots[j] < bounds[j]) && !self.finished[id as usize] {
                    pieces.push(Piece {
                        cnt: 1,
                        pick: Pick::Point(id),
                    });
                }
            }
            return;
        }
        if q[0] >= nd.hi {
            let mut local = Local::default();
            if nd.local_bounds(q, &mut local) {
                let cnt = nd.inner().query_prefix(&local[..I::DIM]).unfinished;
                if cnt > 0 {
                    pieces.push(Piece {
                        cnt,
                        pick: Pick::Node(idx as u32, local),
                    });
                }
            }
            return;
        }
        let mid = (nd.lo + nd.hi) / 2;
        self.decompose(idx + 1, q, pieces);
        if q[0] > mid {
            self.decompose(idx + 1 + nd.lsize as usize, q, pieces);
        }
    }
}

impl<I: Dominance> Dominance for Layered<I> {
    const DIM: usize = I::DIM + 1;

    fn build(rest: &[&[u32]], mode: PivotMode) -> Self {
        let first: Vec<u32> = (0..rest[0].len() as u32).collect();
        let mut slots: Vec<&[u32]> = Vec::with_capacity(Self::DIM);
        slots.push(&first);
        slots.extend_from_slice(rest);
        Self::new(&slots, mode)
    }

    fn query_prefix(&self, q: &[u32]) -> PrefixInfo {
        let mut acc = Acc::default();
        if self.box_nonempty(q) {
            self.query_rec(0, q, &mut acc);
        }
        PrefixInfo {
            unfinished: acc.unfinished,
            max_dp: acc.max_dp,
            maxx_unfinished: acc.rep_unfinished,
        }
    }

    /// `Random` draws uniformly (exact, as in the 2D tree): a weighted
    /// draw over the covering pieces, then the inner tree's own draw in
    /// the chosen one. `RightMost` returns a deterministic heuristic
    /// representative (the largest id among the per-piece
    /// representatives) — sufficient for the wake-up framework, which
    /// only requires *some* unfinished predecessor.
    fn select_pivot(&self, q: &[u32], rng: &mut Rng) -> Option<u32> {
        if !self.box_nonempty(q) {
            return None;
        }
        if self.mode == PivotMode::RightMost {
            return self.query_prefix(q).maxx_unfinished;
        }
        let mut pieces: Vec<Piece> = Vec::new();
        self.decompose(0, q, &mut pieces);
        let total: u64 = pieces.iter().map(|p| p.cnt as u64).sum();
        if total == 0 {
            return None;
        }
        let mut t = rng.range(total);
        for p in &pieces {
            if t < p.cnt as u64 {
                return Some(match p.pick {
                    Pick::Point(id) => id,
                    Pick::Node(idx, local) => {
                        let nd = &self.nodes[idx as usize];
                        let x = nd
                            .inner()
                            .select_pivot(&local[..I::DIM], rng)
                            .expect("counted unfinished");
                        nd.ids[x as usize]
                    }
                });
            }
            t -= p.cnt as u64;
        }
        unreachable!("weighted draw out of range")
    }

    fn set_pivot_mode(&mut self, mode: PivotMode) {
        self.mode = mode;
        for inner in self.nodes.iter_mut().filter_map(|nd| nd.inner.as_mut()) {
            inner.set_pivot_mode(mode);
        }
    }

    fn finish_batch(&mut self, items: &[(u32, u32)]) {
        // Per point: record its state, then walk its outer path, updating
        // each node's inner tree at the point's local position. Leaf
        // buckets scan live state, so the walk stops there.
        for &(id, dp) in items {
            debug_assert!(!self.finished[id as usize]);
            self.finished[id as usize] = true;
            self.dp[id as usize] = dp;
            let a = self.a_of_id[id as usize];
            let b = self.rest_by_a[a as usize * I::DIM];
            let mut idx = 0usize;
            loop {
                let nd = &mut self.nodes[idx];
                debug_assert!(nd.lo <= a && a < nd.hi);
                let Some(inner) = nd.inner.as_mut() else {
                    break;
                };
                let pos = nd.sorted[..nd.ids.len()].partition_point(|&x| x < b);
                debug_assert_eq!(nd.sorted[pos], b);
                inner.finish_batch(&[(pos as u32, dp)]);
                let mid = (nd.lo + nd.hi) / 2;
                idx = if a < mid {
                    idx + 1
                } else {
                    idx + 1 + nd.lsize as usize
                };
            }
        }
    }
}

/// Query accumulator. `rep_unfinished` holds a *representative*
/// unfinished point (exact max id within leaf pieces, a per-piece
/// representative for internal pieces) — callers use it as an existence
/// witness / heuristic pivot, never for max-id semantics.
#[derive(Default)]
struct Acc {
    unfinished: u32,
    max_dp: Option<u32>,
    rep_unfinished: Option<u32>,
}

impl Acc {
    fn add_point(&mut self, id: u32, finished: bool, dp: u32) {
        if finished {
            self.max_dp = Some(self.max_dp.map_or(dp, |m| m.max(dp)));
        } else {
            self.unfinished += 1;
            self.note_unfinished(id);
        }
    }

    /// Fold in an inner tree's answer; `ids` maps its points to ours.
    fn add_piece(&mut self, info: PrefixInfo, ids: &[u32]) {
        self.unfinished += info.unfinished;
        if let Some(d) = info.max_dp {
            self.max_dp = Some(self.max_dp.map_or(d, |m| m.max(d)));
        }
        if let Some(x) = info.maxx_unfinished {
            self.note_unfinished(ids[x as usize]);
        }
    }

    fn note_unfinished(&mut self, id: u32) {
        self.rep_unfinished = Some(self.rep_unfinished.map_or(id, |m| m.max(id)));
    }
}

struct Piece {
    cnt: u32,
    pick: Pick,
}

enum Pick {
    Point(u32),
    /// An internal node and the box in its local slots.
    Node(u32, Local),
}

/// Build the subtree over first-coordinate slots `[lo, hi)` into `out`
/// (recursive layout: a node, then its left subtree, then its right).
fn build<I: Dominance>(
    lo: u32,
    hi: u32,
    id_of_a: &[u32],
    rest_by_a: &[u32],
    mode: PivotMode,
    out: &mut Vec<Node<I>>,
) {
    let size = (hi - lo) as usize;
    if size <= LEAF_SIZE {
        out.push(Node {
            lo,
            hi,
            lsize: 0,
            ids: Vec::new(),
            sorted: Vec::new(),
            inner: None,
        });
        return;
    }
    let k = I::DIM;
    let slot = |s: u32, j: usize| rest_by_a[s as usize * k + j];
    // The node's first-coordinate slots, ordered by the second coordinate.
    let mut order: Vec<u32> = (lo..hi).collect();
    order.sort_unstable_by_key(|&s| slot(s, 0));
    let ids: Vec<u32> = order.iter().map(|&s| id_of_a[s as usize]).collect();
    let mut sorted: Vec<u32> = Vec::with_capacity(k * size);
    for j in 0..k {
        sorted.extend(order.iter().map(|&s| slot(s, j)));
        if j > 0 {
            sorted[j * size..].sort_unstable();
        }
    }
    // Inner tree keyed by (local second-coordinate position, local rank
    // in each further coordinate).
    let local: Vec<Vec<u32>> = (1..k)
        .map(|j| {
            let col = &sorted[j * size..(j + 1) * size];
            order
                .iter()
                .map(|&s| col.partition_point(|&x| x < slot(s, j)) as u32)
                .collect()
        })
        .collect();
    let local: Vec<&[u32]> = local.iter().map(Vec::as_slice).collect();
    let inner = I::build(&local, mode);
    let my_idx = out.len();
    out.push(Node {
        lo,
        hi,
        lsize: 0,
        ids,
        sorted,
        inner: Some(inner),
    });
    let mid = (lo + hi) / 2;
    build(lo, mid, id_of_a, rest_by_a, mode, out);
    out[my_idx].lsize = (out.len() - my_idx - 1) as u32;
    build(mid, hi, id_of_a, rest_by_a, mode, out);
}

/// The brute-force oracle the per-dimension tests of this module drive
/// the tree against; they run under the names `range3d` and `range4d`
/// (see the crate root).
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use pp_parlay::shuffle::random_permutation;

    pub(crate) const LEAF_SIZE: usize = super::LEAF_SIZE;

    /// A copy refreshed from one prepared tree with `clone_from`, then
    /// set to a query's pivot mode, answers exactly like a tree built in
    /// that mode: same aggregates, same pivots from the same RNG state.
    /// The copy runs a finish batch before every refresh, so each
    /// refresh has state to undo.
    pub(crate) fn check_refresh<T: Dominance>(n: usize, seed: u64) {
        let rest: Vec<Vec<u32>> = (1..T::DIM as u64)
            .map(|j| random_permutation(n, seed + j))
            .collect();
        let refs: Vec<&[u32]> = rest.iter().map(Vec::as_slice).collect();
        let prepared = T::build(&refs, PivotMode::default());
        let mut copy = prepared.clone();
        let batch: Vec<(u32, u32)> = (0..n as u32).step_by(3).map(|id| (id, id % 5)).collect();
        let mut queries = Rng::new(seed ^ 7);
        for mode in [
            PivotMode::RightMost,
            PivotMode::Random,
            PivotMode::RightMost,
        ] {
            copy.clone_from(&prepared);
            copy.set_pivot_mode(mode);
            let mut built = T::build(&refs, mode);
            copy.finish_batch(&batch);
            built.finish_batch(&batch);
            let (mut r1, mut r2) = (Rng::new(seed), Rng::new(seed));
            for _ in 0..40 {
                let q: Vec<u32> = (0..T::DIM)
                    .map(|_| queries.range(n as u64 + 1) as u32)
                    .collect();
                assert_eq!(copy.query_prefix(&q), built.query_prefix(&q), "{mode:?}");
                assert_eq!(
                    copy.select_pivot(&q, &mut r1),
                    built.select_pivot(&q, &mut r2),
                    "{mode:?} at {q:?}"
                );
            }
        }
    }

    /// Drive a `Layered<I>` over `n` random points through `queries`
    /// random box queries and pivots between random finish batches,
    /// checking each against a scan of the points.
    pub(crate) fn check<I: Dominance>(n: usize, seed: u64, mode: PivotMode, queries: usize) {
        let d = I::DIM + 1;
        let slots: Vec<Vec<u32>> = (0..d as u64)
            .map(|j| random_permutation(n, seed + j))
            .collect();
        let refs: Vec<&[u32]> = slots.iter().map(Vec::as_slice).collect();
        let mut tree = Layered::<I>::new(&refs, mode);
        assert_eq!(tree.len(), n);
        // The DP value of each finished point.
        let mut dp: Vec<Option<u32>> = vec![None; n];
        let mut rng = Rng::new(seed ^ 99);
        let mut remaining: Vec<u32> = (0..n as u32).collect();
        while !remaining.is_empty() {
            for _ in 0..queries {
                let q: Vec<u32> = (0..d).map(|_| rng.range(n as u64 + 1) as u32).collect();
                let inside: Vec<u32> = (0..n as u32)
                    .filter(|&i| slots.iter().zip(&q).all(|(s, &b)| s[i as usize] < b))
                    .collect();
                let unfin: Vec<u32> = inside
                    .iter()
                    .copied()
                    .filter(|&i| dp[i as usize].is_none())
                    .collect();
                let info = tree.query_prefix(&q);
                assert_eq!(info.unfinished, unfin.len() as u32);
                assert_eq!(
                    info.max_dp,
                    inside.iter().filter_map(|&i| dp[i as usize]).max()
                );
                assert_eq!(info.maxx_unfinished.is_some(), !unfin.is_empty());
                match tree.select_pivot(&q, &mut rng) {
                    None => assert!(unfin.is_empty()),
                    Some(p) => assert!(unfin.contains(&p), "pivot {p} not in region"),
                }
            }
            let take = (rng.range(remaining.len() as u64) + 1) as usize;
            let batch: Vec<(u32, u32)> = remaining.drain(..take).map(|id| (id, id % 13)).collect();
            for &(id, v) in &batch {
                dp[id as usize] = Some(v);
            }
            tree.finish_batch(&batch);
        }
    }
}
