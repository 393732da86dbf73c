//! Tree nodes and the `join` primitive.
//!
//! `join(L, k, R)` concatenates two AVL trees around a middle entry,
//! assuming every key of `L` < `k` < every key of `R`, in
//! `O(|h(L) - h(R)|)` time while restoring the AVL invariant — the
//! algorithm of Blelloch, Ferizovic & Sun (SPAA '16), Fig. 2 (AVL
//! variant). Everything else in the crate reduces to `join`, and every
//! operation that takes a tree apart rejoins around the nodes it already
//! owns ([`join_node`]), so only new entries allocate.

use crate::augment::Augment;

/// An owned subtree.
pub type Link<K, V, A> = Option<Box<Node<K, V, A>>>;

/// What [`split_last`] returns: the rest of a subtree and its detached
/// greatest node.
pub type Detached<K, V, A> = (Link<K, V, A>, Box<Node<K, V, A>>);

/// A tree node: entry, cached height/size, augmented value, children.
pub struct Node<K, V, A> {
    pub key: K,
    pub val: V,
    pub aug: A,
    pub height: u32,
    pub size: usize,
    pub left: Link<K, V, A>,
    pub right: Link<K, V, A>,
}

impl<K: Clone, V: Clone, A: Clone> Clone for Node<K, V, A> {
    fn clone(&self) -> Self {
        // Recursive deep copy; depth is the tree height, O(log n) for a
        // balanced tree, so no stack concerns.
        Node {
            key: self.key.clone(),
            val: self.val.clone(),
            aug: self.aug.clone(),
            height: self.height,
            size: self.size,
            left: self.left.clone(),
            right: self.right.clone(),
        }
    }
}

/// Height of a link (0 for empty).
#[inline]
pub fn height<K, V, A>(t: &Link<K, V, A>) -> u32 {
    t.as_ref().map_or(0, |n| n.height)
}

/// Size of a link (0 for empty).
#[inline]
pub fn size<K, V, A>(t: &Link<K, V, A>) -> usize {
    t.as_ref().map_or(0, |n| n.size)
}

/// Augmented value of a link (identity for empty).
#[inline]
pub fn aug_of<K, V, G: Augment<K, V>>(g: &G, t: &Link<K, V, G::A>) -> G::A {
    t.as_ref().map_or_else(|| g.identity(), |n| n.aug.clone())
}

/// Recompute a node's cached height, size and augmented value from its
/// children; returns the boxed node.
pub fn mk<K, V, G: Augment<K, V>>(
    g: &G,
    left: Link<K, V, G::A>,
    key: K,
    val: V,
    right: Link<K, V, G::A>,
) -> Box<Node<K, V, G::A>> {
    let h = height(&left).max(height(&right)) + 1;
    let s = size(&left) + size(&right) + 1;
    let mut a = g.base(&key, &val);
    if let Some(l) = &left {
        a = g.combine(&l.aug, &a);
    }
    if let Some(r) = &right {
        a = g.combine(&a, &r.aug);
    }
    Box::new(Node {
        key,
        val,
        aug: a,
        height: h,
        size: s,
        left,
        right,
    })
}

/// Refresh an existing node's caches in place (children already correct).
pub fn refresh<K, V, G: Augment<K, V>>(g: &G, n: &mut Node<K, V, G::A>) {
    n.height = height(&n.left).max(height(&n.right)) + 1;
    n.size = size(&n.left) + size(&n.right) + 1;
    let mut a = g.base(&n.key, &n.val);
    if let Some(l) = &n.left {
        a = g.combine(&l.aug, &a);
    }
    if let Some(r) = &n.right {
        a = g.combine(&a, &r.aug);
    }
    n.aug = a;
}

/// Right rotation: `(L x R)` with `L = (A y B)` becomes `(A y (B x R))`.
fn rotate_right<K, V, G: Augment<K, V>>(
    g: &G,
    mut x: Box<Node<K, V, G::A>>,
) -> Box<Node<K, V, G::A>> {
    let mut y = x.left.take().expect("rotate_right needs a left child");
    x.left = y.right.take();
    refresh(g, &mut x);
    y.right = Some(x);
    refresh(g, &mut y);
    y
}

/// Left rotation: mirror of [`rotate_right`].
fn rotate_left<K, V, G: Augment<K, V>>(
    g: &G,
    mut x: Box<Node<K, V, G::A>>,
) -> Box<Node<K, V, G::A>> {
    let mut y = x.right.take().expect("rotate_left needs a right child");
    x.right = y.left.take();
    refresh(g, &mut x);
    y.left = Some(x);
    refresh(g, &mut y);
    y
}

/// `join(L, k/v, R)`: all keys in `L` < `k` < all keys in `R`. Boxes
/// one node for the new entry; see [`join_node`].
pub fn join<K, V, G: Augment<K, V>>(
    g: &G,
    left: Link<K, V, G::A>,
    key: K,
    val: V,
    right: Link<K, V, G::A>,
) -> Box<Node<K, V, G::A>> {
    join_node(g, left, mk(g, None, key, val, None), right)
}

/// `join(L, mid, R)` around a node the caller already owns: all keys in
/// `L` < `mid.key` < all keys in `R`. `mid`'s children are overwritten
/// and its caches recomputed, so the join allocates nothing. `split`,
/// `union`, `intersect` and `join2` pass the node they took apart, and a
/// tree comes out with the same shape `join` would give.
pub fn join_node<K, V, G: Augment<K, V>>(
    g: &G,
    left: Link<K, V, G::A>,
    mid: Box<Node<K, V, G::A>>,
    right: Link<K, V, G::A>,
) -> Box<Node<K, V, G::A>> {
    let (hl, hr) = (height(&left), height(&right));
    if hl > hr + 1 {
        join_right(g, left.unwrap(), mid, right)
    } else if hr > hl + 1 {
        join_left(g, left, mid, right.unwrap())
    } else {
        attach(g, left, mid, right)
    }
}

/// Hang `left` and `right` under `mid` and refresh its caches.
fn attach<K, V, G: Augment<K, V>>(
    g: &G,
    left: Link<K, V, G::A>,
    mut mid: Box<Node<K, V, G::A>>,
    right: Link<K, V, G::A>,
) -> Box<Node<K, V, G::A>> {
    mid.left = left;
    mid.right = right;
    refresh(g, &mut mid);
    mid
}

/// `h(l) > h(r) + 1`: descend the right spine of `l`.
fn join_right<K, V, G: Augment<K, V>>(
    g: &G,
    mut l: Box<Node<K, V, G::A>>,
    mid: Box<Node<K, V, G::A>>,
    r: Link<K, V, G::A>,
) -> Box<Node<K, V, G::A>> {
    let c = l.right.take();
    if height(&c) <= height(&r) + 1 {
        let t = attach(g, c, mid, r);
        if t.height <= height(&l.left) + 1 {
            l.right = Some(t);
            refresh(g, &mut l);
            l
        } else {
            // Double rotation: t is right-heavy relative to l.left.
            let t = rotate_right(g, t);
            l.right = Some(t);
            refresh(g, &mut l);
            rotate_left(g, l)
        }
    } else {
        let t = join_right(g, c.unwrap(), mid, r);
        let t_h = t.height;
        l.right = Some(t);
        refresh(g, &mut l);
        if t_h <= height(&l.left) + 1 {
            l
        } else {
            rotate_left(g, l)
        }
    }
}

/// Mirror of [`join_right`].
fn join_left<K, V, G: Augment<K, V>>(
    g: &G,
    l: Link<K, V, G::A>,
    mid: Box<Node<K, V, G::A>>,
    mut r: Box<Node<K, V, G::A>>,
) -> Box<Node<K, V, G::A>> {
    let c = r.left.take();
    if height(&c) <= height(&l) + 1 {
        let t = attach(g, l, mid, c);
        if t.height <= height(&r.right) + 1 {
            r.left = Some(t);
            refresh(g, &mut r);
            r
        } else {
            let t = rotate_left(g, t);
            r.left = Some(t);
            refresh(g, &mut r);
            rotate_right(g, r)
        }
    } else {
        let t = join_left(g, l, mid, c.unwrap());
        let t_h = t.height;
        r.left = Some(t);
        refresh(g, &mut r);
        if t_h <= height(&r.right) + 1 {
            r
        } else {
            rotate_right(g, r)
        }
    }
}

/// `join2(L, R)`: concatenate without a middle entry (splits out the
/// last node of `L` to use as the pivot).
pub fn join2<K, V, G: Augment<K, V>>(
    g: &G,
    left: Link<K, V, G::A>,
    right: Link<K, V, G::A>,
) -> Link<K, V, G::A> {
    match left {
        None => right,
        Some(l) => {
            let (rest, last) = split_last(g, l);
            Some(join_node(g, rest, last, right))
        }
    }
}

/// Detach the greatest node of a subtree: returns the rest of the
/// subtree and the node, whose children are cleared.
pub fn split_last<K, V, G: Augment<K, V>>(
    g: &G,
    mut n: Box<Node<K, V, G::A>>,
) -> Detached<K, V, G::A> {
    match n.right.take() {
        None => (n.left.take(), n),
        Some(r) => {
            let (rest, last) = split_last(g, r);
            let left = n.left.take();
            (Some(join_node(g, left, n, rest)), last)
        }
    }
}

/// Check the AVL invariant, key ordering, and cache consistency; for
/// tests. Returns the subtree height.
#[cfg(any(test, feature = "validate"))]
pub fn validate<K: Ord + Clone, V, G: Augment<K, V>>(
    g: &G,
    t: &Link<K, V, G::A>,
    lo: Option<&K>,
    hi: Option<&K>,
) -> u32
where
    G::A: PartialEq + std::fmt::Debug,
{
    let Some(n) = t else { return 0 };
    if let Some(lo) = lo {
        assert!(n.key > *lo, "key ordering violated");
    }
    if let Some(hi) = hi {
        assert!(n.key < *hi, "key ordering violated");
    }
    let hl = validate(g, &n.left, lo, Some(&n.key));
    let hr = validate(g, &n.right, Some(&n.key), hi);
    assert!(hl.abs_diff(hr) <= 1, "AVL invariant violated: {hl} vs {hr}");
    assert_eq!(n.height, hl.max(hr) + 1, "stale height");
    assert_eq!(n.size, size(&n.left) + size(&n.right) + 1, "stale size");
    let mut a = g.base(&n.key, &n.val);
    if let Some(l) = &n.left {
        a = g.combine(&l.aug, &a);
    }
    if let Some(r) = &n.right {
        a = g.combine(&a, &r.aug);
    }
    assert_eq!(n.aug, a, "stale augmented value");
    n.height
}
