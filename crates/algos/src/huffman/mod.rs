//! Huffman tree construction (§4.3, Theorem 4.7; experiments §6.2).
//!
//! Sequentially: repeatedly merge the two least-frequent objects. The
//! dependence graph *is* the Huffman tree; the (relaxed) rank of a node
//! is derived from the frequency ladder of the least-frequent leaf's
//! root path (Definition 4.6). In parallel, once the two global minima
//! sum to `f_m`, **every** object with frequency `< f_m` is ready: pair
//! them up in sorted order, emit `|T|/2` internal nodes, and merge the
//! (already sorted) sums back — `O(n log n)` work, `O(H log n)` span for
//! tree height `H`.
//!
//! Both implementations return a [`HuffmanTree`]; they may differ in
//! shape on ties but always agree on the *weighted path length* (both
//! are optimal prefix codes), which the tests assert.

mod codes;
mod par;
mod seq;

pub use codes::{BitVec, CanonicalCode};
pub use par::build_par;
pub use seq::{build_seq, build_seq_heap};

use phase_parallel::{Report, RunConfig, Scratch};

/// A Huffman tree over `n` leaves as a parent-pointer array: nodes
/// `0..n` are the input objects (in input order), nodes `n..2n-1` the
/// internal merges; the root is its own parent. Every merge gets a
/// larger id than the nodes it merges, so each parent id is at least
/// its child's — [`HuffmanTree::new`] checks it, and
/// [`HuffmanTree::depths`] relies on it.
pub struct HuffmanTree {
    parent: Vec<u32>,
    n_leaves: usize,
}

impl HuffmanTree {
    /// Construct from a parent array (root self-parented). Panics unless
    /// every parent id is at least its child's and inside the array.
    pub fn new(parent: Vec<u32>, n_leaves: usize) -> Self {
        assert!(n_leaves >= 1);
        assert_eq!(
            parent.len(),
            if n_leaves == 1 { 1 } else { 2 * n_leaves - 1 }
        );
        assert!(
            parent
                .iter()
                .enumerate()
                .all(|(i, &p)| i <= p as usize && (p as usize) < parent.len()),
            "every parent id must be at least its child's"
        );
        Self { parent, n_leaves }
    }

    /// Number of leaves (input objects).
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Parent array (leaves first, then internal nodes).
    pub fn parents(&self) -> &[u32] {
        &self.parent
    }

    /// Depth of every node (root depth 0): one sequential `O(n)` sweep
    /// in descending id order, since every parent id is larger than its
    /// child's. A partial forest left by a deadline (unmerged nodes
    /// self-parented) gets the same sweep.
    pub fn depths(&self) -> Vec<u32> {
        let mut depth = self.parent.clone();
        parents_to_depths(&mut depth);
        depth
    }

    /// Code length of each leaf = its depth.
    pub fn code_lengths(&self) -> Vec<u32> {
        let mut d = self.depths();
        d.truncate(self.n_leaves);
        d
    }

    /// Tree height = maximum leaf depth (the paper's rank / round count
    /// driver, `H`).
    pub fn height(&self) -> u32 {
        self.code_lengths().into_iter().max().unwrap_or(0)
    }

    /// Weighted path length `Σ freq_i · depth_i` — the cost every optimal
    /// Huffman tree minimizes; implementation-independent.
    pub fn weighted_path_length(&self, freqs: &[u64]) -> u64 {
        assert_eq!(freqs.len(), self.n_leaves);
        leaf_wpl(&self.depths(), freqs)
    }

    /// Kraft sum check: `Σ 2^-depth == 1` over leaves (valid full binary
    /// code tree). For tests.
    pub fn kraft_holds(&self) -> bool {
        if self.n_leaves == 1 {
            return true;
        }
        // Scale by 2^64 shifted by max depth to stay in integers.
        let lens = self.code_lengths();
        let max = *lens.iter().max().unwrap();
        let mut sum: u128 = 0;
        for &l in &lens {
            sum += 1u128 << (max - l);
        }
        sum == 1u128 << max
    }
}

/// Overwrite a forest's parent array with its depths. No parent id is
/// below its child's, so a sweep in descending id order reaches every
/// parent before its children: slot `p > i` already holds `p`'s depth
/// when slot `i` still holds `i`'s parent.
fn parents_to_depths(nodes: &mut [u32]) {
    for i in (0..nodes.len()).rev() {
        let p = nodes[i] as usize;
        nodes[i] = if p == i { 0 } else { nodes[p] + 1 };
    }
}

/// `Σ freq_i · depth_i` over the leaves, which lead `depths`.
fn leaf_wpl(depths: &[u32], freqs: &[u64]) -> u64 {
    depths.iter().zip(freqs).map(|(&d, &f)| d as u64 * f).sum()
}

/// What [`Huffman`](crate::api::Huffman) prepares: the object ids in
/// `(frequency, id)` order, where every build starts.
pub struct PreparedHuffman {
    order: Vec<u32>,
}

/// Sort the objects once. Panics on an empty input or a zero frequency.
pub(crate) fn prepare(freqs: &[u64]) -> PreparedHuffman {
    PreparedHuffman {
        order: par::sorted_order(freqs),
    }
}

/// [`Huffman`](crate::api::Huffman)'s query: the §4.3 rounds from the
/// prepared order, then the weighted path length of the tree (of the
/// partial forest, on a deadline trip), from depths swept into the
/// parent array in place. The working arrays come from `scratch` and go
/// back to it.
pub(crate) fn wpl_query(
    freqs: &[u64],
    prepared: &PreparedHuffman,
    scratch: &mut Scratch,
    cfg: &RunConfig,
) -> Report<u64> {
    let mut bufs = scratch
        .take_any::<par::Buffers>("huffman.buffers")
        .unwrap_or_default();
    let report = par::merge_rounds(freqs, &prepared.order, &mut bufs, cfg);
    parents_to_depths(&mut bufs.parent);
    let wpl = leaf_wpl(&bufs.parent, freqs);
    scratch.put_any("huffman.buffers", bufs);
    report.map(|()| wpl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phase_parallel::RunConfig;
    use pp_parlay::list_rank::forest_depths;
    use pp_parlay::rng::Rng;
    use std::time::Duration;

    /// Brute-force optimal WPL via the sequential greedy with a heap
    /// (independent of either implementation's pairing choices).
    fn oracle_wpl(freqs: &[u64]) -> u64 {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        if freqs.len() == 1 {
            return 0;
        }
        let mut h: BinaryHeap<Reverse<u64>> = freqs.iter().map(|&f| Reverse(f)).collect();
        let mut total = 0u64;
        while h.len() > 1 {
            let a = h.pop().unwrap().0;
            let b = h.pop().unwrap().0;
            total += a + b;
            h.push(Reverse(a + b));
        }
        total
    }

    #[test]
    fn seq_and_par_are_optimal() {
        let mut r = Rng::new(8);
        for trial in 0..25 {
            let n = 1 + r.range(200) as usize;
            let freqs: Vec<u64> = (0..n).map(|_| 1 + r.range(1000)).collect();
            let want = oracle_wpl(&freqs);
            let ts = build_seq(&freqs);
            let tp = build_par(&freqs, &RunConfig::new()).output;
            assert_eq!(ts.weighted_path_length(&freqs), want, "seq trial {trial}");
            assert_eq!(tp.weighted_path_length(&freqs), want, "par trial {trial}");
            assert!(ts.kraft_holds());
            assert!(tp.kraft_holds());
        }
    }

    #[test]
    fn classic_abc_example() {
        // freqs (a:45 b:13 c:12 d:16 e:9 f:5) — CLRS Fig 16.4; optimal
        // WPL = 224.
        let freqs = vec![45, 13, 12, 16, 9, 5];
        assert_eq!(oracle_wpl(&freqs), 224);
        assert_eq!(build_seq(&freqs).weighted_path_length(&freqs), 224);
        assert_eq!(
            build_par(&freqs, &RunConfig::new())
                .output
                .weighted_path_length(&freqs),
            224
        );
    }

    #[test]
    fn uniform_frequencies_balanced_tree() {
        let freqs = vec![1u64; 64];
        let t = build_par(&freqs, &RunConfig::new()).output;
        assert_eq!(t.height(), 6); // perfectly balanced
        assert!(t.code_lengths().iter().all(|&l| l == 6));
    }

    #[test]
    fn exponential_frequencies_skewed_tree() {
        // 1, 1, 2, 4, ..., 2^k: maximally skewed — height = n - 1.
        let freqs: Vec<u64> = std::iter::once(1)
            .chain((0..20).map(|i| 1u64 << i))
            .collect();
        let t = build_par(&freqs, &RunConfig::new()).output;
        assert_eq!(t.height() as usize, freqs.len() - 1);
        assert_eq!(
            t.weighted_path_length(&freqs),
            build_seq(&freqs).weighted_path_length(&freqs)
        );
    }

    #[test]
    fn rounds_bounded_by_height() {
        let mut r = Rng::new(9);
        let freqs: Vec<u64> = (0..10_000).map(|_| 1 + r.range(1000)).collect();
        let report = build_par(&freqs, &RunConfig::new());
        let (t, stats) = (report.output, report.stats);
        // Round-efficient: O(H) rounds (odd-frontier postponement can
        // cost a few extra rounds beyond H itself, §4.3 remark).
        assert!(
            stats.rounds as u32 <= t.height() + 3,
            "rounds {} > height {} + 3",
            stats.rounds,
            t.height()
        );
    }

    #[test]
    fn depths_sweep_equals_pointer_jumping() {
        let mut r = Rng::new(11);
        for n in [1usize, 2, 3, 17, 500, 3000] {
            let freqs: Vec<u64> = (0..n).map(|_| 1 + r.range(1000)).collect();
            let trees = [
                build_seq(&freqs),
                build_seq_heap(&freqs),
                build_par(&freqs, &RunConfig::new()).output,
            ];
            for tree in trees {
                let (want, _) = forest_depths(tree.parents());
                assert_eq!(tree.depths(), want, "n = {n}");
            }
        }
    }

    #[test]
    fn depths_sweep_equals_pointer_jumping_on_a_partial_forest() {
        // A deadline that trips between rounds self-parents every
        // unmerged node. The clock starts just before the rounds (the
        // order is sorted first), and budgets grow until one trips
        // after a round; the run completes only once a budget outlasts
        // every round, so some smaller budget tripped in between.
        let mut r = Rng::new(12);
        let freqs: Vec<u64> = (0..50_000).map(|_| 1 + r.range(1_000_000)).collect();
        let order = par::sorted_order(&freqs);
        let mut budget = Duration::from_micros(1);
        let mut partial = 0;
        loop {
            let mut bufs = par::Buffers::default();
            let cfg = RunConfig::new().with_deadline(budget);
            let report = par::merge_rounds(&freqs, &order, &mut bufs, &cfg);
            let tree = HuffmanTree::new(bufs.parent, freqs.len());
            let (want, _) = forest_depths(tree.parents());
            assert_eq!(tree.depths(), want, "budget {budget:?}");
            if report.is_complete() {
                break;
            }
            partial += usize::from(report.stats.rounds > 0);
            budget = budget * 5 / 4;
        }
        assert!(partial > 0, "no deadline tripped mid-run");
    }

    #[test]
    #[should_panic(expected = "every parent id must be at least its child's")]
    fn new_rejects_a_parent_below_its_child() {
        // Leaves 0 and 1 under node 2, but node 2 under leaf 1.
        HuffmanTree::new(vec![2, 2, 1], 2);
    }

    #[test]
    fn tiny_inputs() {
        let t = build_par(&[7], &RunConfig::new()).output;
        assert_eq!(t.height(), 0);
        assert_eq!(t.weighted_path_length(&[7]), 0);
        let t = build_par(&[3, 5], &RunConfig::new()).output;
        assert_eq!(t.height(), 1);
        assert_eq!(t.weighted_path_length(&[3, 5]), 8);
        let t = build_seq(&[3, 5]);
        assert_eq!(t.weighted_path_length(&[3, 5]), 8);
    }
}
