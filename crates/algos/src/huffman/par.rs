//! Phase-parallel Huffman construction (§4.3, Theorem 4.7).
//!
//! Round structure: with the current objects sorted by frequency, let
//! `f_m` be the sum of the two smallest. Every object with frequency
//! `< f_m` is ready (no later merge can produce a smaller frequency);
//! pair them consecutively in sorted order — consecutive sums are
//! nondecreasing, so the new internal nodes come out sorted — and merge
//! them back into the remainder. If the frontier is odd, the *largest*
//! member is postponed (never an ancestor of the least leaf, so the
//! round count stays ≤ the tree height `H`).
//!
//! The sorted objects live in one array whose unprocessed remainder is
//! the suffix from a head index, so a round copies nothing it does not
//! change. Its new nodes take the upper half of the slots the frontier
//! freed, and merge ([`par_merge_by`], into a reused buffer) only with
//! the prefix of the remainder below the last new node: every later
//! object is larger than all of them and keeps its place. The merged
//! run is written back ending where that prefix ended, and the head
//! moves to its start. The sorted input order depends on the
//! frequencies alone, so a prepared query starts from it
//! ([`sorted_order`]).

use super::HuffmanTree;
use phase_parallel::{run_type1, Report, RunConfig, Type1Problem};
use pp_parlay::merge::par_merge_by;

/// Build a Huffman tree in parallel, with round statistics
/// (`stats.rounds ≤ height`). Frequencies must be ≥ 1.
///
/// The merge-round loop polls the config's deadline; a trip
/// self-parents every unmerged object (a well-formed *forest*, acyclic
/// for depth queries) and reports `RunOutcome::DeadlineExceeded` — the
/// partial result is not a prefix code and must only be inspected, not
/// decoded.
pub fn build_par(freqs: &[u64], cfg: &RunConfig) -> Report<HuffmanTree> {
    let order = sorted_order(freqs);
    let mut bufs = Buffers::default();
    let report = merge_rounds(freqs, &order, &mut bufs, cfg);
    report.map(|()| HuffmanTree::new(bufs.parent, freqs.len()))
}

/// The object ids sorted by `(frequency, id)`: the input-only start of
/// every build. Panics on an empty input or a zero frequency.
pub(crate) fn sorted_order(freqs: &[u64]) -> Vec<u32> {
    assert!(!freqs.is_empty());
    assert!(freqs.iter().all(|&f| f >= 1), "frequencies must be >= 1");
    let mut order: Vec<u32> = (0..freqs.len() as u32).collect();
    pp_parlay::par_sort_by_key(&mut order, |&i| (freqs[i as usize], i));
    order
}

/// The working arrays of one build. [`merge_rounds`] leaves the parent
/// array in `parent`; a caller that keeps the struct between builds
/// reuses every allocation.
#[derive(Default)]
pub(crate) struct Buffers {
    /// The `(frequency, id)` objects, sorted; the remainder is the
    /// suffix from the head.
    items: Vec<(u64, u32)>,
    /// A round's merge output.
    merged: Vec<(u64, u32)>,
    /// Parent of every node; the root is its own parent.
    pub(crate) parent: Vec<u32>,
}

/// Run the §4.3 rounds from the objects in `order` ([`sorted_order`]),
/// writing the parent array into `bufs.parent` (`2n − 1` nodes, or one
/// for a single object). On a deadline trip every unmerged object is
/// self-parented, as [`build_par`] documents.
pub(crate) fn merge_rounds(
    freqs: &[u64],
    order: &[u32],
    bufs: &mut Buffers,
    cfg: &RunConfig,
) -> Report<()> {
    let n = order.len();
    bufs.parent.clear();
    if n == 1 {
        bufs.parent.push(0);
        return Report::plain(());
    }
    bufs.parent.resize(2 * n - 1, 0);
    bufs.items.clear();
    bufs.items
        .extend(order.iter().map(|&i| (freqs[i as usize], i)));

    struct Problem<'a> {
        bufs: &'a mut Buffers,
        head: usize,
        /// This round's frontier size.
        cnt: usize,
        next_id: u32,
    }

    impl Type1Problem for Problem<'_> {
        type Output = u32;

        fn extract_frontier(&mut self) -> Vec<u32> {
            let rest = &self.bufs.items[self.head..];
            if rest.len() <= 1 {
                return Vec::new();
            }
            let f_m = rest[0].0 + rest[1].0;
            let mut cnt = rest.partition_point(|&(f, _)| f < f_m);
            debug_assert!(cnt >= 2, "two minima are always below their sum");
            if cnt % 2 == 1 {
                cnt -= 1; // postpone the largest frontier member
            }
            self.cnt = cnt;
            rest[..cnt].iter().map(|&(_, id)| id).collect()
        }

        fn process(&mut self, _frontier: &[u32]) {
            let (head, cnt) = (self.head, self.cnt);
            let pairs = cnt / 2;
            let base = self.next_id;
            self.next_id += pairs as u32;
            let Buffers {
                items,
                merged,
                parent,
            } = &mut *self.bufs;
            // Link each pair to its new internal node (sum, id) and write
            // the node into the frontier's upper half, just below the
            // remainder. Pair p reads slots 2p and 2p + 1 and writes slot
            // pairs + p, which no pair below p reads, so the pass runs
            // from the top. The new nodes come out sorted.
            for p in (0..pairs).rev() {
                let (a, b) = (items[head + 2 * p], items[head + 2 * p + 1]);
                let id = base + p as u32;
                parent[a.1 as usize] = id;
                parent[b.1 as usize] = id;
                items[head + pairs + p] = (a.0 + b.0, id);
            }
            self.head = head + pairs;
            let rest = head + cnt;
            let new_nodes = &items[self.head..rest];
            debug_assert!(new_nodes.windows(2).all(|w| w[0].0 <= w[1].0));
            // Only the remainder's prefix below the last new node moves;
            // the merged run ends where that prefix ended.
            let last = new_nodes[pairs - 1];
            let k = items[rest..].partition_point(|x| *x < last);
            merged.clear();
            merged.resize(k + pairs, (0, 0));
            par_merge_by(&items[rest..rest + k], new_nodes, merged, &|a, b| a < b);
            items[self.head..rest + k].copy_from_slice(merged);
        }

        fn finish(self) -> u32 {
            self.next_id
        }
    }

    let report = run_type1(
        Problem {
            bufs: &mut *bufs,
            head: 0,
            cnt: 0,
            next_id: n as u32,
        },
        cfg,
    );
    let parent = &mut bufs.parent;
    if report.outcome.is_complete() {
        debug_assert_eq!(report.output as usize, 2 * n - 1);
        let root = report.output - 1;
        parent[root as usize] = root;
    } else {
        // Early stop: every node not yet merged still holds the sentinel
        // parent 0 — unambiguous, since real parents are internal ids
        // ≥ n. Self-parent them so the partial forest stays acyclic.
        for (id, p) in parent.iter_mut().enumerate() {
            if (*p as usize) < n {
                *p = id as u32;
            }
        }
    }
    report.map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_parlay::rng::Rng;

    /// The rounds as they ran before the prefix-only merge: split the
    /// remainder off and merge all of it with the new nodes into a fresh
    /// array. The reference [`build_par`]'s parent arrays must equal.
    fn full_merge_parents(freqs: &[u64]) -> Vec<u32> {
        let n = freqs.len();
        if n == 1 {
            return vec![0];
        }
        let mut items: Vec<(u64, u32)> = sorted_order(freqs)
            .into_iter()
            .map(|i| (freqs[i as usize], i))
            .collect();
        let mut parent = vec![0u32; 2 * n - 1];
        let mut next_id = n as u32;
        while items.len() > 1 {
            let f_m = items[0].0 + items[1].0;
            let mut cnt = items.partition_point(|&(f, _)| f < f_m);
            if cnt % 2 == 1 {
                cnt -= 1;
            }
            let rest = items.split_off(cnt);
            let pending = std::mem::replace(&mut items, rest);
            let new_nodes: Vec<(u64, u32)> = pending
                .chunks_exact(2)
                .enumerate()
                .map(|(p, chunk)| {
                    let id = next_id + p as u32;
                    parent[chunk[0].1 as usize] = id;
                    parent[chunk[1].1 as usize] = id;
                    (chunk[0].0 + chunk[1].0, id)
                })
                .collect();
            next_id += new_nodes.len() as u32;
            let mut merged = vec![(0u64, 0u32); items.len() + new_nodes.len()];
            par_merge_by(&items, &new_nodes, &mut merged, &|a, b| a < b);
            items = merged;
        }
        parent[next_id as usize - 1] = next_id - 1;
        parent
    }

    #[test]
    fn prefix_merge_matches_full_merge() {
        let mut r = Rng::new(21);
        for n in [1usize, 2, 3, 4, 5, 16, 101, 1000, 5000] {
            let cases: [(&str, Vec<u64>); 5] = [
                // Few distinct values: many ties.
                ("uniform", (0..n).map(|_| 1 + r.range(50)).collect()),
                (
                    "zipf",
                    (0..n)
                        .map(|_| 1 + 1_000_000 / (1 + r.range(n as u64)))
                        .collect(),
                ),
                ("sorted", (1..=n as u64).collect()),
                // Doubling runs: each merge tops the remainder, a chain.
                (
                    "adversarial-chain",
                    (0..n).map(|i| 1u64 << (i % 48)).collect(),
                ),
                ("all-equal", vec![7; n]),
            ];
            for (name, freqs) in cases {
                let tree = build_par(&freqs, &RunConfig::new()).output;
                assert_eq!(
                    tree.parents(),
                    full_merge_parents(&freqs).as_slice(),
                    "{name}, n = {n}"
                );
            }
        }
    }

    #[test]
    fn frontier_pairing_round_trace() {
        // freqs 1,1,1,1: f_m = 2, all four in the frontier, one round of
        // two pairs, then 2,2 → one more round, then 4 alone.
        let stats = build_par(&[1, 1, 1, 1], &RunConfig::new()).stats;
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.frontier_sizes, vec![4, 2]);
    }

    #[test]
    fn odd_frontier_postpones_largest() {
        // freqs 1,1,2: f_m = 2, frontier = {1,1} (2 not < 2) → pair →
        // items {2,2} → round 2.
        let report = build_par(&[1, 1, 2], &RunConfig::new());
        let (t, stats) = (report.output, report.stats);
        assert_eq!(stats.rounds, 2);
        // Depths: leaves 1,1 at depth 2; leaf 2 at depth 1 → WPL = 6.
        assert_eq!(t.weighted_path_length(&[1, 1, 2]), 6);
    }
}
