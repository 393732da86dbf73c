//! Phase-parallel Huffman construction (§4.3, Theorem 4.7).
//!
//! Round structure: with the current objects sorted by frequency, let
//! `f_m` be the sum of the two smallest. Every object with frequency
//! `< f_m` is ready (no later merge can produce a smaller frequency);
//! pair them consecutively in sorted order — consecutive sums are
//! nondecreasing, so the new internal nodes come out sorted — and merge
//! them back into the remainder with a parallel merge. If the frontier
//! is odd, the *largest* member is postponed (never an ancestor of the
//! least leaf, so the round count stays ≤ the tree height `H`).

use super::HuffmanTree;
use phase_parallel::{run_type1, Report, RunConfig, Type1Problem};
use pp_parlay::merge::par_merge_by;
use rayon::prelude::*;

/// Build a Huffman tree in parallel, with round statistics
/// (`stats.rounds ≤ height`). Frequencies must be ≥ 1.
///
/// The merge-round loop polls the config's deadline; a trip
/// self-parents every unmerged object (a well-formed *forest*, acyclic
/// for depth queries) and reports `RunOutcome::DeadlineExceeded` — the
/// partial result is not a prefix code and must only be inspected, not
/// decoded.
pub fn build_par(freqs: &[u64], cfg: &RunConfig) -> Report<HuffmanTree> {
    let n = freqs.len();
    assert!(n >= 1);
    assert!(freqs.iter().all(|&f| f >= 1), "frequencies must be >= 1");
    if n == 1 {
        return Report::plain(HuffmanTree::new(vec![0], 1));
    }
    // Objects sorted by (frequency, id).
    let mut items: Vec<(u64, u32)> = freqs
        .iter()
        .enumerate()
        .map(|(i, &f)| (f, i as u32))
        .collect();
    pp_parlay::par_sort(&mut items);

    struct Problem {
        items: Vec<(u64, u32)>,
        pending: Vec<(u64, u32)>,
        parent: Vec<u32>,
        next_id: u32,
    }

    impl Type1Problem for Problem {
        type Output = (Vec<u32>, u32);

        fn extract_frontier(&mut self) -> Vec<u32> {
            if self.items.len() <= 1 {
                return Vec::new();
            }
            let f_m = self.items[0].0 + self.items[1].0;
            let mut cnt = self.items.partition_point(|&(f, _)| f < f_m);
            debug_assert!(cnt >= 2, "two minima are always below their sum");
            if cnt % 2 == 1 {
                cnt -= 1; // postpone the largest frontier member
            }
            let rest = self.items.split_off(cnt);
            self.pending = std::mem::replace(&mut self.items, rest);
            self.pending.iter().map(|&(_, id)| id).collect()
        }

        fn process(&mut self, _frontier: &[u32]) {
            let pairs = self.pending.len() / 2;
            let base = self.next_id;
            // Parent links for both halves of each pair.
            let pending = std::mem::take(&mut self.pending);
            for (p, chunk) in pending.chunks_exact(2).enumerate() {
                let id = base + p as u32;
                self.parent[chunk[0].1 as usize] = id;
                self.parent[chunk[1].1 as usize] = id;
            }
            self.next_id += pairs as u32;
            // New internal nodes: (sum, id), sorted by construction.
            let new_nodes: Vec<(u64, u32)> = pending
                .par_chunks_exact(2)
                .enumerate()
                .map(|(p, chunk)| (chunk[0].0 + chunk[1].0, base + p as u32))
                .collect();
            debug_assert!(new_nodes.windows(2).all(|w| w[0].0 <= w[1].0));
            // Merge back into the remaining sorted objects.
            let old = std::mem::take(&mut self.items);
            let mut merged = vec![(0u64, 0u32); old.len() + new_nodes.len()];
            par_merge_by(&old, &new_nodes, &mut merged, &|a, b| a < b);
            self.items = merged;
        }

        fn finish(self) -> (Vec<u32>, u32) {
            (self.parent, self.next_id)
        }
    }

    let report = run_type1(
        Problem {
            items,
            pending: Vec::new(),
            parent: vec![0u32; 2 * n - 1],
            next_id: n as u32,
        },
        cfg,
    );
    let (mut parent, next_id) = report.output;
    if report.outcome.is_complete() {
        debug_assert_eq!(next_id as usize, 2 * n - 1);
        let root = next_id - 1;
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
    Report::new(HuffmanTree::new(parent, n), report.stats).with_outcome(report.outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

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
