//! Parallel forest depth computation by pointer jumping.
//!
//! The unweighted activity-selection algorithm (Thm 5.3) reduces the DP to
//! a *tree*: each activity depends only on its pivot, and its rank is its
//! depth in the pivot forest. (Huffman code lengths are leaf depths too,
//! but a Huffman tree numbers every parent above its children, so one
//! sequential sweep in descending id order finds them.)
//!
//! The paper computes depths with `O(n)`-work tree contraction \[18\]; we
//! use pointer jumping (a.k.a. pointer doubling), which is `O(n log d)`
//! work and `O(log d · log n)` span for forest depth `d`. The substitution
//! is measured, not assumed: an Euler-tour contraction (list ranking by
//! random-mate contraction over the tour) was 3.8–6.6× slower than pointer
//! jumping on activity pivot forests (`seq/uniform` and
//! `seq/adversarial-chain`, n = 4,000 and 32,000), 11–46× slower on Huffman
//! trees (n = 8,000 and 64,000), and 5.6–9.0× slower even on a single
//! n-deep chain (n = 4,000 to 10⁶), at 1 and 2 threads on 2 vCPUs. Its
//! constant factors (tour construction, child grouping, random-mate
//! recursion) outweighed the `log d` factor at every size and shape
//! measured, so no size- or shape-based selection would pick it.

use rayon::prelude::*;

/// Depth of every node in a forest given parent pointers, and the number
/// of pointer-jumping passes it took.
///
/// `parent[i] == i` marks a root (depth 0); otherwise `parent[i]` is `i`'s
/// parent and `depth[i] = depth[parent[i]] + 1`. For forest depth `d` the
/// pass count is `1` when `d == 0` and `⌈log₂ d⌉ + 1` otherwise (an empty
/// forest takes one pass too).
///
/// # Panics
/// Panics (in debug builds) on out-of-range parents. A parent *cycle*
/// (invalid forest) leads to unspecified but memory-safe output.
pub fn forest_depths(parent: &[u32]) -> (Vec<u32>, usize) {
    let n = parent.len();
    let mut depth: Vec<u32> = parent
        .par_iter()
        .enumerate()
        .map(|(i, &p)| {
            debug_assert!((p as usize) < n);
            u32::from(p as usize != i)
        })
        .collect();
    let mut jump: Vec<u32> = parent.to_vec();
    let mut next_depth = vec![0u32; n];
    let mut next_jump = vec![0u32; n];
    // After k iterations, jump[i] is i's 2^k-th ancestor (clamped at the
    // root) and depth[i] counts the edges traversed so far. A pass that
    // reaches no unfinished ancestor is the last.
    let mut passes = 0;
    loop {
        passes += 1;
        let changed = next_depth
            .par_iter_mut()
            .zip(next_jump.par_iter_mut())
            .enumerate()
            .map(|(i, (nd, nj))| {
                let j = jump[i] as usize;
                *nd = depth[i] + depth[j];
                *nj = jump[j];
                depth[j] != 0
            })
            .reduce(|| false, |a, b| a || b);
        std::mem::swap(&mut depth, &mut next_depth);
        std::mem::swap(&mut jump, &mut next_jump);
        if !changed {
            break;
        }
    }
    (depth, passes)
}

/// Depth of every node computed sequentially (reference implementation).
pub fn forest_depths_seq(parent: &[u32]) -> Vec<u32> {
    let n = parent.len();
    let mut depth = vec![u32::MAX; n];
    for i in 0..n {
        if depth[i] != u32::MAX {
            continue;
        }
        // Walk up to a known node or a root, then unwind.
        let mut path = vec![i as u32];
        let mut cur = i;
        loop {
            let p = parent[cur] as usize;
            if p == cur {
                depth[cur] = 0;
                break;
            }
            if depth[p] != u32::MAX {
                break;
            }
            path.push(p as u32);
            cur = p;
        }
        for &node in path.iter().rev() {
            let node = node as usize;
            if depth[node] == u32::MAX {
                depth[node] = depth[parent[node] as usize] + 1;
            }
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The pass count [`forest_depths`] documents for forest depth `d`.
    fn passes_for(d: u32) -> usize {
        if d == 0 {
            1
        } else {
            d.next_power_of_two().trailing_zeros() as usize + 1
        }
    }

    /// Depths by pointer jumping, checked against `want` and against the
    /// documented pass count.
    fn check(parent: &[u32], want: &[u32]) {
        let (d, passes) = forest_depths(parent);
        assert_eq!(d, want, "n = {}", parent.len());
        let depth = want.iter().copied().max().unwrap_or(0);
        assert_eq!(passes, passes_for(depth), "n = {}", parent.len());
    }

    #[test]
    fn single_root() {
        check(&[], &[]);
        check(&[0], &[0]);
        // All roots: the single-pass case.
        let parent: Vec<u32> = (0..1000).collect();
        check(&parent, &[0; 1000]);
    }

    #[test]
    fn chain() {
        // 0 <- 1 <- 2 <- 3
        check(&[0, 0, 1, 2], &[0, 1, 2, 3]);
    }

    #[test]
    fn star() {
        for n in [1000, 100_000] {
            let mut want = vec![1u32; n];
            want[0] = 0;
            check(&vec![0u32; n], &want);
        }
    }

    #[test]
    fn long_chain_large() {
        let n = 100_000u32;
        let parent: Vec<u32> = (0..n).map(|i| i.saturating_sub(1)).collect();
        check(&parent, &(0..n).collect::<Vec<_>>());
        // Caterpillar: spine 0 <- 2 <- 4 <- ... with a leaf hanging off
        // every spine node.
        let n = 20_000u32;
        let parent: Vec<u32> = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    i.saturating_sub(2)
                } else {
                    i - 1
                }
            })
            .collect();
        let want: Vec<u32> = (0..n).map(|i| i / 2 + i % 2).collect();
        check(&parent, &want);
        // Complete binary tree: depth = floor(log2(i + 1)).
        let n = 100_000u32;
        let parent: Vec<u32> = (0..n).map(|i| i.saturating_sub(1) / 2).collect();
        let want: Vec<u32> = (0..n).map(|i| (i + 1).ilog2()).collect();
        check(&parent, &want);
    }

    #[test]
    fn random_forest_matches_seq() {
        let mut r = Rng::new(5);
        for n in [1usize, 2, 100, 20_000] {
            // parent[i] < i or == i guarantees a DAG (forest).
            let parent: Vec<u32> = (0..n)
                .map(|i| {
                    if i == 0 || r.range(4) == 0 {
                        i as u32
                    } else {
                        r.range(i as u64) as u32
                    }
                })
                .collect();
            check(&parent, &forest_depths_seq(&parent));
        }
    }

    #[test]
    fn multiple_roots() {
        // Two trees: 0<-1, 2<-3<-4
        check(&[0, 0, 2, 2, 3], &[0, 1, 0, 1, 2]);
    }
}
