//! Greedy (Jones–Plassmann) graph coloring with TAS-tree wake-up (§5.3).
//!
//! The greedy coloring processes vertices in priority order, giving each
//! the smallest color unused by its already-colored neighbors. In the
//! parallel version a vertex is ready once all *higher-priority*
//! neighbors are colored — detected asynchronously by the same TAS-tree
//! mechanism as MIS, which replaces the wake-up strategy of
//! Hasenplaugh et al. and removes their atomic decrement-and-fetch
//! assumption (the §5.3 "Graph Coloring and Matching" discussion).
//!
//! [`Coloring`](crate::api::Coloring) prepares the same
//! [`BlockingMirrors`] as MIS: the TAS-tree leaf counts and, per arc,
//! the leaf a colored vertex marks in its lower-priority neighbor's
//! tree. A notification is then one load and one TAS walk, so a query
//! does `O(m)` work in all: the mex of a vertex reads each neighbor's
//! color once, and each arc is notified at most once.
//!
//! Both implementations produce the *identical* coloring (a function of
//! the priorities alone).

use crate::mis::{run_cascades, BlockingMirrors};
use phase_parallel::{Report, RunConfig, Scratch, TasForest};
use pp_graph::Graph;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Color sentinel for "not yet colored".
const UNCOLORED: u32 = u32::MAX;

/// Sequential greedy coloring in decreasing priority order.
pub fn coloring_seq(g: &Graph, priority: &[u32]) -> Vec<u32> {
    let n = g.num_vertices();
    assert_eq!(priority.len(), n);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&v| std::cmp::Reverse(priority[v as usize]));
    let mut color = vec![UNCOLORED; n];
    let mut used = Vec::new();
    for &v in &order {
        used.clear();
        used.resize(g.degree(v) + 1, false);
        for &u in g.neighbors(v) {
            let c = color[u as usize];
            if c != UNCOLORED && (c as usize) < used.len() {
                used[c as usize] = true;
            }
        }
        color[v as usize] = used.iter().position(|&b| !b).unwrap() as u32;
    }
    color
}

/// The smallest color missing from `colors`, the colors of a vertex's
/// `degree` neighbors ([`UNCOLORED`] for a neighbor without one). Colors
/// below 64 are tracked in one word, so only a vertex whose neighbors
/// use every one of them falls back to a flag per neighbor.
fn mex(colors: impl Iterator<Item = u32> + Clone, degree: usize) -> u32 {
    let low = colors
        .clone()
        .filter(|&c| c < u64::BITS)
        .fold(0u64, |low, c| low | 1 << c);
    if low != u64::MAX {
        return low.trailing_ones();
    }
    let mut used = vec![false; degree + 1];
    for c in colors {
        if (c as usize) < used.len() {
            used[c as usize] = true;
        }
    }
    used.iter().position(|&b| !b).unwrap() as u32
}

/// Asynchronous Jones–Plassmann coloring via TAS trees: run the
/// coloring cascades ([`run_cascades`], shared with MIS) against
/// prebuilt [`BlockingMirrors`], drawing the color array from
/// `scratch`. Same output as [`coloring_seq`]. On a deadline trip,
/// uncolored vertices keep the `u32::MAX` sentinel.
pub(crate) fn coloring_par(
    g: &Graph,
    mirrors: &BlockingMirrors,
    scratch: &mut Scratch,
    cfg: &RunConfig,
) -> Report<Vec<u32>> {
    let n = g.num_vertices();
    assert_eq!(mirrors.counts().len(), n, "mirrors built for another graph");
    let forest = TasForest::new(mirrors.counts());
    let mut color = scratch.take_vec::<AtomicU32>("coloring_color");
    color.resize_with(n, || AtomicU32::new(UNCOLORED));

    // Color `v`, whose blocking neighbors are all colored, and yield the
    // lower-priority neighbors whose TAS trees this completes. No
    // lower-priority neighbor is colored yet (each waits for `v`), so
    // the mex may read every neighbor.
    let assign = |v: u32| {
        let colors = g
            .neighbors(v)
            .iter()
            .map(|&u| color[u as usize].load(Ordering::Acquire));
        color[v as usize].store(mex(colors, g.degree(v)), Ordering::Release);
        mirrors
            .blocked_by(g, v)
            .filter_map(|(w, leaf)| forest.mark(w as usize, leaf).then_some(w))
    };
    let outcome = run_cascades(&forest, cfg, |frontier, next| {
        next.par_extend(frontier.par_iter().flat_map_iter(|&v| assign(v)))
    });
    let out = color.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    scratch.put_vec("coloring_color", color);
    Report::plain(out).with_outcome(outcome)
}

/// Check that `color` is a proper coloring of `g`.
pub fn is_proper_coloring(g: &Graph, color: &[u32]) -> bool {
    (0..g.num_vertices() as u32).all(|v| {
        g.neighbors(v)
            .iter()
            .all(|&u| u == v || color[u as usize] != color[v as usize])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Coloring, GraphPriorityInstance};
    use phase_parallel::PhaseAlgorithm;
    use pp_graph::gen;
    use pp_parlay::shuffle::random_priorities;

    fn check(g: Graph, seed: u64) {
        let pri = random_priorities(g.num_vertices(), seed);
        let inst = GraphPriorityInstance::new(g, pri);
        let a = coloring_seq(&inst.graph, &inst.priority);
        let b = Coloring.solve_par(&inst, &RunConfig::new()).output;
        assert!(is_proper_coloring(&inst.graph, &a), "seq improper");
        assert_eq!(a, b, "par differs from greedy");
    }

    #[test]
    fn agree_on_many_graphs() {
        check(gen::uniform(300, 1500, 1), 10);
        check(gen::cycle(101), 11);
        check(gen::star(100), 12);
        check(gen::grid2d(15, 20), 13);
        check(gen::rmat(9, 4096, 5), 14);
    }

    /// A clique on `k` vertices, plus one pendant vertex hung on vertex
    /// 0 when `pendant` is set.
    fn clique(k: u32, pendant: bool) -> Graph {
        let mut b = pp_graph::GraphBuilder::new(k as usize + usize::from(pendant)).symmetric();
        for u in 0..k {
            for w in u + 1..k {
                b.add(u, w);
            }
        }
        if pendant {
            b.add(0, k);
        }
        b.build()
    }

    #[test]
    fn mex_crosses_the_word_at_color_64() {
        let below = |k: u32| 0..k;
        assert_eq!(mex(below(0), 0), 0);
        assert_eq!(mex(below(63), 63), 63);
        assert_eq!(mex(below(64), 64), 64);
        assert_eq!(mex(below(70), 70), 70);
        assert_eq!(mex(below(64).chain([65, 66]), 66), 64);
        assert_eq!(mex(below(64).chain([UNCOLORED]).rev(), 65), 64);
        assert_eq!(mex((1..64).chain([0, 0, 64, UNCOLORED]), 67), 65);
        assert_eq!(mex(below(63).chain([64, 65]), 65), 63);
    }

    #[test]
    fn cliques_use_colors_past_the_word() {
        // Greedy gives a k-clique every color in 0..k: past the 64th
        // vertex the neighbors hold all of colors 0..63, so the mex
        // takes the flag fallback.
        for k in [65, 70] {
            for seed in 20..24 {
                check(clique(k, false), seed);
            }
        }
        // The last clique vertex to be colored has the pendant too: in a
        // 64-clique it takes color 63, the word path's highest answer,
        // with degree 64; in a 65-clique, color 64 from the fallback.
        for k in [64, 65] {
            for seed in 20..24 {
                check(clique(k, true), seed);
            }
            let pri: Vec<u32> = (0..=k)
                .map(|v| if v == 0 { 1 } else { (v + 1) % (k + 1) })
                .collect();
            let inst = GraphPriorityInstance::new(clique(k, true), pri);
            let want = coloring_seq(&inst.graph, &inst.priority);
            assert_eq!((want[0], want[k as usize]), (k - 1, 0));
            let got = Coloring.solve_par(&inst, &RunConfig::new()).output;
            assert_eq!(got, want, "{k}-clique with a pendant");
        }
    }

    #[test]
    fn colors_bounded_by_degree_plus_one() {
        let inst =
            GraphPriorityInstance::new(gen::uniform(500, 3000, 2), random_priorities(500, 3));
        let c = Coloring.solve_par(&inst, &RunConfig::new()).output;
        let dmax = inst.graph.max_degree() as u32;
        assert!(c.iter().all(|&x| x <= dmax));
    }

    #[test]
    fn bipartite_grid_two_colorable_greedily_small() {
        // Greedy on a grid uses few colors (not necessarily 2, but ≤ 4).
        let inst = GraphPriorityInstance::new(gen::grid2d(20, 20), random_priorities(400, 4));
        let c = Coloring.solve_par(&inst, &RunConfig::new()).output;
        assert!(is_proper_coloring(&inst.graph, &c));
        assert!(*c.iter().max().unwrap() <= 4);
    }

    #[test]
    fn edgeless_all_color_zero() {
        let g = pp_graph::GraphBuilder::new(20).build();
        let inst = GraphPriorityInstance::new(g, random_priorities(20, 5));
        let colors = Coloring.solve_par(&inst, &RunConfig::new()).output;
        assert!(colors.iter().all(|&c| c == 0));
    }
}
