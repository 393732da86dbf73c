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
//! Both implementations produce the *identical* coloring (a function of
//! the priorities alone).

use crate::mis::run_cascades;
use phase_parallel::{Report, RunConfig, Scratch, TasForest};
use pp_graph::Graph;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Color sentinel for "not yet colored".
const UNCOLORED: u32 = u32::MAX;

/// Per-vertex count of blocking (higher-priority) neighbors — the
/// TAS-tree leaf counts the parallel coloring builds its forest from. A
/// pure function of graph + priorities: the preprocessing half of
/// [`Coloring`](crate::api::Coloring).
pub fn blocking_counts(g: &Graph, priority: &[u32]) -> Vec<u32> {
    let n = g.num_vertices();
    assert_eq!(priority.len(), n);
    (0..n as u32)
        .into_par_iter()
        .map(|v| {
            g.neighbors(v)
                .iter()
                .filter(|&&u| priority[u as usize] > priority[v as usize])
                .count() as u32
        })
        .collect()
}

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

/// Asynchronous Jones–Plassmann coloring via TAS trees: run the
/// coloring cascades ([`run_cascades`], shared with MIS) against
/// prebuilt [`blocking_counts`], drawing the color array from
/// `scratch`. Same output as [`coloring_seq`]. On a deadline trip,
/// uncolored vertices keep the `u32::MAX` sentinel.
pub(crate) fn coloring_par(
    g: &Graph,
    priority: &[u32],
    counts: &[u32],
    scratch: &mut Scratch,
    cfg: &RunConfig,
) -> Report<Vec<u32>> {
    let n = g.num_vertices();
    assert_eq!(priority.len(), n);
    assert_eq!(counts.len(), n, "counts built for another graph");
    // Leaf index of arc (v → u) in v's tree when u blocks v: the count
    // of blocking neighbors before that slot — recomputable locally, so
    // here we just recompute it at mark time (degree scan is amortized
    // against the mark's O(log) path on sparse graphs; kept simple).
    let forest = TasForest::new(counts);
    let mut color = scratch.take_vec::<AtomicU32>("coloring_color");
    color.resize_with(n, || AtomicU32::new(UNCOLORED));

    struct Ctx<'a> {
        g: &'a Graph,
        priority: &'a [u32],
        forest: TasForest,
        color: &'a [AtomicU32],
    }

    /// Color `v` (all its blocking neighbors are colored) and return the
    /// lower-priority neighbors whose TAS trees this completes.
    fn assign(ctx: &Ctx<'_>, v: u32) -> Vec<u32> {
        // All higher-priority neighbors are colored; take the mex.
        let deg = ctx.g.degree(v);
        let mut used = vec![false; deg + 1];
        for &u in ctx.g.neighbors(v) {
            if ctx.priority[u as usize] > ctx.priority[v as usize] {
                let c = ctx.color[u as usize].load(Ordering::Acquire);
                debug_assert_ne!(c, UNCOLORED, "blocking neighbor uncolored");
                if (c as usize) < used.len() {
                    used[c as usize] = true;
                }
            }
        }
        let mex = used.iter().position(|&b| !b).unwrap() as u32;
        ctx.color[v as usize].store(mex, Ordering::Release);
        // Notify lower-priority neighbors; collect completed trees.
        ctx.g
            .neighbors(v)
            .iter()
            .filter_map(|&w| {
                if ctx.priority[w as usize] < ctx.priority[v as usize] {
                    // v's leaf index in w's tree.
                    let leaf = ctx
                        .g
                        .neighbors(w)
                        .iter()
                        .take_while(|&&x| x != v)
                        .filter(|&&x| ctx.priority[x as usize] > ctx.priority[w as usize])
                        .count();
                    if ctx.forest.mark(w as usize, leaf) {
                        return Some(w);
                    }
                }
                None
            })
            .collect()
    }

    let ctx = Ctx {
        g,
        priority,
        forest,
        color: &color,
    };
    let outcome = run_cascades(&ctx.forest, cfg, |frontier, _, next| {
        next.par_extend(frontier.par_iter().flat_map_iter(|&v| assign(&ctx, v)));
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
