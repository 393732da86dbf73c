//! Ordering heuristics for greedy coloring (§5.3's discussion of
//! Hasenplaugh et al. \[48\]): the greedy order is a *priority function*,
//! and different priorities trade span bounds against output quality.
//!
//! * **R** — uniformly random (the baseline; `O(log n)` dependence depth
//!   whp on bounded-degree graphs).
//! * **LF** — largest-degree-first: high-degree vertices get colored
//!   early, which empirically reduces the number of colors.
//! * **LLF** — largest-*log*-degree-first: like LF but only the log of
//!   the degree matters, with random tie-breaking inside a log-class;
//!   Hasenplaugh et al. show this keeps the depth `O(Δ log Δ + log n
//!   log Δ / log log n)` while retaining most of LF's quality.
//! * **SL** — smallest-degree-last: k-core peeling; colors with at most
//!   `degeneracy + 1` colors, the strongest quality guarantee of \[48\].
//!
//! All heuristics plug into the same TAS-tree engine
//! ([`crate::api::Coloring`]) — the paper's point is precisely
//! that the wake-up mechanism is orthogonal to the order.

use phase_parallel::{PrioritySource, RunConfig};
use pp_graph::Graph;
use pp_parlay::shuffle::random_permutation;
use rayon::prelude::*;

/// Vertex priorities for `g` according to the configuration's
/// [`RunConfig::priority_source`] (seeded by `cfg.seed`) — how driver
/// layers (the registry, benches, services) turn the typed knob into
/// the priority vector the greedy graph algorithms take as input.
pub fn priorities_from_config(g: &Graph, cfg: &RunConfig) -> Vec<u32> {
    match cfg.priority_source {
        PrioritySource::Random => order_random(g, cfg.seed),
        PrioritySource::LargestDegreeFirst => order_largest_degree_first(g, cfg.seed),
        PrioritySource::LargestLogDegreeFirst => order_largest_log_degree_first(g, cfg.seed),
        PrioritySource::SmallestDegreeLast => order_smallest_degree_last(g, cfg.seed),
    }
}

/// Random priorities (R).
pub fn order_random(g: &Graph, seed: u64) -> Vec<u32> {
    pp_parlay::shuffle::random_priorities(g.num_vertices(), seed)
}

/// Largest-degree-first priorities (LF): priority increases with
/// degree; random tie-break among equal degrees.
pub fn order_largest_degree_first(g: &Graph, seed: u64) -> Vec<u32> {
    let n = g.num_vertices();
    let tie = random_permutation(n, seed);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&v| (g.degree(v), tie[v as usize]));
    // Position in ascending (degree, tie) order = priority rank.
    let mut pri = vec![0u32; n];
    for (rank, &v) in order.iter().enumerate() {
        pri[v as usize] = rank as u32;
    }
    pri
}

/// Largest-log-degree-first priorities (LLF): degree log-class first,
/// random within the class.
pub fn order_largest_log_degree_first(g: &Graph, seed: u64) -> Vec<u32> {
    let n = g.num_vertices();
    let tie = random_permutation(n, seed);
    let log_class = |v: u32| 64 - (g.degree(v) as u64 + 1).leading_zeros();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&v| (log_class(v), tie[v as usize]));
    let mut pri = vec![0u32; n];
    for (rank, &v) in order.iter().enumerate() {
        pri[v as usize] = rank as u32;
    }
    pri
}

/// Smallest-degree-last priorities (SL): peel minimum-degree vertices in
/// rounds (the k-core peeling of Matula–Beck); vertices peeled *later*
/// are colored *earlier*. Hasenplaugh et al.'s strongest-quality order —
/// it colors every graph of degeneracy `d` with at most `d + 1` colors
/// where LF can need `Δ + 1` — at the cost of the peeling precomputation
/// (`O(n + m)` work, rounds = degeneracy peel depth).
pub fn order_smallest_degree_last(g: &Graph, seed: u64) -> Vec<u32> {
    let n = g.num_vertices();
    let tie = random_permutation(n, seed);
    let mut deg: Vec<i64> = (0..n as u32).map(|v| g.degree(v) as i64).collect();
    let mut peeled = vec![false; n];
    let mut peel_round = vec![0u32; n];
    let mut remaining = n;
    let mut round = 0u32;
    while remaining > 0 {
        // Peel every vertex at the current minimum remaining degree.
        let min_deg = (0..n)
            .filter(|&v| !peeled[v])
            .map(|v| deg[v])
            .min()
            .unwrap();
        let batch: Vec<u32> = (0..n as u32)
            .filter(|&v| !peeled[v as usize] && deg[v as usize] == min_deg)
            .collect();
        for &v in &batch {
            peeled[v as usize] = true;
            peel_round[v as usize] = round;
        }
        for &v in &batch {
            for &u in g.neighbors(v) {
                deg[u as usize] -= 1;
            }
        }
        remaining -= batch.len();
        round += 1;
    }
    // Later peel round ⇒ higher priority; random tie-break inside a round.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&v| (peel_round[v as usize], tie[v as usize]));
    let mut pri = vec![0u32; n];
    for (rank, &v) in order.iter().enumerate() {
        pri[v as usize] = rank as u32;
    }
    pri
}

/// Number of colors a coloring uses.
pub fn num_colors(coloring: &[u32]) -> u32 {
    coloring.par_iter().copied().max().map_or(0, |m| m + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Coloring, GraphPriorityInstance};
    use crate::coloring::is_proper_coloring;
    use phase_parallel::{PhaseAlgorithm, RunConfig};
    use pp_graph::gen;

    #[test]
    fn heuristics_are_valid_priorities() {
        let g = gen::rmat(10, 8192, 1);
        let orders = [
            order_random(&g, 2),
            order_largest_degree_first(&g, 2),
            order_largest_log_degree_first(&g, 2),
            order_smallest_degree_last(&g, 2),
        ];
        let mut inst = GraphPriorityInstance::new(g, Vec::new());
        for pri in orders {
            // A permutation of 0..n.
            let mut sorted = pri.clone();
            sorted.sort_unstable();
            assert!(sorted.iter().enumerate().all(|(i, &p)| p == i as u32));
            // Par and seq agree under every heuristic.
            inst.priority = pri;
            let c = Coloring.solve_par(&inst, &RunConfig::new()).output;
            assert_eq!(c, Coloring.solve_seq(&inst));
            assert!(is_proper_coloring(&inst.graph, &c));
        }
    }

    #[test]
    fn sl_achieves_degeneracy_plus_one_on_crown_like_graph() {
        // A tree has degeneracy 1: SL must 2-color it even though LF's
        // bound only gives Δ + 1. Binary tree with n = 511, Δ = 3.
        let n = 511usize;
        let mut b = pp_graph::GraphBuilder::new(n).symmetric();
        for i in 1..n as u32 {
            b.add(i, (i - 1) / 2);
        }
        let g = b.build();
        let pri = order_smallest_degree_last(&g, 5);
        let inst = GraphPriorityInstance::new(g, pri);
        let c = Coloring.solve_par(&inst, &RunConfig::new()).output;
        assert!(is_proper_coloring(&inst.graph, &c));
        assert_eq!(num_colors(&c), 2, "SL on a tree = degeneracy + 1");
    }

    #[test]
    fn sl_peels_cycle_in_one_round() {
        // A cycle is 2-regular: everything peels in round 1; SL = random
        // order, coloring uses ≤ 3 colors.
        let g = gen::cycle(100);
        let pri = order_smallest_degree_last(&g, 6);
        let inst = GraphPriorityInstance::new(g, pri);
        let c = Coloring.solve_par(&inst, &RunConfig::new()).output;
        assert!(is_proper_coloring(&inst.graph, &c));
        assert!(num_colors(&c) <= 3);
    }

    #[test]
    fn lf_orders_hubs_first() {
        let g = gen::star(100);
        let pri = order_largest_degree_first(&g, 1);
        // The hub has the unique largest degree → the top priority.
        assert_eq!(pri[0], 99);
        let inst = GraphPriorityInstance::new(g, pri);
        let c = Coloring.solve_par(&inst, &RunConfig::new()).output;
        assert_eq!(num_colors(&c), 2);
        assert_eq!(c[0], 0); // hub colored first, gets color 0
    }

    #[test]
    fn lf_no_worse_than_random_on_skewed_graph() {
        // On power-law graphs LF typically uses no more colors than R.
        let g = gen::rmat(11, 1 << 14, 3);
        let (r, lf) = (order_random(&g, 4), order_largest_degree_first(&g, 4));
        let mut inst = GraphPriorityInstance::new(g, r);
        let c_r = Coloring.solve_par(&inst, &RunConfig::new()).output;
        inst.priority = lf;
        let c_lf = Coloring.solve_par(&inst, &RunConfig::new()).output;
        assert!(
            num_colors(&c_lf) <= num_colors(&c_r),
            "LF {} vs R {}",
            num_colors(&c_lf),
            num_colors(&c_r)
        );
    }

    #[test]
    fn llf_classes_respect_log_degree() {
        let g = gen::star(1000);
        let pri = order_largest_log_degree_first(&g, 5);
        // The hub's log-class (≈ 10) dominates the leaves' (1).
        assert!(pri[0] > pri[1]);
        assert!(pri[0] > pri[999]);
    }
}
