//! The literal Theorem 4.5 algorithm: phase-parallel Dijkstra with a
//! PA-BST maintaining tentative distances.
//!
//! "Using PA-BST to maintain the distances of all vertices" — the tree
//! holds `(tentative distance, vertex)` for every reached-but-unsettled
//! vertex, augmented implicitly by its minimum key. Each round settles
//! the window `[d_0, ⌈d_0/w*+1⌉·w*)` (a split), relaxes the frontier's
//! edges in parallel, and applies the distance improvements as batch
//! delete+insert — `O(|E| log |V|)` work and `O(rank(V) log |V|)` span,
//! with `rank(V) = d_max / w*`.
//!
//! The array-backed Δ-stepping with Δ = w* is the
//! practical equivalent (§6.3 footnote: "almost none of the parallel
//! SSSP implementations uses tree-based structures ... due to their
//! worse cache locality than flat arrays"); both are kept so the
//! flat-vs-tree contrast is measurable here too.

use super::INF;
use phase_parallel::{ExecutionStats, Report, RunConfig, RunOutcome};
use pp_graph::Graph;
use pp_pam::{AugTree, NoAug};
use rayon::prelude::*;

/// Phase-parallel Dijkstra on a PA-BST, settling `w_star`-wide
/// windows. The report's `stats.rounds` counts settled windows, with
/// per-window frontier sizes in `frontier_sizes`. Panics on unweighted
/// graphs with edges.
///
/// The window loop polls the config's deadline each round; a trip
/// returns the partial distances (settled windows exact, the rest
/// tentative or [`INF`]) under `RunOutcome::DeadlineExceeded`.
pub(crate) fn sssp_pam(g: &Graph, source: u32, w_star: u64, cfg: &RunConfig) -> Report<Vec<u64>> {
    let n = g.num_vertices();
    // The distance array is the output: filled in place and moved into
    // the report (no clone-and-park round trip).
    let mut dist = vec![INF; n];
    dist[source as usize] = 0;
    let mut tree: AugTree<(u64, u32), (), NoAug> = AugTree::new(NoAug);
    tree.insert((0, source), ());
    let mut stats = ExecutionStats::default();
    let mut outcome = RunOutcome::Completed;
    while !tree.is_empty() {
        if cfg.is_cancelled() {
            outcome = RunOutcome::DeadlineExceeded;
            break;
        }
        let &(d0, _) = tree.first().expect("non-empty").0;
        let hi = (d0 / w_star + 1) * w_star;
        // Settle every vertex with tentative distance < hi: relaxations
        // out of the window land at >= d0 + w* >= hi, so nothing inside
        // the window can improve (the relaxed-rank argument of §4.3).
        let (frontier_tree, _, rest) = tree.split_at(&(hi, 0));
        tree = rest;
        let frontier: Vec<(u64, u32)> = frontier_tree
            .flatten()
            .into_iter()
            .map(|(k, ())| k)
            .collect();
        stats.record_round(frontier.len());
        // Relax all frontier edges in parallel; collect improvements.
        let dist_ref = &dist;
        let mut cands: Vec<(u32, u64)> = frontier
            .par_iter()
            .flat_map_iter(move |&(d, v)| {
                let ws = g.edge_weights(v);
                g.neighbors(v)
                    .iter()
                    .enumerate()
                    .filter_map(move |(e, &u)| {
                        let nd = d + ws[e];
                        (nd < dist_ref[u as usize]).then_some((u, nd))
                    })
            })
            .collect();
        // Keep the best improvement per vertex.
        pp_parlay::par_sort(&mut cands);
        cands.dedup_by_key(|&mut (u, _)| u);
        let improved: Vec<(u32, u64, u64)> = cands
            .into_iter()
            .filter(|&(u, nd)| nd < dist[u as usize])
            .map(|(u, nd)| (u, dist[u as usize], nd))
            .collect();
        // Batch-update the tree: delete stale entries, insert new ones.
        let stale: Vec<(u64, u32)> = improved
            .iter()
            .filter(|&&(_, old, _)| old != INF)
            .map(|&(u, old, _)| (old, u))
            .collect();
        tree.multi_delete(stale);
        tree.multi_insert(improved.iter().map(|&(u, _, nd)| ((nd, u), ())).collect());
        for &(u, _, nd) in &improved {
            dist[u as usize] = nd;
        }
    }
    Report::new(dist, stats).with_outcome(outcome)
}

#[cfg(test)]
mod tests {
    use super::super::dijkstra;
    use super::*;
    use crate::api::{DeltaSssp, PamSssp, SsspInstance};
    use phase_parallel::PhaseAlgorithm;
    use pp_graph::gen;

    #[test]
    fn matches_dijkstra_on_random_graphs() {
        for seed in 0..4 {
            let g = gen::uniform(400, 1600, seed);
            let inst = SsspInstance::new(gen::with_uniform_weights(&g, 10, 500, seed + 9), 0);
            assert_eq!(
                PamSssp.solve_par(&inst, &RunConfig::new()).output,
                dijkstra(&inst.graph, 0),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn rounds_match_delta_stepping_buckets() {
        // Same windowing: rounds ≈ Δ-stepping's bucket count at Δ = w*.
        let g = gen::grid2d(20, 20);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 100, 150, 1), 0);
        let pam = PamSssp.solve_par(&inst, &RunConfig::new());
        let delta = DeltaSssp.solve_par(&inst, &RunConfig::new().with_delta(100));
        assert_eq!(pam.output, delta.output);
        // Both settle w*-wide windows; counts agree up to empty windows.
        let rounds = pam.stats.rounds;
        assert!(rounds >= delta.stats.rounds);
        let d_max = *pam.output.iter().filter(|&&x| x != INF).max().unwrap();
        assert!(rounds as u64 <= d_max / 100 + 2);
    }

    #[test]
    fn single_vertex_and_disconnected() {
        let inst = SsspInstance::new(pp_graph::GraphBuilder::new(3).weighted().build(), 1);
        let report = PamSssp.solve_par(&inst, &RunConfig::new());
        assert_eq!(report.output, vec![INF, 0, INF]);
        assert_eq!(report.stats.rounds, 1);
    }
}
