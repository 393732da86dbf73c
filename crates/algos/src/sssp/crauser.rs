//! Crauser et al.'s OUT-criterion: another relaxed rank for Dijkstra.
//!
//! §4.3 notes that "there can be other ways to define the relaxed rank of
//! the Dijkstra's algorithm \[31, 51\], which enable different bounds to the
//! phase-parallel algorithms". This module implements the classic one —
//! Crauser, Mehlhorn, Meyer & Sanders (MFCS 1998, the paper's \[31\]): a
//! vertex `v` is *safe to settle* as soon as
//!
//! ```text
//! dist(v) ≤ L  where  L = min over unsettled u of ( dist(u) + mow(u) )
//! ```
//!
//! and `mow(u)` is the minimum out-edge weight of `u` — no path through
//! any unsettled vertex can reach `v` more cheaply. Every vertex settled
//! in round `i` under this rule defines a valid relaxed rank
//! `rank(v) = i`: settling is monotone in `dist`, dependences only point
//! from lower to higher rounds, and rank(v) never exceeds `v`'s true rank
//! (hop count on the shortest-path tree). Unlike Δ = w* (which uses the
//! single *global* minimum edge weight), the OUT-criterion adapts to the
//! local weight structure, settling strictly more vertices per round than
//! Δ-stepping's first substep whenever weights are non-uniform.
//!
//! The implementation is round-synchronous and work-efficient in the same
//! sense as Dijkstra: each vertex settles exactly once and each edge is
//! relaxed exactly once (plus an `O(active)` scan per round). The active
//! set lives in the [`Frontier`] engine (threshold scan, batch
//! extraction and compaction run against its stamps — no per-round list
//! reallocations) and settled batches relax in edge-balanced packets.

use super::INF;
use phase_parallel::{ExecutionStats, Frontier, Report, RunConfig, RunOutcome, Scratch};
use pp_graph::Graph;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shortest distances from `source` using the OUT-criterion relaxed
/// rank, given each vertex's minimum out-edge weight `mow` ([`INF`] for
/// sinks — they constrain nothing, since no path continues through
/// them). Unreachable vertices get [`INF`]. Requires a weighted graph
/// with positive weights. The distance array, active set and batch
/// buffers are recycled through `scratch`.
///
/// The report's `stats.rounds` equals the maximum OUT-criterion relaxed
/// rank, `stats.max_frontier()` the largest settled batch, and the
/// `"relaxations"` counter the total edge relaxations (work-efficiency
/// check: equals the number of edges out of reachable vertices). Honors
/// the config's [`RunConfig::frontier`] representation pin and deadline
/// (polled once per round).
pub(crate) fn crauser_out(
    g: &Graph,
    source: u32,
    mow: &[u64],
    scratch: &mut Scratch,
    cfg: &RunConfig,
) -> Report<Vec<u64>> {
    let n = g.num_vertices();
    debug_assert_eq!(mow.len(), n);
    let mut dist = scratch.take_vec::<AtomicU64>("sssp_dist");
    dist.resize_with(n, || AtomicU64::new(INF));
    dist[source as usize].store(0, Ordering::Relaxed);
    // Active = unsettled with a finite tentative distance. Invariant at
    // the top of each round: the engine holds exactly the finite
    // unsettled vertices, each once.
    let mut active = Frontier::take(scratch, "sssp_frontier");
    active.reset(n);
    active.set_policy(cfg.frontier);
    active.insert(source);
    let mut batch = scratch.take_vec::<u32>("crauser_batch");
    let mut updated = scratch.take_vec::<u32>("crauser_updated");
    let mut deg = scratch.take_vec::<u64>("relax_deg");
    let mut prefix = scratch.take_vec::<u64>("relax_prefix");
    let mut bounds = scratch.take_vec::<usize>("relax_bounds");
    let mut stats = ExecutionStats::default();
    let mut relax_count = 0u64;
    let mut outcome = RunOutcome::Completed;

    while !active.is_empty() {
        // Cooperative cancellation, polled once per round.
        if cfg.is_cancelled() {
            outcome = RunOutcome::DeadlineExceeded;
            break;
        }
        // The settling threshold L. Positive weights make the global
        // minimum-distance vertex always pass (dist_min < dist_min + mow),
        // so every round settles at least one vertex.
        let dist_ref = &dist;
        let threshold = active
            .min_map(|u| {
                let du = dist_ref[u as usize].load(Ordering::Relaxed);
                du.saturating_add(mow[u as usize])
            })
            .unwrap();
        batch.clear();
        active.extract_retain(&mut batch, |v| {
            dist_ref[v as usize].load(Ordering::Relaxed) <= threshold
        });
        debug_assert!(!batch.is_empty(), "OUT-criterion must make progress");
        stats.record_round(batch.len());

        // Settle the batch: relax each settled vertex's edges once, in
        // edge-balanced packets. Batch members are final (no cheaper
        // path exists), so no in-batch relaxation can improve a batch
        // member. A vertex enters the active set exactly when its
        // distance first becomes finite — `fetch_min` returning INF
        // identifies the unique first reacher, so no dedup is needed
        // (the engine's stamps make it harmless anyway).
        let relax = move |v: u32| {
            let dv = dist_ref[v as usize].load(Ordering::Relaxed);
            let ws = g.edge_weights(v);
            g.neighbors(v)
                .iter()
                .enumerate()
                .filter_map(move |(e, &u)| {
                    let nd = dv + ws[e];
                    // Pre-check: the CAS is only needed to improve the
                    // minimum or to claim the unique first reach of a
                    // still-INF vertex; a non-improving relaxation of
                    // an already-reached vertex skips it.
                    let cur = dist_ref[u as usize].load(Ordering::Relaxed);
                    if (cur == INF || nd < cur)
                        && dist_ref[u as usize].fetch_min(nd, Ordering::Relaxed) == INF
                    {
                        Some(u)
                    } else {
                        None
                    }
                })
        };
        updated.clear();
        relax_count += super::relax_into_packets(
            g,
            &batch,
            &mut deg,
            &mut prefix,
            &mut bounds,
            &mut updated,
            relax,
        );
        active.insert_from(&updated);
    }

    stats.set_counter("relaxations", relax_count);
    let out: Vec<u64> = dist.par_iter().map(|d| d.load(Ordering::Relaxed)).collect();
    scratch.put_vec("sssp_dist", dist);
    active.release(scratch, "sssp_frontier");
    scratch.put_vec("crauser_batch", batch);
    scratch.put_vec("crauser_updated", updated);
    scratch.put_vec("relax_deg", deg);
    scratch.put_vec("relax_prefix", prefix);
    scratch.put_vec("relax_bounds", bounds);
    Report::new(out, stats).with_outcome(outcome)
}

#[cfg(test)]
mod tests {
    use super::super::dijkstra;
    use super::*;
    use crate::api::{CrauserSssp, DeltaSssp, SsspInstance};
    use phase_parallel::{FrontierPolicy, PhaseAlgorithm, Scratch};
    use pp_graph::{gen, GraphBuilder};

    #[test]
    fn agrees_with_dijkstra() {
        for seed in 0..5 {
            let g = gen::uniform(300, 1200, seed);
            let inst = SsspInstance::new(gen::with_uniform_weights(&g, 1, 1000, seed + 10), 0);
            assert_eq!(
                CrauserSssp.solve_par(&inst, &RunConfig::new()).output,
                dijkstra(&inst.graph, 0),
                "seed={seed}"
            );
        }
    }

    #[test]
    fn agrees_on_grid_and_rmat() {
        let g = gen::grid2d(18, 22);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 3, 60, 2), 5);
        // `solve_seq` is Dijkstra from the instance's source.
        let check = |inst: &SsspInstance| {
            let report = CrauserSssp.solve_par(inst, &RunConfig::new());
            assert_eq!(report.output, CrauserSssp.solve_seq(inst));
        };
        check(&inst);

        let g = gen::rmat(9, 4096, 11);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 1 << 17, 1 << 23, 12), 0);
        check(&inst);
    }

    #[test]
    fn work_efficient_relaxations() {
        // Each reachable vertex's edges are relaxed exactly once.
        let g = gen::uniform(500, 2000, 7);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 1, 100, 8), 0);
        let wg = &inst.graph;
        let report = CrauserSssp.solve_par(&inst, &RunConfig::new());
        let d = &report.output;
        let want: u64 = (0..wg.num_vertices() as u32)
            .filter(|&v| d[v as usize] != INF)
            .map(|v| wg.degree(v) as u64)
            .sum();
        assert_eq!(report.stats.counter("relaxations"), Some(want));
    }

    #[test]
    fn beats_dijkstra_round_count() {
        // On a uniform-weight path, mow = w everywhere, so each round
        // settles every active vertex within one edge of the boundary —
        // but more interestingly, on a star all leaves settle in round 2.
        let g = gen::star(100);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 10, 10, 1), 0);
        let report = CrauserSssp.solve_par(&inst, &RunConfig::new());
        assert!(report.output[1..].iter().all(|&x| x == 10));
        assert_eq!(report.stats.rounds, 2);
        assert_eq!(report.stats.max_frontier(), 99);
    }

    #[test]
    fn rounds_never_exceed_settled_vertices() {
        let g = gen::uniform(400, 1600, 3);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 1, 1 << 20, 4), 0);
        let report = CrauserSssp.solve_par(&inst, &RunConfig::new());
        let d = report.output;
        let reachable = d.iter().filter(|&&x| x != INF).count();
        assert!(report.stats.rounds <= reachable);
        // And agrees with the phase-parallel Δ = w* algorithm.
        assert_eq!(d, DeltaSssp.solve_par(&inst, &RunConfig::new()).output);
    }

    #[test]
    fn pinned_policies_agree() {
        let g = gen::rmat(8, 2048, 6);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 1, 1 << 12, 7), 0);
        let prepared = CrauserSssp.prepare(&inst);
        let mut scratch = Scratch::new();
        let mut pinned = |policy| {
            let cfg = RunConfig::new().with_frontier(policy);
            CrauserSssp.solve_prepared(&inst, &prepared, &mut scratch, &cfg)
        };
        let sparse = pinned(FrontierPolicy::Sparse);
        let dense = pinned(FrontierPolicy::Dense);
        assert_eq!(sparse.output, dense.output);
        assert_eq!(sparse.output, dijkstra(&inst.graph, 0));
        assert_eq!(sparse.stats.rounds, dense.stats.rounds);
    }

    #[test]
    fn disconnected_and_single() {
        let mut b = GraphBuilder::new(4).symmetric().weighted();
        b.add_weighted(0, 1, 5);
        b.add_weighted(2, 3, 7);
        let inst = SsspInstance::new(b.build(), 0);
        assert_eq!(
            CrauserSssp.solve_par(&inst, &RunConfig::new()).output,
            vec![0, 5, INF, INF]
        );

        let single = SsspInstance::new(GraphBuilder::new(1).weighted().build(), 0);
        assert_eq!(
            CrauserSssp.solve_par(&single, &RunConfig::new()).output,
            vec![0]
        );
    }
}
