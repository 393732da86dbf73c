//! Frontier-based parallel Bellman-Ford: the maximal-parallelism,
//! work-inefficient end of the SSSP spectrum (§6.3 background) — every
//! round relaxes all out-edges of every improved vertex.
//!
//! Runs on the [`Frontier`] engine: improved vertices are deduplicated
//! by epoch stamp instead of a per-round `sort` + `dedup`, the frontier
//! representation adapts sparse↔dense as it grows and shrinks, and
//! relaxation is split into edge-balanced packets.

use super::INF;
use phase_parallel::{ExecutionStats, Frontier, Report, RunConfig, RunOutcome, Scratch};
use pp_graph::{chunk, Graph};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Shortest distances from `source` by round-synchronous relaxation,
/// honoring the config's [`RunConfig::frontier`] representation pin and
/// deadline (polled once per round), with the distance array and
/// frontier engine recycled through `scratch`. The report's
/// `stats.rounds` counts relaxation rounds with per-round frontier
/// sizes, and `"relaxations"` totals edge relaxations.
pub(crate) fn bellman_ford(
    g: &Graph,
    source: u32,
    scratch: &mut Scratch,
    cfg: &RunConfig,
) -> Report<Vec<u64>> {
    let n = g.num_vertices();
    let mut dist = scratch.take_vec::<AtomicU64>("sssp_dist");
    dist.resize_with(n, || AtomicU64::new(INF));
    dist[source as usize].store(0, Ordering::Relaxed);
    let mut frontier = Frontier::take(scratch, "sssp_frontier");
    frontier.reset(n);
    frontier.set_policy(cfg.frontier);
    frontier.insert(source);
    let mut updated = scratch.take_vec::<u32>("bf_updated");
    let mut deg = scratch.take_vec::<u64>("relax_deg");
    let mut prefix = scratch.take_vec::<u64>("relax_prefix");
    let mut bounds = scratch.take_vec::<usize>("relax_bounds");
    let packets = chunk::default_packets();
    let mut stats = ExecutionStats::default();
    let mut relax_count = 0u64;
    let mut outcome = RunOutcome::Completed;

    while !frontier.is_empty() {
        // Cooperative cancellation, polled once per round.
        if cfg.is_cancelled() {
            outcome = RunOutcome::DeadlineExceeded;
            break;
        }
        stats.record_round(frontier.len());
        // Relax all frontier edges in edge-balanced packets; collect
        // improved vertices (duplicates collapse in the engine).
        let dist_ref = &dist;
        let relax = move |v: u32| {
            let d = dist_ref[v as usize].load(Ordering::Relaxed);
            let ws = g.edge_weights(v);
            g.neighbors(v)
                .iter()
                .enumerate()
                .filter_map(move |(e, &u)| {
                    let nd = d + ws[e];
                    // Monotone pre-check: only pay the CAS loop on
                    // edges that actually improve the target.
                    if nd < dist_ref[u as usize].load(Ordering::Relaxed)
                        && nd < dist_ref[u as usize].fetch_min(nd, Ordering::Relaxed)
                    {
                        Some(u)
                    } else {
                        None
                    }
                })
        };
        updated.clear();
        match frontier.as_slice() {
            Some(members) => {
                relax_count += super::relax_into_packets(
                    g,
                    members,
                    &mut deg,
                    &mut prefix,
                    &mut bounds,
                    &mut updated,
                    relax,
                );
            }
            None => {
                relax_count += frontier.sum_map(|v| g.degree(v) as u64);
                chunk::vertex_edge_bounds(g, packets, &mut bounds);
                let fr = &frontier;
                updated.par_extend(bounds.par_windows(2).flat_map_iter(|w| {
                    (w[0] as u32..w[1] as u32)
                        .filter(|&v| fr.contains(v))
                        .flat_map(relax)
                }));
            }
        }
        frontier.fill(&updated);
    }
    stats.set_counter("relaxations", relax_count);
    let out: Vec<u64> = dist.par_iter().map(|d| d.load(Ordering::Relaxed)).collect();
    scratch.put_vec("sssp_dist", dist);
    frontier.release(scratch, "sssp_frontier");
    scratch.put_vec("bf_updated", updated);
    scratch.put_vec("relax_deg", deg);
    scratch.put_vec("relax_prefix", prefix);
    scratch.put_vec("relax_bounds", bounds);
    Report::new(out, stats).with_outcome(outcome)
}

#[cfg(test)]
mod tests {
    use super::super::dijkstra;
    use super::*;
    use crate::api::{BellmanFordSssp, SsspInstance};
    use phase_parallel::{FrontierPolicy, PhaseAlgorithm, Scratch};
    use pp_graph::GraphBuilder;

    #[test]
    fn matches_hand_computed() {
        let mut b = GraphBuilder::new(4).symmetric().weighted();
        b.add_weighted(0, 1, 1);
        b.add_weighted(1, 2, 1);
        b.add_weighted(2, 3, 1);
        b.add_weighted(0, 3, 10);
        let inst = SsspInstance::new(b.build(), 0);
        assert_eq!(
            BellmanFordSssp.solve_par(&inst, &RunConfig::new()).output,
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn pinned_policies_agree() {
        let g = pp_graph::gen::uniform(400, 1600, 2);
        let inst = SsspInstance::new(pp_graph::gen::with_uniform_weights(&g, 1, 50, 3), 0);
        let prepared = BellmanFordSssp.prepare(&inst);
        let mut scratch = Scratch::new();
        let mut pinned = |policy| {
            let cfg = RunConfig::new().with_frontier(policy);
            BellmanFordSssp.solve_prepared(&inst, &prepared, &mut scratch, &cfg)
        };
        let sparse = pinned(FrontierPolicy::Sparse);
        let dense = pinned(FrontierPolicy::Dense);
        assert_eq!(sparse.output, dense.output);
        assert_eq!(sparse.output, dijkstra(&inst.graph, 0));
    }

    #[test]
    fn tripped_token_yields_typed_outcome() {
        let g = pp_graph::gen::uniform(300, 1200, 4);
        let inst = SsspInstance::new(pp_graph::gen::with_uniform_weights(&g, 1, 50, 5), 0);
        let token = phase_parallel::CancelToken::new();
        token.cancel();
        let report = BellmanFordSssp.solve_par(&inst, &RunConfig::new().with_cancel_token(token));
        assert_eq!(report.outcome, RunOutcome::DeadlineExceeded);
        // Only the source has a distance: the run stopped before round 1.
        assert_eq!(report.output[0], 0);
        assert_eq!(report.stats.rounds, 0);
    }
}
