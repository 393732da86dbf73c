//! ρ-stepping: settle the ρ closest unsettled vertices per step.
//!
//! The paper's §4.3/§6.3 discussion places Δ-stepping and ρ-stepping
//! (Dong, Gu, Sun & Zhang, SPAA 2021 — the paper's \[39\], whose
//! implementation the authors use for Fig. 6) on the same
//! work-vs-parallelism tradeoff curve that the relaxed rank formalizes:
//! Δ-stepping widens each round by *distance*, ρ-stepping widens it by
//! *count*. We implement ρ-stepping so the tradeoff can be benchmarked
//! against Δ-stepping with Δ = w* (the phase-parallel choice).
//!
//! Algorithm: keep a pool of *active* vertices (tentative distance
//! improved since last processed). Each step extracts the ρ active
//! vertices with the smallest tentative distances (all of them if the
//! pool is small), relaxes their out-edges in parallel, and re-activates
//! any vertex whose distance improves — including ones processed before
//! (`ρ = 1` degenerates to Dijkstra without a decrease-key, `ρ = ∞` to
//! Bellman-Ford). Like Δ-stepping, extra work appears only when a batch
//! member's distance later improves.
//!
//! The active pool lives in the [`Frontier`] engine: activations are
//! deduplicated by epoch stamp (replacing the former flag-stealing
//! pool-rebuild dance and its three per-step list allocations), batch
//! extraction is a stamp-`retain`, and batch relaxation runs in
//! edge-balanced packets. All buffers recycle through [`Scratch`].

use super::INF;
use phase_parallel::{ExecutionStats, Frontier, Report, RunConfig, RunOutcome, Scratch};
use pp_graph::Graph;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default batch size when [`RunConfig::rho`] is unset — large enough
/// for real parallelism, small enough to stay near distance order.
pub const DEFAULT_RHO: usize = 4096;

/// Shortest distances from `source` by ρ-stepping with batch size
/// `cfg.rho` (default [`DEFAULT_RHO`]). Unreachable vertices get
/// [`INF`]. Requires a weighted graph; `rho == 0` is rejected. The
/// distance array, active pool and batch buffers are recycled through
/// `scratch`.
///
/// The report's `stats.rounds` counts steps (each processes ≤ ρ
/// vertices plus ties) with per-step batch sizes in `frontier_sizes`
/// (so `stats.processed()` totals vertex processings, re-processing
/// included); the `"relaxations"` counter is the work proxy (`/ m`
/// measures the overhead vs Dijkstra's exactly-once relaxation).
pub(crate) fn rho_stepping(
    g: &Graph,
    source: u32,
    scratch: &mut Scratch,
    cfg: &RunConfig,
) -> Report<Vec<u64>> {
    let rho = cfg.rho.unwrap_or(DEFAULT_RHO);
    assert!(rho > 0, "rho must be positive");
    let n = g.num_vertices();
    let mut dist = scratch.take_vec::<AtomicU64>("sssp_dist");
    dist.resize_with(n, || AtomicU64::new(INF));
    dist[source as usize].store(0, Ordering::Relaxed);
    // The active pool: exactly the vertices whose tentative distance
    // improved since they were last processed.
    let mut active = Frontier::take(scratch, "sssp_frontier");
    active.reset(n);
    active.set_policy(cfg.frontier);
    active.insert(source);
    let mut batch = scratch.take_vec::<u32>("rho_batch");
    let mut ds = scratch.take_vec::<u64>("rho_ds");
    let mut updated = scratch.take_vec::<u32>("rho_updated");
    let mut deg = scratch.take_vec::<u64>("relax_deg");
    let mut prefix = scratch.take_vec::<u64>("relax_prefix");
    let mut bounds = scratch.take_vec::<usize>("relax_bounds");
    let mut stats = ExecutionStats::default();
    let mut relax_count = 0u64;
    let mut outcome = RunOutcome::Completed;

    while !active.is_empty() {
        // Cooperative cancellation, polled once per step.
        if cfg.is_cancelled() {
            outcome = RunOutcome::DeadlineExceeded;
            break;
        }
        // Pick the batch: the ρ smallest tentative distances in the pool
        // (with ties at the threshold included, so the batch is a
        // deterministic function of the distances).
        batch.clear();
        if active.len() <= rho {
            active.drain_into(&mut batch);
        } else {
            ds.clear();
            let dist_ref = &dist;
            active.map_into(&mut ds, |v| dist_ref[v as usize].load(Ordering::Relaxed));
            let (_, thr, _) = ds.select_nth_unstable(rho - 1);
            let thr = *thr;
            active.extract_retain(&mut batch, |v| {
                dist_ref[v as usize].load(Ordering::Relaxed) <= thr
            });
        }
        stats.record_round(batch.len());

        // Relax the batch in edge-balanced packets; vertices whose
        // distance improves land in `updated` (duplicates collapse when
        // they re-enter the pool).
        let dist_ref = &dist;
        let relax = move |v: u32| {
            let dv = dist_ref[v as usize].load(Ordering::Relaxed);
            let ws = g.edge_weights(v);
            g.neighbors(v)
                .iter()
                .enumerate()
                .filter_map(move |(e, &u)| {
                    let nd = dv + ws[e];
                    // Monotone pre-check: only pay the CAS loop on
                    // edges that actually improve the target.
                    if nd < dist_ref[u as usize].load(Ordering::Relaxed)
                        && dist_ref[u as usize].fetch_min(nd, Ordering::Relaxed) > nd
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
        // Re-activate improved vertices: pool survivors stay members,
        // improved batch members and freshly improved neighbors join
        // exactly once each (epoch-stamp dedup).
        active.insert_from(&updated);
    }

    stats.set_counter("relaxations", relax_count);
    let out: Vec<u64> = dist.par_iter().map(|d| d.load(Ordering::Relaxed)).collect();
    scratch.put_vec("sssp_dist", dist);
    active.release(scratch, "sssp_frontier");
    scratch.put_vec("rho_batch", batch);
    scratch.put_vec("rho_ds", ds);
    scratch.put_vec("rho_updated", updated);
    scratch.put_vec("relax_deg", deg);
    scratch.put_vec("relax_prefix", prefix);
    scratch.put_vec("relax_bounds", bounds);
    Report::new(out, stats).with_outcome(outcome)
}

#[cfg(test)]
mod tests {
    use super::super::dijkstra;
    use super::*;
    use crate::api::{RhoSssp, SsspInstance};
    use phase_parallel::{FrontierPolicy, PhaseAlgorithm};
    use pp_graph::{gen, GraphBuilder};

    fn with_rho(rho: usize) -> RunConfig {
        RunConfig::new().with_rho(rho)
    }

    fn check(inst: &SsspInstance) {
        let want = dijkstra(&inst.graph, inst.source);
        for rho in [1usize, 2, 16, 1 << 20] {
            let got = RhoSssp.solve_par(inst, &with_rho(rho)).output;
            assert_eq!(got, want, "rho={rho}");
        }
    }

    #[test]
    fn agrees_with_dijkstra() {
        for seed in 0..4 {
            let g = gen::uniform(250, 1000, seed);
            let wg = gen::with_uniform_weights(&g, 1, 1000, seed + 50);
            check(&SsspInstance::new(wg, 0));
        }
        let g = gen::grid2d(15, 20);
        check(&SsspInstance::new(
            gen::with_uniform_weights(&g, 5, 50, 9),
            7,
        ));
    }

    #[test]
    fn disconnected() {
        let mut b = GraphBuilder::new(4).symmetric().weighted();
        b.add_weighted(0, 1, 5);
        b.add_weighted(2, 3, 7);
        let inst = SsspInstance::new(b.build(), 0);
        let d = RhoSssp.solve_par(&inst, &with_rho(4)).output;
        assert_eq!(d, vec![0, 5, INF, INF]);
    }

    #[test]
    fn rho_one_is_work_efficient() {
        // ρ = 1 processes vertices in exact distance order → every vertex
        // processed once (Dijkstra), m relaxations total.
        let g = gen::uniform(400, 1600, 3);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 1, 1_000_000, 4), 0);
        let wg = &inst.graph;
        let report = RhoSssp.solve_par(&inst, &with_rho(1));
        let d = &report.output;
        assert_eq!(*d, dijkstra(wg, 0));
        let reachable_edges: u64 = (0..wg.num_vertices() as u32)
            .filter(|&v| d[v as usize] != INF)
            .map(|v| wg.degree(v) as u64)
            .sum();
        assert_eq!(report.stats.counter("relaxations"), Some(reachable_edges));
    }

    #[test]
    fn large_rho_fewer_steps() {
        let g = gen::uniform(2000, 8000, 5);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 1, 100, 6), 0);
        let s_small = RhoSssp.solve_par(&inst, &with_rho(4)).stats;
        let s_big = RhoSssp.solve_par(&inst, &with_rho(512)).stats;
        assert!(s_big.rounds < s_small.rounds);
        // And more steps ⇒ less re-relaxation (work-parallelism tradeoff).
        assert!(s_big.counter("relaxations") >= s_small.counter("relaxations"));
    }

    #[test]
    fn pinned_policies_agree() {
        let g = gen::uniform(800, 3200, 8);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 1, 200, 9), 0);
        for rho in [4usize, 64] {
            let pinned = |policy| with_rho(rho).with_frontier(policy);
            let sparse = RhoSssp.solve_par(&inst, &pinned(FrontierPolicy::Sparse));
            let dense = RhoSssp.solve_par(&inst, &pinned(FrontierPolicy::Dense));
            // Outputs must agree; step counts may legitimately differ
            // (member order differs between representations, and
            // in-batch relaxation order shifts when re-activations
            // happen — the same freedom a real parallel schedule has).
            assert_eq!(sparse.output, dense.output, "rho={rho}");
        }
    }

    #[test]
    fn single_vertex() {
        let inst = SsspInstance::new(GraphBuilder::new(1).weighted().build(), 0);
        assert_eq!(RhoSssp.solve_par(&inst, &with_rho(8)).output, vec![0]);
    }
}
