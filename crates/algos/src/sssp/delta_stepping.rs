//! Δ-stepping (Meyer & Sanders), the §6.3 experimental vehicle.
//!
//! Distances are settled in increments of Δ: bucket `i` holds vertices
//! with tentative distance in `[iΔ, (i+1)Δ)`; the bucket is drained by
//! inner Bellman-Ford substeps until no vertex in it improves, then the
//! algorithm advances to the next non-empty bucket. **Δ = w\*** makes
//! every substep settle only vertices that cannot depend on each other —
//! the paper's phase-parallel relaxed rank (`rank(v) = ⌈d(v)/w*⌉`,
//! Theorem 4.5) — at the cost of smaller frontiers; the Fig. 6 sweep
//! explores exactly this tradeoff.
//!
//! The inner loop runs on the [`Frontier`] engine: candidate buckets
//! are deduplicated by epoch stamps (no per-substep `sort` + `dedup`),
//! the substep frontier adaptively switches between a sparse vertex
//! list and the dense stamp bitmap, and relaxation is split into
//! edge-balanced packets ([`pp_graph::chunk`]) so a hub vertex cannot
//! serialize a substep. Every buffer — the bucket spine, the frontier
//! engine, the update list, the chunker's prefix arrays — recycles
//! through [`Scratch`], so prepared queries allocate nothing in steady
//! state.

use super::INF;
use phase_parallel::{Frontier, Report, RunConfig, RunOutcome, Scratch};
use pp_graph::{chunk, Graph};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Δ-stepping from `source` with bucket width `delta` (the
/// [`DeltaSssp`](crate::api::DeltaSssp) query passes `cfg.delta`, or
/// w* — the paper's phase-parallel relaxed rank, Theorem 4.5 — when it
/// is unset). Panics on unweighted graphs with edges. The distance
/// arrays, bucket queue and frontier engine are recycled through
/// `scratch`.
///
/// The report's `stats.rounds` counts non-empty buckets drained
/// (≈ the relaxed rank of the instance when Δ = w*), with per-bucket
/// vertex-relaxation counts in `frontier_sizes`; named counters:
/// `"substeps"` (inner Bellman-Ford iterations, the span driver),
/// `"relaxations"` (total edge relaxations, the work driver — compare
/// with `m` for work-efficiency), and the frontier engine's
/// `"dense_substeps"` / `"sparse_substeps"` representation split.
pub(crate) fn delta_stepping(
    g: &Graph,
    source: u32,
    delta: u64,
    scratch: &mut Scratch,
    cfg: &RunConfig,
) -> Report<Vec<u64>> {
    assert!(delta >= 1);
    assert!(g.is_weighted() || g.num_edges() == 0);
    let n = g.num_vertices();
    let mut dist = scratch.take_vec::<AtomicU64>("sssp_dist");
    dist.resize_with(n, || AtomicU64::new(INF));
    // Distance at which each vertex was last relaxed (INF = never):
    // avoids re-relaxing a vertex whose distance hasn't improved since.
    let mut last_relaxed = scratch.take_vec::<AtomicU64>("sssp_last_relaxed");
    last_relaxed.resize_with(n, || AtomicU64::new(INF));
    dist[source as usize].store(0, Ordering::Relaxed);

    // Bucket queue: the spine and every bucket's capacity persist in
    // the workspace across queries. `live` tracks the occupied prefix
    // (the spine may be longer, left over from an earlier query).
    let mut buckets = scratch.take_nested::<u32>("delta_buckets");
    if buckets.is_empty() {
        buckets.push(Vec::new());
    }
    buckets[0].push(source);
    let mut live = 1usize;
    let mut stats = phase_parallel::ExecutionStats::default();
    let mut substeps = 0u64;
    let mut relax_count = 0u64;

    // Per-substep state, recycled across substeps *and* (through the
    // workspace) across queries — the bucket loop allocates nothing in
    // steady state. The frontier engine deduplicates each substep's
    // candidates by epoch stamp, replacing the former per-substep
    // `par_sort` + `dedup` pass.
    let mut frontier = Frontier::take(scratch, "sssp_frontier");
    frontier.reset(n);
    frontier.set_policy(cfg.frontier);
    let mut updated = scratch.take_vec::<(usize, u32)>("delta_updated");
    let mut deg = scratch.take_vec::<u64>("relax_deg");
    let mut prefix = scratch.take_vec::<u64>("relax_prefix");
    let mut bounds = scratch.take_vec::<usize>("relax_bounds");
    let packets = chunk::default_packets();

    let bucket_of = |d: u64| (d / delta) as usize;
    let mut outcome = RunOutcome::Completed;
    let mut i = 0usize;
    'buckets: while i < live {
        let mut bucket_processed = 0usize;
        loop {
            // Cooperative cancellation, polled once per substep — every
            // bucket iteration passes through here before doing work, so
            // a tripped deadline stops the run at substep granularity
            // with all scratch buffers still returned below.
            if cfg.is_cancelled() {
                outcome = RunOutcome::DeadlineExceeded;
                break 'buckets;
            }
            if buckets[i].is_empty() {
                break;
            }
            // Candidates still belonging to bucket i whose distance
            // improved since their last relaxation; the engine drops
            // duplicate bucket entries via its stamps. Admission
            // doubles as the marking pass: an admitted vertex records
            // its substep-start distance in `last_relaxed` right here
            // (idempotent for duplicate candidates — both copies see
            // the same `dist[v]`, and nothing relaxes until the fill
            // completes), so the loop needs no second member sweep.
            {
                let (dist, last_relaxed) = (&dist, &last_relaxed);
                frontier.fill_filtered(&buckets[i], |v| {
                    let d = dist[v as usize].load(Ordering::Relaxed);
                    let admitted = d != INF
                        && bucket_of(d) == i
                        && d < last_relaxed[v as usize].load(Ordering::Relaxed);
                    if admitted {
                        last_relaxed[v as usize].store(d, Ordering::Relaxed);
                    }
                    admitted
                });
            }
            buckets[i].clear();
            if frontier.is_empty() {
                break;
            }
            bucket_processed += frontier.len();
            substeps += 1;
            let dist_ref = &dist;
            let last_ref = &last_relaxed;
            let relax = move |v: u32| {
                let d = last_ref[v as usize].load(Ordering::Relaxed);
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
                            Some((bucket_of(nd), u))
                        } else {
                            None
                        }
                    })
            };
            updated.clear();
            let mut routed_inline = false;
            match frontier.as_slice() {
                // Sparse: split the member list into packets of ~equal
                // out-edge totals (degree-prefix chunker). A frontier
                // small enough for one packet skips the parallel
                // plumbing entirely: explicit nested loops that relax
                // and route into the bucket queue in one pass.
                Some(members) => {
                    relax_count += chunk::frontier_edge_bounds(
                        g,
                        members,
                        packets,
                        &mut deg,
                        &mut prefix,
                        &mut bounds,
                    );
                    if bounds.len() == 2 {
                        // One packet: relax with the same closure the
                        // parallel arms use (single source of truth for
                        // the pre-check/fetch_min semantics) and route
                        // straight into the bucket queue.
                        routed_inline = true;
                        for &v in members {
                            for (b, u) in relax(v) {
                                if b >= buckets.len() {
                                    buckets.resize_with(b + 1, Vec::new);
                                }
                                if b >= live {
                                    live = b + 1;
                                }
                                buckets[b].push(u);
                            }
                        }
                    } else {
                        updated.par_extend(bounds.par_windows(2).flat_map_iter(|w| {
                            members[w[0]..w[1]].iter().flat_map(move |&v| relax(v))
                        }));
                    }
                }
                // Dense: scan vertex ranges pre-split on the CSR offset
                // array, testing membership by stamp.
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
            if !routed_inline {
                for &(b, u) in &updated {
                    if b >= buckets.len() {
                        buckets.resize_with(b + 1, Vec::new);
                    }
                    if b >= live {
                        live = b + 1;
                    }
                    buckets[b].push(u);
                }
            }
        }
        if bucket_processed > 0 {
            // One round per non-empty bucket; the frontier size counts
            // every vertex relaxation the bucket's substeps performed.
            stats.record_round(bucket_processed);
        }
        i += 1;
    }
    stats.set_counter("substeps", substeps);
    stats.set_counter("relaxations", relax_count);
    stats.set_counter("sparse_substeps", frontier.sparse_rounds());
    stats.set_counter("dense_substeps", frontier.dense_rounds());
    let out: Vec<u64> = dist.par_iter().map(|d| d.load(Ordering::Relaxed)).collect();
    scratch.put_vec("sssp_dist", dist);
    scratch.put_vec("sssp_last_relaxed", last_relaxed);
    scratch.put_nested("delta_buckets", buckets);
    frontier.release(scratch, "sssp_frontier");
    scratch.put_vec("delta_updated", updated);
    scratch.put_vec("relax_deg", deg);
    scratch.put_vec("relax_prefix", prefix);
    scratch.put_vec("relax_bounds", bounds);
    Report::new(out, stats).with_outcome(outcome)
}

#[cfg(test)]
mod tests {
    use super::super::{dijkstra, PreparedSssp};
    use super::*;
    use crate::api::{
        BellmanFordSssp, CrauserSssp, DeltaSssp, DijkstraSssp, PamSssp, RhoSssp, SsspInstance,
    };
    use phase_parallel::FrontierPolicy::{Dense, Sparse};
    use phase_parallel::{CancelToken, PhaseAlgorithm};
    use pp_graph::{gen, GraphBuilder};

    fn with_delta(delta: u64) -> RunConfig {
        RunConfig::new().with_delta(delta)
    }

    #[test]
    fn large_delta_behaves_like_bellman_ford() {
        // Δ ≥ max distance → a single bucket.
        let g = gen::grid2d(10, 10);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 1, 10, 1), 0);
        let report = DeltaSssp.solve_par(&inst, &with_delta(1 << 40));
        assert_eq!(report.stats.rounds, 1);
        assert_eq!(report.output[99], dijkstra(&inst.graph, 0)[99]);
    }

    #[test]
    fn small_delta_many_buckets_fewer_relaxations() {
        let g = gen::uniform(500, 4000, 2);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 100, 200, 3), 0);
        // Δ = w*: work-efficient — relaxation count close to m.
        let tight = DeltaSssp.solve_par(&inst, &with_delta(100)).stats;
        // Huge Δ: Bellman-Ford-ish — strictly more relaxations.
        let loose = DeltaSssp.solve_par(&inst, &with_delta(1 << 40)).stats;
        assert!(
            tight.counter("relaxations") <= loose.counter("relaxations"),
            "tight {:?} loose {:?}",
            tight.counter("relaxations"),
            loose.counter("relaxations")
        );
        assert!(tight.rounds > loose.rounds);
    }

    #[test]
    fn default_delta_is_w_star() {
        let g = gen::uniform(200, 900, 5);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 7, 60, 6), 0);
        let explicit = DeltaSssp.solve_par(&inst, &with_delta(7));
        let default = DeltaSssp.solve_par(&inst, &RunConfig::new());
        assert_eq!(default.output, explicit.output);
        assert_eq!(default.stats.rounds, explicit.stats.rounds);
    }

    #[test]
    fn prepared_matches_one_shot_and_reuses_buffers() {
        let g = gen::uniform(300, 1200, 8);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 1, 500, 9), 0);
        let prepared = PreparedSssp::new(&inst.graph, 0);
        let mut scratch = Scratch::new();
        for (i, &src) in [0u32, 5, 123].iter().enumerate() {
            let cfg = RunConfig::seeded(1).with_source(src);
            let from_prepared = DeltaSssp.solve_prepared(&inst, &prepared, &mut scratch, &cfg);
            let one_shot = DeltaSssp.solve_par(&inst, &cfg);
            let want = dijkstra(&inst.graph, src);
            assert_eq!(from_prepared.output, want, "source {src}");
            assert_eq!(from_prepared.stats.rounds, one_shot.stats.rounds);
            if i > 0 {
                // Distance arrays, bucket queue and frontier engine all
                // came back recycled.
                assert!(scratch.reuses() >= 3, "reuses {}", scratch.reuses());
            }
        }
        // Every SSSP member against the same prepared instance and the
        // same (now warm, interleaved) workspace, per source and under
        // mixed knobs: each answer must be Dijkstra's at that source,
        // an independent check of the prepared w* and `mow`.
        type Member =
            dyn PhaseAlgorithm<Input = SsspInstance, Output = Vec<u64>, Prepared = PreparedSssp>;
        let family: [&Member; 6] = [
            &DeltaSssp,
            &RhoSssp,
            &CrauserSssp,
            &PamSssp,
            &BellmanFordSssp,
            &DijkstraSssp,
        ];
        let queries = [
            (0u32, RunConfig::seeded(2)),
            (5, with_delta(1).with_frontier(Sparse)),
            (123, with_delta(64).with_rho(1)),
            (299, with_delta(1 << 20).with_frontier(Dense)),
            (42, RunConfig::new().with_rho(8).with_frontier(Dense)),
            (200, RunConfig::new().with_rho(1 << 20)),
            (77, with_delta(3).with_rho(2).with_frontier(Sparse)),
        ];
        for (src, cfg) in queries {
            let want = dijkstra(&inst.graph, src);
            let cfg = cfg.with_source(src);
            for algo in family {
                let got = algo.solve_prepared(&inst, &prepared, &mut scratch, &cfg);
                assert_eq!(got.output, want, "{} from source {src}", algo.name());
            }
        }
    }

    #[test]
    fn steady_state_queries_allocate_no_scratch() {
        // After one warm-up query, every `take_*` must be served from a
        // parked buffer: the inner loop performs no steady-state scratch
        // allocations (the no-sort/no-alloc acceptance criterion).
        let g = gen::rmat(9, 4096, 4);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 1 << 4, 1 << 10, 5), 0);
        let prepared = PreparedSssp::new(&inst.graph, 0);
        let mut scratch = Scratch::new();
        for &src in &[0u32, 17, 99] {
            let cfg = RunConfig::new().with_source(src);
            DeltaSssp.solve_prepared(&inst, &prepared, &mut scratch, &cfg);
        }
        let (takes, reuses) = (scratch.takes(), scratch.reuses());
        let cfg = RunConfig::new().with_source(311);
        DeltaSssp.solve_prepared(&inst, &prepared, &mut scratch, &cfg);
        assert_eq!(
            scratch.takes() - takes,
            scratch.reuses() - reuses,
            "steady-state query took a buffer it could not reuse"
        );
    }

    #[test]
    fn sparse_and_dense_policies_agree() {
        for seed in 0..3 {
            let g = gen::rmat(8, 2048, seed);
            let wg = gen::with_uniform_weights(&g, 1 << 10, 1 << 16, seed + 7);
            let inst = SsspInstance::new(wg, 0);
            let pinned = |policy| RunConfig::new().with_frontier(policy);
            let sparse = DeltaSssp.solve_par(&inst, &pinned(Sparse));
            let dense = DeltaSssp.solve_par(&inst, &pinned(Dense));
            assert_eq!(sparse.output, dense.output, "seed {seed}");
            assert_eq!(sparse.output, dijkstra(&inst.graph, 0), "seed {seed}");
            assert_eq!(sparse.stats.rounds, dense.stats.rounds);
            assert_eq!(
                sparse.stats.counter("substeps"),
                dense.stats.counter("substeps")
            );
            assert_eq!(sparse.stats.counter("dense_substeps"), Some(0));
            assert_eq!(dense.stats.counter("sparse_substeps"), Some(0));
        }
    }

    #[test]
    fn tripped_token_is_typed_and_generous_deadline_is_invisible() {
        let g = gen::uniform(500, 2000, 11);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 1, 1000, 12), 0);
        // Pre-tripped token: the run stops at the first substep poll
        // and says so in the outcome instead of panicking or spinning.
        let token = CancelToken::new();
        token.cancel();
        let report = DeltaSssp.solve_par(&inst, &RunConfig::new().with_cancel_token(token));
        assert_eq!(report.outcome, RunOutcome::DeadlineExceeded);
        assert!(!report.is_complete());
        // Generous deadline: polling is observation-free, output and
        // outcome match the no-deadline run exactly.
        let generous = DeltaSssp.solve_par(
            &inst,
            &RunConfig::new().with_deadline(std::time::Duration::from_secs(3600)),
        );
        let plain = DeltaSssp.solve_par(&inst, &RunConfig::new());
        assert!(generous.is_complete());
        assert_eq!(generous.output, plain.output);
        assert_eq!(generous.stats.rounds, plain.stats.rounds);
    }

    #[test]
    fn triangle_inequality_violating_buckets() {
        // A vertex first reached in a far bucket, later improved into a
        // nearer one: 0→2 direct (weight 100) vs 0→1→2 (30 + 30).
        let mut b = GraphBuilder::new(3).symmetric().weighted();
        b.add_weighted(0, 2, 100);
        b.add_weighted(0, 1, 30);
        b.add_weighted(1, 2, 30);
        let inst = SsspInstance::new(b.build(), 0);
        let d = DeltaSssp.solve_par(&inst, &with_delta(10)).output;
        assert_eq!(d, vec![0, 30, 60]);
    }
}
