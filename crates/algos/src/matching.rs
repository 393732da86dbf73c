//! Greedy maximal matching (§5.3).
//!
//! The greedy matching processes edges in (random) priority order and
//! matches an edge iff both endpoints are still free — again a
//! deterministic function of the priorities. The parallel version is
//! round-synchronous, as the paper prescribes ("the parallel
//! graph-matching algorithm cannot be fully asynchronous since each
//! edge's readiness relies on two vertices, which needs to be checked
//! after synchronization"): each round matches every live edge that is
//! the minimum-priority live edge at *both* endpoints — such edges are
//! mutually non-adjacent by construction — then discards edges with a
//! newly matched endpoint.

use phase_parallel::{ExecutionStats, Frontier, Report, RunConfig, RunOutcome, Scratch};
use pp_graph::Graph;
use pp_parlay::shuffle::random_permutation;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Undirected edge list of `g` (each edge once, `u < v`), in a canonical
/// order.
pub fn edge_list(g: &Graph) -> Vec<(u32, u32)> {
    let mut edges = Vec::with_capacity(g.num_edges() / 2);
    for u in 0..g.num_vertices() as u32 {
        for &v in g.neighbors(u) {
            if u < v {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// Sequential greedy maximal matching over edges in priority order.
/// `priority[e]` ranks edge `e` of [`edge_list`]; lower = earlier.
/// Returns a mask over the edge list.
pub fn matching_seq(g: &Graph, priority: &[u32]) -> Vec<bool> {
    let edges = edge_list(g);
    assert_eq!(priority.len(), edges.len());
    let mut order: Vec<u32> = (0..edges.len() as u32).collect();
    order.sort_unstable_by_key(|&e| priority[e as usize]);
    let mut vertex_matched = vec![false; g.num_vertices()];
    let mut in_matching = vec![false; edges.len()];
    for &e in &order {
        let (u, v) = edges[e as usize];
        if !vertex_matched[u as usize] && !vertex_matched[v as usize] {
            in_matching[e as usize] = true;
            vertex_matched[u as usize] = true;
            vertex_matched[v as usize] = true;
        }
    }
    in_matching
}

/// Round-synchronous parallel greedy matching over a prebuilt
/// [`edge_list`] (the prepare step), drawing the per-query endpoint
/// tables, live set and round buffer from `scratch`. Same output as
/// [`matching_seq`]. The live edge set runs on the [`Frontier`] engine
/// over edge indices (dense bitmap while most edges are live, sparse
/// list for the tail). The report's `stats.rounds` equals the greedy
/// dependence depth (`O(log n)` whp for random priorities by
/// Fischer–Noever), with per-round matched-edge counts in
/// `frontier_sizes`.
///
/// The round loop polls the config's deadline at its top; a trip leaves
/// the remaining live edges unmatched under
/// `RunOutcome::DeadlineExceeded` (the partial mask is a valid — not
/// maximal — matching).
pub(crate) fn matching_par(
    g: &Graph,
    priority: &[u32],
    edges: &[(u32, u32)],
    scratch: &mut Scratch,
    cfg: &RunConfig,
) -> Report<Vec<bool>> {
    assert_eq!(priority.len(), edges.len());
    let n = g.num_vertices();
    let m = edges.len();
    let mut in_matching = vec![false; m];
    let mut vertex_matched = scratch.take_vec::<bool>("matching_vertex_matched");
    vertex_matched.resize(n, false);
    let mut live = Frontier::take(scratch, "matching_live_set");
    live.reset(m);
    live.fill_range(m);
    let mut ready = scratch.take_vec::<u32>("matching_ready");
    let mut stats = ExecutionStats::default();
    let mut outcome = RunOutcome::Completed;
    const NONE: u32 = u32::MAX;
    let mut min_pri = scratch.take_vec::<AtomicU32>("matching_min_pri");
    min_pri.resize_with(n, || AtomicU32::new(NONE));
    while !live.is_empty() {
        if cfg.is_cancelled() {
            outcome = RunOutcome::DeadlineExceeded;
            break;
        }
        // Each endpoint learns its minimum live incident edge priority.
        {
            let min_pri = &min_pri;
            live.for_each(|e| {
                let (u, v) = edges[e as usize];
                let p = priority[e as usize];
                min_pri[u as usize].fetch_min(p, Ordering::Relaxed);
                min_pri[v as usize].fetch_min(p, Ordering::Relaxed);
            });
        }
        // Ready: locally minimum at both endpoints. Ready edges leave
        // the live set here (they are about to be matched, so the
        // matched-endpoint retain below would drop them anyway).
        ready.clear();
        {
            let min_pri = &min_pri;
            live.extract_retain(&mut ready, |e| {
                let (u, v) = edges[e as usize];
                let p = priority[e as usize];
                min_pri[u as usize].load(Ordering::Relaxed) == p
                    && min_pri[v as usize].load(Ordering::Relaxed) == p
            });
        }
        debug_assert!(!ready.is_empty(), "the global minimum edge is ready");
        stats.record_round(ready.len());
        for &e in &ready {
            let (u, v) = edges[e as usize];
            in_matching[e as usize] = true;
            vertex_matched[u as usize] = true;
            vertex_matched[v as usize] = true;
        }
        // Drop matched-endpoint edges; reset the touched min slots.
        {
            let min_pri = &min_pri;
            live.for_each(|e| {
                let (u, v) = edges[e as usize];
                min_pri[u as usize].store(NONE, Ordering::Relaxed);
                min_pri[v as usize].store(NONE, Ordering::Relaxed);
            });
        }
        {
            let vertex_matched = &vertex_matched;
            live.retain(|e| {
                let (u, v) = edges[e as usize];
                !vertex_matched[u as usize] && !vertex_matched[v as usize]
            });
        }
    }
    stats.set_counter("dense_substeps", live.dense_rounds());
    stats.set_counter("sparse_substeps", live.sparse_rounds());
    scratch.put_vec("matching_vertex_matched", vertex_matched);
    live.release(scratch, "matching_live_set");
    scratch.put_vec("matching_ready", ready);
    scratch.put_vec("matching_min_pri", min_pri);
    Report::new(in_matching, stats).with_outcome(outcome)
}

/// Edge indices sorted by priority — the iterate order of the
/// reservations baseline, a pure function of the priorities (with
/// [`edge_list`], the prepare half of
/// [`MatchingReservations`](crate::api::MatchingReservations)).
pub fn priority_order(priority: &[u32]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..priority.len() as u32).collect();
    order.par_sort_unstable_by_key(|&e| priority[e as usize]);
    order
}

/// Greedy maximal matching via deterministic reservations (the paper's
/// prior-work framework \[10\]) over a prebuilt [`edge_list`] and
/// [`priority_order`]. Same output as [`matching_seq`].
///
/// Each edge, in priority order, reserves both endpoints and commits iff
/// it wins both — the textbook speculative-for instance from \[10\]. The
/// framework re-examines every live edge each round, which is the
/// `O(D·m)` work pattern the SPAA 2022 paper removes; the report's
/// `"attempts"` counter exposes the re-examination factor
/// (`attempts / m`). The speculative-for round loop polls the config's
/// deadline; a trip abandons the uncommitted iterates under
/// `RunOutcome::DeadlineExceeded`.
pub(crate) fn matching_reservations(
    g: &Graph,
    priority: &[u32],
    edges: &[(u32, u32)],
    order: &[u32],
    cfg: &RunConfig,
) -> Report<Vec<bool>> {
    use phase_parallel::{speculative_for, ReservationProblem, ReservationTable};
    use std::sync::atomic::AtomicBool;

    assert_eq!(priority.len(), edges.len());
    assert_eq!(order.len(), edges.len());

    struct P<'a> {
        edges: &'a [(u32, u32)],
        order: &'a [u32],
        vertex_matched: Vec<AtomicBool>,
        in_matching: Vec<AtomicBool>,
    }
    impl ReservationProblem for P<'_> {
        fn num_iterates(&self) -> usize {
            self.order.len()
        }
        fn reserve(&self, i: u32, t: &ReservationTable) {
            let (u, v) = self.edges[self.order[i as usize] as usize];
            if !self.vertex_matched[u as usize].load(Ordering::Relaxed)
                && !self.vertex_matched[v as usize].load(Ordering::Relaxed)
            {
                t.reserve(u as usize, i);
                t.reserve(v as usize, i);
            }
        }
        fn commit(&self, i: u32, t: &ReservationTable) -> bool {
            let e = self.order[i as usize] as usize;
            let (u, v) = self.edges[e];
            if self.vertex_matched[u as usize].load(Ordering::Relaxed)
                || self.vertex_matched[v as usize].load(Ordering::Relaxed)
            {
                return true; // an earlier edge claimed an endpoint
            }
            if t.holds(u as usize, i) && t.holds(v as usize, i) {
                self.in_matching[e].store(true, Ordering::Relaxed);
                self.vertex_matched[u as usize].store(true, Ordering::Relaxed);
                self.vertex_matched[v as usize].store(true, Ordering::Relaxed);
                true
            } else {
                false
            }
        }
    }

    let p = P {
        edges,
        order,
        vertex_matched: (0..g.num_vertices())
            .map(|_| AtomicBool::new(false))
            .collect(),
        in_matching: (0..edges.len()).map(|_| AtomicBool::new(false)).collect(),
    };
    let table = ReservationTable::new(g.num_vertices());
    let report = speculative_for(&p, &table, 0, cfg);
    report.map(|()| {
        p.in_matching
            .into_iter()
            .map(AtomicBool::into_inner)
            .collect()
    })
}

/// Check that `mask` is a *maximal* matching of `g`'s [`edge_list`].
pub fn is_maximal_matching(g: &Graph, mask: &[bool]) -> bool {
    let edges = edge_list(g);
    let mut matched = vec![false; g.num_vertices()];
    for (e, &(u, v)) in edges.iter().enumerate() {
        if mask[e] {
            if matched[u as usize] || matched[v as usize] {
                return false; // not a matching
            }
            matched[u as usize] = true;
            matched[v as usize] = true;
        }
    }
    // Maximality: every unmatched edge has a matched endpoint.
    edges
        .iter()
        .enumerate()
        .all(|(e, &(u, v))| mask[e] || matched[u as usize] || matched[v as usize])
}

/// Convenience: random edge priorities for `g`.
pub fn random_edge_priorities(g: &Graph, seed: u64) -> Vec<u32> {
    let m = edge_list(g).len();
    random_permutation(m, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{GraphPriorityInstance, Matching, MatchingReservations};
    use phase_parallel::PhaseAlgorithm;
    use pp_graph::gen;

    fn instance(g: Graph, seed: u64) -> GraphPriorityInstance {
        let pri = random_edge_priorities(&g, seed);
        GraphPriorityInstance::new(g, pri)
    }

    fn check(g: Graph, seed: u64) {
        let inst = instance(g, seed);
        let a = matching_seq(&inst.graph, &inst.priority);
        let b = Matching.solve_par(&inst, &RunConfig::new()).output;
        assert!(is_maximal_matching(&inst.graph, &a), "seq not maximal");
        assert_eq!(a, b, "par differs from greedy");
        let c = MatchingReservations.solve_par(&inst, &RunConfig::new());
        assert_eq!(a, c.output, "reservations baseline differs from greedy");
    }

    #[test]
    fn agree_on_many_graphs() {
        check(gen::uniform(300, 1200, 1), 20);
        check(gen::cycle(100), 21);
        check(gen::cycle(101), 22);
        check(gen::star(50), 23);
        check(gen::grid2d(12, 18), 24);
        check(gen::rmat(8, 2048, 6), 25);
    }

    #[test]
    fn rounds_logarithmic_on_random() {
        let inst = instance(gen::uniform(4000, 16_000, 2), 3);
        let report = Matching.solve_par(&inst, &RunConfig::new());
        assert!(is_maximal_matching(&inst.graph, &report.output));
        assert!(report.stats.rounds <= 40, "rounds {}", report.stats.rounds);
    }

    #[test]
    fn star_matches_exactly_one_edge() {
        let inst = instance(gen::star(64), 4);
        let m = Matching.solve_par(&inst, &RunConfig::new()).output;
        assert_eq!(m.iter().filter(|&&x| x).count(), 1);
    }

    #[test]
    fn reservations_rounds_match_dependence_depth() {
        let inst = instance(gen::uniform(4000, 16_000, 2), 3);
        let report = MatchingReservations.solve_par(&inst, &RunConfig::new());
        assert!(is_maximal_matching(&inst.graph, &report.output));
        assert!(report.stats.rounds <= 60, "rounds {}", report.stats.rounds);
        // The re-examination factor is the baseline's work overhead the
        // paper's Type 2 machinery removes; it is > 1 whenever any round
        // retries.
        let m = edge_list(&inst.graph).len() as u64;
        assert!(report.stats.counter("attempts").unwrap() >= m);
    }

    #[test]
    fn path_alternating() {
        // A path matches at least floor(n/3)+... just check maximality
        // and greedy equality with adversarial priorities.
        let n = 101usize;
        let mut b = pp_graph::GraphBuilder::new(n).symmetric();
        for i in 0..n - 1 {
            b.add(i as u32, i as u32 + 1);
        }
        let g = b.build();
        // Priorities in edge order → greedy matches 0-1, 2-3, ...
        let m_edges = edge_list(&g).len();
        let inst = GraphPriorityInstance::new(g, (0..m_edges as u32).collect());
        let a = matching_seq(&inst.graph, &inst.priority);
        let b2 = Matching.solve_par(&inst, &RunConfig::new()).output;
        assert_eq!(a, b2);
        assert_eq!(a.iter().filter(|&&x| x).count(), n / 2);
    }
}
