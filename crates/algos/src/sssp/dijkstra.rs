//! Sequential Dijkstra with a binary heap: the work-efficient baseline
//! (`O(m log n)`), processing vertices in distance order — the
//! sequential iterative algorithm the phase-parallel version
//! parallelizes.

use super::INF;
use phase_parallel::{Report, RunConfig, RunOutcome, Scratch};
use pp_graph::Graph;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How many heap pops a run settles between deadline polls:
/// coarse enough that the poll is invisible in the profile, fine enough
/// that a blown deadline resolves in microseconds.
const POLL_EVERY: u32 = 1024;

/// Shortest distances from `source`. Unreachable vertices get [`INF`].
pub fn dijkstra(g: &Graph, source: u32) -> Vec<u64> {
    dijkstra_core(g, source, &mut Scratch::new(), &RunConfig::new()).output
}

/// Runs Dijkstra drawing the heap's backing storage from `scratch`. The
/// distance array is *moved* into the return value: it is the query's
/// output, so cloning it just to park a copy (as an earlier revision
/// did) would be a redundant `O(n)` copy per query. The heap loop polls
/// the query's [`RunConfig::cancel`] token every `POLL_EVERY` (1024)
/// settled vertices; a trip returns the partial distance array (settled
/// vertices exact, the rest upper bounds or [`INF`]) under
/// `RunOutcome::DeadlineExceeded`.
pub(crate) fn dijkstra_core(
    g: &Graph,
    source: u32,
    scratch: &mut Scratch,
    cfg: &RunConfig,
) -> Report<Vec<u64>> {
    let n = g.num_vertices();
    let mut dist = vec![INF; n];
    // The heap's backing storage round-trips through the workspace
    // (`BinaryHeap::from` on an empty vector is free).
    let mut heap = BinaryHeap::from(scratch.take_vec::<Reverse<(u64, u32)>>("dijkstra_heap"));
    let mut outcome = RunOutcome::Completed;
    let mut since_poll = 0u32;
    dist[source as usize] = 0;
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        since_poll += 1;
        if since_poll >= POLL_EVERY || since_poll == 1 {
            since_poll = 1;
            if cfg.is_cancelled() {
                outcome = RunOutcome::DeadlineExceeded;
                break;
            }
        }
        if d > dist[v as usize] {
            continue; // stale entry
        }
        let ws = g.edge_weights(v);
        for (i, &u) in g.neighbors(v).iter().enumerate() {
            let nd = d + ws[i];
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    heap.clear();
    scratch.put_vec("dijkstra_heap", heap.into_vec());
    Report::plain(dist).with_outcome(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_graph::GraphBuilder;

    #[test]
    fn small_known_graph() {
        // 0 -5- 1 -2- 2, 0 -9- 2: shortest 0→2 is 7.
        let mut b = GraphBuilder::new(3).symmetric().weighted();
        b.add_weighted(0, 1, 5);
        b.add_weighted(1, 2, 2);
        b.add_weighted(0, 2, 9);
        let g = b.build();
        assert_eq!(dijkstra(&g, 0), vec![0, 5, 7]);
        assert_eq!(dijkstra(&g, 2), vec![7, 2, 0]);
    }
}
