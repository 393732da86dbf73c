//! Single-source shortest paths (§4.3 relaxed rank; experiments §6.3).
//!
//! The phase-parallel view: the relaxed rank of a vertex is
//! `⌈d(v) / w*⌉` (distances within a `w*` window cannot depend on each
//! other, since every relaxation adds at least the minimum edge weight
//! `w*`), so settling one `w*`-wide distance window per round is
//! round-efficient — and is *conceptually the same as Δ-stepping with
//! Δ = w\** (the paper's observation, tested in Fig. 6).
//!
//! * [`dijkstra`] — the sequential work-efficient baseline.
//! * [`BellmanFordSssp`](crate::api::BellmanFordSssp) — the parallel
//!   work-inefficient baseline.
//! * [`DeltaSssp`](crate::api::DeltaSssp) — bucketed Δ-stepping; the
//!   default Δ = w* gives the phase-parallel algorithm of Theorem 4.5.
//! * [`RhoSssp`](crate::api::RhoSssp) — the count-based stepping of the
//!   paper's \[39\], the implementation family Fig. 6 is measured with.
//! * [`CrauserSssp`](crate::api::CrauserSssp) — Crauser et al.'s
//!   OUT-criterion \[31\], the alternative relaxed rank §4.3 points at.

mod bellman_ford;
mod crauser;
mod delta_stepping;
mod dijkstra;
mod pam_dijkstra;
mod rho_stepping;

pub(crate) use bellman_ford::bellman_ford;
pub(crate) use crauser::crauser_out;
pub(crate) use delta_stepping::delta_stepping;
pub use dijkstra::dijkstra;
pub(crate) use dijkstra::dijkstra_core;
pub(crate) use pam_dijkstra::sssp_pam;
pub(crate) use rho_stepping::rho_stepping;
pub use rho_stepping::DEFAULT_RHO;

use phase_parallel::RunConfig;
use pp_graph::Graph;
use rayon::prelude::*;

/// Unreachable-distance sentinel.
pub const INF: u64 = u64::MAX;

/// Relax `members` in edge-balanced packets (degree-prefix chunker,
/// [`pp_graph::chunk`]): everything `relax(v)` yields is appended to
/// `out` — sequentially when the frontier fits one packet, fanned out
/// over `par_windows` packets otherwise. Returns the members' total
/// out-edge count (the family's `"relaxations"` increment).
/// `deg`/`prefix`/`bounds` are the caller's scratch-recycled chunker
/// buffers. Shared by the Bellman-Ford, ρ-stepping and Crauser round
/// loops; Δ-stepping keeps its own dispatch (its single-packet path
/// routes straight into the bucket queue).
pub(crate) fn relax_into_packets<F, I>(
    g: &Graph,
    members: &[u32],
    deg: &mut Vec<u64>,
    prefix: &mut Vec<u64>,
    bounds: &mut Vec<usize>,
    out: &mut Vec<u32>,
    relax: F,
) -> u64
where
    F: Fn(u32) -> I + Sync + Copy,
    I: Iterator<Item = u32>,
{
    let packets = pp_graph::chunk::default_packets();
    let total = pp_graph::chunk::frontier_edge_bounds(g, members, packets, deg, prefix, bounds);
    if bounds.len() == 2 {
        out.extend(members.iter().copied().flat_map(relax));
    } else {
        out.par_extend(
            bounds
                .par_windows(2)
                .flat_map_iter(|w| members[w[0]..w[1]].iter().copied().flat_map(relax)),
        );
    }
    total
}

/// The amortized SSSP instance shared by the whole family: everything
/// that depends on the *graph* alone is computed here once, so each
/// per-source query (`solve_prepared`) starts straight at the rounds.
///
/// * `w_star` — the minimum edge weight, Δ-stepping's default bucket
///   width (Theorem 4.5) and the PA-BST algorithm's window width.
/// * `mow` — per-vertex minimum out-edge weight, the OUT-criterion's
///   settling threshold input (Crauser et al.).
///
/// Both are `O(m)` scans, paid once per prepared instance (a one-shot
/// `solve_par` prepares too). The query-time source comes from
/// [`RunConfig::source`], falling back to the instance's own `source`.
pub struct PreparedSssp {
    /// Default source when a query does not override it.
    pub source: u32,
    /// Minimum edge weight (1 on edgeless graphs): the phase-parallel
    /// Δ default.
    pub w_star: u64,
    /// Per-vertex minimum out-edge weight ([`INF`] for sinks).
    pub mow: Vec<u64>,
}

impl PreparedSssp {
    /// Precompute the family's shared instance structure for `graph`.
    pub fn new(graph: &Graph, source: u32) -> Self {
        let n = graph.num_vertices();
        assert!((source as usize) < n, "source {source} out of range ({n})");
        let w_star = graph.min_weight().unwrap_or(1).max(1);
        let mow: Vec<u64> = (0..n as u32)
            .into_par_iter()
            .map(|v| graph.edge_weights(v).iter().copied().min().unwrap_or(INF))
            .collect();
        Self {
            source,
            w_star,
            mow,
        }
    }

    /// The source this query runs from: the query's
    /// [`RunConfig::source`] override, or the instance default.
    pub fn source_for(&self, cfg: &RunConfig) -> u32 {
        let s = cfg.source.unwrap_or(self.source);
        let n = self.mow.len();
        assert!((s as usize) < n, "query source {s} out of range ({n})");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{BellmanFordSssp, DeltaSssp, SsspInstance};
    use phase_parallel::PhaseAlgorithm;
    use pp_graph::gen;

    fn check_all_agree(inst: &SsspInstance, source: u32) {
        let cfg = RunConfig::new().with_source(source);
        let d1 = dijkstra(&inst.graph, source);
        let d2 = BellmanFordSssp.solve_par(inst, &cfg).output;
        assert_eq!(d1, d2, "dijkstra vs bellman-ford");
        for delta in [1u64, 7, 1 << 10, 1 << 20] {
            let d3 = DeltaSssp.solve_par(inst, &cfg.clone().with_delta(delta));
            assert_eq!(d1, d3.output, "dijkstra vs delta={delta}");
        }
        // Default Δ = w*: the paper's phase-parallel SSSP (Theorem 4.5).
        assert_eq!(d1, DeltaSssp.solve_par(inst, &cfg).output);
    }

    #[test]
    fn agree_on_random_graphs() {
        for seed in 0..5 {
            let g = gen::uniform(300, 1200, seed);
            let wg = gen::with_uniform_weights(&g, 1, 1000, seed + 100);
            check_all_agree(&SsspInstance::new(wg, 0), 0);
        }
    }

    #[test]
    fn agree_on_grid() {
        let g = gen::grid2d(20, 30);
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 5, 50, 3), 0);
        check_all_agree(&inst, 0);
        check_all_agree(&inst, 599);
    }

    #[test]
    fn agree_on_rmat() {
        let g = gen::rmat(9, 4096, 17);
        let wg = gen::with_uniform_weights(&g, 1 << 17, 1 << 23, 18);
        check_all_agree(&SsspInstance::new(wg, 0), 0);
    }

    #[test]
    fn disconnected_vertices_unreachable() {
        // Two components: SSSP from one leaves the other at INF.
        let mut b = pp_graph::GraphBuilder::new(4).symmetric().weighted();
        b.add_weighted(0, 1, 5);
        b.add_weighted(2, 3, 7);
        let inst = SsspInstance::new(b.build(), 0);
        let d = dijkstra(&inst.graph, 0);
        assert_eq!(d, vec![0, 5, INF, INF]);
        let d2 = DeltaSssp.solve_par(&inst, &RunConfig::new().with_delta(5));
        assert_eq!(d2.output, d);
        assert_eq!(
            BellmanFordSssp.solve_par(&inst, &RunConfig::new()).output,
            d
        );
    }

    #[test]
    fn rounds_track_relaxed_rank() {
        // A weighted path: distance to the far end = sum of weights; with
        // Δ = w*, the number of buckets processed ≈ dist / w*.
        let n = 50usize;
        let mut b = pp_graph::GraphBuilder::new(n).symmetric().weighted();
        for i in 0..n - 1 {
            b.add_weighted(i as u32, i as u32 + 1, 10);
        }
        let inst = SsspInstance::new(b.build(), 0);
        let report = DeltaSssp.solve_par(&inst, &RunConfig::new().with_delta(10));
        assert_eq!(report.output[n - 1], 10 * (n as u64 - 1));
        // Relaxed rank = d_max / w* = 49.
        assert_eq!(report.stats.rounds, 49 + 1); // bucket 0 included
    }

    #[test]
    fn single_vertex() {
        let inst = SsspInstance::new(pp_graph::GraphBuilder::new(1).weighted().build(), 0);
        assert_eq!(dijkstra(&inst.graph, 0), vec![0]);
        let d = DeltaSssp.solve_par(&inst, &RunConfig::new().with_delta(1));
        assert_eq!(d.output, vec![0]);
    }
}
