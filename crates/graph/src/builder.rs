//! Build CSR graphs from edge lists, in parallel.

use crate::csr::{Graph, GraphError};
use pp_parlay::monoid::sum_monoid;
use pp_parlay::scan::scan_exclusive;
use rayon::prelude::*;

/// Accumulates edges and produces a [`Graph`].
pub struct GraphBuilder {
    n: usize,
    /// `(u, v, w)` triples; `w` ignored when building unweighted.
    edges: Vec<(u32, u32, u64)>,
    symmetric: bool,
    weighted: bool,
}

impl GraphBuilder {
    /// A builder over `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize);
        Self {
            n,
            edges: Vec::new(),
            symmetric: false,
            weighted: false,
        }
    }

    /// Store both arc directions for every edge (undirected graph).
    pub fn symmetric(mut self) -> Self {
        self.symmetric = true;
        self
    }

    /// Keep per-edge weights.
    pub fn weighted(mut self) -> Self {
        self.weighted = true;
        self
    }

    /// Add one edge (weight 1 unless [`GraphBuilder::add_weighted`] is used).
    pub fn add(&mut self, u: u32, v: u32) {
        self.add_weighted(u, v, 1);
    }

    /// Add one weighted edge.
    pub fn add_weighted(&mut self, u: u32, v: u32, w: u64) {
        debug_assert!((u as usize) < self.n && (v as usize) < self.n);
        self.edges.push((u, v, w));
    }

    /// Add many edges at once.
    pub fn extend(&mut self, edges: impl IntoIterator<Item = (u32, u32, u64)>) {
        self.edges.extend(edges);
    }

    /// Produce the CSR graph: removes self-loops, deduplicates parallel
    /// edges (keeping the smallest weight), symmetrizes if requested.
    /// `O(m log m)` work, polylog span.
    ///
    /// # Panics
    /// Panics if the accumulated edges violate a CSR invariant (e.g. an
    /// endpoint `>= n` slipped past the release-build debug check). Use
    /// [`GraphBuilder::try_build`] for a typed error instead.
    pub fn build(self) -> Graph {
        match self.try_build() {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`GraphBuilder::build`], but routes the final construction
    /// through [`Graph::try_from_csr`] so inconsistent edges (endpoints
    /// `>= n`, arc-count overflow) surface as a typed [`GraphError`].
    pub fn try_build(self) -> Result<Graph, GraphError> {
        let GraphBuilder {
            n,
            mut edges,
            symmetric,
            weighted,
        } = self;
        // An out-of-range *source* endpoint would index past the degree
        // array below, long before `try_from_csr` could see the bad
        // target — check both ends up front so release builds get the
        // same typed rejection debug builds assert.
        if let Some(arc) = edges
            .iter()
            .position(|&(u, v, _)| (u as usize) >= n || (v as usize) >= n)
        {
            let (u, v, _) = edges[arc];
            return Err(GraphError::TargetOutOfRange {
                arc,
                target: if (u as usize) >= n { u } else { v },
                vertices: n,
            });
        }
        if symmetric {
            let rev: Vec<(u32, u32, u64)> = edges.par_iter().map(|&(u, v, w)| (v, u, w)).collect();
            edges.extend(rev);
        }
        // Drop self-loops.
        edges = pp_parlay::filter(&edges, |&(u, v, _)| u != v);
        // Sort by (u, v, w): dedup keeps the smallest weight per (u, v).
        // The tuple's own order is that key, and equal tuples are
        // identical, so the unstable sort's output is fully determined.
        edges.par_sort_unstable();
        let m = edges.len();
        let keep: Vec<bool> = (0..m)
            .into_par_iter()
            .map(|i| i == 0 || (edges[i].0, edges[i].1) != (edges[i - 1].0, edges[i - 1].1))
            .collect();
        let edges = pp_parlay::pack(&edges, &keep);
        // Degrees → offsets.
        let mut degree = vec![0usize; n];
        for &(u, _, _) in &edges {
            degree[u as usize] += 1;
        }
        let (mut offsets, total) = scan_exclusive(&sum_monoid::<usize>(), &degree);
        offsets.push(total);
        let targets: Vec<u32> = edges.par_iter().map(|&(_, v, _)| v).collect();
        let weights: Vec<u64> = if weighted {
            edges.par_iter().map(|&(_, _, w)| w).collect()
        } else {
            Vec::new()
        };
        Graph::try_from_csr(offsets, targets, weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_symmetric_dedup() {
        let mut b = GraphBuilder::new(4).symmetric();
        b.add(0, 1);
        b.add(1, 0); // duplicate after symmetrization
        b.add(1, 2);
        b.add(2, 2); // self loop dropped
        b.add(3, 0);
        let g = b.build();
        assert!(g.is_symmetric());
        assert_eq!(g.num_edges(), 6); // {0,1}, {1,2}, {0,3} × 2
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn build_weighted_keeps_min_weight() {
        let mut b = GraphBuilder::new(3).weighted();
        b.add_weighted(0, 1, 9);
        b.add_weighted(0, 1, 4);
        b.add_weighted(1, 2, 7);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.edge_weights(0), &[4]);
        assert_eq!(g.edge_weights(1), &[7]);
    }

    #[test]
    fn isolated_vertices() {
        let b = GraphBuilder::new(5);
        let g = b.build();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn try_build_rejects_out_of_range_endpoints() {
        let mut b = GraphBuilder::new(2);
        b.extend([(0, 7, 1)]); // bypasses add()'s debug assert
        assert_eq!(
            b.try_build().unwrap_err(),
            GraphError::TargetOutOfRange {
                arc: 0,
                target: 7,
                vertices: 2
            }
        );
    }

    #[test]
    fn try_build_matches_build_on_valid_input() {
        let mut a = GraphBuilder::new(4).symmetric();
        a.add(0, 1);
        a.add(2, 3);
        let mut b = GraphBuilder::new(4).symmetric();
        b.add(0, 1);
        b.add(2, 3);
        let g = a.build();
        let h = b.try_build().unwrap();
        assert_eq!(g.num_edges(), h.num_edges());
        assert_eq!(g.neighbors(0), h.neighbors(0));
    }
}
