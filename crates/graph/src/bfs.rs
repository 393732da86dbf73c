//! Parallel frontier BFS: hop distances from a source.
//!
//! The DG of SSSP "is conceptually the shortest path tree" and the rank
//! of a vertex is its *hop distance* in that tree (§4.3); BFS computes
//! the unweighted version of that rank and serves as the frontier
//! skeleton shared by the stepping algorithms.

use crate::csr::Graph;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Hop-distance sentinel for unreachable vertices.
pub const UNREACHED: u32 = u32::MAX;

/// Hop distances from `source` by round-synchronous parallel BFS.
pub fn bfs(g: &Graph, source: u32) -> Vec<u32> {
    let n = g.num_vertices();
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHED)).collect();
    dist[source as usize].store(0, Ordering::Relaxed);
    let mut frontier = vec![source];
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        let next: Vec<u32> = frontier
            .par_iter()
            .flat_map_iter(|&v| g.neighbors(v).iter().copied())
            .filter(|&u| {
                dist[u as usize]
                    .compare_exchange(UNREACHED, level, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            })
            .collect();
        frontier = next;
    }
    dist.into_iter().map(AtomicU32::into_inner).collect()
}

/// Eccentricity of `source` (largest finite hop distance) — a cheap
/// diameter proxy used to characterize generated graphs.
pub fn eccentricity(g: &Graph, source: u32) -> u32 {
    bfs(g, source)
        .into_iter()
        .filter(|&d| d != UNREACHED)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn line_graph_distances() {
        let mut b = crate::GraphBuilder::new(5).symmetric();
        for i in 0..4 {
            b.add(i, i + 1);
        }
        let g = b.build();
        assert_eq!(bfs(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs(&g, 2), vec![2, 1, 0, 1, 2]);
        assert_eq!(eccentricity(&g, 0), 4);
    }

    #[test]
    fn disconnected_unreached() {
        let mut b = crate::GraphBuilder::new(4).symmetric();
        b.add(0, 1);
        b.add(2, 3);
        let g = b.build();
        let d = bfs(&g, 0);
        assert_eq!(d, vec![0, 1, UNREACHED, UNREACHED]);
    }

    #[test]
    fn grid_diameter() {
        let g = gen::grid2d(10, 20);
        // From corner 0: the far corner is 9 + 19 hops away.
        assert_eq!(eccentricity(&g, 0), 28);
    }

    #[test]
    fn rmat_low_diameter_vs_grid() {
        // The generators stand in for real graphs by diameter: RMAT (the
        // social stand-in) has much smaller eccentricity than a grid (the
        // road stand-in) of similar size.
        let social = gen::rmat(12, 1 << 15, 1);
        let grid = gen::grid2d(64, 64);
        // Pick a vertex in the giant component (vertex with max degree).
        let hub = (0..social.num_vertices() as u32)
            .max_by_key(|&v| social.degree(v))
            .unwrap();
        let ecc_social = eccentricity(&social, hub);
        let ecc_grid = eccentricity(&grid, 0);
        assert!(
            ecc_social * 4 < ecc_grid,
            "social {ecc_social} vs grid {ecc_grid}"
        );
    }
}
