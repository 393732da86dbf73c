//! Synthetic graph generators — the stand-ins for the paper's datasets.
//! The paper's social networks and road graphs are not redistributable at
//! a size a test can build, so each generator reproduces the structural
//! property its experiment depends on: low diameter and skewed degrees
//! (RMAT) or high diameter and small frontiers (grids).

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use pp_parlay::rng::{bounded, hash64, unit_f64, Rng};
use rayon::prelude::*;

/// Uniformly random undirected graph: `m` edges sampled uniformly from
/// all pairs (duplicates collapse, so the result has ≤ m edges).
pub fn uniform(n: usize, m: usize, seed: u64) -> Graph {
    let edges: Vec<(u32, u32, u64)> = (0..m as u64)
        .into_par_iter()
        .map(|i| {
            let u = bounded(hash64(seed, 2 * i), n as u64) as u32;
            let v = bounded(hash64(seed, 2 * i + 1), n as u64) as u32;
            (u, v, 1)
        })
        .collect();
    let mut b = GraphBuilder::new(n).symmetric();
    b.extend(edges);
    b.build()
}

/// RMAT power-law graph (Chakrabarti–Zhan–Faloutsos) over `2^scale`
/// vertices with ~`m` edges: the "social network" substitute for the
/// Twitter / Friendster graphs of §6.3. Default skew (0.57, 0.19, 0.19)
/// gives low diameter and heavy-tailed degrees.
pub fn rmat(scale: u32, m: usize, seed: u64) -> Graph {
    rmat_with(scale, m, 0.57, 0.19, 0.19, seed)
}

/// RMAT with explicit quadrant probabilities `(a, b, c)`; `d = 1-a-b-c`.
pub fn rmat_with(scale: u32, m: usize, a: f64, b: f64, c: f64, seed: u64) -> Graph {
    assert!(scale <= 31);
    assert!(a + b + c < 1.0 + 1e-9);
    let n = 1usize << scale;
    let edges: Vec<(u32, u32, u64)> = (0..m as u64)
        .into_par_iter()
        .map(|i| {
            let (mut u, mut v) = (0u32, 0u32);
            let mut r = Rng::new(hash64(seed, i));
            for _ in 0..scale {
                u <<= 1;
                v <<= 1;
                // Slightly perturb quadrant probabilities per level, the
                // standard trick to avoid artificial degree spikes.
                let noise = 0.05 * (r.f64() - 0.5);
                let (pa, pb, pc) = (a + noise, b - noise / 2.0, c - noise / 2.0);
                let x = r.f64();
                if x < pa {
                    // top-left: no bits set
                } else if x < pa + pb {
                    v |= 1;
                } else if x < pa + pb + pc {
                    u |= 1;
                } else {
                    u |= 1;
                    v |= 1;
                }
            }
            (u, v, 1)
        })
        .collect();
    let mut bld = GraphBuilder::new(n).symmetric();
    bld.extend(edges);
    bld.build()
}

/// 2D grid graph (`rows × cols` vertices, 4-neighborhood): the
/// high-diameter "road graph" substitute (§6.3 remark).
pub fn grid2d(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let id = |r: usize, c: usize| (r * cols + c) as u32;
    let mut b = GraphBuilder::new(n).symmetric();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                b.add(id(r, c), id(r + 1, c));
            }
        }
    }
    b.build()
}

/// 2D torus (`rows × cols` vertices, 4-neighborhood with wrap-around
/// edges): the grid's regular-degree cousin — every vertex has degree
/// exactly 4 (for `rows, cols ≥ 3`), no boundary effects.
pub fn torus2d(rows: usize, cols: usize) -> Graph {
    let n = rows * cols;
    let id = |r: usize, c: usize| (r * cols + c) as u32;
    let mut b = GraphBuilder::new(n).symmetric();
    for r in 0..rows {
        for c in 0..cols {
            if cols > 1 {
                b.add(id(r, c), id(r, (c + 1) % cols));
            }
            if rows > 1 {
                b.add(id(r, c), id((r + 1) % rows, c));
            }
        }
    }
    b.build()
}

/// Random geometric graph: `n` points uniform in the unit square, every
/// pair within Euclidean distance `r` connected, with `r` chosen so the
/// expected average degree is `degree` (`π r² n ≈ degree`). The
/// mesh-like workload: strong locality, near-constant degrees, diameter
/// `Θ(√(n/degree))` — between the uniform and grid extremes.
///
/// Neighbor search is bucketed on an `r`-sized cell grid, so generation
/// is `O(n · degree)` expected rather than `O(n²)`.
pub fn random_geometric(n: usize, degree: usize, seed: u64) -> Graph {
    let n = n.max(1);
    let pts: Vec<(f64, f64)> = (0..n as u64)
        .map(|i| {
            (
                unit_f64(hash64(seed, 2 * i)),
                unit_f64(hash64(seed, 2 * i + 1)),
            )
        })
        .collect();
    let r = (degree.max(1) as f64 / (std::f64::consts::PI * n as f64))
        .sqrt()
        .min(1.0);
    let r2 = r * r;
    // Cell side ≥ r, so any edge spans at most one cell in each axis.
    let cells = (1.0 / r).floor().max(1.0) as usize;
    let cell_of = |x: f64| ((x * cells as f64) as usize).min(cells - 1);
    let mut bucket = vec![Vec::new(); cells * cells];
    for (i, &(x, y)) in pts.iter().enumerate() {
        bucket[cell_of(y) * cells + cell_of(x)].push(i as u32);
    }
    let mut b = GraphBuilder::new(n).symmetric();
    for (i, &(x, y)) in pts.iter().enumerate() {
        let (cx, cy) = (cell_of(x), cell_of(y));
        for dy in cy.saturating_sub(1)..=(cy + 1).min(cells - 1) {
            for dx in cx.saturating_sub(1)..=(cx + 1).min(cells - 1) {
                for &j in &bucket[dy * cells + dx] {
                    if (i as u32) < j {
                        let (px, py) = pts[j as usize];
                        if (x - px) * (x - px) + (y - py) * (y - py) <= r2 {
                            b.add(i as u32, j);
                        }
                    }
                }
            }
        }
    }
    b.build()
}

/// Hub-and-spoke graph: `hubs` mutually connected hub vertices, every
/// other vertex attached to one (sometimes two) random hubs. The
/// adversarial-degree workload — hubs see `Θ(n / hubs)` neighbors while
/// spokes have degree 1–2, stressing skewed-frontier handling the way
/// [`star`] does but with enough hubs to keep some parallelism.
pub fn star_hub(n: usize, hubs: usize, seed: u64) -> Graph {
    let n = n.max(1);
    let h = hubs.clamp(1, n);
    let mut b = GraphBuilder::new(n).symmetric();
    for i in 0..h as u32 {
        for j in i + 1..h as u32 {
            b.add(i, j);
        }
    }
    for v in h as u32..n as u32 {
        b.add(v, bounded(hash64(seed, u64::from(v)), h as u64) as u32);
        // A second hub for half the spokes keeps the graph from being a
        // forest of pure stars (cycles through hub pairs exist).
        if hash64(seed ^ 0x5b, u64::from(v)) & 1 == 1 {
            b.add(
                v,
                bounded(hash64(seed ^ 0xa7, u64::from(v)), h as u64) as u32,
            );
        }
    }
    b.build()
}

/// Simple cycle over `n` vertices (diameter `n/2` — worst-case rank).
pub fn cycle(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n).symmetric();
    for i in 0..n {
        b.add(i as u32, ((i + 1) % n) as u32);
    }
    b.build()
}

/// Star: vertex 0 adjacent to all others (`d_max = n - 1`).
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n).symmetric();
    for i in 1..n {
        b.add(0, i as u32);
    }
    b.build()
}

/// Attach `weight(u, v)` to every arc of `g`.
///
/// A graph as [`GraphBuilder`] makes it (sorted adjacency lists, no
/// self-loops, no duplicate arcs) keeps its CSR arrays and only gains
/// weights. Any other input goes through a `GraphBuilder`, which
/// sorts, drops self-loops and keeps the lightest of duplicate arcs,
/// so the result is the same either way.
fn with_weights(g: &Graph, weight: impl Fn(u32, u32) -> u64) -> Graph {
    let n = g.num_vertices() as u32;
    let normalized = (0..n).all(|u| {
        let arcs = g.neighbors(u);
        arcs.windows(2).all(|w| w[0] < w[1]) && !arcs.contains(&u)
    });
    if normalized {
        return g.reweighted(weight);
    }
    let mut b = GraphBuilder::new(g.num_vertices()).weighted();
    for u in 0..n {
        for &v in g.neighbors(u) {
            b.add_weighted(u, v, weight(u, v));
        }
    }
    b.build()
}

/// Hash key of the undirected edge `{u, v}`: keyed on the canonical arc
/// so `(u, v)` and `(v, u)` draw the same weight.
fn edge_key(u: u32, v: u32) -> u64 {
    let (a, b) = if u <= v { (u, v) } else { (v, u) };
    (a as u64) << 32 | b as u64
}

/// Attach weights drawn uniformly from `[w_min, w_max]` to an existing
/// graph, assigning each undirected edge one weight (both arc directions
/// agree) — the §6.3 weighting scheme.
///
/// Expects a graph as [`GraphBuilder`] makes it: sorted adjacency
/// lists with no self-loops or duplicate arcs. Other input is
/// normalized as if its arcs had been added to a `GraphBuilder`.
pub fn with_uniform_weights(g: &Graph, w_min: u64, w_max: u64, seed: u64) -> Graph {
    assert!(w_min >= 1 && w_min <= w_max);
    with_weights(g, |u, v| {
        w_min + bounded(hash64(seed, edge_key(u, v)), w_max - w_min + 1)
    })
}

/// Attach unit weights to an existing graph: the weighted view of an
/// unweighted instance (SSSP degenerates to BFS distances). The `w/unit`
/// scenario distribution.
///
/// Expects a graph as [`GraphBuilder`] makes it: sorted adjacency
/// lists with no self-loops or duplicate arcs. Other input is
/// normalized as if its arcs had been added to a `GraphBuilder`.
pub fn with_unit_weights(g: &Graph) -> Graph {
    with_weights(g, |_, _| 1)
}

/// Attach weights drawn from an exponential distribution with the given
/// `mean` (floored at 1), assigning each undirected edge one weight —
/// heavy mass near w* with a long tail, the opposite stress to the
/// uniform range. The `w/exp` scenario distribution.
///
/// Expects a graph as [`GraphBuilder`] makes it: sorted adjacency
/// lists with no self-loops or duplicate arcs. Other input is
/// normalized as if its arcs had been added to a `GraphBuilder`.
pub fn with_exp_weights(g: &Graph, mean: u64, seed: u64) -> Graph {
    assert!(mean >= 1);
    with_weights(g, |u, v| {
        let unit = unit_f64(hash64(seed, edge_key(u, v)));
        1 + (-(mean as f64) * unit.max(1e-300).ln()) as u64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_shape() {
        let g = uniform(100, 400, 1);
        assert_eq!(g.num_vertices(), 100);
        assert!(g.num_edges() <= 800);
        assert!(g.num_edges() > 400); // few collisions expected
        assert!(g.is_symmetric());
    }

    #[test]
    fn rmat_skewed_degrees() {
        let g = rmat(10, 8 * 1024, 7);
        assert_eq!(g.num_vertices(), 1024);
        assert!(g.is_symmetric());
        // Power-law-ish: max degree far above average degree.
        let avg = g.num_edges() / g.num_vertices();
        assert!(
            g.max_degree() > 4 * avg,
            "max {} vs avg {avg}",
            g.max_degree()
        );
    }

    #[test]
    fn grid_degrees() {
        let g = grid2d(10, 15);
        assert_eq!(g.num_vertices(), 150);
        assert!(g.is_symmetric());
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.max_degree(), 4);
        // Interior vertex.
        assert_eq!(g.degree((5 * 15 + 7) as u32), 4);
    }

    #[test]
    fn cycle_and_star() {
        let g = cycle(10);
        assert!((0..10u32).all(|v| g.degree(v) == 2));
        let g = star(10);
        assert_eq!(g.degree(0), 9);
        assert!((1..10u32).all(|v| g.degree(v) == 1));
    }

    #[test]
    fn weights_in_range_and_symmetric() {
        let g = uniform(50, 200, 3);
        let wg = with_uniform_weights(&g, 1 << 17, 1 << 23, 11);
        assert!(wg.is_weighted());
        assert!(wg.min_weight().unwrap() >= 1 << 17);
        assert!(wg.max_weight().unwrap() <= 1 << 23);
        // Both directions of each undirected edge carry the same weight.
        for u in 0..wg.num_vertices() as u32 {
            for (i, &v) in wg.neighbors(u).iter().enumerate() {
                let w = wg.edge_weights(u)[i];
                let j = wg.neighbors(v).iter().position(|&x| x == u).unwrap();
                assert_eq!(wg.edge_weights(v)[j], w);
            }
        }
    }

    #[test]
    fn torus_regular_degree() {
        let g = torus2d(6, 8);
        assert_eq!(g.num_vertices(), 48);
        assert!(g.is_symmetric());
        assert!((0..48u32).all(|v| g.degree(v) == 4));
        // Degenerate shapes still build (dedup collapses wrap edges).
        let line = torus2d(1, 5);
        assert!(line.is_symmetric());
        assert!((0..5u32).all(|v| line.degree(v) == 2)); // a cycle
    }

    #[test]
    fn geometric_local_and_bounded() {
        let g = random_geometric(500, 8, 3);
        assert_eq!(g.num_vertices(), 500);
        assert!(g.is_symmetric());
        // Average degree lands near the target (±2x is generous).
        let avg = g.num_edges() as f64 / 500.0;
        assert!((2.0..32.0).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn star_hub_degrees_skewed() {
        let g = star_hub(400, 8, 5);
        assert_eq!(g.num_vertices(), 400);
        assert!(g.is_symmetric());
        assert!(g.max_degree() >= 400 / 16, "hubs must be hot");
        // Spokes stay low-degree.
        assert!((8..400u32).all(|v| g.degree(v) <= 2));
        // Degenerate: more hubs than vertices clamps.
        assert_eq!(star_hub(3, 10, 1).num_vertices(), 3);
    }

    #[test]
    fn unit_and_exp_weights() {
        let g = uniform(60, 240, 9);
        let unit = with_unit_weights(&g);
        assert!(unit.is_weighted());
        assert_eq!(unit.num_edges(), g.num_edges());
        assert_eq!(unit.min_weight(), Some(1));
        assert_eq!(unit.max_weight(), Some(1));

        let exp = with_exp_weights(&g, 100, 4);
        assert!(exp.is_weighted());
        assert!(exp.min_weight().unwrap() >= 1);
        // Both directions of each undirected edge carry the same weight.
        for u in 0..exp.num_vertices() as u32 {
            for (i, &v) in exp.neighbors(u).iter().enumerate() {
                let w = exp.edge_weights(u)[i];
                let j = exp.neighbors(v).iter().position(|&x| x == u).unwrap();
                assert_eq!(exp.edge_weights(v)[j], w);
            }
        }
    }

    #[test]
    fn weights_on_unnormalized_csr_match_graph_builder_output() {
        // Vertex 0's list is unsorted, has a self-loop and a duplicate.
        let messy = Graph::from_csr(vec![0, 4, 5, 6], vec![2, 0, 1, 2, 0, 0], vec![]);
        let clean = Graph::from_csr(vec![0, 2, 3, 4], vec![1, 2, 0, 0], vec![]);
        for (a, b) in [
            (with_unit_weights(&messy), with_unit_weights(&clean)),
            (
                with_uniform_weights(&messy, 1, 1000, 5),
                with_uniform_weights(&clean, 1, 1000, 5),
            ),
            (
                with_exp_weights(&messy, 50, 5),
                with_exp_weights(&clean, 50, 5),
            ),
        ] {
            assert_eq!(a.offsets(), b.offsets());
            for v in 0..3u32 {
                assert_eq!(a.neighbors(v), b.neighbors(v));
                assert_eq!(a.edge_weights(v), b.edge_weights(v));
            }
        }
    }

    #[test]
    fn deterministic_generators() {
        let a = uniform(64, 128, 5);
        let b = uniform(64, 128, 5);
        assert_eq!(a.num_edges(), b.num_edges());
        for v in 0..64u32 {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
    }
}
