//! `ScenarioSpec::weighted_graph` attaches weights to the generated
//! CSR in place. This pins its output, arc for arc, to the reference
//! path that rebuilds the whole graph through a second `GraphBuilder`
//! (sort, dedup and validation included), for every graph family and
//! every weight distribution over several seeds and sizes.

use pp_graph::{Graph, GraphBuilder};
use pp_parlay::rng::{bounded, hash64, unit_f64};
use pp_workloads::{Family, ScenarioKind, ScenarioSpec, WeightDist};

/// The reference: every arc of `g` re-added to a weighted `GraphBuilder`.
fn rebuilt(g: &Graph, weight: impl Fn(u32, u32) -> u64) -> Graph {
    let mut b = GraphBuilder::new(g.num_vertices()).weighted();
    for u in 0..g.num_vertices() as u32 {
        for &v in g.neighbors(u) {
            b.add_weighted(u, v, weight(u, v));
        }
    }
    b.build()
}

fn reference(g: &Graph, dist: WeightDist, seed: u64) -> Graph {
    let key = |u: u32, v: u32| {
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        (a as u64) << 32 | b as u64
    };
    match dist {
        WeightDist::Unit => rebuilt(g, |_, _| 1),
        WeightDist::Uniform { min, max } => rebuilt(g, |u, v| {
            min + bounded(hash64(seed, key(u, v)), max - min + 1)
        }),
        WeightDist::Exp { mean } => rebuilt(g, |u, v| {
            let unit = unit_f64(hash64(seed, key(u, v)));
            1 + (-(mean as f64) * unit.max(1e-300).ln()) as u64
        }),
    }
}

fn assert_same_arcs(got: &Graph, want: &Graph, what: &str) {
    assert_eq!(got.offsets(), want.offsets(), "{what}: offsets");
    assert_eq!(got.is_weighted(), want.is_weighted(), "{what}: weighted");
    for v in 0..got.num_vertices() as u32 {
        assert_eq!(got.neighbors(v), want.neighbors(v), "{what}: arcs of {v}");
        assert_eq!(
            got.edge_weights(v),
            want.edge_weights(v),
            "{what}: weights of {v}"
        );
    }
}

#[test]
fn weighted_graph_matches_the_builder_path_arc_for_arc() {
    let specs: Vec<ScenarioSpec> = Family::ALL
        .into_iter()
        .filter(|f| f.kind() == ScenarioKind::Graph)
        .map(ScenarioSpec::new)
        .chain([ScenarioSpec::new(Family::GraphGrid2d).with_torus(true)])
        .collect();
    let dists = [
        WeightDist::Unit,
        WeightDist::Uniform { min: 1, max: 1000 },
        WeightDist::Uniform { min: 7, max: 9 },
        WeightDist::Exp { mean: 100 },
        WeightDist::Exp { mean: 2 },
    ];
    for spec in specs {
        for dist in dists {
            let spec = spec.with_weights(dist);
            for (n, seeds) in [(1, 1..3), (2, 1..3), (37, 1..5), (300, 1..5), (2000, 1..2)] {
                for seed in seeds {
                    let what = format!("{} n={n} seed={seed}", spec.cache_key());
                    let want = reference(&spec.graph(n, seed).unwrap(), dist, seed ^ 0x77ed);
                    assert_same_arcs(&spec.weighted_graph(n, seed).unwrap(), &want, &what);
                }
            }
        }
    }
}
