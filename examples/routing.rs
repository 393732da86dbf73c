//! SSSP routing: the Δ = w* phase-parallel choice on two graph shapes.
//!
//! §6.3's finding: on low-diameter graphs with large w*, Δ = w* (the
//! phase-parallel relaxed rank) is both work-efficient and parallel; on
//! high-diameter road-like graphs small frontiers dominate and larger Δ
//! wins. This example reproduces that contrast on a synthetic social
//! network (RMAT) and a synthetic road grid, preparing each graph once
//! and sweeping Δ as a per-query knob.
//!
//! The closing section is the engine view: the road network is
//! **prepared once** (`DeltaSssp.prepare`) and then serves a whole
//! batch of per-source queries (`solve_prepared`, one scratch workspace
//! per worker) — the calling convention a routing service uses.
//!
//! Run with: `cargo run --release -p pp-algos --example routing`

use phase_parallel::{PhaseAlgorithm, Scratch};
use pp_algos::api::{DeltaSssp, SsspInstance};
use pp_algos::sssp::dijkstra;
use pp_algos::RunConfig;
use pp_workloads::{ScenarioSpec, WeightDist};
use rayon::prelude::*;
use std::time::Instant;

fn run(name: &str, instance: &SsspInstance) {
    let g = &instance.graph;
    let w_star = g.min_weight().unwrap();
    let w_max = g.max_weight().unwrap();
    println!(
        "\n== {name}: {} vertices, {} arcs, weights [{w_star}, {w_max}] ==",
        g.num_vertices(),
        g.num_edges()
    );
    let t = Instant::now();
    let base = dijkstra(g, 0);
    println!("  dijkstra (sequential): {:?}", t.elapsed());

    let prepared = DeltaSssp.prepare(instance);
    let mut scratch = Scratch::new();
    for (label, delta) in [
        ("Δ = w*   (phase-parallel)", w_star),
        ("Δ = 4 w*", 4 * w_star),
        ("Δ = w_max (≈ Bellman-Ford)", w_max * 1024),
    ] {
        let t = Instant::now();
        let cfg = RunConfig::new().with_delta(delta);
        let report = DeltaSssp.solve_prepared(instance, &prepared, &mut scratch, &cfg);
        assert_eq!(report.output, base);
        println!(
            "  {label:28}: {:>10?}  buckets={:<6} substeps={:<6} relaxations={}",
            t.elapsed(),
            report.stats.rounds,
            report.stats.counter("substeps").unwrap_or(0),
            report.stats.counter("relaxations").unwrap_or(0)
        );
    }
}

fn main() {
    // Both inputs come from the string-keyed scenario layer; the §6.3
    // weighting scheme (uniform in [2^21, 2^23]) is the weight knob.
    let weights = WeightDist::Uniform {
        min: 1 << 21,
        max: 1 << 23,
    };

    // Social-network stand-in for Twitter/Friendster (§6.3): RMAT has
    // their low diameter and skewed degrees, which set the round count.
    let social = ScenarioSpec::parse("graph/rmat")
        .unwrap()
        .with_weights(weights)
        .with_degree(16)
        .weighted_graph(1 << 16, 1)
        .unwrap();
    run(
        "RMAT social network (graph/rmat)",
        &SsspInstance::new(social, 0),
    );

    // Road-network stand-in: high diameter, constant degree.
    let road = ScenarioSpec::parse("graph/grid2d")
        .unwrap()
        .with_weights(weights)
        .weighted_graph(400 * 400, 3)
        .unwrap();
    let instance = SsspInstance::new(road, 0);
    run("road grid 400x400 (graph/grid2d)", &instance);

    // The engine view: prepare the road network once, then serve a
    // batch of per-source queries against it.
    let n = instance.graph.num_vertices();
    let queries: Vec<RunConfig> = (0..16u64)
        .map(|i| RunConfig::seeded(i).with_source((pp_parlay::hash64(9, i) % n as u64) as u32))
        .collect();
    let reach = |d: &[u64]| d.iter().filter(|&&x| x != u64::MAX).count();

    let t = Instant::now();
    let one_shot_reach: usize = queries
        .iter()
        .map(|q| reach(&DeltaSssp.solve_par(&instance, q).output))
        .sum();
    let one_shot_time = t.elapsed();

    let prepared = DeltaSssp.prepare(&instance);
    let t = Instant::now();
    let batch: Vec<_> = queries
        .par_iter()
        .map_init(Scratch::new, |scratch, q| {
            DeltaSssp.solve_prepared(&instance, &prepared, scratch, q)
        })
        .collect();
    let batch_time = t.elapsed();
    let batch_reach: usize = batch.iter().map(|r| reach(&r.output)).sum();
    assert_eq!(one_shot_reach, batch_reach);

    println!(
        "\n== prepared routing service: {} queries ==",
        queries.len()
    );
    println!("  one-shot solve_par per query : {one_shot_time:?}");
    println!(
        "  prepare once + batch         : {batch_time:?}  ({} total rounds, speedup {:.2}x)",
        batch.iter().map(|r| r.stats.rounds).sum::<usize>(),
        one_shot_time.as_secs_f64() / batch_time.as_secs_f64()
    );
}
