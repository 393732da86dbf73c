//! Register allocation by parallel greedy graph coloring (§5.3).
//!
//! A compiler backend assigns virtual registers to a small set of
//! physical registers; two virtual registers need different physical
//! ones iff their live ranges overlap (an *interference graph*). Classic
//! allocators color this graph greedily — exactly the Jones–Plassmann
//! iterative algorithm the paper parallelizes with its Type 2 wake-up
//! machinery.
//!
//! This example synthesizes live ranges for a large straight-line
//! function (each virtual register live over an interval; intervals from
//! a truncated-geometric length distribution), builds the interval
//! interference graph, colors it with the parallel greedy algorithm
//! under the three ordering heuristics of Hasenplaugh et al. [48], and
//! verifies the coloring both against the sequential greedy and for
//! propriety.
//!
//! Run with: `cargo run --release -p pp-algos --example register_allocation`

use phase_parallel::{PhaseAlgorithm, RunConfig};
use pp_algos::api::{Coloring, GraphPriorityInstance};
use pp_algos::coloring::is_proper_coloring;
use pp_algos::coloring_orders::{
    num_colors, order_largest_degree_first, order_largest_log_degree_first, order_random,
};
use pp_graph::GraphBuilder;
use pp_parlay::rng::Rng;

/// A virtual register live over the half-open instruction range
/// `[start, end)`.
struct LiveRange {
    start: u32,
    end: u32,
}

/// Synthesize `n` live ranges over a program of `program_len`
/// instructions; most ranges are short (geometric-ish), a few span far.
fn synthesize_live_ranges(n: usize, program_len: u32, seed: u64) -> Vec<LiveRange> {
    let mut r = Rng::new(seed);
    (0..n)
        .map(|_| {
            let start = r.range(u64::from(program_len)) as u32;
            // 1 + min of three draws ⇒ mean ≈ len/4 with a long tail.
            let a = r.range(200) as u32;
            let b = r.range(200) as u32;
            let c = r.range(200) as u32;
            let len = 1 + a.min(b).min(c);
            LiveRange {
                start,
                end: (start + len).min(program_len),
            }
        })
        .collect()
}

/// Interference graph: an edge between every pair of overlapping ranges.
/// Sweep-line construction: O(n log n + edges).
fn interference_graph(ranges: &[LiveRange]) -> pp_graph::Graph {
    let n = ranges.len();
    // Events: (pos, is_end, id) — ends before starts at equal pos since
    // ranges are half-open.
    let mut events: Vec<(u32, bool, u32)> = Vec::with_capacity(2 * n);
    for (i, lr) in ranges.iter().enumerate() {
        events.push((lr.start, false, i as u32));
        events.push((lr.end, true, i as u32));
    }
    events.sort_unstable_by_key(|&(pos, is_end, id)| (pos, !is_end, id));
    let mut live: Vec<u32> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (_, is_end, id) in events {
        if is_end {
            live.retain(|&x| x != id);
        } else {
            for &other in &live {
                edges.push((other, id));
            }
            live.push(id);
        }
    }
    let mut b = GraphBuilder::new(n).symmetric();
    for (u, v) in edges {
        b.add(u, v);
    }
    b.build()
}

fn main() {
    let n = 30_000;
    let program_len = 200_000;
    println!("Synthesizing {n} virtual-register live ranges over {program_len} instructions…");
    let ranges = synthesize_live_ranges(n, program_len, 42);
    let g = interference_graph(&ranges);
    println!(
        "Interference graph: {} vertices, {} edges, max degree {}",
        g.num_vertices(),
        g.num_edges() / 2,
        g.max_degree()
    );

    // The interval-graph clique number = max simultaneous live registers:
    // the optimal color count (interval graphs are perfect), our yardstick.
    let mut depth = vec![0u32; program_len as usize + 1];
    for lr in &ranges {
        depth[lr.start as usize] += 1;
        depth[lr.end as usize] -= 1;
    }
    let mut cur = 0i64;
    let mut clique = 0i64;
    for d in depth {
        cur += i64::from(d as i32);
        clique = clique.max(cur);
    }
    println!("Maximum register pressure (optimal colors): {clique}");

    let orders = [
        ("random (R)", order_random(&g, 7)),
        (
            "largest-degree-first (LF)",
            order_largest_degree_first(&g, 7),
        ),
        (
            "largest-log-degree-first (LLF)",
            order_largest_log_degree_first(&g, 7),
        ),
    ];
    let mut instance = GraphPriorityInstance::new(g, Vec::new());
    for (name, priority) in orders {
        instance.priority = priority;
        let colors = Coloring.solve_par(&instance, &RunConfig::new()).output;
        assert_eq!(colors, Coloring.solve_seq(&instance), "{name}: diverged");
        assert!(
            is_proper_coloring(&instance.graph, &colors),
            "{name}: improper coloring"
        );
        println!(
            "  {name:<28} → {} physical registers ({:.2}x optimal)",
            num_colors(&colors),
            f64::from(num_colors(&colors)) / clique as f64,
        );
    }
    println!("All colorings proper and identical to the sequential greedy. ✓");
}
