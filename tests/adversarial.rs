//! Adversarial and failure-injection-style inputs: extreme ranks,
//! degenerate shapes, and boundary conditions for every algorithm.

use pp_algos::activity::{self, Activity};
use pp_algos::api::{
    ActivityType1, ActivityType2, CrauserSssp, DeltaSssp, GraphPriorityInstance, GreedyMis,
    Knapsack, Lis, RandomPerm, RhoSssp, SsspInstance, Whac2d,
};
use pp_algos::huffman;
use pp_algos::knapsack::{max_value_seq, Item};
use pp_algos::lis::{self, PivotMode};
use pp_algos::mis;
use pp_algos::sssp;
use pp_algos::{PhaseAlgorithm, RunConfig};
use pp_graph::{gen, GraphBuilder};
use pp_parlay::shuffle::random_priorities;

// ---- maximum-rank (fully sequential dependence) instances ----

#[test]
fn lis_rank_equals_n_chain() {
    // Strictly increasing input: rank = n, the worst case for span —
    // but still correct and exactly n rounds (Algorithm 3: n + 1, with
    // its virtual round).
    let v: Vec<i64> = (0..2000).collect();
    let cfg = RunConfig::seeded(1).with_pivot_mode(PivotMode::RightMost);
    let res = Lis.solve_par(&v, &cfg);
    assert_eq!(res.output, 2000);
    assert_eq!(res.stats.rounds, 2000);
    let res = lis::lis_weighted_par(&v, &vec![1; v.len()], &cfg);
    assert_eq!(res.output.0, 2000);
    assert_eq!(res.stats.rounds, 2001);
}

#[test]
fn activity_rank_equals_n_chain() {
    let acts = activity::sort_by_end((0..1500u64).map(|i| Activity::new(i, i + 1, 1)).collect());
    let report = ActivityType2.solve_par(&acts, &RunConfig::new());
    assert_eq!(report.output, 1500);
    assert_eq!(report.stats.rounds, 1500);
}

#[test]
fn mis_priority_chain_worst_case() {
    // Path with monotone priorities: dependence depth ≈ n/2; the TAS
    // algorithm must still terminate and agree with greedy.
    let n = 2000usize;
    let mut b = GraphBuilder::new(n).symmetric();
    for i in 0..n - 1 {
        b.add(i as u32, i as u32 + 1);
    }
    let pri: Vec<u32> = (0..n as u32).rev().collect();
    let inst = GraphPriorityInstance::new(b.build(), pri);
    let set = GreedyMis.solve_par(&inst, &RunConfig::new()).output;
    assert_eq!(set, GreedyMis.solve_seq(&inst));
    // Greedy with decreasing priorities selects every even vertex.
    assert!(set.iter().step_by(2).all(|&x| x));
    assert!(!set.iter().skip(1).step_by(2).any(|&x| x));
}

// ---- degenerate value distributions ----

#[test]
fn lis_all_equal_and_all_distinct_duplicated() {
    let v = vec![7i64; 3000];
    assert_eq!(Lis.solve_par(&v, &RunConfig::seeded(0)).output, 1);
    // Two interleaved copies of 0..1500: LIS length is 1500.
    let mut v: Vec<i64> = Vec::new();
    for i in 0..1500 {
        v.push(i);
        v.push(i);
    }
    assert_eq!(lis::lis_seq(&v), 1500);
    let cfg = RunConfig::seeded(0).with_pivot_mode(PivotMode::RightMost);
    assert_eq!(Lis.solve_par(&v, &cfg).output, 1500);
}

#[test]
fn activity_identical_intervals() {
    // n copies of the same interval: rank 1, pick the heaviest.
    let acts = activity::sort_by_end((0..1000u64).map(|w| Activity::new(10, 20, w + 1)).collect());
    let report = ActivityType1.solve_par(&acts, &RunConfig::new());
    assert_eq!(report.output, 1000);
    assert_eq!(report.stats.rounds, 1);
}

#[test]
fn huffman_extreme_skew_and_two_symbols() {
    // Powers of two force a path-shaped tree (max rank).
    let freqs: Vec<u64> = (0..40).map(|i| 1u64 << i).collect();
    let report = huffman::build_par(&freqs, &RunConfig::new());
    let (t, stats) = (report.output, report.stats);
    assert_eq!(t.height(), 39);
    assert!(stats.rounds <= 39);
    assert_eq!(
        t.weighted_path_length(&freqs),
        huffman::build_seq(&freqs).weighted_path_length(&freqs)
    );
}

#[test]
fn knapsack_boundary_weights() {
    // Item exactly equal to W, and items summing to just over W.
    let items = vec![Item::new(100, 7), Item::new(51, 4)];
    assert_eq!(max_value_seq(&items, 100), 7);
    for (w, want) in [(100, 7), (99, 4), (50, 0)] {
        let report = Knapsack.solve_par(&(items.clone(), w), &RunConfig::new());
        assert_eq!(report.output, want, "W = {w}");
    }
}

// ---- graph edge cases ----

#[test]
fn sssp_zero_is_source_only_component() {
    let mut b = GraphBuilder::new(3).weighted();
    // Directed-ish: builder without symmetric stores arcs as given.
    b.add_weighted(1, 2, 5);
    let g = b.build();
    let d = sssp::dijkstra(&g, 0);
    assert_eq!(d, vec![0, sssp::INF, sssp::INF]);
}

#[test]
fn sssp_parallel_heavy_multi_edges_collapse() {
    // Parallel edges with different weights: builder keeps the lightest.
    let mut b = GraphBuilder::new(2).symmetric().weighted();
    b.add_weighted(0, 1, 100);
    b.add_weighted(0, 1, 3);
    b.add_weighted(0, 1, 50);
    let inst = SsspInstance::new(b.build(), 0);
    assert_eq!(sssp::dijkstra(&inst.graph, 0), vec![0, 3]);
    let d = DeltaSssp.solve_par(&inst, &RunConfig::new().with_delta(1));
    assert_eq!(d.output, vec![0, 3]);
}

#[test]
fn mis_on_complete_graph_selects_exactly_one() {
    let n = 60usize;
    let mut b = GraphBuilder::new(n).symmetric();
    for i in 0..n as u32 {
        for j in i + 1..n as u32 {
            b.add(i, j);
        }
    }
    let inst = GraphPriorityInstance::new(b.build(), random_priorities(n, 3));
    let set = GreedyMis.solve_par(&inst, &RunConfig::new()).output;
    assert_eq!(set.iter().filter(|&&x| x).count(), 1);
    let top = (0..n).max_by_key(|&v| inst.priority[v]).unwrap();
    assert!(set[top]);
}

#[test]
fn self_loops_and_duplicates_cleaned_by_builder() {
    let mut b = GraphBuilder::new(3).symmetric();
    b.add(0, 0);
    b.add(1, 1);
    b.add(0, 1);
    b.add(0, 1);
    b.add(1, 0);
    let g = b.build();
    assert_eq!(g.num_edges(), 2);
    let inst = GraphPriorityInstance::new(g, random_priorities(3, 1));
    let set = GreedyMis.solve_par(&inst, &RunConfig::new()).output;
    assert!(mis::is_maximal_independent(&inst.graph, &set));
}

// ---- overflow-adjacent values ----

#[test]
fn activity_huge_weights_no_overflow() {
    // Weights near u32::MAX as the paper's [1, 2^32) and long chains:
    // sums stay far below u64::MAX.
    let acts = activity::sort_by_end(
        (0..1000u64)
            .map(|i| Activity::new(i * 10, i * 10 + 10, u32::MAX as u64))
            .collect(),
    );
    assert_eq!(
        ActivityType1.solve_par(&acts, &RunConfig::new()).output,
        1000 * (u32::MAX as u64)
    );
}

#[test]
fn huffman_large_frequencies_fit_u64() {
    // Total ~2^40: well within u64 during merging.
    let freqs: Vec<u64> = (0..1024).map(|_| 1u64 << 30).collect();
    let t = huffman::build_par(&freqs, &RunConfig::new()).output;
    assert_eq!(t.height(), 10);
}

#[test]
fn graphs_with_isolated_vertices_everywhere() {
    let g = gen::uniform(100, 30, 5); // sparse: many isolated vertices
    let inst = GraphPriorityInstance::new(g, random_priorities(100, 6));
    let set = GreedyMis.solve_par(&inst, &RunConfig::new()).output;
    let g = &inst.graph;
    assert!(mis::is_maximal_independent(g, &set));
    // Isolated vertices must all be selected.
    for v in 0..100u32 {
        if g.degree(v) == 0 {
            assert!(set[v as usize]);
        }
    }
}

// ---- newer modules under the same adversarial shapes ----

#[test]
fn rho_stepping_path_graph_worst_case() {
    // A path forces ρ-stepping into ~n/ρ steps; distances must still be
    // exact even when ρ exceeds the frontier.
    let n = 3000usize;
    let mut b = GraphBuilder::new(n).symmetric().weighted();
    for i in 0..n - 1 {
        b.add_weighted(i as u32, i as u32 + 1, 7);
    }
    let inst = SsspInstance::new(b.build(), 0);
    for rho in [1usize, 3, 1000] {
        let d = RhoSssp.solve_par(&inst, &RunConfig::new().with_rho(rho));
        assert_eq!(d.output[n - 1], 7 * (n as u64 - 1), "rho={rho}");
    }
}

#[test]
fn crauser_uniform_weights_settle_bfs_layers() {
    // Uniform weights: OUT-criterion settles whole BFS layers per round,
    // so rounds = eccentricity of the source.
    let g = gen::grid2d(40, 40);
    let inst = SsspInstance::new(gen::with_uniform_weights(&g, 9, 9, 1), 0);
    let report = CrauserSssp.solve_par(&inst, &RunConfig::new());
    assert_eq!(report.output, sssp::dijkstra(&inst.graph, 0));
    assert_eq!(
        report.stats.rounds,
        78 + 1,
        "grid corner eccentricity + source round"
    );
}

#[test]
fn random_perm_reservations_tiny_and_duplicate_free() {
    for n in [0usize, 1, 2, 3] {
        let p = RandomPerm.solve_par(&(n, 5), &RunConfig::new()).output;
        let mut q = p.clone();
        q.sort_unstable();
        assert_eq!(q, (0..n as u32).collect::<Vec<_>>());
    }
}

#[test]
fn whac2d_everything_at_origin() {
    use pp_algos::whac::{whac2d_seq, Mole2d};
    // Same cell, increasing time: all hittable (pure waiting).
    let moles: Vec<Mole2d> = (0..500).map(|i| Mole2d { t: i, x: 0, y: 0 }).collect();
    assert_eq!(whac2d_seq(&moles), 500);
    let rm = RunConfig::seeded(0).with_pivot_mode(PivotMode::RightMost);
    assert_eq!(Whac2d.solve_par(&moles, &rm).output, 500);
    // Same cell, same time (duplicates): only one.
    let moles = vec![Mole2d { t: 1, x: 2, y: 3 }; 40];
    assert_eq!(whac2d_seq(&moles), 1);
    assert_eq!(Whac2d.solve_par(&moles, &RunConfig::seeded(1)).output, 1);
}

#[test]
fn radix_sort_adversarial_keys() {
    // All keys share high bits (late passes no-op) or low bits (early
    // passes no-op).
    let n = 150_000usize;
    let mut v: Vec<u64> = (0..n as u64).map(|i| (0xdead << 48) | (i % 97)).collect();
    let mut want = v.clone();
    want.sort_unstable();
    pp_parlay::radix_sort_u64(&mut v);
    assert_eq!(v, want);

    let mut v: Vec<u64> = (0..n as u64).map(|i| (i % 31) << 56).collect();
    let mut want = v.clone();
    want.sort_unstable();
    pp_parlay::radix_sort_u64(&mut v);
    assert_eq!(v, want);
}
