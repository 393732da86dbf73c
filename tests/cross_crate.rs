//! Integration tests spanning crates: every parallel algorithm against
//! its sequential baseline on randomized inputs, exercising the full
//! stack (parlay primitives → range structures / PA-BSTs → framework
//! engines → algorithms).

use pp_algos::activity;
use pp_algos::api::{
    ActivityType1, ActivityType1Pam, ActivityType2, BellmanFordSssp, Coloring, CrauserSssp,
    DeltaSssp, GraphPriorityInstance, GreedyMis, Knapsack, Lis, Matching, MatchingReservations,
    PamSssp, RandomPerm, RhoSssp, RoundsMis, SsspInstance, Whac, Whac2d,
};
use pp_algos::coloring::{coloring_seq, is_proper_coloring};
use pp_algos::huffman;
use pp_algos::knapsack::{max_value_seq, Item};
use pp_algos::lis::{self, PivotMode};
use pp_algos::matching;
use pp_algos::mis;
use pp_algos::sssp;
use pp_algos::whac::{rotated_v_sequence, whac_seq, Mole};
use pp_algos::{PhaseAlgorithm, RunConfig};
use pp_graph::gen;
use pp_parlay::rng::Rng;
use pp_parlay::shuffle::random_priorities;

#[test]
fn activity_pipeline_end_to_end() {
    for target in [1u64, 30, 3_000] {
        let acts = activity::workload::with_target_rank(30_000, target, target);
        let want = activity::max_weight_seq(&acts);
        let r1 = ActivityType1.solve_par(&acts, &RunConfig::new());
        let r1p = ActivityType1Pam.solve_par(&acts, &RunConfig::new());
        let r2 = ActivityType2.solve_par(&acts, &RunConfig::new());
        assert_eq!(r1.output, want);
        assert_eq!(r1p.output, want);
        assert_eq!(r2.output, want);
        // Round-efficiency: both engines run exactly rank(S) rounds.
        let rank = *activity::ranks(&acts).iter().max().unwrap() as usize;
        assert_eq!(r1.stats.rounds, rank);
        assert_eq!(r2.stats.rounds, rank);
        assert_eq!(r2.stats.failed_wakeups, 0, "Lemma 5.1: pivots are exact");
    }
}

#[test]
fn lis_pipeline_on_both_patterns() {
    let n = 30_000;
    for (series, label) in [
        (lis::patterns::segment(n, 100, 1), "segment"),
        (lis::patterns::line_with_target(n, 100, 2), "line"),
    ] {
        let want = lis::lis_seq(&series);
        let ones = vec![1; series.len()];
        for mode in [PivotMode::Random, PivotMode::RightMost] {
            let cfg = RunConfig::seeded(3).with_pivot_mode(mode);
            let res = Lis.solve_par(&series, &cfg);
            assert_eq!(res.output, want, "{label} {mode:?}");
            // Round-efficiency: rounds == LIS length.
            assert_eq!(res.stats.rounds, want as usize, "{label} {mode:?}");
            // Algorithm 3: rounds == LIS length + 1 (virtual round).
            let res = lis::lis_weighted_par(&series, &ones, &cfg);
            assert_eq!(res.output.0, want, "{label} {mode:?}");
            assert_eq!(res.stats.rounds, want as usize + 1, "{label} {mode:?}");
        }
    }
}

#[test]
fn knapsack_par_matches_seq_large() {
    let mut r = Rng::new(4);
    let items: Vec<Item> = (0..40)
        .map(|_| Item::new(5 + r.range(50), 1 + r.range(1000)))
        .collect();
    let w = 20_000;
    let want = max_value_seq(&items, w);
    let w_star = items.iter().map(|i| i.weight).min().unwrap();
    let report = Knapsack.solve_par(&(items, w), &RunConfig::new());
    assert_eq!(report.output, want);
    assert_eq!(report.stats.rounds as u64, (w).div_ceil(w_star));
}

#[test]
fn huffman_par_optimal_on_all_distributions() {
    let mut r = Rng::new(5);
    let n = 50_000usize;
    // Uniform, Zipfian, exponential — the §6.2 distributions.
    let uniform: Vec<u64> = (0..n).map(|_| 1 + r.range(1000)).collect();
    let zipf: Vec<u64> = (0..n).map(|i| (1_000_000 / (i + 1)) as u64 + 1).collect();
    let expo: Vec<u64> = (0..n)
        .map(|_| (r.exponential(0.002) as u64).max(1))
        .collect();
    for (freqs, label) in [(uniform, "uniform"), (zipf, "zipf"), (expo, "exponential")] {
        let seq = huffman::build_seq(&freqs);
        let report = huffman::build_par(&freqs, &RunConfig::new());
        let (par, stats) = (report.output, report.stats);
        assert_eq!(
            seq.weighted_path_length(&freqs),
            par.weighted_path_length(&freqs),
            "{label}"
        );
        assert!(par.kraft_holds(), "{label}");
        // Round-efficiency: O(rank) rounds; the odd-frontier postponement
        // can add a couple of rounds beyond the height (§4.3 remark).
        assert!(
            stats.rounds as u32 <= par.height() + 3,
            "{label}: rounds {} vs height {}",
            stats.rounds,
            par.height()
        );
    }
}

#[test]
fn sssp_all_algorithms_on_all_graph_shapes() {
    let shapes: Vec<(&str, pp_graph::Graph)> = vec![
        ("uniform", gen::uniform(800, 4000, 1)),
        ("rmat", gen::rmat(10, 8192, 2)),
        ("grid", gen::grid2d(25, 32)),
        ("cycle", gen::cycle(500)),
    ];
    for (label, g) in shapes {
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 1 << 10, 1 << 16, 3), 0);
        let base = sssp::dijkstra(&inst.graph, 0);
        assert_eq!(
            BellmanFordSssp.solve_par(&inst, &RunConfig::new()).output,
            base,
            "{label} bellman-ford"
        );
        let d = DeltaSssp.solve_par(&inst, &RunConfig::new()).output;
        assert_eq!(d, base, "{label} phase-parallel");
        for delta in [1u64 << 8, 1 << 14, 1 << 20] {
            let d = DeltaSssp.solve_par(&inst, &RunConfig::new().with_delta(delta));
            assert_eq!(d.output, base, "{label} delta={delta}");
        }
    }
}

#[test]
fn graph_greedy_trio_agree_everywhere() {
    for seed in 0..3 {
        let g = gen::rmat(10, 16_384, seed);
        let n = g.num_vertices();
        let pri = random_priorities(n, seed + 10);
        let mut inst = GraphPriorityInstance::new(g, pri);
        let (g, pri) = (&inst.graph, &inst.priority);
        // MIS.
        let set = mis::mis_seq(g, pri);
        assert_eq!(RoundsMis.solve_par(&inst, &RunConfig::new()).output, set);
        assert!(mis::is_maximal_independent(g, &set));
        // Coloring.
        let col = coloring_seq(g, pri);
        assert!(is_proper_coloring(g, &col));
        // Matching.
        let epri = matching::random_edge_priorities(g, seed + 20);
        let m = matching::matching_seq(g, &epri);
        assert!(matching::is_maximal_matching(g, &m));
        assert_eq!(GreedyMis.solve_par(&inst, &RunConfig::new()).output, set);
        assert_eq!(Coloring.solve_par(&inst, &RunConfig::new()).output, col);
        inst.priority = epri;
        assert_eq!(Matching.solve_par(&inst, &RunConfig::new()).output, m);
    }
}

#[test]
fn results_identical_across_thread_counts() {
    // The outputs are functions of the seeds alone — verify by running
    // under differently sized rayon pools (1, 2, 4 threads; pools larger
    // than the hardware still exercise different schedules).
    let series = lis::patterns::segment(20_000, 50, 1);
    let g = gen::rmat(9, 4096, 2);
    let weighted = SsspInstance::new(gen::with_uniform_weights(&g, 10, 100, 6), 0);
    let pri = random_priorities(g.num_vertices(), 3);
    let graph = GraphPriorityInstance::new(g, pri);
    let acts = activity::workload::with_target_rank(20_000, 100, 4);
    let lis_cfg = RunConfig::seeded(5).with_pivot_mode(PivotMode::RightMost);
    let run_all = || {
        (
            Lis.solve_par(&series, &lis_cfg).output,
            GreedyMis.solve_par(&graph, &RunConfig::new()).output,
            Coloring.solve_par(&graph, &RunConfig::new()).output,
            ActivityType1.solve_par(&acts, &RunConfig::new()).output,
            PamSssp.solve_par(&weighted, &RunConfig::new()).output,
        )
    };
    let reference = run_all();
    for threads in [1usize, 2, 4] {
        let got = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool")
            .install(run_all);
        assert_eq!(got.0, reference.0, "lis, {threads} threads");
        assert_eq!(got.1, reference.1, "mis, {threads} threads");
        assert_eq!(got.2, reference.2, "coloring, {threads} threads");
        assert_eq!(got.3, reference.3, "activity, {threads} threads");
        assert_eq!(got.4, reference.4, "sssp, {threads} threads");
    }
}

#[test]
fn weighted_lis_and_coloring_orders_end_to_end() {
    // Weighted LIS on a realistic pattern.
    let values = lis::patterns::line_with_target(20_000, 100, 1);
    let weights: Vec<u32> = (0..values.len() as u64)
        .map(|i| 1 + (pp_parlay::hash64(2, i) % 100) as u32)
        .collect();
    let want = lis::lis_weighted_seq(&values, &weights);
    let cfg = RunConfig::seeded(3).with_pivot_mode(PivotMode::RightMost);
    let (best, _) = lis::lis_weighted_par(&values, &weights, &cfg).output;
    assert_eq!(best, want);

    // Coloring heuristics through the TAS engine.
    use pp_algos::coloring_orders::{
        num_colors, order_largest_degree_first, order_largest_log_degree_first, order_random,
    };
    let g = gen::rmat(11, 1 << 14, 4);
    let orders = [
        order_random(&g, 5),
        order_largest_degree_first(&g, 5),
        order_largest_log_degree_first(&g, 5),
    ];
    let mut inst = GraphPriorityInstance::new(g, Vec::new());
    for pri in orders {
        inst.priority = pri;
        let g = &inst.graph;
        let c = Coloring.solve_par(&inst, &RunConfig::new()).output;
        assert_eq!(c, Coloring.solve_seq(&inst));
        assert!(is_proper_coloring(g, &c));
        assert!(num_colors(&c) <= g.max_degree() as u32 + 1);
    }
}

#[test]
fn whac_a_mole_reuses_lis_machinery() {
    let mut r = Rng::new(6);
    let moles: Vec<Mole> = (0..5000)
        .map(|_| Mole {
            t: r.range(100_000) as i64,
            p: r.range(1000) as i64 - 500,
        })
        .collect();
    let want = whac_seq(&moles);
    let cfg = RunConfig::seeded(7).with_pivot_mode(PivotMode::RightMost);
    let report = Whac.solve_par(&moles, &cfg);
    assert_eq!(report.output, want);
    assert_eq!(report.stats.rounds, want as usize);
    // Algorithm 3 on the same rotated sequence adds its virtual round.
    let series = rotated_v_sequence(&moles);
    let report = lis::lis_weighted_par(&series, &vec![1; series.len()], &cfg);
    assert_eq!(report.output.0, want);
    assert_eq!(report.stats.rounds, want as usize + 1);
}

#[test]
fn grid_whac_exercises_the_full_4d_stack() {
    // Mole generation → rotation → slot compression (parlay sort) →
    // the 4D layered dominance tree (nesting 3D → 2D trees) → Type 2 engine.
    let mut r = Rng::new(8);
    let moles: Vec<pp_algos::whac::Mole2d> = (0..3000)
        .map(|_| pp_algos::whac::Mole2d {
            t: r.range(30_000) as i64,
            x: r.range(80) as i64 - 40,
            y: r.range(80) as i64 - 40,
        })
        .collect();
    let want = pp_algos::whac::whac2d_seq(&moles);
    for mode in [PivotMode::Random, PivotMode::RightMost] {
        let cfg = RunConfig::seeded(9).with_pivot_mode(mode);
        let report = Whac2d.solve_par(&moles, &cfg);
        assert_eq!(report.output, want);
        assert_eq!(
            report.stats.rounds, want as usize,
            "round-efficiency: one per rank"
        );
    }
}

#[test]
fn reservations_framework_end_to_end() {
    // Both applications of the prior-work framework [10] agree with the
    // sequential algorithms exactly: random permutation, now on Type 2
    // wake-ups over its dependence forest, and maximal matching, still
    // on deterministic reservations.
    use pp_algos::random_perm::{knuth_shuffle_seq, swap_targets};
    let n = 40_000;
    let report = RandomPerm.solve_par(&(n, 11), &RunConfig::new());
    assert_eq!(report.output, knuth_shuffle_seq(n, &swap_targets(n, 11)));
    assert!(report.stats.rounds < 100);

    let g = gen::rmat(10, 8192, 12);
    let pri = matching::random_edge_priorities(&g, 13);
    let inst = GraphPriorityInstance::new(g, pri);
    let mask = MatchingReservations
        .solve_par(&inst, &RunConfig::new())
        .output;
    assert_eq!(mask, MatchingReservations.solve_seq(&inst));
    assert!(matching::is_maximal_matching(&inst.graph, &mask));
}

#[test]
fn sssp_relaxed_rank_family_agrees_on_all_shapes() {
    for (g, src) in [
        (gen::uniform(2000, 8000, 14), 0u32),
        (gen::grid2d(30, 40), 599),
        (gen::rmat(10, 8192, 15), 0),
        (gen::star(500), 3),
    ] {
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 1, 10_000, 16), src);
        let want = sssp::dijkstra(&inst.graph, src);
        let rho = RhoSssp.solve_par(&inst, &RunConfig::new().with_rho(64));
        assert_eq!(rho.output, want);
        assert_eq!(CrauserSssp.solve_par(&inst, &RunConfig::new()).output, want);
        assert_eq!(DeltaSssp.solve_par(&inst, &RunConfig::new()).output, want);
    }
}

#[test]
fn mis_family_maximality_and_greedy_equality() {
    let g = gen::rmat(11, 1 << 14, 17);
    let pri = random_priorities(g.num_vertices(), 18);
    let inst = GraphPriorityInstance::new(g, pri);
    let (g, pri) = (&inst.graph, &inst.priority);
    let greedy = mis::mis_seq(g, pri);
    assert_eq!(GreedyMis.solve_par(&inst, &RunConfig::new()).output, greedy);
    assert_eq!(RoundsMis.solve_par(&inst, &RunConfig::new()).output, greedy);
    // Luby: maximal but a different (non-greedy) set is allowed.
    let luby = mis::mis_luby(g, &RunConfig::seeded(19)).output;
    assert!(mis::is_maximal_independent(g, &luby));
    assert!(mis::is_maximal_independent(g, &greedy));
}
