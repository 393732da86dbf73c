//! Property-based tests (proptest) on the substrates and algorithms:
//! tree invariants, structure-vs-model equivalence, and parallel-vs-
//! sequential agreement under arbitrary inputs.

use pp_algos::activity::{self, Activity};
use pp_algos::api::{
    ActivityType1, ActivityType2, Chain, Coloring, CrauserSssp, DeltaSssp, GraphPriorityInstance,
    GreedyMis, Knapsack, Lis, Matching, MatchingReservations, PamSssp, RandomPerm, RhoSssp,
    SsspInstance, Whac, Whac2d,
};
use pp_algos::huffman;
use pp_algos::knapsack::{max_value_seq, Item};
use pp_algos::lis::{self, PivotMode};
use pp_algos::{PhaseAlgorithm, RunConfig};
use pp_pam::{AugTree, MaxAug, NoAug};
use pp_parlay::monoid::{sum_monoid, MaxMonoid};
use pp_ranges::{Dominance, FenwickMax, Layered, RangeTree2d, SegTree};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- pp-parlay ----

    #[test]
    fn scan_matches_sequential(v in prop::collection::vec(0u64..1000, 0..500)) {
        let m = sum_monoid::<u64>();
        let (scan, total) = pp_parlay::scan_exclusive(&m, &v);
        let mut acc = 0u64;
        for i in 0..v.len() {
            prop_assert_eq!(scan[i], acc);
            acc += v[i];
        }
        prop_assert_eq!(total, acc);
    }

    #[test]
    fn sort_matches_std(mut v in prop::collection::vec(any::<i64>(), 0..600)) {
        let mut want = v.clone();
        want.sort();
        pp_parlay::par_sort(&mut v);
        prop_assert_eq!(v, want);
    }

    #[test]
    fn pack_matches_filter(v in prop::collection::vec((any::<u32>(), any::<bool>()), 0..500)) {
        let items: Vec<u32> = v.iter().map(|&(x, _)| x).collect();
        let flags: Vec<bool> = v.iter().map(|&(_, f)| f).collect();
        let got = pp_parlay::pack(&items, &flags);
        let want: Vec<u32> = v.iter().filter(|&&(_, f)| f).map(|&(x, _)| x).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn merge_of_sorted_is_sorted_union(mut a in prop::collection::vec(0u32..100, 0..200),
                                       mut b in prop::collection::vec(0u32..100, 0..200)) {
        a.sort_unstable();
        b.sort_unstable();
        let got = pp_parlay::merge::par_merge(&a, &b);
        let mut want = [a, b].concat();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn forest_depths_match_seq(parents in prop::collection::vec(0usize..50, 1..50),
                               n in 1usize..400, seed in any::<u64>()) {
        // Clamp to a valid forest: parent[i] <= i (self = root).
        let clamped: Vec<u32> = parents.iter().enumerate()
            .map(|(i, &p)| p.min(i) as u32)
            .collect();
        // About one node in five a root, the rest under a random earlier node.
        let sparse_roots: Vec<u32> = (0..n)
            .map(|i| {
                if i == 0 || pp_parlay::hash64(seed, i as u64).is_multiple_of(5) {
                    i as u32
                } else {
                    (pp_parlay::hash64(seed ^ 2, i as u64) % i as u64) as u32
                }
            })
            .collect();
        for parent in [clamped, sparse_roots] {
            prop_assert_eq!(
                pp_parlay::list_rank::forest_depths(&parent).0,
                pp_parlay::list_rank::forest_depths_seq(&parent)
            );
        }
    }

    // ---- pp-ranges ----

    #[test]
    fn segtree_matches_naive(v in prop::collection::vec(0i64..1000, 1..300),
                             queries in prop::collection::vec((0usize..300, 0usize..300), 1..50)) {
        let t = SegTree::new(MaxMonoid(i64::MIN), &v);
        for (a, b) in queries {
            let (l, r) = (a.min(b).min(v.len()), a.max(b).min(v.len()));
            let want = v[l..r].iter().copied().max().unwrap_or(i64::MIN);
            prop_assert_eq!(t.query(l, r), want);
        }
    }

    #[test]
    fn fenwick_max_monotone(updates in prop::collection::vec((0usize..100, 0u64..10_000), 0..300)) {
        let mut naive = vec![0u64; 100];
        let mut fw = FenwickMax::new(100);
        for (i, v) in updates {
            naive[i] = naive[i].max(v);
            fw.update(i, v);
        }
        for q in 0..=100 {
            prop_assert_eq!(fw.prefix_max(q), naive[..q].iter().copied().max().unwrap_or(0));
        }
    }

    #[test]
    fn range2d_matches_bruteforce(n in 1usize..200, seed in any::<u64>(),
                                  finish_frac in 0u32..100) {
        let ys = pp_parlay::shuffle::random_permutation(n, seed);
        let mut tree = RangeTree2d::new(&ys, PivotMode::RightMost);
        // Finish a pseudo-random subset.
        let batch: Vec<(u32, u32)> = (0..n as u32)
            .filter(|&x| pp_parlay::hash64(seed, x as u64) % 100 < finish_frac as u64)
            .map(|x| (x, x % 17))
            .collect();
        tree.finish_batch(&batch);
        let finished: Vec<bool> = (0..n as u32)
            .map(|x| batch.iter().any(|&(b, _)| b == x)).collect();
        // Check a handful of rectangles.
        for k in 0..10u64 {
            let qx = (pp_parlay::hash64(seed ^ 1, k) % (n as u64 + 1)) as u32;
            let qy = (pp_parlay::hash64(seed ^ 2, k) % (n as u64 + 1)) as u32;
            let info = tree.query_prefix(qx, qy);
            let mut unfin = 0u32;
            let mut maxdp: Option<u32> = None;
            for x in 0..qx.min(n as u32) {
                if ys[x as usize] < qy {
                    if finished[x as usize] {
                        let d = x % 17;
                        maxdp = Some(maxdp.map_or(d, |m| m.max(d)));
                    } else {
                        unfin += 1;
                    }
                }
            }
            prop_assert_eq!(info.unfinished, unfin);
            prop_assert_eq!(info.max_dp, maxdp);
        }
    }

    // ---- pp-pam ----

    #[test]
    fn augtree_behaves_like_btreemap(ops in prop::collection::vec(
        (0u8..3, 0u64..200, 0u64..1000), 0..400)) {
        let mut t = AugTree::new(MaxAug);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, k, v) in ops {
            match op {
                0 => { t.insert(k, v); model.insert(k, v); }
                1 => { prop_assert_eq!(t.remove(&k), model.remove(&k)); }
                _ => { prop_assert_eq!(t.find(&k), model.get(&k)); }
            }
        }
        t.check_invariants();
        prop_assert_eq!(t.len(), model.len());
        let want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(t.flatten(), want);
        let aug_want = model.values().copied().max().unwrap_or(0);
        prop_assert_eq!(t.aug(), aug_want);
    }

    #[test]
    fn augtree_batch_ops_match_model(ops in prop::collection::vec(
        (0u8..4, prop::collection::vec((0u64..300, 0u64..1000), 0..60), 0u64..300), 0..30)) {
        // The operations of the two PAM entries (`activity/type1-pam`,
        // `sssp/pam`), which take trees apart and rejoin them around the
        // nodes they already own, checked after every step.
        let entries = |m: &BTreeMap<u64, u64>| -> Vec<(u64, u64)> {
            m.iter().map(|(&k, &v)| (k, v)).collect()
        };
        let max_of = |vs: &mut dyn Iterator<Item = &u64>| vs.copied().max().unwrap_or(0);
        let mut t = AugTree::new(MaxAug);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (op, batch, k) in ops {
            match op {
                0 => {
                    model.extend(batch.iter().copied());
                    t.multi_insert(batch);
                }
                1 => {
                    let keys: Vec<u64> = batch.iter().map(|&(k, _)| k).collect();
                    for k in &keys {
                        model.remove(k);
                    }
                    t.multi_delete(keys);
                }
                2 => {
                    let (l, found, r) = t.split_at(&k);
                    l.check_invariants();
                    r.check_invariants();
                    prop_assert_eq!(found, model.get(&k).copied());
                    let below: BTreeMap<u64, u64> = model.range(..k).map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(l.flatten(), entries(&below));
                    prop_assert_eq!(l.aug(), max_of(&mut below.values()));
                    prop_assert_eq!(r.len(), model.range(k + 1..).count());
                    let mid = AugTree::build(MaxAug, found.map(|v| (k, v)).into_iter().collect());
                    t = l.union(mid).union(r);
                }
                _ => {
                    prop_assert_eq!(t.remove(&k), model.remove(&k));
                }
            }
            t.check_invariants();
            prop_assert_eq!(t.flatten(), entries(&model));
            prop_assert_eq!(t.aug(), max_of(&mut model.values()));
            prop_assert_eq!(t.aug_left(&k), max_of(&mut model.range(..=k).map(|(_, v)| v)));
        }
    }

    #[test]
    fn augtree_union_equals_model_union(a in prop::collection::vec((0u64..300, 0u64..100), 0..200),
                                        b in prop::collection::vec((0u64..300, 0u64..100), 0..200)) {
        let ta = AugTree::build(NoAug, a.clone());
        let tb = AugTree::build(NoAug, b.clone());
        let t = ta.union(tb);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (k, v) in a { model.insert(k, v); }
        for (k, v) in b { model.insert(k, v); }
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(t.flatten(), want);
        t.check_invariants();
    }

    // ---- algorithms ----

    #[test]
    fn lis_par_equals_seq(v in prop::collection::vec(-100i64..100, 0..300), seed in any::<u64>()) {
        let want = lis::lis_seq(&v);
        let cfg = RunConfig::seeded(seed);
        prop_assert_eq!(Lis.solve_par(&v, &cfg).output, want);
        let cfg = cfg.with_pivot_mode(PivotMode::RightMost);
        prop_assert_eq!(Lis.solve_par(&v, &cfg).output, want);
    }

    #[test]
    fn lis_par_dp_equals_seq_dp(raw in prop::collection::vec((0u8..8, -30i64..30), 0..400)) {
        // Dense duplicates, with about a quarter of the values at the
        // extremes of `i64`.
        let v: Vec<i64> = raw.into_iter()
            .map(|(tag, x)| match tag { 0 => i64::MIN, 1 => i64::MAX, _ => x })
            .collect();
        let (k, dp) = lis::lis_seq_with_dp(&v);
        let report = lis::lis_par_with_dp(&v, &RunConfig::new());
        prop_assert_eq!(report.stats.rounds, k as usize);
        prop_assert_eq!(report.output, (k, dp));
    }

    #[test]
    fn activity_par_equals_seq(raw in prop::collection::vec((0u64..1000, 1u64..200, 1u64..50), 0..300)) {
        let acts: Vec<Activity> = raw.into_iter()
            .map(|(s, len, w)| Activity::new(s, s + len, w))
            .collect();
        let acts = activity::sort_by_end(acts);
        let want = activity::max_weight_seq(&acts);
        prop_assert_eq!(ActivityType1.solve_par(&acts, &RunConfig::new()).output, want);
        prop_assert_eq!(ActivityType2.solve_par(&acts, &RunConfig::new()).output, want);
    }

    #[test]
    fn knapsack_par_equals_seq(raw in prop::collection::vec((1u64..30, 0u64..100), 1..15),
                               w in 0u64..400) {
        let items: Vec<Item> = raw.into_iter().map(|(wt, v)| Item::new(wt, v)).collect();
        let want = max_value_seq(&items, w);
        prop_assert_eq!(Knapsack.solve_par(&(items, w), &RunConfig::new()).output, want);
    }

    #[test]
    fn huffman_par_wpl_is_optimal(freqs in prop::collection::vec(1u64..10_000, 1..200)) {
        let seq = huffman::build_seq(&freqs);
        let par = huffman::build_par(&freqs, &RunConfig::new()).output;
        prop_assert_eq!(seq.weighted_path_length(&freqs), par.weighted_path_length(&freqs));
        prop_assert!(par.kraft_holds());
    }

    #[test]
    fn huffman_canonical_roundtrip(freqs in prop::collection::vec(1u64..500, 2..100),
                                   msg_seed in any::<u64>()) {
        let tree = huffman::build_par(&freqs, &RunConfig::new()).output;
        let code = huffman::CanonicalCode::from_tree(&tree);
        let n = freqs.len();
        let msg: Vec<usize> = (0..300)
            .map(|i| (pp_parlay::hash64(msg_seed, i) % n as u64) as usize)
            .collect();
        let bits = code.encode(&msg);
        prop_assert_eq!(code.decode(&bits, msg.len()), msg);
    }

    #[test]
    fn weighted_lis_matches_quadratic(raw in prop::collection::vec((-50i64..50, 1u32..30), 0..150),
                                      seed in any::<u64>()) {
        let values: Vec<i64> = raw.iter().map(|&(v, _)| v).collect();
        let weights: Vec<u32> = raw.iter().map(|&(_, w)| w).collect();
        let mut dp = vec![0u32; values.len()];
        let mut want = 0;
        for i in 0..values.len() {
            dp[i] = weights[i];
            for j in 0..i {
                if values[j] < values[i] {
                    dp[i] = dp[i].max(dp[j] + weights[i]);
                }
            }
            want = want.max(dp[i]);
        }
        prop_assert_eq!(lis::lis_weighted_seq(&values, &weights), want);
        let report = lis::lis_weighted_par(&values, &weights, &RunConfig::seeded(seed));
        prop_assert_eq!(report.output.0, want);
    }

    #[test]
    fn pam_intersection_difference_model(a in prop::collection::vec((0u64..100, 0u64..10), 0..150),
                                         b in prop::collection::vec((0u64..100, 0u64..10), 0..150)) {
        let (ma, mb): (BTreeMap<u64, u64>, BTreeMap<u64, u64>) =
            (a.iter().copied().collect(), b.iter().copied().collect());
        let ta = AugTree::build(NoAug, a.clone());
        let tb = AugTree::build(NoAug, b.clone());
        let ti = ta.intersect_with(tb, &|x, _| *x);
        ti.check_invariants();
        let want: Vec<(u64, u64)> = ma.iter()
            .filter(|(k, _)| mb.contains_key(k))
            .map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(ti.flatten(), want);
        let ta = AugTree::build(NoAug, a.clone());
        let tb = AugTree::build(NoAug, b.clone());
        let td = ta.difference(tb);
        td.check_invariants();
        let want: Vec<(u64, u64)> = ma.iter()
            .filter(|(k, _)| !mb.contains_key(k))
            .map(|(&k, &v)| (k, v)).collect();
        prop_assert_eq!(td.flatten(), want);
    }

    #[test]
    fn sssp_variants_agree(seed in 0u64..500, w_min in 1u64..100) {
        let g = pp_graph::gen::uniform(120, 500, seed);
        let wg = pp_graph::gen::with_uniform_weights(&g, w_min, w_min + 200, seed + 1);
        let inst = SsspInstance::new(wg, 0);
        let base = pp_algos::sssp::dijkstra(&inst.graph, 0);
        let d = DeltaSssp.solve_par(&inst, &RunConfig::new().with_delta(w_min)).output;
        prop_assert_eq!(&d, &base);
        let d = PamSssp.solve_par(&inst, &RunConfig::new()).output;
        prop_assert_eq!(&d, &base);
    }

    #[test]
    fn graph_greedy_trio_agree(seed in 0u64..500) {
        let g = pp_graph::gen::uniform(150, 600, seed);
        let pri = pp_parlay::shuffle::random_priorities(150, seed + 7);
        let mut inst = GraphPriorityInstance::new(g, pri);
        let (g, pri) = (&inst.graph, &inst.priority);
        let set = pp_algos::mis::mis_seq(g, pri);
        prop_assert!(pp_algos::mis::is_maximal_independent(g, &set));
        let col = pp_algos::coloring::coloring_seq(g, pri);
        let epri = pp_algos::matching::random_edge_priorities(g, seed + 9);
        let m = pp_algos::matching::matching_seq(g, &epri);
        prop_assert_eq!(&GreedyMis.solve_par(&inst, &RunConfig::new()).output, &set);
        prop_assert_eq!(&Coloring.solve_par(&inst, &RunConfig::new()).output, &col);
        inst.priority = epri;
        prop_assert_eq!(&Matching.solve_par(&inst, &RunConfig::new()).output, &m);
    }

    #[test]
    fn whac_matches_brute(raw in prop::collection::vec((0i64..120, -40i64..40), 0..120),
                          seed in any::<u64>()) {
        let moles: Vec<pp_algos::whac::Mole> = raw.into_iter()
            .map(|(t, p)| pp_algos::whac::Mole { t, p }).collect();
        let want = pp_algos::whac::whac_brute(&moles);
        prop_assert_eq!(pp_algos::whac::whac_seq(&moles), want);
        prop_assert_eq!(Whac.solve_par(&moles, &RunConfig::seeded(seed)).output, want);
    }

    #[test]
    fn chain3d_matches_brute(raw in prop::collection::vec((0i64..40, 0i64..40, 0i64..40, 0i64..40), 0..100),
                             seed in any::<u64>()) {
        let pts3: Vec<[i64; 3]> = raw.iter().map(|&(a, b, c, _)| [a, b, c]).collect();
        let pts4: Vec<[i64; 4]> = raw.iter().map(|&(a, b, c, d)| [a, b, c, d]).collect();
        chain_matches_brute(&pts3, seed)?;
        chain_matches_brute(&pts4, seed)?;
    }

    #[test]
    fn range3d_matches_bruteforce(n in 1usize..150, seed in any::<u64>()) {
        layered_matches_bruteforce::<RangeTree2d>(n, seed)?;
        layered_matches_bruteforce::<Layered<RangeTree2d>>(n, seed)?;
    }

    // ---- newer substrates and algorithms ----

    #[test]
    fn radix_sort_matches_std(mut v in prop::collection::vec(any::<u64>(), 0..800)) {
        let mut want = v.clone();
        want.sort_unstable();
        pp_parlay::radix_sort_u64(&mut v);
        prop_assert_eq!(v, want);
    }

    #[test]
    fn radix_sort_i64_matches_std(mut v in prop::collection::vec(any::<i64>(), 0..800)) {
        let mut want = v.clone();
        want.sort_unstable();
        pp_parlay::radix_sort_i64(&mut v);
        prop_assert_eq!(v, want);
    }

    #[test]
    fn random_perm_reservations_equals_knuth(n in 0usize..300, seed in any::<u64>()) {
        use pp_algos::random_perm::{knuth_shuffle_seq, swap_targets};
        let targets = swap_targets(n, seed);
        let got = RandomPerm.solve_par(&(n, seed), &RunConfig::new()).output;
        prop_assert_eq!(got, knuth_shuffle_seq(n, &targets));
    }

    #[test]
    fn whac2d_par_matches_brute(moles in prop::collection::vec((0i64..100, -30i64..30, -30i64..30), 1..60),
                                seed in any::<u64>()) {
        use pp_algos::whac::{whac2d_brute, whac2d_seq, Mole2d};
        let moles: Vec<Mole2d> = moles.into_iter().map(|(t, x, y)| Mole2d { t, x, y }).collect();
        let want = whac2d_brute(&moles);
        prop_assert_eq!(whac2d_seq(&moles), want);
        prop_assert_eq!(Whac2d.solve_par(&moles, &RunConfig::seeded(seed)).output, want);
    }

    #[test]
    fn sssp_new_relaxed_ranks_agree(n in 2usize..120, m in 1usize..500, seed in any::<u64>()) {
        let g = pp_graph::gen::uniform(n, m, seed);
        let wg = pp_graph::gen::with_uniform_weights(&g, 1, 1000, seed ^ 7);
        let inst = SsspInstance::new(wg, 0);
        let want = pp_algos::sssp::dijkstra(&inst.graph, 0);
        let rho = RhoSssp.solve_par(&inst, &RunConfig::new().with_rho(8)).output;
        prop_assert_eq!(&rho, &want);
        let cr = CrauserSssp.solve_par(&inst, &RunConfig::new()).output;
        prop_assert_eq!(&cr, &want);
    }

    #[test]
    fn sssp_sparse_and_dense_frontiers_agree(size in 2usize..200, seed in any::<u64>()) {
        // The frontier engine's representation is a performance choice,
        // never a semantic one: for every SSSP registry entry, pinning
        // the engine sparse and dense must produce identical outputs
        // (each also checked against the sequential baseline by
        // `run_case`) across ≥ 3 scenario families.
        use phase_parallel::FrontierPolicy;
        use pp_algos::registry::{self, CaseSpec};
        for name in ["sssp/delta", "sssp/rho", "sssp/crauser", "sssp/pam",
                     "sssp/bellman-ford", "sssp/dijkstra"] {
            let entry = registry::lookup(name).expect("registered");
            let scenarios = entry.scenarios();
            prop_assert!(scenarios.len() >= 3, "{name}: {} scenarios", scenarios.len());
            for scenario in scenarios.into_iter().take(4) {
                let case = CaseSpec::new(size, seed).with_scenario(scenario);
                let sparse = entry.run_case(
                    &case,
                    &RunConfig::seeded(seed).with_frontier(FrontierPolicy::Sparse),
                ).unwrap();
                let dense = entry.run_case(
                    &case,
                    &RunConfig::seeded(seed).with_frontier(FrontierPolicy::Dense),
                ).unwrap();
                prop_assert!(sparse.agrees(), "{name}/{} sparse != seq", scenario.key());
                prop_assert!(dense.agrees(), "{name}/{} dense != seq", scenario.key());
                prop_assert_eq!(
                    sparse.observed_digest, dense.observed_digest,
                    "{}/{}: sparse and dense paths diverged", name, scenario.key()
                );
            }
        }
    }

    #[test]
    fn matching_reservations_equals_greedy(n in 2usize..100, m in 1usize..400, seed in any::<u64>()) {
        use pp_algos::matching;
        let g = pp_graph::gen::uniform(n, m, seed);
        let pri = matching::random_edge_priorities(&g, seed ^ 3);
        let inst = GraphPriorityInstance::new(g, pri);
        let want = matching::matching_seq(&inst.graph, &inst.priority);
        let got = MatchingReservations.solve_par(&inst, &RunConfig::new()).output;
        prop_assert_eq!(got, want);
    }

    // ---- pp-workloads scenario generators ----

    #[test]
    fn scenario_graphs_deterministic_symmetric_bounded(
        fam in 0usize..5, n in 0usize..150, seed in any::<u64>()
    ) {
        let spec = pp_workloads::graph_scenarios()[fam];
        let a = spec.graph(n, seed).unwrap();
        let b = spec.graph(n, seed).unwrap();
        // Determinism: identical adjacency (and weighted view) per spec+seed.
        prop_assert_eq!(a.num_vertices(), b.num_vertices());
        prop_assert_eq!(a.num_edges(), b.num_edges());
        for v in 0..a.num_vertices() as u32 {
            prop_assert_eq!(a.neighbors(v), b.neighbors(v));
        }
        let wa = spec.weighted_graph(n, seed).unwrap();
        let wb = spec.weighted_graph(n, seed).unwrap();
        for v in 0..wa.num_vertices() as u32 {
            prop_assert_eq!(wa.edge_weights(v), wb.edge_weights(v));
        }
        // Undirected families symmetrize.
        prop_assert!(a.is_symmetric(), "{} not symmetric", spec.key());
        // Vertex-count bounds: every shape covers n, rounding up at
        // most to the next power of two (rmat) or square (grid).
        let floor = n.max(1);
        prop_assert!(a.num_vertices() >= floor);
        prop_assert!(
            a.num_vertices() <= (2 * floor).max(4),
            "{}: {} vertices for n={n}", spec.key(), a.num_vertices()
        );
        // Edge-count bounds (arc counts; generators target avg degree
        // `spec.degree` except the constant-degree grid).
        let nv = a.num_vertices();
        let arc_cap = match spec.family {
            pp_workloads::Family::GraphGrid2d => 4 * nv,
            pp_workloads::Family::GraphStarHub => 2 * (2 * nv + spec.hubs * spec.hubs),
            // Uniform/rmat sample ≤ degree·n edges; geometric only
            // *targets* that average, so give it statistical headroom.
            pp_workloads::Family::GraphGeometric => 8 * spec.degree * nv + 64,
            _ => 2 * spec.degree * floor,
        };
        prop_assert!(
            a.num_edges() <= arc_cap,
            "{}: {} arcs for n={n} (cap {arc_cap})", spec.key(), a.num_edges()
        );
    }

    #[test]
    fn scenario_draws_deterministic_and_in_span(
        fam in 0usize..4, n in 0usize..300, span in 1u64..10_000, seed in any::<u64>()
    ) {
        let spec = pp_workloads::seq_scenarios()[fam];
        let a = spec.draws(n, span, seed).unwrap();
        prop_assert_eq!(&a, &spec.draws(n, span, seed).unwrap());
        prop_assert_eq!(a.len(), n);
        prop_assert!(a.iter().all(|&v| v < span));
        match spec.family {
            pp_workloads::Family::SeqSorted => {
                prop_assert!(a.windows(2).all(|w| w[0] <= w[1]));
            }
            pp_workloads::Family::SeqAdversarialChain => {
                prop_assert!(a.windows(2).all(|w| w[0] <= w[1]));
                // Strictly increasing whenever the span allows it.
                if span >= n as u64 {
                    prop_assert!(a.windows(2).all(|w| w[0] < w[1]));
                }
            }
            _ => {}
        }
    }

    #[test]
    fn scenario_weighted_views_share_adjacency(
        fam in 0usize..5, n in 1usize..100, seed in any::<u64>()
    ) {
        // Applying a weight distribution must not change the topology.
        let spec = pp_workloads::graph_scenarios()[fam]
            .with_weights(pp_workloads::WeightDist::Exp { mean: 50 });
        let g = spec.graph(n, seed).unwrap();
        let wg = spec.weighted_graph(n, seed).unwrap();
        prop_assert_eq!(g.num_vertices(), wg.num_vertices());
        prop_assert_eq!(g.num_edges(), wg.num_edges());
        for v in 0..g.num_vertices() as u32 {
            prop_assert_eq!(g.neighbors(v), wg.neighbors(v));
        }
        if wg.num_edges() > 0 {
            prop_assert!(wg.is_weighted());
            prop_assert!(wg.min_weight().unwrap() >= 1);
        }
    }
}

// The prepare/query contract, checked exhaustively: the full registry ×
// a scratch-sharing query sequence is expensive per case, so this suite
// runs fewer cases than the block above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // N repeated `solve_prepared` calls against one prepared instance
    // (sharing one scratch workspace, so later queries run on recycled
    // buffers) each equal a fresh one-shot `solve_par` under the same
    // per-query config — for every registry entry.
    #[test]
    fn prepared_queries_equal_one_shot_for_every_entry(
        size in 0usize..120,
        seed in any::<u64>(),
        n_queries in 1usize..5,
    ) {
        use pp_algos::registry::{self, CaseSpec};

        let n_vertices = size.max(1) as u32; // graph families floor at 1
        let queries: Vec<RunConfig> = (0..n_queries as u64)
            .map(|i| {
                let mut cfg = RunConfig::seeded(seed.wrapping_add(i))
                    .with_source((pp_parlay::hash64(seed, i) % u64::from(n_vertices)) as u32);
                match i % 4 {
                    0 => cfg = cfg.with_delta(1 + pp_parlay::hash64(seed ^ 2, i) % 4096),
                    1 => cfg = cfg.with_rho(1 + (pp_parlay::hash64(seed ^ 3, i) % 256) as usize),
                    2 => cfg = cfg.with_pivot_mode(PivotMode::RightMost),
                    _ => {}
                }
                cfg
            })
            .collect();
        let case = CaseSpec::new(size, seed);
        let gen_cfg = RunConfig::seeded(seed);
        for entry in registry::registry() {
            let outcomes = entry.run_batch(&case, &queries, &gen_cfg).unwrap();
            prop_assert_eq!(outcomes.len(), queries.len());
            for (i, outcome) in outcomes.iter().enumerate() {
                prop_assert!(
                    outcome.agrees(),
                    "{}: prepared query {} diverged (size={}, seed={})",
                    entry.name(), i, size, seed
                );
            }
        }
    }
}

/// The chain algorithms agree with the quadratic oracle in both pivot
/// modes.
fn chain_matches_brute<const D: usize>(pts: &[[i64; D]], seed: u64) -> Result<(), TestCaseError>
where
    [i64; D]: pp_algos::chain::ChainPoint,
{
    use pp_algos::chain::{chain_brute, chain_seq};
    let want = chain_brute(pts);
    prop_assert_eq!(chain_seq(pts), want);
    let cfg = RunConfig::seeded(seed);
    prop_assert_eq!(Chain::<D>.solve_par(pts, &cfg).output, want);
    let cfg = cfg.with_pivot_mode(PivotMode::RightMost);
    prop_assert_eq!(Chain::<D>.solve_par(pts, &cfg).output, want);
    Ok(())
}

/// A `Layered<I>` tree over random slots, after a hashed finish batch,
/// answers hashed prefix-box queries like a scan.
fn layered_matches_bruteforce<I: Dominance>(n: usize, seed: u64) -> Result<(), TestCaseError> {
    let d = I::DIM + 1;
    let slots: Vec<Vec<u32>> = (0..d as u64)
        .map(|j| pp_parlay::shuffle::random_permutation(n, seed.wrapping_add(j)))
        .collect();
    let refs: Vec<&[u32]> = slots.iter().map(Vec::as_slice).collect();
    let mut tree = Layered::<I>::new(&refs, PivotMode::Random);
    let batch: Vec<(u32, u32)> = (0..n as u32)
        .filter(|&i| pp_parlay::hash64(seed, i as u64).is_multiple_of(3))
        .map(|i| (i, i % 11))
        .collect();
    tree.finish_batch(&batch);
    for q in 0..8u64 {
        let bounds: Vec<u32> = (0..d as u64)
            .map(|j| (pp_parlay::hash64(seed ^ (3 + j), q) % (n as u64 + 1)) as u32)
            .collect();
        let info = tree.query_prefix(&bounds);
        let mut cnt = 0u32;
        let mut maxdp: Option<u32> = None;
        for i in 0..n {
            if slots.iter().zip(&bounds).all(|(s, &b)| s[i] < b) {
                if let Some(&(_, dp)) = batch.iter().find(|&&(x, _)| x as usize == i) {
                    maxdp = Some(maxdp.map_or(dp, |m| m.max(dp)));
                } else {
                    cnt += 1;
                }
            }
        }
        prop_assert_eq!(info.unfinished, cnt);
        prop_assert_eq!(info.max_dp, maxdp);
    }
    Ok(())
}
