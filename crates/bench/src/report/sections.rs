//! The report's sections. Each keeps the sizes, seeds and knobs of the
//! figure binary it replaced, so its exact counts are that binary's.

use super::{Row, Sizing};
use crate::run_single_threaded;
use phase_parallel::{PhaseAlgorithm, PivotMode, RunConfig, Scratch};
use pp_algos::activity::{self, workload};
use pp_algos::api::*;
use pp_algos::huffman::{build_par, build_seq, HuffmanTree};
use pp_algos::knapsack::{max_value_seq, Item};
use pp_algos::lis::{lis_seq, lis_seq_with_dp, lis_weighted_par, patterns};
use pp_algos::registry::{registry, CaseSpec, Digest};
use pp_algos::{mis::mis_seq, sssp};
use pp_graph::gen;
use pp_model::{mis_sim::mis_tas_sim, phase};
use pp_parlay::rng::{bounded, hash64, Rng};
use pp_parlay::shuffle::random_priorities;
use rayon::prelude::*;

/// The 1-thread ledger: every registry entry at two sizes (seed 7).
/// `prepare_s` includes generating the instance; `seq_s` (`solve_seq`)
/// and `query_s` (a prepared query) include digesting the output.
/// `query_s` and `one_shot_s` run alternately, so a no-prepare family's
/// two columns, which run the same code, read alike.
pub fn ledger(s: Sizing, emit: &mut dyn FnMut(&Row)) {
    for entry in registry() {
        let slow = ["chain3d", "chain4d", "whac/2d"].contains(&entry.name());
        for n in [s.n(4_000), s.n(if slow { 8_000 } else { 32_000 })] {
            emit(&run_single_threaded(|| {
                let (case, cfg, mut scratch) =
                    (CaseSpec::new(n, 7), RunConfig::new(), Scratch::new());
                let mut row = Row::new("ledger", entry.name());
                let shared = row.time("prepare_s", || entry.prepare_shared(&case, &cfg));
                let seq = row.time("seq_s", || shared.seq_digest());
                let (query, one_shot) = row.time_alternating(
                    "query_s",
                    || shared.query(&mut scratch, &cfg),
                    "one_shot_s",
                    || shared.one_shot(&cfg),
                );
                let per_n = |v: usize| v as f64 / n.max(1) as f64;
                row.check("query", seq, query.digest)
                    .check("one_shot", seq, one_shot.digest)
                    .field("n", n)
                    .ratio("query_per_seq", "query_s", "seq_s")
                    .field("rounds_per_n", per_n(query.stats.rounds))
                    .field("wakeups_per_n", per_n(query.stats.wakeup_attempts));
                for &(name, v) in query.stats.counters() {
                    row.field(format!("{name}_per_n"), per_n(v as usize));
                }
                row
            }));
        }
    }
}

/// Fig. 5: activity selection against rank at n = 10^6 (panel a), and
/// against n at rank ≈ 4,500 (panel b).
pub fn fig5(s: Sizing, emit: &mut dyn FnMut(&Row)) {
    let cfg = &RunConfig::new();
    let a = [100, 1_000, 10_000, 100_000, 1_000_000].map(|t| ("a", s.n(1_000_000), t, 42 + t));
    let b = [250_000, 500_000, 1_000_000, 2_000_000, 4_000_000].map(|n| ("b", s.n(n), 4_500, 7));
    for (panel, n, target, seed) in a.into_iter().chain(b) {
        let acts = workload::with_target_rank(n, target, seed);
        let rank = activity::ranks(&acts).into_iter().max().unwrap_or(0);
        let mut row = Row::new("fig5", panel);
        let seq = row.time("seq_time_s", || activity::max_weight_seq(&acts).digest());
        row.par("type1_time_s", seq, || ActivityType1.solve_par(&acts, cfg));
        row.par("type2_time_s", seq, || ActivityType2.solve_par(&acts, cfg));
        row.field("n", n).field("target_rank", target);
        row.field("measured_rank", rank)
            .ratio("speedup_t1", "seq_time_s", "type1_time_s")
            .ratio("speedup_t2", "seq_time_s", "type2_time_s")
            .ns_per("t1_per_elem_ns", "type1_time_s", n);
        emit(&row);
    }
}

/// Fig. 6: Δ-stepping for Δ = 2^16..2^26 at w* = 2^17..2^22 (w_max =
/// 2^23) on RMAT stand-ins for Twitter and Friendster, Δ per query.
pub fn fig6(s: Sizing, emit: &mut dyn FnMut(&Row)) {
    for (graph, log) in [("twitter-like", 16), ("friendster-like", 17)] {
        let base = gen::rmat(s.fixed(1 << log).ilog2(), s.n(1 << (log + 4)), 1);
        for wlog in 17..=22u32 {
            let g = gen::with_uniform_weights(&base, 1 << wlog, 1 << 23, 5 + u64::from(wlog));
            let seq = sssp::dijkstra(&g, 0).digest();
            let (vertices, arcs) = (g.num_vertices(), g.num_edges());
            let instance = SsspInstance::new(g, 0);
            let (prepared, mut scratch) = (DeltaSssp.prepare(&instance), Scratch::new());
            let mut row = Row::new("fig6", graph);
            let key = |dlog: u32| format!("delta_2^{dlog}_s");
            for dlog in 16..=26u32 {
                let cfg = RunConfig::new().with_delta(1 << dlog);
                row.par(&key(dlog), seq, || {
                    DeltaSssp.solve_prepared(&instance, &prepared, &mut scratch, &cfg)
                });
            }
            let best = (16..=26)
                .min_by(|&a, &b| row.median(&key(a)).total_cmp(&row.median(&key(b))))
                .unwrap();
            row.field("vertices", vertices).field("log2_w_star", wlog);
            emit(row.field("arcs", arcs).field("best_log2_delta", best));
        }
    }
}

/// Fig. 7's frequencies: uniform in `1..=max`, Zipfian, or exponential
/// with rate `lambda`.
fn huffman_freqs(dist: &str, n: usize, max: u64, lambda: f64, seed: u64) -> Vec<u64> {
    let u = |i| (hash64(seed, i) >> 11) as f64 / (1u64 << 53) as f64;
    let freq = |i| match dist {
        "uniform" => 1 + bounded(hash64(seed, i), max),
        "zipf" => (n as f64 / (1 + bounded(hash64(seed, i), n as u64)) as f64).ceil() as u64,
        _ => (-u(i).max(1e-12).ln() / lambda) as u64,
    };
    (0..n as u64)
        .into_par_iter()
        .map(|i| freq(i).clamp(1, 1 << 32))
        .collect()
}

/// Huffman trees agree if their weighted path lengths do.
fn check_wpl(row: &mut Row, freqs: &[u64], seq: &HuffmanTree, par: &HuffmanTree) {
    let wpl = |tree: &HuffmanTree| tree.weighted_path_length(freqs);
    row.check("wpl", wpl(seq), wpl(par));
}

/// Fig. 7: Huffman, time against rounds at n = 4·10^6 (panel a) and
/// against n at maximum frequency 1000 (panel b).
pub fn fig7(s: Sizing, emit: &mut dyn FnMut(&Row)) {
    let (n, cfg) = (s.n(4_000_000), &RunConfig::new());
    for dist in ["uniform", "exponential"] {
        for flog in [10u32, 16, 22, 28, 31] {
            let freqs = huffman_freqs(dist, n, 1 << flog, 1.0 / (1u64 << (flog / 2)) as f64, 3);
            let mut row = Row::new("fig7", "a");
            let par = row.time("par_time_s", || build_par(&freqs, cfg));
            check_wpl(&mut row, &freqs, &build_seq(&freqs), &par.output);
            row.field("dist", dist).field("n", n);
            row.field("max_freq", 1u64 << flog);
            row.field("rounds", par.stats.rounds);
            emit(row.field("height", par.output.height()));
        }
    }
    for n in [100_000, 400_000, 1_600_000, 6_400_000].map(|n| s.n(n)) {
        for dist in ["uniform", "zipf", "exponential"] {
            let freqs = huffman_freqs(dist, n, 1000, 0.01, 4);
            let mut row = Row::new("fig7", "b");
            let par = row.time("par_time_s", || build_par(&freqs, cfg));
            let seq = row.time("seq_time_s", || build_seq(&freqs));
            check_wpl(&mut row, &freqs, &seq, &par.output);
            row.field("dist", dist).field("n", n);
            emit(row.ratio("speedup", "seq_time_s", "par_time_s"));
        }
    }
}

fn rightmost(seed: u64) -> RunConfig {
    RunConfig::seeded(seed).with_pivot_mode(PivotMode::RightMost)
}

/// Figs. 8–9 and Table 2: Algorithm 3 (`lis_weighted_par`, unit
/// weights) on the segment and line patterns; "ours seq" is 1 thread.
pub fn fig8_9(s: Sizing, emit: &mut dyn FnMut(&Row)) {
    let (n, cfg) = (s.n(1_000_000), &rightmost(3));
    for (pattern, seed) in [("segment", 1), ("line", 2)] {
        for target in [3, 10, 30, 100, 300, 1000] {
            let series = match pattern {
                "segment" => patterns::segment(n, target, seed),
                _ => patterns::line_with_target(n, target, seed),
            };
            let (ones, mut row) = (vec![1; n], Row::new("fig8_9", pattern));
            let k = row.time("classic_seq_s", || lis_seq(&series));
            let par = row.time("ours_par_s", || lis_weighted_par(&series, &ones, cfg));
            let one = run_single_threaded(|| {
                row.time("ours_seq_s", || lis_weighted_par(&series, &ones, cfg))
            });
            row.check("ours_par", k.into(), par.output.0.into())
                .check("ours_seq", k.into(), one.output.0.into())
                .field("n", n)
                .field("target_k", target)
                .field("output_k", k)
                .ratio("self_speedup", "ours_seq_s", "ours_par_s")
                .ratio("vs_classic", "classic_seq_s", "ours_par_s")
                .field("avg_wakeups", par.stats.avg_wakeups())
                .field("rounds", par.stats.rounds);
            emit(&row);
        }
    }
}

/// Fig. 10: about 2,000 `(i, a_i)` samples of each LIS input pattern.
pub fn fig10(s: Sizing, emit: &mut dyn FnMut(&Row)) {
    let n = s.n(1_000_000);
    for (panel, data) in [
        ("a_segment_10", patterns::segment(n, 10, 1)),
        ("b_segment_300", patterns::segment(n, 300, 1)),
        ("c_line_1000", patterns::line_with_target(n, 1000, 2)),
        ("d_line_3000", patterns::line_with_target(n, 3000, 2)),
    ] {
        let k = lis_seq(&data);
        for (i, &v) in data.iter().enumerate().step_by((n / 2000).max(1)) {
            let mut row = Row::new("fig10", panel);
            emit(row.field("measured_lis", k).field("i", i).field("a_i", v));
        }
    }
}

/// Table 1's shapes: time per element across doubling n, rounds
/// against rank, knapsack's W / w* and SSSP's d_max / w*.
pub fn table1(s: Sizing, emit: &mut dyn FnMut(&Row)) {
    let cfg = &RunConfig::new();
    for n in [250_000, 500_000, 1_000_000].map(|n| s.n(n)) {
        let acts = workload::with_target_rank(n, 1000, 1);
        let rank = activity::ranks(&acts).into_iter().max().unwrap_or(0);
        let mut row = Row::new("table1", "activity_t1");
        let seq = activity::max_weight_seq(&acts).digest();
        let par = row.par("time_s", seq, || ActivityType1.solve_par(&acts, cfg));
        row.field("n", n).ns_per("ns_per_elem", "time_s", n);
        emit(row.field("rounds", par.stats.rounds).field("rank", rank));

        let (series, ones) = (patterns::segment(n, 100, 2), vec![1; n]);
        let mut row = Row::new("table1", "lis_alg3");
        let par = row.time("time_s", || lis_weighted_par(&series, &ones, &rightmost(3)));
        row.check("time", lis_seq(&series).into(), par.output.0.into());
        row.field("n", n).ns_per("ns_per_elem", "time_s", n);
        row.field("rounds", par.stats.rounds);
        emit(row.field("rank", par.output.0 + 1));

        let freqs: Vec<u64> = (0..n as u64).map(|i| 1 + hash64(4, i) % 1000).collect();
        let mut row = Row::new("table1", "huffman_par");
        let par = row.time("time_s", || build_par(&freqs, cfg));
        check_wpl(&mut row, &freqs, &build_seq(&freqs), &par.output);
        row.field("n", n).ns_per("ns_per_elem", "time_s", n);
        row.field("rounds", par.stats.rounds);
        emit(row.field("rank", par.output.height()));

        let inst = GraphPriorityInstance::new(gen::uniform(n, 5 * n, 5), random_priorities(n, 6));
        let mut row = Row::new("table1", "mis_tas");
        let seq = mis_seq(&inst.graph, &inst.priority).digest();
        row.par("time_s", seq, || GreedyMis.solve_par(&inst, cfg));
        row.field("n", n);
        emit(row.ns_per("ns_per_edge", "time_s", inst.graph.num_edges()));
    }

    let w = s.fixed(200_000) as u64;
    let items = Vec::from_iter((0..50).map(|i| Item::new(20 + i * 13 % 80, 1 + i)));
    let (seq, input) = (max_value_seq(&items, w).digest(), (items, w));
    let mut row = Row::new("table1", "knapsack");
    let par = row.par("time_s", seq, || Knapsack.solve_par(&input, cfg));
    row.field("capacity", w).field("w_star", 20);
    row.field("rounds", par.stats.rounds);
    emit(row.field("expected_rounds", w / 20));

    let g = gen::rmat(s.fixed(1 << 14).ilog2(), s.fixed(1 << 17), 7);
    let inst = SsspInstance::new(gen::with_uniform_weights(&g, 1 << 20, 1 << 23, 8), 0);
    let mut row = Row::new("table1", "sssp");
    let seq = sssp::dijkstra(&inst.graph, 0).digest();
    let par = row.par("time_s", seq, || DeltaSssp.solve_par(&inst, cfg));
    let reached = par.output.iter().filter(|&&d| d != sssp::INF);
    let d_max = reached.max().map_or(0, |&d| d);
    row.field("d_max", d_max).field("log2_w_star", 20);
    row.field("buckets", par.stats.rounds);
    emit(row.field("d_max_over_w_star", d_max >> 20));
}

/// Table 2's self-speedup: pools of 1, 2, 4, … up to the hardware's
/// threads, each speedup against the 1-thread row.
pub fn threads(s: Sizing, emit: &mut dyn FnMut(&Row)) {
    let (n, cfg, lis_cfg) = (s.n(500_000), &RunConfig::new(), &rightmost(5));
    let (series, ones) = (patterns::segment(n, 100, 1), vec![1; n]);
    let acts = workload::with_target_rank(n, 1000, 2);
    let g = gen::rmat(s.fixed(1 << 16).ilog2(), s.n(1 << 19), 3);
    let pri = random_priorities(g.num_vertices(), 4);
    let inst = GraphPriorityInstance::new(g, pri);
    let (lis, act) = (lis_seq(&series), activity::max_weight_seq(&acts).digest());
    let mis = mis_seq(&inst.graph, &inst.priority).digest();
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let keys = ["lis_par_s", "activity_t1_s", "mis_tas_s"];
    let mut base = None;
    for t in std::iter::successors(Some(1), |&t| (t < hw).then_some((2 * t).min(hw))) {
        let mut row = RunConfig::new().with_threads(t).install(|| {
            let mut row = Row::new("threads", "self_speedup");
            let par = row.time(keys[0], || lis_weighted_par(&series, &ones, lis_cfg));
            row.check("lis_par", lis.into(), par.output.0.into());
            row.par(keys[1], act, || ActivityType1.solve_par(&acts, cfg));
            row.par(keys[2], mis, || GreedyMis.solve_par(&inst, cfg));
            row
        });
        let base = *base.get_or_insert(keys.map(|k| row.median(k)));
        for (key, b) in keys.into_iter().zip(base) {
            row.field(key.replace("_s", "_speedup"), b / row.median(key));
        }
        emit(row.field("threads", t));
    }
}

/// Design choices against the paper's alternatives: LIS pivots, MIS
/// wake-ups, flat arrays against PA-BSTs, SSSP's relaxed ranks.
pub fn ablations(s: Sizing, emit: &mut dyn FnMut(&Row)) {
    let cfg = &RunConfig::new();
    for k in [10, 100, 1000] {
        let series = patterns::segment(s.n(1_000_000), k, 1);
        let (ones, dp) = (vec![1; series.len()], lis_seq_with_dp(&series).1.digest());
        let mut row = Row::new("ablations", "lis_pivot");
        for mode in [PivotMode::Random, PivotMode::RightMost] {
            let cfg = RunConfig::seeded(2).with_pivot_mode(mode);
            let name = format!("{mode:?}").to_lowercase();
            let key = format!("{name}_s");
            let par = row.time(&key, || lis_weighted_par(&series, &ones, &cfg));
            row.check(&name, dp, par.output.1.digest());
            row.field(format!("{name}_wakeups"), par.stats.avg_wakeups());
        }
        emit(row.field("output_k", k));
    }
    let (n, deep) = (s.n(50_000), gen::grid2d(1, s.n(50_000)));
    let uniform = gen::uniform(s.n(1_000_000), s.n(5_000_000), 3);
    let rmat = gen::rmat(s.fixed(1 << 18).ilog2(), s.n(1 << 21), 4);
    let deep_pri = Some((0..n as u32).rev().collect());
    for (graph, g, pri) in [
        ("uniform", uniform, None),
        ("rmat", rmat, None),
        ("path", deep, deep_pri),
    ] {
        let pri = pri.unwrap_or_else(|| random_priorities(g.num_vertices(), 5));
        let (n, m) = (g.num_vertices(), g.num_edges());
        let inst = GraphPriorityInstance::new(g, pri);
        let seq = mis_seq(&inst.graph, &inst.priority).digest();
        let mut row = Row::new("ablations", "mis");
        row.par("tas_time_s", seq, || GreedyMis.solve_par(&inst, cfg));
        let rounds = row.par("rounds_time_s", seq, || RoundsMis.solve_par(&inst, cfg));
        let checks = rounds.stats.counter("edge_checks").unwrap_or(0);
        row.field("graph", graph).field("n", n).field("m", m);
        emit(row.field("edge_checks_per_m", checks as f64 / m as f64));
    }
    for target in [100, 10_000] {
        let acts = workload::with_target_rank(s.n(500_000), target, 6);
        let seq = activity::max_weight_seq(&acts).digest();
        let mut row = Row::new("ablations", "activity_pam");
        row.par("flat_time_s", seq, || ActivityType1.solve_par(&acts, cfg));
        row.par("pam_time_s", seq, || ActivityType1Pam.solve_par(&acts, cfg));
        row.field("rank", target);
        emit(row.ratio("pam_per_flat", "pam_time_s", "flat_time_s"));
    }
    let (side, rho_cfg) = (s.fixed(300), &RunConfig::new().with_rho(sssp::DEFAULT_RHO));
    let rmat = gen::rmat(s.fixed(1 << 15).ilog2(), s.n(1 << 18), 7);
    for (graph, g) in [("rmat", rmat), ("grid", gen::grid2d(side, side))] {
        let inst = SsspInstance::new(gen::with_uniform_weights(&g, 1 << 21, 1 << 23, 8), 0);
        let seq = sssp::dijkstra(&inst.graph, 0).digest();
        let mut row = Row::new("ablations", "sssp");
        let flat = row.par("flat_time_s", seq, || DeltaSssp.solve_par(&inst, cfg));
        let pam = row.par("pam_time_s", seq, || PamSssp.solve_par(&inst, cfg));
        let rho = row.par("rho_time_s", seq, || RhoSssp.solve_par(&inst, rho_cfg));
        let cr = row.par("crauser_time_s", seq, || CrauserSssp.solve_par(&inst, cfg));
        row.field("graph", graph);
        row.field("rounds_flat", flat.stats.rounds);
        row.field("rounds_pam", pam.stats.rounds);
        row.field("rho_steps", rho.stats.rounds);
        emit(row.field("crauser_rounds", cr.stats.rounds));
    }
}

/// Exact work and span in the binary-forking model: Theorem 5.7's MIS
/// span, an adversarial chain's `Θ(n)` span, Algorithm 1's skeleton.
pub fn model(s: Sizing, emit: &mut dyn FnMut(&Row)) {
    let random = [12, 13, 14, 15].map(|e| ("mis_span", s.fixed(1 << e)));
    let chains = [1000, 2000, 4000].map(|n| ("chain_span", s.fixed(n)));
    for (label, n) in random.into_iter().chain(chains) {
        let (g, pri) = match label {
            "mis_span" => (gen::uniform(n, 4 * n, 1), random_priorities(n, 2)),
            _ => (gen::grid2d(1, n), (0..n as u32).rev().collect()),
        };
        let (mis, stats) = mis_tas_sim(&g, &pri);
        let (m, dmax) = (g.num_edges(), g.max_degree().max(2));
        let lglg = n.ilog2() * (usize::BITS - dmax.leading_zeros());
        let mut row = Row::new("model", label);
        row.field("n", n).field("m", m);
        row.check("mis", mis_seq(&g, &pri).digest(), mis.digest())
            .field("work", stats.cost.work)
            .field("span", stats.cost.span)
            .field("lg_n_lg_dmax", lglg)
            .field("work_per_m", stats.cost.work as f64 / m as f64)
            .field("span_per_n", stats.cost.span as f64 / n as f64);
        emit(&row);
    }
    let (mut r, q, p) = (Rng::new(3), 16, 4);
    for n in [10_000, 40_000, 160_000].map(|n| s.fixed(n)) {
        let ranks = phase::lis_ranks(&Vec::from_iter((0..n).map(|_| r.range(1 << 30) as i64)));
        let st = phase::phase_parallel_sim(&ranks, q, p);
        let bound = u64::from(st.rounds) * (q + p + 2 * pp_model::log2_ceil(st.max_frontier) + 4);
        let mut row = Row::new("model", "skeleton_span");
        row.field("n", n)
            .field("rank", ranks.iter().max().unwrap_or(&0));
        row.field("rounds", st.rounds).field("work", st.cost.work);
        emit(row.field("span", st.cost.span).field("bound", bound));
    }
}
