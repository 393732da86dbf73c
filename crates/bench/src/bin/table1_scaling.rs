//! Table 1 empirical check: work scaling and round-efficiency of every
//! algorithm.
//!
//! Table 1 states the work/span bounds; absolute constants don't
//! transfer across machines, but two *shapes* are checkable:
//!
//! 1. **Near-linear work**: time per element stays ~flat as n doubles
//!    (work-efficiency; the LIS algorithm is allowed its polylog factor).
//! 2. **Round-efficiency**: rounds executed equals the rank (± the
//!    documented slack for the relaxed-rank algorithms).
//!
//! `cargo run --release -p pp-bench --bin table1_scaling`

#![forbid(unsafe_code)]

use pp_algos::activity::{self, workload};
use pp_algos::api::{
    ActivityType1, DeltaSssp, GraphPriorityInstance, GreedyMis, Knapsack, SsspInstance,
};
use pp_algos::huffman;
use pp_algos::knapsack::Item;
use pp_algos::lis::{self, PivotMode};
use pp_algos::sssp;
use pp_algos::{PhaseAlgorithm, RunConfig};
use pp_bench::{scale, secs, time_best, Table};
use pp_graph::gen;
use pp_parlay::shuffle::random_priorities;

fn main() {
    let s = scale();
    println!("Table 1 empirical scaling: per-element time across doubling n\n");
    let table = Table::new(&["algorithm", "n", "time_s", "ns_per_elem", "rounds", "rank"]);

    for base in [250_000usize, 500_000, 1_000_000] {
        let n = base * s;
        // Activity selection (Type 1), rank fixed.
        let acts = workload::with_target_rank(n, 1000, 1);
        let rank = *activity::ranks(&acts).iter().max().unwrap();
        let t = time_best(1, || {
            std::hint::black_box(ActivityType1.solve_par(&acts, &RunConfig::new()));
        });
        let st = ActivityType1.solve_par(&acts, &RunConfig::new()).stats;
        table.row(&[
            "activity_t1".into(),
            n.to_string(),
            secs(t),
            format!("{:.1}", t.as_nanos() as f64 / n as f64),
            st.rounds.to_string(),
            rank.to_string(),
        ]);

        // LIS by Algorithm 3 (Type 2, unit weights), output fixed.
        let series = lis::patterns::segment(n, 100, 2);
        let ones = vec![1; series.len()];
        let lis_cfg = RunConfig::seeded(3).with_pivot_mode(PivotMode::RightMost);
        let t = time_best(1, || {
            std::hint::black_box(lis::lis_weighted_par(&series, &ones, &lis_cfg));
        });
        let res = lis::lis_weighted_par(&series, &ones, &lis_cfg);
        table.row(&[
            "lis_alg3".into(),
            n.to_string(),
            secs(t),
            format!("{:.1}", t.as_nanos() as f64 / n as f64),
            res.stats.rounds.to_string(),
            (res.output.0 + 1).to_string(),
        ]);

        // Huffman.
        let freqs: Vec<u64> = (0..n as u64)
            .map(|i| 1 + pp_parlay::hash64(4, i) % 1000)
            .collect();
        let t = time_best(1, || {
            std::hint::black_box(huffman::build_par(&freqs, &RunConfig::new()).output);
        });
        let report = huffman::build_par(&freqs, &RunConfig::new());
        let (tree, st) = (report.output, report.stats);
        table.row(&[
            "huffman_par".into(),
            n.to_string(),
            secs(t),
            format!("{:.1}", t.as_nanos() as f64 / n as f64),
            st.rounds.to_string(),
            tree.height().to_string(),
        ]);

        // MIS on uniform graph, m = 5n.
        let graph = GraphPriorityInstance::new(gen::uniform(n, 5 * n, 5), random_priorities(n, 6));
        let t = time_best(1, || {
            std::hint::black_box(GreedyMis.solve_par(&graph, &RunConfig::new()).output);
        });
        table.row(&[
            "mis_tas".into(),
            n.to_string(),
            secs(t),
            format!(
                "{:.1}",
                t.as_nanos() as f64 / graph.graph.num_edges() as f64
            ),
            "-".into(),
            "-".into(),
        ]);
    }

    // Knapsack: work O(nW); rounds = W/w*.
    println!("\nKnapsack (Type 1): rounds = W / w* exactly\n");
    let items: Vec<Item> = (0..50)
        .map(|i| Item::new(20 + (i * 13) % 80, 1 + i))
        .collect();
    let w = 200_000u64;
    let st = Knapsack.solve_par(&(items, w), &RunConfig::new()).stats;
    println!(
        "  W = {w}, w* = 20 → rounds = {} (expected {})",
        st.rounds,
        w / 20
    );

    // SSSP: buckets = relaxed rank.
    println!("\nSSSP (relaxed rank): Δ = w* buckets ≈ d_max / w*\n");
    let g = gen::rmat(14, 1 << 17, 7);
    let instance = SsspInstance::new(gen::with_uniform_weights(&g, 1 << 20, 1 << 23, 8), 0);
    let report = DeltaSssp.solve_par(&instance, &RunConfig::new());
    let d_max = report
        .output
        .iter()
        .filter(|&&x| x != sssp::INF)
        .max()
        .unwrap();
    println!(
        "  d_max = {d_max}, w* = 2^20 → buckets processed = {} (d_max/w* = {})",
        report.stats.rounds,
        d_max >> 20
    );
}
