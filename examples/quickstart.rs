//! Quickstart: a 60-second tour of the unified phase-parallel API.
//!
//! One calling convention for every algorithm family: build a
//! `RunConfig`, hand it to the family's `PhaseAlgorithm` impl, get a
//! `Report` back — output plus unified execution statistics.
//!
//! Run with: `cargo run --release -p pp-algos --example quickstart`

use phase_parallel::{PhaseAlgorithm, PivotMode, RunConfig, Scratch};
use pp_algos::api::{
    ActivityType1, ActivityType2, DeltaSssp, GraphPriorityInstance, GreedyMis, Lis, SsspInstance,
};
use pp_algos::registry::{self, CaseSpec};
use pp_algos::{activity, lis};
use pp_graph::gen;
use pp_parlay::shuffle::random_priorities;
use rayon::prelude::*;

fn main() {
    // --- One family, one impl: configuration in, report out ---
    let cfg = RunConfig::seeded(7).with_pivot_mode(PivotMode::RightMost);

    // LIS: one round per rank, each extracting that rank's prefix minima.
    let series = lis::patterns::segment(100_000, 50, 42);
    let report = Lis.solve_par(&series, &cfg);
    println!(
        "LIS of 100k-element segment pattern: length={} ({} rounds)",
        report.output, report.stats.rounds
    );
    assert_eq!(report.output, Lis.solve_seq(&series));

    // --- Activity selection: Type 1 vs Type 2 (Algorithm 2, §5.1) ---
    let acts = activity::workload::with_target_rank(100_000, 100, 1);
    let r1 = ActivityType1.solve_par(&acts, &RunConfig::new());
    let r2 = ActivityType2.solve_par(&acts, &RunConfig::new());
    assert_eq!(r1.output, ActivityType1.solve_seq(&acts));
    assert_eq!(r1.output, r2.output);
    println!(
        "Activity selection on 100k activities: best weight {} \
         (type1 {} rounds, type2 {} rounds, rank {})",
        r1.output,
        r1.stats.rounds,
        r2.stats.rounds,
        activity::ranks(&acts).iter().max().unwrap()
    );

    // --- Greedy MIS via TAS trees (Algorithm 4) ---
    let g = gen::rmat(14, 1 << 17, 3);
    let pri = random_priorities(g.num_vertices(), 4);
    let input = GraphPriorityInstance::new(g, pri);
    let report = GreedyMis.solve_par(&input, &RunConfig::new());
    assert_eq!(report.output, GreedyMis.solve_seq(&input));
    let size = report.output.iter().filter(|&&x| x).count();
    println!(
        "Greedy MIS on an RMAT graph ({} vertices, {} arcs): |MIS| = {size}",
        input.graph.num_vertices(),
        input.graph.num_edges()
    );

    // --- Prepare once, query many: the engine calling convention ---
    let g = gen::uniform(20_000, 80_000, 5);
    let wg = gen::with_uniform_weights(&g, 1, 1000, 6);
    let instance = SsspInstance::new(wg, 0);
    // `prepare` builds the amortizable instance structure (w*, minimum
    // out-weights); each worker serves per-source queries against it
    // from its own scratch workspace.
    let prepared = DeltaSssp.prepare(&instance);
    let queries: Vec<RunConfig> = (0..8)
        .map(|s| RunConfig::seeded(s).with_source(s as u32 * 100))
        .collect();
    let reports: Vec<_> = queries
        .par_iter()
        .map_init(Scratch::new, |scratch, q| {
            DeltaSssp.solve_prepared(&instance, &prepared, scratch, q)
        })
        .collect();
    let rounds: usize = reports.iter().map(|r| r.stats.rounds).sum();
    let max_frontier = reports.iter().map(|r| r.stats.max_frontier()).max();
    println!(
        "\nPrepared SSSP served {} per-source queries ({rounds} total rounds, max frontier {})",
        reports.len(),
        max_frontier.unwrap_or(0)
    );

    // --- Generic dispatch: any algorithm by name, via the registry ---
    println!("\nRegistry sweep (size 2000, every family, par == seq):");
    let case = CaseSpec::new(2000, 9);
    let cfg = RunConfig::seeded(9);
    for entry in registry::registry() {
        let outcome = entry.run_case(&case, &cfg).expect("valid case");
        assert!(outcome.agrees(), "{} diverged", entry.name());
        println!(
            "  {:<24} {:>5} rounds  [{:?}]",
            entry.name(),
            outcome.stats.rounds,
            entry.engine()
        );
    }
    println!("All registered algorithms reproduced their sequential baselines. ✓");
}
