//! Longest run of increasing prices in a simulated price series.
//!
//! Uses the §6.4 input patterns (segment and line) as "market regimes"
//! and compares the parallel LIS — Algorithm 3 (`lis_weighted_par` with
//! unit weights) and the prefix-minima rounds (`api::Lis`) — against the
//! classic sequential DP, reporting the wake-up statistics of Table 2.
//!
//! Run with: `cargo run --release -p pp-algos --example stock_lis`

use pp_algos::api::Lis;
use pp_algos::lis::{lis_seq, lis_weighted_par, patterns, PivotMode};
use pp_algos::{PhaseAlgorithm, RunConfig};
use std::time::Instant;

fn main() {
    let n = 1_000_000;

    for (name, series) in [
        ("segment pattern, ~30 regimes", patterns::segment(n, 30, 1)),
        (
            "segment pattern, ~1000 regimes",
            patterns::segment(n, 1000, 2),
        ),
        (
            "line pattern (drift + noise)",
            patterns::line_with_target(n, 300, 3),
        ),
    ] {
        println!("\n== {name} ({n} ticks) ==");
        let t = Instant::now();
        let k_seq = lis_seq(&series);
        let t_seq = t.elapsed();
        println!("  classic sequential: k={k_seq:<6} in {t_seq:?}");

        let ones = vec![1; series.len()];
        for mode in [PivotMode::RightMost, PivotMode::Random] {
            let t = Instant::now();
            let res = lis_weighted_par(&series, &ones, &RunConfig::seeded(4).with_pivot_mode(mode));
            let dt = t.elapsed();
            assert_eq!(res.output.0, k_seq);
            println!(
                "  Algorithm 3 {mode:?}: k={} in {dt:?} ({} rounds, avg wake-ups {:.2})",
                res.output.0,
                res.stats.rounds,
                res.stats.avg_wakeups()
            );
        }
        let t = Instant::now();
        let res = Lis.solve_par(&series, &RunConfig::new());
        let dt = t.elapsed();
        assert_eq!(res.output, k_seq);
        println!(
            "  prefix-minima rounds: k={} in {dt:?} ({} rounds)",
            res.output, res.stats.rounds
        );
    }
}
