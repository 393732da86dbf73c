//! Figures 8/9 and Table 2: parallel LIS on the segment and line
//! patterns — time, self-speedup, and average wake-up counts vs output
//! size. "Ours" is the paper's Algorithm 3, which this workspace runs
//! as `lis_weighted_par` with unit weights (the rounds, pivots and
//! wake-ups of the unweighted algorithm).
//!
//! Paper setup: n = 10^8, output sizes 3..10^4; "Classic seq" is the
//! `O(n log n)` DP, "Ours seq." the parallel algorithm on one core,
//! "Ours par." on all cores. Shapes to check: the parallel algorithm
//! wins for small output sizes and loses to the classic DP as the rank
//! grows; self-speedup stays >15×; average wake-ups ≤ ~8.
//!
//! Usage: `cargo run --release -p pp-bench --bin fig8_9_table2 -- [segment|line|both]`

#![forbid(unsafe_code)]

use pp_algos::lis::{lis_seq, lis_weighted_par, patterns, PivotMode};
use pp_algos::RunConfig;
use pp_bench::{run_single_threaded, scale, secs, time_best, Table};

fn run_pattern(name: &str, gen: impl Fn(usize, usize) -> Vec<i64>) {
    let n = 1_000_000 * scale();
    println!("\nFig 8/9 + Table 2 — the {name} pattern, n = {n}\n");
    let table = Table::new(&[
        "output_k",
        "classic_seq_s",
        "ours_seq_s",
        "ours_par_s",
        "self_speedup",
        "vs_classic",
        "avg_wakeups",
        "rounds",
    ]);
    for target in [3usize, 10, 30, 100, 300, 1000] {
        let series = gen(n, target);
        let ones = vec![1; series.len()];
        let k = lis_seq(&series);
        let t_classic = time_best(1, || {
            std::hint::black_box(lis_seq(&series));
        });
        let cfg = RunConfig::seeded(3).with_pivot_mode(PivotMode::RightMost);
        let t_par = time_best(1, || {
            std::hint::black_box(lis_weighted_par(&series, &ones, &cfg));
        });
        let t_ours_seq = run_single_threaded(|| {
            time_best(1, || {
                std::hint::black_box(lis_weighted_par(&series, &ones, &cfg));
            })
        });
        let res = lis_weighted_par(&series, &ones, &cfg);
        assert_eq!(res.output.0, k);
        table.row(&[
            k.to_string(),
            secs(t_classic),
            secs(t_ours_seq),
            secs(t_par),
            format!("{:.2}", t_ours_seq.as_secs_f64() / t_par.as_secs_f64()),
            format!("{:.2}", t_classic.as_secs_f64() / t_par.as_secs_f64()),
            format!("{:.2}", res.stats.avg_wakeups()),
            res.stats.rounds.to_string(),
        ]);
    }
    println!(
        "\nShape check: vs_classic decreases as k grows (crossover), avg_wakeups stays small."
    );
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "both".into());
    if which == "segment" || which == "both" {
        run_pattern("segment", |n, k| patterns::segment(n, k, 1));
    }
    if which == "line" || which == "both" {
        run_pattern("line", |n, k| patterns::line_with_target(n, k, 2));
    }
}
