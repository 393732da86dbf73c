//! Self-speedup sweep (the "Self-speedup" column of Table 2): run the
//! parallel algorithms on thread pools of growing size and report the
//! scaling.
//!
//! On the paper's 96-core machine self-speedups reach 40–63×; on this
//! container the ceiling is the available core count (1 core ⇒ all
//! ratios ≈ 1, which the output will show — the *measurement machinery*
//! is what this binary demonstrates; run on a multicore host for real
//! curves).
//!
//! `cargo run --release -p pp-bench --bin threads_sweep`

#![forbid(unsafe_code)]

use pp_algos::activity::workload;
use pp_algos::api::{ActivityType1, GraphPriorityInstance, GreedyMis};
use pp_algos::lis::{lis_weighted_par, patterns, PivotMode};
use pp_algos::{PhaseAlgorithm, RunConfig};
use pp_bench::{scale, secs, time_best, Table};
use pp_graph::gen;
use pp_parlay::shuffle::random_priorities;
use std::time::Duration;

fn with_threads<R: Send>(t: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(t)
        .build()
        .expect("pool")
        .install(f)
}

fn main() {
    let n = 500_000 * scale();
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut threads = vec![1usize];
    while *threads.last().unwrap() < hw {
        threads.push((threads.last().unwrap() * 2).min(hw));
    }
    println!("Self-speedup sweep (hardware threads: {hw}), n = {n}\n");

    // LIS runs Algorithm 3 (unit weights), Table 2's algorithm.
    let series = patterns::segment(n, 100, 1);
    let ones = vec![1; series.len()];
    let acts = workload::with_target_rank(n, 1000, 2);
    let g = gen::rmat(16, (1 << 19) * scale(), 3);
    let pri = random_priorities(g.num_vertices(), 4);
    let graph = GraphPriorityInstance::new(g, pri);

    let table = Table::new(&["threads", "lis_par_s", "activity_t1_s", "mis_tas_s"]);
    let mut base: Option<(Duration, Duration, Duration)> = None;
    for &t in &threads {
        let lis_cfg = RunConfig::seeded(5).with_pivot_mode(PivotMode::RightMost);
        let t_lis = with_threads(t, || {
            time_best(1, || {
                std::hint::black_box(lis_weighted_par(&series, &ones, &lis_cfg));
            })
        });
        let t_act = with_threads(t, || {
            time_best(1, || {
                std::hint::black_box(ActivityType1.solve_par(&acts, &RunConfig::new()));
            })
        });
        let t_mis = with_threads(t, || {
            time_best(1, || {
                std::hint::black_box(GreedyMis.solve_par(&graph, &RunConfig::new()).output);
            })
        });
        base.get_or_insert((t_lis, t_act, t_mis));
        let (b_lis, b_act, b_mis) = base.unwrap();
        table.row(&[
            t.to_string(),
            format!(
                "{} ({:.2}x)",
                secs(t_lis),
                b_lis.as_secs_f64() / t_lis.as_secs_f64()
            ),
            format!(
                "{} ({:.2}x)",
                secs(t_act),
                b_act.as_secs_f64() / t_act.as_secs_f64()
            ),
            format!(
                "{} ({:.2}x)",
                secs(t_mis),
                b_mis.as_secs_f64() / t_mis.as_secs_f64()
            ),
        ]);
    }
}
