//! Figure 5(b): activity selection — running time vs input size at
//! fixed rank.
//!
//! Paper setup: rank fixed at 45 000, n swept 10^8..2.6·10^9; the
//! parallel algorithms grow almost linearly in n (parallelism improves
//! with frontier size) while the sequential DP grows superlinearly
//! (n log n). Here the rank is scaled to 4 500 and n sweeps
//! 2.5·10^5..4·10^6 by default.
//!
//! `cargo run --release -p pp-bench --bin fig5b`

#![forbid(unsafe_code)]

use phase_parallel::{PhaseAlgorithm, RunConfig};
use pp_algos::activity::{self, workload};
use pp_algos::api::{ActivityType1, ActivityType2};
use pp_bench::{scale, secs, time_best, Table};

fn main() {
    let rank = 4_500u64;
    println!("Fig 5(b): activity selection, rank ≈ {rank}, varying n\n");
    let table = Table::new(&[
        "n",
        "measured_rank",
        "seq_time_s",
        "type1_time_s",
        "type2_time_s",
        "t1_per_elem_ns",
    ]);
    for base in [250_000usize, 500_000, 1_000_000, 2_000_000, 4_000_000] {
        let n = base * scale();
        let acts = workload::with_target_rank(n, rank, 7);
        let measured = *activity::ranks(&acts).iter().max().unwrap();
        let t_seq = time_best(2, || {
            std::hint::black_box(activity::max_weight_seq(&acts));
        });
        let t1 = time_best(2, || {
            std::hint::black_box(ActivityType1.solve_par(&acts, &RunConfig::new()));
        });
        let t2 = time_best(2, || {
            std::hint::black_box(ActivityType2.solve_par(&acts, &RunConfig::new()));
        });
        table.row(&[
            n.to_string(),
            measured.to_string(),
            secs(t_seq),
            secs(t1),
            secs(t2),
            format!("{:.1}", t1.as_nanos() as f64 / n as f64),
        ]);
    }
    println!("\nShape check: t1_per_elem_ns should stay ~flat (near-linear scaling in n).");
}
