//! Figure 5(a): activity selection — running time vs input rank.
//!
//! Paper setup: n = 10^9 activities, rank swept 10^2..4·10^6; Type 1 and
//! Type 2 beat the classic sequential DP up to rank ≈ 4·10^6 (up to 80×
//! at small ranks). Here n defaults to 10^6 (PP_SCALE multiplies); the
//! shape to check: both parallel algorithms win at small rank, their
//! time grows (sublinearly) with rank, the sequential baseline is flat
//! or slightly improving.
//!
//! `cargo run --release -p pp-bench --bin fig5a`

#![forbid(unsafe_code)]

use phase_parallel::{PhaseAlgorithm, RunConfig};
use pp_algos::activity::{self, workload};
use pp_algos::api::{ActivityType1, ActivityType2};
use pp_bench::{scale, secs, time_best, Table};

fn main() {
    let n = 1_000_000 * scale();
    println!("Fig 5(a): activity selection, n = {n}, varying rank\n");
    let table = Table::new(&[
        "target_rank",
        "measured_rank",
        "seq_time_s",
        "type1_time_s",
        "type2_time_s",
        "speedup_t1",
        "speedup_t2",
    ]);
    for target in [100u64, 1_000, 10_000, 100_000, 1_000_000] {
        let acts = workload::with_target_rank(n, target, 42 + target);
        let rank = *activity::ranks(&acts).iter().max().unwrap();
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
            target.to_string(),
            rank.to_string(),
            secs(t_seq),
            secs(t1),
            secs(t2),
            format!("{:.2}", t_seq.as_secs_f64() / t1.as_secs_f64()),
            format!("{:.2}", t_seq.as_secs_f64() / t2.as_secs_f64()),
        ]);
    }
}
