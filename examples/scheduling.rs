//! Conference-room scheduling with weighted activity selection.
//!
//! A venue receives booking requests (start, end, payment). We maximize
//! revenue with the paper's Type 1 and Type 2 phase-parallel algorithms
//! and compare against the classic sequential DP — the Fig. 5 setup at
//! example scale.
//!
//! Run with: `cargo run --release -p pp-algos --example scheduling`

use phase_parallel::{PhaseAlgorithm, RunConfig};
use pp_algos::activity::{self, workload};
use pp_algos::api::{ActivityType1, ActivityType2};
use std::time::Instant;

fn main() {
    let n = 2_000_000;
    println!("Generating {n} booking requests (truncated-normal lengths, §6.1 workload)…");

    for target_rank in [100u64, 10_000] {
        let acts = workload::with_target_rank(n, target_rank, 1);
        let rank = *activity::ranks(&acts).iter().max().unwrap();
        println!("\n== target rank {target_rank} (measured {rank}) ==");

        let t = Instant::now();
        let best_seq = activity::max_weight_seq(&acts);
        let t_seq = t.elapsed();
        println!("  classic sequential DP: {best_seq:>20}  in {t_seq:?}");

        let t = Instant::now();
        let r1 = ActivityType1.solve_par(&acts, &RunConfig::new());
        let (best_t1, s1) = (r1.output, r1.stats);
        let t_t1 = t.elapsed();
        println!(
            "  phase-parallel Type 1: {best_t1:>20}  in {t_t1:?}  ({} rounds)",
            s1.rounds
        );

        let t = Instant::now();
        let r2 = ActivityType2.solve_par(&acts, &RunConfig::new());
        let (best_t2, s2) = (r2.output, r2.stats);
        let t_t2 = t.elapsed();
        println!(
            "  phase-parallel Type 2: {best_t2:>20}  in {t_t2:?}  ({} rounds, {} wake-ups)",
            s2.rounds, s2.wakeup_attempts
        );

        assert_eq!(best_seq, best_t1);
        assert_eq!(best_seq, best_t2);
        println!(
            "  speedup vs sequential: type1 {:.2}x, type2 {:.2}x",
            t_seq.as_secs_f64() / t_t1.as_secs_f64(),
            t_seq.as_secs_f64() / t_t2.as_secs_f64()
        );
    }
}
