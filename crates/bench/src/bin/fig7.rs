//! Figure 7: Huffman tree construction.
//!
//! (a) time vs number of rounds at fixed n (uniform & exponential
//!     frequency distributions; the max frequency controls the tree
//!     height and therefore the round count; times should be nearly
//!     flat because every round is fully parallel — §6.2).
//! (b) time vs input size at max frequency 1000 for uniform / Zipfian /
//!     exponential, plus the sequential baseline; 10–20× speedups on
//!     large inputs in the paper.
//!
//! `cargo run --release -p pp-bench --bin fig7`

#![forbid(unsafe_code)]

use phase_parallel::RunConfig;
use pp_algos::huffman::{build_par, build_seq};
use pp_bench::{scale, secs, time_best, Table};
use pp_parlay::rng::{bounded, hash64};
use rayon::prelude::*;

fn uniform_freqs(n: usize, max: u64, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .into_par_iter()
        .map(|i| 1 + bounded(hash64(seed, i), max))
        .collect()
}

fn zipf_freqs(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .into_par_iter()
        .map(|i| {
            let rank = 1 + bounded(hash64(seed, i), n as u64);
            ((n as f64 / rank as f64).ceil() as u64).clamp(1, 1 << 32)
        })
        .collect()
}

fn expo_freqs(n: usize, lambda: f64, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .into_par_iter()
        .map(|i| {
            let u = (hash64(seed, i) >> 11) as f64 / (1u64 << 53) as f64;
            ((-u.max(1e-12).ln() / lambda) as u64).clamp(1, 1 << 32)
        })
        .collect()
}

fn main() {
    let n = 4_000_000 * scale();

    println!("Fig 7(a): Huffman, n = {n}, time vs rounds (max frequency controls height)\n");
    let table = Table::new(&["dist", "max_freq", "rounds", "height", "par_time_s"]);
    for (dist, freqs_of) in [("uniform", true), ("exponential", false)] {
        for flog in [10u32, 16, 22, 28, 31] {
            let freqs = if freqs_of {
                uniform_freqs(n, 1 << flog, 3)
            } else {
                expo_freqs(n, 1.0 / (1u64 << (flog / 2)) as f64, 3)
            };
            let report = build_par(&freqs, &RunConfig::new());
            let (tree, stats) = (report.output, report.stats);
            let t = time_best(1, || {
                std::hint::black_box(build_par(&freqs, &RunConfig::new()));
            });
            table.row(&[
                dist.to_string(),
                format!("2^{flog}"),
                stats.rounds.to_string(),
                tree.height().to_string(),
                secs(t),
            ]);
        }
    }
    println!("Shape check: time ~flat across round counts (30–60 rounds, all parallel).\n");

    println!("Fig 7(b): Huffman, max freq = 1000, time vs input size\n");
    let table = Table::new(&["dist", "n", "par_time_s", "seq_time_s", "speedup"]);
    for base in [100_000usize, 400_000, 1_600_000, 6_400_000] {
        let n = base * scale();
        for (dist, freqs) in [
            ("uniform", uniform_freqs(n, 1000, 4)),
            ("zipf", zipf_freqs(n, 4)),
            ("exponential", expo_freqs(n, 0.01, 4)),
        ] {
            let tp = time_best(1, || {
                std::hint::black_box(build_par(&freqs, &RunConfig::new()));
            });
            let ts = time_best(1, || {
                std::hint::black_box(build_seq(&freqs));
            });
            table.row(&[
                dist.to_string(),
                n.to_string(),
                secs(tp),
                secs(ts),
                format!("{:.2}", ts.as_secs_f64() / tp.as_secs_f64()),
            ]);
        }
    }
}
