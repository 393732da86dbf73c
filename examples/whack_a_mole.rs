//! Whac-A-Mole solved with the phase-parallel framework (Appendix B).
//!
//! Simulates arcade sessions on a 1D strip and on a 2D grid and computes
//! the maximum number of moles a perfectly played hammer can hit:
//!
//! * **1D strip** — the appendix's setting: rotating `(t, p)` to
//!   `(t+p, t−p)` turns the DP into LIS, solved by the prefix-minima
//!   rounds of `api::Lis` (`O(n log n)` work, `k` rounds of `O(log n)`
//!   span).
//! * **2D grid** — the appendix's closing remark: the L1 reachability
//!   cone becomes four rotated dominance constraints, one extra range
//!   tree level, one extra `log` in work and span (`pp-ranges`'
//!   `Layered<Layered<RangeTree2d>>`).
//!
//! Run with: `cargo run --release -p pp-algos --example whack_a_mole`

use pp_algos::api::{Whac, Whac2d};
use pp_algos::lis::PivotMode;
use pp_algos::whac::{whac2d_seq, whac_seq, Mole, Mole2d};
use pp_algos::{PhaseAlgorithm, RunConfig};
use pp_parlay::rng::Rng;
use std::time::Instant;

/// A 1D session: mole `i` pops up near a drifting hot spot, so a good
/// player strings long runs together (controls the rank).
fn session_1d(n: usize, drift: i64, seed: u64) -> Vec<Mole> {
    let mut r = Rng::new(seed);
    let mut hot = 0i64;
    (0..n)
        .map(|i| {
            hot += r.range(2 * drift as u64 + 1) as i64 - drift;
            Mole {
                t: 3 * i as i64,
                p: hot + r.range(5) as i64 - 2,
            }
        })
        .collect()
}

/// A 2D session on a `side × side` grid.
fn session_2d(n: usize, side: u64, seed: u64) -> Vec<Mole2d> {
    let mut r = Rng::new(seed);
    (0..n)
        .map(|_| Mole2d {
            t: r.range(6 * n as u64) as i64,
            x: r.range(side) as i64,
            y: r.range(side) as i64,
        })
        .collect()
}

fn main() {
    println!("— 1D strip (Appendix B, reduction to LIS) —");
    for (label, drift) in [("calm hot spot (long runs)", 1i64), ("jumpy hot spot", 40)] {
        let moles = session_1d(200_000, drift, 9);
        let t0 = Instant::now();
        let want = whac_seq(&moles);
        let t_seq = t0.elapsed();
        let t0 = Instant::now();
        let report = Whac.solve_par(&moles, &RunConfig::seeded(5));
        let (got, stats) = (report.output, report.stats);
        let t_par = t0.elapsed();
        assert_eq!(got, want);
        println!(
            "  {label:<26} n=200000: hit {got} moles \
             (seq {t_seq:?}, par {t_par:?}, {} rounds)",
            stats.rounds
        );
    }

    println!("\n— 2D grid (Appendix B closing remark, 4D dominance) —");
    for (label, side) in [
        ("small grid (dense play)", 8u64),
        ("large grid (sparse)", 1000),
    ] {
        let moles = session_2d(20_000, side, 10);
        let t0 = Instant::now();
        let want = whac2d_seq(&moles);
        let t_seq = t0.elapsed();
        let t0 = Instant::now();
        let cfg = RunConfig::seeded(6).with_pivot_mode(PivotMode::RightMost);
        let report = Whac2d.solve_par(&moles, &cfg);
        let (got, stats) = (report.output, report.stats);
        let t_par = t0.elapsed();
        assert_eq!(got, want);
        println!(
            "  {label:<26} n=20000:  hit {got} moles \
             (seq {t_seq:?}, par {t_par:?}, {} rounds)",
            stats.rounds
        );
    }
    println!("\nParallel answers matched the sequential DP on every session. ✓");
}
