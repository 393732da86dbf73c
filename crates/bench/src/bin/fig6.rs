//! Figure 6: parallel SSSP — Δ-stepping time as a function of Δ for
//! several minimum edge weights w*.
//!
//! Paper setup: Twitter (41.7M/1.47B) and Friendster (65.6M/3.61B)
//! graphs, w_max = 2^23, w* ∈ {2^17..2^22}, Δ ∈ {2^16..2^26}. Finding:
//! the best Δ tracks w* (within 2×) while w* is close to w_max — the
//! phase-parallel work-efficiency argument — and drifts above w* when
//! w* is small (parallelism starves).
//!
//! Substitution: RMAT power-law graphs stand in for the social networks,
//! because they share the low diameter and skewed degrees that set the
//! round count, at a laptop scale (2^16 vertices, ~2^20 edges by
//! default; PP_SCALE multiplies edges).
//!
//! Each weighted graph is prepared once and every Δ runs as a per-query
//! knob (`PreparedSolver::solve_with`), so the timings are query times.
//!
//! `cargo run --release -p pp-bench --bin fig6`

#![forbid(unsafe_code)]

use pp_algos::api::{DeltaSssp, SsspInstance};
use pp_algos::{RunConfig, Solver};
use pp_bench::{scale, secs, time_best};
use pp_graph::gen;

fn main() {
    let w_max: u64 = 1 << 23;
    for (name, scale_log, edges) in [
        ("Twitter-like RMAT", 16u32, (1usize << 20) * scale()),
        ("Friendster-like RMAT", 17u32, (1usize << 21) * scale()),
    ] {
        let base = gen::rmat(scale_log, edges, 1);
        println!(
            "\nFig 6: {name} ({} vertices, {} arcs), w_max = 2^23",
            base.num_vertices(),
            base.num_edges()
        );
        // Header: Δ exponents.
        let deltas: Vec<u32> = (16..=26).collect();
        let mut head = vec!["log2_w*".to_string(), "best_Δ".to_string()];
        head.extend(deltas.iter().map(|d| format!("Δ=2^{d}")));
        println!("{}", head.join("  "));
        let solver = Solver::new(DeltaSssp);
        for wlog in [17u32, 18, 19, 20, 21, 22] {
            let g = gen::with_uniform_weights(&base, 1 << wlog, w_max, 5 + wlog as u64);
            let instance = SsspInstance::new(g, 0);
            let mut prepared = solver.prepare(&instance);
            let mut cells = Vec::new();
            let mut best = (f64::MAX, 0u32);
            for &dlog in &deltas {
                let cfg = RunConfig::new().with_delta(1 << dlog);
                let t = time_best(1, || {
                    std::hint::black_box(prepared.solve_with(&cfg));
                });
                let s = t.as_secs_f64();
                if s < best.0 {
                    best = (s, dlog);
                }
                cells.push(secs(t));
            }
            println!(
                "{:>7}  {:>6}  {}",
                wlog,
                format!("2^{}", best.1),
                cells.join("  ")
            );
        }
        println!("Shape check: the best Δ column should track log2_w* (within ~2x) for large w*.");
    }
}
