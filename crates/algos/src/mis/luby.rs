//! Luby's classic parallel MIS — the paper's reference point \[57\].
//!
//! §5.3 opens with the line of parallel MIS work that starts at Luby's
//! algorithm: rounds of fresh random values, select every vertex that is
//! a local minimum among its live neighbors, remove the selected and
//! their neighborhoods. `O(m)` work per round, `O(log n)` rounds whp —
//! but the output is *not* the greedy MIS: the random values are redrawn
//! each round, so there is no fixed priority order a sequential greedy
//! could follow. The paper's point (via Blelloch et al. \[13\] and
//! Fischer–Noever \[42\]) is that committing to *one* random priority
//! order gives the same round bound *and* a sequential-equivalent
//! output; this module exists so the benches can show both sides.

use phase_parallel::{ExecutionStats, Frontier, Report, RunConfig, RunOutcome};
use pp_graph::Graph;
use pp_parlay::rng::hash64;

/// Luby's MIS, randomized by `cfg.seed`. The result is a maximal
/// independent set, deterministic for a fixed seed, but *not* the
/// greedy MIS of any single priority vector. The report's
/// `stats.rounds` is `O(log n)` whp with per-round winner counts in
/// `frontier_sizes`; the `"edge_checks"` counter totals live-vertex
/// edge scans (work proxy). The live set runs on the [`Frontier`]
/// engine ([`RunConfig::frontier`] pins its representation).
pub fn mis_luby(g: &Graph, cfg: &RunConfig) -> Report<Vec<bool>> {
    let seed = cfg.seed;
    let n = g.num_vertices();
    let mut in_mis = vec![false; n];
    let mut removed = vec![false; n];
    let mut live = Frontier::new();
    live.reset(n);
    live.set_policy(cfg.frontier);
    live.fill_range(n);
    let mut winners: Vec<u32> = Vec::new();
    let mut stats = ExecutionStats::default();
    let mut edge_checks = 0u64;
    let mut round: u64 = 0;
    let mut outcome = RunOutcome::Completed;
    while !live.is_empty() {
        if cfg.is_cancelled() {
            outcome = RunOutcome::DeadlineExceeded;
            break;
        }
        // Fresh random value per (round, vertex); ties broken by id so
        // the local-minimum rule never deadlocks.
        let val = |v: u32| (hash64(seed ^ round, u64::from(v)), v);
        edge_checks += live.sum_map(|v| g.degree(v) as u64);
        winners.clear();
        // Winners leave the live set as they are found (they get
        // `removed` below, so the retain would drop them anyway).
        {
            let removed = &removed;
            live.extract_retain(&mut winners, |v| {
                g.neighbors(v)
                    .iter()
                    .all(|&u| removed[u as usize] || val(v) < val(u))
            });
        }
        debug_assert!(!winners.is_empty(), "a global minimum always wins");
        stats.record_round(winners.len());
        for &v in &winners {
            in_mis[v as usize] = true;
            removed[v as usize] = true;
        }
        for &v in &winners {
            for &u in g.neighbors(v) {
                removed[u as usize] = true;
            }
        }
        {
            let removed = &removed;
            live.retain(|v| !removed[v as usize]);
        }
        round += 1;
    }
    stats.set_counter("edge_checks", edge_checks);
    stats.set_counter("dense_substeps", live.dense_rounds());
    stats.set_counter("sparse_substeps", live.sparse_rounds());
    Report::new(in_mis, stats).with_outcome(outcome)
}

#[cfg(test)]
mod tests {
    use super::super::is_maximal_independent;
    use super::*;
    use pp_graph::gen;

    #[test]
    fn maximal_on_many_graphs() {
        for (g, seed) in [
            (gen::uniform(500, 2000, 1), 10u64),
            (gen::cycle(101), 11),
            (gen::star(64), 12),
            (gen::grid2d(20, 25), 13),
            (gen::rmat(9, 4096, 14), 14),
        ] {
            let report = mis_luby(&g, &RunConfig::seeded(seed));
            assert!(is_maximal_independent(&g, &report.output));
            assert!(report.stats.rounds >= 1);
        }
    }

    #[test]
    fn rounds_logarithmic() {
        let g = gen::uniform(20_000, 80_000, 2);
        let report = mis_luby(&g, &RunConfig::seeded(3));
        assert!(is_maximal_independent(&g, &report.output));
        assert!(report.stats.rounds <= 30, "rounds {}", report.stats.rounds);
    }

    #[test]
    fn complete_graph_one_vertex() {
        let n = 40usize;
        let mut b = pp_graph::GraphBuilder::new(n).symmetric();
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                b.add(u, v);
            }
        }
        let g = b.build();
        let report = mis_luby(&g, &RunConfig::seeded(4));
        assert_eq!(report.output.iter().filter(|&&x| x).count(), 1);
        assert_eq!(report.stats.rounds, 1);
    }

    #[test]
    fn empty_graph_selects_everything() {
        let g = pp_graph::GraphBuilder::new(50).build();
        let report = mis_luby(&g, &RunConfig::seeded(5));
        assert!(report.output.iter().all(|&x| x));
        assert_eq!(report.stats.rounds, 1);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = gen::uniform(300, 1200, 6);
        let cfg = RunConfig::seeded(7);
        assert_eq!(mis_luby(&g, &cfg).output, mis_luby(&g, &cfg).output);
    }
}
