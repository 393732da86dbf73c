//! Round-synchronous greedy MIS — the deterministic-reservations style
//! baseline (§1, \[10\]): every round re-checks the readiness of *all*
//! undecided vertices, giving `O(D · m)` worst-case work. The paper's
//! TAS-tree algorithm removes exactly this re-checking; the ablation
//! bench compares the two.

use phase_parallel::{ExecutionStats, Frontier, Report, RunConfig, RunOutcome};
use pp_graph::Graph;

/// Round-synchronous greedy MIS. Same output as [`super::mis_seq`]. The
/// report's `stats.rounds` equals the dependence-graph depth; the
/// `"edge_checks"` counter totals readiness checks (edge inspections) —
/// the work-inefficiency indicator, compare with `m`. The undecided set
/// lives in the [`Frontier`] engine (dense at the all-vertices start,
/// downgrading to a sparse list as rounds decide vertices), with the
/// representation split reported as `"dense_substeps"` /
/// `"sparse_substeps"`.
///
/// The round loop polls the config's deadline at its top; a trip leaves
/// the remaining vertices undecided (reported `false` in the mask) under
/// `RunOutcome::DeadlineExceeded`.
pub(crate) fn mis_rounds(g: &Graph, priority: &[u32], cfg: &RunConfig) -> Report<Vec<bool>> {
    const UNDECIDED: u8 = 0;
    const SELECTED: u8 = 1;
    const REMOVED: u8 = 2;
    let n = g.num_vertices();
    assert_eq!(priority.len(), n);
    let mut status = vec![UNDECIDED; n];
    let mut undecided = Frontier::new();
    undecided.reset(n);
    undecided.fill_range(n);
    let mut ready: Vec<u32> = Vec::new();
    let mut stats = ExecutionStats::default();
    let mut edge_checks = 0u64;
    let mut outcome = RunOutcome::Completed;
    while !undecided.is_empty() {
        if cfg.is_cancelled() {
            outcome = RunOutcome::DeadlineExceeded;
            break;
        }
        edge_checks += undecided.sum_map(|v| g.degree(v) as u64);
        // Ready: every higher-priority neighbor is removed.
        ready.clear();
        // Ready vertices leave the set as they are found (they become
        // SELECTED below, so the status retain would drop them anyway).
        {
            let status = &status;
            undecided.extract_retain(&mut ready, |v| {
                g.neighbors(v).iter().all(|&u| {
                    priority[u as usize] < priority[v as usize] || status[u as usize] == REMOVED
                })
            });
        }
        debug_assert!(!ready.is_empty(), "progress every round");
        stats.record_round(ready.len());
        for &v in &ready {
            status[v as usize] = SELECTED;
        }
        for &v in &ready {
            for &u in g.neighbors(v) {
                if status[u as usize] == UNDECIDED {
                    status[u as usize] = REMOVED;
                }
            }
        }
        {
            let status = &status;
            undecided.retain(|v| status[v as usize] == UNDECIDED);
        }
    }
    stats.set_counter("edge_checks", edge_checks);
    stats.set_counter("dense_substeps", undecided.dense_rounds());
    stats.set_counter("sparse_substeps", undecided.sparse_rounds());
    Report::new(status.into_iter().map(|s| s == SELECTED).collect(), stats).with_outcome(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_graph::gen;
    use pp_parlay::shuffle::random_priorities;

    #[test]
    fn rounds_are_logarithmic_on_random_graphs() {
        // Fischer–Noever: longest priority-decreasing path is O(log n)
        // whp, so the round count stays small.
        let g = gen::uniform(5000, 25_000, 1);
        let pri = random_priorities(5000, 2);
        let stats = mis_rounds(&g, &pri, &RunConfig::new()).stats;
        assert!(stats.rounds <= 40, "rounds {}", stats.rounds);
    }

    #[test]
    fn edge_checks_exceed_m_when_depth_grows() {
        // The baseline re-checks edges every round: on a path graph with
        // adversarial priorities the total checks far exceed m.
        let n = 300usize;
        let mut b = pp_graph::GraphBuilder::new(n).symmetric();
        for i in 0..n - 1 {
            b.add(i as u32, i as u32 + 1);
        }
        let g = b.build();
        // Monotone priorities force a depth-n dependence chain.
        let pri: Vec<u32> = (0..n as u32).rev().collect();
        let report = mis_rounds(&g, &pri, &RunConfig::new());
        assert!(report.output[0]);
        assert!(
            report.stats.rounds >= n / 2 - 1,
            "rounds {}",
            report.stats.rounds
        );
        assert!(report.stats.counter("edge_checks").unwrap() > 10 * g.num_edges() as u64);
    }
}
