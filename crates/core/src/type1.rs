//! The Type 1 engine: Algorithm 1 with frontier *extraction*.
//!
//! Type 1 algorithms (§4) exhibit the property that all objects of the
//! current rank have their "readiness values" in a contiguous range, so
//! the frontier can be pulled out with a range query in polylogarithmic
//! work — no edges of the dependence graph are ever examined.
//!
//! The engine is the generic `while S ≠ ∅ { extract T_i; process T_i }`
//! loop; problems plug in their range-query-based extraction and their
//! parallel processing step. Round counting and frontier sizes are
//! recorded in [`ExecutionStats`] so round-efficiency (span ≈ rank·polylog)
//! can be asserted by tests and reported by benches.

use crate::cancel::RunOutcome;
use crate::solver::{Report, RunConfig};
use crate::stats::ExecutionStats;

/// A problem runnable by the Type 1 engine.
pub trait Type1Problem {
    /// Final result type.
    type Output;

    /// Identify and remove the next frontier — all remaining objects of
    /// the minimal remaining rank (Lemma 4.1 justifies this for activity
    /// selection; each problem proves its own version). Returns the
    /// frontier's object ids; an empty vector terminates the run.
    fn extract_frontier(&mut self) -> Vec<u32>;

    /// Process the whole frontier in parallel (compute DP values etc.).
    fn process(&mut self, frontier: &[u32]);

    /// Consume the problem and produce the output.
    fn finish(self) -> Self::Output;
}

/// Run Algorithm 1 over a Type 1 problem. The report's `stats.rounds`
/// counts extracted frontiers, with their sizes in `frontier_sizes`.
///
/// The config's cancellation token is polled at the top of every round
/// (before extraction, so a pre-tripped token stops the run at zero
/// rounds). On a trip the engine stops, finishes with its partial state,
/// and reports [`RunOutcome::DeadlineExceeded`](crate::RunOutcome);
/// stats cover only the rounds actually run. A token that never fires
/// leaves the run byte-identical to a run without one.
pub fn run_type1<P: Type1Problem>(mut problem: P, cfg: &RunConfig) -> Report<P::Output> {
    let mut stats = ExecutionStats::default();
    let mut outcome = RunOutcome::Completed;
    loop {
        if cfg.is_cancelled() {
            outcome = RunOutcome::DeadlineExceeded;
            break;
        }
        let frontier = problem.extract_frontier();
        if frontier.is_empty() {
            break;
        }
        stats.record_round(frontier.len());
        problem.process(&frontier);
    }
    Report::new(problem.finish(), stats).with_outcome(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CancelToken;

    /// A toy problem: objects 0..n with rank i/width; frontier i is the
    /// i-th width-sized block (mimicking the knapsack frontier of §4.2).
    struct Blocks {
        n: u32,
        width: u32,
        next: u32,
        processed: Vec<bool>,
    }

    impl Type1Problem for Blocks {
        type Output = Vec<bool>;
        fn extract_frontier(&mut self) -> Vec<u32> {
            let lo = self.next;
            let hi = (self.next + self.width).min(self.n);
            self.next = hi;
            (lo..hi).collect()
        }
        fn process(&mut self, frontier: &[u32]) {
            for &x in frontier {
                assert!(!self.processed[x as usize], "processed twice");
                self.processed[x as usize] = true;
            }
        }
        fn finish(self) -> Vec<bool> {
            self.processed
        }
    }

    fn blocks(n: u32) -> Blocks {
        Blocks {
            n,
            width: 10,
            next: 0,
            processed: vec![false; n as usize],
        }
    }

    #[test]
    fn processes_everything_in_rank_rounds() {
        let report = run_type1(blocks(103), &RunConfig::new());
        assert!(report.output.iter().all(|&b| b));
        assert_eq!(report.stats.rounds, 11); // ceil(103 / 10)
        assert_eq!(report.stats.processed(), 103);
        assert_eq!(report.stats.max_frontier(), 10);
        assert!(report.is_complete());
    }

    #[test]
    fn pre_tripped_token_stops_before_any_round() {
        let token = CancelToken::new();
        token.cancel();
        let report = run_type1(blocks(103), &RunConfig::new().with_cancel_token(token));
        assert_eq!(report.outcome, RunOutcome::DeadlineExceeded);
        assert_eq!(report.stats.rounds, 0);
        assert!(report.output.iter().all(|&b| !b), "no round ran");
    }

    #[test]
    fn untripped_token_is_observation_free() {
        let cfg = RunConfig::new().with_cancel_token(CancelToken::new());
        let with = run_type1(blocks(103), &cfg);
        let without = run_type1(blocks(103), &RunConfig::new());
        assert_eq!(with.outcome, RunOutcome::Completed);
        assert_eq!(with.output, without.output);
        assert_eq!(with.stats.frontier_sizes, without.stats.frontier_sizes);
    }

    #[test]
    fn empty_problem_runs_zero_rounds() {
        assert_eq!(run_type1(blocks(0), &RunConfig::new()).stats.rounds, 0);
    }
}
