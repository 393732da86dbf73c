//! The Type 2 engine: Algorithm 1 with pivot-based *wake-up* (§5).
//!
//! Instead of scanning for ready objects, every unfinished object `x`
//! hangs off a **pivot** `p_x ∈ P(x)` — an object it depends on — in the
//! multimap `T_pivot`. When a frontier finishes, only the objects whose
//! pivot just finished are *attempted*: a readiness check either
//! succeeds (the object joins the next frontier) or yields a fresh
//! unfinished pivot to hang off (Algorithm 3 lines 26–38). With random
//! pivots each object is attempted `O(log |P(x)|)` times whp
//! (Lemma 5.5), which is what makes the whole thing work-efficient.

use crate::cancel::RunOutcome;
use crate::solver::{Report, RunConfig};
use crate::stats::ExecutionStats;
use pp_pam::Multimap;
use rayon::prelude::*;

/// Outcome of a wake-up attempt.
pub enum WakeResult<I> {
    /// All predecessors finished; `I` is the processing result (e.g. the
    /// object's DP value) to commit.
    Ready(I),
    /// Still blocked; re-pivot onto this unfinished predecessor.
    Blocked {
        /// The freshly selected unfinished pivot.
        new_pivot: u32,
    },
}

/// A problem runnable by the Type 2 engine.
///
/// `try_wake` takes `&self` (it runs in parallel over the todo list and
/// must not mutate shared state except through interior atomics);
/// `commit` runs once per round with exclusive access.
pub trait Type2Problem: Sync {
    /// Per-object processing result carried from `try_wake` to `commit`.
    type Info: Send;
    /// Final result type.
    type Output;

    /// `(pivot, object)` pairs seeding `T_pivot` (Algorithm 3 line 21).
    fn initial_pivots(&self) -> Vec<(u32, u32)>;

    /// The round-0 frontier: objects ready with no predecessors —
    /// including any virtual source object.
    fn initial_frontier(&self) -> Vec<(u32, Self::Info)>;

    /// Attempt to wake `x` after its pivot finished. Implementations
    /// check readiness (e.g. a 2D range query) and either produce the
    /// processing result or select a new unfinished pivot.
    fn try_wake(&self, x: u32) -> WakeResult<Self::Info>;

    /// Commit a finished frontier (e.g. publish DP values into the range
    /// tree). Runs between rounds with `&mut self`.
    fn commit(&mut self, ready: &[(u32, Self::Info)]);

    /// Consume the problem and produce the output.
    fn finish(self) -> Self::Output;
}

/// Run the Type 2 wake-up loop over a problem.
///
/// The config's cancellation token is polled at the top of every
/// wake-up round, before the round's frontier commits, so a pre-tripped
/// token stops the run with zero rounds. On a trip the engine finishes
/// with partial state under
/// [`RunOutcome::DeadlineExceeded`](crate::RunOutcome); an untripped
/// token leaves the run byte-identical to a run without one.
pub fn run_type2<P: Type2Problem>(mut problem: P, cfg: &RunConfig) -> Report<P::Output> {
    let mut stats = ExecutionStats::default();
    let mut outcome = RunOutcome::Completed;
    let mut t_pivot: Multimap<u32, u32> = Multimap::build(problem.initial_pivots());

    let mut frontier: Vec<(u32, P::Info)> = problem.initial_frontier();
    while !frontier.is_empty() {
        if cfg.is_cancelled() {
            outcome = RunOutcome::DeadlineExceeded;
            break;
        }
        stats.record_round(frontier.len());
        problem.commit(&frontier);
        // Objects whose pivot is in the frontier (T_pivot.multi_find).
        let keys: Vec<u32> = frontier.iter().map(|&(x, _)| x).collect();
        let todo = t_pivot.multi_find(&keys);
        stats.wakeup_attempts += todo.len();
        // Attempt to wake each in parallel.
        let results: Vec<(u32, WakeResult<P::Info>)> = todo
            .into_par_iter()
            .map(|q| (q, problem.try_wake(q)))
            .collect();
        let mut next_frontier = Vec::new();
        let mut new_pairs = Vec::new();
        for (q, r) in results {
            match r {
                WakeResult::Ready(info) => next_frontier.push((q, info)),
                WakeResult::Blocked { new_pivot } => new_pairs.push((new_pivot, q)),
            }
        }
        stats.failed_wakeups += new_pairs.len();
        t_pivot.multi_insert(new_pairs);
        frontier = next_frontier;
    }
    Report::new(problem.finish(), stats).with_outcome(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CancelToken;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A toy chain problem: object i depends on exactly {0..i}; pivot is
    /// always i-1, so every wake-up succeeds and rounds = n.
    struct Chain {
        n: u32,
        depth: Vec<AtomicU32>,
    }

    impl Type2Problem for Chain {
        type Info = u32; // depth value
        type Output = Vec<u32>;
        fn initial_pivots(&self) -> Vec<(u32, u32)> {
            (1..self.n).map(|i| (i - 1, i)).collect()
        }
        fn initial_frontier(&self) -> Vec<(u32, u32)> {
            if self.n == 0 {
                vec![]
            } else {
                vec![(0, 0)]
            }
        }
        fn try_wake(&self, x: u32) -> WakeResult<u32> {
            let d = self.depth[x as usize - 1].load(Ordering::Relaxed);
            WakeResult::Ready(d + 1)
        }
        fn commit(&mut self, ready: &[(u32, u32)]) {
            for &(x, d) in ready {
                self.depth[x as usize].store(d, Ordering::Relaxed);
            }
        }
        fn finish(self) -> Vec<u32> {
            self.depth.into_iter().map(|a| a.into_inner()).collect()
        }
    }

    fn chain(n: u32) -> Chain {
        Chain {
            n,
            depth: (0..n).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    #[test]
    fn chain_runs_n_rounds() {
        let n = 50;
        let report = run_type2(chain(n), &RunConfig::new());
        assert_eq!(report.output, (0..n).collect::<Vec<_>>());
        assert_eq!(report.stats.rounds, n as usize);
        assert_eq!(report.stats.failed_wakeups, 0);
        assert_eq!(report.stats.wakeup_attempts, n as usize - 1);
    }

    /// A problem with false pivots: object 2 initially pivots on 0 but
    /// also depends on 1, exercising the re-pivot path.
    struct Repivot {
        finished: Vec<AtomicU32>,
    }

    impl Type2Problem for Repivot {
        type Info = ();
        type Output = ();
        fn initial_pivots(&self) -> Vec<(u32, u32)> {
            vec![(0, 2), (0, 1)]
        }
        fn initial_frontier(&self) -> Vec<(u32, ())> {
            vec![(0, ())]
        }
        fn try_wake(&self, x: u32) -> WakeResult<()> {
            if x == 2 && self.finished[1].load(Ordering::Relaxed) == 0 {
                WakeResult::Blocked { new_pivot: 1 }
            } else {
                WakeResult::Ready(())
            }
        }
        fn commit(&mut self, ready: &[(u32, ())]) {
            for &(x, _) in ready {
                self.finished[x as usize].store(1, Ordering::Relaxed);
            }
        }
        fn finish(self) {}
    }

    #[test]
    fn repivot_path() {
        let stats = run_type2(
            Repivot {
                finished: (0..3).map(|_| AtomicU32::new(0)).collect(),
            },
            &RunConfig::new(),
        )
        .stats;
        // Rounds: {0}, {1}, {2}.
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.failed_wakeups, 1);
        assert_eq!(stats.wakeup_attempts, 3); // 1,2 attempted; 2 again
    }

    #[test]
    fn pre_tripped_token_commits_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let report = run_type2(chain(50), &RunConfig::new().with_cancel_token(token));
        assert_eq!(report.outcome, RunOutcome::DeadlineExceeded);
        assert_eq!(report.stats.rounds, 0);
        assert!(report.output.iter().all(|&d| d == 0), "no commit ran");
    }

    #[test]
    fn untripped_token_is_observation_free() {
        let cfg = RunConfig::new().with_cancel_token(CancelToken::new());
        let with = run_type2(chain(50), &cfg);
        let without = run_type2(chain(50), &RunConfig::new());
        assert_eq!(with.outcome, RunOutcome::Completed);
        assert_eq!(with.output, without.output);
        assert_eq!(with.stats.frontier_sizes, without.stats.frontier_sizes);
    }

    #[test]
    fn empty_problem() {
        assert_eq!(run_type2(chain(0), &RunConfig::new()).stats.rounds, 0);
    }
}
