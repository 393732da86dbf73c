//! The Type 2 engine: Algorithm 1 with pivot-based *wake-up* (§5).
//!
//! Instead of scanning for ready objects, every unfinished object `x`
//! hangs off a **pivot** `p_x ∈ P(x)` — an object it depends on — in
//! `T_pivot`. When a frontier finishes, only the objects whose pivot just
//! finished are *attempted*: a readiness check either succeeds (the
//! object joins the next frontier) or yields a fresh unfinished pivot to
//! hang off (Algorithm 3 lines 26–38). With random pivots each object is
//! attempted `O(log |P(x)|)` times whp (Lemma 5.5), which is what makes
//! the whole thing work-efficient.
//!
//! `T_pivot` is a pair of intrusive waiter lists. The paper keeps it in
//! a nested BST (Theorem 2.2), but here the keys are object ids, each
//! blocked object waits on exactly one pivot, and a finished pivot never
//! gains waiters. So two flat arrays are enough: `head[p]` is the last
//! object hung on pivot `p`, and `next[x]` is the waiter hung on the same
//! pivot before `x`. Both grow on demand to the largest id given, so a
//! virtual pivot above every object id (weighted LIS's point `n`) needs
//! no special case. `multi_insert` is then O(1) work per pair, and
//! `multi_find` of `m` frontier keys returning `s` waiters walks each
//! key's list and sorts the walked slice: `O(m + s log s)` work, within
//! Theorem 2.2's `O((m + s) log n)`, with no allocation per pivot. The
//! moves run on one thread, `O(m + s log s)` per round, the same span
//! class as the loop that splits each round's wake-up results; the
//! wake-ups themselves run in parallel, so Theorem 2.2's bounds, and
//! the Lemma 5.5 wake-up count built on them, still hold.

use crate::cancel::RunOutcome;
use crate::solver::{Report, RunConfig};
use crate::stats::ExecutionStats;
use rayon::prelude::*;
use std::borrow::Cow;

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

/// What [`Type2Problem::initial`] returns: the `(pivot, object)` pairs
/// seeding `T_pivot`, and the round-0 frontier. The engine only reads
/// the pairs, so a problem whose pairs depend on the input alone can
/// lend them from its prepared instance instead of copying them.
pub type InitialState<'a, I> = (Cow<'a, [(u32, u32)]>, Vec<(u32, I)>);

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

    /// The starting state, from at most one probe per object:
    /// `(pivot, object)` pairs seeding `T_pivot` (Algorithm 3 line 21),
    /// and the round-0 frontier of objects ready with no predecessors,
    /// including any virtual source object. Every object that is not in
    /// the frontier needs exactly one pair: `T_pivot` links a waiting
    /// object into one pivot's list, so a second pair would corrupt it.
    fn initial(&self) -> InitialState<'_, Self::Info>;

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

/// End of a waiter list.
const NIL: u32 = u32::MAX;

/// `T_pivot` as intrusive singly linked lists: `head[p]` is the waiter
/// hung last on pivot `p` and `next[x]` the one hung before `x`, or
/// [`NIL`]. An object sits on at most one list at a time.
#[derive(Default)]
struct Waiters {
    head: Vec<u32>,
    next: Vec<u32>,
}

impl Waiters {
    /// Hang object `x` on `pivot`, growing either array to the id given.
    fn hang(&mut self, pivot: u32, x: u32) {
        let (p, xi) = (pivot as usize, x as usize);
        if p >= self.head.len() {
            self.head.resize(p + 1, NIL);
        }
        if xi >= self.next.len() {
            self.next.resize(xi + 1, NIL);
        }
        self.next[xi] = std::mem::replace(&mut self.head[p], x);
    }

    /// Append `pivot`'s waiters to `out` in ascending id order and empty
    /// its list.
    fn take(&mut self, pivot: u32, out: &mut Vec<u32>) {
        let Some(head) = self.head.get_mut(pivot as usize) else {
            return;
        };
        let start = out.len();
        let mut x = std::mem::replace(head, NIL);
        while x != NIL {
            out.push(x);
            x = self.next[x as usize];
        }
        out[start..].sort_unstable();
    }
}

/// Run the Type 2 wake-up loop over a problem.
///
/// Each round wakes the waiters of the frontier's objects in frontier
/// order, ascending by id within one pivot. The config's cancellation
/// token is polled before [`Type2Problem::initial`] and at the top of
/// every wake-up round, before the round's frontier commits, so a
/// pre-tripped token stops the run with zero rounds and no probe. On a
/// trip the engine finishes with partial state under
/// [`RunOutcome::DeadlineExceeded`](crate::RunOutcome); an untripped
/// token leaves the run byte-identical to a run without one.
pub fn run_type2<P: Type2Problem>(mut problem: P, cfg: &RunConfig) -> Report<P::Output> {
    let mut stats = ExecutionStats::default();
    if cfg.is_cancelled() {
        return Report::new(problem.finish(), stats).with_outcome(RunOutcome::DeadlineExceeded);
    }
    let mut outcome = RunOutcome::Completed;
    let (pairs, mut frontier) = problem.initial();
    let mut t_pivot = Waiters::default();
    for &(pivot, x) in pairs.iter() {
        t_pivot.hang(pivot, x);
    }
    // Lent pairs borrow the problem, which the rounds mutate.
    drop(pairs);
    // Round buffers, reused across rounds.
    let (mut todo, mut results, mut next_frontier) = (Vec::new(), Vec::new(), Vec::new());
    while !frontier.is_empty() {
        if cfg.is_cancelled() {
            outcome = RunOutcome::DeadlineExceeded;
            break;
        }
        stats.record_round(frontier.len());
        problem.commit(&frontier);
        // Objects whose pivot is in the frontier (T_pivot.multi_find).
        todo.clear();
        for &(x, _) in &frontier {
            t_pivot.take(x, &mut todo);
        }
        stats.wakeup_attempts += todo.len();
        // Attempt to wake each in parallel.
        results.par_extend(todo.par_iter().map(|&q| (q, problem.try_wake(q))));
        for (q, r) in results.drain(..) {
            match r {
                WakeResult::Ready(info) => next_frontier.push((q, info)),
                WakeResult::Blocked { new_pivot } => {
                    stats.failed_wakeups += 1;
                    t_pivot.hang(new_pivot, q);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next_frontier);
        next_frontier.clear();
    }
    Report::new(problem.finish(), stats).with_outcome(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CancelToken;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A toy chain problem: object i depends on exactly {0..i}; pivot is
    /// always i-1, so every wake-up succeeds and rounds = n.
    struct Chain {
        n: u32,
        depth: Vec<AtomicU32>,
        initial_calls: Arc<AtomicUsize>,
    }

    impl Type2Problem for Chain {
        type Info = u32; // depth value
        type Output = Vec<u32>;
        fn initial(&self) -> InitialState<'_, u32> {
            self.initial_calls.fetch_add(1, Ordering::Relaxed);
            let pairs: Vec<_> = (1..self.n).map(|i| (i - 1, i)).collect();
            let frontier = if self.n == 0 { vec![] } else { vec![(0, 0)] };
            (pairs.into(), frontier)
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
            initial_calls: Arc::default(),
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
        fn initial(&self) -> InitialState<'_, ()> {
            (Cow::Borrowed(&[(0, 2), (0, 1)]), vec![(0, ())])
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

    /// Objects with explicit predecessor lists. A blocked object
    /// re-pivots onto its first unfinished predecessor; `commit` records
    /// each frontier in the order the engine hands it over.
    struct Listed {
        deps: Vec<Vec<u32>>,
        sources: Vec<u32>,
        finished: Vec<bool>,
        frontiers: Vec<Vec<u32>>,
    }

    impl Type2Problem for Listed {
        type Info = ();
        type Output = Vec<Vec<u32>>;
        fn initial(&self) -> InitialState<'_, ()> {
            let pairs: Vec<_> = (0..self.deps.len() as u32)
                .filter_map(|x| self.deps[x as usize].first().map(|&p| (p, x)))
                .collect();
            (
                pairs.into(),
                self.sources.iter().map(|&x| (x, ())).collect(),
            )
        }
        fn try_wake(&self, x: u32) -> WakeResult<()> {
            match self.deps[x as usize]
                .iter()
                .find(|&&p| !self.finished[p as usize])
            {
                Some(&p) => WakeResult::Blocked { new_pivot: p },
                None => WakeResult::Ready(()),
            }
        }
        fn commit(&mut self, ready: &[(u32, ())]) {
            for &(x, _) in ready {
                self.finished[x as usize] = true;
            }
            self.frontiers.push(ready.iter().map(|&(x, _)| x).collect());
        }
        fn finish(self) -> Vec<Vec<u32>> {
            self.frontiers
        }
    }

    #[test]
    fn waiters_leave_by_frontier_key_then_ascending() {
        // Spine 9 → 1 → 2 → 5. Objects 8, 7 and 6 first hang off 0, 1
        // and 2, then re-pivot onto the unfinished 5 in rounds 0, 1 and
        // 2: descending ids, one per round. Round 0's frontier lists 9
        // before 0, so 9's waiter 1 comes before 0's waiter 8. Id 3 is
        // unused; 10 waits on 4 and leaves ahead of 5's waiters, so a
        // round's todo is not sorted as a whole.
        let mut deps = vec![Vec::new(); 11];
        for (x, d) in [
            (1, vec![9]),
            (2, vec![1]),
            (4, vec![2]),
            (5, vec![2]),
            (6, vec![2, 5]),
            (7, vec![1, 5]),
            (8, vec![0, 5]),
            (10, vec![4]),
        ] {
            deps[x] = d;
        }
        let report = run_type2(
            Listed {
                deps,
                sources: vec![9, 0],
                finished: vec![false; 11],
                frontiers: Vec::new(),
            },
            &RunConfig::new(),
        );
        let want: Vec<Vec<u32>> = vec![vec![9, 0], vec![1], vec![2], vec![4, 5], vec![10, 6, 7, 8]];
        assert_eq!(report.output, want);
        assert_eq!(report.stats.failed_wakeups, 3);
        assert_eq!(report.stats.wakeup_attempts, 11);
    }

    #[test]
    fn waiters_on_a_pivot_above_every_object_keep_the_order() {
        // Source 20 is a virtual pivot above every object id, as weighted
        // LIS's point n is; objects 12, 14, 15 and 17 lie above every
        // other pivot (1, 2, 3). 15 and 12 wake on 20 and re-pivot onto
        // 2 and 3. Pivot 3's list is hung 2, 17, 12 and leaves
        // ascending, after 1's waiter 14.
        let mut deps = vec![Vec::new(); 21];
        for (x, d) in [
            (1, vec![20]),
            (2, vec![3]),
            (3, vec![20]),
            (12, vec![20, 3]),
            (14, vec![1, 2]),
            (15, vec![20, 2]),
            (17, vec![3]),
        ] {
            deps[x] = d;
        }
        let report = run_type2(
            Listed {
                deps,
                sources: vec![20],
                finished: vec![false; 21],
                frontiers: Vec::new(),
            },
            &RunConfig::new(),
        );
        let want: Vec<Vec<u32>> = vec![vec![20], vec![1, 3], vec![2, 12, 17], vec![14, 15]];
        assert_eq!(report.output, want);
        assert_eq!(report.stats.failed_wakeups, 3);
        assert_eq!(report.stats.wakeup_attempts, 10);
    }

    #[test]
    fn pre_tripped_token_commits_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let problem = chain(50);
        let initial_calls = Arc::clone(&problem.initial_calls);
        let report = run_type2(problem, &RunConfig::new().with_cancel_token(token));
        assert_eq!(report.outcome, RunOutcome::DeadlineExceeded);
        assert_eq!(report.stats.rounds, 0);
        assert_eq!(initial_calls.load(Ordering::Relaxed), 0, "no probe ran");
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
