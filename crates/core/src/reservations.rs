//! Deterministic reservations — the prior-work framework the paper
//! improves on.
//!
//! Blelloch, Fineman, Gibbons & Shun (PPoPP 2012, the paper's \[10\])
//! parallelize a sequential iterative algorithm with a generic
//! *speculative for*: run rounds over the unfinished iterates, and in each
//! round every candidate **reserves** the shared state it needs by
//! priority-writing its iterate index, then **commits** if it still holds
//! all of its reservations. Winners are always the earliest contenders, so
//! the result is *identical to the sequential algorithm* regardless of the
//! schedule — "internally deterministic".
//!
//! The SPAA 2022 paper keeps this framework's round structure
//! (round-efficiency: `O(D)` rounds for dependence depth `D`) but removes
//! its work inefficiency: deterministic reservations re-examine every
//! unfinished iterate each round, `O(D·m)` work in the worst case, which
//! Type 1 range queries and Type 2 wake-ups avoid. We implement it as the
//! baseline for ablations; its one consumer is the `matching/reservations`
//! entry's maximal matching. Random permutation, the other application
//! of \[10\], runs on the Type 2 engine instead (`pp-algos::random_perm`):
//! its dependences form a forest, so each iteration waits on at most two
//! predecessors rather than retrying every round.
//!
//! The granularity knob follows \[10\]: processing only a prefix of the
//! remaining iterates each round bounds wasted work at the cost of extra
//! rounds.

use crate::cancel::RunOutcome;
use crate::solver::{Report, RunConfig};
use crate::stats::ExecutionStats;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// A table of priority-reservable slots.
///
/// Each slot holds the smallest iterate index that reserved it this epoch
/// (epochs make per-round resets O(1): stale values from earlier rounds
/// are ignored and overwritten).
pub struct ReservationTable {
    slots: Vec<AtomicU64>,
    epoch: AtomicU64,
}

/// Value stored in an empty slot (no reservation this epoch).
const FREE: u32 = u32::MAX;

#[inline]
fn encode(epoch: u64, i: u32) -> u64 {
    (epoch << 32) | u64::from(i)
}

#[inline]
fn decode(v: u64) -> (u64, u32) {
    (v >> 32, v as u32)
}

impl ReservationTable {
    /// A table with `n` slots, all free.
    pub fn new(n: usize) -> Self {
        ReservationTable {
            slots: (0..n).map(|_| AtomicU64::new(encode(0, FREE))).collect(),
            epoch: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the table has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Start a new round: logically clears every slot in O(1).
    ///
    /// Must not race with [`reserve`](Self::reserve) / [`holds`](Self::holds);
    /// the round driver calls it between parallel phases.
    pub fn next_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Iterate `i` priority-writes itself into `slot`: after all reserves
    /// of a round, the slot holds the minimum contending iterate index.
    pub fn reserve(&self, slot: usize, i: u32) {
        debug_assert!(i != FREE, "iterate index u32::MAX is reserved");
        let epoch = self.epoch.load(Ordering::Relaxed);
        let mut cur = self.slots[slot].load(Ordering::Relaxed);
        loop {
            let (ce, ci) = decode(cur);
            if ce == epoch && ci <= i {
                return; // an equal-or-earlier iterate already holds it
            }
            match self.slots[slot].compare_exchange_weak(
                cur,
                encode(epoch, i),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Does iterate `i` hold `slot` after the reserve phase?
    pub fn holds(&self, slot: usize, i: u32) -> bool {
        let epoch = self.epoch.load(Ordering::Relaxed);
        decode(self.slots[slot].load(Ordering::Relaxed)) == (epoch, i)
    }
}

/// A problem expressed as prioritized speculative iterations.
///
/// Iterate indices are the *sequential order*: iterate `i` corresponds to
/// the `i`-th iteration of the sequential loop, and lower indices win all
/// reservation contests — which is what makes the parallel result equal
/// the sequential one.
pub trait ReservationProblem: Sync {
    /// Total number of iterates.
    fn num_iterates(&self) -> usize;

    /// Reserve phase for iterate `i`: priority-write `i` into every slot
    /// whose sequential-order ownership matters. Called once per round
    /// while `i` is uncommitted; must be idempotent.
    fn reserve(&self, i: u32, table: &ReservationTable);

    /// Commit phase for iterate `i`: check (via
    /// [`ReservationTable::holds`]) that `i` still owns what it needs and
    /// perform its effect if so. Return `true` when the iterate is done
    /// (either performed, or it observed that it never needs to run) and
    /// `false` to retry next round.
    fn commit(&self, i: u32, table: &ReservationTable) -> bool;
}

/// Run `problem` to completion with deterministic reservations.
///
/// `granularity` caps how many of the earliest unfinished iterates are
/// attempted per round (`0` means "all", the maximal-parallelism choice
/// whose worst case is the `O(D·m)` the paper discusses). The report's
/// `stats.rounds` counts rounds (the paper's round-efficiency measure)
/// and its `"attempts"` counter totals reserve+commit attempts — the
/// framework's work proxy; `attempts / num_iterates` is the
/// re-examination factor the SPAA 2022 paper eliminates.
///
/// The config's cancellation token is polled at the top of every round,
/// before any reserve runs, so a pre-tripped token performs zero rounds.
/// On a trip the uncommitted iterates are simply abandoned (the
/// framework is idempotent per round, so partial state is exactly
/// "everything committed so far") and the outcome is
/// [`RunOutcome::DeadlineExceeded`]. An untripped token leaves the run
/// byte-identical to a run without one.
pub fn speculative_for<P: ReservationProblem>(
    problem: &P,
    table: &ReservationTable,
    granularity: usize,
    cfg: &RunConfig,
) -> Report<()> {
    let n = problem.num_iterates();
    let mut pending: Vec<u32> = (0..n as u32).collect();
    let (mut rounds, mut attempts) = (0usize, 0u64);
    let mut outcome = RunOutcome::Completed;
    while !pending.is_empty() {
        if cfg.is_cancelled() {
            outcome = RunOutcome::DeadlineExceeded;
            break;
        }
        let take = if granularity == 0 {
            pending.len()
        } else {
            granularity.min(pending.len())
        };
        let (batch, rest) = pending.split_at(take);
        table.next_epoch();
        batch.par_iter().for_each(|&i| problem.reserve(i, table));
        let done: Vec<bool> = batch
            .par_iter()
            .map(|&i| problem.commit(i, table))
            .collect();
        rounds += 1;
        attempts += take as u64;
        let mut next: Vec<u32> = batch
            .iter()
            .zip(&done)
            .filter(|&(_, &d)| !d)
            .map(|(&i, _)| i)
            .collect();
        next.extend_from_slice(rest);
        pending = next;
    }
    let mut stats = ExecutionStats::default();
    stats.rounds = rounds;
    stats.set_counter("attempts", attempts);
    Report::new((), stats).with_outcome(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CancelToken;
    use std::sync::atomic::AtomicU32;

    /// Toy problem: n iterates all contend for one slot; each commit
    /// appends its index to a log. Sequential semantics: ascending order.
    struct SingleSlot {
        order: Vec<AtomicU32>,
        cursor: AtomicU32,
    }

    impl ReservationProblem for SingleSlot {
        fn num_iterates(&self) -> usize {
            self.order.len()
        }
        fn reserve(&self, i: u32, t: &ReservationTable) {
            t.reserve(0, i);
        }
        fn commit(&self, i: u32, t: &ReservationTable) -> bool {
            if t.holds(0, i) {
                let pos = self.cursor.fetch_add(1, Ordering::Relaxed);
                self.order[pos as usize].store(i, Ordering::Relaxed);
                true
            } else {
                false
            }
        }
    }

    fn single_slot(n: usize) -> SingleSlot {
        SingleSlot {
            order: (0..n).map(|_| AtomicU32::new(0)).collect(),
            cursor: AtomicU32::new(0),
        }
    }

    #[test]
    fn single_slot_serializes_in_order() {
        let n = 300;
        let p = single_slot(n);
        let t = ReservationTable::new(1);
        let stats = speculative_for(&p, &t, 0, &RunConfig::new()).stats;
        // One iterate commits per round: fully sequential dependence.
        assert_eq!(stats.rounds, n);
        for (k, slot) in p.order.iter().enumerate() {
            assert_eq!(slot.load(Ordering::Relaxed), k as u32);
        }
    }

    #[test]
    fn reserve_keeps_minimum() {
        let t = ReservationTable::new(2);
        t.next_epoch();
        t.reserve(0, 7);
        t.reserve(0, 3);
        t.reserve(0, 9);
        assert!(t.holds(0, 3));
        assert!(!t.holds(0, 7));
        assert!(!t.holds(1, 3)); // untouched slot is free
    }

    #[test]
    fn epoch_reset_is_logical() {
        let t = ReservationTable::new(1);
        t.next_epoch();
        t.reserve(0, 1);
        assert!(t.holds(0, 1));
        t.next_epoch();
        assert!(!t.holds(0, 1)); // stale epoch ignored
        t.reserve(0, 5);
        assert!(t.holds(0, 5));
    }

    #[test]
    fn granularity_limits_batch() {
        let n = 100;
        let p = single_slot(n);
        let t = ReservationTable::new(1);
        let stats = speculative_for(&p, &t, 10, &RunConfig::new()).stats;
        assert_eq!(stats.rounds, n); // still one commit per round
        for (k, slot) in p.order.iter().enumerate() {
            assert_eq!(slot.load(Ordering::Relaxed), k as u32);
        }
    }

    #[test]
    fn pre_tripped_token_runs_zero_rounds() {
        let p = single_slot(100);
        let t = ReservationTable::new(1);
        let token = CancelToken::new();
        token.cancel();
        let report = speculative_for(&p, &t, 0, &RunConfig::new().with_cancel_token(token));
        assert_eq!(report.outcome, RunOutcome::DeadlineExceeded);
        assert_eq!(report.stats.rounds, 0);
        assert_eq!(p.cursor.load(Ordering::Relaxed), 0, "nothing committed");
    }

    #[test]
    fn untripped_token_is_observation_free() {
        let (with_token, without) = (single_slot(100), single_slot(100));
        let cfg = RunConfig::new().with_cancel_token(CancelToken::new());
        let with = speculative_for(&with_token, &ReservationTable::new(1), 0, &cfg);
        let plain = speculative_for(&without, &ReservationTable::new(1), 0, &RunConfig::new());
        assert_eq!(with.outcome, RunOutcome::Completed);
        assert_eq!(with.stats.rounds, plain.stats.rounds);
        assert_eq!(
            with.stats.counter("attempts"),
            plain.stats.counter("attempts")
        );
        let order = |p: &SingleSlot| -> Vec<u32> {
            p.order.iter().map(|a| a.load(Ordering::Relaxed)).collect()
        };
        assert_eq!(order(&with_token), order(&without));
    }

    #[test]
    fn independent_iterates_finish_in_one_round() {
        // n iterates, n slots, no contention.
        struct Indep(usize);
        impl ReservationProblem for Indep {
            fn num_iterates(&self) -> usize {
                self.0
            }
            fn reserve(&self, i: u32, t: &ReservationTable) {
                t.reserve(i as usize, i);
            }
            fn commit(&self, i: u32, t: &ReservationTable) -> bool {
                assert!(t.holds(i as usize, i));
                true
            }
        }
        let p = Indep(5000);
        let t = ReservationTable::new(5000);
        let stats = speculative_for(&p, &t, 0, &RunConfig::new()).stats;
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.counter("attempts"), Some(5000));
    }
}
