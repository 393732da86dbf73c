//! [`SharedPrepared`]: an owned, `Arc`-shareable prepared instance —
//! the handle the serving tier caches and fans out across workers.
//!
//! # Why this module exists
//!
//! The prepare/query split ties a prepared instance to a *borrow* of
//! its input: [`PhaseAlgorithm::prepare`] returns `Prepared<'i>`, which
//! points into the input's bulk data so preparation never copies it.
//! That is exactly right for a caller that owns both, but a serving
//! tier cannot hold a borrow in a cache: the instance must own its
//! input, live behind `Arc`, move between threads, and outlive every
//! stack frame that created it.
//!
//! [`SharedPrepared`] closes that gap with a heap-pinned *self-cell*:
//! the cell owns the input in a `Box` whose address never changes
//! (raw-pointer-held, so no `&mut` to the box can ever exist to
//! invalidate the borrow), prepares against that pinned allocation at
//! an unconstrained lifetime, and drops the prepared half strictly
//! before the input half. Prepared instances are immutable after
//! `prepare()` — every query takes `&Prepared` — so any number of
//! workers may query one cell concurrently, each with its own
//! [`Scratch`].
//!
//! This is the one place the serving stack needs `unsafe`: the borrow
//! checker cannot see that the boxed input outlives the prepared
//! borrower when both live in one struct. The cell keeps the unsafe
//! surface to three audited sites (pin + borrow, the `Send`/`Sync`
//! assertions, and the final free).
//!
//! Type erasure: the cell hides behind the object-safe
//! [`PreparedService`] trait, so the registry can hand out
//! [`SharedPrepared`] handles for every entry uniformly — queries
//! come back as output digests plus [`ExecutionStats`], the same
//! currency the registry's conformance machinery already speaks.

use crate::registry::Digest;
use phase_parallel::{ExecutionStats, PhaseAlgorithm, Report, RunConfig, RunOutcome, Scratch};
use std::borrow::Borrow;
use std::sync::Arc;

/// A served query's result: the output digest plus the run's stats.
#[derive(Clone, Debug)]
pub struct ServedQuery {
    /// FNV-1a digest of the output (the registry's conformance
    /// currency; see [`crate::registry::Digest`]).
    pub digest: u64,
    /// The query's execution statistics.
    pub stats: ExecutionStats,
    /// How the run ended. On [`RunOutcome::DeadlineExceeded`] the digest
    /// covers the *partial* output and must not be compared against a
    /// completed run's.
    pub outcome: RunOutcome,
}

impl ServedQuery {
    fn from_report<T: Digest>(report: Report<T>) -> Self {
        Self {
            digest: report.output.digest(),
            stats: report.stats,
            outcome: report.outcome,
        }
    }
}

/// Object-safe view of one owned prepared instance: what the serving
/// tier needs, with the input/prepared types erased.
pub trait PreparedService: Send + Sync {
    /// The registry entry this instance was prepared for.
    fn entry_name(&self) -> &'static str;

    /// The instance's cache-cost estimate in bytes (see
    /// [`estimated_cost_bytes`]).
    fn cost_bytes(&self) -> usize;

    /// One query against the shared prepared instance. `scratch` is the
    /// calling worker's own workspace; the instance itself is only read.
    fn query(&self, scratch: &mut Scratch, cfg: &RunConfig) -> ServedQuery;

    /// A fresh one-shot `solve_par` against the owned input under
    /// `cfg` — the reference cached/shared serving must match.
    fn one_shot(&self, cfg: &RunConfig) -> ServedQuery;

    /// Digest of the sequential baseline `solve_seq` on the owned input
    /// — the reference a completed one-shot run must match.
    fn seq_digest(&self) -> u64;
}

/// The self-referential cell: owns the input at a pinned heap address
/// and the prepared instance borrowing it.
///
/// Field order is not what guarantees drop order — [`Drop`] is manual:
/// `prepared` is cleared first, then the input box is reclaimed.
struct ServeCell<A, I>
where
    A: PhaseAlgorithm + 'static,
    A::Input: 'static,
    I: Borrow<A::Input> + 'static,
{
    algo: A,
    entry: &'static str,
    cost: usize,
    /// `Some` from construction until drop. The `'static` is a
    /// self-borrow of `*input`, never exposed outside the cell.
    prepared: Option<A::Prepared<'static>>,
    /// The pinned input allocation (`Box::into_raw` in `new`). Held as
    /// a raw pointer so no `&mut I` can ever be formed — the borrow in
    /// `prepared` stays valid for the cell's whole life.
    input: *mut I,
}

// SAFETY: the cell owns its pointee exclusively (the raw pointer is the
// only handle to the boxed input and is never aliased mutably), so the
// cell moves between threads whenever all its owned parts do. `prepared`
// self-borrows `*input`, which moves with the cell.
unsafe impl<A, I> Send for ServeCell<A, I>
where
    A: PhaseAlgorithm + Send + 'static,
    A::Input: 'static,
    for<'i> A::Prepared<'i>: Send,
    I: Borrow<A::Input> + Send + 'static,
{
}

// SAFETY: every query path takes `&self` — the prepared instance and the
// input are only ever read after construction — so shared references are
// safe across threads whenever the owned parts are `Sync`.
unsafe impl<A, I> Sync for ServeCell<A, I>
where
    A: PhaseAlgorithm + Sync + 'static,
    A::Input: Sync + 'static,
    for<'i> A::Prepared<'i>: Sync,
    I: Borrow<A::Input> + Sync + 'static,
{
}

impl<A, I> ServeCell<A, I>
where
    A: PhaseAlgorithm + 'static,
    A::Input: 'static,
    I: Borrow<A::Input> + 'static,
{
    fn new(entry: &'static str, algo: A, input: I, cost: usize) -> Self {
        let input = Box::into_raw(Box::new(input));
        // SAFETY: `input` came from `Box::into_raw` above — valid,
        // aligned, exclusively owned by this cell — and the allocation
        // is neither moved nor freed until `Drop`, where `prepared` (the
        // only borrower) is destroyed first. That ordering is what makes
        // the `'static` ascription sound.
        let borrowed: &'static A::Input = unsafe { &*input }.borrow();
        let prepared = algo.prepare(borrowed);
        Self {
            algo,
            entry,
            cost,
            prepared: Some(prepared),
            input,
        }
    }

    /// The owned input, borrowed for the caller's lifetime.
    fn input(&self) -> &A::Input {
        // SAFETY: `input` is valid for the cell's whole life (see
        // `new`); this shared borrow lives no longer than `&self` and
        // coexists fine with the one in `prepared`.
        unsafe { &*self.input }.borrow()
    }
}

impl<A, I> Drop for ServeCell<A, I>
where
    A: PhaseAlgorithm + 'static,
    A::Input: 'static,
    I: Borrow<A::Input> + 'static,
{
    fn drop(&mut self) {
        // The borrower dies before its referent:
        self.prepared = None;
        // SAFETY: `input` came from `Box::into_raw` in `new`, is freed
        // nowhere else, and nothing borrows it anymore (`prepared` was
        // just cleared; queries hold `&self`, which drop excludes).
        unsafe { drop(Box::from_raw(self.input)) };
    }
}

impl<A, I> PreparedService for ServeCell<A, I>
where
    A: PhaseAlgorithm + Send + Sync + 'static,
    A::Input: Sync + 'static,
    A::Output: Digest + Send,
    for<'i> A::Prepared<'i>: Send + Sync,
    I: Borrow<A::Input> + Send + Sync + 'static,
{
    fn entry_name(&self) -> &'static str {
        self.entry
    }

    fn cost_bytes(&self) -> usize {
        self.cost
    }

    fn query(&self, scratch: &mut Scratch, cfg: &RunConfig) -> ServedQuery {
        let prepared = self.prepared.as_ref().expect("live until drop");
        // The lease's drop check (debug builds) pins the take/put
        // protocol for every family on the serve path: a query that
        // strands a buffer fails here instead of growing memory.
        let mut lease = scratch.lease();
        ServedQuery::from_report(self.algo.solve_prepared(prepared, &mut lease, cfg))
    }

    fn one_shot(&self, cfg: &RunConfig) -> ServedQuery {
        ServedQuery::from_report(self.algo.solve_par(self.input(), cfg))
    }

    fn seq_digest(&self) -> u64 {
        self.algo.solve_seq(self.input()).digest()
    }
}

/// An owned, cheaply-clonable handle to one shared prepared instance.
/// Clones share the instance; the last one to drop frees it (prepared
/// half first, then the pinned input).
///
/// ```
/// use phase_parallel::{RunConfig, Scratch};
/// use pp_algos::registry::{self, CaseSpec};
///
/// let entry = registry::lookup("sssp/delta").unwrap();
/// let shared = entry.prepare_shared(&CaseSpec::new(120, 3), &RunConfig::seeded(3));
/// let mut scratch = Scratch::new(); // one per worker
/// let cfg = RunConfig::seeded(3).with_source(5);
/// let served = shared.query(&mut scratch, &cfg);
/// assert_eq!(served.digest, shared.one_shot_digest(&cfg));
/// ```
#[derive(Clone)]
pub struct SharedPrepared {
    inner: Arc<dyn PreparedService>,
}

impl SharedPrepared {
    /// Pin `input`, prepare it once, and wrap the pair for sharing.
    /// `cost_bytes` is the instance's cache-cost estimate.
    pub fn new<A, I>(entry: &'static str, algo: A, input: I, cost_bytes: usize) -> Self
    where
        A: PhaseAlgorithm + Send + Sync + 'static,
        A::Input: Sync + 'static,
        A::Output: Digest + Send,
        for<'i> A::Prepared<'i>: Send + Sync,
        I: Borrow<A::Input> + Send + Sync + 'static,
    {
        Self {
            inner: Arc::new(ServeCell::new(entry, algo, input, cost_bytes)),
        }
    }

    /// The registry entry this instance serves.
    pub fn entry_name(&self) -> &'static str {
        self.inner.entry_name()
    }

    /// The instance's cache-cost estimate in bytes.
    pub fn cost_bytes(&self) -> usize {
        self.inner.cost_bytes()
    }

    /// One query against the shared instance, on the calling worker's
    /// own `scratch`. Concurrent calls from many workers are the point:
    /// the instance is only read.
    pub fn query(&self, scratch: &mut Scratch, cfg: &RunConfig) -> ServedQuery {
        self.inner.query(scratch, cfg)
    }

    /// A fresh one-shot `solve_par` against the owned input under
    /// `cfg`, with its stats and outcome.
    pub fn one_shot(&self, cfg: &RunConfig) -> ServedQuery {
        self.inner.one_shot(cfg)
    }

    /// The digest of [`SharedPrepared::one_shot`] — the conformance
    /// reference for cached/shared serving.
    pub fn one_shot_digest(&self, cfg: &RunConfig) -> u64 {
        self.one_shot(cfg).digest
    }

    /// Digest of the sequential baseline on the owned input.
    pub fn seq_digest(&self) -> u64 {
        self.inner.seq_digest()
    }

    /// How many handles currently share the instance (diagnostics).
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.inner)
    }
}

impl std::fmt::Debug for SharedPrepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPrepared")
            .field("entry", &self.entry_name())
            .field("cost_bytes", &self.cost_bytes())
            .field("handles", &self.handle_count())
            .finish()
    }
}

/// Deterministic cache-cost estimate for a registry case, in bytes.
///
/// Deliberately an *estimate*: every registry instance is `O(size)`
/// (edge lists, CSR mirrors, precomputed weights all scale linearly in
/// vertices/elements at bounded degree), so a fixed overhead plus a
/// per-element charge ranks instances correctly for LRU budgeting
/// without a per-family accounting pass. The constant is generous so a
/// budget expressed in instances-worth of bytes behaves intuitively.
pub fn estimated_cost_bytes(size: usize) -> usize {
    4096 + size * 128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{DeltaSssp, Lis, SsspInstance};
    use pp_graph::gen;

    fn small_instance() -> SsspInstance {
        let g = gen::with_uniform_weights(&gen::uniform(80, 320, 5), 1, 100, 5);
        SsspInstance::new(g, 0)
    }

    #[test]
    fn shared_queries_match_one_shot() {
        let shared = SharedPrepared::new("sssp/delta", DeltaSssp, small_instance(), 1 << 16);
        let mut scratch = Scratch::new();
        for source in [0u32, 3, 17, 40] {
            let cfg = RunConfig::seeded(7).with_source(source);
            assert_eq!(
                shared.query(&mut scratch, &cfg).digest,
                shared.one_shot_digest(&cfg),
                "source {source}"
            );
        }
    }

    #[test]
    fn clones_share_one_instance() {
        let shared = SharedPrepared::new("sssp/delta", DeltaSssp, small_instance(), 64);
        let other = shared.clone();
        assert_eq!(shared.handle_count(), 2);
        assert_eq!(other.entry_name(), "sssp/delta");
        assert_eq!(other.cost_bytes(), 64);
        drop(shared);
        assert_eq!(other.handle_count(), 1);
        // The survivor still serves correct answers.
        let cfg = RunConfig::seeded(1).with_source(2);
        let mut scratch = Scratch::new();
        assert_eq!(
            other.query(&mut scratch, &cfg).digest,
            other.one_shot_digest(&cfg)
        );
    }

    #[test]
    fn unsized_borrowed_inputs_work() {
        // `Lis::Input = [i64]`: the cell pins a `Vec<i64>` and borrows
        // the slice out of it.
        let series: Vec<i64> = vec![4, 7, 3, 2, 8, 1, 6, 5];
        let shared = SharedPrepared::new("lis", Lis, series, 1024);
        let cfg = RunConfig::seeded(42);
        let mut scratch = Scratch::new();
        assert_eq!(
            shared.query(&mut scratch, &cfg).digest,
            shared.one_shot_digest(&cfg)
        );
    }

    #[test]
    fn handles_move_between_threads() {
        let shared = SharedPrepared::new("sssp/delta", DeltaSssp, small_instance(), 64);
        let cfg = RunConfig::seeded(3).with_source(9);
        let expected = shared.one_shot_digest(&cfg);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = shared.clone();
                let cfg = cfg.clone();
                std::thread::spawn(move || shared.query(&mut Scratch::new(), &cfg).digest)
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expected);
        }
    }
}
