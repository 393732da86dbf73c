//! [`SharedPrepared`]: an owned, `Arc`-shareable prepared instance —
//! the handle the serving tier caches and fans out across workers.
//!
//! # Why this module exists
//!
//! A serving tier cannot hold a borrow in a cache: the instance must
//! own its input, live behind `Arc`, move between threads, and outlive
//! every stack frame that created it. [`PhaseAlgorithm::prepare`]
//! returns only the data it derived from the input, owned and free of
//! borrows, so the cell behind [`SharedPrepared`] simply keeps the input
//! and its prepared instance side by side and hands both to
//! [`PhaseAlgorithm::solve_prepared`] on every query. Prepared
//! instances are immutable after `prepare()` — every query takes
//! `&Prepared` — so any number of workers may query one cell
//! concurrently, each with its own [`Scratch`].
//!
//! Type erasure: the cell hides behind a private object-safe trait, so
//! the registry can hand out [`SharedPrepared`] handles for every entry
//! uniformly — queries come back as output digests plus
//! [`ExecutionStats`], the same currency the registry's conformance
//! machinery already speaks.

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
trait PreparedService: Send + Sync {
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

/// The owned input side by side with the instance prepared from it.
struct ServeCell<A: PhaseAlgorithm, I> {
    algo: A,
    entry: &'static str,
    cost: usize,
    input: I,
    prepared: A::Prepared,
}

impl<A, I> PreparedService for ServeCell<A, I>
where
    A: PhaseAlgorithm + Send + Sync,
    A::Output: Digest + Send,
    A::Prepared: Send + Sync,
    I: Borrow<A::Input> + Send + Sync,
{
    fn entry_name(&self) -> &'static str {
        self.entry
    }

    fn cost_bytes(&self) -> usize {
        self.cost
    }

    fn query(&self, scratch: &mut Scratch, cfg: &RunConfig) -> ServedQuery {
        // The lease's drop check (debug builds) pins the take/put
        // protocol for every family on the serve path: a query that
        // strands a buffer fails here instead of growing memory.
        let mut lease = scratch.lease();
        let report = self
            .algo
            .solve_prepared(self.input.borrow(), &self.prepared, &mut lease, cfg);
        ServedQuery::from_report(report)
    }

    fn one_shot(&self, cfg: &RunConfig) -> ServedQuery {
        ServedQuery::from_report(self.algo.solve_par(self.input.borrow(), cfg))
    }

    fn seq_digest(&self) -> u64 {
        self.algo.solve_seq(self.input.borrow()).digest()
    }
}

/// An owned, cheaply-clonable handle to one shared prepared instance.
/// Clones share the instance; the last one to drop frees it.
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
    /// Take ownership of `input`, prepare it once, and wrap the pair
    /// for sharing. `cost_bytes` is the instance's cache-cost estimate.
    pub fn new<A, I>(entry: &'static str, algo: A, input: I, cost_bytes: usize) -> Self
    where
        A: PhaseAlgorithm + Send + Sync + 'static,
        A::Output: Digest + Send,
        A::Prepared: Send + Sync + 'static,
        I: Borrow<A::Input> + Send + Sync + 'static,
    {
        let prepared = algo.prepare(input.borrow());
        Self {
            inner: Arc::new(ServeCell {
                algo,
                entry,
                cost: cost_bytes,
                input,
                prepared,
            }),
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
        // `Lis::Input = [i64]`: the cell owns a `Vec<i64>` and borrows
        // the slice out of it per query.
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
