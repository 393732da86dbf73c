//! The unified solver API: [`RunConfig`] / [`Report`] /
//! [`PhaseAlgorithm`] / [`Solver`].
//!
//! The paper presents *one* framework — rank-based phase-parallel
//! execution with Type 1 (frontier extraction) and Type 2 (pivot
//! wake-up) engines — so the workspace exposes *one* calling
//! convention for every algorithm family built on it:
//!
//! * [`RunConfig`] collects every execution knob (seed, pivot strategy,
//!   thread count, and the typed per-algorithm parameters like `delta`,
//!   `rho`, or the coloring priority source) behind a builder, replacing
//!   per-function positional argument lists.
//! * [`Report<T>`] pairs an algorithm's output with the unified
//!   [`ExecutionStats`], whose named-counter extension map absorbs what
//!   used to be a zoo of per-algorithm stats structs.
//! * [`PhaseAlgorithm`] is the trait every family implements:
//!   `solve_seq` is the sequential baseline the parallel execution must
//!   agree with (the paper's correctness yardstick), `solve_par` the
//!   one-shot phase-parallel run — and, for repeated traffic, `prepare`
//!   builds the family's amortizable instance structure once so that
//!   `solve_prepared` can serve many queries against it.
//! * [`Solver`] binds an algorithm to a configuration, for callers that
//!   want a reusable handle (benches, services, the conformance suite);
//!   [`Solver::prepare`] upgrades it to a [`PreparedSolver`] that
//!   answers point queries and whole batches ([`PreparedSolver::solve_batch`])
//!   against one prepared instance, recycling per-query buffers through
//!   a [`Scratch`] workspace.
//!
//! The prepare/query split is the paper's cost structure made explicit:
//! building the dependence structure (CSR mirrors, tournament trees,
//! range structures) is preprocessing; running rounds is the query. A
//! service answering millions of SSSP queries against one road network
//! pays the former once.
//!
//! ```
//! use phase_parallel::{PivotMode, RunConfig};
//!
//! let cfg = RunConfig::new().with_seed(7).with_pivot_mode(PivotMode::RightMost);
//! assert_eq!(cfg.seed, 7);
//! assert_eq!(cfg.pivot_mode, PivotMode::RightMost);
//! ```

use crate::cancel::{CancelToken, RunOutcome};
use crate::frontier::FrontierPolicy;
use crate::scratch::Scratch;
use crate::stats::ExecutionStats;
use std::time::Duration;

/// How a Type 2 engine selects a pivot among unfinished predecessors.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PivotMode {
    /// Uniformly random unfinished point (the strategy analyzed in
    /// Lemma 5.5: `O(log n)` wake-ups per object whp).
    #[default]
    Random,
    /// The unfinished point with the largest index — §6.4's heuristic:
    /// "points to the right are more likely to be processed in later
    /// rounds", so the right-most blocker is almost always the last.
    RightMost,
}

/// Priority source for the greedy graph algorithms (MIS, coloring,
/// matching): which ordering heuristic generates the per-vertex
/// priorities — Hasenplaugh et al.'s orderings for coloring, uniformly
/// random for the analyzed bounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PrioritySource {
    /// Uniformly random priorities (the analyzed setting: `O(log n)`
    /// dependence depth whp).
    #[default]
    Random,
    /// Largest-degree-first (LF).
    LargestDegreeFirst,
    /// Largest-log-degree-first (LLF).
    LargestLogDegreeFirst,
    /// Smallest-degree-last (SL).
    SmallestDegreeLast,
}

/// Execution configuration for a phase-parallel run: one struct carries
/// every knob any algorithm family reads, so call sites never pass bare
/// positional `(mode, seed)` pairs and adding a knob never breaks a
/// signature.
///
/// Build with chained setters:
///
/// ```
/// use phase_parallel::{PivotMode, RunConfig};
/// let cfg = RunConfig::new()
///     .with_seed(3)
///     .with_pivot_mode(PivotMode::Random)
///     .with_delta(1 << 20);
/// assert_eq!(cfg.delta, Some(1 << 20));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct RunConfig {
    /// Seed for every random choice the run makes (pivot sampling,
    /// generated priorities). Runs are deterministic in the seed.
    pub seed: u64,
    /// Pivot selection strategy for Type 2 engines.
    pub pivot_mode: PivotMode,
    /// Worker threads. `None` uses the ambient pool (all cores, or
    /// `RAYON_NUM_THREADS`); `Some(t)` asks for a dedicated `t`-thread
    /// pool — and since the rayon shim became a real fork-join pool,
    /// `t` is the *actual* worker count parallel regions fan out
    /// across, not a label. Applied by [`Solver::solve`] and the
    /// registry's `run_case` (via [`RunConfig::install`]); an impl's
    /// `solve_par` called directly runs on the ambient pool regardless.
    pub threads: Option<usize>,
    /// Δ-stepping bucket width. `None` lets SSSP default to Δ = w* (the
    /// paper's phase-parallel choice, Theorem 4.5).
    pub delta: Option<u64>,
    /// ρ-stepping batch size. `None` lets ρ-stepping use its default.
    pub rho: Option<usize>,
    /// Priority source for the greedy graph algorithms. The algorithms
    /// themselves take an explicit priority vector as input; driver
    /// layers (the registry's instance generators, benches, services)
    /// use this knob to pick the heuristic that derives it.
    pub priority_source: PrioritySource,
    /// Per-query source-vertex override for SSSP-style families: a
    /// prepared road network answers queries from many sources, so the
    /// source is a *query* parameter, not an instance parameter. `None`
    /// uses the instance's own source. Honored by `solve_par` and
    /// `solve_prepared`; the sequential baseline `solve_seq` takes no
    /// config and always uses the instance's source, so leave this
    /// unset when checking parallel-vs-sequential conformance.
    pub source: Option<u32>,
    /// Representation policy for the [`Frontier`](crate::Frontier)
    /// engine in round-based algorithms: adaptive by default, or pinned
    /// sparse/dense (the differential-testing knob — outputs must not
    /// depend on it).
    pub frontier: FrontierPolicy,
    /// Cooperative cancellation for this query: engine loops poll the
    /// token at packet/substep granularity and stop early with a typed
    /// [`RunOutcome::DeadlineExceeded`] when it trips. `None` (the
    /// default) runs unbounded. Polling is observation-free — a token
    /// that never trips leaves the run byte-identical to no token at
    /// all. Set via [`RunConfig::with_deadline`] or
    /// [`RunConfig::with_cancel_token`].
    pub cancel: Option<CancelToken>,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            pivot_mode: PivotMode::default(),
            threads: None,
            delta: None,
            rho: None,
            priority_source: PrioritySource::default(),
            source: None,
            frontier: FrontierPolicy::default(),
            cancel: None,
        }
    }
}

impl RunConfig {
    /// A default configuration: seed 1, random pivots, ambient pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// A default configuration with the given seed — the most common
    /// construction.
    pub fn seeded(seed: u64) -> Self {
        Self::new().with_seed(seed)
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_pivot_mode(mut self, mode: PivotMode) -> Self {
        self.pivot_mode = mode;
        self
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    pub fn with_delta(mut self, delta: u64) -> Self {
        self.delta = Some(delta);
        self
    }

    pub fn with_rho(mut self, rho: usize) -> Self {
        self.rho = Some(rho);
        self
    }

    pub fn with_priority_source(mut self, source: PrioritySource) -> Self {
        self.priority_source = source;
        self
    }

    /// Override the source vertex for this query (see
    /// [`RunConfig::source`]).
    pub fn with_source(mut self, source: u32) -> Self {
        self.source = Some(source);
        self
    }

    /// Pin the frontier-engine representation (see
    /// [`RunConfig::frontier`]).
    pub fn with_frontier(mut self, policy: FrontierPolicy) -> Self {
        self.frontier = policy;
        self
    }

    /// Give this query a wall-clock budget: a fresh [`CancelToken`]
    /// whose deadline is `budget` from **now** (the clock starts here,
    /// not at the first poll). Engines that poll stop at the first poll
    /// past the deadline and report [`RunOutcome::DeadlineExceeded`]
    /// with partial output and stats.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.cancel = Some(CancelToken::with_budget(budget));
        self
    }

    /// Attach an externally-held cancellation token (see
    /// [`RunConfig::cancel`]) — the driver keeps a clone, so it can
    /// force expiry or share one token across related queries.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Poll this config's cancellation token, if any. The form engine
    /// loops use: `if cfg.is_cancelled() { break }` at packet/substep
    /// boundaries. Always `false` when no token is attached.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Build the dedicated pool this configuration asks for, if any.
    fn build_pool(&self) -> Option<rayon::ThreadPool> {
        self.threads.map(|t| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("thread pool")
        })
    }

    /// Run `f` under this configuration's thread budget: inside a
    /// dedicated pool when [`RunConfig::threads`] is set, directly
    /// otherwise. Builds a fresh pool per call — for repeated solves,
    /// hold a [`Solver`], which caches the pool.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        match self.build_pool() {
            Some(pool) => pool.install(f),
            None => f(),
        }
    }
}

/// Record the scheduler-activity delta a run produced into its stats,
/// under the `sched_*` counter names. CI runs on one core, where
/// speedups are unobservable — these counters are how the scheduler's
/// *behavior* (lock traffic per task, steal balance, parking) stays
/// assertable anyway. The snapshot pair must be taken inside the same
/// pool `install` as the run, so the deltas come from the pool that
/// actually executed it.
fn record_sched_counters(stats: &mut ExecutionStats, delta: rayon::SchedulerCounters) {
    stats.set_counter("sched_queue_locks", delta.queue_locks);
    stats.set_counter("sched_steals", delta.steals);
    stats.set_counter("sched_parks", delta.parks);
    stats.set_counter("sched_injector_pushes", delta.injector_pushes);
    stats.set_counter("sched_jobs", delta.jobs_executed);
}

/// The result of a phase-parallel run: the algorithm's output plus the
/// unified execution statistics and the typed [`RunOutcome`].
#[derive(Clone, Debug)]
pub struct Report<T> {
    /// The algorithm's answer (identical to its sequential baseline's
    /// when [`Report::outcome`] is [`RunOutcome::Completed`]; partial
    /// state otherwise).
    pub output: T,
    /// Rounds, frontier sizes, wake-ups, and named per-algorithm
    /// counters.
    pub stats: ExecutionStats,
    /// Whether the run completed or stopped at a cancellation poll.
    /// [`RunOutcome::Completed`] unless the engine polled a tripped
    /// [`CancelToken`].
    pub outcome: RunOutcome,
}

impl<T> Report<T> {
    pub fn new(output: T, stats: ExecutionStats) -> Self {
        Self {
            output,
            stats,
            outcome: RunOutcome::Completed,
        }
    }

    /// A report with empty statistics, for algorithms (or sequential
    /// baselines) that do not meter their execution.
    pub fn plain(output: T) -> Self {
        Self::new(output, ExecutionStats::default())
    }

    /// Tag this report with an outcome (builder-style; engines that
    /// poll cancellation use it on the early-exit path).
    pub fn with_outcome(mut self, outcome: RunOutcome) -> Self {
        self.outcome = outcome;
        self
    }

    /// True iff the run finished (no cancellation poll tripped).
    pub fn is_complete(&self) -> bool {
        self.outcome.is_complete()
    }

    /// Transform the output, keeping the statistics and outcome.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Report<U> {
        Report {
            output: f(self.output),
            stats: self.stats,
            outcome: self.outcome,
        }
    }

    pub fn into_parts(self) -> (T, ExecutionStats) {
        (self.output, self.stats)
    }
}

/// One phase-parallelized algorithm family: a sequential baseline and a
/// phase-parallel execution that must produce the same output.
///
/// `solve_par(input, cfg).output == solve_seq(input)` is the paper's
/// sequential-equivalence contract; the workspace conformance suite
/// checks it for every registered implementation.
///
/// # Prepare/query
///
/// Families additionally split their execution into an amortizable
/// *prepare* step ([`PhaseAlgorithm::prepare`], deriving the instance's
/// dependence structure: CSR mirrors, precomputed weights, edge lists)
/// and a repeatable *query* step ([`PhaseAlgorithm::solve_prepared`],
/// running rounds against the input plus its prepared structure,
/// drawing hot per-query buffers from a [`Scratch`] workspace). The
/// prepared structure owns only what it derived; the query receives the
/// input next to it. The contract extends to:
/// `solve_prepared(input, &prepare(input), scratch, cfg).output ==
/// solve_par(input, cfg).output` for every `cfg` and any workspace
/// state — checked per registry entry by the conformance suite. A
/// family that prepares something defines `solve_par` as prepare + one
/// query on a fresh workspace, so its one-shot and served queries run
/// one code path, and its impl is the family's only public entry.
///
/// Simple families whose instances need no preprocessing opt in with
/// one line via [`impl_no_prepare!`](crate::impl_no_prepare), which
/// sets `Prepared = ()` and routes queries to the family's `solve_par`.
pub trait PhaseAlgorithm {
    /// Problem instance. `?Sized` so slice inputs (`[i64]`) work.
    type Input: ?Sized;
    /// Solution type (shared by both executions).
    type Output;
    /// The amortized form of an instance: everything `solve_prepared`
    /// needs that does not change between queries, derived from the
    /// input and owned — it never borrows the input, so any holder can
    /// keep the pair side by side.
    type Prepared;

    /// Stable, human-readable name (`"lis"`, `"sssp/delta"`, …) — the
    /// key used by string-keyed registries.
    fn name(&self) -> &'static str;

    /// The sequential iterative baseline.
    fn solve_seq(&self, input: &Self::Input) -> Self::Output;

    /// Derive the amortized instance once; queries run against it via
    /// [`PhaseAlgorithm::solve_prepared`].
    fn prepare(&self, input: &Self::Input) -> Self::Prepared;

    /// One query against `input` and its prepared instance, which must
    /// have come from `prepare(input)`. Hot per-query buffers come from
    /// (and return to) `scratch`, so repeated queries on the same
    /// workspace run allocation-free in steady state. Output must equal
    /// `solve_par(input, cfg).output`.
    fn solve_prepared(
        &self,
        input: &Self::Input,
        prepared: &Self::Prepared,
        scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<Self::Output>;

    /// The one-shot phase-parallel execution under `cfg`. Kept a
    /// required method (not defaulted to `prepare` + `solve_prepared`)
    /// so that [`impl_no_prepare!`](crate::impl_no_prepare) — whose
    /// `solve_prepared` delegates here — can never silently form a
    /// mutual recursion with a defaulted body; forgetting `solve_par`
    /// is a compile error, not a runtime stack overflow.
    fn solve_par(&self, input: &Self::Input, cfg: &RunConfig) -> Report<Self::Output>;
}

/// Implements the prepare/query half of [`PhaseAlgorithm`] for a family
/// whose instances need no preprocessing: `Prepared` is `()` and
/// `solve_prepared` delegates to `solve_par`.
///
/// Use inside the `impl PhaseAlgorithm for …` block.
///
/// ```
/// use phase_parallel::{PhaseAlgorithm, Report, RunConfig, Solver};
///
/// struct Doubler;
/// impl PhaseAlgorithm for Doubler {
///     type Input = [u64];
///     type Output = Vec<u64>;
///     phase_parallel::impl_no_prepare!();
///     fn name(&self) -> &'static str { "doubler" }
///     fn solve_seq(&self, input: &[u64]) -> Vec<u64> {
///         input.iter().map(|x| x * 2).collect()
///     }
///     fn solve_par(&self, input: &[u64], _cfg: &RunConfig) -> Report<Vec<u64>> {
///         Report::plain(self.solve_seq(input))
///     }
/// }
///
/// let solver = Solver::new(Doubler);
/// let mut prepared = solver.prepare(&[1, 2, 3]);
/// assert_eq!(prepared.solve().output, vec![2, 4, 6]);
/// ```
#[macro_export]
macro_rules! impl_no_prepare {
    () => {
        type Prepared = ();

        fn prepare(&self, _input: &Self::Input) {}

        fn solve_prepared(
            &self,
            input: &Self::Input,
            _prepared: &(),
            _scratch: &mut $crate::Scratch,
            cfg: &$crate::RunConfig,
        ) -> $crate::Report<Self::Output> {
            self.solve_par(input, cfg)
        }
    };
}

/// An algorithm bound to a configuration: the reusable handle that
/// benches, CLIs and service layers drive.
///
/// ```
/// use phase_parallel::{PhaseAlgorithm, Report, RunConfig, Solver};
///
/// struct Doubler;
/// impl PhaseAlgorithm for Doubler {
///     type Input = [u64];
///     type Output = Vec<u64>;
///     phase_parallel::impl_no_prepare!();
///     fn name(&self) -> &'static str { "doubler" }
///     fn solve_seq(&self, input: &[u64]) -> Vec<u64> {
///         input.iter().map(|x| x * 2).collect()
///     }
///     fn solve_par(&self, input: &[u64], _cfg: &RunConfig) -> Report<Vec<u64>> {
///         Report::plain(self.solve_seq(input))
///     }
/// }
///
/// let solver = Solver::new(Doubler).with_config(RunConfig::seeded(9));
/// let report = solver.solve(&[1, 2, 3]);
/// assert_eq!(report.output, vec![2, 4, 6]);
/// assert_eq!(solver.solve_seq(&[5]), vec![10]);
/// ```
pub struct Solver<A: PhaseAlgorithm> {
    algo: A,
    cfg: RunConfig,
    /// Built once from `cfg.threads` so repeated solves reuse it;
    /// rebuilt only when the thread count actually changes.
    pool: Option<rayon::ThreadPool>,
    /// Number of dedicated pools built over this solver's lifetime
    /// (diagnostics; lets tests pin down that reconfiguration without a
    /// thread-count change does not thrash the pool). Building a pool
    /// spawns real worker threads now, so avoiding a rebuild saves
    /// actual OS work — this counter is the regression tripwire for
    /// that caching.
    pool_builds: u32,
}

impl<A: PhaseAlgorithm> Solver<A> {
    /// Bind `algo` to the default configuration.
    pub fn new(algo: A) -> Self {
        Self {
            algo,
            cfg: RunConfig::default(),
            pool: None,
            pool_builds: 0,
        }
    }

    /// Replace the configuration. The dedicated thread pool is rebuilt
    /// only if [`RunConfig::threads`] actually changed.
    pub fn with_config(mut self, cfg: RunConfig) -> Self {
        if cfg.threads != self.cfg.threads {
            self.pool = cfg.build_pool();
            self.pool_builds += u32::from(self.pool.is_some());
        }
        self.cfg = cfg;
        self
    }

    /// Edit the configuration in place via the builder methods.
    pub fn configure(self, f: impl FnOnce(RunConfig) -> RunConfig) -> Self {
        let cfg = f(self.cfg.clone());
        self.with_config(cfg)
    }

    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// How many dedicated pools this solver has built (diagnostics).
    /// Each build spawns `threads` OS workers, so repeated solves must
    /// reuse the cached pool; `with_config` rebuilds only on an actual
    /// thread-count change, and this counter proves it.
    pub fn pool_builds(&self) -> u32 {
        self.pool_builds
    }

    pub fn algorithm(&self) -> &A {
        &self.algo
    }

    /// Phase-parallel run under the bound configuration (inside the
    /// cached dedicated pool when `threads` is set).
    pub fn solve(&self, input: &A::Input) -> Report<A::Output>
    where
        A: Sync,
        A::Input: Sync,
        A::Output: Send,
    {
        self.solve_with(input, &self.cfg)
    }

    /// Phase-parallel run under a per-call configuration, still inside
    /// this solver's cached pool — the one-shot counterpart of
    /// [`PreparedSolver::solve_with`] (the per-call config's `threads`
    /// field does not re-pool; set threads on the solver).
    pub fn solve_with(&self, input: &A::Input, cfg: &RunConfig) -> Report<A::Output>
    where
        A: Sync,
        A::Input: Sync,
        A::Output: Send,
    {
        let algo = &self.algo;
        let run = || {
            let before = rayon::scheduler_counters();
            let mut report = algo.solve_par(input, cfg);
            let delta = rayon::scheduler_counters().since(&before);
            record_sched_counters(&mut report.stats, delta);
            report
        };
        match &self.pool {
            Some(pool) => pool.install(run),
            None => run(),
        }
    }

    /// Build the amortized instance for `input` and return a handle
    /// that serves repeated queries against it. The handle borrows this
    /// solver (configuration + cached pool) and the input.
    pub fn prepare<'s, 'i>(&'s self, input: &'i A::Input) -> PreparedSolver<'s, 'i, A> {
        PreparedSolver {
            solver: self,
            input,
            prepared: self.algo.prepare(input),
            scratch: Scratch::new(),
            batch_scratch: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// The sequential baseline.
    pub fn solve_seq(&self, input: &A::Input) -> A::Output {
        self.algo.solve_seq(input)
    }

    /// Run both executions and assert sequential equivalence; returns
    /// the parallel report. Used by tests and sanity harnesses.
    pub fn solve_checked(&self, input: &A::Input) -> Report<A::Output>
    where
        A: Sync,
        A::Input: Sync,
        A::Output: Send + PartialEq + std::fmt::Debug,
    {
        let report = self.solve(input);
        let baseline = self.solve_seq(input);
        assert_eq!(
            report.output,
            baseline,
            "{}: parallel output diverged from the sequential baseline",
            self.algo.name()
        );
        report
    }
}

/// A [`Solver`] bound to one prepared instance: the handle a service
/// holds to answer repeated queries against a fixed input. Created by
/// [`Solver::prepare`].
///
/// Point queries ([`PreparedSolver::solve`], [`PreparedSolver::solve_with`])
/// reuse one internal [`Scratch`] workspace, so their hot buffers are
/// allocated once across the handle's lifetime. Batches
/// ([`PreparedSolver::solve_batch`]) fan out across the solver's cached
/// thread pool with one workspace per worker, drawn from (and returned
/// to) a pool that persists across batches.
pub struct PreparedSolver<'s, 'i, A: PhaseAlgorithm> {
    solver: &'s Solver<A>,
    input: &'i A::Input,
    prepared: A::Prepared,
    scratch: Scratch,
    /// Worker workspaces parked between `solve_batch` calls, so batch
    /// buffer reuse spans the handle's whole lifetime, not one batch.
    batch_scratch: std::sync::Mutex<Vec<Scratch>>,
}

/// Hands a pooled [`Scratch`] to one batch worker and returns it to the
/// pool when the worker's state is dropped (`map_init` drops each
/// chunk's state when its chunk completes). Workers run on distinct
/// threads, so checkout and return both go through the shared
/// `Mutex` — the workspaces themselves are never aliased: each lives
/// in exactly one chunk's state while checked out.
struct PooledScratch<'p> {
    scratch: Option<Scratch>,
    pool: &'p std::sync::Mutex<Vec<Scratch>>,
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let (Some(scratch), Ok(mut pool)) = (self.scratch.take(), self.pool.lock()) {
            pool.push(scratch);
        }
    }
}

impl<A: PhaseAlgorithm> PreparedSolver<'_, '_, A> {
    /// The configuration queries run under by default.
    pub fn config(&self) -> &RunConfig {
        self.solver.config()
    }

    /// The internal workspace (diagnostics: buffer-reuse counters).
    pub fn scratch(&self) -> &Scratch {
        &self.scratch
    }

    /// One query under the solver's bound configuration.
    pub fn solve(&mut self) -> Report<A::Output>
    where
        A: Sync,
        A::Input: Sync,
        A::Prepared: Sync,
        A::Output: Send,
    {
        let solver = self.solver;
        self.solve_with(&solver.cfg)
    }

    /// One query under a per-query configuration (seed, knobs, and —
    /// for SSSP-style families — [`RunConfig::source`]). The query runs
    /// inside the solver's cached pool; the per-query `threads` field
    /// does not re-pool.
    pub fn solve_with(&mut self, cfg: &RunConfig) -> Report<A::Output>
    where
        A: Sync,
        A::Input: Sync,
        A::Prepared: Sync,
        A::Output: Send,
    {
        let solver = self.solver;
        let algo = &solver.algo;
        let (input, prepared, scratch) = (self.input, &self.prepared, &mut self.scratch);
        let mut run = move || {
            let before = rayon::scheduler_counters();
            let mut report = algo.solve_prepared(input, prepared, scratch, cfg);
            let delta = rayon::scheduler_counters().since(&before);
            record_sched_counters(&mut report.stats, delta);
            report
        };
        match &solver.pool {
            Some(pool) => pool.install(run),
            None => run(),
        }
    }

    /// Answer a whole batch of queries against the prepared instance:
    /// queries genuinely fan out across the solver's cached thread
    /// pool (one [`Scratch`] per worker chunk, so the hot query path
    /// touches no locks — only checkout/return do) and the per-query
    /// reports come back, in query order, with an aggregated batch
    /// summary. Worker workspaces come from a pool that persists
    /// across `solve_batch` calls, so repeated batches on one handle
    /// stay allocation-free in steady state.
    pub fn solve_batch(&self, queries: &[RunConfig]) -> BatchReport<A::Output>
    where
        A: Sync,
        A::Input: Sync,
        A::Prepared: Sync,
        A::Output: Send,
    {
        use rayon::prelude::*;
        let solver = self.solver;
        let algo = &solver.algo;
        let (input, prepared) = (self.input, &self.prepared);
        let pool = &self.batch_scratch;
        let run = move || {
            let before = rayon::scheduler_counters();
            let reports = queries
                .par_iter()
                .map_init(
                    || PooledScratch {
                        scratch: Some(
                            pool.lock()
                                .map(|mut p| p.pop())
                                .ok()
                                .flatten()
                                .unwrap_or_default(),
                        ),
                        pool,
                    },
                    |pooled, q| {
                        let scratch = pooled.scratch.as_mut().expect("present until drop");
                        algo.solve_prepared(input, prepared, scratch, q)
                    },
                )
                .collect::<Vec<Report<A::Output>>>();
            let delta = rayon::scheduler_counters().since(&before);
            (reports, delta)
        };
        let (reports, delta) = match &solver.pool {
            Some(thread_pool) => thread_pool.install(run),
            None => run(),
        };
        let mut batch = BatchReport::from_reports(reports);
        // Batch-level scheduler activity: measured across the whole
        // fan-out (the per-query reports inside carry no `sched_*`
        // counters of their own — `solve_prepared` is called directly
        // here — so the aggregate is not double-counted by `merge`).
        record_sched_counters(&mut batch.stats, delta);
        batch
    }

    /// Number of worker workspaces currently parked between batches
    /// (diagnostics).
    pub fn pooled_scratches(&self) -> usize {
        self.batch_scratch.lock().map(|p| p.len()).unwrap_or(0)
    }
}

/// The result of a batched solve: every per-query [`Report`] plus one
/// aggregated [`ExecutionStats`] (rounds and named counters summed,
/// frontier sizes concatenated — see [`ExecutionStats::merge`]).
#[derive(Clone, Debug)]
pub struct BatchReport<T> {
    /// Per-query reports, in query order.
    pub reports: Vec<Report<T>>,
    /// Batch-level summary statistics.
    pub stats: ExecutionStats,
}

impl<T> BatchReport<T> {
    /// Aggregate a batch from its per-query reports.
    pub fn from_reports(reports: Vec<Report<T>>) -> Self {
        let mut stats = ExecutionStats::default();
        for r in &reports {
            stats.merge(&r.stats);
        }
        Self { reports, stats }
    }

    /// Number of queries answered.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// True iff the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Per-query outputs, in query order.
    pub fn outputs(&self) -> impl Iterator<Item = &T> {
        self.reports.iter().map(|r| &r.output)
    }

    /// Consume the batch into its outputs.
    pub fn into_outputs(self) -> Vec<T> {
        self.reports.into_iter().map(|r| r.output).collect()
    }

    /// Total rounds executed across the batch.
    pub fn total_rounds(&self) -> usize {
        self.stats.rounds
    }

    /// Largest frontier any query saw.
    pub fn max_frontier(&self) -> usize {
        self.stats.max_frontier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountUp;

    impl PhaseAlgorithm for CountUp {
        type Input = [u32];
        type Output = u64;
        crate::impl_no_prepare!();
        fn name(&self) -> &'static str {
            "count-up"
        }
        fn solve_seq(&self, input: &[u32]) -> u64 {
            input.iter().map(|&x| u64::from(x)).sum()
        }
        fn solve_par(&self, input: &[u32], cfg: &RunConfig) -> Report<u64> {
            let mut stats = ExecutionStats::default();
            stats.record_round(input.len());
            stats.set_counter("seed_echo", cfg.seed);
            Report::new(self.solve_seq(input), stats)
        }
    }

    /// `CountUp` whose every query busy-waits for 80 us first.
    struct SpinUp;

    impl PhaseAlgorithm for SpinUp {
        type Input = [u32];
        type Output = u64;
        crate::impl_no_prepare!();
        fn name(&self) -> &'static str {
            "spin-up"
        }
        fn solve_seq(&self, input: &[u32]) -> u64 {
            CountUp.solve_seq(input)
        }
        fn solve_par(&self, input: &[u32], cfg: &RunConfig) -> Report<u64> {
            let start = std::time::Instant::now();
            while start.elapsed() < std::time::Duration::from_micros(80) {
                std::hint::spin_loop();
            }
            CountUp.solve_par(input, cfg)
        }
    }

    #[test]
    fn builder_chains() {
        let cfg = RunConfig::seeded(5)
            .with_pivot_mode(PivotMode::RightMost)
            .with_delta(64)
            .with_rho(128)
            .with_threads(2)
            .with_priority_source(PrioritySource::LargestDegreeFirst);
        assert_eq!(cfg.seed, 5);
        assert_eq!(cfg.pivot_mode, PivotMode::RightMost);
        assert_eq!(cfg.delta, Some(64));
        assert_eq!(cfg.rho, Some(128));
        assert_eq!(cfg.threads, Some(2));
        assert_eq!(cfg.priority_source, PrioritySource::LargestDegreeFirst);
    }

    #[test]
    fn solver_runs_and_checks() {
        let solver = Solver::new(CountUp).with_config(RunConfig::seeded(9));
        let report = solver.solve_checked(&[1, 2, 3, 4]);
        assert_eq!(report.output, 10);
        assert_eq!(report.stats.counter("seed_echo"), Some(9));
        assert_eq!(report.stats.rounds, 1);
    }

    #[test]
    fn threads_config_installs_pool() {
        let solver = Solver::new(CountUp).configure(|c| c.with_threads(1));
        assert_eq!(solver.solve(&[7, 8]).output, 15);
    }

    #[test]
    fn pool_rebuilt_only_on_thread_change() {
        let solver = Solver::new(CountUp);
        assert_eq!(solver.pool_builds(), 0);
        let solver = solver.configure(|c| c.with_threads(2));
        assert_eq!(solver.pool_builds(), 1);
        // Reconfiguring without touching `threads` must not re-pool.
        let solver = solver.configure(|c| c.with_seed(9));
        let cfg = solver.config().clone().with_delta(4);
        let solver = solver.with_config(cfg);
        assert_eq!(solver.pool_builds(), 1);
        // Same thread count again: still cached.
        let solver = solver.configure(|c| c.with_threads(2));
        assert_eq!(solver.pool_builds(), 1);
        // A real change rebuilds.
        let solver = solver.configure(|c| c.with_threads(3));
        assert_eq!(solver.pool_builds(), 2);
        assert_eq!(solver.solve(&[1, 2]).output, 3);
    }

    #[test]
    fn prepared_solver_point_and_batch() {
        let solver = Solver::new(CountUp).with_config(RunConfig::seeded(4));
        let input = [1u32, 2, 3];
        let mut prepared = solver.prepare(&input);
        let r = prepared.solve();
        assert_eq!(r.output, 6);
        assert_eq!(r.stats.counter("seed_echo"), Some(4));
        let r = prepared.solve_with(&RunConfig::seeded(11));
        assert_eq!(r.stats.counter("seed_echo"), Some(11));

        let queries: Vec<RunConfig> = (0..5).map(RunConfig::seeded).collect();
        let batch = prepared.solve_batch(&queries);
        assert_eq!(batch.len(), 5);
        assert!(batch.outputs().all(|&o| o == 6));
        // Merged stats: one round of size 3 per query.
        assert_eq!(batch.total_rounds(), 5);
        assert_eq!(batch.max_frontier(), 3);
        assert_eq!(batch.stats.processed(), 15);
        assert_eq!(batch.into_outputs(), vec![6; 5]);

        // Worker workspaces return to the pool and survive into the
        // next batch (cross-batch buffer amortization).
        assert!(prepared.pooled_scratches() >= 1);
        let again = prepared.solve_batch(&queries);
        assert_eq!(again.len(), 5);
        assert!(prepared.pooled_scratches() >= 1, "workspaces must return");
    }

    #[test]
    fn sched_counters_recorded_on_solve_and_batch() {
        let solver = Solver::new(CountUp).configure(|c| c.with_threads(2));
        let report = solver.solve(&[1, 2, 3]);
        for name in [
            "sched_queue_locks",
            "sched_steals",
            "sched_parks",
            "sched_injector_pushes",
            "sched_jobs",
        ] {
            assert!(
                report.stats.counter(name).is_some(),
                "solve must record {name}"
            );
        }

        // Each query spins 4x the shim's 20 us inline budget, so the
        // caller runs only the first query inline and publishes the
        // other seven. Two workers plus the helping caller cannot each
        // have run at most one of seven jobs, so some executor finished
        // a job before the batch returned.
        let spinner = Solver::new(SpinUp).configure(|c| c.with_threads(2));
        let input = [1u32, 2, 3];
        let prepared = spinner.prepare(&input);
        let queries: Vec<RunConfig> = (0..8).map(RunConfig::seeded).collect();
        let batch = prepared.solve_batch(&queries);
        assert!(batch.outputs().all(|&o| o == 6));
        assert!(
            batch.stats.counter("sched_jobs").is_some_and(|j| j >= 1),
            "a 2-thread batch fan-out must execute pool jobs"
        );
        assert!(batch.stats.counter("sched_steals").is_some());
        assert!(batch.stats.counter("sched_parks").is_some());
    }

    #[test]
    fn report_map_keeps_stats() {
        let mut stats = ExecutionStats::default();
        stats.record_round(3);
        let r = Report::new(21u32, stats).map(|x| x * 2);
        assert_eq!(r.output, 42);
        assert_eq!(r.stats.rounds, 1);
    }
}
