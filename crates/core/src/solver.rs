//! The unified solver API: [`RunConfig`] / [`Report`] /
//! [`PhaseAlgorithm`].
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
//!   `solve_prepared` can serve many queries against it, recycling
//!   per-query buffers through a [`Scratch`] workspace. A family's impl
//!   is its one typed entry point; the registry type-erases it for
//!   string-keyed and served callers.
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
    /// across, not a label. Honoured only through [`RunConfig::install`]
    /// (the registry's runners and the report call it); an impl's
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

    /// Run `f` under this configuration's thread budget: inside a
    /// dedicated pool when [`RunConfig::threads`] is set, directly
    /// otherwise. Builds a fresh pool per call, so a caller running many
    /// queries at one thread count wraps the whole loop in one `install`.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        match self.threads {
            Some(t) => rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("thread pool")
                .install(f),
            None => f(),
        }
    }
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
/// use phase_parallel::{PhaseAlgorithm, Report, RunConfig, Scratch};
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
/// let input = [1, 2, 3];
/// let prepared = &Doubler.prepare(&input);
/// let report = Doubler.solve_prepared(&input, prepared, &mut Scratch::new(), &RunConfig::new());
/// assert_eq!(report.output, vec![2, 4, 6]);
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn threads_config_installs_pool() {
        for t in [1, 2] {
            let cfg = RunConfig::new().with_threads(t);
            assert_eq!(cfg.install(rayon::current_num_threads), t);
        }
        let ambient = rayon::current_num_threads();
        assert_eq!(
            RunConfig::new().install(rayon::current_num_threads),
            ambient
        );
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
