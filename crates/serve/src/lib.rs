//! # `pp-serve` — the concurrent serving tier
//!
//! The production-scale step the prepare/query split was built for:
//! one process serving a heavy stream of point queries across many
//! scenarios, the way a routing or analytics service would — prepare
//! each instance **once**, share it immutably across every worker, keep
//! the hot instances resident, and report tail latency, not just
//! aggregate throughput.
//!
//! Three layers:
//!
//! * **Shared instances** — [`SharedPrepared`] (from
//!   `pp_algos::serving`): an `Arc`-owned prepared instance any number
//!   of workers query concurrently, each with its own
//!   [`Scratch`]. The conformance contract —
//!   shared-concurrent digests equal single-threaded prepared digests
//!   equal one-shot digests, registry-wide — is enforced by this
//!   crate's test suite.
//! * **Instance cache** — [`InstanceCache`]: scenario-keyed LRU under a
//!   cost budget, with single-flight preparation and monotone
//!   hit/miss/coalesced/eviction counters (exported through
//!   [`ExecutionStats`] named counters).
//! * **Trace driver** — [`ServingTier`]: replays a deterministic
//!   Zipf-skewed [`QueryTrace`] (from `pp_workloads::trace`) through
//!   the cache on a worker pool, timing every query into an HDR-style
//!   [`LatencyHistogram`] and digesting every answer so a served trace
//!   can be checked against the freshly-prepared path bit-for-bit.
//!
//! Plus a **resilience layer** at the driver boundary: per-query
//! deadlines (cooperative cancellation polled inside the engines),
//! panic isolation with scratch quarantine and instance poison
//! eviction, bounded-in-flight admission control, and deterministic
//! seeded retry. Every query resolves to a typed [`QueryOutcome`] row,
//! and every fault the tier absorbs is counted in the report stats
//! (`deadline_exceeded`, `panics_isolated`, `queries_rejected`,
//! `retries`, `scratch_quarantined`, `validation_rejected`). Faults
//! themselves are injected —
//! deterministically, seeded — through `pp_check::fault` probes
//! compiled in under `--cfg pp_fault`.
//!
//! ```
//! use pp_serve::{ServeOptions, ServingTier};
//! use pp_workloads::{QueryTrace, ScenarioSpec, TraceConfig};
//!
//! let scenarios = [
//!     ScenarioSpec::parse("graph/rmat+w/uniform").unwrap(),
//!     ScenarioSpec::parse("graph/grid2d+w/unit").unwrap(),
//! ];
//! let trace = QueryTrace::generate(&scenarios, &TraceConfig::new(40, 7));
//! let tier = ServingTier::new("sssp/delta", ServeOptions::new(200, 3)).unwrap();
//! let report = tier.serve_trace(&trace);
//! assert_eq!(report.queries, 40);
//! assert_eq!(report.digest, tier.reference_digest(&trace)); // served == fresh
//! assert!(report.counters.hit_rate() > 0.9); // two tenants, forty queries
//! ```

#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod hist;

pub use admission::{AdmissionGate, AdmissionPermit};
pub use cache::{CacheCounters, InstanceCache};
pub use hist::LatencyHistogram;
pub use pp_algos::serving::{estimated_cost_bytes, ServedQuery, SharedPrepared};

use phase_parallel::{CancelToken, ExecutionStats, RunConfig, Scratch};
use pp_algos::registry::{self, AlgorithmEntry, CaseSpec, Digest, RegistryError};
use pp_check::fault;
use pp_workloads::{QueryTrace, TraceQuery};
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Serving-tier knobs: instance sizing, worker pool width, the cache
/// budget, and the resilience policy (deadline, admission, retry).
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Nominal instance size every cached instance is generated at
    /// (vertices / elements — the `CaseSpec::size`).
    pub instance_size: usize,
    /// Instance-generation seed (`CaseSpec::seed`).
    pub instance_seed: u64,
    /// Threads replaying the trace, the calling thread included: the
    /// serving pool spawns `threads − 1` workers, and the caller of
    /// [`ServingTier::serve_trace`] serves its share. 1 = sequential,
    /// on the caller alone.
    pub threads: usize,
    /// Cache cost budget in bytes. The default fits every default
    /// scenario of one entry at once (16 instances' worth).
    pub cache_budget_bytes: usize,
    /// Per-query wall-clock budget. `None` (the default) runs
    /// unbounded; `Some` arms a [`CancelToken`] the engine loops poll,
    /// turning a blown budget into a typed
    /// [`QueryOutcome::DeadlineExceeded`] row instead of a stuck worker.
    pub deadline: Option<Duration>,
    /// Bounded in-flight budget. `None` (the default) admits
    /// everything; `Some(limit)` sheds queries over the limit as typed
    /// [`QueryOutcome::Rejected`] rows (see [`AdmissionGate`]).
    pub admission_limit: Option<usize>,
    /// Retries after a failed attempt (deadline blown, panic isolated)
    /// before the failure becomes the query's final outcome. Retries
    /// back off deterministically from the query seed.
    pub max_retries: u32,
}

impl ServeOptions {
    pub fn new(instance_size: usize, instance_seed: u64) -> Self {
        Self {
            instance_size,
            instance_seed,
            threads: 1,
            cache_budget_bytes: 16 * estimated_cost_bytes(instance_size),
            deadline: None,
            admission_limit: None,
            max_retries: 2,
        }
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    pub fn with_cache_budget_bytes(mut self, budget: usize) -> Self {
        self.cache_budget_bytes = budget;
        self
    }

    /// Arm a per-query wall-clock budget.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Bound concurrent in-flight queries, shedding the excess.
    pub fn with_admission_limit(mut self, limit: usize) -> Self {
        self.admission_limit = Some(limit);
        self
    }

    /// Retries after a failed attempt (0 = fail fast).
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }
}

/// A served query's final, typed disposition — one row per trace query
/// in [`TraceReport::outcomes`], in trace order. Every fault the tier
/// absorbs surfaces here; nothing is swallowed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryOutcome {
    /// The query completed; its digest participates in the trace digest.
    Completed,
    /// Every attempt blew its deadline (armed or fault-forced). The
    /// digest contribution is a fixed sentinel — partial outputs never
    /// enter the conformance chain.
    DeadlineExceeded,
    /// Every retry budgeted attempt ended in an isolated panic; the
    /// worker, pool and process all survived.
    PanicIsolated,
    /// Shed by admission control before any work ran.
    Rejected,
    /// The query failed typed input validation
    /// ([`AlgorithmEntry::validate_case`](pp_algos::registry::AlgorithmEntry::validate_case))
    /// before any work ran: an incompatible scenario, a hostile knob
    /// (e.g. an out-of-range source vertex), or a graph that failed CSR
    /// validation. Never a panic, never a poison strike against the
    /// resident instance.
    InvalidInput,
}

/// The result of replaying one trace through a [`ServingTier`].
#[derive(Debug)]
pub struct TraceReport {
    /// FNV digest over the per-query output digests, in trace order —
    /// thread-count independent, comparable against
    /// [`ServingTier::reference_digest`].
    pub digest: u64,
    /// Per-query service latency (cache lookup + query; a cold query
    /// pays its instance's preparation here, which is exactly what the
    /// tail percentiles should show).
    pub latency: LatencyHistogram,
    /// Merged per-query execution stats plus the cache counters.
    pub stats: ExecutionStats,
    /// Cache counter snapshot after the replay.
    pub counters: CacheCounters,
    /// Per-query typed outcomes, in trace order. Under a fixed fault
    /// seed this sequence is reproducible run to run — the replay
    /// invariant `tests/resilience.rs::seeded_faults_are_typed_and_replayable`
    /// asserts.
    pub outcomes: Vec<QueryOutcome>,
    /// Queries served.
    pub queries: usize,
    /// Wall-clock for the whole replay.
    pub elapsed: Duration,
}

impl TraceReport {
    /// Aggregate queries per second over the replay.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// How many queries ended in `outcome`.
    pub fn outcome_count(&self, outcome: QueryOutcome) -> usize {
        self.outcomes.iter().filter(|&&o| o == outcome).count()
    }
}

/// One query's fully-resolved result inside `serve_trace`'s fan-out.
struct Row {
    digest: u64,
    nanos: u64,
    stats: ExecutionStats,
    outcome: QueryOutcome,
    /// Attempts beyond the first.
    retries: u64,
    /// Panics caught across all attempts.
    panics: u64,
    /// Attempts that observed a tripped deadline.
    deadline_hits: u64,
    /// Scratch workspaces quarantined across all attempts.
    quarantined: u64,
}

impl Row {
    /// The admission-shed row: no work ran, nothing to account.
    fn shed() -> Self {
        Row {
            digest: 0,
            nanos: 0,
            stats: ExecutionStats::default(),
            outcome: QueryOutcome::Rejected,
            retries: 0,
            panics: 0,
            deadline_hits: 0,
            quarantined: 0,
        }
    }

    /// The typed validation-rejection row: the input never reached the
    /// cache or an engine, so nothing is retried and nothing is
    /// poisoned.
    fn invalid() -> Self {
        Row {
            outcome: QueryOutcome::InvalidInput,
            ..Row::shed()
        }
    }
}

/// Deterministic retry backoff: a short pause (< 66 µs) derived purely
/// from the query seed and attempt index, doubling per attempt. Enough
/// to de-synchronize a retry stampede without slowing smoke traces.
fn retry_backoff(seed: u64, attempt: u64) -> Duration {
    let jitter = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48; // 0..65536
    Duration::from_nanos(jitter << attempt.min(4))
}

/// One registry entry served behind a cache and a worker pool.
pub struct ServingTier {
    entry: &'static AlgorithmEntry,
    options: ServeOptions,
    cache: InstanceCache,
    pool: rayon::ThreadPool,
    /// Sequential pool cold preparations run under. Keeping a miss
    /// leader's `prepare()` off the serving pool matters on the
    /// workspace's helping scheduler: a leader that waited on nested
    /// fork-join latches *inside* the serving pool would drain that
    /// pool's queue and could execute another serving job mid-prepare —
    /// which must then bypass the leader's own in-flight slot (it may
    /// be stacked on it) and pay a redundant preparation. Preparing
    /// under a one-thread pool runs the nested regions inline instead,
    /// so flights always have exactly one leader making progress. A
    /// one-thread pool is the caller alone: no OS thread stands behind
    /// it, so installing it only switches the leader's regions to
    /// inline execution.
    prep_pool: rayon::ThreadPool,
}

impl ServingTier {
    /// A tier serving `entry_name` under `options`. Unknown entries
    /// surface as [`RegistryError::UnknownEntry`].
    pub fn new(entry_name: &str, options: ServeOptions) -> Result<Self, RegistryError> {
        let entry = registry::lookup(entry_name)
            .ok_or_else(|| RegistryError::UnknownEntry(entry_name.to_string()))?;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(options.threads)
            .build()
            .expect("serving pool");
        let prep_pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .expect("preparation pool");
        Ok(Self {
            entry,
            options,
            cache: InstanceCache::new(options.cache_budget_bytes),
            pool,
            prep_pool,
        })
    }

    /// The served registry entry.
    pub fn entry(&self) -> &'static AlgorithmEntry {
        self.entry
    }

    /// The instance cache (counters, diagnostics).
    pub fn cache(&self) -> &InstanceCache {
        &self.cache
    }

    /// The cache key a trace query resolves to: entry name + the
    /// scenario's canonical
    /// [`cache_key`](pp_workloads::ScenarioSpec::cache_key) + the
    /// instance sizing, so distinct materializations never collide and
    /// equal ones never double-prepare.
    fn cache_key_for(&self, trace: &QueryTrace, query: &TraceQuery) -> String {
        format!(
            "{}|{}|n={}|seed={}",
            self.entry.name(),
            trace.scenarios[query.scenario].cache_key(),
            self.options.instance_size,
            self.options.instance_seed,
        )
    }

    fn case_for(&self, trace: &QueryTrace, query: &TraceQuery) -> CaseSpec {
        CaseSpec::new(self.options.instance_size, self.options.instance_seed)
            .with_scenario(trace.scenarios[query.scenario])
    }

    /// The per-query run configuration: the trace's per-query seed and
    /// the Zipf source rank mapped into the instance universe (scenario
    /// graphs materialize at least `instance_size` vertices, so the
    /// mapped source always exists; sequence entries ignore it).
    fn config_for(&self, query: &TraceQuery) -> RunConfig {
        RunConfig::seeded(query.seed).with_source(query.source_in(self.options.instance_size))
    }

    /// Replay `trace` through the cache on the tier's worker pool: each
    /// worker resolves the query's instance (hit, coalesced wait, or
    /// single-flight preparation), runs it against its own scratch, and
    /// times the whole service. Per-query digests chain in trace order,
    /// so the report digest is independent of the worker count.
    ///
    /// Resilience semantics (all policy knobs on [`ServeOptions`]):
    ///
    /// * A query that panics is caught at this boundary
    ///   ([`QueryOutcome::PanicIsolated`]): its scratch workspace is
    ///   quarantined (dropped and replaced — buffers checked out at
    ///   unwind are in unknown state), the resident instance takes a
    ///   poison strike ([`InstanceCache::record_query_panic`]), and the
    ///   attempt is retried up to `max_retries` times.
    /// * A blown deadline is a typed
    ///   [`QueryOutcome::DeadlineExceeded`], also retried.
    /// * Over the admission limit, queries shed as
    ///   [`QueryOutcome::Rejected`] without running.
    ///
    /// Failed queries contribute a fixed sentinel (0) to the digest
    /// chain, so the trace digest stays deterministic under faults; the
    /// happy path (no faults, generous or absent deadline) is
    /// byte-identical to [`ServingTier::reference_digest`]. Attempt
    /// accounting lands in the report stats under `deadline_exceeded`,
    /// `panics_isolated`, `queries_rejected`, `retries`,
    /// `scratch_quarantined` and `validation_rejected` (always
    /// exported, zero or not).
    ///
    /// * An input that fails typed validation (incompatible scenario,
    ///   hostile knob, invalid graph) is a
    ///   [`QueryOutcome::InvalidInput`] row before any attempt runs.
    pub fn serve_trace(&self, trace: &QueryTrace) -> TraceReport {
        let started = Instant::now();
        let gate = self.options.admission_limit.map(AdmissionGate::new);
        let served: Vec<Row> = self.pool.install(|| {
            trace
                .queries
                .par_iter()
                .map_init(Scratch::new, |scratch, query| {
                    let t = Instant::now();
                    let mut row = self.serve_one(trace, query, scratch, gate.as_ref());
                    row.nanos = t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                    row
                })
                .collect()
        });
        let elapsed = started.elapsed();

        let mut latency = LatencyHistogram::new();
        let mut stats = ExecutionStats::default();
        let mut outcomes = Vec::with_capacity(served.len());
        let mut deadline_exceeded = 0u64;
        let mut panics_isolated = 0u64;
        let mut retries = 0u64;
        let mut quarantined = 0u64;
        let digests: Vec<u64> = served
            .into_iter()
            .map(|row| {
                latency.record(row.nanos);
                stats.merge(&row.stats);
                outcomes.push(row.outcome);
                deadline_exceeded += row.deadline_hits;
                panics_isolated += row.panics;
                retries += row.retries;
                quarantined += row.quarantined;
                row.digest
            })
            .collect();
        self.cache.export_counters(&mut stats);
        stats.set_counter("deadline_exceeded", deadline_exceeded);
        stats.set_counter("panics_isolated", panics_isolated);
        stats.set_counter(
            "queries_rejected",
            gate.as_ref().map_or(0, AdmissionGate::rejected),
        );
        stats.set_counter("retries", retries);
        stats.set_counter("scratch_quarantined", quarantined);
        stats.set_counter(
            "validation_rejected",
            outcomes
                .iter()
                .filter(|&&o| o == QueryOutcome::InvalidInput)
                .count() as u64,
        );

        TraceReport {
            digest: digests.digest(),
            latency,
            stats,
            counters: self.cache.snapshot(),
            outcomes,
            queries: trace.len(),
            elapsed,
        }
    }

    /// One query, end to end: admission, then up to `1 + max_retries`
    /// attempts, each under its own cancellation token and fault keys,
    /// with panics caught (and the workspace quarantined) at this
    /// boundary. Returns the final typed row; `nanos` is filled by the
    /// caller.
    fn serve_one(
        &self,
        trace: &QueryTrace,
        query: &TraceQuery,
        scratch: &mut Scratch,
        gate: Option<&AdmissionGate>,
    ) -> Row {
        let _permit = match gate {
            Some(gate) => match gate.try_enter() {
                Some(permit) => Some(permit),
                None => return Row::shed(),
            },
            None => None,
        };

        let key = self.cache_key_for(trace, query);
        let case = self.case_for(trace, query);
        let base_cfg = self.config_for(query);

        // Typed validation gate: a hostile or incompatible input is
        // rejected here — before the cache, before any attempt — as an
        // `InvalidInput` row. It never panics a worker and never counts
        // as a poison strike against a resident instance.
        if self.entry.validate_case(&case, &base_cfg).is_err() {
            return Row::invalid();
        }

        let mut retries = 0u64;
        let mut panics = 0u64;
        let mut deadline_hits = 0u64;
        let mut quarantined = 0u64;
        let mut last_failure = QueryOutcome::DeadlineExceeded;
        let mut last_stats = ExecutionStats::default();

        for attempt in 0..=u64::from(self.options.max_retries) {
            if attempt > 0 {
                retries += 1;
                std::thread::sleep(retry_backoff(query.seed, attempt));
            }
            // Every fault decision for this attempt keys off the query
            // seed salted by the attempt index: pure-hash faults
            // (pp_check::fault) fire identically across runs and thread
            // counts, yet a retry rolls fresh decisions.
            let attempt_key = query.seed ^ attempt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut cfg = base_cfg.clone();
            if let Some(budget) = self.options.deadline {
                cfg = cfg.with_deadline(budget);
            }
            if fault::fires("serve.query.deadline", attempt_key) {
                // Forced expiry: a pre-tripped token, so even entries
                // whose engines never poll take the deadline path.
                let token = CancelToken::new();
                token.cancel();
                cfg = cfg.with_cancel_token(token);
            }
            // Driver-level poll: catches pre-expired budgets and forced
            // expiry uniformly, for polling and non-polling entries.
            if cfg.is_cancelled() {
                deadline_hits += 1;
                last_failure = QueryOutcome::DeadlineExceeded;
                last_stats = ExecutionStats::default();
                continue;
            }
            // UnwindSafe assertion: on a caught panic the only state the
            // closure could have torn — the worker's scratch — is
            // quarantined below, and the cache's own unwind paths
            // (FlightGuard, poison strikes) restore its invariants.
            let attempt_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let instance = self.cache.get_or_prepare(&key, || {
                    fault::panic_point("serve.prepare.panic", attempt_key);
                    self.prep_pool
                        .install(|| self.entry.prepare_shared(&case, &cfg))
                });
                fault::panic_point("serve.query.panic", attempt_key);
                instance.query(scratch, &cfg)
            }));
            match attempt_result {
                Ok(answer) => {
                    if answer.outcome.is_complete() {
                        return Row {
                            digest: answer.digest,
                            nanos: 0,
                            stats: answer.stats,
                            outcome: QueryOutcome::Completed,
                            retries,
                            panics,
                            deadline_hits,
                            quarantined,
                        };
                    }
                    // The engine stopped at a cancellation poll: keep
                    // its partial stats, retry if budget remains.
                    deadline_hits += 1;
                    last_failure = QueryOutcome::DeadlineExceeded;
                    last_stats = answer.stats;
                }
                Err(_panic) => {
                    panics += 1;
                    // Quarantine: buffers checked out when the unwind
                    // tore through are unaccounted for, so the whole
                    // workspace is dropped rather than trusted.
                    *scratch = Scratch::new();
                    quarantined += 1;
                    self.cache.record_query_panic(&key);
                    last_failure = QueryOutcome::PanicIsolated;
                    last_stats = ExecutionStats::default();
                }
            }
        }

        Row {
            digest: 0,
            nanos: 0,
            stats: last_stats,
            outcome: last_failure,
            retries,
            panics,
            deadline_hits,
            quarantined,
        }
    }

    /// The freshly-prepared reference for `trace`: every query answered
    /// by a one-shot solve on a fresh instance (no cache, no sharing,
    /// no scratch reuse), digests chained in trace order. A correct
    /// serving tier replays to exactly this digest. Each distinct
    /// scenario's instance is generated once (generation is
    /// deterministic, so this loses nothing) but *queried* through the
    /// uncached one-shot path.
    pub fn reference_digest(&self, trace: &QueryTrace) -> u64 {
        let fresh: Vec<SharedPrepared> = (0..trace.scenarios.len())
            .map(|scenario| {
                let probe = TraceQuery {
                    scenario,
                    source_rank: 0,
                    seed: 0,
                };
                let case = self.case_for(trace, &probe);
                self.entry.prepare_shared(&case, &RunConfig::seeded(0))
            })
            .collect();
        let digests: Vec<u64> = trace
            .queries
            .iter()
            .map(|query| fresh[query.scenario].one_shot_digest(&self.config_for(query)))
            .collect();
        digests.digest()
    }
}

impl std::fmt::Debug for ServingTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingTier")
            .field("entry", &self.entry.name())
            .field("options", &self.options)
            .field("cache", &self.cache)
            .finish()
    }
}
