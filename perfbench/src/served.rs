//! `serve-hot` and `serve-churn`: `sssp/delta` behind a
//! `pp_serve::ServingTier`, 15 graph tenants (5 families × 3 weight
//! distributions), Zipf traces replayed closed-loop by the tier's
//! `nproc` workers.
//!
//! `serve-hot` gives the cache room for every tenant and warms it during
//! set-up, so the timed phase is all hits. `serve-churn` flattens the
//! tenant skew to 1 and gives the cache about a quarter of the working
//! set, so about half the lookups miss and prepare.
//!
//! The traced run replays the same traces from this crate, on a pool and
//! cache of its own, calling the serve path's public functions in its
//! order (validate, `get_or_prepare` with a timed `prepare_shared`
//! closure, `query`) and timing each phase.

use crate::engines::{add, set_sched, Counts};
use crate::{
    build_pool, micros, quantile, ratio, Args, Block, Metrics, Outcome, Size, Threads, Workload,
    MIN_BLOCKS,
};
use phase_parallel::{ExecutionStats, RunConfig, Scratch};
use pp_algos::registry::{self, AlgorithmEntry, CaseSpec, Digest};
use pp_parlay::hash64;
use pp_serve::{estimated_cost_bytes, InstanceCache, QueryOutcome, ServeOptions, ServingTier};
use pp_workloads::{QueryTrace, ScenarioSpec, TraceConfig, TraceQuery};
use rayon::prelude::*;
use rayon::{SchedulerCounters, ThreadPool};
use std::time::{Duration, Instant};

const ENTRY: &str = "sssp/delta";
const FAMILIES: [&str; 5] = [
    "graph/uniform",
    "graph/rmat",
    "graph/grid2d",
    "graph/geometric",
    "graph/star-hub",
];
const WEIGHTS: [&str; 3] = ["w/unit", "w/uniform", "w/exp"];
/// Distinct traces a run cycles through (each is digest-checked).
const TRACES: usize = 2;
/// Set-up repetitions behind the reported median `setup_s`.
const SETUP_REPS: usize = 3;

/// Sizing of one served workload.
struct Plan {
    churn: bool,
    /// Vertices per tenant instance (`ServeOptions::instance_size`).
    n: usize,
    trace_len: usize,
    min_blocks: usize,
}

impl Plan {
    fn new(args: &Args) -> Self {
        let churn = args.workload == Workload::ServeChurn;
        match args.size {
            Size::Full => Plan {
                churn,
                n: 4000,
                trace_len: 1000,
                min_blocks: MIN_BLOCKS,
            },
            Size::Smoke => Plan {
                churn,
                n: 200,
                trace_len: 60,
                min_blocks: 1,
            },
        }
    }

    /// Hot: room for every tenant. Churn: room for 4 of the 15.
    fn cache_budget(&self) -> usize {
        let instances = if self.churn {
            4
        } else {
            FAMILIES.len() * WEIGHTS.len() + 1
        };
        instances * estimated_cost_bytes(self.n)
    }

    fn options(&self, seed: u64, threads: usize) -> ServeOptions {
        ServeOptions::new(self.n, seed)
            .with_threads(threads)
            .with_cache_budget_bytes(self.cache_budget())
    }

    fn traces(&self, seed: u64) -> Vec<QueryTrace> {
        let tenants = tenants();
        (0..TRACES as u64)
            .map(|i| {
                let config = TraceConfig::new(self.trace_len, hash64(seed, i))
                    .with_scenario_skew(if self.churn { 1 } else { 2 });
                QueryTrace::generate(&tenants, &config)
            })
            .collect()
    }

    /// The set-up's warm-up replays. Hot: one query per tenant, then each
    /// timed trace once, so the cache holds every tenant. Churn: the
    /// first trace once, so the cache is full and evicting.
    fn warm_traces(&self, traces: &[QueryTrace]) -> Vec<QueryTrace> {
        if self.churn {
            return traces[..1].to_vec();
        }
        let tenants = tenants();
        let every_tenant = QueryTrace {
            queries: (0..tenants.len())
                .map(|scenario| TraceQuery {
                    scenario,
                    source_rank: 0,
                    seed: scenario as u64,
                })
                .collect(),
            scenarios: tenants,
        };
        std::iter::once(every_tenant)
            .chain(traces.iter().cloned())
            .collect()
    }
}

fn tenants() -> Vec<ScenarioSpec> {
    FAMILIES
        .iter()
        .flat_map(|family| {
            WEIGHTS.iter().map(move |weights| {
                ScenarioSpec::parse(&format!("{family}+{weights}")).expect("built-in scenario key")
            })
        })
        .collect()
}

/// One trace replay of the timed phase: a block of the run.
struct Replay {
    trace: usize,
    digest: u64,
    queries: u64,
    failed: u64,
    block: Block,
}

fn replay(tier: &ServingTier, traces: &[QueryTrace], index: usize) -> Replay {
    let report = tier.serve_trace(&traces[index]);
    let queries = report.queries as u64;
    // The histogram's quantiles are bucketed (about 3% steps); the
    // interquartile mean across blocks smooths the steps.
    let us = |q: f64| report.latency.quantile(q).unwrap_or(0) as f64 / 1e3;
    Replay {
        trace: index,
        digest: report.digest,
        queries,
        failed: queries - report.outcome_count(QueryOutcome::Completed) as u64,
        block: Block {
            qps: queries as f64 / report.elapsed.as_secs_f64(),
            p50_us: us(0.5),
            p99_us: us(0.99),
        },
    }
}

/// Replay the traces in turn until `seconds` have passed, at least
/// `min_blocks` replays ran and every trace ran once.
fn replay_for(
    tier: &ServingTier,
    traces: &[QueryTrace],
    seconds: f64,
    min_blocks: usize,
) -> Vec<Replay> {
    let started = Instant::now();
    let mut replays: Vec<Replay> = Vec::new();
    while replays.len() < traces.len().max(min_blocks) || started.elapsed().as_secs_f64() < seconds
    {
        replays.push(replay(tier, traces, replays.len() % traces.len()));
    }
    replays
}

fn blocks(replays: &[Replay]) -> Vec<Block> {
    replays.iter().map(|r| r.block).collect()
}

/// Build the tier and warm it: the benchmark's set-up.
fn setup(plan: &Plan, seed: u64, threads: usize) -> Result<(ServingTier, Vec<QueryTrace>), String> {
    let traces = plan.traces(seed);
    let tier = ServingTier::new(ENTRY, plan.options(seed, threads)).map_err(|e| e.to_string())?;
    for warm in plan.warm_traces(&traces) {
        let report = tier.serve_trace(&warm);
        if report.outcome_count(QueryOutcome::Completed) != report.queries {
            return Err("a warm-up query did not complete".to_string());
        }
    }
    Ok((tier, traces))
}

/// Compare every fault-free replay's digest with the tier's
/// freshly-prepared reference for its trace.
fn check(tier: &ServingTier, traces: &[QueryTrace], replays: &[Replay]) -> bool {
    let reference: Vec<u64> = traces.iter().map(|t| tier.reference_digest(t)).collect();
    let mut correct = true;
    for r in replays.iter().filter(|r| r.failed == 0) {
        if r.digest != reference[r.trace] {
            eprintln!(
                "digest mismatch: trace {} served {:#x}, reference {:#x}",
                r.trace, r.digest, reference[r.trace]
            );
            correct = false;
        }
    }
    correct
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let plan = Plan::new(args);
    let nproc = crate::nproc();
    let threads = Threads {
        nproc,
        pool_width: nproc,
        caller_helps: true,
        prep_pool_threads: 1,
    };
    let (setup_s, (tier, traces)) =
        crate::median_setup(SETUP_REPS, || setup(&plan, args.seed, nproc))?;
    let mut metrics = Metrics::default();
    let replays = if args.trace {
        let untraced = replay_for(&tier, &traces, args.seconds * 0.3, 1);
        let untraced_qps = Block::qps(&blocks(&untraced));
        traced(args, &plan, &traces, threads, untraced_qps, &mut metrics)?
    } else {
        let replays = replay_for(&tier, &traces, args.seconds, plan.min_blocks);
        metrics.set_end_to_end(&blocks(&replays), setup_s);
        replays
    };
    Ok(Outcome {
        correct: check(&tier, &traces, &replays),
        attempted: replays.iter().map(|r| r.queries).sum(),
        failed: replays.iter().map(|r| r.failed).sum(),
        metrics,
        threads,
    })
}

/// One query of a traced replay, split into the serve path's phases.
#[derive(Default)]
struct Row {
    /// Cache key, case and config construction plus `validate_case`.
    validate_ns: u64,
    /// `get_or_prepare` minus the time of this query's own preparation:
    /// the hit path, or the single-flight wait of a coalesced miss.
    lookup_ns: u64,
    /// This query's own `prepare_shared`, if it led a miss.
    prepare_ns: Option<u64>,
    query_ns: u64,
    total_ns: u64,
    digest: u64,
    completed: bool,
    stats: ExecutionStats,
    takes: u64,
    reuses: u64,
}

/// The traced leg's own serving stack: pool, preparation pool, cache.
struct Stack<'a> {
    entry: &'static AlgorithmEntry,
    plan: &'a Plan,
    seed: u64,
    pool: ThreadPool,
    prep_pool: ThreadPool,
    cache: InstanceCache,
}

impl Stack<'_> {
    /// Replay `trace` on the stack's pool; rows come back in trace order.
    fn replay(&self, trace: &QueryTrace) -> (Vec<Row>, Duration, SchedulerCounters) {
        let before = self.pool.scheduler_counters();
        let started = Instant::now();
        let rows = self.pool.install(|| {
            trace
                .queries
                .par_iter()
                .map_init(Scratch::new, |scratch, query| {
                    self.serve(trace, query, scratch)
                })
                .collect()
        });
        let elapsed = started.elapsed();
        (rows, elapsed, self.pool.scheduler_counters().since(&before))
    }

    fn serve(&self, trace: &QueryTrace, query: &TraceQuery, scratch: &mut Scratch) -> Row {
        let n = self.plan.n;
        let t0 = Instant::now();
        let scenario = trace.scenarios[query.scenario];
        let key = format!(
            "{}|{}|n={n}|seed={}",
            ENTRY,
            scenario.cache_key(),
            self.seed
        );
        let case = CaseSpec::new(n, self.seed).with_scenario(scenario);
        let cfg = RunConfig::seeded(query.seed).with_source(query.source_in(n));
        let valid = self.entry.validate_case(&case, &cfg).is_ok();
        let t1 = Instant::now();
        let mut prepare_ns = None;
        let answer = valid.then(|| {
            let instance = self.cache.get_or_prepare(&key, || {
                let started = Instant::now();
                let instance = self
                    .prep_pool
                    .install(|| self.entry.prepare_shared(&case, &cfg));
                prepare_ns = Some(nanos(started.elapsed()));
                instance
            });
            let t2 = Instant::now();
            let (takes, reuses) = (scratch.takes(), scratch.reuses());
            let answer = instance.query(scratch, &cfg);
            (
                t2,
                answer,
                scratch.takes() - takes,
                scratch.reuses() - reuses,
            )
        });
        let t3 = Instant::now();
        let Some((t2, answer, takes, reuses)) = answer else {
            return Row {
                validate_ns: nanos(t1 - t0),
                total_ns: nanos(t3 - t0),
                ..Row::default()
            };
        };
        Row {
            validate_ns: nanos(t1 - t0),
            lookup_ns: nanos(t2 - t1).saturating_sub(prepare_ns.unwrap_or(0)),
            prepare_ns,
            query_ns: nanos(t3 - t2),
            total_ns: nanos(t3 - t0),
            digest: if answer.outcome.is_complete() {
                answer.digest
            } else {
                0
            },
            completed: answer.outcome.is_complete(),
            stats: answer.stats,
            takes,
            reuses,
        }
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// The traced leg: warm the stack like the set-up does, then replay the
/// traces for 70% of the run. Returns the timed replays for the digest
/// check and the error accounting.
fn traced(
    args: &Args,
    plan: &Plan,
    traces: &[QueryTrace],
    threads: Threads,
    untraced_qps: f64,
    metrics: &mut Metrics,
) -> Result<Vec<Replay>, String> {
    let stack = Stack {
        entry: registry::lookup(ENTRY).ok_or("sssp/delta is not registered")?,
        plan,
        seed: args.seed,
        pool: build_pool(threads.pool_width)?,
        prep_pool: build_pool(threads.prep_pool_threads)?,
        cache: InstanceCache::new(plan.cache_budget()),
    };
    let mut prepare_us: Vec<f64> = Vec::new();
    for warm in plan.warm_traces(traces) {
        let (rows, _, _) = stack.replay(&warm);
        prepare_us.extend(
            rows.iter()
                .filter_map(|r| r.prepare_ns)
                .map(|ns| ns as f64 / 1e3),
        );
    }

    let started = Instant::now();
    let mut replays = Vec::new();
    let mut rows_all: Vec<Row> = Vec::new();
    let mut counts = Counts::default();
    let mut sched = SchedulerCounters::default();
    while replays.len() < traces.len() || started.elapsed().as_secs_f64() < args.seconds * 0.7 {
        let index = replays.len() % traces.len();
        let (rows, elapsed, delta) = stack.replay(&traces[index]);
        if replays.len() < traces.len() {
            for row in &rows {
                counts.add(stack.entry, &row.stats);
            }
        }
        sched = add(sched, delta);
        let digests: Vec<u64> = rows.iter().map(|r| r.digest).collect();
        let failed = rows.iter().filter(|r| !r.completed).count() as u64;
        let mut total_us: Vec<f64> = rows.iter().map(|r| r.total_ns as f64 / 1e3).collect();
        replays.push(Replay {
            trace: index,
            digest: digests.digest(),
            queries: rows.len() as u64,
            failed,
            block: Block {
                qps: rows.len() as f64 / elapsed.as_secs_f64(),
                p50_us: quantile(&mut total_us, 0.5),
                p99_us: quantile(&mut total_us, 0.99),
            },
        });
        prepare_us.extend(
            rows.iter()
                .filter_map(|r| r.prepare_ns)
                .map(|ns| ns as f64 / 1e3),
        );
        rows_all.extend(rows);
    }

    let queries = rows_all.len();
    metrics.set_overhead(untraced_qps, Block::qps(&blocks(&replays)));
    let us = |f: &dyn Fn(&Row) -> u64| -> Vec<f64> {
        rows_all.iter().map(|r| f(r) as f64 / 1e3).collect()
    };
    let mut validate = us(&|r| r.validate_ns);
    let mut lookup = us(&|r| r.lookup_ns);
    let mut prepare_or_zero = us(&|r| r.prepare_ns.unwrap_or(0));
    let mut query = us(&|r| r.query_ns);
    let mut total = us(&|r| r.total_ns);
    let phases = quantile(&mut validate, 0.5)
        + quantile(&mut lookup, 0.5)
        + quantile(&mut prepare_or_zero, 0.5)
        + quantile(&mut query, 0.5);
    metrics.set("serve.validate_us_p50", quantile(&mut validate, 0.5));
    metrics.set("serve.lookup_us_p50", quantile(&mut lookup, 0.5));
    metrics.set("serve.wait_us_p99", quantile(&mut lookup, 0.99));
    metrics.set(
        "serve.phase_residual_us",
        quantile(&mut total, 0.5) - phases,
    );
    let prepare_p50 = quantile(&mut prepare_us, 0.5);
    metrics.set("serve.prepare_us_p50", prepare_p50);
    metrics.set("algos.prepare_us_p50", prepare_p50);
    let cache = stack.cache.snapshot();
    metrics.set("serve.hit_rate", cache.hit_rate());
    metrics.set("serve.prepares", cache.prepares as f64);
    metrics.set("serve.coalesced", cache.coalesced as f64);
    metrics.set("serve.evictions", cache.evictions as f64);
    metrics.set("serve.resident_bytes", cache.resident_bytes as f64);

    let rounds: u64 = rows_all.iter().map(|r| r.stats.rounds as u64).sum();
    metrics.set(
        "core.relaxed.us_per_round",
        ratio(query.iter().sum(), rounds as f64),
    );
    metrics.set("algos.relaxed.query_us_p50", quantile(&mut query, 0.5));
    metrics.set("algos.relaxed.query_us_p99", quantile(&mut query, 0.99));
    counts.report(metrics);
    let (takes, reuses) = rows_all
        .iter()
        .fold((0u64, 0u64), |(t, r), row| (t + row.takes, r + row.reuses));
    metrics.set(
        "core.scratch_reuse_share",
        ratio(reuses as f64, takes as f64),
    );
    set_sched(metrics, sched, queries);

    let mut generate = tenants()
        .iter()
        .map(|spec| {
            let started = Instant::now();
            let graph = spec
                .weighted_graph(plan.n, args.seed)
                .map_err(|e| e.to_string())?;
            std::hint::black_box(graph.num_edges());
            Ok(micros(started.elapsed()))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    metrics.set("workloads.generate_us_p50", quantile(&mut generate, 0.5));
    crate::substrates::measure(&stack.pool, args.size, metrics);
    metrics.set_threads(threads, false);
    Ok(replays)
}
