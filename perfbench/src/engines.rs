//! `engines-wide` and `engines-deep`: all 24 registry entries, each
//! prepared once and queried offline by one closed-loop client whose
//! queries fan out over a pool of `nproc` workers.
//!
//! A pass asks every entry one query, in registry order; the timed phase
//! runs whole passes. `engines-wide` draws low-rank inputs (rounds ≪ n),
//! so per-object work dominates; `engines-deep` draws rank-heavy inputs
//! (`rank(S) = n` for LIS and the chains), so round loops, fork-join and
//! parking dominate.

use crate::{
    build_pool, micros, quantile, ratio, Args, Block, Metrics, Outcome, Size, Threads, Workload,
    MIN_BLOCKS,
};
use phase_parallel::{ExecutionStats, RunConfig, Scratch};
use pp_algos::registry::{self, AlgorithmEntry, CaseSpec, Engine, ScenarioKind, ScenarioSpec};
use pp_parlay::hash64;
use pp_serve::SharedPrepared;
use rayon::{SchedulerCounters, ThreadPool};
use std::time::Instant;

/// Instance size per entry. Chosen so that on a 2-core box one query
/// costs about 0.1–3 ms on `engines-wide` and at most about 4 ms on
/// `engines-deep` (same sizes, rank-heavy inputs): no entry dominates a
/// pass, and the p99 of the mix lies inside the heaviest quarter of the
/// entries rather than in one entry's tail.
const SIZES: [(&str, usize); 24] = [
    ("lis", 200),
    ("lis/weighted", 200),
    ("activity/type1", 2000),
    ("activity/type1-pam", 2000),
    ("activity/type2", 2000),
    ("activity/unweighted", 4000),
    ("knapsack", 2000),
    ("huffman", 8000),
    ("sssp/delta", 2000),
    ("sssp/dijkstra", 2000),
    ("sssp/rho", 2000),
    ("sssp/crauser", 2000),
    ("sssp/pam", 1000),
    ("sssp/bellman-ford", 2000),
    ("mis/tas", 2000),
    ("mis/rounds", 2000),
    ("coloring", 2000),
    ("matching", 2000),
    ("matching/reservations", 2000),
    ("whac", 250),
    ("whac/2d", 150),
    ("chain3d", 150),
    ("chain4d", 150),
    ("random-perm", 8000),
];

/// Query configurations per entry; pass `p` uses configuration `p % 4`.
const CONFIGS: usize = 4;
/// Passes per block: a whole number of configuration cycles, and at
/// least 1000 queries (24 entries × 12 passes), so ≥ 10 lie beyond a
/// block's p99.
const BLOCK_PASSES: usize = 3 * CONFIGS;
/// Set-up repetitions behind the reported median `setup_s`.
const SETUP_REPS: usize = 5;

/// The engine classes metrics are grouped by, in report order.
const CLASSES: [&str; 5] = ["type1", "type2", "relaxed", "reservations", "baseline"];

fn class_of(engine: Engine) -> usize {
    match engine {
        Engine::Type1 => 0,
        Engine::Type2 => 1,
        Engine::RelaxedRank => 2,
        Engine::Reservations => 3,
        Engine::Baseline => 4,
    }
}

/// One prepared registry entry with its query configurations and the
/// scratch workspace the client reuses across its queries.
struct Case {
    entry: &'static AlgorithmEntry,
    spec: ScenarioSpec,
    size: usize,
    instance: SharedPrepared,
    configs: Vec<RunConfig>,
    scratch: Scratch,
    prepare_us: f64,
}

fn scenario(kind: ScenarioKind, deep: bool) -> ScenarioSpec {
    let key = match (kind, deep) {
        (ScenarioKind::Seq, false) => "seq/uniform",
        (ScenarioKind::Seq, true) => "seq/adversarial-chain",
        (ScenarioKind::Graph, false) => "graph/rmat",
        (ScenarioKind::Graph, true) => "graph/grid2d",
    };
    ScenarioSpec::parse(key).expect("built-in scenario key")
}

fn size_of(name: &str, size: Size) -> Result<usize, String> {
    let full = SIZES
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, s)| s)
        .ok_or_else(|| format!("registry entry {name} has no benchmark size"))?;
    Ok(match size {
        Size::Full => full,
        Size::Smoke => (full / 10).max(16),
    })
}

/// Generate, prepare and warm every entry: the benchmark's set-up.
fn prepare_cases(args: &Args, pool: &ThreadPool) -> Result<Vec<Case>, String> {
    let deep = args.workload == Workload::EnginesDeep;
    registry::registry()
        .iter()
        .enumerate()
        .map(|(index, entry)| {
            let size = size_of(entry.name(), args.size)?;
            let spec = scenario(entry.scenario_kind(), deep);
            let case = CaseSpec::new(size, args.seed).with_scenario(spec);
            let configs: Vec<RunConfig> = (0..CONFIGS as u64)
                .map(|j| {
                    let draw = hash64(args.seed ^ index as u64, j);
                    let cfg = RunConfig::seeded(draw);
                    match entry.scenario_kind() {
                        ScenarioKind::Graph => cfg.with_source((draw % size as u64) as u32),
                        ScenarioKind::Seq => cfg,
                    }
                })
                .collect();
            for cfg in &configs {
                entry.validate_case(&case, cfg).map_err(|e| e.to_string())?;
            }
            let started = Instant::now();
            let instance =
                pool.install(|| entry.prepare_shared(&case, &RunConfig::seeded(args.seed)));
            let prepare_us = micros(started.elapsed());
            let mut scratch = Scratch::new();
            for cfg in configs.iter().take(2) {
                pool.install(|| instance.query(&mut scratch, cfg));
            }
            Ok(Case {
                entry,
                spec,
                size,
                instance,
                configs,
                scratch,
                prepare_us,
            })
        })
        .collect()
}

/// One timed query.
struct Sample {
    case: usize,
    config: usize,
    nanos: u64,
    digest: u64,
    completed: bool,
    /// Traced legs only: the query's stats, scheduler and scratch deltas.
    trace: Option<QueryTrace>,
}

struct QueryTrace {
    stats: ExecutionStats,
    sched: SchedulerCounters,
    takes: u64,
    reuses: u64,
}

/// Run whole blocks of `passes` passes on `pool` until `seconds` have
/// passed and at least `min_blocks` blocks ran. Returns every sample and
/// each block's rate and latency quantiles.
fn run_blocks(
    pool: &ThreadPool,
    cases: &mut [Case],
    seconds: f64,
    passes: usize,
    min_blocks: usize,
    traced: bool,
) -> (Vec<Sample>, Vec<Block>) {
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut blocks = Vec::new();
    pool.install(|| {
        while blocks.len() < min_blocks.max(1) || started.elapsed().as_secs_f64() < seconds {
            let block_started = Instant::now();
            let first = samples.len();
            for pass in 0..passes {
                let config = pass % CONFIGS;
                for (index, case) in cases.iter_mut().enumerate() {
                    let cfg = &case.configs[config];
                    let before = traced.then(|| {
                        (
                            pool.scheduler_counters(),
                            case.scratch.takes(),
                            case.scratch.reuses(),
                        )
                    });
                    let t = Instant::now();
                    let answer = case.instance.query(&mut case.scratch, cfg);
                    let nanos = t.elapsed().as_nanos() as u64;
                    let trace = before.map(|(sched, takes, reuses)| QueryTrace {
                        sched: pool.scheduler_counters().since(&sched),
                        takes: case.scratch.takes() - takes,
                        reuses: case.scratch.reuses() - reuses,
                        stats: answer.stats,
                    });
                    samples.push(Sample {
                        case: index,
                        config,
                        nanos,
                        digest: answer.digest,
                        completed: answer.outcome.is_complete(),
                        trace,
                    });
                }
            }
            let mut micros: Vec<f64> = samples[first..]
                .iter()
                .map(|s| s.nanos as f64 / 1e3)
                .collect();
            blocks.push(Block {
                qps: micros.len() as f64 / block_started.elapsed().as_secs_f64(),
                p50_us: quantile(&mut micros, 0.5),
                p99_us: quantile(&mut micros, 0.99),
            });
        }
    });
    (samples, blocks)
}

/// Check every completed query's digest against a fresh one-shot solve
/// of the same instance and configuration (one reference solve per
/// distinct pair). Returns the `(case, config)` of every mismatch.
fn verify(
    samples: &[Sample],
    mut reference: impl FnMut(usize, usize) -> u64,
) -> Vec<(usize, usize)> {
    let mut expected = std::collections::HashMap::new();
    samples
        .iter()
        .filter(|s| s.completed)
        .filter(|s| {
            let want = *expected
                .entry((s.case, s.config))
                .or_insert_with(|| reference(s.case, s.config));
            s.digest != want
        })
        .map(|s| (s.case, s.config))
        .collect()
}

fn check(pool: &ThreadPool, cases: &[Case], samples: &[Sample]) -> bool {
    let mismatches = verify(samples, |case, config| {
        let (instance, cfg) = (&cases[case].instance, &cases[case].configs[config]);
        pool.install(|| instance.one_shot_digest(cfg))
    });
    for &(case, config) in &mismatches {
        eprintln!(
            "digest mismatch: {} configuration {config} differs from its one-shot solve",
            cases[case].entry.name()
        );
    }
    mismatches.is_empty()
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let nproc = crate::nproc();
    let threads = Threads {
        nproc,
        pool_width: nproc,
        caller_helps: true,
        prep_pool_threads: 0,
    };
    let (setup_s, (pool, mut cases)) = crate::median_setup(SETUP_REPS, || {
        let pool = build_pool(nproc)?;
        let cases = prepare_cases(args, &pool)?;
        Ok((pool, cases))
    })?;
    let passes = match args.size {
        Size::Full => BLOCK_PASSES,
        Size::Smoke => CONFIGS,
    };
    let mut metrics = Metrics::default();
    let samples = if args.trace {
        traced(args, &pool, &mut cases, passes, threads, &mut metrics)?
    } else {
        let (samples, blocks) =
            run_blocks(&pool, &mut cases, args.seconds, passes, MIN_BLOCKS, false);
        metrics.set_end_to_end(&blocks, setup_s);
        samples
    };
    let correct = check(&pool, &cases, &samples);
    Ok(Outcome {
        correct,
        attempted: samples.len() as u64,
        failed: samples.iter().filter(|s| !s.completed).count() as u64,
        metrics,
        threads,
    })
}

/// The traced run: an untraced leg (for the tracing overhead), a traced
/// leg on the `nproc` pool, a 1-thread leg (for self-speedup), one
/// deterministic sweep for the exact counts, and the substrate timings.
/// Returns the traced leg's samples for the digest check.
fn traced(
    args: &Args,
    pool: &ThreadPool,
    cases: &mut [Case],
    passes: usize,
    threads: Threads,
    metrics: &mut Metrics,
) -> Result<Vec<Sample>, String> {
    let (_, untraced) = run_blocks(pool, cases, args.seconds * 0.25, passes, 1, false);
    let (samples, traced) = run_blocks(pool, cases, args.seconds * 0.5, passes, 1, true);
    metrics.set_overhead(Block::qps(&untraced), Block::qps(&traced));
    let one = build_pool(1)?;
    let (one_samples, _) = run_blocks(&one, cases, args.seconds * 0.25, CONFIGS, 1, false);

    let mut per_class: [ClassTimes; 5] = Default::default();
    let (mut sched, mut takes, mut reuses) = (SchedulerCounters::default(), 0u64, 0u64);
    for s in &samples {
        let trace = s.trace.as_ref().expect("traced leg records every query");
        let class = &mut per_class[class_of(cases[s.case].entry.engine())];
        class.micros.push(s.nanos as f64 / 1e3);
        class.rounds += trace.stats.rounds as u64;
        sched = add(sched, trace.sched);
        takes += trace.takes;
        reuses += trace.reuses;
    }
    for s in &one_samples {
        per_class[class_of(cases[s.case].entry.engine())]
            .one_thread_micros
            .push(s.nanos as f64 / 1e3);
    }
    for (class, times) in CLASSES.iter().zip(per_class.iter_mut()) {
        times.report(class, metrics);
    }
    set_sched(metrics, sched, samples.len());
    metrics.set(
        "core.scratch_reuse_share",
        ratio(reuses as f64, takes as f64),
    );

    // Exact counts: every (entry, configuration) pair once, in order.
    let mut sweep = Counts::default();
    pool.install(|| {
        for case in cases.iter_mut() {
            for cfg in &case.configs {
                let answer = case.instance.query(&mut case.scratch, cfg);
                sweep.add(case.entry, &answer.stats);
            }
        }
    });
    sweep.report(metrics);

    let mut prepare: Vec<f64> = cases.iter().map(|c| c.prepare_us).collect();
    metrics.set("algos.prepare_us_p50", quantile(&mut prepare, 0.5));
    let mut generate = cases
        .iter()
        .map(|c| generate_us(c, args.seed))
        .collect::<Result<Vec<f64>, String>>()?;
    metrics.set("workloads.generate_us_p50", quantile(&mut generate, 0.5));
    crate::substrates::measure(pool, args.size, metrics);
    metrics.set_threads(threads, true);
    Ok(samples)
}

/// Time the `pp-workloads` generator call behind one entry's instance.
fn generate_us(case: &Case, seed: u64) -> Result<f64, String> {
    let started = Instant::now();
    match case.entry.scenario_kind() {
        ScenarioKind::Graph if case.entry.name().starts_with("sssp/") => case
            .spec
            .weighted_graph(case.size, seed)
            .map(|g| std::hint::black_box(g.num_edges())),
        ScenarioKind::Graph => case
            .spec
            .graph(case.size, seed)
            .map(|g| std::hint::black_box(g.num_edges())),
        ScenarioKind::Seq => case
            .spec
            .draws(case.size, 3 * case.size as u64 + 10, seed)
            .map(|d| std::hint::black_box(d.len())),
    }
    .map_err(|e| e.to_string())?;
    Ok(micros(started.elapsed()))
}

/// One engine class's query times (traced and 1-thread legs) and rounds.
#[derive(Default)]
struct ClassTimes {
    micros: Vec<f64>,
    one_thread_micros: Vec<f64>,
    rounds: u64,
}

impl ClassTimes {
    fn report(&mut self, class: &str, metrics: &mut Metrics) {
        let sum: f64 = self.micros.iter().sum();
        let mean = ratio(sum, self.micros.len() as f64);
        let one_mean = ratio(
            self.one_thread_micros.iter().sum(),
            self.one_thread_micros.len() as f64,
        );
        metrics.set(
            &format!("core.{class}.us_per_round"),
            ratio(sum, self.rounds as f64),
        );
        metrics.set(&format!("core.{class}.self_speedup"), ratio(one_mean, mean));
        metrics.set(
            &format!("algos.{class}.query_us_p50"),
            quantile(&mut self.micros, 0.5),
        );
        metrics.set(
            &format!("algos.{class}.query_us_p99"),
            quantile(&mut self.micros, 0.99),
        );
    }
}

/// Work counters summed over a fixed query set. All are fixed by the
/// seed except the reservation engines' rounds (see `crate::EXACT`).
#[derive(Default)]
pub struct Counts {
    queries: [u64; 5],
    rounds: [u64; 5],
    wakeups: u64,
    failed_wakeups: u64,
    processed: u64,
    sssp_queries: u64,
    relaxations: u64,
    substeps: u64,
}

impl Counts {
    pub fn add(&mut self, entry: &AlgorithmEntry, stats: &ExecutionStats) {
        let class = class_of(entry.engine());
        self.queries[class] += 1;
        self.rounds[class] += stats.rounds as u64;
        if entry.engine() == Engine::Type2 {
            self.wakeups += stats.wakeup_attempts as u64;
            self.failed_wakeups += stats.failed_wakeups as u64;
            self.processed += stats.processed() as u64;
        }
        if entry.name().starts_with("sssp/") {
            self.sssp_queries += 1;
            self.relaxations += stats.counter("relaxations").unwrap_or(0);
            self.substeps += stats.counter("substeps").unwrap_or(0);
        }
    }

    pub fn report(&self, metrics: &mut Metrics) {
        for (class, name) in CLASSES.iter().enumerate() {
            metrics.set(
                &format!("core.{name}.rounds_per_query"),
                ratio(self.rounds[class] as f64, self.queries[class] as f64),
            );
        }
        metrics.set(
            "core.type2.wakeups_per_object",
            ratio(self.wakeups as f64, self.processed as f64),
        );
        metrics.set(
            "core.type2.failed_wakeup_share",
            ratio(self.failed_wakeups as f64, self.wakeups as f64),
        );
        let sssp = self.sssp_queries as f64;
        metrics.set(
            "sssp.relaxations_per_query",
            ratio(self.relaxations as f64, sssp),
        );
        metrics.set("sssp.substeps_per_query", ratio(self.substeps as f64, sssp));
    }
}

pub fn add(a: SchedulerCounters, b: SchedulerCounters) -> SchedulerCounters {
    SchedulerCounters {
        queue_locks: a.queue_locks + b.queue_locks,
        steals: a.steals + b.steals,
        parks: a.parks + b.parks,
        injector_pushes: a.injector_pushes + b.injector_pushes,
        jobs_executed: a.jobs_executed + b.jobs_executed,
    }
}

pub fn set_sched(metrics: &mut Metrics, sched: SchedulerCounters, queries: usize) {
    let per = |v: u64| ratio(v as f64, queries as f64);
    metrics.set("sched.jobs_per_query", per(sched.jobs_executed));
    metrics.set("sched.parks_per_query", per(sched.parks));
    metrics.set("sched.steals_per_query", per(sched.steals));
    metrics.set("sched.queue_locks_per_query", per(sched.queue_locks));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(case: usize, config: usize, digest: u64) -> Sample {
        Sample {
            case,
            config,
            nanos: 1,
            digest,
            completed: true,
            trace: None,
        }
    }

    #[test]
    fn every_registry_entry_has_a_size() {
        for entry in registry::registry() {
            assert!(
                size_of(entry.name(), Size::Full).is_ok(),
                "{}",
                entry.name()
            );
        }
        assert_eq!(SIZES.len(), registry::registry().len());
    }

    #[test]
    fn verify_flags_a_wrong_digest_once_per_query() {
        let samples = [
            sample(0, 0, 7),
            sample(0, 1, 9),
            sample(0, 0, 7),
            sample(1, 0, 5),
        ];
        let mut calls = 0;
        let reference = |case: usize, config: usize| {
            calls += 1;
            [[7, 8], [5, 5]][case][config]
        };
        assert_eq!(verify(&samples, reference), vec![(0, 1)]);
        assert_eq!(calls, 3, "one reference solve per distinct (case, config)");
    }
}
