//! The repository benchmark (see `README.md` next to this crate).
//!
//! Four closed-loop workloads drive only public functions of the
//! workspace's layers: two served through `pp_serve::ServingTier`
//! (`serve-hot`, `serve-churn`) and two running all 24 registry entries
//! offline on a pool the benchmark owns (`engines-wide`,
//! `engines-deep`). An untraced run reports the end-to-end metrics; a
//! traced run (`trace = true`) reports the per-layer metrics, timed from
//! this crate around the calls into each layer.

mod engines;
mod served;
mod substrates;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ServeChurn,
    EnginesWide,
    EnginesDeep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::ServeChurn,
        Workload::EnginesWide,
        Workload::EnginesDeep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeChurn => "serve-churn",
            Workload::EnginesWide => "engines-wide",
            Workload::EnginesDeep => "engines-deep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn served(self) -> bool {
        matches!(self, Workload::ServeHot | Workload::ServeChurn)
    }
}

/// Input scale. `Smoke` runs the same four workloads on tiny inputs so
/// that every metric name is emitted within seconds (the crate's tests
/// use it); `Full` is what the benchmark measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One benchmark run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    pub workload: Workload,
    /// Seeds every generated input: instances, traces and query knobs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Report per-layer metrics (traced run) instead of end-to-end ones.
    pub trace: bool,
    pub size: Size,
}

/// The end-to-end metrics of every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_qps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics of every traced run: `(name, unit)`. A layer a
/// workload does not run reports 0 (e.g. `serve.*` on the engines
/// workloads, `core.type1.*` on the served ones).
pub const PER_LAYER: [(&str, &str); 62] = [
    ("bench.untraced_qps", "1/s"),
    ("bench.traced_qps", "1/s"),
    ("bench.tracing_overhead_share", "ratio"),
    ("bench.error_rate", "ratio"),
    ("bench.nproc", "count"),
    ("bench.pool_width", "count"),
    ("bench.caller_helps", "count"),
    ("bench.prep_pool_threads", "count"),
    ("bench.one_thread_leg", "count"),
    ("sched.jobs_per_query", "count"),
    ("sched.parks_per_query", "count"),
    ("sched.steals_per_query", "count"),
    ("sched.queue_locks_per_query", "count"),
    ("core.type1.rounds_per_query", "count"),
    ("core.type1.us_per_round", "us"),
    ("core.type1.self_speedup", "ratio"),
    ("core.type2.rounds_per_query", "count"),
    ("core.type2.us_per_round", "us"),
    ("core.type2.self_speedup", "ratio"),
    ("core.relaxed.rounds_per_query", "count"),
    ("core.relaxed.us_per_round", "us"),
    ("core.relaxed.self_speedup", "ratio"),
    ("core.reservations.rounds_per_query", "count"),
    ("core.reservations.us_per_round", "us"),
    ("core.reservations.self_speedup", "ratio"),
    ("core.baseline.rounds_per_query", "count"),
    ("core.baseline.us_per_round", "us"),
    ("core.baseline.self_speedup", "ratio"),
    ("core.type2.wakeups_per_object", "count"),
    ("core.type2.failed_wakeup_share", "ratio"),
    ("core.scratch_reuse_share", "ratio"),
    ("parlay.scan_us", "us"),
    ("parlay.sort_us", "us"),
    ("parlay.pack_us", "us"),
    ("pam.multi_insert_us", "us"),
    ("pam.aug_range_us", "us"),
    ("ranges.range2d_query_us", "us"),
    ("ranges.range2d_finish_batch_us", "us"),
    ("algos.type1.query_us_p50", "us"),
    ("algos.type1.query_us_p99", "us"),
    ("algos.type2.query_us_p50", "us"),
    ("algos.type2.query_us_p99", "us"),
    ("algos.relaxed.query_us_p50", "us"),
    ("algos.relaxed.query_us_p99", "us"),
    ("algos.reservations.query_us_p50", "us"),
    ("algos.reservations.query_us_p99", "us"),
    ("algos.baseline.query_us_p50", "us"),
    ("algos.baseline.query_us_p99", "us"),
    ("algos.prepare_us_p50", "us"),
    ("sssp.relaxations_per_query", "count"),
    ("sssp.substeps_per_query", "count"),
    ("workloads.generate_us_p50", "us"),
    ("serve.validate_us_p50", "us"),
    ("serve.lookup_us_p50", "us"),
    ("serve.wait_us_p99", "us"),
    ("serve.prepare_us_p50", "us"),
    ("serve.hit_rate", "ratio"),
    ("serve.prepares", "count"),
    ("serve.coalesced", "count"),
    ("serve.evictions", "count"),
    ("serve.resident_bytes", "bytes"),
    ("serve.phase_residual_us", "us"),
];

/// Per-layer metrics that are pure functions of the seed: they repeat
/// bit for bit across runs of one seed, at any worker count. (Not the
/// reservation engines' rounds: an iterate's commit can observe another
/// commit of the same round, so whether it retries depends on timing.)
pub const EXACT: [&str; 10] = [
    "core.type1.rounds_per_query",
    "core.type2.rounds_per_query",
    "core.relaxed.rounds_per_query",
    "core.baseline.rounds_per_query",
    "core.type2.wakeups_per_object",
    "core.type2.failed_wakeup_share",
    "sssp.relaxations_per_query",
    "sssp.substeps_per_query",
    "bench.nproc",
    "bench.pool_width",
];

/// The exact counts of `workload`: [`EXACT`], plus the served cache
/// counters where the trace alone fixes them (`serve-hot`: one
/// preparation per tenant, no eviction). On `serve-churn` the same
/// counters depend on the schedule and carry a spread, like `sched.*`.
pub fn exact_metrics(workload: Workload) -> Vec<&'static str> {
    let mut names = EXACT.to_vec();
    if workload == Workload::ServeHot {
        names.extend(["serve.prepares", "serve.evictions"]);
    }
    names
}

/// The fewest blocks a full-size timed phase measures.
const MIN_BLOCKS: usize = 3;

/// One block of the timed phase: at least 1000 queries (a whole trace
/// replay, or whole engine passes), so ≥ 10 lie beyond its p99.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    pub qps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Block {
    /// The blocks' throughput: the interquartile mean of their rates.
    pub fn qps(blocks: &[Block]) -> f64 {
        iqm(&mut blocks.iter().map(|b| b.qps).collect::<Vec<f64>>())
    }
}

/// The per-layer counts of `workload` that depend on the schedule and so
/// carry a run-to-run spread even for one seed: the pool's `sched.*`
/// counters, the reservation engines' rounds, and on `serve-churn` the
/// cache's preparation, coalescing and eviction counts.
pub fn spread_metrics(workload: Workload) -> Vec<&'static str> {
    let mut names = vec![
        "core.reservations.rounds_per_query",
        "sched.jobs_per_query",
        "sched.parks_per_query",
        "sched.steals_per_query",
        "sched.queue_locks_per_query",
    ];
    if workload == Workload::ServeChurn {
        names.extend(["serve.prepares", "serve.coalesced", "serve.evictions"]);
    }
    names
}

/// Thread accounting of a run: how many threads can be runnable at once.
#[derive(Clone, Copy, Debug)]
pub struct Threads {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Workers of the pool queries run on.
    pub pool_width: usize,
    /// Whether the thread that submits work also runs pool jobs while it
    /// waits (true for `ThreadPool::install` on this workspace's pool).
    pub caller_helps: bool,
    /// The serving tier's extra one-thread preparation pool.
    pub prep_pool_threads: usize,
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn build_pool(threads: usize) -> Result<rayon::ThreadPool, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|e| e.to_string())
}

/// Named metric values with units, in name order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Record a declared metric; its unit comes from the declaration.
    fn set(&mut self, name: &str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|&(_, unit)| unit)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.0.insert(name.to_string(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    /// Fill every declared per-layer metric this run did not measure
    /// with 0, so every traced run emits the same names.
    fn complete_per_layer(&mut self) {
        for (name, _) in PER_LAYER {
            if !self.0.contains_key(name) {
                self.set(name, 0.0);
            }
        }
    }

    /// The end-to-end metrics of a timed phase: each is the interquartile
    /// mean of its per-block values, so that outside load hitting a few
    /// blocks does not move it (and bucketed histogram quantiles are
    /// smoothed).
    fn set_end_to_end(&mut self, blocks: &[Block], setup_s: f64) {
        let mean_of = |f: fn(&Block) -> f64| iqm(&mut blocks.iter().map(f).collect::<Vec<f64>>());
        self.set("throughput_qps", Block::qps(blocks));
        self.set("latency_p50_us", mean_of(|b| b.p50_us));
        self.set("latency_p99_us", mean_of(|b| b.p99_us));
        self.set("setup_s", setup_s);
    }

    fn set_threads(&mut self, threads: Threads, one_thread_leg: bool) {
        self.set("bench.nproc", threads.nproc as f64);
        self.set("bench.pool_width", threads.pool_width as f64);
        self.set(
            "bench.caller_helps",
            f64::from(u8::from(threads.caller_helps)),
        );
        self.set("bench.prep_pool_threads", threads.prep_pool_threads as f64);
        self.set("bench.one_thread_leg", f64::from(u8::from(one_thread_leg)));
    }

    fn set_overhead(&mut self, untraced_qps: f64, traced_qps: f64) {
        self.set("bench.untraced_qps", untraced_qps);
        self.set("bench.traced_qps", traced_qps);
        self.set(
            "bench.tracing_overhead_share",
            1.0 - traced_qps / untraced_qps.max(f64::MIN_POSITIVE),
        );
    }
}

/// A finished run: the correctness verdict, query accounting and the
/// metrics (end-to-end or per-layer).
#[derive(Clone, Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub threads: Threads,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|(name, (value, unit))| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number: every digit Rust prints, and never NaN or infinity.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// The context line printed before the result: thread accounting, and
/// which per-layer counts are exact or carry a spread for this workload.
pub fn context_json(args: &Args, threads: &Threads) -> String {
    let list = |names: Vec<&str>| {
        let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
        format!("[{}]", quoted.join(", "))
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"pool_width\": {}, \
         \"caller_helps\": {}, \"prep_pool_threads\": {}, \"exact\": {}, \"spread\": {}}}",
        args.workload.name(),
        args.seed,
        args.trace,
        threads.nproc,
        threads.pool_width,
        threads.caller_helps,
        threads.prep_pool_threads,
        list(exact_metrics(args.workload)),
        list(spread_metrics(args.workload)),
    )
}

/// Run one benchmark pass. `Err` means the run could not measure at all;
/// a digest mismatch is `Ok` with `correct == false`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = if args.workload.served() {
        served::run(args)?
    } else {
        engines::run(args)?
    };
    if args.trace {
        outcome.metrics.set(
            "bench.error_rate",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        );
        outcome.metrics.complete_per_layer();
    } else {
        outcome.metrics.set("peak_rss_mib", peak_rss_mib()?);
    }
    Ok(outcome)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The median of `reps` timed calls of `f`, in seconds: how set-up time
/// is reported, so one slow repetition does not move it. The value of
/// the last call is kept.
fn median_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        // Free the previous repetition first, so two never coexist.
        drop(last.take());
        let started = Instant::now();
        last = Some(f()?);
        times.push(started.elapsed().as_secs_f64());
    }
    let value = last.ok_or("no set-up repetition ran")?;
    Ok((quantile(&mut times, 0.5), value))
}

/// The interquartile mean: the mean of the middle half of `values` (all
/// of them when fewer than 4). Sorts `values` in place.
pub fn iqm(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let quarter = values.len() / 4;
    let middle = &values[quarter..values.len() - quarter];
    ratio(middle.iter().sum(), middle.len() as f64)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice). Sorts `values` in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn iqm_drops_the_outer_quarters() {
        assert_eq!(iqm(&mut [100.0, 2.0, 3.0, 0.0]), 2.5);
        assert_eq!(iqm(&mut [1.0, 2.0]), 1.5);
        assert_eq!(iqm(&mut []), 0.0);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }
}
