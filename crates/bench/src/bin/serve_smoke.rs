//! Serving-tier gate: fails (exit 1) if any registry entry's
//! cache-served Zipf trace diverges from the freshly-prepared
//! reference, or if the cache fails to absorb a skewed trace.
//!
//! For every registry entry, a deterministic Zipf query trace over the
//! entry's scenario families is replayed through a [`ServingTier`] —
//! shared prepared instances behind the scenario-keyed LRU cache — at
//! 1 and 8 worker threads. Each replay's digest chain must equal the
//! one-shot (prepare-per-query, uncached) reference digest, and the
//! cache must prepare each tenant at most once: the budget holds every
//! tenant, so a second preparation of any scenario means the keying or
//! the LRU is broken. The floor comes from the trace, not from a fixed
//! hit rate: at 8 workers on a small box, several queries can reach a
//! cold tenant before its first preparation finishes, and those
//! single-flight followers count as misses. The printed hit rate counts
//! them as hits (they waited for the one preparation instead of running
//! another).
//!
//! Run in CI with `PP_SMOKE=1` (tiny instances; the properties are
//! size-independent). `PP_SCALE` scales instances up for local runs.
//!
//! Run with: `cargo run --release -p pp-bench --bin serve_smoke`

#![forbid(unsafe_code)]

use pp_serve::{ServeOptions, ServingTier};
use pp_workloads::{QueryTrace, ScenarioSpec, TraceConfig};

fn main() {
    let size = if pp_bench::smoke() {
        120
    } else {
        800 * pp_bench::scale()
    };
    let queries = 64usize;
    let mut failures = 0usize;
    let table = pp_bench::Table::new(&[
        "entry", "threads", "queries", "tenants", "prepares", "hit_rate", "p50_ns", "served",
    ]);
    for entry in pp_algos::registry::registry() {
        // Up to three of the entry's scenario families, Zipf-mixed into
        // one trace (kind-matched, so graph entries get graph scenarios
        // and sequence entries sequence scenarios).
        let scenarios: Vec<ScenarioSpec> = entry.scenarios().into_iter().take(3).collect();
        let trace = QueryTrace::generate(&scenarios, &TraceConfig::new(queries, 17));
        let tenants = trace.distinct_scenarios() as u64;
        for threads in [1usize, 8] {
            let tier = ServingTier::new(
                entry.name(),
                ServeOptions::new(size, 3).with_threads(threads),
            )
            .expect("registry entry");
            let report = tier.serve_trace(&trace);
            let conforms = report.digest == tier.reference_digest(&trace);
            let counters = &report.counters;
            let lookups = (counters.hits + counters.misses).max(1);
            let hit_rate = (counters.hits + counters.coalesced) as f64 / lookups as f64;
            let ok = conforms && counters.prepares <= tenants;
            if !ok {
                failures += 1;
            }
            table.row(&[
                entry.name().to_string(),
                threads.to_string(),
                report.queries.to_string(),
                tenants.to_string(),
                counters.prepares.to_string(),
                format!("{hit_rate:.3}"),
                report.latency.quantile(0.5).unwrap_or(0).to_string(),
                if !conforms {
                    "DIVERGED".into()
                } else if !ok {
                    "COLD".into()
                } else {
                    "ok".into()
                },
            ]);
        }
    }
    if failures > 0 {
        eprintln!(
            "serve_smoke: {failures} entry/thread legs diverged from the \
             freshly-prepared reference or prepared a tenant twice"
        );
        std::process::exit(1);
    }
    println!("serve_smoke: every cache-served trace matches its freshly-prepared reference");
}
