//! Registry-wide serving conformance: for **every** registry entry, a
//! shared prepared instance queried concurrently from worker pools must
//! produce exactly the digests of the single-threaded prepared path and
//! of the one-shot (prepare-per-query) path — sharing and concurrency
//! must be invisible in the answers. On top of that, a full cache-backed
//! [`ServingTier`] replay must reproduce the freshly-prepared reference
//! digest for every entry.

#![forbid(unsafe_code)]

use phase_parallel::{RunConfig, Scratch};
use pp_algos::registry::{self, CaseSpec};
use pp_serve::{CacheCounters, ServeOptions, ServingTier};
use pp_workloads::{QueryTrace, ScenarioKind, ScenarioSpec, TraceConfig};
use rayon::prelude::*;

/// A small but non-trivial query mix: varied sources and seeds so
/// source-sensitive entries (SSSP, BFS) and seed-sensitive entries
/// (Luby, matching) both get real coverage.
fn query_set() -> Vec<RunConfig> {
    let mut cfgs = Vec::new();
    for (i, source) in [0u32, 1, 7, 19, 42, 63].into_iter().enumerate() {
        cfgs.push(RunConfig::seeded(100 + i as u64).with_source(source));
    }
    cfgs
}

#[test]
fn shared_concurrent_digests_match_prepared_registry_wide() {
    let case = CaseSpec::new(120, 11);
    let cfgs = query_set();

    for entry in registry::registry() {
        let shared = entry.prepare_shared(&case, &RunConfig::seeded(11));
        assert_eq!(shared.entry_name(), entry.name());

        // Single-threaded prepared reference: one scratch, queries in
        // order through the shared handle.
        let mut scratch = Scratch::new();
        let reference: Vec<u64> = cfgs
            .iter()
            .map(|cfg| shared.query(&mut scratch, cfg).digest)
            .collect();

        // One-shot (fresh solve per query, no prepared reuse).
        for (cfg, &expected) in cfgs.iter().zip(&reference) {
            assert_eq!(
                shared.one_shot_digest(cfg),
                expected,
                "{}: one-shot digest diverged",
                entry.name()
            );
        }

        // Concurrent workers sharing the one instance, each with its
        // own scratch, at two pool widths.
        for threads in [2usize, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let concurrent: Vec<u64> = pool.install(|| {
                cfgs.par_iter()
                    .map_init(Scratch::new, |scratch, cfg| {
                        shared.query(scratch, cfg).digest
                    })
                    .collect()
            });
            assert_eq!(
                concurrent,
                reference,
                "{}: {threads}-thread shared digests diverged",
                entry.name()
            );
        }
    }
}

/// The cache's schedule-free accounting for one replay of `queries`
/// queries over `tenants` distinct tenants: each tenant is prepared
/// exactly once and every query makes exactly one lookup. How the other
/// lookups split between hits and followers coalesced onto a
/// preparation in flight depends on the schedule, so no hit-rate floor.
fn assert_prepared_once_per_tenant(counters: &CacheCounters, tenants: usize, queries: usize) {
    assert_eq!(counters.prepares, tenants as u64, "{counters:?}");
    assert_eq!(
        counters.misses,
        counters.prepares + counters.coalesced,
        "{counters:?}"
    );
    assert_eq!(
        counters.hits + counters.misses,
        queries as u64,
        "{counters:?}"
    );
}

/// The full stack for every registry entry of `kind`: a Zipf trace over
/// up to three of the entry's scenario families, served through the
/// cache on 1 and 8 worker threads and digest-checked against the
/// freshly-prepared reference, with each tenant prepared exactly once.
fn assert_cache_served_trace_matches_fresh(kind: ScenarioKind) {
    let entries: Vec<_> = registry::registry()
        .iter()
        .filter(|entry| entry.scenario_kind() == kind)
        .collect();
    assert!(!entries.is_empty(), "no {kind:?} entry in the registry");
    for entry in entries {
        let scenarios: Vec<ScenarioSpec> = entry.scenarios().into_iter().take(3).collect();
        let trace = QueryTrace::generate(&scenarios, &TraceConfig::new(64, 17));

        let mut digests = Vec::new();
        for threads in [1usize, 8] {
            let tier = ServingTier::new(
                entry.name(),
                ServeOptions::new(120, 3).with_threads(threads),
            )
            .unwrap();
            let report = tier.serve_trace(&trace);
            assert_eq!(report.queries, trace.len());
            assert_eq!(
                report.digest,
                tier.reference_digest(&trace),
                "{}: {threads}-thread served trace diverged from fresh",
                entry.name()
            );
            assert_prepared_once_per_tenant(
                &report.counters,
                trace.distinct_scenarios(),
                trace.len(),
            );
            assert_eq!(report.latency.count(), trace.len() as u64);
            digests.push(report.digest);
        }
        // Worker count must not change the answers.
        assert_eq!(digests[0], digests[1], "{}", entry.name());
    }
}

/// Every graph-kind registry entry (`sssp/delta` among them).
#[test]
fn cache_served_trace_matches_fresh_for_graph_entry() {
    assert_cache_served_trace_matches_fresh(ScenarioKind::Graph);
}

/// Every sequence-kind registry entry (`lis` among them). Together with
/// the graph test this covers the whole registry: every entry is one of
/// the two kinds.
#[test]
fn cache_served_trace_matches_fresh_for_seq_entry() {
    assert_cache_served_trace_matches_fresh(ScenarioKind::Seq);
}

/// Re-serving the same trace through one tier is pure cache hits and
/// reproduces the digest.
#[test]
fn reserving_a_trace_is_all_hits_and_deterministic() {
    let scenarios = [ScenarioSpec::parse("graph/star-hub+w/uniform").unwrap()];
    let trace = QueryTrace::generate(&scenarios, &TraceConfig::new(20, 21));
    let tier =
        ServingTier::new("sssp/dijkstra", ServeOptions::new(100, 2).with_threads(4)).unwrap();

    let first = tier.serve_trace(&trace);
    let again = tier.serve_trace(&trace);
    assert_eq!(first.digest, again.digest);
    assert_eq!(again.counters.prepares, 1, "{:?}", again.counters);
    // First replay: one leader, the rest hits or coalesced followers.
    assert_eq!(
        first.counters.misses,
        first.counters.coalesced + 1,
        "{:?}",
        first.counters
    );
    // Second replay: the instance is resident, so every query hits.
    assert_eq!(
        again.counters.hits,
        first.counters.hits + trace.len() as u64,
        "second replay must be all hits: first {:?}, again {:?}",
        first.counters,
        again.counters
    );
    assert_eq!(again.counters.misses, first.counters.misses);
}

/// A tier for a key the registry does not hold fails to build, with a
/// typed error naming the key.
#[test]
fn unknown_entry_key_is_an_error() {
    for key in ["nope", "sssp/nope"] {
        let err = ServingTier::new(key, ServeOptions::new(10, 1))
            .err()
            .unwrap();
        assert!(matches!(err, registry::RegistryError::UnknownEntry(ref k) if k == key));
        assert!(err.to_string().contains(key));
    }
}
