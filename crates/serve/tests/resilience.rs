//! Resilience-layer conformance: deadlines must be observation-free on
//! the happy path (registry-wide), blown deadlines / panics / shed
//! queries must surface as typed outcomes without taking the process
//! down, the cache's single-flight path must survive a leader that
//! panics mid-`prepare`, and fault injection (when compiled in with
//! `--cfg pp_fault`) must be seeded and replayable.

#![forbid(unsafe_code)]

use phase_parallel::{RunConfig, Scratch};
use pp_algos::registry::{self, CaseSpec};
use pp_check::fault::{self, FaultPlan};
use pp_serve::{InstanceCache, QueryOutcome, ServeOptions, ServingTier};
use pp_workloads::{QueryTrace, ScenarioSpec, TraceConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// An hour: a deadline that can never fire in a test-sized query.
const GENEROUS: Duration = Duration::from_secs(3600);

/// Satellite: cancellation polling must be observation-free. For every
/// registry entry, a query run under a generous deadline produces the
/// exact digest of the no-deadline run — prepared and one-shot paths
/// both.
#[test]
fn generous_deadline_digests_match_no_deadline_registry_wide() {
    let case = CaseSpec::new(120, 11);
    for entry in registry::registry() {
        let shared = entry.prepare_shared(&case, &RunConfig::seeded(11));
        let mut scratch = Scratch::new();
        for (i, source) in [0u32, 7, 42].into_iter().enumerate() {
            let plain = RunConfig::seeded(100 + i as u64).with_source(source);
            let deadlined = plain.clone().with_deadline(GENEROUS);
            let a = shared.query(&mut scratch, &plain);
            let b = shared.query(&mut scratch, &deadlined);
            assert!(
                b.outcome.is_complete(),
                "{}: generous deadline fired",
                entry.name()
            );
            assert_eq!(
                a.digest,
                b.digest,
                "{}: deadline polling changed the answer",
                entry.name()
            );
            assert_eq!(
                shared.one_shot_digest(&deadlined),
                a.digest,
                "{}: one-shot with deadline diverged",
                entry.name()
            );
        }
    }
}

/// Tentpole conformance: cancellation is *registry-wide*. Under an
/// already-expired deadline every entry resolves to a typed
/// `DeadlineExceeded` — no entry ignores the token and runs to
/// completion, none panics or wedges — on both the prepared serve path
/// and the one-shot path.
#[test]
fn zero_deadline_returns_deadline_exceeded_registry_wide() {
    let case = CaseSpec::new(120, 13);
    for entry in registry::registry() {
        let shared = entry.prepare_shared(&case, &RunConfig::seeded(13));
        let mut scratch = Scratch::new();
        let cfg = RunConfig::seeded(5).with_deadline(Duration::ZERO);
        let served = shared.query(&mut scratch, &cfg);
        assert!(
            !served.outcome.is_complete(),
            "{}: prepared query ignored an expired deadline",
            entry.name()
        );
        // The partial output still digests (no panic, no hang) and a
        // second query on the same scratch is unaffected — an abandoned
        // run must not corrupt the recycled workspace.
        let clean = shared.query(&mut scratch, &RunConfig::seeded(5));
        assert!(clean.outcome.is_complete(), "{}", entry.name());
        assert_eq!(
            clean.digest,
            shared.one_shot_digest(&RunConfig::seeded(5)),
            "{}: query after a cancelled run diverged",
            entry.name()
        );
    }
}

/// The full tier under a generous deadline still replays to the fresh
/// reference digest, and every outcome row is `Completed`.
#[test]
fn deadlined_tier_matches_reference_on_happy_path() {
    let scenarios = [
        ScenarioSpec::parse("graph/rmat+w/uniform").unwrap(),
        ScenarioSpec::parse("graph/grid2d+w/unit").unwrap(),
    ];
    let trace = QueryTrace::generate(&scenarios, &TraceConfig::new(60, 5));
    for threads in [1usize, 4] {
        let tier = ServingTier::new(
            "sssp/delta",
            ServeOptions::new(150, 9)
                .with_threads(threads)
                .with_deadline(GENEROUS),
        )
        .unwrap();
        let report = tier.serve_trace(&trace);
        assert_eq!(
            report.digest,
            tier.reference_digest(&trace),
            "{threads} threads"
        );
        assert_eq!(report.outcome_count(QueryOutcome::Completed), trace.len());
        // The six resilience counters are always exported, zero here.
        for name in [
            "deadline_exceeded",
            "panics_isolated",
            "queries_rejected",
            "retries",
            "scratch_quarantined",
            "validation_rejected",
        ] {
            assert_eq!(report.stats.counter(name), Some(0), "{name}");
        }
    }
}

/// A zero deadline expires before any work: every query resolves to a
/// typed `DeadlineExceeded` row (after its retry budget), no worker
/// wedges, and the attempt counters add up.
#[test]
fn zero_deadline_is_typed_not_stuck() {
    let scenarios = [ScenarioSpec::parse("graph/grid2d+w/unit").unwrap()];
    let trace = QueryTrace::generate(&scenarios, &TraceConfig::new(12, 3));
    let tier = ServingTier::new(
        "sssp/delta",
        ServeOptions::new(80, 1)
            .with_threads(2)
            .with_deadline(Duration::ZERO)
            .with_max_retries(1),
    )
    .unwrap();
    let report = tier.serve_trace(&trace);
    assert_eq!(
        report.outcome_count(QueryOutcome::DeadlineExceeded),
        trace.len(),
        "{:?}",
        report.outcomes
    );
    // Each query: 2 attempts (1 retry), both expired at the driver poll.
    assert_eq!(
        report.stats.counter("deadline_exceeded"),
        Some(2 * trace.len() as u64)
    );
    assert_eq!(report.stats.counter("retries"), Some(trace.len() as u64));
    assert_eq!(report.stats.counter("panics_isolated"), Some(0));
}

/// Satellite: panic during `prepare` under single-flight with ≥ 2
/// concurrent followers. The leader dies, the followers observe the
/// abandoned flight and retry, exactly one becomes the new leader, and
/// nobody is ever handed a half-built instance.
#[test]
fn prepare_panic_under_single_flight_recovers_with_one_new_leader() {
    let entry = registry::lookup("lis").unwrap();
    let cache = Arc::new(InstanceCache::new(1 << 20));
    let attempts = Arc::new(AtomicUsize::new(0));
    // Leader + 2 followers, all racing the same key.
    let barrier = Arc::new(Barrier::new(3));
    let workers: Vec<_> = (0..3)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let attempts = Arc::clone(&attempts);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                // A worker whose prepare attempt panics reports Err —
                // the panic unwinds out of get_or_prepare (the serve
                // driver catches it there); everyone else returns the
                // shared instance.
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_prepare("contended", || {
                        // First prepare execution dies; later ones
                        // (the re-elected leader's) succeed.
                        if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                            panic!("injected prepare failure");
                        }
                        entry.prepare_shared(&CaseSpec::new(64, 1), &RunConfig::seeded(1))
                    })
                }))
            })
        })
        .collect();

    let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    let survivors: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    assert_eq!(
        survivors.len(),
        2,
        "exactly the leader's thread observed the panic"
    );
    // Exactly one re-preparation: the abandoned flight elected one new
    // leader, the other follower coalesced or hit.
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        2,
        "one dead leader + one new leader"
    );
    for instance in &survivors {
        assert_eq!(
            instance.entry_name(),
            "lis",
            "no half-built instance served"
        );
    }
    // The key is resident and healthy now.
    cache.get_or_prepare("contended", || panic!("must be resident after recovery"));
    let snap = cache.snapshot();
    assert_eq!(snap.prepares, 2, "{snap:?}");
}

/// Repeated query panics against one resident poison-evict it; the next
/// lookup prepares a fresh instance.
#[test]
fn query_panics_poison_evict_the_resident() {
    let entry = registry::lookup("lis").unwrap();
    let case = CaseSpec::new(64, 2);
    let cfg = RunConfig::seeded(2);
    let cache = InstanceCache::new(1 << 20);
    cache.get_or_prepare("poisoned", || entry.prepare_shared(&case, &cfg));

    for strike in 1..=InstanceCache::POISON_EVICT_AFTER {
        let evicted = cache.record_query_panic("poisoned");
        assert_eq!(
            evicted,
            strike == InstanceCache::POISON_EVICT_AFTER,
            "strike {strike}"
        );
    }
    let snap = cache.snapshot();
    assert_eq!(snap.poison_evictions, 1, "{snap:?}");
    assert_eq!(snap.entries, 0, "{snap:?}");
    // Strikes against a non-resident key are inert.
    assert!(!cache.record_query_panic("poisoned"));

    // The next lookup re-prepares.
    let prepares_before = snap.prepares;
    cache.get_or_prepare("poisoned", || entry.prepare_shared(&case, &cfg));
    assert_eq!(cache.snapshot().prepares, prepares_before + 1);
}

/// Admission control: a permissive limit is invisible (reference digest
/// intact, zero rejections); outcome accounting always balances.
#[test]
fn admission_accounting_balances() {
    let scenarios = [ScenarioSpec::parse("graph/grid2d+w/unit").unwrap()];
    let trace = QueryTrace::generate(&scenarios, &TraceConfig::new(40, 7));

    // Limit >= worker count: nothing can ever be shed.
    let tier = ServingTier::new(
        "sssp/delta",
        ServeOptions::new(80, 1)
            .with_threads(4)
            .with_admission_limit(8),
    )
    .unwrap();
    let report = tier.serve_trace(&trace);
    assert_eq!(report.digest, tier.reference_digest(&trace));
    assert_eq!(report.stats.counter("queries_rejected"), Some(0));

    // Limit 1 under 4 workers: shedding may occur; whatever happens,
    // every query has exactly one typed outcome and the counter matches
    // the rows.
    let tight = ServingTier::new(
        "sssp/delta",
        ServeOptions::new(80, 1)
            .with_threads(4)
            .with_admission_limit(1),
    )
    .unwrap();
    let report = tight.serve_trace(&trace);
    assert_eq!(report.outcomes.len(), trace.len());
    let rejected = report.outcome_count(QueryOutcome::Rejected) as u64;
    assert_eq!(report.stats.counter("queries_rejected"), Some(rejected));
    assert_eq!(
        report.outcome_count(QueryOutcome::Completed) + rejected as usize,
        trace.len(),
        "{:?}",
        report.outcomes
    );
}

/// Fault-injection replay (runs only under `--cfg pp_fault`): injected
/// query panics and forced deadline expiry under a fixed seed, over two
/// graph tenants, produce typed outcome rows, nonzero resilience
/// counters, and a re-run under the same seed on 8 workers instead of
/// 1 reproduces the identical outcome sequence and digest.
#[test]
fn seeded_faults_are_typed_and_replayable() {
    if !fault::ENABLED {
        return; // compiled out; CI's fault leg builds with `--cfg pp_fault`
    }
    let scenarios = [
        ScenarioSpec::parse("graph/rmat+w/uniform").unwrap(),
        ScenarioSpec::parse("graph/grid2d+w/unit").unwrap(),
    ];
    let trace = QueryTrace::generate(&scenarios, &TraceConfig::new(60, 17));
    fault::install(
        FaultPlan::new("pr9-resilience")
            .with_rule("serve.query.panic", 5)
            .with_rule("serve.query.deadline", 5),
    );
    let serve = |threads: usize| {
        let tier = ServingTier::new(
            "sssp/delta",
            ServeOptions::new(80, 1)
                .with_threads(threads)
                .with_max_retries(1),
        )
        .unwrap();
        tier.serve_trace(&trace)
    };
    let first = serve(1);
    let again = serve(8);
    fault::clear();

    // Fault decisions are pure hashes of (seed, site, query seed ^
    // attempt): the outcome sequence and digest are identical across
    // runs and thread counts.
    assert_eq!(first.outcomes, again.outcomes);
    assert_eq!(first.digest, again.digest);
    assert!(
        first.stats.counter("panics_isolated").unwrap() > 0,
        "{:?}",
        first.stats.counters()
    );
    assert!(first.stats.counter("deadline_exceeded").unwrap() > 0);
    assert_eq!(
        first.stats.counter("scratch_quarantined"),
        first.stats.counter("panics_isolated"),
        "every isolated panic quarantined its workspace"
    );
    // Every query still resolved to a typed row.
    assert_eq!(first.outcomes.len(), trace.len());
    assert!(first.outcome_count(QueryOutcome::Completed) > 0);
}
