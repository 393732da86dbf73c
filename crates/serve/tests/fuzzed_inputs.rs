//! Structure-aware fuzzing of the serve boundary's inputs: mutated
//! scenario keys, mutated query knobs and a hostile served trace must
//! each resolve to typed outcomes — no panic, no hang, no digest drift
//! on accepted inputs — identically at 1 and at 8 workers.
//!
//! Every case comes from `pp_check::fuzz` under the fixed plan seed
//! [`FUZZ_SEED`], so a failure replays from `(seed, case index)` alone.
//! The CSR-array family feeds `Graph::try_from_csr` and lives in
//! `pp-graph`'s `csr_properties.rs`.

#![forbid(unsafe_code)]

use phase_parallel::RunConfig;
use pp_algos::registry::{self, CaseSpec};
use pp_check::fuzz::FuzzPlan;
use pp_serve::{QueryOutcome, ServeOptions, ServingTier};
use pp_workloads::{QueryTrace, ScenarioSpec, TraceConfig, TraceQuery};
use std::time::Duration;

const FUZZ_SEED: &str = "pr10-fuzz-smoke";

/// Cases per family: more than any family has mutations, so each
/// family meets every mutation at least once.
const CASES: u64 = 70;

/// Mutated scenario keys parse or fail typed; accepted keys
/// canonicalize to a key that re-parses to the same scenario, and
/// identity keys mean exactly what their base key means.
#[test]
fn mutated_scenario_keys_parse_or_fail_typed() {
    let plan = FuzzPlan::new(FUZZ_SEED);
    let bases = [
        "graph/rmat+w/uniform",
        "graph/grid2d+w/unit",
        "graph/uniform",
        "seq/uniform",
        "seq/zipf",
    ];
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..CASES {
        let base = bases[plan.rng(i ^ 0x5eed).index_in(&bases)];
        let case = plan.key_case(i, base);
        let parsed = ScenarioSpec::parse(&case.key);
        if case.mutation == "identity" {
            assert_eq!(parsed, ScenarioSpec::parse(base), "key case {i}");
        }
        match parsed {
            Ok(spec) => {
                accepted += 1;
                let canon = spec.key();
                assert_eq!(
                    ScenarioSpec::parse(&canon),
                    Ok(spec),
                    "key case {i} ({}): canonical key {canon:?} does not round-trip",
                    case.mutation
                );
            }
            Err(_) => rejected += 1,
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "one-sided: {accepted} accepted / {rejected} rejected"
    );
}

/// Mutated query knobs (zero deadline, Δ/ρ at the `u64` extremes,
/// out-of-range sources) on the registry's validated run path come back
/// as a typed outcome or a typed error. Only a hostile source may be
/// rejected, and a run without a deadline still agrees with its
/// sequential reference.
#[test]
fn mutated_query_knobs_run_or_fail_typed() {
    let plan = FuzzPlan::new(FUZZ_SEED);
    let size = 80;
    let case_spec = CaseSpec::new(size, 7);
    let entries = ["sssp/delta", "sssp/rho", "mis/tas", "lis"];
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..CASES {
        let entry = entries[plan.rng(i ^ 0x6b6e_6f62).index_in(&entries)];
        let entry = registry::lookup(entry).unwrap();
        let knobs = plan.knob_case(i, size);
        let mut cfg = RunConfig::seeded(i);
        if let Some(nanos) = knobs.deadline_nanos {
            cfg = cfg.with_deadline(Duration::from_nanos(nanos));
        }
        if let Some(delta) = knobs.delta {
            cfg = cfg.with_delta(delta);
        }
        if let Some(rho) = knobs.rho {
            cfg = cfg.with_rho(rho.min(usize::MAX as u64) as usize);
        }
        if let Some(source) = knobs.source {
            cfg = cfg.with_source(source);
        }
        let context = format!("knob case {i} ({knobs} on {})", entry.name());
        match entry.run_case(&case_spec, &cfg) {
            Ok(outcome) => {
                accepted += 1;
                // A cancelled run may disagree, but it returned.
                if knobs.deadline_nanos.is_none() {
                    assert!(outcome.agrees(), "{context}: digests disagree");
                }
            }
            Err(_) => {
                rejected += 1;
                assert!(knobs.source.is_some(), "{context}: rejected");
            }
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "one-sided: {accepted} accepted / {rejected} rejected"
    );
}

/// The hostile tenant's queries land as typed `InvalidInput` rows, the
/// valid tenants' still complete, and the outcome sequence and digest
/// do not depend on the worker count.
#[test]
fn hostile_trace_is_rejected_typed_at_any_worker_count() {
    // Two valid graph tenants plus an incompatible `seq/…` tenant that
    // every fifth query (and one more at the end) targets.
    let scenarios = vec![
        ScenarioSpec::parse("graph/rmat+w/uniform").unwrap(),
        ScenarioSpec::parse("graph/grid2d+w/unit").unwrap(),
        ScenarioSpec::parse("seq/uniform").unwrap(),
    ];
    let mut trace = QueryTrace::generate(&scenarios[..2], &TraceConfig::new(72, 29));
    trace.scenarios = scenarios;
    for (i, q) in trace.queries.iter_mut().enumerate() {
        if i % 5 == 4 {
            q.scenario = 2;
        }
    }
    trace.queries.push(TraceQuery {
        scenario: 2,
        source_rank: 0,
        seed: 999,
    });
    let hostile = trace.queries.iter().filter(|q| q.scenario == 2).count();
    let serve = |threads: usize| {
        let tier = ServingTier::new(
            "sssp/delta",
            ServeOptions::new(96, 11).with_threads(threads),
        )
        .unwrap();
        tier.serve_trace(&trace)
    };
    let (first, again) = (serve(1), serve(8));
    let invalid = first.outcome_count(QueryOutcome::InvalidInput);
    assert_eq!(invalid, hostile, "{:?}", first.outcomes);
    assert_eq!(
        first.stats.counter("validation_rejected"),
        Some(invalid as u64)
    );
    assert!(first.outcome_count(QueryOutcome::Completed) > 0);
    assert_eq!(first.outcomes, again.outcomes);
    assert_eq!(first.digest, again.digest);
}
