//! Structure-aware fuzz gate: hostile inputs under a fixed seed must
//! resolve to **typed** outcomes — no abort, no hang, no digest drift
//! on accepted inputs — identically across worker counts.
//!
//! The gate drives `pp_check::fuzz`'s three mutator families (≥ 200
//! mutated inputs total, fixed plan seed `"pr10-fuzz-smoke"`) into the
//! workspace's input boundaries:
//!
//! * **CSR arrays** → [`Graph::try_from_csr`]: every mutated triple is
//!   either accepted (a well-formed graph — `validate()` agrees) or a
//!   typed [`GraphError`](pp_graph::GraphError); identity cases must be accepted with arrays
//!   byte-identical to `from_csr`'s.
//! * **Scenario keys** → [`ScenarioSpec::parse`]: mutated keys parse or
//!   fail typed; identity keys round-trip to the original scenario, and
//!   accepted mutants re-parse to themselves via their canonical key.
//! * **Query knobs** → the registry's validated run path: deadline
//!   zero, Δ/ρ at the `u64` extremes, and out-of-range sources on
//!   `sssp/delta` and `sssp/rho` all come back as a typed `CaseOutcome`
//!   or typed [`RegistryError`](pp_algos::registry::RegistryError) — never a panic.
//!
//! A hostile serve trace (valid graph scenarios interleaved with an
//! incompatible `seq/…` tenant) then replays at 1 and at 8 workers: the
//! outcome sequences must be identical, `validation_rejected` must be
//! nonzero (the hostile tenant's queries land as `InvalidInput` rows),
//! and valid queries must still digest to the tier's reference.
//!
//! Run in CI with `PP_SMOKE=1` (the invariants are size-independent).
//!
//! Run with: `cargo run --release -p pp-bench --bin fuzz_smoke`

#![forbid(unsafe_code)]

use phase_parallel::RunConfig;
use pp_algos::registry::{self, CaseSpec};
use pp_check::fuzz::{FuzzPlan, CSR_MUTATIONS, KEY_MUTATIONS, KNOB_MUTATIONS};
use pp_graph::{gen, Graph};
use pp_serve::{QueryOutcome, ServeOptions, ServingTier, TraceReport};
use pp_workloads::{QueryTrace, ScenarioSpec, TraceConfig, TraceQuery};
use std::time::Duration;

/// The gate's fixed plan seed: any failure replays from
/// `(FUZZ_SEED, case index, mutation)` alone.
const FUZZ_SEED: &str = "pr10-fuzz-smoke";

/// A graph's CSR arrays, reassembled from the public accessors.
fn csr_of(g: &Graph) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
    let offsets = g.offsets().to_vec();
    let mut targets = Vec::with_capacity(g.num_edges());
    let mut weights = Vec::new();
    for v in 0..g.num_vertices() as u32 {
        targets.extend_from_slice(g.neighbors(v));
        if g.is_weighted() {
            weights.extend_from_slice(g.edge_weights(v));
        }
    }
    (offsets, targets, weights)
}

fn run_csr_family(plan: &FuzzPlan, cases: u64, failures: &mut Vec<String>) -> (u64, u64) {
    let bases = [
        gen::with_uniform_weights(&gen::uniform(60, 240, 3), 1, 100, 3),
        gen::with_unit_weights(&gen::grid2d(8, 9)),
        gen::uniform(40, 160, 5), // unweighted
        pp_graph::GraphBuilder::new(0).build(),
    ];
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..cases {
        let mut rng = plan.rng(i);
        let base = &bases[rng.index_in(&bases)];
        let (offsets, targets, weights) = csr_of(base);
        let case = plan.csr_case(i, &offsets, &targets, &weights);
        let verdict = Graph::try_from_csr(
            case.offsets.clone(),
            case.targets.clone(),
            case.weights.clone(),
        );
        match verdict {
            Ok(g) => {
                accepted += 1;
                if g.validate().is_err() {
                    failures.push(format!(
                        "csr case {i} ({}): accepted graph fails re-validation",
                        case.mutation
                    ));
                }
                if case.mutation == "identity"
                    && (g.offsets() != offsets.as_slice() || g.num_edges() != targets.len())
                {
                    failures.push(format!("csr case {i}: identity case altered the graph"));
                }
            }
            Err(_) => {
                rejected += 1;
                if case.mutation == "identity" {
                    failures.push(format!("csr case {i}: identity case rejected"));
                }
            }
        }
    }
    (accepted, rejected)
}

fn run_key_family(plan: &FuzzPlan, cases: u64, failures: &mut Vec<String>) -> (u64, u64) {
    let bases = [
        "graph/rmat+w/uniform",
        "graph/grid2d+w/unit",
        "graph/uniform",
        "seq/uniform",
        "seq/zipf",
    ];
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..cases {
        let mut rng = plan.rng(i ^ 0x5eed);
        let base = bases[rng.index_in(&bases)];
        let case = plan.key_case(i, base);
        match ScenarioSpec::parse(&case.key) {
            Ok(spec) => {
                accepted += 1;
                // Accepted keys canonicalize: the canonical key must
                // re-parse to the same scenario (no digest drift).
                let canon = spec.key();
                if ScenarioSpec::parse(&canon) != Ok(spec) {
                    failures.push(format!(
                        "key case {i} ({}): canonical key {canon:?} does not round-trip",
                        case.mutation
                    ));
                }
                // Identity keys must mean exactly what the base key
                // means (aliases may canonicalize to a longer spelling).
                if case.mutation == "identity" && ScenarioSpec::parse(base).ok() != Some(spec) {
                    failures.push(format!(
                        "key case {i}: identity key {:?} parsed away from its base",
                        case.key
                    ));
                }
            }
            Err(_) => {
                rejected += 1;
                if case.mutation == "identity" {
                    failures.push(format!(
                        "key case {i}: identity key {:?} rejected",
                        case.key
                    ));
                }
            }
        }
    }
    (accepted, rejected)
}

fn run_knob_family(plan: &FuzzPlan, cases: u64, failures: &mut Vec<String>) -> (u64, u64) {
    let size = 80usize;
    let case_spec = CaseSpec::new(size, 7);
    let entries = ["sssp/delta", "sssp/rho", "mis/tas", "lis"];
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for i in 0..cases {
        let mut rng = plan.rng(i ^ 0x6b6e_6f62);
        let entry = registry::lookup(entries[rng.index_in(&entries)]).expect("entry");
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
        match entry.run_case(&case_spec, &cfg) {
            Ok(outcome) => {
                accepted += 1;
                // A run that was not cancelled must still agree with
                // the sequential reference; a cancelled run may not,
                // but it *returned* — that is the invariant.
                if knobs.deadline_nanos.is_none() && !outcome.agrees() {
                    failures.push(format!(
                        "knob case {i} ({} on {}): digests disagree without a deadline",
                        knobs,
                        entry.name()
                    ));
                }
            }
            Err(_) => {
                rejected += 1;
                if knobs.source.is_none() {
                    failures.push(format!(
                        "knob case {i} ({} on {}): rejected without a hostile knob",
                        knobs,
                        entry.name()
                    ));
                }
            }
        }
    }
    (accepted, rejected)
}

fn serve_hostile_trace(threads: usize) -> TraceReport {
    // Tenants: two valid graph scenarios plus an incompatible seq
    // tenant — its queries must land as typed `InvalidInput` rows.
    let scenarios = vec![
        ScenarioSpec::parse("graph/rmat+w/uniform").expect("scenario"),
        ScenarioSpec::parse("graph/grid2d+w/unit").expect("scenario"),
        ScenarioSpec::parse("seq/uniform").expect("scenario"),
    ];
    let mut trace = QueryTrace::generate(&scenarios[..2], &TraceConfig::new(72, 29));
    trace.scenarios = scenarios;
    // Interleave hostile queries deterministically: every fifth query
    // targets the incompatible tenant.
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
    let tier = ServingTier::new(
        "sssp/delta",
        ServeOptions::new(96, 11).with_threads(threads),
    )
    .expect("serving entry");
    tier.serve_trace(&trace)
}

fn main() {
    let plan = FuzzPlan::new(FUZZ_SEED);
    let per_family: u64 = if pp_bench::smoke() {
        70
    } else {
        70 * pp_bench::scale() as u64
    };
    let mut failures = Vec::new();

    let (csr_ok, csr_rej) = run_csr_family(&plan, per_family, &mut failures);
    let (key_ok, key_rej) = run_key_family(&plan, per_family, &mut failures);
    let (knob_ok, knob_rej) = run_knob_family(&plan, per_family, &mut failures);

    let total = 3 * per_family;
    if total < 200 {
        failures.push(format!(
            "only {total} mutated inputs; the gate requires >= 200"
        ));
    }
    // The case index strides each mutation table, so a family of at
    // least table-length cases exercises every mutation at least once.
    let widest = CSR_MUTATIONS
        .len()
        .max(KEY_MUTATIONS.len())
        .max(KNOB_MUTATIONS.len());
    if per_family < widest as u64 {
        failures.push(format!(
            "{per_family} cases per family cannot cover all {widest} mutations"
        ));
    }
    // Every family must have exercised both sides of its boundary.
    for (family, ok, rej) in [
        ("csr", csr_ok, csr_rej),
        ("key", key_ok, key_rej),
        ("knob", knob_ok, knob_rej),
    ] {
        if ok == 0 || rej == 0 {
            failures.push(format!(
                "{family} family one-sided: {ok} accepted / {rej} rejected"
            ));
        }
    }

    // The hostile trace: typed rows only, nonzero validation
    // rejections, identical outcome sequences across worker counts.
    let first = serve_hostile_trace(1);
    let again = serve_hostile_trace(8);
    let invalid = first.outcome_count(QueryOutcome::InvalidInput);
    if invalid == 0 {
        failures.push("hostile tenant produced no InvalidInput rows".into());
    }
    if first.stats.counter("validation_rejected") != Some(invalid as u64) {
        failures.push(format!(
            "validation_rejected counter {:?} != {invalid} InvalidInput rows",
            first.stats.counter("validation_rejected")
        ));
    }
    if first.outcome_count(QueryOutcome::Completed) == 0 {
        failures.push("hostile tenant poisoned every query".into());
    }
    if first.outcomes != again.outcomes {
        failures.push("outcome sequence diverged between 1 and 8 workers".into());
    }
    if first.digest != again.digest {
        failures.push(format!(
            "trace digest diverged between 1 and 8 workers: {:#x} vs {:#x}",
            first.digest, again.digest
        ));
    }

    let table = pp_bench::Table::new(&["family", "cases", "accepted", "rejected"]);
    for (family, ok, rej) in [
        ("csr", csr_ok, csr_rej),
        ("scenario-key", key_ok, key_rej),
        ("config-knob", knob_ok, knob_rej),
    ] {
        table.row(&[
            family.to_string(),
            per_family.to_string(),
            ok.to_string(),
            rej.to_string(),
        ]);
    }

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("fuzz_smoke: seed {FUZZ_SEED:?}: {failure}");
        }
        std::process::exit(1);
    }
    println!(
        "fuzz_smoke: seed {FUZZ_SEED:?}: {total} mutated inputs all typed \
         ({} accepted / {} rejected), {invalid} hostile queries rejected as \
         InvalidInput, outcome sequences identical at 1 and 8 workers",
        csr_ok + key_ok + knob_ok,
        csr_rej + key_rej + knob_rej,
    );
}
