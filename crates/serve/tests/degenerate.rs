//! Degenerate-instance sweep: the smallest inputs an operator can ask
//! for — the empty instance, a single element, all-isolated vertices,
//! a zero-draw sequence scenario — must flow through **every** registry
//! entry's one-shot, prepared, and deadlined paths as typed, agreeing
//! outcomes. No panic, no hang, no digest drift.

#![forbid(unsafe_code)]

use phase_parallel::{RunConfig, Scratch};
use pp_algos::api::{
    Coloring, DeltaSssp, GraphPriorityInstance, GreedyMis, Matching, SsspInstance,
};
use pp_algos::registry::{self, CaseSpec};
use pp_serve::SharedPrepared;
use pp_workloads::ScenarioKind;
use std::time::Duration;

/// Sizes 0, 1, 2: the empty instance (graph families floor at one
/// vertex), the singleton, and the smallest instance that can hold a
/// dependence. Every entry must agree with its sequential reference
/// and serve the same digest from the prepared path.
#[test]
fn every_entry_survives_degenerate_sizes() {
    for entry in registry::registry() {
        for size in [0usize, 1, 2] {
            let case = CaseSpec::new(size, 3);
            let cfg = RunConfig::seeded(3);
            let outcome = entry
                .run_case(&case, &cfg)
                .unwrap_or_else(|e| panic!("{} size {size}: {e}", entry.name()));
            assert!(outcome.agrees(), "{} size {size}", entry.name());

            let shared = entry.prepare_shared(&case, &cfg);
            let mut scratch = Scratch::new();
            let served = shared.query(&mut scratch, &cfg);
            assert!(served.outcome.is_complete(), "{} size {size}", entry.name());
            assert_eq!(
                served.digest,
                shared.one_shot_digest(&cfg),
                "{} size {size}: prepared diverged",
                entry.name()
            );
        }
    }
}

/// A zero-deadline query against a degenerate instance must still be a
/// typed outcome — either it tripped (DeadlineExceeded) or the run was
/// trivially over before the first poll (Completed); both are legal,
/// panicking or wedging is not.
#[test]
fn zero_deadline_on_degenerate_instances_is_typed() {
    for entry in registry::registry() {
        for size in [0usize, 1] {
            let case = CaseSpec::new(size, 5);
            let shared = entry.prepare_shared(&case, &RunConfig::seeded(5));
            let mut scratch = Scratch::new();
            let cfg = RunConfig::seeded(5).with_deadline(Duration::ZERO);
            let served = shared.query(&mut scratch, &cfg);
            // Typed either way; and the next undeadlined query on the
            // same scratch must still be exact.
            let clean = shared.query(&mut scratch, &RunConfig::seeded(5));
            assert!(clean.outcome.is_complete(), "{} size {size}", entry.name());
            assert_eq!(
                clean.digest,
                shared.one_shot_digest(&RunConfig::seeded(5)),
                "{} size {size} after outcome {:?}",
                entry.name(),
                served.outcome
            );
        }
    }
}

/// A zero-draw sequence scenario (`seq/…` at size 0) is a legal empty
/// input for every sequence-kind entry.
#[test]
fn zero_draw_seq_scenario_is_accepted() {
    for key in ["seq/uniform", "seq/zipf"] {
        let case = CaseSpec::new(0, 7).with_scenario_key(key).unwrap();
        for entry in registry::registry() {
            if entry.scenario_kind() != ScenarioKind::Seq {
                continue;
            }
            let outcome = entry
                .run_case(&case, &RunConfig::seeded(7))
                .unwrap_or_else(|e| panic!("{} on {key}: {e}", entry.name()));
            assert!(outcome.agrees(), "{} on zero-draw {key}", entry.name());
        }
    }
}

/// All-isolated vertices (a builder graph with no edges) through the
/// graph families' serve cells: MIS selects everything, coloring is
/// all-zero, matching is empty, SSSP is source-only — and every
/// prepared digest matches its one-shot.
#[test]
fn isolated_vertices_serve_exactly() {
    let n = 8usize;
    let edgeless = || pp_graph::GraphBuilder::new(n).build();
    let priority: Vec<u32> = (0..n as u32).rev().collect();
    let cfg = RunConfig::seeded(9);
    let mut scratch = Scratch::new();

    let cells: Vec<SharedPrepared> = vec![
        SharedPrepared::new(
            "mis/tas",
            GreedyMis,
            GraphPriorityInstance::new(edgeless(), priority.clone()),
            1 << 12,
        ),
        SharedPrepared::new(
            "coloring",
            Coloring,
            GraphPriorityInstance::new(edgeless(), priority),
            1 << 12,
        ),
        // Matching takes *per-edge* priorities; the edgeless graph has
        // none.
        SharedPrepared::new(
            "matching",
            Matching,
            GraphPriorityInstance::new(edgeless(), Vec::new()),
            1 << 12,
        ),
        SharedPrepared::new(
            "sssp/delta",
            DeltaSssp,
            SsspInstance::new(edgeless(), 0),
            1 << 12,
        ),
    ];
    for cell in &cells {
        let served = cell.query(&mut scratch, &cfg);
        assert!(served.outcome.is_complete(), "{}", cell.entry_name());
        assert_eq!(
            served.digest,
            cell.one_shot_digest(&cfg),
            "{} on the edgeless graph",
            cell.entry_name()
        );
    }
}
