//! Framework-conformance tests.
//!
//! Five layers:
//!
//! 1. **Registry conformance** — one generic suite that iterates the
//!    string-keyed algorithm registry and asserts `solve_par ==
//!    solve_seq` for *every* registered family on empty, singleton, and
//!    random instances across seeds and pivot modes. Adding a family to
//!    the registry automatically enrolls it here.
//! 2. **Prepared conformance** — for every registered family,
//!    `solve_prepared` against a once-built prepared instance (with a
//!    shared, buffer-recycling scratch workspace) must equal a fresh
//!    one-shot `solve_par` for each query config, including per-query
//!    source overrides for the SSSP family.
//! 3. **Scenario matrix** — every registry entry × every workload
//!    family applicable to it (`pp-workloads`): par == seq and
//!    prepared == one-shot on each scenario-drawn instance, so input
//!    diversity (power-law graphs, grids, meshes, hub skew, sorted and
//!    adversarial-chain sequences, zipf draws) is a tested axis, with
//!    SSSP additionally swept across edge-weight distributions.
//! 4. **Real-concurrency conformance** — the rayon shim runs a real
//!    fork-join pool, so the registry-wide digests are additionally
//!    pinned identical across 1-, 2- and 8-thread pools (one-shot and
//!    prepared), with a 16-iteration repeated-run race smoke over the
//!    SSSP family.
//! 5. **Rank specification** — the concrete algorithms' ranks match the
//!    brute-force independence-system specification of §3 (Definitions
//!    3.1, Theorems 3.2/3.4), tying the implementations back to the
//!    paper's formalism.

use phase_parallel::rank::IndependenceSystem;
use phase_parallel::{PivotMode, PrioritySource, RunConfig};
use pp_algos::activity::{self, Activity};
use pp_algos::lis;
use pp_algos::registry::{self, CaseSpec};
use pp_parlay::rng::Rng;
use pp_workloads::{ScenarioSpec, WeightDist};

// ---- layer 1: every registered algorithm is sequential-equivalent ----

/// Run every registry entry on one case and assert agreement.
fn assert_all_agree(case: CaseSpec, cfg: &RunConfig) {
    for entry in registry::registry() {
        let outcome = entry.run_case(&case, cfg).unwrap();
        assert!(
            outcome.agrees(),
            "{}: parallel output diverged from sequential on size={} seed={} cfg={cfg:?}",
            entry.name(),
            case.size,
            case.seed,
        );
    }
}

#[test]
fn registry_covers_every_family() {
    // Guards against families silently dropping out of the registry.
    let names = registry::names();
    for family in [
        "lis",
        "lis/weighted",
        "activity/type1",
        "activity/type1-pam",
        "activity/type2",
        "activity/unweighted",
        "knapsack",
        "huffman",
        "sssp/delta",
        "sssp/dijkstra",
        "sssp/rho",
        "sssp/crauser",
        "sssp/pam",
        "sssp/bellman-ford",
        "mis/tas",
        "mis/rounds",
        "coloring",
        "matching",
        "matching/reservations",
        "whac",
        "whac/2d",
        "chain3d",
        "chain4d",
        "random-perm",
    ] {
        assert!(names.contains(&family), "{family} missing from registry");
    }
}

#[test]
fn conformance_on_empty_instances() {
    assert_all_agree(CaseSpec::new(0, 1), &RunConfig::seeded(1));
}

#[test]
fn conformance_on_singleton_instances() {
    assert_all_agree(CaseSpec::new(1, 2), &RunConfig::seeded(2));
    assert_all_agree(CaseSpec::new(1, 3), &RunConfig::seeded(9));
}

#[test]
fn conformance_on_random_instances() {
    let mut r = Rng::new(77);
    for trial in 0..6 {
        let size = 2 + r.range(250) as usize;
        let cfg = RunConfig::seeded(trial).with_pivot_mode(if trial % 2 == 0 {
            PivotMode::Random
        } else {
            PivotMode::RightMost
        });
        assert_all_agree(CaseSpec::new(size, trial + 10), &cfg);
    }
}

#[test]
fn conformance_with_per_algorithm_knobs() {
    // The typed knobs must not break sequential equivalence.
    let case = CaseSpec::new(150, 4);
    for cfg in [
        RunConfig::seeded(4).with_delta(3),
        RunConfig::seeded(4).with_delta(1 << 18),
        RunConfig::seeded(4).with_rho(1),
        RunConfig::seeded(4).with_rho(64),
        RunConfig::seeded(4).with_priority_source(PrioritySource::LargestDegreeFirst),
        RunConfig::seeded(4).with_priority_source(PrioritySource::SmallestDegreeLast),
    ] {
        assert_all_agree(case, &cfg);
    }
}

// ---- layer 2: prepared queries equal one-shot solves ----

/// Run every registry entry through the batched prepared path and
/// assert each query agrees with its fresh one-shot reference.
fn assert_all_prepared_agree(case: CaseSpec, queries: &[RunConfig]) {
    for entry in registry::registry() {
        let outcomes = entry
            .run_batch(&case, queries, &RunConfig::seeded(case.seed))
            .unwrap();
        assert_eq!(outcomes.len(), queries.len());
        for (i, outcome) in outcomes.iter().enumerate() {
            assert!(
                outcome.agrees(),
                "{}: prepared query {i} diverged from one-shot on size={} seed={} cfg={:?}",
                entry.name(),
                case.size,
                case.seed,
                queries[i],
            );
        }
    }
}

#[test]
fn prepared_conformance_on_edge_instances() {
    let queries = [RunConfig::seeded(1), RunConfig::seeded(2)];
    assert_all_prepared_agree(CaseSpec::new(0, 3), &queries);
    assert_all_prepared_agree(CaseSpec::new(1, 4), &queries);
}

#[test]
fn prepared_conformance_across_query_knobs() {
    // One prepared instance, queried under every per-algorithm knob the
    // config carries — each query must match its own one-shot run.
    let queries = [
        RunConfig::seeded(5),
        RunConfig::seeded(6).with_pivot_mode(PivotMode::RightMost),
        RunConfig::seeded(7).with_delta(2),
        RunConfig::seeded(8).with_delta(1 << 16),
        RunConfig::seeded(9).with_rho(1),
        RunConfig::seeded(10).with_rho(128),
    ];
    assert_all_prepared_agree(CaseSpec::new(140, 11), &queries);
}

#[test]
fn prepared_conformance_across_sources() {
    // The SSSP family serves per-source queries from one prepared
    // instance; non-SSSP families ignore the override. Instance size
    // 120 floors the graph at 120 vertices, so sources < 120 are valid.
    let queries: Vec<RunConfig> = (0..6)
        .map(|i| RunConfig::seeded(i).with_source((i as u32 * 19) % 120))
        .collect();
    assert_all_prepared_agree(CaseSpec::new(120, 13), &queries);
}

// ---- layer 3: the registry × scenario conformance matrix ----

/// Every registry entry, on every default-knob scenario family it can
/// consume (graph entries get the five `graph/…` shapes, sequence
/// entries the four `seq/…` distributions): the parallel execution must
/// reproduce the sequential baseline on the scenario-drawn instance.
#[test]
fn scenario_matrix_par_equals_seq() {
    for entry in registry::registry() {
        let scenarios = entry.scenarios();
        assert!(
            scenarios.len() >= 3,
            "{}: matrix requires ≥3 applicable scenario families, got {}",
            entry.name(),
            scenarios.len()
        );
        for scenario in scenarios {
            for (size, seed) in [(2usize, 4u64), (67, 5), (150, 6)] {
                let case = CaseSpec::new(size, seed).with_scenario(scenario);
                let outcome = entry
                    .run_case(&case, &RunConfig::seeded(seed))
                    .expect("applicable scenario");
                assert!(
                    outcome.agrees(),
                    "{} diverged on scenario {} size={size} seed={seed}",
                    entry.name(),
                    scenario.key(),
                );
            }
        }
    }
}

/// The prepared layer of the matrix: on every entry × scenario, queries
/// served from one prepared instance (shared scratch) must equal fresh
/// one-shot solves — including per-query knob and source overrides.
#[test]
fn scenario_matrix_prepared_equals_one_shot() {
    // Size 80 floors every graph scenario at ≥80 vertices, so the
    // source overrides below stay in range.
    let queries = [
        RunConfig::seeded(21),
        RunConfig::seeded(22).with_delta(7).with_source(19),
        RunConfig::seeded(23).with_rho(8).with_source(61),
        RunConfig::seeded(24).with_pivot_mode(PivotMode::RightMost),
    ];
    for entry in registry::registry() {
        for scenario in entry.scenarios() {
            let case = CaseSpec::new(80, 17).with_scenario(scenario);
            let outcomes = entry
                .run_batch(&case, &queries, &RunConfig::seeded(17))
                .expect("applicable scenario");
            assert_eq!(outcomes.len(), queries.len());
            for (i, outcome) in outcomes.iter().enumerate() {
                assert!(
                    outcome.agrees(),
                    "{}: prepared query {i} diverged on scenario {}",
                    entry.name(),
                    scenario.key(),
                );
            }
        }
    }
}

/// Scenario-drawn instances are deterministic end to end: the same
/// (entry, scenario, size, seed) always digests identically — the
/// registry-level form of the generator-determinism property.
#[test]
fn scenario_matrix_is_deterministic() {
    let cfg = RunConfig::seeded(8);
    for entry in registry::registry() {
        for scenario in entry.scenarios() {
            let case = CaseSpec::new(60, 8).with_scenario(scenario);
            let a = entry.run_case(&case, &cfg).unwrap();
            let b = entry.run_case(&case, &cfg).unwrap();
            assert_eq!(
                a.expected_digest,
                b.expected_digest,
                "{} scenario {} not deterministic",
                entry.name(),
                scenario.key(),
            );
            assert_eq!(a.observed_digest, b.observed_digest);
        }
    }
}

/// The SSSP family must stay conformant under every edge-weight
/// distribution crossed with every graph shape (weights change the
/// bucket structure Δ- and ρ-stepping phase over).
#[test]
fn scenario_matrix_weight_distributions() {
    let weight_dists = [
        WeightDist::Unit,
        WeightDist::Uniform { min: 1, max: 1000 },
        WeightDist::Exp { mean: 100 },
    ];
    for name in ["sssp/delta", "sssp/rho"] {
        let entry = registry::lookup(name).expect("registered");
        for scenario in entry.scenarios() {
            for dist in weight_dists {
                let case = CaseSpec::new(90, 3).with_scenario(scenario.with_weights(dist));
                let outcome = entry.run_case(&case, &RunConfig::seeded(3)).unwrap();
                assert!(
                    outcome.agrees(),
                    "{name} diverged on {} × {}",
                    scenario.key(),
                    dist.key(),
                );
            }
        }
    }
}

/// String-keyed dispatch end to end: entry key + scenario key, via
/// `lookup`, for a representative of each kind.
#[test]
fn scenario_matrix_by_string_keys() {
    for (entry_key, scenario_key) in [
        ("sssp/crauser", "graph/star-hub+w/exp"),
        ("mis/tas", "graph/geometric"),
        ("lis", "seq/adversarial-chain"),
        ("huffman", "seq/zipf"),
    ] {
        let case = CaseSpec::new(100, 11)
            .with_scenario_key(scenario_key)
            .unwrap();
        let entry = registry::lookup(entry_key).unwrap();
        let outcome = entry.run_case(&case, &RunConfig::seeded(11)).unwrap();
        assert!(outcome.agrees(), "{entry_key} on {scenario_key}");
    }
    // An adversarial chain drives LIS to its worst-case rank: the
    // scenario's promise (rank = n) is visible in the output digest.
    use pp_algos::registry::Digest;
    let chain = ScenarioSpec::parse("seq/adversarial-chain").unwrap();
    let case = CaseSpec::new(64, 1).with_scenario(chain);
    let lis = registry::lookup("lis").unwrap();
    let outcome = lis.run_case(&case, &RunConfig::seeded(1)).unwrap();
    assert_eq!(outcome.expected_digest, 64u32.digest());
}

/// Every entry's prepared query path must reuse its scratch buffers in
/// steady state: after two warm-up queries, a third query's `take_*`
/// calls are all served from parked buffers (no per-query scratch
/// allocations).
#[test]
fn scenario_matrix_steady_state_scratch_reuse() {
    // These entries copy per-query state out of their prepared instance
    // into workspace buffers, so they must take at least one.
    const COPIES_FROM_SCRATCH: [&str; 8] = [
        "lis/weighted",
        "huffman",
        "random-perm",
        "whac/2d",
        "chain3d",
        "chain4d",
        "activity/type1",
        "activity/type2",
    ];
    let cfg = RunConfig::seeded(5);
    for entry in registry::registry() {
        for scenario in entry.scenarios() {
            let case = CaseSpec::new(90, 4).with_scenario(scenario);
            let probe = entry.scratch_probe(&case, &cfg).unwrap();
            assert!(
                probe.steady_state_reuse(),
                "{} on {}: steady-state query took {} buffers but reused only {}",
                entry.name(),
                scenario.key(),
                probe.takes,
                probe.reuses,
            );
            if COPIES_FROM_SCRATCH.contains(&entry.name()) {
                assert!(
                    probe.takes >= 1,
                    "{} on {}: steady-state query took no buffer",
                    entry.name(),
                    scenario.key(),
                );
            }
        }
    }
}

// ---- layer 4: real-concurrency conformance ----
//
// The rayon shim runs a real fork-join pool, so these tests pin the
// property the paper's determinism claim promises under *actual*
// concurrency: outputs are a function of the instance and the seed,
// never of the worker count or the scheduling of a particular run.

/// Registry-wide: every entry's parallel output digest is identical
/// under dedicated 1-, 2- and 8-thread pools (and each agrees with the
/// sequential baseline). Real parallelism must not introduce
/// nondeterminism anywhere in the registry.
#[test]
fn digests_identical_across_thread_counts() {
    let case = CaseSpec::new(180, 21);
    for entry in registry::registry() {
        let reference = entry
            .run_case(&case, &RunConfig::seeded(21).with_threads(1))
            .unwrap();
        assert!(
            reference.agrees(),
            "{}: 1-thread run diverged",
            entry.name()
        );
        for threads in [2usize, 8] {
            let outcome = entry
                .run_case(&case, &RunConfig::seeded(21).with_threads(threads))
                .unwrap();
            assert!(
                outcome.agrees(),
                "{}: {threads}-thread run diverged from sequential",
                entry.name(),
            );
            assert_eq!(
                outcome.observed_digest,
                reference.observed_digest,
                "{}: digest changed between 1 and {threads} threads",
                entry.name(),
            );
        }
    }
}

/// The prepared path under real concurrency: for every entry, batched
/// prepared queries (which fan out across the pool with per-worker
/// scratch) must agree with fresh one-shot runs and digest identically
/// at every thread count. The queries use both pivot modes, so each
/// prepared instance serves a mode it was not built for.
#[test]
fn prepared_digests_identical_across_thread_counts() {
    let case = CaseSpec::new(130, 23);
    let queries = [
        RunConfig::seeded(31),
        RunConfig::seeded(32).with_delta(5),
        RunConfig::seeded(33).with_source(17),
        RunConfig::seeded(34).with_rho(16),
        RunConfig::seeded(35).with_pivot_mode(PivotMode::RightMost),
    ];
    for entry in registry::registry() {
        let mut reference: Option<Vec<u64>> = None;
        for threads in [1usize, 2, 8] {
            let outcomes = entry
                .run_batch(
                    &case,
                    &queries,
                    &RunConfig::seeded(23).with_threads(threads),
                )
                .unwrap();
            for (i, outcome) in outcomes.iter().enumerate() {
                assert!(
                    outcome.agrees(),
                    "{}: prepared query {i} diverged at {threads} threads",
                    entry.name(),
                );
            }
            let digests: Vec<u64> = outcomes.iter().map(|o| o.observed_digest).collect();
            match &reference {
                None => reference = Some(digests),
                Some(want) => assert_eq!(
                    &digests,
                    want,
                    "{}: prepared digests changed at {threads} threads",
                    entry.name(),
                ),
            }
        }
    }
}

/// Race smoke: the same (entry, scenario, config) executed 16 times on
/// an 8-thread pool must digest identically every time, for every SSSP
/// entry across ≥3 scenario families. SSSP is the family whose inner
/// loops lean hardest on concurrent `fetch_min`/CAS relaxation — if a
/// scheduling-dependent result exists anywhere, it shows up here.
#[test]
fn sssp_repeated_runs_race_smoke() {
    let cfg = RunConfig::seeded(29).with_threads(8);
    for entry in registry::registry() {
        if !entry.name().starts_with("sssp/") {
            continue;
        }
        let scenarios = entry.scenarios();
        assert!(
            scenarios.len() >= 3,
            "{}: race smoke needs ≥3 scenario families",
            entry.name()
        );
        for scenario in scenarios.into_iter().take(3) {
            let case = CaseSpec::new(140, 9).with_scenario(scenario);
            let reference = entry.run_case(&case, &cfg).expect("applicable scenario");
            assert!(reference.agrees());
            for iteration in 1..16 {
                let outcome = entry.run_case(&case, &cfg).expect("applicable scenario");
                assert_eq!(
                    outcome.observed_digest,
                    reference.observed_digest,
                    "{} on {}: digest changed on iteration {iteration}",
                    entry.name(),
                    case.scenario.as_ref().map(|s| s.key()).unwrap_or_default(),
                );
            }
        }
    }
}

// ---- layer 5: rank specification (§3) ----

/// LIS as an independence system (the §3 running example).
struct LisSystem(Vec<i64>);

impl IndependenceSystem for LisSystem {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn is_feasible(&self, set: &[usize]) -> bool {
        set.windows(2).all(|w| self.0[w[0]] < self.0[w[1]])
    }
}

/// Activity selection as an independence system: feasible = pairwise
/// non-overlapping, objects ordered by end time.
struct ActivitySystem(Vec<Activity>);

impl IndependenceSystem for ActivitySystem {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn is_feasible(&self, set: &[usize]) -> bool {
        set.iter().all(|&i| {
            set.iter().all(|&j| {
                i == j || {
                    let (a, b) = (&self.0[i], &self.0[j]);
                    a.end <= b.start || b.end <= a.start
                }
            })
        })
    }
}

#[test]
fn lis_dp_values_are_ranks() {
    // dp[i] from the algorithms == rank(i) == DG depth (Thm 3.4).
    let mut r = Rng::new(1);
    for _ in 0..10 {
        let n = 3 + r.range(8) as usize;
        let v: Vec<i64> = (0..n).map(|_| r.range(10) as i64).collect();
        let sys = LisSystem(v.clone());
        let (_, dp) = lis::lis_seq_with_dp(&v);
        for (x, &d) in dp.iter().enumerate() {
            assert_eq!(d as usize, sys.rank_of(x), "rank mismatch at {x} in {v:?}");
            assert_eq!(sys.rank_of(x), sys.dg_depth(x), "Thm 3.4 violated at {x}");
        }
    }
}

#[test]
fn activity_ranks_match_specification() {
    let mut r = Rng::new(2);
    for _ in 0..10 {
        let n = 3 + r.range(7) as usize;
        let acts: Vec<Activity> = (0..n)
            .map(|_| {
                let s = r.range(20);
                Activity::new(s, s + 1 + r.range(10), 1)
            })
            .collect();
        let acts = activity::sort_by_end(acts);
        let sys = ActivitySystem(acts.clone());
        let ranks = activity::ranks(&acts);
        for (x, &rk) in ranks.iter().enumerate() {
            assert_eq!(rk as usize, sys.rank_of(x), "activity rank mismatch at {x}");
        }
    }
}

#[test]
fn theorem_3_2_holds_for_both_systems() {
    // Objects of equal rank never rely on each other.
    let v = vec![3i64, 1, 4, 1, 5, 9, 2, 6];
    let sys = LisSystem(v);
    for x in 0..sys.len() {
        for y in 0..x {
            if sys.rank_of(x) == sys.rank_of(y) {
                assert!(!sys.relies_on(x, y));
            }
        }
    }
}

/// The 2D-grid Whac-A-Mole as an independence system: feasible = a set
/// of moles that one hammer can hit in time order (pairwise L1
/// reachability in both rotated directions — strict, per Eq. (5)/(6)).
struct Whac2dSystem(Vec<pp_algos::whac::Mole2d>);

impl IndependenceSystem for Whac2dSystem {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn is_feasible(&self, set: &[usize]) -> bool {
        // Sort set members by time; every consecutive (hence every)
        // pair must satisfy the four strict rotated constraints.
        let mut s: Vec<&pp_algos::whac::Mole2d> = set.iter().map(|&i| &self.0[i]).collect();
        s.sort_by_key(|m| (m.t, m.x, m.y));
        s.windows(2).all(|w| {
            let (a, b) = (w[0], w[1]);
            a.t + a.x + a.y < b.t + b.x + b.y
                && a.t + a.x - a.y < b.t + b.x - b.y
                && a.t - a.x + a.y < b.t - b.x + b.y
                && a.t - a.x - a.y < b.t - b.x - b.y
        })
    }
}

#[test]
fn whac2d_rank_is_max_feasible_set() {
    // rank(S) from the solver == |MFS| from the brute-force system spec.
    let mut r = Rng::new(3);
    for _ in 0..8 {
        let n = 3 + r.range(7) as usize;
        let moles: Vec<pp_algos::whac::Mole2d> = (0..n)
            .map(|_| pp_algos::whac::Mole2d {
                t: r.range(12) as i64,
                x: r.range(6) as i64 - 3,
                y: r.range(6) as i64 - 3,
            })
            .collect();
        let sys = Whac2dSystem(moles.clone());
        let want = sys.rank_of_set();
        assert_eq!(
            pp_algos::whac::whac2d_seq(&moles) as usize,
            want,
            "whac2d MFS mismatch on {moles:?}"
        );
    }
}

#[test]
fn hereditary_property_sanity() {
    // Subsets of feasible sets are feasible (checked on LIS instances).
    let v = vec![2i64, 5, 3, 7];
    let sys = LisSystem(v);
    let feasible = vec![0usize, 2, 3]; // 2 < 3 < 7
    assert!(sys.is_feasible(&feasible));
    assert!(sys.is_feasible(&[0, 2]));
    assert!(sys.is_feasible(&[2, 3]));
    assert!(sys.is_feasible(&[]));
}
