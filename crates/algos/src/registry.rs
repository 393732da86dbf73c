//! The string-keyed algorithm registry: every
//! [`PhaseAlgorithm`](phase_parallel::PhaseAlgorithm) family
//! reachable behind one uniform, type-erased interface.
//!
//! Bench binaries, CLIs, conformance suites and the serving tier
//! dispatch any algorithm by name ([`lookup`]) without knowing its
//! input type: each [`AlgorithmEntry`] pairs a deterministic instance
//! generator (driven by a [`CaseSpec`]) with the family's typed
//! [`crate::api`] implementation, and reports results as output
//! digests (FNV-1a over the canonical output encoding —
//! order-sensitive, so outputs must be deterministic) plus the unified
//! [`ExecutionStats`].
//!
//! An entry's one type-erased runner generates and prepares the
//! instance as a [`SharedPrepared`]
//! ([`AlgorithmEntry::prepare_shared`]); every execution shape is
//! generic code over that handle:
//!
//! * [`AlgorithmEntry::run_case`] — one-shot: run `solve_seq` and
//!   `solve_par` on the instance, digest both.
//! * [`AlgorithmEntry::run_batch`] — prepare/query: answer each query
//!   config via `solve_prepared` on a shared scratch workspace,
//!   digesting each against a fresh one-shot `solve_par` reference.
//! * [`AlgorithmEntry::scratch_probe`] — the scratch behavior of one
//!   steady-state prepared query.
//!
//! # Scenarios
//!
//! A [`CaseSpec`] optionally names a [`ScenarioSpec`] — a string-keyed
//! workload family from `pp-workloads` (`graph/rmat`, `graph/grid2d`,
//! `seq/adversarial-chain`, …). Each entry consumes scenarios of one
//! [`ScenarioKind`]: graph entries (SSSP, MIS, coloring, matching)
//! materialize the scenario's graph, sequence entries map the
//! scenario's structured draws into their own value space. Without a
//! scenario the entry's default uniform generator runs. The runners
//! above validate first ([`AlgorithmEntry::validate_case`]): unknown
//! scenario keys, kind mismatches and out-of-range sources come back as
//! [`RegistryError`]s.
//!
//! ```
//! use phase_parallel::RunConfig;
//! use pp_algos::registry::{self, CaseSpec};
//!
//! for entry in registry::registry() {
//!     let outcome = entry.run_case(&CaseSpec::new(80, 3), &RunConfig::seeded(3)).unwrap();
//!     assert_eq!(outcome.expected_digest, outcome.observed_digest, "{}", entry.name());
//!     // The same entry, on every workload family applicable to it:
//!     for scenario in entry.scenarios() {
//!         let case = CaseSpec::new(40, 3).with_scenario(scenario);
//!         assert!(entry.run_case(&case, &RunConfig::seeded(3)).unwrap().agrees());
//!     }
//! }
//! ```

use crate::activity::{self, Activity};
use crate::api::*;
use crate::knapsack::Item;
use crate::matching;
use crate::serving::{estimated_cost_bytes, SharedPrepared};
use crate::whac::{Mole, Mole2d};
use phase_parallel::{ExecutionStats, RunConfig, Scratch};
use pp_graph::{gen, Graph, GraphError};
use pp_parlay::rng::Rng;
pub use pp_workloads::{ScenarioError, ScenarioKind, ScenarioSpec};

/// A deterministic test-case specification: instance size, generation
/// seed, and an optional workload scenario. The same spec always
/// generates the same instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CaseSpec {
    /// Nominal instance size (elements, vertices, or capacity units;
    /// size 0 produces the family's empty instance).
    pub size: usize,
    /// Seed for instance generation (independent of the run seed).
    pub seed: u64,
    /// Workload scenario the instance is drawn from; `None` uses the
    /// entry's default (uniform) generator.
    pub scenario: Option<ScenarioSpec>,
}

impl CaseSpec {
    pub fn new(size: usize, seed: u64) -> Self {
        Self {
            size,
            seed,
            scenario: None,
        }
    }

    /// Draw the instance from `scenario` instead of the entry default.
    pub fn with_scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// Draw the instance from the scenario named by `key` (e.g.
    /// `"graph/rmat+w/exp"`); unknown or malformed keys surface as
    /// [`RegistryError::Scenario`].
    pub fn with_scenario_key(self, key: &str) -> Result<Self, RegistryError> {
        Ok(self.with_scenario(ScenarioSpec::parse(key)?))
    }
}

/// Why a registry-level run could not start: every string-keyed lookup
/// failure is a typed error, never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// No entry with the given key (see [`names`]).
    UnknownEntry(String),
    /// The scenario key failed to parse or materialize.
    Scenario(ScenarioError),
    /// The case names a scenario of a kind the entry cannot consume
    /// (e.g. a `seq/…` scenario on an SSSP entry).
    IncompatibleScenario {
        /// The registry key of the entry that was asked.
        entry: &'static str,
        /// The canonical key of the offending scenario.
        scenario: String,
        /// The kind the entry consumes.
        expected: ScenarioKind,
        /// The kind the scenario materializes.
        got: ScenarioKind,
    },
    /// A graph input failed CSR validation ([`pp_graph::GraphError`]).
    Graph(GraphError),
    /// The query config names a source vertex the case's instance is
    /// not guaranteed to materialize. The bound is conservative: every
    /// graph scenario materializes at least `case.size.max(1)` vertices,
    /// so sources below that floor are always valid; sources at or
    /// above it are rejected up front instead of panicking inside a
    /// prepared instance.
    SourceOutOfRange {
        /// The registry key of the entry that was asked.
        entry: &'static str,
        /// The out-of-range source vertex.
        source: u32,
        /// The guaranteed vertex floor the source must stay under.
        vertices: usize,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownEntry(name) => {
                write!(f, "unknown registry entry {name:?} (see registry::names())")
            }
            RegistryError::Scenario(e) => write!(f, "scenario error: {e}"),
            RegistryError::IncompatibleScenario {
                entry,
                scenario,
                expected,
                got,
            } => write!(
                f,
                "entry {entry:?} consumes {expected:?} scenarios but {scenario:?} is {got:?}"
            ),
            RegistryError::Graph(e) => write!(f, "invalid graph input: {e}"),
            RegistryError::SourceOutOfRange {
                entry,
                source,
                vertices,
            } => write!(
                f,
                "entry {entry:?}: source vertex {source} is outside the guaranteed \
                 {vertices}-vertex instance floor"
            ),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Scenario(e) => Some(e),
            RegistryError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ScenarioError> for RegistryError {
    fn from(e: ScenarioError) -> Self {
        RegistryError::Scenario(e)
    }
}

impl From<GraphError> for RegistryError {
    fn from(e: GraphError) -> Self {
        RegistryError::Graph(e)
    }
}

/// The outcome of one registry case: digests of the reference and
/// tested executions (equal iff the outputs are identical) and the
/// tested run's statistics.
///
/// For [`AlgorithmEntry::run_case`] the reference is `solve_seq` and
/// the tested execution `solve_par`; for [`AlgorithmEntry::run_batch`]
/// the reference is a fresh one-shot `solve_par` and the tested
/// execution `solve_prepared` (one-shot-vs-sequential agreement is
/// already covered by `run_case`, and per-query knobs like
/// [`RunConfig::source`] are invisible to config-less `solve_seq`).
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// FNV-1a digest of the reference execution's output.
    pub expected_digest: u64,
    /// FNV-1a digest of the tested execution's output.
    pub observed_digest: u64,
    /// Unified statistics from the tested run.
    pub stats: ExecutionStats,
}

impl CaseOutcome {
    /// Did the tested execution reproduce the reference output?
    pub fn agrees(&self) -> bool {
        self.expected_digest == self.observed_digest
    }
}

/// Which engine family (paper section) an entry belongs to — useful for
/// grouping in benches and reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// §4 frontier extraction.
    Type1,
    /// §5 pivot wake-up (including TAS trees).
    Type2,
    /// §4.3 relaxed-rank SSSP family.
    RelaxedRank,
    /// Prior-work deterministic-reservation baselines.
    Reservations,
    /// Parallel but not phase-parallel (comparison baselines).
    Baseline,
}

/// Scratch-workspace behavior of one steady-state prepared query: how
/// many buffers the query took from its [`Scratch`], and how many of
/// those takes were served from a previously parked buffer.
#[derive(Clone, Copy, Debug)]
pub struct ScratchProbe {
    /// `take_*` calls the steady-state query performed.
    pub takes: u64,
    /// Takes served from a parked buffer (no allocation).
    pub reuses: u64,
}

impl ScratchProbe {
    /// True iff the steady-state query allocated no scratch buffers:
    /// every take was a reuse — the per-entry invariant the conformance
    /// suite asserts.
    pub fn steady_state_reuse(&self) -> bool {
        self.takes == self.reuses
    }
}

/// One registered algorithm: a stable name, its engine class, the
/// scenario kind its instances are drawn from, and its one type-erased
/// runner, which generates and prepares the instance for a case.
pub struct AlgorithmEntry {
    name: &'static str,
    engine: Engine,
    kind: ScenarioKind,
    prepare: fn(&CaseSpec, &RunConfig) -> SharedPrepared,
}

impl AlgorithmEntry {
    /// The registry key (also the typed implementation's
    /// [`PhaseAlgorithm::name`](phase_parallel::PhaseAlgorithm::name)).
    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The scenario kind this entry's instance generator consumes.
    pub fn scenario_kind(&self) -> ScenarioKind {
        self.kind
    }

    /// Can this entry draw its instance from `scenario`?
    pub fn supports(&self, scenario: &ScenarioSpec) -> bool {
        scenario.kind() == self.kind
    }

    /// Every default-knob scenario applicable to this entry — the row
    /// set the conformance matrix sweeps (always ≥ 3 families).
    pub fn scenarios(&self) -> Vec<ScenarioSpec> {
        pp_workloads::scenarios_of_kind(self.kind)
    }

    /// Validate a `(case, cfg)` pair without generating anything:
    /// scenario-kind compatibility, plus the query knobs whose bad
    /// values would otherwise panic inside an engine. A graph-kind
    /// entry's explicit [`RunConfig::source`] must stay under the
    /// guaranteed vertex floor (`case.size.max(1)` — every graph
    /// scenario materializes at least that many vertices). This is the
    /// serve boundary's admission check: a failure here becomes a typed
    /// `InvalidInput` row, never a worker panic or a poison strike.
    pub fn validate_case(&self, case: &CaseSpec, cfg: &RunConfig) -> Result<(), RegistryError> {
        if let Some(s) = case.scenario.filter(|s| !self.supports(s)) {
            return Err(RegistryError::IncompatibleScenario {
                entry: self.name,
                scenario: s.key(),
                expected: self.kind,
                got: s.kind(),
            });
        }
        let floor = case.size.max(1);
        match cfg.source {
            Some(source) if self.kind == ScenarioKind::Graph && source as usize >= floor => {
                Err(RegistryError::SourceOutOfRange {
                    entry: self.name,
                    source,
                    vertices: floor,
                })
            }
            _ => Ok(()),
        }
    }

    /// Generate the instance for `case`, run both executions under
    /// `cfg`, and digest the outputs.
    pub fn run_case(&self, case: &CaseSpec, cfg: &RunConfig) -> Result<CaseOutcome, RegistryError> {
        self.validate_case(case, cfg)?;
        Ok(cfg.install(|| {
            let shared = self.prepare_shared(case, cfg);
            let served = shared.one_shot(cfg);
            CaseOutcome {
                expected_digest: shared.seq_digest(),
                observed_digest: served.digest,
                stats: served.stats,
            }
        }))
    }

    /// Generate and `prepare` the instance for `case` once, and answer
    /// every query in `queries` via `solve_prepared` on a shared
    /// scratch workspace — each digested against a fresh one-shot
    /// `solve_par` under the same query config. `cfg` drives instance
    /// generation (e.g. the priority source) and the thread budget.
    pub fn run_batch(
        &self,
        case: &CaseSpec,
        queries: &[RunConfig],
        cfg: &RunConfig,
    ) -> Result<Vec<CaseOutcome>, RegistryError> {
        self.validate_case(case, cfg)?;
        for query in queries {
            self.validate_case(case, query)?;
        }
        Ok(cfg.install(|| {
            let shared = self.prepare_shared(case, cfg);
            let mut scratch = Scratch::new();
            queries
                .iter()
                .map(|query| {
                    let expected_digest = shared.one_shot_digest(query);
                    let served = shared.query(&mut scratch, query);
                    CaseOutcome {
                        expected_digest,
                        observed_digest: served.digest,
                        stats: served.stats,
                    }
                })
                .collect()
        }))
    }

    /// Measure the scratch behavior of one steady-state prepared query:
    /// the instance is generated and prepared once, two warm-up queries
    /// populate the workspace (and let amortized growth settle), and
    /// the third query's take/reuse delta is returned. An entry whose
    /// probe fails [`ScratchProbe::steady_state_reuse`] allocates fresh
    /// per-query scratch in steady state.
    pub fn scratch_probe(
        &self,
        case: &CaseSpec,
        cfg: &RunConfig,
    ) -> Result<ScratchProbe, RegistryError> {
        self.validate_case(case, cfg)?;
        Ok(cfg.install(|| {
            let shared = self.prepare_shared(case, cfg);
            let mut scratch = Scratch::new();
            for _ in 0..2 {
                shared.query(&mut scratch, cfg);
            }
            let (takes, reuses) = (scratch.takes(), scratch.reuses());
            shared.query(&mut scratch, cfg);
            ScratchProbe {
                takes: scratch.takes() - takes,
                reuses: scratch.reuses() - reuses,
            }
        }))
    }

    /// Generate the instance for `case`, pin and `prepare` it once, and
    /// hand back an owned, `Arc`-shared handle many workers can query
    /// concurrently — the serving tier's unit of caching. Generation is
    /// deterministic in `(case, cfg)`, so two calls with the same case
    /// produce interchangeable instances; the handle's cost estimate is
    /// [`estimated_cost_bytes`] of the case size.
    ///
    /// The case must pass [`AlgorithmEntry::validate_case`]: generation
    /// panics on a scenario of the wrong kind.
    pub fn prepare_shared(&self, case: &CaseSpec, cfg: &RunConfig) -> SharedPrepared {
        (self.prepare)(case, cfg)
    }
}

/// Every registered algorithm. Names are stable; new families append.
pub fn registry() -> &'static [AlgorithmEntry] {
    macro_rules! entry {
        ($name:literal, $engine:ident, $kind:ident, $algo:expr, $gen:expr) => {
            AlgorithmEntry {
                name: $name,
                engine: Engine::$engine,
                kind: ScenarioKind::$kind,
                prepare: |case, cfg| {
                    SharedPrepared::new(
                        $name,
                        $algo,
                        $gen(case, cfg),
                        estimated_cost_bytes(case.size),
                    )
                },
            }
        };
    }
    static ENTRIES: &[AlgorithmEntry] = &[
        entry!("lis", Type1, Seq, Lis, gen_series),
        entry!("lis/weighted", Type1, Seq, WeightedLis, gen_weighted_series),
        entry!("activity/type1", Type1, Seq, ActivityType1, gen_activities),
        entry!(
            "activity/type1-pam",
            Type1,
            Seq,
            ActivityType1Pam,
            gen_activities
        ),
        entry!("activity/type2", Type2, Seq, ActivityType2, gen_activities),
        entry!(
            "activity/unweighted",
            Type2,
            Seq,
            UnweightedActivity,
            gen_activities
        ),
        entry!("knapsack", Type1, Seq, Knapsack, gen_knapsack),
        entry!("huffman", Type1, Seq, Huffman, gen_freqs),
        entry!("sssp/delta", RelaxedRank, Graph, DeltaSssp, gen_sssp),
        entry!("sssp/dijkstra", Baseline, Graph, DijkstraSssp, gen_sssp),
        entry!("sssp/rho", RelaxedRank, Graph, RhoSssp, gen_sssp),
        entry!("sssp/crauser", RelaxedRank, Graph, CrauserSssp, gen_sssp),
        entry!("sssp/pam", RelaxedRank, Graph, PamSssp, gen_sssp),
        entry!(
            "sssp/bellman-ford",
            Baseline,
            Graph,
            BellmanFordSssp,
            gen_sssp
        ),
        entry!("mis/tas", Type2, Graph, GreedyMis, gen_vertex_priorities),
        entry!(
            "mis/rounds",
            Baseline,
            Graph,
            RoundsMis,
            gen_vertex_priorities
        ),
        entry!("coloring", Type2, Graph, Coloring, gen_vertex_priorities),
        entry!("matching", Type2, Graph, Matching, gen_edge_priorities),
        entry!(
            "matching/reservations",
            Reservations,
            Graph,
            MatchingReservations,
            gen_edge_priorities
        ),
        entry!("whac", Type1, Seq, Whac, gen_moles),
        entry!("whac/2d", Type2, Seq, Whac2d, gen_moles_2d),
        entry!("chain3d", Type2, Seq, Chain::<3>, gen_points::<3>),
        entry!("chain4d", Type2, Seq, Chain::<4>, gen_points::<4>),
        entry!("random-perm", Type2, Seq, RandomPerm, gen_perm),
    ];
    ENTRIES
}

/// Look up an entry by its registry key.
pub fn lookup(name: &str) -> Option<&'static AlgorithmEntry> {
    registry().iter().find(|e| e.name == name)
}

/// All registry keys, in registration order.
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|e| e.name).collect()
}

/// FNV-1a output digest — enough to compare two executions' outputs
/// without holding both in a type-erased box.
pub trait Digest {
    fn digest(&self) -> u64;
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_step(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = fnv_step(h, b);
    }
    h
}

impl Digest for u32 {
    fn digest(&self) -> u64 {
        fnv_u64(FNV_OFFSET, u64::from(*self))
    }
}

impl Digest for u64 {
    fn digest(&self) -> u64 {
        fnv_u64(FNV_OFFSET, *self)
    }
}

impl Digest for Vec<u32> {
    fn digest(&self) -> u64 {
        self.iter()
            .fold(fnv_u64(FNV_OFFSET, self.len() as u64), |h, &v| {
                fnv_u64(h, u64::from(v))
            })
    }
}

impl Digest for Vec<u64> {
    fn digest(&self) -> u64 {
        self.iter()
            .fold(fnv_u64(FNV_OFFSET, self.len() as u64), |h, &v| {
                fnv_u64(h, v)
            })
    }
}

impl Digest for Vec<bool> {
    fn digest(&self) -> u64 {
        self.iter()
            .fold(fnv_u64(FNV_OFFSET, self.len() as u64), |h, &v| {
                fnv_u64(h, u64::from(v))
            })
    }
}

// ---- deterministic instance generators ----
//
// All driven by (case.size, case.seed, case.scenario) alone. Size 0 is
// the empty instance for sequence families; graph families floor at one
// vertex (an SSSP source must exist, and a 0-vertex graph has no
// instance to speak of). A case without a scenario runs the family's
// original uniform generator. Callers validate the scenario kind first,
// so a scenario of the wrong kind fails to materialize.

/// `n` scenario draws in `[0, span)`, if the case names a scenario.
fn seq_draws(case: &CaseSpec, n: usize, span: u64, salt: u64) -> Option<Vec<u64>> {
    case.scenario
        .map(|s| s.draws(n, span, case.seed ^ salt).expect("seq scenario"))
}

fn gen_series(case: &CaseSpec, _cfg: &RunConfig) -> Vec<i64> {
    let span = 3 * case.size as u64 + 10;
    let offset = case.size as i64;
    if let Some(draws) = seq_draws(case, case.size, span, 0x5e71e5) {
        return draws.into_iter().map(|v| v as i64 - offset).collect();
    }
    let mut r = Rng::new(case.seed ^ 0x5e71e5);
    (0..case.size)
        .map(|_| r.range(span) as i64 - offset)
        .collect()
}

fn gen_weighted_series(case: &CaseSpec, _cfg: &RunConfig) -> (Vec<i64>, Vec<u32>) {
    let mut r = Rng::new(case.seed ^ 0x3e16);
    let values = gen_series(case, _cfg);
    let weights = (0..case.size).map(|_| 1 + r.range(40) as u32).collect();
    (values, weights)
}

fn gen_activities(case: &CaseSpec, _cfg: &RunConfig) -> Vec<Activity> {
    let mut r = Rng::new(case.seed ^ 0xac7);
    let span = 4 * case.size as u64 + 20;
    // The scenario shapes the start times (the dependence-defining
    // coordinate); lengths and weights stay uniform.
    if let Some(starts) = seq_draws(case, case.size, span, 0xac7) {
        return activity::sort_by_end(
            starts
                .into_iter()
                .map(|s| Activity::new(s, s + 1 + r.range(span / 8 + 4), 1 + r.range(100)))
                .collect(),
        );
    }
    activity::sort_by_end(
        (0..case.size)
            .map(|_| {
                let s = r.range(span);
                Activity::new(s, s + 1 + r.range(span / 8 + 4), 1 + r.range(100))
            })
            .collect(),
    )
}

fn gen_knapsack(case: &CaseSpec, _cfg: &RunConfig) -> (Vec<Item>, u64) {
    let mut r = Rng::new(case.seed ^ 0x14a9);
    // Item count grows slowly; capacity tracks `size` so rank ≈ size / w*.
    let n_items = (case.size / 8).clamp(usize::from(case.size > 0), 40);
    // The scenario shapes the item values; weights stay uniform.
    if let Some(values) = seq_draws(case, n_items, 500, 0x14a9) {
        let items = values
            .into_iter()
            .map(|v| Item::new(2 + r.range(30), v))
            .collect();
        return (items, case.size as u64);
    }
    let items = (0..n_items)
        .map(|_| Item::new(2 + r.range(30), r.range(500)))
        .collect();
    (items, case.size as u64)
}

fn gen_freqs(case: &CaseSpec, _cfg: &RunConfig) -> Vec<u64> {
    // Huffman needs at least one symbol.
    let n = case.size.max(1);
    if let Some(draws) = seq_draws(case, n, 1000, 0x1f) {
        return draws.into_iter().map(|v| 1 + v).collect();
    }
    let mut r = Rng::new(case.seed ^ 0x1f);
    (0..n).map(|_| 1 + r.range(1000)).collect()
}

fn gen_graph(case: &CaseSpec) -> Graph {
    let n = case.size.max(1);
    if let Some(s) = case.scenario {
        return s.graph(n, case.seed ^ 0x9a4).expect("graph scenario");
    }
    gen::uniform(n, 4 * n, case.seed ^ 0x9a4)
}

fn gen_sssp(case: &CaseSpec, _cfg: &RunConfig) -> SsspInstance {
    if let Some(s) = case.scenario {
        let wg = s
            .weighted_graph(case.size.max(1), case.seed ^ 0x9a4)
            .expect("graph scenario");
        return SsspInstance::new(wg, 0);
    }
    let g = gen_graph(case);
    let wg = gen::with_uniform_weights(&g, 1, 1000, case.seed ^ 0x55);
    SsspInstance::new(wg, 0)
}

fn gen_vertex_priorities(case: &CaseSpec, cfg: &RunConfig) -> GraphPriorityInstance {
    let g = gen_graph(case);
    // The priority_source knob picks the ordering heuristic; the
    // instance seed keeps generation independent of the run seed.
    let ordering_cfg =
        RunConfig::seeded(case.seed ^ 0x7a11).with_priority_source(cfg.priority_source);
    let pri = crate::coloring_orders::priorities_from_config(&g, &ordering_cfg);
    GraphPriorityInstance::new(g, pri)
}

fn gen_edge_priorities(case: &CaseSpec, _cfg: &RunConfig) -> GraphPriorityInstance {
    let g = gen_graph(case);
    let pri = matching::random_edge_priorities(&g, case.seed ^ 0xed6e);
    GraphPriorityInstance::new(g, pri)
}

fn gen_moles(case: &CaseSpec, _cfg: &RunConfig) -> Vec<Mole> {
    let mut r = Rng::new(case.seed ^ 0x301e);
    let t_span = 6 * case.size as u64 + 12;
    let p_of = |r: &mut Rng| r.range(case.size as u64 + 6) as i64 - (case.size / 2) as i64;
    // The scenario shapes the appearance times; positions stay uniform.
    if let Some(ts) = seq_draws(case, case.size, t_span, 0x301e) {
        return ts
            .into_iter()
            .map(|t| Mole {
                t: t as i64,
                p: p_of(&mut r),
            })
            .collect();
    }
    (0..case.size)
        .map(|_| Mole {
            t: r.range(t_span) as i64,
            p: p_of(&mut r),
        })
        .collect()
}

fn gen_moles_2d(case: &CaseSpec, _cfg: &RunConfig) -> Vec<Mole2d> {
    let mut r = Rng::new(case.seed ^ 0x3d2);
    let side = (case.size as u64 / 4).max(4);
    let t_span = 8 * case.size as u64 + 16;
    let coord = |r: &mut Rng| r.range(side) as i64 - (side / 2) as i64;
    if let Some(ts) = seq_draws(case, case.size, t_span, 0x3d2) {
        return ts
            .into_iter()
            .map(|t| Mole2d {
                t: t as i64,
                x: coord(&mut r),
                y: coord(&mut r),
            })
            .collect();
    }
    (0..case.size)
        .map(|_| Mole2d {
            t: r.range(t_span) as i64,
            x: coord(&mut r),
            y: coord(&mut r),
        })
        .collect()
}

fn gen_points<const D: usize>(case: &CaseSpec, _cfg: &RunConfig) -> Vec<[i64; D]> {
    let range = 2 * case.size as u64 + 8;
    let salt = 0x9d0 + D as u64;
    // Every coordinate is scenario-shaped: under `seq/adversarial-chain`
    // all of them ramp together, producing the full n-deep dominance
    // chain.
    let draws: Option<Vec<Vec<u64>>> = (0..D as u64)
        .map(|j| seq_draws(case, case.size, range, salt ^ (j << 16)))
        .collect();
    if let Some(draws) = draws {
        return (0..case.size)
            .map(|i| std::array::from_fn(|j| draws[j][i] as i64))
            .collect();
    }
    let mut r = Rng::new(case.seed ^ salt);
    (0..case.size)
        .map(|_| std::array::from_fn(|_| r.range(range) as i64))
        .collect()
}

fn gen_perm(case: &CaseSpec, _cfg: &RunConfig) -> (usize, u64) {
    // The permutation instance is fully described by (n, target_seed);
    // a seq scenario picks the swap-target stream by folding its draws
    // into the seed, so each family yields a distinct, deterministic
    // permutation workload.
    match seq_draws(case, case.size, 4 * case.size as u64 + 4, 0x9e12) {
        Some(draws) => {
            let seed = draws
                .iter()
                .fold(fnv_u64(FNV_OFFSET, case.seed), |h, &v| fnv_u64(h, v));
            (case.size, seed)
        }
        None => (case.size, case.seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phase_parallel::PhaseAlgorithm;
    use phase_parallel::PivotMode::{self, Random, RightMost};

    #[test]
    fn lookup_and_names() {
        assert!(lookup("lis").is_some());
        assert!(lookup("sssp/delta").is_some());
        assert!(lookup("nope").is_none());
        let names = names();
        assert!(names.len() >= 20);
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "registry names must be unique");
    }

    #[test]
    fn entries_agree_on_a_small_case() {
        let case = CaseSpec::new(60, 5);
        let cfg = RunConfig::seeded(5);
        for entry in registry() {
            let outcome = entry.run_case(&case, &cfg).unwrap();
            assert!(outcome.agrees(), "{} diverged", entry.name());
        }
    }

    #[test]
    fn batch_entries_agree_with_one_shot() {
        let case = CaseSpec::new(80, 9);
        let queries: Vec<RunConfig> = vec![
            RunConfig::seeded(1),
            RunConfig::seeded(2).with_delta(5),
            RunConfig::seeded(3).with_rho(4),
            RunConfig::seeded(4).with_source(7),
        ];
        for entry in registry() {
            let outcomes = entry
                .run_batch(&case, &queries, &RunConfig::seeded(9))
                .unwrap();
            assert_eq!(outcomes.len(), queries.len());
            for (i, o) in outcomes.iter().enumerate() {
                assert!(o.agrees(), "{} diverged on query {i}", entry.name());
            }
        }
    }

    #[test]
    fn lis_family_round_contract_on_every_seq_scenario() {
        // `lis` and `whac` extract one frontier per rank, so their
        // served rounds equal their served output (compared through
        // its digest); `lis/weighted` runs the same rounds, so its
        // rounds equal the unweighted rank of its values.
        let size = 300;
        let cfg = RunConfig::seeded(4);
        let mut scratch = Scratch::new();
        let scenarios = lookup("lis").unwrap().scenarios();
        let keys: Vec<String> = scenarios.iter().map(ScenarioSpec::key).collect();
        for key in ["seq/adversarial-chain", "seq/sorted"] {
            assert!(keys.iter().any(|k| k == key), "{key} missing from {keys:?}");
        }
        for scenario in scenarios {
            let case = CaseSpec::new(size, 4).with_scenario(scenario);
            let key = scenario.key();
            let mut serve = |name: &str| {
                let shared = lookup(name).unwrap().prepare_shared(&case, &cfg);
                let served = shared.query(&mut scratch, &cfg);
                assert_eq!(served.digest, shared.seq_digest(), "{name} on {key}");
                served
            };
            for name in ["lis", "whac"] {
                let served = serve(name);
                let rounds = served.stats.rounds;
                assert_eq!(served.digest, (rounds as u32).digest(), "{name} on {key}");
                if key == "seq/adversarial-chain" && name == "lis" {
                    assert_eq!(rounds, size, "rank = n on {key}");
                }
            }
            let served = serve("lis/weighted");
            let (values, _) = gen_weighted_series(&case, &cfg);
            let rank = crate::lis::lis_seq(&values) as usize;
            assert_eq!(served.stats.rounds, rank, "lis/weighted on {key}");
        }
    }

    #[test]
    fn weighted_lis_agrees_with_seq_and_algorithm3_on_every_seq_scenario() {
        // The k-round query, the baseline and Algorithm 3 in both pivot
        // modes find the same best weight on every seq scenario.
        let cfg = RunConfig::seeded(6);
        for scenario in lookup("lis/weighted").unwrap().scenarios() {
            for size in [300, 2000] {
                let case = CaseSpec::new(size, 6).with_scenario(scenario);
                let key = scenario.key();
                let input = gen_weighted_series(&case, &cfg);
                let want = crate::lis::lis_weighted_seq(&input.0, &input.1);
                let report = WeightedLis.solve_par(&input, &cfg);
                assert_eq!(report.output, want, "k rounds on {key}, n = {size}");
                for mode in [Random, RightMost] {
                    let alg3 = crate::lis::lis_weighted_par(
                        &input.0,
                        &input.1,
                        &cfg.clone().with_pivot_mode(mode),
                    );
                    assert_eq!(alg3.output.0, want, "Algorithm 3 {mode:?} on {key}");
                }
            }
        }
    }

    #[test]
    fn type2_chain_round_contract_on_every_seq_scenario() {
        // The Type 2 chain entries finish one rank per round, so their
        // served rounds equal their served output (compared through its
        // digest), and the n-deep adversarial chain takes n rounds.
        let size = 300;
        let cfg = RunConfig::seeded(4);
        let mut scratch = Scratch::new();
        for name in ["chain3d", "chain4d", "whac/2d"] {
            let entry = lookup(name).unwrap();
            for scenario in entry.scenarios() {
                let case = CaseSpec::new(size, 4).with_scenario(scenario);
                let key = scenario.key();
                let shared = entry.prepare_shared(&case, &cfg);
                let served = shared.query(&mut scratch, &cfg);
                let rounds = served.stats.rounds;
                assert_eq!(served.digest, shared.seq_digest(), "{name} on {key}");
                assert_eq!(served.digest, (rounds as u32).digest(), "{name} on {key}");
                if key == "seq/adversarial-chain" && name != "whac/2d" {
                    assert_eq!(rounds, size, "{name}: rank = n on {key}");
                }
            }
        }
    }

    #[test]
    fn activity_round_contract_on_every_seq_scenario() {
        // Both Algorithm 2 substrates and the exact-pivot Type 2 engine
        // run one round per rank (Theorems 4.2 and 5.2), and Lemma 5.1's
        // pivots never fail a wake-up. The unweighted entry counts
        // pointer-jumping passes over the pivot forest, whose depth is
        // d = rank − 1: one pass when d = 0, ⌈log₂ d⌉ + 1 otherwise.
        let cfg = RunConfig::seeded(4);
        let mut scratch = Scratch::new();
        for name in [
            "activity/type1",
            "activity/type1-pam",
            "activity/type2",
            "activity/unweighted",
        ] {
            let entry = lookup(name).unwrap();
            let scenarios = entry.scenarios();
            assert_eq!(scenarios.len(), 4, "{name}: every seq scenario");
            for scenario in scenarios {
                for size in [300, 2000] {
                    let case = CaseSpec::new(size, 4).with_scenario(scenario);
                    let key = scenario.key();
                    let rank = activity::ranks(&gen_activities(&case, &cfg))
                        .into_iter()
                        .max()
                        .unwrap() as usize;
                    let shared = entry.prepare_shared(&case, &cfg);
                    let served = shared.query(&mut scratch, &cfg);
                    assert_eq!(
                        served.digest,
                        shared.seq_digest(),
                        "{name} on {key}, n = {size}"
                    );
                    let want = if name == "activity/unweighted" {
                        match rank - 1 {
                            0 => 1,
                            d => d.next_power_of_two().trailing_zeros() as usize + 1,
                        }
                    } else {
                        rank
                    };
                    assert_eq!(served.stats.rounds, want, "{name} on {key}, n = {size}");
                    if name == "activity/type2" {
                        assert_eq!(served.stats.failed_wakeups, 0, "{key}, n = {size}");
                    }
                }
            }
        }
    }

    #[test]
    fn knapsack_and_huffman_round_contract_on_every_seq_scenario() {
        // Knapsack runs one round per w*-wide capacity window, ⌈W / w*⌉
        // (Theorem 4.3). Huffman postpones only the largest member of an
        // odd frontier, so its rounds stay near the tree height
        // (Theorem 4.7), within the bound of `rounds_bounded_by_height`.
        let cfg = RunConfig::seeded(4);
        let mut scratch = Scratch::new();
        for name in ["knapsack", "huffman"] {
            let entry = lookup(name).unwrap();
            for scenario in entry.scenarios() {
                for size in [300, 2000] {
                    let case = CaseSpec::new(size, 4).with_scenario(scenario);
                    let key = scenario.key();
                    let shared = entry.prepare_shared(&case, &cfg);
                    let served = shared.query(&mut scratch, &cfg);
                    let rounds = served.stats.rounds;
                    assert_eq!(
                        served.digest,
                        shared.seq_digest(),
                        "{name} on {key}, n = {size}"
                    );
                    if name == "knapsack" {
                        let (items, cap) = gen_knapsack(&case, &cfg);
                        let w_min = items.iter().map(|it| it.weight).min().unwrap();
                        let want = cap.div_ceil(w_min) as usize;
                        assert_eq!(rounds, want, "{name} on {key}, n = {size}");
                    } else {
                        let freqs = gen_freqs(&case, &cfg);
                        let height = crate::huffman::build_par(&freqs, &cfg).output.height();
                        assert!(
                            rounds <= height as usize + 3,
                            "{name} on {key}, n = {size}: {rounds} rounds, height {height}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn random_perm_round_contract_on_every_seq_scenario() {
        // Iteration k of the Knuth shuffle waits for the last earlier
        // iteration to touch cell k or cell H[k], so the served rounds
        // equal the depth of that dependence forest, found here by one
        // sequential last-toucher scan. Each iteration is attempted at
        // most once per predecessor.
        let cfg = RunConfig::seeded(4);
        let mut scratch = Scratch::new();
        let entry = lookup("random-perm").unwrap();
        let scenarios = entry.scenarios();
        assert_eq!(scenarios.len(), 4, "every seq scenario");
        for scenario in scenarios {
            for size in [300, 2000] {
                let case = CaseSpec::new(size, 4).with_scenario(scenario);
                let key = scenario.key();
                let (n, seed) = gen_perm(&case, &cfg);
                let targets = crate::random_perm::swap_targets(n, seed);
                let mut last = vec![0usize; n];
                let mut depth = 0;
                for k in (1..n).rev() {
                    let h = targets[k] as usize;
                    let d = 1 + last[k].max(last[h]);
                    (last[k], last[h]) = (d, d);
                    depth = depth.max(d);
                }
                let shared = entry.prepare_shared(&case, &cfg);
                let served = shared.query(&mut scratch, &cfg);
                assert_eq!(served.digest, shared.seq_digest(), "{key}, n = {size}");
                assert_eq!(served.stats.rounds, depth, "{key}, n = {size}");
                assert!(
                    served.stats.wakeup_attempts <= 2 * (n - 1),
                    "{key}, n = {size}: {} wake-ups",
                    served.stats.wakeup_attempts
                );
            }
        }
    }

    #[test]
    fn matching_round_contract_on_every_graph_scenario() {
        // An edge leaves the live set in the round its greedy fate is
        // fixed: a matched edge one round after every adjacent earlier
        // edge has left, an unmatched edge in the round its first
        // endpoint is matched. One scan in priority order finds both.
        let cfg = RunConfig::seeded(4);
        let mut scratch = Scratch::new();
        let entry = lookup("matching").unwrap();
        for scenario in entry.scenarios() {
            for size in [300, 2000] {
                let case = CaseSpec::new(size, 4).with_scenario(scenario);
                let key = scenario.key();
                let inst = gen_edge_priorities(&case, &cfg);
                let edges = matching::edge_list(&inst.graph);
                let mut order: Vec<usize> = (0..edges.len()).collect();
                order.sort_unstable_by_key(|&e| inst.priority[e]);
                let n = inst.graph.num_vertices();
                let (mut left, mut matched_in) = (vec![0; n], vec![0; n]);
                let mut per_round = Vec::new();
                for e in order {
                    let (u, v) = (edges[e].0 as usize, edges[e].1 as usize);
                    let d = match (matched_in[u], matched_in[v]) {
                        (0, 0) => {
                            let d = 1 + left[u].max(left[v]);
                            (matched_in[u], matched_in[v]) = (d, d);
                            per_round.resize(per_round.len().max(d), 0);
                            per_round[d - 1] += 1;
                            d
                        }
                        (0, d) | (d, 0) => d,
                        (du, dv) => du.min(dv),
                    };
                    (left[u], left[v]) = (left[u].max(d), left[v].max(d));
                }
                let shared = entry.prepare_shared(&case, &cfg);
                let served = shared.query(&mut scratch, &cfg);
                assert_eq!(served.digest, shared.seq_digest(), "{key}, n = {size}");
                assert_eq!(served.stats.rounds, per_round.len(), "{key}, n = {size}");
                assert_eq!(served.stats.frontier_sizes, per_round, "{key}, n = {size}");
            }
        }
    }

    /// Rounds, wake-up attempts and failed wake-ups of the Type 2 chain
    /// entries at size 300, seed 4. They are fixed by the seed (the same
    /// at any pool width), so a change to the dominance trees' pivot
    /// choice or RNG draws shows up here.
    #[rustfmt::skip]
    const CHAIN_PINS: [(&str, &str, PivotMode, usize, usize, usize); 24] = [
        ("chain3d", "seq/uniform", Random, 11, 703, 427),
        ("chain3d", "seq/uniform", RightMost, 11, 541, 265),
        ("chain3d", "seq/sorted", Random, 176, 1473, 1174),
        ("chain3d", "seq/sorted", RightMost, 176, 299, 0),
        ("chain3d", "seq/adversarial-chain", Random, 300, 1616, 1317),
        ("chain3d", "seq/adversarial-chain", RightMost, 300, 299, 0),
        ("chain3d", "seq/zipf", Random, 12, 576, 371),
        ("chain3d", "seq/zipf", RightMost, 12, 510, 305),
        ("chain4d", "seq/uniform", Random, 8, 475, 233),
        ("chain4d", "seq/uniform", RightMost, 8, 393, 151),
        ("chain4d", "seq/sorted", Random, 170, 1453, 1154),
        ("chain4d", "seq/sorted", RightMost, 170, 299, 0),
        ("chain4d", "seq/adversarial-chain", Random, 300, 1596, 1297),
        ("chain4d", "seq/adversarial-chain", RightMost, 300, 299, 0),
        ("chain4d", "seq/zipf", Random, 7, 339, 158),
        ("chain4d", "seq/zipf", RightMost, 7, 291, 110),
        ("whac/2d", "seq/uniform", Random, 70, 1289, 995),
        ("whac/2d", "seq/uniform", RightMost, 70, 941, 647),
        ("whac/2d", "seq/sorted", Random, 65, 1287, 994),
        ("whac/2d", "seq/sorted", RightMost, 65, 323, 30),
        ("whac/2d", "seq/adversarial-chain", Random, 69, 1287, 992),
        ("whac/2d", "seq/adversarial-chain", RightMost, 69, 331, 36),
        ("whac/2d", "seq/zipf", Random, 51, 1051, 797),
        ("whac/2d", "seq/zipf", RightMost, 51, 833, 579),
    ];

    /// The [`CHAIN_PINS`] row of `(name, key, mode)`.
    fn chain_pin(name: &str, key: &str, mode: PivotMode) -> (usize, usize, usize) {
        let row = CHAIN_PINS
            .iter()
            .find(|p| (p.0, p.1, p.2) == (name, key, mode))
            .unwrap_or_else(|| panic!("no pin for {name} on {key} with {mode:?}"));
        (row.3, row.4, row.5)
    }

    #[test]
    fn type2_chain_pivots_are_pinned() {
        let mut scratch = Scratch::new();
        for (name, key, mode, rounds, attempts, failed) in CHAIN_PINS {
            let case = CaseSpec::new(300, 4).with_scenario_key(key).unwrap();
            let cfg = RunConfig::seeded(4).with_pivot_mode(mode);
            let shared = lookup(name).unwrap().prepare_shared(&case, &cfg);
            let stats = shared.query(&mut scratch, &cfg).stats;
            assert_eq!(
                (stats.rounds, stats.wakeup_attempts, stats.failed_wakeups),
                (rounds, attempts, failed),
                "{name} on {key} with {mode:?}"
            );
        }
        // The table covers every seq scenario of each entry.
        for name in ["chain3d", "chain4d", "whac/2d"] {
            let pinned = CHAIN_PINS.iter().filter(|p| p.0 == name).count();
            assert_eq!(
                pinned,
                2 * lookup(name).unwrap().scenarios().len(),
                "{name}"
            );
        }
    }

    #[test]
    fn chain_pivot_mode_is_a_query_setting() {
        // One instance, prepared under the default mode, serves queries
        // in either mode from one workspace: each replays its pinned row,
        // whatever mode the workspace's tree copy last ran in.
        let mut scratch = Scratch::new();
        let prepare_cfg = RunConfig::seeded(4);
        assert_eq!(prepare_cfg.pivot_mode, PivotMode::default());
        for name in ["chain3d", "chain4d", "whac/2d"] {
            let entry = lookup(name).unwrap();
            for scenario in entry.scenarios() {
                let key = scenario.key();
                let case = CaseSpec::new(300, 4).with_scenario(scenario);
                let shared = entry.prepare_shared(&case, &prepare_cfg);
                for mode in [RightMost, Random, RightMost] {
                    let cfg = RunConfig::seeded(4).with_pivot_mode(mode);
                    let stats = shared.query(&mut scratch, &cfg).stats;
                    assert_eq!(
                        (stats.rounds, stats.wakeup_attempts, stats.failed_wakeups),
                        chain_pin(name, &key, mode),
                        "{name} on {key} with {mode:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn digests_are_order_sensitive() {
        assert_ne!(vec![1u32, 2].digest(), vec![2u32, 1].digest());
        assert_ne!(vec![0u64].digest(), vec![0u64, 0].digest());
        assert_ne!(vec![true, false].digest(), vec![false, true].digest());
    }

    #[test]
    fn every_entry_has_at_least_three_scenarios() {
        for entry in registry() {
            let scenarios = entry.scenarios();
            assert!(
                scenarios.len() >= 3,
                "{}: only {} applicable scenario families",
                entry.name(),
                scenarios.len()
            );
            assert!(scenarios.iter().all(|s| entry.supports(s)));
        }
    }

    #[test]
    fn scenarios_change_the_instance() {
        // Different scenario families must actually generate different
        // instances (different reference digests) for the same
        // (size, seed) — otherwise the matrix would re-test one input.
        let cfg = RunConfig::seeded(3);
        for entry in [lookup("lis").unwrap(), lookup("sssp/delta").unwrap()] {
            let mut digests: Vec<u64> = entry
                .scenarios()
                .iter()
                .map(|&s| {
                    let case = CaseSpec::new(90, 3).with_scenario(s);
                    entry.run_case(&case, &cfg).unwrap().expected_digest
                })
                .collect();
            digests.sort_unstable();
            digests.dedup();
            assert!(
                digests.len() >= entry.scenarios().len() - 1,
                "{}: scenario families collapse to {} distinct instances",
                entry.name(),
                digests.len()
            );
        }
    }

    #[test]
    fn unknown_scenario_key_is_an_error() {
        let err = CaseSpec::new(10, 1)
            .with_scenario_key("graph/nope")
            .unwrap_err();
        assert!(matches!(
            err,
            RegistryError::Scenario(ScenarioError::UnknownFamily(_))
        ));
        assert!(err.to_string().contains("graph/nope"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn incompatible_scenario_is_an_error_not_a_panic() {
        let cfg = RunConfig::seeded(1);
        for entry in registry() {
            let (wrong_key, got) = match entry.scenario_kind() {
                ScenarioKind::Graph => ("seq/zipf", ScenarioKind::Seq),
                ScenarioKind::Seq => ("graph/rmat", ScenarioKind::Graph),
            };
            let case = CaseSpec::new(10, 1).with_scenario_key(wrong_key).unwrap();
            let errors = [
                entry.run_case(&case, &cfg).unwrap_err(),
                entry
                    .run_batch(&case, std::slice::from_ref(&cfg), &cfg)
                    .unwrap_err(),
            ];
            for err in errors {
                assert!(
                    matches!(
                        err,
                        RegistryError::IncompatibleScenario { entry: name, got: g, .. }
                            if name == entry.name() && g == got
                    ),
                    "{}: {err:?}",
                    entry.name()
                );
                assert!(err.to_string().contains(entry.name()));
            }
        }
    }

    #[test]
    fn lookup_dispatches_with_scenarios() {
        let case = CaseSpec::new(70, 2)
            .with_scenario_key("graph/grid2d+w/unit")
            .unwrap();
        let entry = lookup("sssp/rho").unwrap();
        let outcome = entry.run_case(&case, &RunConfig::seeded(2)).unwrap();
        assert!(outcome.agrees());
        let outcomes = entry
            .run_batch(
                &case,
                &[RunConfig::seeded(1), RunConfig::seeded(2).with_source(5)],
                &RunConfig::seeded(2),
            )
            .unwrap();
        assert!(outcomes.iter().all(CaseOutcome::agrees));
    }

    #[test]
    fn source_bound_is_the_size_floor() {
        // Graph entries accept sources under `case.size.max(1)` and
        // reject the floor itself; seq entries ignore the source. An
        // SSSP query from another source than the instance's differs
        // from `solve_seq`, so the accepted source is checked against
        // the one-shot reference of `run_batch`.
        for size in [0, 1, 40] {
            let (case, floor) = (CaseSpec::new(size, 3), size.max(1));
            let query = |source| RunConfig::seeded(3).with_source(source);
            let (ok, bad) = (query(floor as u32 - 1), query(floor as u32));
            for entry in registry() {
                let name = entry.name();
                assert_eq!(
                    entry.validate_case(&case, &ok),
                    Ok(()),
                    "{name}, n = {size}"
                );
                assert!(entry.run_case(&case, &ok).is_ok(), "{name}, n = {size}");
                let served = entry.run_batch(&case, std::slice::from_ref(&ok), &ok);
                assert!(served.unwrap()[0].agrees(), "{name}, n = {size}");
                if entry.scenario_kind() == ScenarioKind::Seq {
                    for cfg in [&bad, &query(u32::MAX)] {
                        assert_eq!(entry.validate_case(&case, cfg), Ok(()), "{name}");
                    }
                    continue;
                }
                let want = Err(RegistryError::SourceOutOfRange {
                    entry: name,
                    source: floor as u32,
                    vertices: floor,
                });
                assert_eq!(entry.validate_case(&case, &bad), want, "{name}, n = {size}");
                let outcome = entry.run_case(&case, &bad).map(|_| ());
                assert_eq!(outcome, want, "{name}, n = {size}");
            }
        }
    }
}
