//! Typed [`PhaseAlgorithm`] implementations for every algorithm family.
//!
//! Each unit struct binds a family's sequential baseline and
//! phase-parallel execution to the unified trait. The impl is the
//! family's one typed door: `solve_seq`, `solve_par`, or `prepare` plus
//! `solve_prepared` for repeated queries. The string-keyed
//! [`crate::registry`] type-erases it for served and name-dispatched
//! callers. Multi-part instances get small
//! input structs ([`SsspInstance`], [`GraphPriorityInstance`]) instead
//! of anonymous tuples where field names carry meaning.
//!
//! The impl is each family's only entry to its parallel algorithm;
//! [`lis::lis_par_with_dp`], [`lis::lis_weighted_par`],
//! [`knapsack::max_value_par_with_dp`] and [`huffman::build_par`] stay
//! public for the DP values or tree an `Output` drops. Families that
//! prepare something (SSSP, MIS, coloring, matching, `lis/weighted`,
//! `activity/type1`, `activity/type2`, `huffman`, `chain3d`, `chain4d`,
//! `whac/2d` and `random-perm`) answer a one-shot `solve_par` as
//! `prepare` plus one `solve_prepared` query, so one-shot and served
//! queries run one code path. A prepared instance is built from the
//! input alone: the seed, the pivot mode and the deadline are query
//! settings.
//!
//! Luby's MIS is deliberately absent: it is *not* sequential-equivalent
//! (values are redrawn every round), so it cannot satisfy the trait's
//! `solve_par == solve_seq` contract; call [`crate::mis::mis_luby`]
//! directly.
//!
//! ```
//! use phase_parallel::{PhaseAlgorithm, RunConfig, Scratch};
//! use pp_algos::api::Lis;
//! use rayon::prelude::*;
//!
//! let series = [4i64, 7, 3, 2, 8, 1, 6, 5];
//! let report = Lis.solve_par(&series, &RunConfig::seeded(7));
//! assert_eq!(report.output, 3);
//! assert_eq!(report.output, Lis.solve_seq(&series));
//!
//! // A batch on two threads: one prepared instance, one workspace per worker.
//! let prepared = &Lis.prepare(&series);
//! let queries: Vec<RunConfig> = (0..4).map(RunConfig::seeded).collect();
//! let lengths: Vec<u32> = RunConfig::new().with_threads(2).install(|| {
//!     queries
//!         .par_iter()
//!         .map_init(Scratch::new, |scratch, q| {
//!             Lis.solve_prepared(&series, prepared, scratch, q).output
//!         })
//!         .collect()
//! });
//! assert_eq!(lengths, [3; 4]);
//! ```

use crate::activity::{self, Activity};
use crate::chain::{self, chain_seq, ChainPoint, PreparedChain};
use crate::coloring;
use crate::huffman;
use crate::knapsack::{self, Item};
use crate::lis;
use crate::matching;
use crate::mis;
use crate::random_perm;
use crate::sssp;
use crate::whac::{rotate2d, rotated_v_sequence, whac2d_seq, whac_seq, Mole, Mole2d};
use phase_parallel::{PhaseAlgorithm, Report, RunConfig, Scratch};
use pp_graph::Graph;

/// An SSSP instance: a weighted graph and a default source vertex
/// (per-query overrides come from [`RunConfig::source`]).
pub struct SsspInstance {
    pub graph: Graph,
    pub source: u32,
}

impl SsspInstance {
    pub fn new(graph: Graph, source: u32) -> Self {
        Self { graph, source }
    }
}

/// Shared boilerplate for the SSSP family: every member maps an
/// [`SsspInstance`] to distances, checks against sequential Dijkstra,
/// amortizes the same [`sssp::PreparedSssp`] (w*, per-vertex minimum
/// out-weights) and runs a one-shot solve as prepare + query; members
/// differ only in how a query runs against the prepared instance.
macro_rules! impl_sssp_prepare {
    () => {
        type Input = SsspInstance;
        type Output = Vec<u64>;
        type Prepared = sssp::PreparedSssp;

        fn solve_seq(&self, input: &SsspInstance) -> Vec<u64> {
            sssp::dijkstra(&input.graph, input.source)
        }

        fn prepare(&self, input: &SsspInstance) -> sssp::PreparedSssp {
            sssp::PreparedSssp::new(&input.graph, input.source)
        }

        fn solve_par(&self, input: &SsspInstance, cfg: &RunConfig) -> Report<Vec<u64>> {
            self.solve_prepared(input, &self.prepare(input), &mut Scratch::new(), cfg)
        }
    };
}

/// A greedy-graph-algorithm instance: a graph plus one priority per
/// vertex (MIS, coloring) or per [`matching::edge_list`] edge
/// (matching).
pub struct GraphPriorityInstance {
    pub graph: Graph,
    pub priority: Vec<u32>,
}

impl GraphPriorityInstance {
    pub fn new(graph: Graph, priority: Vec<u32>) -> Self {
        Self { graph, priority }
    }
}

/// Longest increasing subsequence (prefix-minima rounds, Type 1).
pub struct Lis;

impl PhaseAlgorithm for Lis {
    type Input = [i64];
    type Output = u32;
    phase_parallel::impl_no_prepare!();
    fn name(&self) -> &'static str {
        "lis"
    }
    fn solve_seq(&self, input: &[i64]) -> u32 {
        lis::lis_seq(input)
    }
    fn solve_par(&self, input: &[i64], cfg: &RunConfig) -> Report<u32> {
        lis::lis_par_with_dp(input, cfg).map(|(length, _)| length)
    }
}

/// Weighted LIS (§5.2 generalization, Type 1): input `(values,
/// weights)`, output the maximum total weight. Each prefix-minima round
/// names the objects of one rank, and each of them asks the 2D range
/// tree for its rectangle's maximum DP value once: exactly `k` rounds
/// and no wake-up. Algorithm 3 stays public as
/// [`lis::lis_weighted_par`] for Table 2's wake-up counts.
pub struct WeightedLis;

impl PhaseAlgorithm for WeightedLis {
    type Input = (Vec<i64>, Vec<u32>);
    type Output = u32;
    /// The prefix-minima tree, the y-slots' range tree with every point
    /// unfinished and the rectangle bounds, which each query copies.
    type Prepared = lis::PreparedWeightedLis;

    fn name(&self) -> &'static str {
        "lis/weighted"
    }
    fn solve_seq(&self, (values, weights): &Self::Input) -> u32 {
        lis::lis_weighted_seq(values, weights)
    }
    fn solve_par(&self, input: &Self::Input, cfg: &RunConfig) -> Report<u32> {
        self.solve_prepared(input, &self.prepare(input), &mut Scratch::new(), cfg)
    }
    fn prepare(&self, (values, _): &Self::Input) -> lis::PreparedWeightedLis {
        lis::prepare_weighted(values)
    }
    fn solve_prepared(
        &self,
        (_, weights): &Self::Input,
        prepared: &lis::PreparedWeightedLis,
        scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<u32> {
        lis::weighted_query(prepared, weights, scratch, cfg)
    }
}

/// Weighted activity selection via Type 1 frontier extraction
/// (Algorithm 2, flat arrays). Input must be sorted by end time
/// ([`activity::sort_by_end`]).
pub struct ActivityType1;

impl PhaseAlgorithm for ActivityType1 {
    type Input = [Activity];
    type Output = u64;
    /// The start order, its suffix minimum of end time, and the end
    /// times.
    type Prepared = activity::PreparedType1;

    fn name(&self) -> &'static str {
        "activity/type1"
    }
    fn solve_seq(&self, input: &[Activity]) -> u64 {
        activity::max_weight_seq(input)
    }
    fn solve_par(&self, input: &[Activity], cfg: &RunConfig) -> Report<u64> {
        self.solve_prepared(input, &self.prepare(input), &mut Scratch::new(), cfg)
    }
    fn prepare(&self, input: &[Activity]) -> activity::PreparedType1 {
        activity::prepare_type1(input)
    }
    fn solve_prepared(
        &self,
        input: &[Activity],
        prepared: &activity::PreparedType1,
        scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<u64> {
        activity::max_weight_type1(input, prepared, scratch, cfg)
    }
}

/// Weighted activity selection on the literal PA-BST Algorithm 2.
pub struct ActivityType1Pam;

impl PhaseAlgorithm for ActivityType1Pam {
    type Input = [Activity];
    type Output = u64;
    phase_parallel::impl_no_prepare!();
    fn name(&self) -> &'static str {
        "activity/type1-pam"
    }
    fn solve_seq(&self, input: &[Activity]) -> u64 {
        activity::max_weight_seq(input)
    }
    fn solve_par(&self, input: &[Activity], cfg: &RunConfig) -> Report<u64> {
        activity::max_weight_type1_pam(input, cfg)
    }
}

/// Weighted activity selection via Type 2 pivot wake-up (§5.1).
pub struct ActivityType2;

impl PhaseAlgorithm for ActivityType2 {
    type Input = [Activity];
    type Output = u64;
    /// The end times and Lemma 5.1's pivots.
    type Prepared = activity::PreparedType2;

    fn name(&self) -> &'static str {
        "activity/type2"
    }
    fn solve_seq(&self, input: &[Activity]) -> u64 {
        activity::max_weight_seq(input)
    }
    fn solve_par(&self, input: &[Activity], cfg: &RunConfig) -> Report<u64> {
        self.solve_prepared(input, &self.prepare(input), &mut Scratch::new(), cfg)
    }
    fn prepare(&self, input: &[Activity]) -> activity::PreparedType2 {
        activity::prepare_type2(input)
    }
    fn solve_prepared(
        &self,
        input: &[Activity],
        prepared: &activity::PreparedType2,
        scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<u64> {
        activity::max_weight_type2(input, prepared, scratch, cfg)
    }
}

/// Unweighted activity selection (Theorem 5.3): maximum *count* of
/// non-overlapping activities.
pub struct UnweightedActivity;

impl PhaseAlgorithm for UnweightedActivity {
    type Input = [Activity];
    type Output = u32;
    phase_parallel::impl_no_prepare!();
    fn name(&self) -> &'static str {
        "activity/unweighted"
    }
    fn solve_seq(&self, input: &[Activity]) -> u32 {
        // The classic earliest-end greedy over end-sorted activities.
        let mut count = 0u32;
        let mut free_from = 0u64;
        for a in input {
            if a.start >= free_from {
                count += 1;
                free_from = a.end;
            }
        }
        count
    }
    fn solve_par(&self, input: &[Activity], cfg: &RunConfig) -> Report<u32> {
        activity::max_count_unweighted(input, cfg)
    }
}

/// Unlimited knapsack (§4.2): input `(items, capacity)`.
pub struct Knapsack;

impl PhaseAlgorithm for Knapsack {
    type Input = (Vec<Item>, u64);
    type Output = u64;
    phase_parallel::impl_no_prepare!();
    fn name(&self) -> &'static str {
        "knapsack"
    }
    fn solve_seq(&self, (items, capacity): &Self::Input) -> u64 {
        knapsack::max_value_seq(items, *capacity)
    }
    fn solve_par(&self, (items, capacity): &Self::Input, cfg: &RunConfig) -> Report<u64> {
        knapsack::max_value_par_with_dp(items, *capacity, cfg).map(|(best, _)| best)
    }
}

/// Huffman tree construction (§4.3). The output is the weighted path
/// length: tie-breaking may legally produce different tree *shapes*,
/// but every optimal prefix code has the same WPL.
pub struct Huffman;

impl PhaseAlgorithm for Huffman {
    type Input = [u64];
    type Output = u64;
    /// The objects in `(frequency, id)` order.
    type Prepared = huffman::PreparedHuffman;

    fn name(&self) -> &'static str {
        "huffman"
    }
    fn solve_seq(&self, freqs: &[u64]) -> u64 {
        huffman::build_seq(freqs).weighted_path_length(freqs)
    }
    fn solve_par(&self, freqs: &[u64], cfg: &RunConfig) -> Report<u64> {
        self.solve_prepared(freqs, &self.prepare(freqs), &mut Scratch::new(), cfg)
    }
    fn prepare(&self, freqs: &[u64]) -> huffman::PreparedHuffman {
        huffman::prepare(freqs)
    }
    fn solve_prepared(
        &self,
        freqs: &[u64],
        prepared: &huffman::PreparedHuffman,
        scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<u64> {
        huffman::wpl_query(freqs, prepared, scratch, cfg)
    }
}

/// SSSP by Δ-stepping; Δ from [`RunConfig::delta`], default w*
/// (the paper's phase-parallel choice, Theorem 4.5).
pub struct DeltaSssp;

impl PhaseAlgorithm for DeltaSssp {
    impl_sssp_prepare!();
    fn name(&self) -> &'static str {
        "sssp/delta"
    }
    fn solve_prepared(
        &self,
        input: &SsspInstance,
        prepared: &sssp::PreparedSssp,
        scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<Vec<u64>> {
        let delta = cfg.delta.unwrap_or(prepared.w_star);
        sssp::delta_stepping(&input.graph, prepared.source_for(cfg), delta, scratch, cfg)
    }
}

/// SSSP by ρ-stepping; ρ from [`RunConfig::rho`].
pub struct RhoSssp;

impl PhaseAlgorithm for RhoSssp {
    impl_sssp_prepare!();
    fn name(&self) -> &'static str {
        "sssp/rho"
    }
    fn solve_prepared(
        &self,
        input: &SsspInstance,
        prepared: &sssp::PreparedSssp,
        scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<Vec<u64>> {
        sssp::rho_stepping(&input.graph, prepared.source_for(cfg), scratch, cfg)
    }
}

/// SSSP by Crauser et al.'s OUT-criterion relaxed rank.
pub struct CrauserSssp;

impl PhaseAlgorithm for CrauserSssp {
    impl_sssp_prepare!();
    fn name(&self) -> &'static str {
        "sssp/crauser"
    }
    fn solve_prepared(
        &self,
        input: &SsspInstance,
        prepared: &sssp::PreparedSssp,
        scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<Vec<u64>> {
        let source = prepared.source_for(cfg);
        sssp::crauser_out(&input.graph, source, &prepared.mow, scratch, cfg)
    }
}

/// SSSP on the literal Theorem 4.5 PA-BST algorithm.
pub struct PamSssp;

impl PhaseAlgorithm for PamSssp {
    impl_sssp_prepare!();
    fn name(&self) -> &'static str {
        "sssp/pam"
    }
    fn solve_prepared(
        &self,
        input: &SsspInstance,
        prepared: &sssp::PreparedSssp,
        _scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<Vec<u64>> {
        let source = prepared.source_for(cfg);
        sssp::sssp_pam(&input.graph, source, prepared.w_star, cfg)
    }
}

/// SSSP by parallel Bellman-Ford — the work-inefficient baseline.
pub struct BellmanFordSssp;

impl PhaseAlgorithm for BellmanFordSssp {
    impl_sssp_prepare!();
    fn name(&self) -> &'static str {
        "sssp/bellman-ford"
    }
    fn solve_prepared(
        &self,
        input: &SsspInstance,
        prepared: &sssp::PreparedSssp,
        scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<Vec<u64>> {
        sssp::bellman_ford(&input.graph, prepared.source_for(cfg), scratch, cfg)
    }
}

/// SSSP by sequential Dijkstra behind the unified interface: the engine
/// for serving *point* queries from a prepared instance (a batched
/// solve parallelizes across queries rather than within one).
pub struct DijkstraSssp;

impl PhaseAlgorithm for DijkstraSssp {
    impl_sssp_prepare!();
    fn name(&self) -> &'static str {
        "sssp/dijkstra"
    }
    fn solve_prepared(
        &self,
        input: &SsspInstance,
        prepared: &sssp::PreparedSssp,
        scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<Vec<u64>> {
        sssp::dijkstra_core(&input.graph, prepared.source_for(cfg), scratch, cfg)
    }
}

/// Greedy MIS via asynchronous TAS trees (Algorithm 4).
pub struct GreedyMis;

impl PhaseAlgorithm for GreedyMis {
    type Input = GraphPriorityInstance;
    type Output = Vec<bool>;
    /// The TAS-tree leaf counts and each arc's leaf slot, which
    /// Algorithm 4 walks — built once, queried per run.
    type Prepared = mis::BlockingMirrors;

    fn name(&self) -> &'static str {
        "mis/tas"
    }
    fn solve_seq(&self, input: &GraphPriorityInstance) -> Vec<bool> {
        mis::mis_seq(&input.graph, &input.priority)
    }
    fn solve_par(&self, input: &GraphPriorityInstance, cfg: &RunConfig) -> Report<Vec<bool>> {
        self.solve_prepared(input, &self.prepare(input), &mut Scratch::new(), cfg)
    }
    fn prepare(&self, input: &GraphPriorityInstance) -> mis::BlockingMirrors {
        mis::blocking_mirrors(&input.graph, &input.priority)
    }
    fn solve_prepared(
        &self,
        input: &GraphPriorityInstance,
        mirrors: &mis::BlockingMirrors,
        scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<Vec<bool>> {
        mis::mis_tas(&input.graph, mirrors, scratch, cfg)
    }
}

/// Greedy MIS via round-synchronous deterministic reservations (the
/// prior-work baseline the paper improves on).
pub struct RoundsMis;

impl PhaseAlgorithm for RoundsMis {
    type Input = GraphPriorityInstance;
    type Output = Vec<bool>;
    phase_parallel::impl_no_prepare!();
    fn name(&self) -> &'static str {
        "mis/rounds"
    }
    fn solve_seq(&self, input: &GraphPriorityInstance) -> Vec<bool> {
        mis::mis_seq(&input.graph, &input.priority)
    }
    fn solve_par(&self, input: &GraphPriorityInstance, cfg: &RunConfig) -> Report<Vec<bool>> {
        mis::mis_rounds(&input.graph, &input.priority, cfg)
    }
}

/// Greedy (Jones–Plassmann) coloring via TAS trees (§5.3), on the same
/// prepared [`mis::BlockingMirrors`] as [`GreedyMis`]: each colored
/// vertex reaches the leaf it marks in a neighbor's tree with one load.
pub struct Coloring;

impl PhaseAlgorithm for Coloring {
    type Input = GraphPriorityInstance;
    type Output = Vec<u32>;
    /// The TAS-tree leaf counts and each arc's leaf slot.
    type Prepared = mis::BlockingMirrors;

    fn name(&self) -> &'static str {
        "coloring"
    }
    fn solve_seq(&self, input: &GraphPriorityInstance) -> Vec<u32> {
        coloring::coloring_seq(&input.graph, &input.priority)
    }
    fn solve_par(&self, input: &GraphPriorityInstance, cfg: &RunConfig) -> Report<Vec<u32>> {
        self.solve_prepared(input, &self.prepare(input), &mut Scratch::new(), cfg)
    }
    fn prepare(&self, input: &GraphPriorityInstance) -> mis::BlockingMirrors {
        mis::blocking_mirrors(&input.graph, &input.priority)
    }
    fn solve_prepared(
        &self,
        input: &GraphPriorityInstance,
        mirrors: &mis::BlockingMirrors,
        scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<Vec<u32>> {
        coloring::coloring_par(&input.graph, mirrors, scratch, cfg)
    }
}

/// Greedy maximal matching, round-synchronous (§5.3). Priorities rank
/// the edges of [`matching::edge_list`].
pub struct Matching;

impl PhaseAlgorithm for Matching {
    type Input = GraphPriorityInstance;
    type Output = Vec<bool>;
    /// The canonical undirected edge list.
    type Prepared = Vec<(u32, u32)>;

    fn name(&self) -> &'static str {
        "matching"
    }
    fn solve_seq(&self, input: &GraphPriorityInstance) -> Vec<bool> {
        matching::matching_seq(&input.graph, &input.priority)
    }
    fn solve_par(&self, input: &GraphPriorityInstance, cfg: &RunConfig) -> Report<Vec<bool>> {
        self.solve_prepared(input, &self.prepare(input), &mut Scratch::new(), cfg)
    }
    fn prepare(&self, input: &GraphPriorityInstance) -> Vec<(u32, u32)> {
        matching::edge_list(&input.graph)
    }
    fn solve_prepared(
        &self,
        input: &GraphPriorityInstance,
        edges: &Vec<(u32, u32)>,
        scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<Vec<bool>> {
        matching::matching_par(&input.graph, &input.priority, edges, scratch, cfg)
    }
}

/// Greedy maximal matching via deterministic reservations (ablation
/// baseline).
pub struct MatchingReservations;

impl PhaseAlgorithm for MatchingReservations {
    type Input = GraphPriorityInstance;
    type Output = Vec<bool>;
    /// The canonical edge list plus the priority-sorted iterate order
    /// the speculative-for baseline consumes (the round-synchronous
    /// [`Matching`] never needs the order, so it does not build it).
    type Prepared = (Vec<(u32, u32)>, Vec<u32>);

    fn name(&self) -> &'static str {
        "matching/reservations"
    }
    fn solve_seq(&self, input: &GraphPriorityInstance) -> Vec<bool> {
        matching::matching_seq(&input.graph, &input.priority)
    }
    fn solve_par(&self, input: &GraphPriorityInstance, cfg: &RunConfig) -> Report<Vec<bool>> {
        self.solve_prepared(input, &self.prepare(input), &mut Scratch::new(), cfg)
    }
    fn prepare(&self, input: &GraphPriorityInstance) -> Self::Prepared {
        (
            matching::edge_list(&input.graph),
            matching::priority_order(&input.priority),
        )
    }
    fn solve_prepared(
        &self,
        input: &GraphPriorityInstance,
        (edges, order): &Self::Prepared,
        _scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<Vec<bool>> {
        matching::matching_reservations(&input.graph, &input.priority, edges, order, cfg)
    }
}

/// 1D Whac-A-Mole (Appendix B): [`Lis`] on the rotated sequence, in
/// `O(n log n)` work and `rank(S)` rounds of `O(log n)` span.
pub struct Whac;

impl PhaseAlgorithm for Whac {
    type Input = [Mole];
    type Output = u32;
    phase_parallel::impl_no_prepare!();
    fn name(&self) -> &'static str {
        "whac"
    }
    fn solve_seq(&self, moles: &[Mole]) -> u32 {
        whac_seq(moles)
    }
    fn solve_par(&self, moles: &[Mole], cfg: &RunConfig) -> Report<u32> {
        Lis.solve_par(&rotated_v_sequence(moles), cfg)
    }
}

/// 2D-grid Whac-A-Mole (Appendix B closing remark): [`Chain<4>`](Chain)
/// on the rotated points, in `O(n log^5 n)` work.
pub struct Whac2d;

impl PhaseAlgorithm for Whac2d {
    type Input = [Mole2d];
    type Output = u32;
    /// [`Chain<4>`](Chain)'s prepared tree over the rotated points.
    type Prepared = PreparedChain<4>;

    fn name(&self) -> &'static str {
        "whac/2d"
    }
    fn solve_seq(&self, moles: &[Mole2d]) -> u32 {
        whac2d_seq(moles)
    }
    fn solve_par(&self, moles: &[Mole2d], cfg: &RunConfig) -> Report<u32> {
        self.solve_prepared(moles, &self.prepare(moles), &mut Scratch::new(), cfg)
    }
    fn prepare(&self, moles: &[Mole2d]) -> PreparedChain<4> {
        let pts: Vec<[i64; 4]> = moles.iter().map(rotate2d).collect();
        chain::prepare_chain(&pts)
    }
    fn solve_prepared(
        &self,
        _moles: &[Mole2d],
        prepared: &PreparedChain<4>,
        scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<u32> {
        chain::chain_query(prepared, scratch, cfg)
    }
}

/// Longest `D`-dimensional dominance chain: `Chain<3>` is the
/// appendix's 3D range-query extension, `Chain<4>` the 2D-grid
/// Whac-A-Mole substrate.
pub struct Chain<const D: usize>;

impl<const D: usize> PhaseAlgorithm for Chain<D>
where
    [i64; D]: ChainPoint,
{
    type Input = [[i64; D]];
    type Output = u32;
    /// The slots, the prefix bounds and the dominance tree with every
    /// point unfinished, which each query copies.
    type Prepared = PreparedChain<D>;

    fn name(&self) -> &'static str {
        match D {
            3 => "chain3d",
            4 => "chain4d",
            _ => unreachable!("chains run in 3 or 4 dimensions"),
        }
    }
    fn solve_seq(&self, pts: &[[i64; D]]) -> u32 {
        chain_seq(pts)
    }
    fn solve_par(&self, pts: &[[i64; D]], cfg: &RunConfig) -> Report<u32> {
        self.solve_prepared(pts, &self.prepare(pts), &mut Scratch::new(), cfg)
    }
    fn prepare(&self, pts: &[[i64; D]]) -> PreparedChain<D> {
        chain::prepare_chain(pts)
    }
    fn solve_prepared(
        &self,
        _pts: &[[i64; D]],
        prepared: &PreparedChain<D>,
        scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<u32> {
        chain::chain_query(prepared, scratch, cfg)
    }
}

/// Random permutation on Type 2 wake-ups over the Knuth shuffle's
/// dependence forest (§5.3, \[64\]): input `(n, target_seed)`;
/// bit-for-bit equal to the sequential Knuth shuffle with the same swap
/// targets.
pub struct RandomPerm;

impl PhaseAlgorithm for RandomPerm {
    type Input = (usize, u64);
    type Output = Vec<u32>;
    /// The swap targets, the dependence forest, and the engine's
    /// initial pairs and round-0 frontier over it.
    type Prepared = random_perm::PreparedPerm;

    fn name(&self) -> &'static str {
        "random-perm"
    }
    fn solve_seq(&self, &(n, seed): &Self::Input) -> Vec<u32> {
        random_perm::knuth_shuffle_seq(n, &random_perm::swap_targets(n, seed))
    }
    fn solve_par(&self, input: &Self::Input, cfg: &RunConfig) -> Report<Vec<u32>> {
        self.solve_prepared(input, &self.prepare(input), &mut Scratch::new(), cfg)
    }
    fn prepare(&self, &(n, seed): &Self::Input) -> random_perm::PreparedPerm {
        random_perm::prepare_perm(n, seed)
    }
    fn solve_prepared(
        &self,
        _input: &Self::Input,
        prepared: &random_perm::PreparedPerm,
        scratch: &mut Scratch,
        cfg: &RunConfig,
    ) -> Report<Vec<u32>> {
        random_perm::shuffle_query(prepared, scratch, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_graph::gen;
    use pp_parlay::shuffle::random_priorities;

    #[test]
    fn solver_drives_lis_family() {
        let series = [4i64, 7, 3, 2, 8, 1, 6, 5];
        let report = Lis.solve_par(&series, &RunConfig::seeded(3));
        assert_eq!(report.output, 3);
        assert_eq!(report.output, Lis.solve_seq(&series));
        assert_eq!(Lis.name(), "lis");
    }

    #[test]
    fn solver_drives_graph_families() {
        let g = gen::uniform(200, 800, 1);
        let pri = random_priorities(200, 2);
        let input = GraphPriorityInstance::new(g, pri);
        let cfg = RunConfig::new();
        let mis = GreedyMis.solve_seq(&input);
        assert_eq!(GreedyMis.solve_par(&input, &cfg).output, mis);
        assert_eq!(RoundsMis.solve_par(&input, &cfg).output, mis);
        let colors = Coloring.solve_par(&input, &cfg).output;
        assert_eq!(colors, Coloring.solve_seq(&input));
    }

    #[test]
    fn solver_drives_sssp_with_knobs() {
        let g = gen::uniform(150, 700, 5);
        let wg = gen::with_uniform_weights(&g, 1, 500, 6);
        let input = SsspInstance::new(wg, 0);
        let base = DeltaSssp.solve_par(&input, &RunConfig::new().with_delta(64));
        let rho = RhoSssp.solve_par(&input, &RunConfig::new().with_rho(16));
        assert_eq!(base.output, DeltaSssp.solve_seq(&input));
        assert_eq!(base.output, rho.output);
    }
}
