//! Algorithm 4: the asynchronous TAS-tree MIS.
//!
//! Each vertex `v` owns a TAS tree with one leaf per *blocking neighbor*
//! (neighbor with higher priority). A vertex with an empty tree is
//! immediately ready. Waking `v` selects it and removes each undecided
//! neighbor `u`; every removal is propagated into the TAS trees of `u`'s
//! lower-priority neighbors, and whichever propagation completes a tree
//! wakes that vertex — no rounds, no synchronization barriers
//! (Theorem 5.7: `O(m)` work, `O(log n log d_max)` span whp).
//!
//! Status transitions are protected by CAS so that selection and removal
//! can never both claim a vertex (the TAS-tree semantics already make
//! that impossible — see the argument in the module tests — but the CAS
//! keeps the code robust under any interleaving).

use phase_parallel::{Report, RunConfig, RunOutcome, Scratch, TasForest};
use pp_graph::Graph;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

const UNDECIDED: u8 = 0;
const SELECTED: u8 = 1;
const REMOVED: u8 = 2;

/// Leaf slot of an arc `u → w` along which `u` does not block `w`.
const NOT_BLOCKING: u32 = u32::MAX;

/// What both TAS-tree families (MIS, coloring) prepare: a pure function
/// of the graph and the priorities, built once so that a query reaches
/// the leaf it marks with one load. Build with [`blocking_mirrors`].
pub struct BlockingMirrors {
    /// Per vertex: the number of blocking (higher-priority) neighbors,
    /// which is its TAS tree's leaf count.
    counts: Vec<u32>,
    /// Per CSR arc `u → w`, indexed by arc id: `u`'s leaf index in `w`'s
    /// TAS tree when `u` blocks `w`, [`NOT_BLOCKING`] otherwise.
    leaf_slots: Vec<u32>,
}

impl BlockingMirrors {
    /// The TAS-tree leaf counts, one per vertex.
    pub(crate) fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The neighbors `w` that `u` blocks (lower priority), in adjacency
    /// order, each with `u`'s leaf index in `w`'s TAS tree.
    pub(crate) fn blocked_by<'a>(
        &'a self,
        g: &'a Graph,
        u: u32,
    ) -> impl Iterator<Item = (u32, usize)> + 'a {
        let first = g.offsets()[u as usize];
        let arcs = first..first + g.degree(u);
        g.neighbors(u)
            .iter()
            .zip(&self.leaf_slots[arcs])
            .filter(|&(_, &leaf)| leaf != NOT_BLOCKING)
            .map(|(&w, &leaf)| (w, leaf as usize))
    }
}

/// Build the [`BlockingMirrors`] of `g` under `priority`: the
/// preprocessing half of [`GreedyMis`](crate::api::GreedyMis) and
/// [`Coloring`](crate::api::Coloring). `O(m log d_max)` work: one binary
/// search per blocking arc finds its reverse arc.
pub fn blocking_mirrors(g: &Graph, priority: &[u32]) -> BlockingMirrors {
    let n = g.num_vertices();
    assert_eq!(priority.len(), n);
    let offsets = g.offsets();
    let blocks = |u: u32, w: u32| priority[u as usize] > priority[w as usize];
    // Per arc `w → x`: the number of `w`'s blocking neighbors before `x`,
    // which is `x`'s leaf index in `w`'s tree when `x` blocks `w`.
    let rank: Vec<u32> = (0..n as u32)
        .into_par_iter()
        .flat_map_iter(|w| {
            g.neighbors(w).iter().scan(0u32, move |before, &x| {
                let r = *before;
                *before += u32::from(blocks(x, w));
                Some(r)
            })
        })
        .collect();
    let counts = (0..n as u32)
        .into_par_iter()
        .map(|w| match g.neighbors(w).last() {
            Some(&x) => rank[offsets[w as usize + 1] - 1] + u32::from(blocks(x, w)),
            None => 0,
        })
        .collect();
    // Arc `u → w` reads its leaf at the reverse arc `w → u`.
    let rank = &rank;
    let leaf_slots = (0..n as u32)
        .into_par_iter()
        .flat_map_iter(|u| {
            g.neighbors(u).iter().map(move |&w| {
                if !blocks(u, w) {
                    return NOT_BLOCKING;
                }
                let pos = g.neighbors(w).partition_point(|&x| x < u);
                debug_assert_eq!(g.neighbors(w)[pos], u);
                rank[offsets[w as usize] + pos]
            })
        })
        .collect();
    BlockingMirrors { counts, leaf_slots }
}

struct State<'g> {
    g: &'g Graph,
    status: &'g [AtomicU8],
    forest: TasForest,
    mirrors: &'g BlockingMirrors,
}

/// The wake-up loop both TAS-tree families share (MIS, coloring): from
/// every vertex of `forest` whose tree has no leaves, in parallel, run
/// one cascade. A cascade advances level by level — a loop rather than
/// recursion, so a priority chain of depth `Θ(n)` (the worst case)
/// cannot overflow the stack, while each level still fans out through
/// `rayon` and many cascades run concurrently.
/// `level(frontier, next)` processes one level and fills `next` with
/// the vertices whose trees it completes. Each chunk of roots owns one
/// buffer pair, which ping-pongs across levels and is reused by the
/// chunk's next cascade, so cascades allocate only while their buffers
/// grow.
///
/// The algorithms have no rounds, so `cfg`'s deadline is polled at
/// *cascade-level* granularity: the first cascade that observes a trip
/// latches it, every cascade abandons its remaining frontier at its next
/// level, and the run returns [`RunOutcome::DeadlineExceeded`]. With an
/// untripped token the output is byte-identical to a run without one.
pub(crate) fn run_cascades<L>(forest: &TasForest, cfg: &RunConfig, level: L) -> RunOutcome
where
    L: Fn(&[u32], &mut Vec<u32>) + Sync,
{
    let tripped = AtomicBool::new(false);
    let poll = || {
        if tripped.load(Ordering::Relaxed) {
            return true;
        }
        let trip = cfg.is_cancelled();
        if trip {
            tripped.store(true, Ordering::Relaxed);
        }
        trip
    };
    (0..forest.len() as u32)
        .into_par_iter()
        .map_init(
            || (Vec::new(), Vec::new()),
            |(frontier, next), v0| {
                if forest.leaves_of(v0 as usize) != 0 || poll() {
                    return;
                }
                frontier.clear();
                frontier.push(v0);
                while !frontier.is_empty() && !poll() {
                    next.clear();
                    level(frontier, next);
                    std::mem::swap(frontier, next);
                }
            },
        )
        .for_each(drop);
    if tripped.into_inner() {
        RunOutcome::DeadlineExceeded
    } else {
        RunOutcome::Completed
    }
}

/// Asynchronous greedy MIS via TAS trees: run the wake cascades
/// ([`run_cascades`]) against prebuilt [`BlockingMirrors`], drawing the
/// status array from `scratch`. Returns the same set as
/// [`super::mis_seq`] for the same priorities. On a deadline trip the
/// partial selection is a valid independent set (never maximal).
pub(crate) fn mis_tas(
    g: &Graph,
    mirrors: &BlockingMirrors,
    scratch: &mut Scratch,
    cfg: &RunConfig,
) -> Report<Vec<bool>> {
    let n = g.num_vertices();
    assert_eq!(mirrors.counts.len(), n, "mirrors built for another graph");
    let mut status = scratch.take_vec::<AtomicU8>("mis_status");
    status.resize_with(n, || AtomicU8::new(UNDECIDED));

    let state = State {
        g,
        status: &status,
        forest: TasForest::new(&mirrors.counts),
        mirrors,
    };
    let outcome = run_cascades(&state.forest, cfg, |frontier, next| {
        wake_level(&state, frontier, next)
    });
    let out = status
        .iter()
        .map(|s| s.load(Ordering::Relaxed) == SELECTED)
        .collect();
    scratch.put_vec("mis_status", status);
    Report::plain(out).with_outcome(outcome)
}

/// One level of a wake cascade (Algorithm 4's `WakeUp`): select every
/// vertex of `frontier`, remove each undecided neighbor, and collect
/// into `next` the vertices whose TAS trees the removals complete.
fn wake_level(state: &State<'_>, frontier: &[u32], next: &mut Vec<u32>) {
    // Select this level. Vertices arriving here are never adjacent:
    // a TAS-tree only completes when all higher-priority neighbors
    // are removed, and a vertex being selected is not removed.
    for &v in frontier {
        let ok = state.status[v as usize]
            .compare_exchange(UNDECIDED, SELECTED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        debug_assert!(ok, "TAS-tree completion implies undecided");
    }
    // A removal may notify a vertex `w` before another vertex of this
    // level removes `w` too; that cannot complete `w`'s tree. Were `w`
    // adjacent to a selected `v` of lower priority, `w` would already
    // be decided; so `v` has the higher priority, its leaf in `w`'s tree
    // stays unmarked (selected vertices notify no one), and `w` waits.
    next.par_extend(frontier.par_iter().flat_map_iter(|&v| {
        state
            .g
            .neighbors(v)
            .iter()
            .filter(|&&u| {
                // First claim of the removal processes it exactly once.
                state.status[u as usize]
                    .compare_exchange(UNDECIDED, REMOVED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            })
            .flat_map(|&u| removed(state, u))
    }));
}

/// `u` just became unavailable: mark `u`'s leaf in the TAS tree of every
/// vertex `w` that `u` blocks and that is not removed already. Yields
/// the vertices whose trees this completes (now ready to wake).
fn removed<'s>(state: &'s State<'_>, u: u32) -> impl Iterator<Item = u32> + 's {
    state
        .mirrors
        .blocked_by(state.g, u)
        .filter_map(move |(w, leaf)| {
            let ready = state.status[w as usize].load(Ordering::Relaxed) != REMOVED
                && state.forest.mark(w as usize, leaf);
            ready.then_some(w)
        })
}

#[cfg(test)]
mod tests {
    use super::super::{is_independent, mis_seq};
    use super::blocking_mirrors;
    use crate::api::{Coloring, GraphPriorityInstance, GreedyMis};
    use crate::coloring::coloring_seq;
    use crate::coloring_orders::{
        order_largest_degree_first, order_largest_log_degree_first, order_random,
        order_smallest_degree_last,
    };
    use phase_parallel::{CancelToken, PhaseAlgorithm, RunConfig, RunOutcome, Scratch};
    use pp_graph::{gen, Graph};
    use pp_parlay::shuffle::random_priorities;
    use std::time::Duration;

    /// The leaf index of `u` in `w`'s TAS tree by scanning `w`'s
    /// adjacency: the reference the mirrors' leaf slots are checked
    /// against.
    fn scanned_leaf(g: &Graph, priority: &[u32], u: u32, w: u32) -> usize {
        g.neighbors(w)
            .iter()
            .take_while(|&&x| x != u)
            .filter(|&&x| priority[x as usize] > priority[w as usize])
            .count()
    }

    /// Check every arc of `g` against the scan: a blocking arc's slot is
    /// the scanned leaf, and no other arc yields a slot.
    fn assert_slots_match_scan(g: &Graph, priority: &[u32], label: &str) {
        let mirrors = blocking_mirrors(g, priority);
        for u in 0..g.num_vertices() as u32 {
            let blocked: Vec<(u32, usize)> = mirrors.blocked_by(g, u).collect();
            let want: Vec<(u32, usize)> = g
                .neighbors(u)
                .iter()
                .filter(|&&w| priority[u as usize] > priority[w as usize])
                .map(|&w| (w, scanned_leaf(g, priority, u, w)))
                .collect();
            assert_eq!(blocked, want, "{label}: arcs out of vertex {u}");
        }
        for w in 0..g.num_vertices() as u32 {
            let blockers = g
                .neighbors(w)
                .iter()
                .filter(|&&x| priority[x as usize] > priority[w as usize])
                .count();
            assert_eq!(
                mirrors.counts()[w as usize] as usize,
                blockers,
                "{label}: count of {w}"
            );
        }
    }

    #[test]
    fn triangle_selects_highest() {
        let mut b = pp_graph::GraphBuilder::new(3).symmetric();
        b.add(0, 1);
        b.add(1, 2);
        b.add(0, 2);
        let inst = GraphPriorityInstance::new(b.build(), vec![5, 9, 1]);
        let set = GreedyMis.solve_par(&inst, &RunConfig::new()).output;
        assert_eq!(set, vec![false, true, false]);
    }

    #[test]
    fn deterministic_across_runs() {
        // The greedy MIS is a function of priorities alone; repeated runs
        // (different schedules) must agree.
        let g = gen::rmat(10, 8192, 3);
        let pri = random_priorities(g.num_vertices(), 42);
        let inst = GraphPriorityInstance::new(g, pri);
        let first = GreedyMis.solve_par(&inst, &RunConfig::new()).output;
        for _ in 0..5 {
            assert_eq!(GreedyMis.solve_par(&inst, &RunConfig::new()).output, first);
        }
    }

    #[test]
    fn high_degree_stress() {
        // Star-of-stars: deep wake chains through high-degree hubs.
        let inst = GraphPriorityInstance::new(gen::star(5000), random_priorities(5000, 7));
        let set = GreedyMis.solve_par(&inst, &RunConfig::new()).output;
        assert!(super::super::is_maximal_independent(&inst.graph, &set));
    }

    #[test]
    fn leaf_slots_match_the_adjacency_scan() {
        let graphs: [(&str, Graph); 4] = [
            ("uniform", gen::uniform(300, 1500, 1)),
            ("rmat", gen::rmat(9, 4096, 5)),
            ("star", gen::star(200)),
            ("grid2d", gen::grid2d(15, 20)),
        ];
        for (name, g) in &graphs {
            let n = g.num_vertices();
            for seed in [1, 2, 3] {
                let label = format!("{name}, random priorities seed {seed}");
                assert_slots_match_scan(g, &random_priorities(n, seed), &label);
            }
            let orders: [(&str, Vec<u32>); 4] = [
                ("R", order_random(g, 4)),
                ("LF", order_largest_degree_first(g, 4)),
                ("LLF", order_largest_log_degree_first(g, 4)),
                ("SL", order_smallest_degree_last(g, 4)),
            ];
            for (order, priority) in &orders {
                assert_slots_match_scan(g, priority, &format!("{name}, {order}"));
            }
        }
    }

    /// Both TAS entries' prepared queries, each under a config from
    /// `cfg` built just before it runs, checked against the baselines:
    /// equal when complete, a consistent part of them when tripped.
    fn query_both(inst: &GraphPriorityInstance, cfg: impl Fn() -> RunConfig) -> [RunOutcome; 2] {
        let (g, priority) = (&inst.graph, &inst.priority);
        let (mis, colors) = (mis_seq(g, priority), coloring_seq(g, priority));
        let (mirrors, mut scratch) = (blocking_mirrors(g, priority), Scratch::new());
        let set = GreedyMis.solve_prepared(inst, &mirrors, &mut scratch, &cfg());
        let col = Coloring.solve_prepared(inst, &mirrors, &mut scratch, &cfg());
        if set.is_complete() {
            assert_eq!(set.output, mis);
        } else {
            // A partial selection is independent: every selected vertex
            // is a greedy pick.
            assert!(is_independent(g, &set.output));
            assert!(set
                .output
                .iter()
                .zip(&mis)
                .all(|(&part, &all)| !part || all));
        }
        if col.is_complete() {
            assert_eq!(col.output, colors);
        } else {
            // A partial coloring is proper where it colors, and each
            // colored vertex has its greedy color.
            for (v, &c) in col.output.iter().enumerate() {
                assert!(c == u32::MAX || c == colors[v], "vertex {v}: color {c}");
                let clash = c != u32::MAX
                    && g.neighbors(v as u32)
                        .iter()
                        .any(|&u| col.output[u as usize] == c);
                assert!(!clash, "vertex {v} shares color {c} with a neighbor");
            }
        }
        [set.outcome, col.outcome]
    }

    #[test]
    fn cascade_deadline_contract() {
        let g = gen::rmat(12, 30_000, 8);
        let inst = GraphPriorityInstance::new(g, random_priorities(4096, 9));
        let expired = || {
            let token = CancelToken::new();
            token.cancel();
            RunConfig::new().with_cancel_token(token)
        };
        assert_eq!(
            query_both(&inst, expired),
            [RunOutcome::DeadlineExceeded; 2]
        );
        // Deadlines that may trip anywhere in the cascades.
        for micros in [0, 100, 1_000, 5_000, 20_000] {
            query_both(&inst, || {
                RunConfig::new().with_deadline(Duration::from_micros(micros))
            });
        }
        // An untripped token is observation-free: byte-identical output.
        let untripped = || RunConfig::new().with_cancel_token(CancelToken::new());
        assert_eq!(query_both(&inst, untripped), [RunOutcome::Completed; 2]);
    }

    #[test]
    fn star_hub_with_lowest_priority_matches_baselines() {
        // Every leaf is a root that notifies the hub's TAS tree: the
        // hub's leaf slots are read once per leaf.
        let n = 3000;
        let mut priority = random_priorities(n, 11);
        let lowest = (0..n).min_by_key(|&v| priority[v]).unwrap();
        priority.swap(0, lowest);
        let inst = GraphPriorityInstance::new(gen::star(n), priority);
        let mis = mis_seq(&inst.graph, &inst.priority);
        let colors = coloring_seq(&inst.graph, &inst.priority);
        assert!(!mis[0] && mis[1..].iter().all(|&s| s));
        assert!(colors[0] == 1 && colors[1..].iter().all(|&c| c == 0));
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let cfg = RunConfig::new();
            let set = pool.install(|| GreedyMis.solve_par(&inst, &cfg).output);
            assert_eq!(set, mis, "mis/tas at {threads} threads");
            let col = pool.install(|| Coloring.solve_par(&inst, &cfg).output);
            assert_eq!(col, colors, "coloring at {threads} threads");
        }
    }
}
