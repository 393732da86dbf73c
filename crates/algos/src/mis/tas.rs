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

use crate::coloring::blocking_counts;
use phase_parallel::{Report, RunConfig, RunOutcome, Scratch, TasForest};
use pp_graph::Graph;
use rayon::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

const UNDECIDED: u8 = 0;
const SELECTED: u8 = 1;
const REMOVED: u8 = 2;

/// The CSR mirrors Algorithm 4 walks: a pure function of the graph and
/// the priorities, so a prepared instance builds them **once** and
/// every query skips the per-arc binary searches (`O(m log d̄)` work)
/// they cost. Build with [`blocking_mirrors`].
pub struct BlockingMirrors {
    /// Arc-offset base per vertex (mirror of the CSR offsets).
    offsets: Vec<usize>,
    /// Per-arc: slot of the reverse arc in the target's adjacency list.
    rev_slot: Vec<u32>,
    /// Per-arc `(v → u)`: the number of *blocking* neighbors of `v`
    /// strictly before this slot — i.e. `u`'s leaf index in `v`'s TAS
    /// tree when `u` blocks `v`.
    blocking_rank: Vec<u32>,
    /// Per-vertex count of blocking (higher-priority) neighbors — the
    /// TAS-tree leaf counts ([`blocking_counts`]).
    counts: Vec<u32>,
}

/// Build the CSR mirrors (offsets, reverse-arc slots, blocking ranks,
/// blocking counts) for `g` under `priority` — the preprocessing half
/// of [`GreedyMis`](crate::api::GreedyMis).
pub fn blocking_mirrors(g: &Graph, priority: &[u32]) -> BlockingMirrors {
    let n = g.num_vertices();
    assert_eq!(priority.len(), n);
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    for v in 0..n as u32 {
        offsets.push(offsets[v as usize] + g.degree(v));
    }
    let m = offsets[n];
    let mut rev_slot = vec![0u32; m];
    let mut blocking_rank = vec![0u32; m];
    let counts = blocking_counts(g, priority);
    {
        // Fill blocking_rank (prefix counts) and rev_slot: sequential
        // per vertex, parallel over vertices.
        let br = SyncSlice(blocking_rank.as_mut_ptr());
        let rs = SyncSlice(rev_slot.as_mut_ptr());
        (0..n as u32).into_par_iter().for_each(|v| {
            let base = offsets[v as usize];
            let mut k = 0u32;
            for (s, &u) in g.neighbors(v).iter().enumerate() {
                // SAFETY: arc slots are disjoint across vertices.
                unsafe { br.get().add(base + s).write(k) };
                if priority[u as usize] > priority[v as usize] {
                    k += 1;
                }
                // Reverse slot: position of v within u's sorted adjacency.
                let pos = g.neighbors(u).partition_point(|&w| w < v);
                debug_assert_eq!(g.neighbors(u)[pos], v);
                // SAFETY: `base + s` indexes this arc's unique slot in
                // the `rs` buffer (one slot per arc, written once).
                unsafe {
                    rs.get()
                        .add(base + s)
                        .write((offsets[u as usize] + pos) as u32)
                };
            }
        });
    }
    BlockingMirrors {
        offsets,
        rev_slot,
        blocking_rank,
        counts,
    }
}

struct State<'g> {
    g: &'g Graph,
    priority: &'g [u32],
    status: &'g [AtomicU8],
    forest: TasForest,
    mirrors: &'g BlockingMirrors,
}

/// The wake-up loop both TAS-tree families share (MIS, coloring): from
/// every vertex of `forest` whose tree has no leaves, in parallel, run
/// one cascade. A cascade advances level by level — a loop rather than
/// recursion, so a priority chain of depth `Θ(n)` (the worst case)
/// cannot overflow the stack, while each level still fans out through
/// `rayon` and many cascades run concurrently. `level(frontier, spare,
/// next)` processes one level and fills `next` with the vertices whose
/// trees it completes; the buffers ping-pong across levels, so a deep
/// cascade reuses their capacity.
///
/// The algorithms have no rounds, so `cfg`'s deadline is polled at
/// *cascade-level* granularity: the first cascade that observes a trip
/// latches it, every cascade abandons its remaining frontier at its next
/// level, and the run returns [`RunOutcome::DeadlineExceeded`]. With an
/// untripped token the output is byte-identical to a run without one.
pub(crate) fn run_cascades<L>(forest: &TasForest, cfg: &RunConfig, level: L) -> RunOutcome
where
    L: Fn(&[u32], &mut Vec<u32>, &mut Vec<u32>) + Sync,
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
    (0..forest.len() as u32).into_par_iter().for_each(|v0| {
        if forest.leaves_of(v0 as usize) != 0 || poll() {
            return;
        }
        let (mut frontier, mut spare, mut next) = (vec![v0], Vec::new(), Vec::new());
        while !frontier.is_empty() && !poll() {
            next.clear();
            level(&frontier, &mut spare, &mut next);
            std::mem::swap(&mut frontier, &mut next);
        }
    });
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
    priority: &[u32],
    mirrors: &BlockingMirrors,
    scratch: &mut Scratch,
    cfg: &RunConfig,
) -> Report<Vec<bool>> {
    let n = g.num_vertices();
    assert_eq!(priority.len(), n);
    assert_eq!(mirrors.counts.len(), n, "mirrors built for another graph");
    let mut status = scratch.take_vec::<AtomicU8>("mis_status");
    status.resize_with(n, || AtomicU8::new(UNDECIDED));

    let state = State {
        g,
        priority,
        status: &status,
        forest: TasForest::new(&mirrors.counts),
        mirrors,
    };
    let outcome = run_cascades(&state.forest, cfg, |frontier, claimed, next| {
        wake_level(&state, frontier, claimed, next)
    });
    let out = status
        .iter()
        .map(|s| s.load(Ordering::Relaxed) == SELECTED)
        .collect();
    scratch.put_vec("mis_status", status);
    Report::plain(out).with_outcome(outcome)
}

/// One level of a wake cascade (Algorithm 4's `WakeUp`): select every
/// vertex of `frontier`, remove its undecided neighbors into `claimed`,
/// and collect into `next` the vertices whose TAS trees the removals
/// complete.
fn wake_level(state: &State<'_>, frontier: &[u32], claimed: &mut Vec<u32>, next: &mut Vec<u32>) {
    // Select this level. Vertices arriving here are never adjacent:
    // a TAS-tree only completes when all higher-priority neighbors
    // are removed, and a vertex being selected is not removed.
    for &v in frontier {
        let ok = state.status[v as usize]
            .compare_exchange(UNDECIDED, SELECTED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        debug_assert!(ok, "TAS-tree completion implies undecided");
    }
    claimed.clear();
    claimed.par_extend(
        frontier
            .par_iter()
            .flat_map_iter(|&v| state.g.neighbors(v).iter().copied())
            .filter(|&u| {
                // First claim of the removal processes it exactly once.
                state.status[u as usize]
                    .compare_exchange(UNDECIDED, REMOVED, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            }),
    );
    next.par_extend(claimed.par_iter().flat_map_iter(|&u| removed(state, u)));
}

/// `u` just became unavailable: notify the TAS trees of all vertices `w`
/// that `u` blocks (i.e. `pri[w] < pri[u]`). Returns the vertices whose
/// trees completed (now ready to wake).
fn removed(state: &State<'_>, u: u32) -> Vec<u32> {
    let m = state.mirrors;
    let base = m.offsets[u as usize];
    state
        .g
        .neighbors(u)
        .iter()
        .enumerate()
        .filter_map(|(s, &w)| {
            if state.priority[w as usize] < state.priority[u as usize]
                && state.status[w as usize].load(Ordering::Relaxed) != REMOVED
            {
                // Leaf of u in w's tree = number of blocking neighbors of
                // w before the (w → u) arc.
                let leaf = m.blocking_rank[m.rev_slot[base + s] as usize];
                if state.forest.mark(w as usize, leaf as usize) {
                    return Some(w);
                }
            }
            None
        })
        .collect()
}

/// Disjoint-slot parallel writes (each arc slot written once).
struct SyncSlice<T>(*mut T);
// SAFETY: each arc slot is written by exactly one worker (disjoint
// indices), so shared cross-thread use never aliases a write.
unsafe impl<T: Send> Send for SyncSlice<T> {}
unsafe impl<T: Send> Sync for SyncSlice<T> {}
impl<T> SyncSlice<T> {
    /// Accessor (not field access) so closures capture the `Sync`
    /// wrapper, not the raw pointer.
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use crate::api::{GraphPriorityInstance, GreedyMis};
    use phase_parallel::{PhaseAlgorithm, RunConfig};
    use pp_graph::gen;
    use pp_parlay::shuffle::random_priorities;

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
}
