//! Offline stand-in for [rayon](https://crates.io/crates/rayon) with a
//! **real fork-join thread pool**.
//!
//! The build environment for this workspace has no crates.io access, so
//! this crate vendors the *subset* of rayon's API the workspace uses.
//! Since PR 5 the execution is genuinely parallel, and since PR 8 the
//! scheduler is a **work-stealing** arrangement: per-worker LIFO deques
//! with FIFO steals, a lock-free injector for external submissions, and
//! steal-back as an O(1) own-tail pop (see `pool.rs`'s module docs for
//! the full design). It runs [`join`], [`scope`],
//! [`ThreadPool::install`] and every parallel-iterator driver
//! (`par_iter`, `par_chunks_mut`, `map_init`, `ParallelExtend`, …) on
//! the pool's threads. [`ThreadPoolBuilder::num_threads`] is honored
//! and [`current_num_threads`] is truthful. As in rayon, the calling
//! thread counts as one of the N (an N-thread pool spawns N − 1
//! workers), so thread-count
//! knobs (`RunConfig::threads`, `RAYON_NUM_THREADS`) change actual
//! concurrency, not just a label. [`scheduler_counters`] exposes the
//! scheduler's bookkeeping (queue-lock acquisitions, steals, parks,
//! injector pushes, executed jobs) so schedulers can be compared by
//! counters even on single-core CI, where wall-clock scaling is
//! invisible.
//!
//! Every entry point is a drop-in signature match for the real rayon
//! (including the rayon-specific `reduce(identity, op)` shape and the
//! `Send + Sync` closure bounds), so the codebase compiles unchanged
//! against either; pointing the workspace `rayon` dependency at
//! crates.io swaps this shim's deques for rayon's Chase–Lev
//! work-stealing deques with no source edits. Two documented
//! deviations (plus [`scheduler_counters`], a shim-only extension):
//! adaptor
//! closures must additionally be `Clone` (strictly tighter, satisfied
//! by every capture-by-reference closure), and `find_any` /
//! `position_any` are deterministic aliases of their `_first`
//! counterparts.
//!
//! Determinism: every consumer combines per-chunk results **in chunk
//! order**, so `collect`/`par_extend` reproduce the sequential order
//! exactly, ties in `min`/`max` break like `Iterator::min`/`max`, and
//! outputs do not depend on the worker count — the property the
//! workspace's cross-thread-count conformance suite pins down.

#![deny(unsafe_op_in_unsafe_fn)]

pub mod iter;
mod pool;
pub mod slice;

pub use pool::{join, scope, Scope};

/// The rayon prelude: parallel-iterator traits and slice extensions.
pub mod prelude {
    pub use crate::iter::{
        FromParallelIterator, IndexedParallelIterator, IntoParallelIterator,
        IntoParallelRefIterator, IntoParallelRefMutIterator, ParallelExtend, ParallelIterator,
    };
    pub use crate::slice::{ParallelSlice, ParallelSliceMut};
}

/// Number of threads in the current pool, the calling thread included:
/// the installed pool's count inside [`ThreadPool::install`] (and on
/// its workers), the global pool's otherwise (`RAYON_NUM_THREADS` or
/// the machine's available parallelism).
pub fn current_num_threads() -> usize {
    pool::current_registry().num_threads()
}

/// A snapshot of one pool's cumulative scheduler bookkeeping (a
/// shim-only extension; the real rayon has no equivalent). Counters
/// only ever increase; diff two snapshots with
/// [`SchedulerCounters::since`] to attribute activity to a region.
///
/// These exist because single-core CI cannot observe scheduler quality
/// as wall-clock scaling: the counters make "fewer lock acquisitions
/// per task, steals actually happen, nobody busy-spins" assertable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerCounters {
    /// Deque mutex acquisitions (owner pushes/pops, steal attempts).
    /// The headline scheduler metric: the old shared-queue design paid
    /// one *global* lock per operation; per-worker deques plus the
    /// lock-free injector shrink both the count and the contention
    /// scope.
    pub queue_locks: u64,
    /// Jobs taken from another worker's deque.
    pub steals: u64,
    /// Times a thread blocked on a condvar (worker idle parks + latch
    /// waiter parks).
    pub parks: u64,
    /// Lock-free injector submissions (batches pushed from outside the
    /// pool's workers).
    pub injector_pushes: u64,
    /// Jobs executed to completion.
    pub jobs_executed: u64,
}

impl SchedulerCounters {
    /// Counter deltas since `earlier` (saturating, so snapshots from
    /// different pools never panic — they just produce nonsense, as
    /// any cross-pool diff would).
    pub fn since(&self, earlier: &SchedulerCounters) -> SchedulerCounters {
        SchedulerCounters {
            queue_locks: self.queue_locks.saturating_sub(earlier.queue_locks),
            steals: self.steals.saturating_sub(earlier.steals),
            parks: self.parks.saturating_sub(earlier.parks),
            injector_pushes: self.injector_pushes.saturating_sub(earlier.injector_pushes),
            jobs_executed: self.jobs_executed.saturating_sub(earlier.jobs_executed),
        }
    }
}

/// Scheduler counters of the *current* pool: the installed pool inside
/// [`ThreadPool::install`] (and on its workers), the global pool
/// otherwise.
pub fn scheduler_counters() -> SchedulerCounters {
    pool::current_registry().counters_snapshot()
}

/// Error building a [`ThreadPool`]: the spawn of a worker thread failed,
/// or the requested thread count exceeds the shim's cap.
#[derive(Debug)]
pub struct ThreadPoolBuildError {
    msg: String,
}

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error: {}", self.msg)
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for a [`ThreadPool`].
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: Option<usize>,
}

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request an `n`-thread pool; `0` (or not calling this) means the
    /// default count (`RAYON_NUM_THREADS` / available parallelism). The
    /// thread that drives a region counts as one of the `n`, so the
    /// pool spawns `n − 1` workers (none for `n = 1`).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = Some(n);
        self
    }

    /// Spawn the pool's workers. Fails — with a reachable, tested
    /// [`ThreadPoolBuildError`] — if the count exceeds the shim's cap
    /// or the OS refuses a thread.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            None | Some(0) => current_num_threads(),
            Some(n) => n,
        };
        if threads > pool::MAX_THREADS {
            return Err(ThreadPoolBuildError {
                msg: format!(
                    "{threads} threads requested, shim cap is {}",
                    pool::MAX_THREADS
                ),
            });
        }
        let (registry, handles) =
            pool::Registry::spawn(threads).map_err(|e| ThreadPoolBuildError {
                msg: format!("worker spawn failed: {e}"),
            })?;
        Ok(ThreadPool { registry, handles })
    }
}

/// A dedicated pool of `n` compute threads: `n − 1` spawned workers
/// plus the calling thread. [`ThreadPool::install`] runs a closure on
/// the caller with this pool current: parallel regions inside fan out
/// across the workers while the caller runs its share and helps drain
/// the queue until each region completes. A one-thread pool has no
/// worker at all. Dropping the pool shuts the workers down.
pub struct ThreadPool {
    registry: std::sync::Arc<pool::Registry>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Run `f` with this pool installed as the thread's current pool.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        let _guard = pool::RegistryGuard::enter(std::sync::Arc::clone(&self.registry));
        f()
    }

    /// This pool's thread count, the calling thread included.
    pub fn current_num_threads(&self) -> usize {
        self.registry.num_threads()
    }

    /// This pool's cumulative [`SchedulerCounters`] (no `install`
    /// needed — reads this pool regardless of the thread's current
    /// pool).
    pub fn scheduler_counters(&self) -> SchedulerCounters {
        self.registry.counters_snapshot()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.terminate();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn pool(n: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    }

    #[test]
    fn map_filter_collect() {
        let v: Vec<u32> = (0u32..10).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(v, (0..10).map(|x| x * 2).collect::<Vec<_>>());
        let odd: Vec<u32> = v.par_iter().copied().filter(|x| x % 4 == 2).collect();
        assert_eq!(odd, vec![2, 6, 10, 14, 18]);
    }

    #[test]
    fn reduce_with_identity() {
        let s = (1u64..=100).into_par_iter().reduce(|| 0, |a, b| a + b);
        assert_eq!(s, 5050);
    }

    #[test]
    fn zip_chunks_and_mutation() {
        let a = [1u32, 2, 3, 4, 5, 6];
        let mut out = vec![0u32; 6];
        out.par_chunks_mut(2)
            .zip(a.par_chunks(2))
            .for_each(|(o, i)| {
                for (x, y) in o.iter_mut().zip(i) {
                    *x = y * 10;
                }
            });
        assert_eq!(out, vec![10, 20, 30, 40, 50, 60]);
    }

    #[test]
    fn join_and_pool_are_truthful() {
        let (a, b) = crate::join(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!((a, b.as_str()), (2, "xy"));
        let four = pool(4);
        assert_eq!(four.install(crate::current_num_threads), 4);
        assert_eq!(four.current_num_threads(), 4);
        let single = pool(1);
        assert_eq!(single.install(crate::current_num_threads), 1);
    }

    #[test]
    fn n_thread_pool_spawns_n_minus_one_workers() {
        for n in [2, 3, 4, 8] {
            let p = pool(n);
            assert_eq!(p.handles.len(), n - 1, "the caller is the {n}th thread");
            assert_eq!(p.current_num_threads(), n);
            assert_eq!(p.install(crate::current_num_threads), n);
        }
    }

    #[test]
    fn one_thread_pool_spawns_nothing_and_runs_inline() {
        let p = pool(1);
        assert!(p.handles.is_empty(), "a 1-thread pool is the caller alone");
        let caller = std::thread::current().id();
        let on_caller = || assert_eq!(std::thread::current().id(), caller);
        let before = p.scheduler_counters();
        p.install(|| {
            (0..1000u32)
                .into_par_iter()
                .with_max_len(1)
                .for_each(|_| on_caller());
            crate::join(on_caller, on_caller);
            crate::scope(|s| {
                for _ in 0..8 {
                    s.spawn(|_| on_caller());
                }
            });
            let mut v: Vec<u32> = (0..50_000).rev().collect();
            v.par_sort_unstable();
            assert!(v.windows(2).all(|w| w[0] < w[1]));
        });
        let delta = p.scheduler_counters().since(&before);
        assert_eq!(
            delta,
            crate::SchedulerCounters::default(),
            "no job was queued"
        );
    }

    #[test]
    fn a_region_never_runs_more_closures_than_pool_threads() {
        // 64 items that each spin ~200 µs, driven from this one thread:
        // only the pool's n threads (n − 1 workers + this caller) may be
        // inside the closure at once, however the OS schedules them.
        for n in [2, 4] {
            let p = pool(n);
            let (active, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            p.install(|| {
                (0..64u32).into_par_iter().with_max_len(1).for_each(|_| {
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    let start = std::time::Instant::now();
                    while start.elapsed() < std::time::Duration::from_micros(200) {
                        std::hint::spin_loop();
                    }
                    active.fetch_sub(1, Ordering::SeqCst);
                });
            });
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                (1..=n).contains(&peak),
                "{n}-thread pool ran {peak} closures at once"
            );
        }
    }

    #[test]
    fn two_external_callers_share_one_two_thread_pool() {
        let p = pool(2);
        let want: u64 = (0..200_000u64).map(|x| x * 3).sum();
        // Both callers enter the pool together, so their regions compete
        // for its one worker while each caller helps with its own.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        p.install(|| {
                            (0..20)
                                .map(|_| {
                                    (0..200_000u64).into_par_iter().map(|x| x * 3).sum::<u64>()
                                })
                                .collect::<Vec<u64>>()
                        })
                    })
                })
                .collect();
            for caller in callers {
                let sums = caller.join().expect("caller completes");
                assert!(sums.iter().all(|&s| s == want));
            }
        });
    }

    #[test]
    fn work_actually_reaches_worker_threads() {
        // 32 deliberately slow chunks on a 4-worker pool: the caller
        // alone would need ~64ms of sleeping, so workers pick chunks up
        // even on a single hardware core.
        let pool = pool(4);
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        pool.install(|| {
            (0..32u32).into_par_iter().with_max_len(1).for_each(|_| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                seen.lock().unwrap().insert(std::thread::current().id());
            });
        });
        let distinct = seen.lock().unwrap().len();
        assert!(
            distinct >= 2,
            "expected >1 executing thread, saw {distinct}"
        );
    }

    #[test]
    fn collect_order_is_sequential_under_parallelism() {
        let pool = pool(8);
        let n = 100_000u64;
        let (par, filtered) = pool.install(|| {
            let par: Vec<u64> = (0..n)
                .into_par_iter()
                .map(|x| x.wrapping_mul(2654435761))
                .collect();
            let filtered: Vec<u64> = (0..n)
                .into_par_iter()
                .filter(|x| x % 3 == 0)
                .map(|x| x * 7)
                .collect();
            (par, filtered)
        });
        let seq: Vec<u64> = (0..n).map(|x| x.wrapping_mul(2654435761)).collect();
        let seq_f: Vec<u64> = (0..n).filter(|x| x % 3 == 0).map(|x| x * 7).collect();
        assert_eq!(par, seq);
        assert_eq!(filtered, seq_f);
    }

    #[test]
    fn owned_vec_par_iter_moves_and_drops_correctly() {
        let pool = pool(4);
        let v: Vec<String> = (0..10_000).map(|i| i.to_string()).collect();
        let lens: Vec<usize> = pool.install(|| v.into_par_iter().map(|s| s.len()).collect());
        assert_eq!(lens.len(), 10_000);
        assert_eq!(lens[9999], 4);
        // zip trims the longer side; its surplus elements must drop.
        let a: Vec<String> = (0..1000).map(|i| i.to_string()).collect();
        let b: Vec<String> = (0..600).map(|i| i.to_string()).collect();
        let pairs: Vec<(String, String)> = pool.install(|| a.into_par_iter().zip(b).collect());
        assert_eq!(pairs.len(), 600);
    }

    #[test]
    fn owned_vec_of_zst_yields_every_element() {
        // Pointer-bump iteration would terminate immediately for
        // zero-sized items; the chunk iterator counts instead.
        let pool = pool(4);
        let v = vec![(); 10_000];
        let n = pool.install(|| v.into_par_iter().count());
        assert_eq!(n, 10_000);
    }

    #[test]
    fn par_extend_flat_map_iter_matches_sequential() {
        let pool = pool(4);
        let bounds: Vec<usize> = (0..200).collect();
        let mut out: Vec<usize> = Vec::new();
        pool.install(|| {
            out.par_extend(
                bounds
                    .par_windows(2)
                    .flat_map_iter(|w| (w[0]..w[1] + 2).map(|x| x * 3)),
            );
        });
        let want: Vec<usize> = bounds
            .windows(2)
            .flat_map(|w| (w[0]..w[1] + 2).map(|x| x * 3))
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn map_init_runs_init_per_chunk() {
        let pool = pool(4);
        let inits = AtomicUsize::new(0);
        let out: Vec<u64> = pool.install(|| {
            (0..10_000u64)
                .into_par_iter()
                .map_init(
                    || {
                        inits.fetch_add(1, Ordering::Relaxed);
                        0u64
                    },
                    |state, x| {
                        *state += 1;
                        x + *state.min(&mut 1)
                    },
                )
                .collect()
        });
        assert_eq!(out[0], 1);
        let count = inits.load(Ordering::Relaxed);
        assert!(count >= 1, "init ran {count} times");
    }

    #[test]
    fn min_max_tie_breaking_matches_std() {
        let pool = pool(8);
        let v: Vec<(u32, u32)> = (0..50_000).map(|i| (i % 7, i)).collect();
        pool.install(|| {
            assert_eq!(
                v.par_iter().min_by_key(|p| p.0),
                v.iter().min_by_key(|p| p.0)
            );
            assert_eq!(
                v.par_iter().max_by_key(|p| p.0),
                v.iter().max_by_key(|p| p.0)
            );
        });
    }

    #[test]
    fn find_first_and_sorts() {
        let v = vec![5i64, 3, 8, 1];
        assert_eq!(v.par_iter().find_first(|&&x| x > 4), Some(&5));
        let mut w: Vec<i64> = (0..100_000).map(|i| (i * 7919) % 1000).collect();
        let mut want = w.clone();
        want.sort();
        pool(4).install(|| w.par_sort_unstable_by_key(|&x| x));
        assert_eq!(w, want);
    }

    #[test]
    fn fold_then_reduce() {
        let pool = pool(4);
        let total: u64 = pool.install(|| {
            (0..100_000u64)
                .into_par_iter()
                .fold(|| 0u64, |acc, x| acc + x)
                .sum()
        });
        assert_eq!(total, 100_000u64 * 99_999 / 2);
    }

    #[test]
    fn enumerate_and_update() {
        let pool = pool(4);
        let v: Vec<(usize, u32)> = pool.install(|| {
            (10u32..20)
                .into_par_iter()
                .update(|x| *x += 1)
                .enumerate()
                .collect()
        });
        assert_eq!(v[0], (0, 11));
        assert_eq!(v[9], (9, 20));
    }

    #[test]
    fn panics_propagate_from_workers() {
        let pool = pool(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0..10_000u32).into_par_iter().for_each(|x| {
                    assert!(x != 7777, "boom at {x}");
                });
            });
        }));
        assert!(result.is_err(), "worker panic must reach the caller");
        // The pool must remain usable afterwards.
        let s: u32 = pool.install(|| (0..10u32).into_par_iter().sum());
        assert_eq!(s, 45);
    }

    #[test]
    fn scope_spawns_complete_before_return() {
        let pool = pool(4);
        let counter = AtomicUsize::new(0);
        pool.install(|| {
            crate::scope(|s| {
                for _ in 0..16 {
                    s.spawn(|_| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn nested_join_recursion() {
        fn sum_rec(v: &[u64]) -> u64 {
            if v.len() <= 1024 {
                return v.iter().sum();
            }
            let (a, b) = v.split_at(v.len() / 2);
            let (x, y) = crate::join(|| sum_rec(a), || sum_rec(b));
            x + y
        }
        let v: Vec<u64> = (0..200_000).collect();
        let s = pool(4).install(|| sum_rec(&v));
        assert_eq!(s, 200_000u64 * 199_999 / 2);
    }

    #[test]
    fn scheduler_counters_move_under_load() {
        // Every item spins for 1 us, so the 2,000-item region outlasts
        // the 20 us inline budget whatever the build profile: the caller
        // folds a few prefixes and publishes the rest as chunk jobs.
        let pool = pool(4);
        let before = pool.scheduler_counters();
        let total: u64 = pool.install(|| {
            (0..2_000u64)
                .into_par_iter()
                .map(|x| {
                    let start = std::time::Instant::now();
                    while start.elapsed() < std::time::Duration::from_micros(1) {
                        std::hint::spin_loop();
                    }
                    x.wrapping_mul(2654435761)
                })
                .sum()
        });
        assert_eq!(
            total,
            (0..2_000u64).map(|x| x.wrapping_mul(2654435761)).sum()
        );
        let delta = pool.scheduler_counters().since(&before);
        assert!(
            delta.jobs_executed > 0,
            "chunks must run as jobs: {delta:?}"
        );
        assert!(
            delta.injector_pushes > 0,
            "an external install submits via the injector: {delta:?}"
        );
        // Counters are monotone, and `since` on swapped arguments
        // saturates instead of wrapping.
        assert_eq!(before.since(&pool.scheduler_counters()).jobs_executed, 0);
        // The install closure ran with this pool current, so the free
        // function must have read the same registry.
        let seen_inside = pool.install(crate::scheduler_counters);
        assert!(seen_inside.jobs_executed >= delta.jobs_executed);
    }

    #[test]
    fn build_error_is_reachable() {
        let result = crate::ThreadPoolBuilder::new().num_threads(1 << 20).build();
        let msg = match result {
            Err(e) => e.to_string(),
            Ok(_) => panic!("a 2^20-thread request must fail to build"),
        };
        assert!(msg.contains("cap"), "unexpected message: {msg}");
    }

    #[test]
    fn grain_control_bounds_chunking() {
        // min_len larger than the input: must run as one sequential
        // chunk on the calling thread.
        let caller = std::thread::current().id();
        let pool = pool(4);
        pool.install(|| {
            (0..100u32)
                .into_par_iter()
                .with_min_len(4096)
                .for_each(|_| assert_eq!(std::thread::current().id(), caller));
        });
    }
}
