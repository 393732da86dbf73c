//! The fork-join execution core: registries (thread pools), jobs,
//! latches, [`join`], and [`scope`].
//!
//! # Scheduler design (v2: work stealing)
//!
//! Since PR 8 the scheduler is a Blumofe–Leiserson-style work-stealing
//! arrangement replacing the original single mutex-protected FIFO:
//!
//! - **The caller is one of the N threads.** An N-thread pool spawns
//!   N − 1 workers; the thread that drives a region (the one inside
//!   [`crate::ThreadPool::install`], or a global-pool caller) is the
//!   Nth. It runs inline-first prefixes and helps in
//!   [`Registry::wait_latch`], so an `nproc`-thread pool puts exactly
//!   `nproc` compute threads on `nproc` cores instead of time-slicing
//!   `nproc + 1`.
//! - **Per-worker deques.** Every worker owns a double-ended queue of
//!   type-erased [`JobRef`]s. The owner pushes and pops at the *tail*
//!   (LIFO — the cache-warm, Cilk-style depth-first end); idle workers
//!   steal from the *head* (FIFO — the oldest, coarsest pieces of
//!   work). The deques are small mutex-guarded `VecDeque`s rather than
//!   lock-free Chase–Lev arrays: the chunk drivers pre-split regions
//!   into `O(threads)` coarse jobs, so each deque sees tens of
//!   operations per region and an uncontended lock is one CAS — but
//!   unlike the old design the lock is *per worker*, so queue traffic
//!   no longer serializes the whole pool. The exported scheduler
//!   counters ([`crate::SchedulerCounters`]) make that claim
//!   measurable on 1-core CI.
//! - **A lock-free injector** for submissions from outside the pool
//!   (the thread inside [`crate::ThreadPool::install`], the global
//!   pool's callers): a Treiber chain of boxed job segments pushed
//!   with a CAS and consumed by swapping the whole chain out. The
//!   classic ABA hazard does not arise: the push CAS never
//!   dereferences the head value it observed, and only a chain's
//!   exclusive owner (the thread that swapped it out) frees segments.
//! - **Steal-back is a tail pop.** A [`join`] caller reclaims its
//!   second closure by checking the tail of its *own* deque — O(1) —
//!   instead of the old O(n) pointer scan under a global lock. A
//!   non-worker caller reclaims from the injector chain.
//! - **Counted parking with no lost wakeups.** A registry-wide
//!   `pending` counter tracks published-but-unclaimed jobs and
//!   `completions` counts executed ones. A thread parks only after
//!   registering as a sleeper *under the park lock* and then
//!   re-checking `pending` (workers) or `(pending, completions,
//!   latch)` (latch waiters); publishers and job finishers check the
//!   `parked` count after bumping theirs, so with sequentially
//!   consistent counter accesses one side always sees the other. The
//!   old code parked latch waiters on the *latch's own* condvar, which
//!   `inject`/`inject_many` never notified — a job injected in that
//!   window could sit unexecuted while every thread was latch-parked
//!   (the PR 8 lost-wakeup fix; reverting the fix deadlocks
//!   `pp_check::models::deque::lost_wakeup_model`).
//!
//! The deque/injector/parking protocol is ported operation-for-
//! operation as `pp_check::models::deque` and explored exhaustively at
//! 2–3 threads (including weakened-ordering runs); the pool itself
//! also compiles against the instrumented shims under `--cfg
//! pp_check`.
//!
//! # Safety model
//!
//! Jobs borrow from the stack frame that spawned them ([`StackJob`],
//! chunk batches, scope closures). Every such frame *blocks until its
//! latch opens* before returning — including on the panic path — so a
//! job's referent outlives every thread that can observe the raw
//! pointers inside its [`JobRef`]. Results and panics travel back
//! through `UnsafeCell` slots written exactly once by the executing
//! thread before the latch is opened (the latch's release/acquire pair
//! publishes the write).

use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

#[cfg(not(pp_check))]
use std::sync::atomic::AtomicUsize;
#[cfg(not(pp_check))]
use std::sync::{Condvar, Mutex};
// Under `--cfg pp_check` the pool compiles against the model checker's
// instrumented drop-in shims (`pp_check::sync`): identical API, std
// passthrough outside a model, schedule-exploration hooks inside one.
#[cfg(pp_check)]
use pp_check::sync::{AtomicUsize, Condvar, Mutex};

/// Upper bound a builder accepts for [`num_threads`]
/// (`ThreadPoolBuilder::num_threads`): requests beyond this are
/// reported as a [`crate::ThreadPoolBuildError`] instead of attempting
/// thousands of OS spawns.
pub(crate) const MAX_THREADS: usize = 4096;

// ---------------------------------------------------------------------------
// Job references
// ---------------------------------------------------------------------------

/// A type-erased pointer to a job living in some blocked stack frame
/// (or, for scope jobs, on the heap).
#[derive(Clone, Copy)]
pub(crate) struct JobRef {
    data: *const (),
    execute: unsafe fn(*const ()),
}

// SAFETY: the referent is kept alive by the frame that created the job,
// which blocks on the job's latch before returning; execution happens
// at most once (each JobRef is claimed by exactly one thread — a deque
// pop, a steal, an injector grab, or a successful steal-back).
unsafe impl Send for JobRef {}

impl JobRef {
    pub(crate) fn new(data: *const (), execute: unsafe fn(*const ())) -> Self {
        Self { data, execute }
    }

    /// Identity test for steal-back: two refs denote the same job iff
    /// they point at the same frame slot.
    fn same_job(&self, other: &JobRef) -> bool {
        std::ptr::eq(self.data, other.data)
    }

    /// # Safety
    /// The referent must still be alive and not yet executed.
    pub(crate) unsafe fn execute(self) {
        // SAFETY: the caller upholds this type's contract (referent
        // alive, at most one execution), which is exactly what the
        // erased entry point requires of `data`.
        unsafe { (self.execute)(self.data) }
    }
}

// ---------------------------------------------------------------------------
// Latches
// ---------------------------------------------------------------------------

/// A countdown latch: opens when `remaining` reaches zero. Waiters
/// *help* (claim and run scheduled jobs) instead of blocking while work
/// is available; see [`Registry::wait_latch`]. Parking and wakeups live
/// in the registry's parking protocol, not here — the latch only
/// counts, so `inject` can wake a latch waiter without knowing which
/// latch it sleeps on (the PR 8 lost-wakeup fix).
pub(crate) struct CountLatch {
    remaining: AtomicUsize,
    lock: Mutex<()>,
}

impl CountLatch {
    pub(crate) fn new(count: usize) -> Self {
        Self {
            remaining: AtomicUsize::new(count),
            lock: Mutex::new(()),
        }
    }

    /// Add `n` pending completions (used by [`crate::scope`], whose job
    /// count is not known up front).
    pub(crate) fn add(&self, n: usize) {
        // Ordering: `Relaxed` suffices — `add` always runs *before* the
        // jobs it accounts for are published to a queue, and the deque
        // mutex (or the injector's release/acquire pair) orders the
        // publication; the count can therefore never be observed too
        // low by a completing job. Verified by exhaustive
        // weakened-ordering exploration of the scope model
        // (`pp_check::models::scope`), which calls `add` with `Relaxed`
        // semantics and stays race-free.
        self.remaining.fetch_add(n, Ordering::Relaxed);
    }

    /// Record one completion.
    ///
    /// The decrement happens **while holding the latch lock**: a waiter
    /// that observes `probe() == 0` therefore knows the final notifier
    /// is either inside this critical section or already past it, and
    /// [`CountLatch::sync_before_teardown`] (one lock round-trip) is
    /// enough to let the latch's stack frame be freed safely. Without
    /// the lock around the decrement, a spinning waiter could see zero
    /// and pop the frame while the completer is still touching the
    /// latch — a use-after-free. Waking parked waiters is the
    /// registry's job ([`Registry::job_finished`] runs right after
    /// every job execution, and `done_one` only ever runs inside one).
    pub(crate) fn done_one(&self) {
        let guard = self.lock.lock().unwrap();
        // Ordering: `AcqRel`. The `Release` half publishes the result
        // writes the executing thread made before `done_one`; the
        // `Acquire` half makes the last decrementer see every earlier
        // completer's writes. The model checker proves this pair is
        // load-bearing: the probe-only model
        // (`pp_check::models::latch::probe_publish_model`) is clean as
        // declared and races when the pair is demoted to `Relaxed`
        // (`latch_probe_orderings_are_load_bearing`).
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        drop(guard);
    }

    /// True once every completion has been recorded. `Acquire` pairs
    /// with the `AcqRel` decrement so result writes made before
    /// [`CountLatch::done_one`] are visible after a `true` probe.
    pub(crate) fn probe(&self) -> bool {
        // Ordering: `Acquire`, the read half of the publication edge
        // described on `done_one` — demoting either side to `Relaxed`
        // makes the probe-only latch model race on the result slot.
        self.remaining.load(Ordering::Acquire) == 0
    }

    /// Rendezvous with the final [`CountLatch::done_one`]: after this
    /// returns, no completing thread will touch the latch again, so the
    /// frame that owns it may be dropped. Call exactly once, after
    /// `probe()` returned true.
    fn sync_before_teardown(&self) {
        drop(self.lock.lock().unwrap());
    }
}

// ---------------------------------------------------------------------------
// Scheduler counters
// ---------------------------------------------------------------------------

/// Cumulative scheduler bookkeeping, exported as
/// [`crate::SchedulerCounters`] snapshots. Plain `std` atomics on
/// purpose: these are diagnostics, not protocol state, so they stay
/// invisible to the model checker under `--cfg pp_check` (the model
/// modules treat their own bookkeeping the same way), and `Relaxed`
/// increments keep them nearly free on the hot path.
#[derive(Default)]
struct SchedCounters {
    queue_locks: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    injector_pushes: AtomicU64,
    jobs_executed: AtomicU64,
}

impl SchedCounters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// The lock-free injector (external submissions)
// ---------------------------------------------------------------------------

/// One pushed batch: jobs in submission (oldest-first) order, plus the
/// chain link.
struct Segment {
    jobs: VecDeque<JobRef>,
    /// Next-*older* segment in the chain (`0` terminates). Written
    /// before the CAS publishes this segment, read only by the
    /// consumer that swapped the chain out.
    next: usize,
}

/// Lock-free multi-producer injector: a Treiber chain of boxed job
/// segments. Producers CAS a new segment onto the head; consumers
/// [`Injector::grab_all`] the entire chain with one `swap` and own it
/// exclusively.
struct Injector {
    /// `*mut Segment` as `usize` (`0` = empty). A `usize` atomic rather
    /// than `AtomicPtr` so the instrumented `pp_check` shim (which
    /// models `AtomicUsize`) can stand in under `--cfg pp_check`.
    head: AtomicUsize,
}

impl Injector {
    fn new() -> Self {
        Self {
            head: AtomicUsize::new(0),
        }
    }

    /// Publish one segment of jobs (`jobs` must be non-empty).
    fn push(&self, jobs: VecDeque<JobRef>) {
        debug_assert!(!jobs.is_empty());
        let segment = Box::into_raw(Box::new(Segment { jobs, next: 0 }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: `segment` came from `Box::into_raw` above and is
            // not yet published, so this thread still has exclusive
            // access to it.
            unsafe { (*segment).next = head };
            // Ordering: `Release` on success publishes the segment's
            // contents (jobs + next link) to the consumer that later
            // `Acquire`-swaps the chain out; the failure load is
            // `Relaxed` because a retry never dereferences `head` —
            // this is also why a stale (ABA) head value is harmless
            // here. Proven load-bearing by the weakened-ordering run
            // of `pp_check::models::deque::injector_publish_model`.
            match self.head.compare_exchange(
                head,
                segment as usize,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Take every queued job, oldest segment first. The `swap` hands
    /// this thread exclusive ownership of the whole chain.
    fn grab_all(&self) -> VecDeque<JobRef> {
        // Cheap empty probe first: the common case on worker scans, and
        // it keeps idle workers from bouncing the head cache line with
        // read-modify-writes.
        if self.head.load(Ordering::Acquire) == 0 {
            return VecDeque::new();
        }
        // Ordering: the `Acquire` half pairs with the push `Release` so
        // the segment contents are visible; the `Release` half orders
        // this consumer's prior queue activity before a later pusher's
        // reuse of the emptied head.
        let mut cursor = self.head.swap(0, Ordering::AcqRel);
        let mut segments = Vec::new();
        while cursor != 0 {
            // SAFETY: the swap above made this thread the chain's
            // exclusive owner, and every nonzero link in it is a
            // pointer minted by `Box::into_raw` in `push`.
            let segment = unsafe { Box::from_raw(cursor as *mut Segment) };
            cursor = segment.next;
            segments.push(segment);
        }
        // The chain links newest → oldest; hand jobs back oldest-first.
        let mut jobs = VecDeque::new();
        for segment in segments.into_iter().rev() {
            jobs.extend(segment.jobs);
        }
        jobs
    }

    /// Reclaim `job` if it is still queued (the non-worker `join`
    /// caller's steal-back): swap the chain out, remove the job,
    /// republish the remainder. Not finding the job means a consumer
    /// claimed it (or holds it mid-move) — the caller must wait on the
    /// job's latch instead.
    fn steal_back(&self, job: &JobRef) -> bool {
        let mut jobs = self.grab_all();
        if jobs.is_empty() {
            return false;
        }
        let found = match jobs.iter().position(|j| j.same_job(job)) {
            Some(at) => {
                jobs.remove(at);
                true
            }
            None => false,
        };
        if !jobs.is_empty() {
            self.push(jobs);
        }
        found
    }
}

// ---------------------------------------------------------------------------
// Registry (one per pool)
// ---------------------------------------------------------------------------

/// Sleeper bookkeeping, all mutated under the park lock.
struct ParkState {
    /// Workers blocked on `job_ready`.
    sleepers: usize,
    /// Latch waiters blocked on `helper_wake`.
    helper_sleepers: usize,
    shutdown: bool,
}

/// One thread pool's shared state: per-worker deques, the external
/// injector, the parking protocol, and the thread count.
///
/// An N-thread pool is N compute threads, like real rayon's: N − 1
/// spawned workers plus the calling thread, which runs inline-first
/// prefixes, publishes through the injector and helps in
/// [`Registry::wait_latch`] until its region completes.
pub(crate) struct Registry {
    /// One mutex-guarded deque per spawned worker (N − 1 of them; the
    /// calling thread has none and submits through the injector).
    /// Owner pushes/pops at the back (LIFO), thieves pop at the front
    /// (FIFO).
    deques: Vec<Mutex<VecDeque<JobRef>>>,
    /// Lock-free chain for jobs submitted from non-worker threads.
    injector: Injector,
    /// Jobs published but not yet claimed, across all queues. A thread
    /// never parks while this is nonzero, which also covers the
    /// transient window where an injector consumer holds grabbed jobs
    /// it is about to republish. `SeqCst` everywhere: each park/wake
    /// pairing is a store-buffering (Dekker) shape — both sides store
    /// their own counter then load the other's — which weaker orderings
    /// do not make safe.
    pending: AtomicUsize,
    /// Jobs executed. Latch waiters snapshot this before probing and
    /// refuse to park if it moved, so a completion that opens a latch
    /// between probe and park is never slept through.
    completions: AtomicUsize,
    /// Threads inside `park_worker`/`park_helper` (registered under the
    /// park lock, but read without it by the wake fast path).
    parked: AtomicUsize,
    park: Mutex<ParkState>,
    /// Workers park here when every queue is empty.
    job_ready: Condvar,
    /// Latch waiters park here; woken on job arrival *and* job
    /// completion (the latter may have opened their latch).
    helper_wake: Condvar,
    counters: SchedCounters,
    /// Compute threads, the caller included (spawned workers + 1).
    num_threads: usize,
    /// `num_threads` capped by the machine's available parallelism:
    /// the fan-out the chunk drivers size for. Workers beyond the core
    /// count can only add contention, so an oversubscribed pool (e.g.
    /// 8 workers on a 1-core CI container) keeps its truthful
    /// `num_threads` but schedules coarser chunks.
    parallelism: usize,
}

impl Registry {
    /// Build a `num_threads`-thread registry: spawn `num_threads − 1`
    /// workers, the calling thread being the last one (so `0` and `1`
    /// spawn none). On a spawn failure the already-started workers are
    /// shut down before the error is returned (`ThreadPoolBuilder::build`
    /// surfaces it as a [`crate::ThreadPoolBuildError`]).
    pub(crate) fn spawn(
        num_threads: usize,
    ) -> std::io::Result<(Arc<Registry>, Vec<std::thread::JoinHandle<()>>)> {
        let hardware = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = num_threads.saturating_sub(1);
        let registry = Arc::new(Registry {
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Injector::new(),
            pending: AtomicUsize::new(0),
            completions: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            park: Mutex::new(ParkState {
                sleepers: 0,
                helper_sleepers: 0,
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            helper_wake: Condvar::new(),
            counters: SchedCounters::default(),
            // Report at least 1 even when asked for 0: rayon's contract
            // is `current_num_threads() >= 1`, and callers divide by it
            // (block sizing in scans). A one-thread pool has no worker,
            // and `is_sequential()` routes every region inline on the
            // caller, so no job ever needs one.
            num_threads: num_threads.max(1),
            parallelism: num_threads.min(hardware).max(1),
        });
        let mut handles = Vec::with_capacity(workers);
        for index in 0..workers {
            let reg = Arc::clone(&registry);
            let spawned = std::thread::Builder::new()
                .name(format!("pp-rayon-{index}"))
                .spawn(move || worker_loop(reg, index));
            match spawned {
                Ok(handle) => handles.push(handle),
                Err(e) => {
                    registry.terminate();
                    for h in handles {
                        let _ = h.join();
                    }
                    return Err(e);
                }
            }
        }
        Ok((registry, handles))
    }

    /// The pool's thread count, the caller included (what
    /// [`crate::current_num_threads`] reports inside this pool).
    pub(crate) fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// The fan-out drivers should size chunk counts for (worker count
    /// capped by hardware cores; see the field docs).
    pub(crate) fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// True when parallel regions should just run inline: a one-thread
    /// pool has no worker to hand a job to.
    pub(crate) fn is_sequential(&self) -> bool {
        self.num_threads <= 1
    }

    /// Snapshot the scheduler counters (see
    /// [`crate::SchedulerCounters`] for field meanings).
    pub(crate) fn counters_snapshot(&self) -> crate::SchedulerCounters {
        crate::SchedulerCounters {
            queue_locks: self.counters.queue_locks.load(Ordering::Relaxed),
            steals: self.counters.steals.load(Ordering::Relaxed),
            parks: self.counters.parks.load(Ordering::Relaxed),
            injector_pushes: self.counters.injector_pushes.load(Ordering::Relaxed),
            jobs_executed: self.counters.jobs_executed.load(Ordering::Relaxed),
        }
    }

    /// This thread's worker index in *this* registry, if it is one of
    /// its workers. A worker of pool A running a region of pool B must
    /// not treat A's deque as B's, hence the identity check.
    fn own_worker_index(&self) -> Option<usize> {
        WORKER_SLOT.with(|slot| {
            slot.borrow().as_ref().and_then(|(registry, index)| {
                std::ptr::eq(Arc::as_ptr(registry), self).then_some(*index)
            })
        })
    }

    /// Enqueue one job: own deque tail for a worker of this pool, the
    /// injector otherwise.
    pub(crate) fn inject(&self, job: JobRef) {
        match self.own_worker_index() {
            Some(index) => {
                SchedCounters::bump(&self.counters.queue_locks);
                self.deques[index].lock().unwrap().push_back(job);
            }
            None => {
                SchedCounters::bump(&self.counters.injector_pushes);
                self.injector.push(VecDeque::from([job]));
            }
        }
        self.published(1);
    }

    /// Enqueue a batch (one injector segment, or one run of own-deque
    /// pushes) and wake sleepers.
    pub(crate) fn inject_many<I: IntoIterator<Item = JobRef>>(&self, jobs: I) {
        let jobs: VecDeque<JobRef> = jobs.into_iter().collect();
        if jobs.is_empty() {
            return;
        }
        let count = jobs.len();
        match self.own_worker_index() {
            Some(index) => {
                SchedCounters::bump(&self.counters.queue_locks);
                self.deques[index].lock().unwrap().extend(jobs);
            }
            None => {
                SchedCounters::bump(&self.counters.injector_pushes);
                self.injector.push(jobs);
            }
        }
        self.published(count);
    }

    /// Account `count` newly published jobs and wake sleepers. Runs
    /// *after* the jobs are reachable (deque or injector): a woken
    /// thread rescans every queue, and a thread that finds nothing
    /// re-checks `pending` under the park lock before sleeping, so the
    /// jobs cannot be slept through.
    fn published(&self, count: usize) {
        self.pending.fetch_add(count, Ordering::SeqCst);
        self.wake();
    }

    /// Account one claimed job (`pending` is a published-minus-claimed
    /// ledger; every successful take decrements it exactly once).
    fn claimed(&self) {
        self.pending.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wake sleepers after `pending` moved. The lock-free `parked == 0`
    /// fast path is sound: a sleeper registers in `parked` (SeqCst)
    /// *before* re-checking `pending`, and this thread bumped `pending`
    /// (SeqCst) *before* this load — sequential consistency rules out
    /// both sides reading stale, so either the sleeper sees the new
    /// jobs and skips sleeping, or we see the sleeper and notify under
    /// the park lock (which the sleeper holds until its wait, making
    /// the notify un-missable).
    fn wake(&self) {
        if self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        let state = self.park.lock().unwrap();
        if state.sleepers > 0 {
            self.job_ready.notify_all();
        }
        if state.helper_sleepers > 0 {
            self.helper_wake.notify_all();
        }
        drop(state);
    }

    /// Account one executed job and wake latch waiters: the job may
    /// have opened the latch a parked helper is waiting on (`done_one`
    /// runs inside job execution), and helpers predicate their sleep on
    /// the `completions` counter, so this bump-then-check cannot be
    /// slept through (same store-buffering argument as [`Self::wake`]).
    fn job_finished(&self) {
        SchedCounters::bump(&self.counters.jobs_executed);
        self.completions.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        let state = self.park.lock().unwrap();
        if state.helper_sleepers > 0 {
            self.helper_wake.notify_all();
        }
        drop(state);
    }

    /// Claim one job: own deque tail (depth-first), then the injector,
    /// then round-robin steals from the other deques' heads. `None`
    /// means nothing was claimable *at this instant* — with `pending`
    /// nonzero that can still be a transient (a consumer mid-move), so
    /// callers rescan instead of parking while `pending` holds.
    fn find_work(&self) -> Option<JobRef> {
        let slot = self.own_worker_index();
        // 1. Own tail: the job this thread pushed last (cache-warm).
        if let Some(index) = slot {
            SchedCounters::bump(&self.counters.queue_locks);
            let mut deque = self.deques[index].lock().unwrap();
            if let Some(job) = deque.pop_back() {
                // Decrement while still holding the deque lock: a peer
                // that saw `pending > 0` and rescans serializes behind
                // this lock instead of racing past a half-claimed job
                // (the shape `pp_check::models::park` explores).
                self.claimed();
                drop(deque);
                return Some(job);
            }
        }
        // 2. The injector: externally submitted batches.
        let mut grabbed = self.injector.grab_all();
        if let Some(first) = grabbed.pop_front() {
            if !grabbed.is_empty() {
                match slot {
                    Some(index) => {
                        // A worker adopts the whole batch: the rest
                        // lands in its deque where peers can steal it.
                        SchedCounters::bump(&self.counters.queue_locks);
                        self.deques[index].lock().unwrap().extend(grabbed);
                    }
                    // A non-worker helper has no deque: keep one job,
                    // republish the rest for the workers. The jobs stay
                    // `pending` throughout, so nobody parks during the
                    // brief republish window.
                    None => self.injector.push(grabbed),
                }
            }
            self.claimed();
            return Some(first);
        }
        // 3. Steal the oldest job from another worker's head.
        let start = slot.map_or(0, |index| index + 1);
        for offset in 0..self.deques.len() {
            let victim = (start + offset) % self.deques.len();
            if Some(victim) == slot {
                continue;
            }
            SchedCounters::bump(&self.counters.queue_locks);
            let mut deque = self.deques[victim].lock().unwrap();
            if let Some(job) = deque.pop_front() {
                SchedCounters::bump(&self.counters.steals);
                // Under the victim's lock, as in the own-pop branch.
                self.claimed();
                drop(deque);
                return Some(job);
            }
        }
        None
    }

    /// Remove `job` from its queue if no thread has claimed it yet —
    /// the [`join`] caller "steals back" its second closure to run it
    /// inline instead of waiting. For a worker this is an O(1) check of
    /// its own deque's tail: the job it pushed last is either still
    /// there or a thief took it from the head long ago.
    pub(crate) fn steal_back(&self, job: &JobRef) -> bool {
        match self.own_worker_index() {
            Some(index) => {
                SchedCounters::bump(&self.counters.queue_locks);
                let mut deque = self.deques[index].lock().unwrap();
                if deque.back().is_some_and(|j| j.same_job(job)) {
                    deque.pop_back();
                    // Under the deque lock (see `find_work`).
                    self.claimed();
                    true
                } else {
                    false
                }
            }
            None => {
                let reclaimed = self.injector.steal_back(job);
                if reclaimed {
                    self.claimed();
                }
                reclaimed
            }
        }
    }

    /// Block until `latch` opens, executing scheduled jobs in the
    /// meantime. Helping keeps nested parallel regions livelock-free: a
    /// thread waiting on an inner region's latch claims the very jobs
    /// that open it.
    pub(crate) fn wait_latch(&self, latch: &CountLatch) {
        loop {
            // Snapshot before probing: if a job completes after this
            // load, `park_helper` sees `completions` moved and re-loops
            // instead of sleeping past the completion that may have
            // opened the latch.
            let seen = self.completions.load(Ordering::SeqCst);
            if latch.probe() {
                break;
            }
            match self.find_work() {
                Some(job) => {
                    // SAFETY: queued JobRefs are alive until their latch
                    // opens, and `find_work` hands each to one thread
                    // only.
                    unsafe { job.execute() };
                    self.job_finished();
                }
                None => self.park_helper(latch, seen),
            }
        }
        // The caller will typically free the latch's frame next; wait
        // out the final completer's critical section first.
        latch.sync_before_teardown();
    }

    /// Park until new work may be available or shutdown. Returns
    /// `false` when the registry has shut down *and* drained (workers
    /// must run stragglers injected just before the shutdown signal).
    fn park_worker(&self) -> bool {
        let mut state = self.park.lock().unwrap();
        // Register in `parked` *before* re-checking `pending`:
        // publishers bump `pending` and then read `parked`, so (both
        // SeqCst) either this thread sees the new jobs here and skips
        // the wait, or the publisher sees the registration and
        // notifies under the park lock — held from here until `wait`
        // atomically releases it, so that notify cannot be missed.
        self.parked.fetch_add(1, Ordering::SeqCst);
        state.sleepers += 1;
        if self.pending.load(Ordering::SeqCst) == 0 && !state.shutdown {
            SchedCounters::bump(&self.counters.parks);
            state = self.job_ready.wait(state).unwrap();
        }
        state.sleepers -= 1;
        self.parked.fetch_sub(1, Ordering::SeqCst);
        !(state.shutdown && self.pending.load(Ordering::SeqCst) == 0)
    }

    /// Park a latch waiter until a job arrives, a job completes, or its
    /// latch opens (same registration protocol as [`Self::park_worker`];
    /// `seen` is the `completions` snapshot from before the probe).
    fn park_helper(&self, latch: &CountLatch, seen: usize) {
        let mut state = self.park.lock().unwrap();
        self.parked.fetch_add(1, Ordering::SeqCst);
        state.helper_sleepers += 1;
        if self.pending.load(Ordering::SeqCst) == 0
            && self.completions.load(Ordering::SeqCst) == seen
            && !latch.probe()
        {
            SchedCounters::bump(&self.counters.parks);
            // Bounded wait as a belt only: at the protocol level the
            // wakeup cannot be lost (the model in
            // `pp_check::models::deque` parks with *no* timeout and
            // explores clean), so the timeout merely bounds exposure
            // should a non-modeled reordering slip through on exotic
            // hardware.
            let (guard, _timeout) = self
                .helper_wake
                .wait_timeout(state, Duration::from_millis(1))
                .unwrap();
            state = guard;
        }
        state.helper_sleepers -= 1;
        self.parked.fetch_sub(1, Ordering::SeqCst);
        drop(state);
    }

    /// Signal shutdown and wake everyone (used by
    /// [`crate::ThreadPool::drop`] and the spawn-failure path).
    pub(crate) fn terminate(&self) {
        let mut state = self.park.lock().unwrap();
        state.shutdown = true;
        self.job_ready.notify_all();
        self.helper_wake.notify_all();
        drop(state);
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        // Free any never-consumed injector segments. The frame contract
        // means no *jobs* can be pending here, but the boxes themselves
        // must not leak if a segment was republished and never grabbed.
        drop(self.injector.grab_all());
    }
}

fn worker_loop(registry: Arc<Registry>, index: usize) {
    CURRENT_REGISTRY.with(|current| {
        *current.borrow_mut() = Some(Arc::clone(&registry));
    });
    WORKER_SLOT.with(|slot| {
        *slot.borrow_mut() = Some((Arc::clone(&registry), index));
    });
    loop {
        while let Some(job) = registry.find_work() {
            // SAFETY: queued JobRefs are alive until their latch opens,
            // and `find_work` removed the job from its queue, so this
            // thread is its only executor.
            unsafe { job.execute() };
            registry.job_finished();
        }
        if !registry.park_worker() {
            return;
        }
        // Either woken for real work (found on the next scan) or a
        // `pending` transient (an injector consumer mid-republish):
        // give the mover a beat before rescanning.
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------------------
// Current registry (thread-local) and the global pool
// ---------------------------------------------------------------------------

thread_local! {
    static CURRENT_REGISTRY: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
    /// Set once per worker thread: which registry this thread works
    /// for, and its deque index there. Unlike `CURRENT_REGISTRY` this
    /// is never swapped by `install` — worker identity is permanent.
    static WORKER_SLOT: RefCell<Option<(Arc<Registry>, usize)>> = const { RefCell::new(None) };
}

static GLOBAL_REGISTRY: OnceLock<Arc<Registry>> = OnceLock::new();

/// Parse a `RAYON_NUM_THREADS` value. `Ok(None)` means "unset" (empty
/// string); `Ok(Some(n))` is a positive count clamped to
/// [`MAX_THREADS`]; `Err` explains why the value is malformed (`"0"`,
/// non-numeric, whitespace-only).
fn parse_thread_env(raw: &str) -> Result<Option<usize>, String> {
    if raw.is_empty() {
        return Ok(None);
    }
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Err(format!("whitespace-only value {raw:?}"));
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err("\"0\" is not a worker count (unset the variable for the default)".to_owned()),
        Ok(n) => Ok(Some(n.min(MAX_THREADS))),
        Err(e) => Err(format!("unparseable value {raw:?} ({e})")),
    }
}

/// Worker count for the global pool: `RAYON_NUM_THREADS` when set to a
/// positive integer, otherwise the machine's available parallelism.
/// A malformed value warns once on stderr and falls back — silently
/// swallowing e.g. `RAYON_NUM_THREADS=O8` (typo'd letter O) used to
/// leave benchmarks running on an unintended thread count with no
/// signal at all.
fn global_thread_count() -> usize {
    if let Ok(raw) = std::env::var("RAYON_NUM_THREADS") {
        match parse_thread_env(&raw) {
            Ok(Some(n)) => return n,
            Ok(None) => {}
            Err(reason) => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "warning: ignoring RAYON_NUM_THREADS: {reason}; \
                         using available parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn global_registry() -> Arc<Registry> {
    Arc::clone(GLOBAL_REGISTRY.get_or_init(|| {
        let threads = global_thread_count();
        let (registry, _handles) = Registry::spawn(threads).unwrap_or_else(|_| {
            // Last resort: a one-thread registry spawns no OS thread, so
            // it cannot fail, and it still executes correctly (every
            // parallel region runs inline on the caller).
            Registry::spawn(1).expect("one-thread registry spawns nothing")
        });
        // Global workers live for the process; handles are detached.
        registry
    }))
}

/// Run `f` on [`current_registry`] without cloning its handle: a
/// region that may end inline reads the pool's shape through this, so
/// it touches no reference count other threads share.
pub(crate) fn with_current_registry<T>(f: impl FnOnce(&Registry) -> T) -> T {
    CURRENT_REGISTRY.with(|current| match &*current.borrow() {
        Some(registry) => f(registry),
        None => f(&global_registry()),
    })
}

/// The registry parallel regions on this thread should use: the
/// installed pool if inside [`crate::ThreadPool::install`] (or a worker
/// thread), the global pool otherwise.
pub(crate) fn current_registry() -> Arc<Registry> {
    CURRENT_REGISTRY
        .with(|current| current.borrow().clone())
        .unwrap_or_else(global_registry)
}

/// Swap the thread's current registry, restoring the previous one on
/// drop (panic-safe [`crate::ThreadPool::install`]).
pub(crate) struct RegistryGuard {
    previous: Option<Arc<Registry>>,
}

impl RegistryGuard {
    pub(crate) fn enter(registry: Arc<Registry>) -> Self {
        let previous = CURRENT_REGISTRY.with(|current| current.borrow_mut().replace(registry));
        Self { previous }
    }
}

impl Drop for RegistryGuard {
    fn drop(&mut self) {
        CURRENT_REGISTRY.with(|current| {
            *current.borrow_mut() = self.previous.take();
        });
    }
}

// ---------------------------------------------------------------------------
// StackJob + join
// ---------------------------------------------------------------------------

/// A job whose closure, result slot and latch live in the spawning
/// stack frame.
struct StackJob<F, R> {
    func: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
    latch: CountLatch,
}

impl<F, R> StackJob<F, R>
where
    F: FnOnce() -> R + Send,
    R: Send,
{
    fn new(func: F) -> Self {
        Self {
            func: UnsafeCell::new(Some(func)),
            result: UnsafeCell::new(None),
            latch: CountLatch::new(1),
        }
    }

    fn as_job_ref(&self) -> JobRef {
        JobRef::new(self as *const Self as *const (), Self::execute_erased)
    }

    /// # Safety
    /// `data` must point at a live `StackJob` whose closure has not
    /// been taken; the scheduler must hand it to at most one executor.
    unsafe fn execute_erased(data: *const ()) {
        // SAFETY: the spawning frame blocks on the latch until this
        // function has run, so the referent is alive for its duration.
        let this = unsafe { &*(data as *const Self) };
        // SAFETY: exactly one thread executes the job (scheduler
        // contract), and the spawner only touches `func` after a
        // successful steal-back — which forfeits execution — so this
        // access is exclusive.
        let func = unsafe { (*this.func.get()).take() }.expect("job executed twice");
        let result = panic::catch_unwind(AssertUnwindSafe(func));
        // SAFETY: the result slot is written once, here, before the
        // latch opens; the waiter reads it only after a true probe,
        // which the latch's release/acquire pair orders after this.
        unsafe { *this.result.get() = Some(result) };
        this.latch.done_one();
    }

    /// Take the closure back out (only valid after a successful
    /// [`Registry::steal_back`], i.e. before any execution).
    ///
    /// # Safety
    /// No thread may have executed — or be executing — this job; a
    /// successful steal-back is the only way to establish that.
    unsafe fn take_func(&self) -> F {
        // SAFETY: per the contract above the job was reclaimed
        // unexecuted, so no other thread can reach this slot anymore.
        unsafe { (*self.func.get()).take() }.expect("job already executed")
    }

    /// Take the result out (only valid once the latch has opened).
    ///
    /// # Safety
    /// The job's latch must have opened (`wait_latch` returned): the
    /// executor is done with both slots and will not touch them again.
    unsafe fn take_result(&self) -> std::thread::Result<R> {
        // SAFETY: the open latch happens-after the executor's result
        // write, so this read is ordered and exclusive.
        unsafe { (*self.result.get()).take() }.expect("latch opened, result set")
    }
}

thread_local! {
    /// Depth of nested `join`s on this thread: past a threshold the
    /// fork side stops enqueuing and recursion runs inline (queue
    /// traffic for leaf-sized forks costs more than it balances).
    static JOIN_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Nested-`join` depth beyond which forks run inline. `2^10` potential
/// leaves saturate any realistic worker count long before this.
const MAX_FORK_DEPTH: usize = 10;

/// Run two closures, potentially in parallel, and return both results —
/// rayon's fork-join primitive. The calling thread runs `a` itself; `b`
/// is offered to the pool and reclaimed (run inline) if no worker was
/// free by the time `a` finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let registry = current_registry();
    let depth = JOIN_DEPTH.with(Cell::get);
    if registry.is_sequential() || depth >= MAX_FORK_DEPTH {
        return (a(), b());
    }
    // Restore the depth even when `join_in` unwinds (a panicking
    // closure must not permanently push this — possibly long-lived
    // worker — thread over the inline-fork threshold).
    struct DepthGuard(usize);
    impl Drop for DepthGuard {
        fn drop(&mut self) {
            JOIN_DEPTH.with(|d| d.set(self.0));
        }
    }
    let _guard = DepthGuard(depth);
    JOIN_DEPTH.with(|d| d.set(depth + 1));
    join_in(&registry, a, b)
}

fn join_in<A, B, RA, RB>(registry: &Registry, a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let job_b = StackJob::new(b);
    let job_b_ref = job_b.as_job_ref();
    registry.inject(job_b_ref);

    let result_a = match panic::catch_unwind(AssertUnwindSafe(a)) {
        Ok(ra) => ra,
        Err(payload) => {
            // `job_b` must not be left in flight while this frame
            // unwinds: reclaim it unexecuted, or wait it out.
            if !registry.steal_back(&job_b_ref) {
                registry.wait_latch(&job_b.latch);
            }
            panic::resume_unwind(payload);
        }
    };

    if registry.steal_back(&job_b_ref) {
        // Nobody picked `b` up: run it inline on this thread.
        // SAFETY: a successful steal-back means the job never executed.
        let func = unsafe { job_b.take_func() };
        return (result_a, func());
    }
    registry.wait_latch(&job_b.latch);
    // SAFETY: the latch has opened, so the result slot is written.
    match unsafe { job_b.take_result() } {
        Ok(result_b) => (result_a, result_b),
        Err(payload) => panic::resume_unwind(payload),
    }
}

// ---------------------------------------------------------------------------
// Chunk batches (the parallel-iterator driver's entry point)
// ---------------------------------------------------------------------------

struct ChunkShared<F> {
    fold: *const F,
    latch: CountLatch,
}

/// One pre-split chunk of a parallel region: input slot, result slot,
/// and a pointer to the batch's shared fold + latch.
struct ChunkJob<C, R, F> {
    input: UnsafeCell<Option<C>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
    shared: *const ChunkShared<F>,
}

impl<C, R, F> ChunkJob<C, R, F>
where
    C: Send,
    R: Send,
    F: Fn(C) -> R + Sync,
{
    /// # Safety
    /// `data` must point at a live `ChunkJob` (the `run_chunks` frame
    /// blocks on the batch latch, keeping the whole batch alive) that
    /// has not executed yet.
    unsafe fn execute_erased(data: *const ()) {
        // SAFETY: the batch frame outlives the latch it waits on, and
        // the scheduler hands each chunk to exactly one thread.
        let this = unsafe { &*(data as *const Self) };
        // SAFETY: `shared` points into the same still-blocked frame.
        let shared = unsafe { &*this.shared };
        // SAFETY: only the executing thread touches this chunk's input
        // slot (written once at construction, taken once here).
        let input = unsafe { (*this.input.get()).take() }.expect("chunk executed twice");
        // SAFETY: the fold closure lives in the blocked frame and is
        // only accessed through shared references (`F: Sync`).
        let fold = unsafe { &*shared.fold };
        let result = panic::catch_unwind(AssertUnwindSafe(|| fold(input)));
        // SAFETY: written once, before this chunk's `done_one`; the
        // caller reads it only after the whole batch latch opened.
        unsafe { *this.result.get() = Some(result) };
        shared.latch.done_one();
    }
}

/// Run `fold` over every chunk, in parallel on `registry`, and return
/// the per-chunk results **in chunk order** (the order-preservation the
/// deterministic drivers rely on — results come back by slot, so which
/// worker ran which chunk never shows). The calling thread
/// participates. The first chunk panic is re-raised here after every
/// chunk finished.
pub(crate) fn run_chunks<C, R, F>(registry: &Registry, chunks: Vec<C>, fold: F) -> Vec<R>
where
    C: Send,
    R: Send,
    F: Fn(C) -> R + Sync,
{
    if chunks.len() <= 1 || registry.is_sequential() {
        return chunks.into_iter().map(fold).collect();
    }
    let shared = ChunkShared {
        fold: &fold as *const F,
        latch: CountLatch::new(chunks.len()),
    };
    // Lifetime erasure: jobs carry raw pointers into this frame, which
    // outlives them because `wait_latch` below blocks until every
    // chunk completed.
    let shared_ptr = &shared as *const ChunkShared<F>;
    let jobs: Vec<ChunkJob<C, R, F>> = chunks
        .into_iter()
        .map(|chunk| ChunkJob {
            input: UnsafeCell::new(Some(chunk)),
            result: UnsafeCell::new(None),
            shared: shared_ptr,
        })
        .collect();
    registry.inject_many(jobs.iter().map(|job| {
        JobRef::new(
            job as *const _ as *const (),
            ChunkJob::<C, R, F>::execute_erased,
        )
    }));
    registry.wait_latch(&shared.latch);

    let mut results = Vec::with_capacity(jobs.len());
    let mut first_panic = None;
    for job in &jobs {
        // SAFETY: the batch latch has opened, so every slot is written
        // and no other thread touches the jobs anymore.
        match unsafe { (*job.result.get()).take() }.expect("latch opened, result set") {
            Ok(r) => results.push(r),
            Err(payload) => {
                first_panic.get_or_insert(payload);
            }
        }
    }
    if let Some(payload) = first_panic {
        panic::resume_unwind(payload);
    }
    results
}

// ---------------------------------------------------------------------------
// Scope
// ---------------------------------------------------------------------------

/// A fork-join scope: closures spawned on it may borrow from the
/// enclosing frame (`'scope`), and [`scope`] does not return until all
/// of them completed. Mirrors `rayon::scope`.
pub struct Scope<'scope> {
    registry: Arc<Registry>,
    latch: CountLatch,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    marker: std::marker::PhantomData<fn(&'scope ()) -> &'scope ()>,
}

type ScopeBody<'scope> = Box<dyn FnOnce(&Scope<'scope>) + Send + 'scope>;

struct ScopeJob<'scope> {
    func: Option<ScopeBody<'scope>>,
    scope: *const Scope<'scope>,
}

impl<'scope> ScopeJob<'scope> {
    /// # Safety
    /// `data` must be the `Box::into_raw` of a `ScopeJob` handed to
    /// exactly one executor, and the scope it points into must still be
    /// blocked inside [`scope`].
    unsafe fn execute_erased(data: *const ()) {
        // SAFETY: `data` came from Box::into_raw in `Scope::spawn` and
        // reaches exactly one executor, which reclaims the box here.
        let mut this = unsafe { Box::from_raw(data as *mut ScopeJob<'scope>) };
        // SAFETY: `scope()` blocks on its latch — which counts this job
        // — before dropping the `Scope`, so the pointer is live.
        let scope = unsafe { &*this.scope };
        let func = this.func.take().expect("scope job executed twice");
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| func(scope))) {
            let mut slot = scope.panic.lock().unwrap();
            slot.get_or_insert(payload);
        }
        scope.latch.done_one();
    }
}

impl<'scope> Scope<'scope> {
    /// Spawn `body` onto the scope's pool; it may run on any worker (or
    /// a helping waiter) before [`scope`] returns.
    pub fn spawn<BODY>(&self, body: BODY)
    where
        BODY: FnOnce(&Scope<'scope>) + Send + 'scope,
    {
        self.latch.add(1);
        if self.registry.is_sequential() {
            // Inline execution keeps one-worker pools queue-free; the
            // latch bookkeeping stays identical.
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| body(self))) {
                let mut slot = self.panic.lock().unwrap();
                slot.get_or_insert(payload);
            }
            self.latch.done_one();
            return;
        }
        let job = Box::new(ScopeJob {
            func: Some(Box::new(body)),
            scope: self as *const Scope<'scope>,
        });
        let data = Box::into_raw(job) as *const ();
        // Erasure: the job is freed by its executor; `scope` blocks on
        // the latch before returning, keeping `self` and all `'scope`
        // borrows alive until then.
        let execute: unsafe fn(*const ()) = ScopeJob::<'scope>::execute_erased;
        self.registry.inject(JobRef::new(data, execute));
    }
}

/// Create a fork-join scope on the current pool and run `op` inside it.
/// Returns `op`'s result once every [`Scope::spawn`]ed task completed;
/// the first panic from any task is propagated.
pub fn scope<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&Scope<'scope>) -> R + Send,
    R: Send,
{
    let scope = Scope {
        registry: current_registry(),
        latch: CountLatch::new(1),
        panic: Mutex::new(None),
        marker: std::marker::PhantomData,
    };
    let result = panic::catch_unwind(AssertUnwindSafe(|| op(&scope)));
    scope.latch.done_one(); // the `op` itself
    scope.registry.wait_latch(&scope.latch);
    let spawned_panic = scope.panic.lock().unwrap().take();
    match (result, spawned_panic) {
        (Ok(r), None) => r,
        (Err(payload), _) | (_, Some(payload)) => panic::resume_unwind(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_env_parsing() {
        assert_eq!(parse_thread_env(""), Ok(None));
        assert_eq!(parse_thread_env("4"), Ok(Some(4)));
        assert_eq!(parse_thread_env(" 8\n"), Ok(Some(8)));
        assert_eq!(parse_thread_env("999999999"), Ok(Some(MAX_THREADS)));
        assert!(parse_thread_env("0").is_err(), "zero is rejected loudly");
        assert!(parse_thread_env("abc").is_err(), "non-numeric is rejected");
        assert!(parse_thread_env("O8").is_err(), "typo'd letter O");
        assert!(parse_thread_env("-2").is_err(), "negative is rejected");
        assert!(
            parse_thread_env("   ").is_err(),
            "whitespace-only is malformed, not unset"
        );
    }

    // SAFETY: does nothing with its pointer; exists so tests can mint
    // JobRefs that are never executed.
    unsafe fn noop_execute(_data: *const ()) {}

    fn job_at(slot: &u8) -> JobRef {
        JobRef::new(slot as *const u8 as *const (), noop_execute)
    }

    #[test]
    fn injector_grab_returns_pushes_oldest_first() {
        let slots = [0u8; 3];
        let injector = Injector::new();
        for slot in &slots {
            injector.push(VecDeque::from([job_at(slot)]));
        }
        let grabbed = injector.grab_all();
        let order: Vec<*const ()> = grabbed.iter().map(|j| j.data).collect();
        let want: Vec<*const ()> = slots.iter().map(|s| s as *const u8 as *const ()).collect();
        assert_eq!(order, want, "chain reversal restores FIFO order");
        assert!(
            injector.grab_all().is_empty(),
            "grab leaves the chain empty"
        );
    }

    #[test]
    fn injector_steal_back_removes_exactly_the_job() {
        let slots = [0u8; 3];
        let injector = Injector::new();
        injector.push(slots.iter().map(job_at).collect());
        assert!(injector.steal_back(&job_at(&slots[1])));
        assert!(
            !injector.steal_back(&job_at(&slots[1])),
            "a reclaimed job cannot be reclaimed again"
        );
        let rest: Vec<*const ()> = injector.grab_all().iter().map(|j| j.data).collect();
        let want: Vec<*const ()> = [&slots[0], &slots[2]]
            .iter()
            .map(|s| *s as *const u8 as *const ())
            .collect();
        assert_eq!(rest, want, "the other jobs survive in order");
    }
}
