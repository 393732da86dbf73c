//! The cooperative scheduler and schedule explorer.
//!
//! A **model** is a closure that builds some shared state out of
//! [`crate::sync`] primitives and spawns 2–3 model threads. The
//! explorer runs the model to completion many times; within one
//! execution only a single model thread runs at any moment, and control
//! can change hands only at *instrumented operations* (lock, unlock,
//! condvar wait/notify, atomic access, [`crate::sync::RaceCell`]
//! access, …). Each execution is therefore fully described by the
//! sequence of thread ids chosen at each scheduling point — the
//! **schedule** — and replaying a schedule reproduces the execution
//! exactly, operation for operation.
//!
//! Exploration is a stateless depth-first search over schedules: run
//! once following a prescribed prefix (empty at first), record at every
//! step which threads were runnable and which was chosen, then backtrack
//! to the deepest step with an untried alternative and re-run. The
//! search is **preemption-bounded** ([`Config::max_preemptions`]):
//! switching away from a thread that could have continued costs one
//! preemption, and schedules over budget are not enumerated — the
//! classic CHESS result that almost all concurrency bugs manifest
//! within two or three preemptions, which keeps small models fully
//! exhaustible.
//!
//! Failures — data races, use-after-free on a [`crate::sync::Frame`],
//! deadlock (every live thread blocked), livelock (step budget
//! exhausted), or a model-thread panic — abort the execution and are
//! reported with the **seed string** of the schedule that produced
//! them. [`replay`] runs exactly one schedule from such a seed.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::clock::VClock;

// ---------------------------------------------------------------------------
// Configuration and reports
// ---------------------------------------------------------------------------

/// Exploration bounds. The defaults suit the pool models (2–3 threads,
/// a few dozen operations); the larger models in `tests/models.rs`
/// cap `max_schedules` at 200,000.
#[derive(Clone, Debug)]
pub struct Config {
    /// Context-switch budget: how many times the search may preempt a
    /// runnable thread. 0 explores only cooperative round-robins.
    pub max_preemptions: usize,
    /// Per-execution operation budget; exceeding it is reported as a
    /// livelock (with the offending schedule's seed).
    pub max_steps: usize,
    /// Total executions the explorer may run before giving up and
    /// reporting an incomplete (but so-far-clean) search.
    pub max_schedules: usize,
    /// Weakest-ordering mode: treat every atomic ordering as `Relaxed`
    /// for happens-before purposes (values are unaffected — the
    /// cooperative scheduler is sequentially consistent). Races that
    /// appear only in this mode are exactly the publication edges the
    /// declared `Acquire`/`Release` orderings carry.
    pub weaken_orderings: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_preemptions: 3,
            max_steps: 10_000,
            max_schedules: 1_000_000,
            weaken_orderings: false,
        }
    }
}

impl Config {
    /// Preemption-bound override, builder style.
    pub fn preemptions(mut self, n: usize) -> Self {
        self.max_preemptions = n;
        self
    }

    /// Schedule-budget override, builder style.
    pub fn schedules(mut self, n: usize) -> Self {
        self.max_schedules = n;
        self
    }

    /// Enable weakest-ordering exploration (see field docs).
    pub fn weakened(mut self) -> Self {
        self.weaken_orderings = true;
        self
    }
}

/// A failing execution: what went wrong and the schedule to replay it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Human-readable description (race/UAF/deadlock/livelock/panic).
    pub message: String,
    /// Replay seed: thread ids chosen at each scheduling point,
    /// dot-separated. Feed to [`replay`].
    pub seed: String,
    /// Per-step `t<tid>:<op>` log of the failing schedule.
    pub ops: Vec<String>,
}

/// Result of exploring (or replaying) a model.
#[derive(Debug)]
pub struct Report {
    /// Model name (diagnostics only).
    pub name: String,
    /// Executions actually run.
    pub schedules: usize,
    /// True when the search exhausted every schedule within bounds
    /// (always true for a clean [`replay`] of one seed).
    pub complete: bool,
    /// The first failure found, if any.
    pub failure: Option<Failure>,
}

impl Report {
    /// No failure found.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.failure {
            None => write!(
                f,
                "model '{}': {} schedule(s) explored, {}: no failures",
                self.name,
                self.schedules,
                if self.complete {
                    "exhaustive within bounds"
                } else {
                    "budget reached"
                },
            ),
            Some(fail) => {
                writeln!(
                    f,
                    "model '{}' FAILED after {} schedule(s): {}",
                    self.name, self.schedules, fail.message
                )?;
                writeln!(f, "  replay seed: {}", fail.seed)?;
                writeln!(f, "  schedule:")?;
                for op in &fail.ops {
                    writeln!(f, "    {op}")?;
                }
                write!(
                    f,
                    "  (replay with pp_check::replay(\"{}\", \"{}\", cfg, model))",
                    self.name, fail.seed
                )
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Status {
    /// Can be granted the CPU.
    Ready,
    /// Waiting for the mutex with this id to be released.
    BlockedMutex(usize),
    /// Waiting on the condvar with this id (woken only by notify: the
    /// model deliberately has no timeout/spurious wakeups, so a missed
    /// wakeup in a protocol surfaces as a reported deadlock).
    BlockedCond(usize),
    Finished,
}

pub(crate) struct MutexSt {
    pub(crate) owner: Option<usize>,
    pub(crate) clock: VClock,
    pub(crate) name: &'static str,
}

pub(crate) struct CondSt {
    pub(crate) waiters: Vec<usize>,
    pub(crate) name: &'static str,
}

pub(crate) struct AtomicSt {
    pub(crate) clock: VClock,
}

pub(crate) struct CellSt {
    pub(crate) last_write: Option<(usize, VClock)>,
    pub(crate) reads: Vec<Option<VClock>>,
}

pub(crate) struct FrameSt {
    pub(crate) alive: bool,
}

/// One recorded scheduling decision.
struct Choice {
    chosen: usize,
    /// The ordered candidate list the search enumerates at this point.
    alts: Vec<usize>,
    chosen_idx: usize,
    op: String,
}

pub(crate) struct ExecState {
    status: Vec<Status>,
    /// `Some(tid)` = that thread holds the CPU; `None` = controller's
    /// turn to pick.
    active: Option<usize>,
    last_running: Option<usize>,
    abort: bool,
    steps: usize,
    preemptions: usize,
    prefix: Vec<usize>,
    trace: Vec<Choice>,
    failure: Option<String>,
    /// The operation each thread will perform when next granted.
    pending_op: Vec<String>,
    pub(crate) clocks: Vec<VClock>,
    pub(crate) mutexes: Vec<MutexSt>,
    pub(crate) conds: Vec<CondSt>,
    pub(crate) atomics: Vec<AtomicSt>,
    pub(crate) cells: Vec<CellSt>,
    pub(crate) frames: Vec<FrameSt>,
}

/// One execution's shared scheduler state. Model threads and the
/// controller rendezvous on `cv`; `state.active` says whose turn it is.
pub(crate) struct Exec {
    state: Mutex<ExecState>,
    cv: Condvar,
    threads: usize,
    weaken_orderings: bool,
}

/// Panic payload used to unwind model threads when an execution is
/// aborted (failure found, or search pruning); filtered by the panic
/// hook so aborts do not spam stderr.
struct ModelAbort;

fn install_panic_filter() {
    static INSTALLED: AtomicBool = AtomicBool::new(false);
    if INSTALLED.swap(true, AtomicOrdering::SeqCst) {
        return;
    }
    let previous = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if info.payload().is::<ModelAbort>() {
            return; // expected teardown of an aborted execution
        }
        previous(info);
    }));
}

impl Exec {
    fn new(threads: usize, prefix: Vec<usize>, weaken_orderings: bool) -> Arc<Self> {
        Arc::new(Exec {
            state: Mutex::new(ExecState {
                status: vec![Status::Ready; threads],
                active: None,
                last_running: None,
                abort: false,
                steps: 0,
                preemptions: 0,
                prefix,
                trace: Vec::new(),
                failure: None,
                pending_op: vec![String::from("start"); threads],
                clocks: vec![VClock::new(threads); threads],
                mutexes: Vec::new(),
                conds: Vec::new(),
                atomics: Vec::new(),
                cells: Vec::new(),
                frames: Vec::new(),
            }),
            cv: Condvar::new(),
            threads,
            weaken_orderings,
        })
    }

    pub(crate) fn weakened(&self) -> bool {
        self.weaken_orderings
    }

    // -- object registration (called from sync primitive constructors) --

    pub(crate) fn register_mutex(&self, name: &'static str) -> usize {
        let mut st = self.state.lock().unwrap();
        st.mutexes.push(MutexSt {
            owner: None,
            clock: VClock::new(self.threads),
            name,
        });
        st.mutexes.len() - 1
    }

    pub(crate) fn register_cond(&self, name: &'static str) -> usize {
        let mut st = self.state.lock().unwrap();
        st.conds.push(CondSt {
            waiters: Vec::new(),
            name,
        });
        st.conds.len() - 1
    }

    pub(crate) fn register_atomic(&self) -> usize {
        let mut st = self.state.lock().unwrap();
        st.atomics.push(AtomicSt {
            clock: VClock::new(self.threads),
        });
        st.atomics.len() - 1
    }

    pub(crate) fn register_cell(&self) -> usize {
        let threads = self.threads;
        let mut st = self.state.lock().unwrap();
        st.cells.push(CellSt {
            last_write: None,
            reads: vec![None; threads],
        });
        st.cells.len() - 1
    }

    pub(crate) fn register_frame(&self) -> usize {
        let mut st = self.state.lock().unwrap();
        st.frames.push(FrameSt { alive: true });
        st.frames.len() - 1
    }

    // -- the scheduling protocol --

    fn abort_unwind() -> ! {
        panic::panic_any(ModelAbort)
    }

    /// Park until the controller grants this thread the CPU (or the
    /// execution aborts, in which case the thread unwinds).
    fn wait_for_grant<'a>(
        &'a self,
        mut st: MutexGuard<'a, ExecState>,
        tid: usize,
    ) -> MutexGuard<'a, ExecState> {
        loop {
            if st.abort {
                drop(st);
                Self::abort_unwind();
            }
            if st.active == Some(tid) {
                return st;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// The scheduling point at the head of every instrumented
    /// operation: announce `op`, yield the CPU, park until re-granted,
    /// then return with the state lock held (the caller applies the
    /// operation's effect under it and ticks the thread clock).
    pub(crate) fn op_gate(&self, tid: usize, op: String) -> OpGuard<'_> {
        let mut st = self.state.lock().unwrap();
        if st.abort {
            drop(st);
            Self::abort_unwind();
        }
        st.pending_op[tid] = op;
        st.active = None;
        self.cv.notify_all();
        let mut st = self.wait_for_grant(st, tid);
        st.clocks[tid].tick(tid);
        OpGuard {
            exec: self,
            st: Some(st),
            tid,
        }
    }

    /// Mark this thread blocked and yield; returns re-granted with the
    /// lock held (the caller re-checks its wait condition).
    fn block<'a>(
        &'a self,
        mut st: MutexGuard<'a, ExecState>,
        tid: usize,
        status: Status,
    ) -> MutexGuard<'a, ExecState> {
        st.status[tid] = status;
        st.active = None;
        self.cv.notify_all();
        self.wait_for_grant(st, tid)
    }

    fn thread_begin(&self, tid: usize) {
        let st = self.state.lock().unwrap();
        drop(self.wait_for_grant(st, tid));
    }

    fn thread_done(&self, tid: usize, outcome: std::thread::Result<()>) {
        let mut st = self.state.lock().unwrap();
        st.status[tid] = Status::Finished;
        if let Err(payload) = outcome {
            if !payload.is::<ModelAbort>() && st.failure.is_none() {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "model thread panicked".to_string());
                st.failure = Some(format!("model thread t{tid} panicked: {msg}"));
                st.abort = true;
            }
        }
        st.active = None;
        self.cv.notify_all();
    }

    /// Release mutex ownership without a scheduling point: called from
    /// guard drops while the owning thread is already unwinding (the
    /// execution is aborted — other threads only need to un-block so
    /// they can observe the abort and drain).
    pub(crate) fn emergency_release_mutex(&self, mid: usize) {
        let mut st = self.state.lock().unwrap();
        st.mutexes[mid].owner = None;
        Self::unblock_mutex(&mut st, mid);
        self.cv.notify_all();
    }

    /// Record a model failure (race, UAF, protocol assertion) and abort
    /// the execution: the calling thread unwinds immediately.
    pub(crate) fn fail(&self, mut st: MutexGuard<'_, ExecState>, message: String) -> ! {
        if st.failure.is_none() {
            st.failure = Some(message);
        }
        st.abort = true;
        self.cv.notify_all();
        drop(st);
        Self::abort_unwind()
    }

    /// Wake every thread blocked on mutex `mid` (called at release).
    fn unblock_mutex(st: &mut ExecState, mid: usize) {
        for status in st.status.iter_mut() {
            if *status == Status::BlockedMutex(mid) {
                *status = Status::Ready;
            }
        }
    }

    // -- the controller (runs on the exploring thread) --

    /// The ordered candidate list at the current decision point:
    /// continuing the last-running thread first (free), then the other
    /// runnable threads in id order (each costs a preemption when the
    /// last-running thread could have continued).
    fn candidates(st: &ExecState, max_preemptions: usize) -> Vec<usize> {
        let ready: Vec<usize> = (0..st.status.len())
            .filter(|&t| st.status[t] == Status::Ready)
            .collect();
        match st.last_running {
            Some(p) if ready.contains(&p) => {
                if st.preemptions >= max_preemptions {
                    vec![p]
                } else {
                    let mut c = vec![p];
                    c.extend(ready.into_iter().filter(|&t| t != p));
                    c
                }
            }
            _ => ready,
        }
    }

    /// Drive one execution to completion: repeatedly wait for the CPU
    /// to come back, pick the next thread, grant. Returns when every
    /// thread finished.
    fn run_controller(&self, cfg: &Config) {
        let mut st = self.state.lock().unwrap();
        loop {
            while st.active.is_some() {
                st = self.cv.wait(st).unwrap();
            }
            if st.status.iter().all(|&s| s == Status::Finished) {
                return;
            }
            if st.abort {
                // Drain: grant nothing; wake parked threads so they
                // observe the abort flag and unwind.
                self.cv.notify_all();
                st = self.cv.wait(st).unwrap();
                continue;
            }
            let alts = Self::candidates(&st, cfg.max_preemptions);
            if alts.is_empty() {
                let who: Vec<String> = (0..st.status.len())
                    .filter(|&t| st.status[t] != Status::Finished)
                    .map(|t| {
                        let what = match st.status[t] {
                            Status::BlockedMutex(m) => {
                                format!("blocked on mutex '{}'", st.mutexes[m].name)
                            }
                            Status::BlockedCond(c) => {
                                format!("waiting on condvar '{}'", st.conds[c].name)
                            }
                            _ => "ready".to_string(),
                        };
                        format!("t{t} {what} at {}", st.pending_op[t])
                    })
                    .collect();
                st.failure = Some(format!("deadlock: {}", who.join("; ")));
                st.abort = true;
                self.cv.notify_all();
                continue;
            }
            let step = st.trace.len();
            let chosen = if step < st.prefix.len() {
                let want = st.prefix[step];
                debug_assert!(
                    alts.contains(&want),
                    "replay diverged at step {step}: t{want} not in {alts:?}"
                );
                if alts.contains(&want) {
                    want
                } else {
                    alts[0]
                }
            } else {
                alts[0]
            };
            let chosen_idx = alts.iter().position(|&t| t == chosen).unwrap();
            if let Some(p) = st.last_running {
                if chosen != p && st.status[p] == Status::Ready {
                    st.preemptions += 1;
                }
            }
            let op = st.pending_op[chosen].clone();
            st.trace.push(Choice {
                chosen,
                alts,
                chosen_idx,
                op,
            });
            st.steps += 1;
            if st.steps > cfg.max_steps {
                st.failure = Some(format!(
                    "livelock: schedule exceeded {} steps",
                    cfg.max_steps
                ));
                st.abort = true;
                self.cv.notify_all();
                continue;
            }
            st.last_running = Some(chosen);
            st.active = Some(chosen);
            self.cv.notify_all();
        }
    }
}

/// The state lock held while an instrumented operation applies its
/// effect; exposes the scheduler state to the `sync` primitives.
pub(crate) struct OpGuard<'a> {
    exec: &'a Exec,
    st: Option<MutexGuard<'a, ExecState>>,
    tid: usize,
}

impl<'a> OpGuard<'a> {
    pub(crate) fn tid(&self) -> usize {
        self.tid
    }

    pub(crate) fn state(&mut self) -> &mut ExecState {
        self.st.as_mut().expect("op guard already consumed")
    }

    /// Fail the execution from inside an operation (consumes the guard;
    /// unwinds the thread).
    pub(crate) fn fail(mut self, message: String) -> ! {
        let st = self.st.take().expect("op guard already consumed");
        self.exec.fail(st, message)
    }

    /// Block the thread with `status` and re-check on wake via `ready`:
    /// loops block → wake → recheck until `ready` returns true, then
    /// returns with the lock held again.
    pub(crate) fn block_until(
        &mut self,
        status: Status,
        mut ready: impl FnMut(&mut ExecState, usize) -> bool,
    ) {
        loop {
            let st = self.st.take().expect("op guard already consumed");
            let mut st = self.exec.block(st, self.tid, status);
            st.clocks[self.tid].tick(self.tid);
            let ok = ready(&mut st, self.tid);
            self.st = Some(st);
            if ok {
                return;
            }
        }
    }
}

// Status values the sync layer needs to construct.
impl OpGuard<'_> {
    pub(crate) fn blocked_mutex(mid: usize) -> Status {
        Status::BlockedMutex(mid)
    }
    pub(crate) fn blocked_cond(cid: usize) -> Status {
        Status::BlockedCond(cid)
    }
    pub(crate) fn unblock_mutex_waiters(st: &mut ExecState, mid: usize) {
        Exec::unblock_mutex(st, mid);
    }
    pub(crate) fn make_cond_waiter_ready(st: &mut ExecState, tid: usize) {
        st.status[tid] = Status::Ready;
    }
}

// ---------------------------------------------------------------------------
// Thread-local context
// ---------------------------------------------------------------------------

#[derive(Clone)]
pub(crate) enum Ctx {
    /// Not inside the checker at all: primitives pass through to std.
    Inactive,
    /// Inside a model's setup/finale closure on the controller thread:
    /// primitives register with the execution but do not interleave.
    Setup(Arc<Exec>),
    /// A model thread: fully instrumented.
    Thread(Arc<Exec>, usize),
}

thread_local! {
    static CTX: RefCell<Ctx> = const { RefCell::new(Ctx::Inactive) };
}

pub(crate) fn current_ctx() -> Ctx {
    CTX.with(|c| c.borrow().clone())
}

fn set_ctx(ctx: Ctx) -> Ctx {
    CTX.with(|c| std::mem::replace(&mut *c.borrow_mut(), ctx))
}

// ---------------------------------------------------------------------------
// Builder + exploration driver
// ---------------------------------------------------------------------------

type ThreadBody = Box<dyn FnOnce() + Send + 'static>;
type FinaleBody = Box<dyn FnOnce() + 'static>;

/// Collects a model's threads (and optional finale) during setup.
pub struct Builder {
    threads: Vec<ThreadBody>,
    finale: Option<FinaleBody>,
}

impl Builder {
    /// Spawn a model thread. Bodies communicate only through
    /// [`crate::sync`] primitives (shared via [`crate::sync::Arc`]).
    pub fn thread(&mut self, body: impl FnOnce() + Send + 'static) {
        self.threads.push(Box::new(body));
    }

    /// Run `body` on the controller after every thread finished (and
    /// only on clean executions): the place for exactly-once /
    /// postcondition assertions. Primitive accesses here are
    /// passthrough — the execution is quiescent.
    pub fn finale(&mut self, body: impl FnOnce() + 'static) {
        self.finale = Some(Box::new(body));
    }
}

struct Outcome {
    trace: Vec<(usize, Vec<usize>, usize, String)>, // chosen, alts, chosen_idx, op
    failure: Option<Failure>,
}

fn seed_of(trace: &[(usize, Vec<usize>, usize, String)]) -> String {
    trace
        .iter()
        .map(|(chosen, ..)| chosen.to_string())
        .collect::<Vec<_>>()
        .join(".")
}

fn ops_of(trace: &[(usize, Vec<usize>, usize, String)]) -> Vec<String> {
    trace
        .iter()
        .map(|(chosen, _, _, op)| format!("t{chosen}:{op}"))
        .collect()
}

fn run_once(cfg: &Config, prefix: Vec<usize>, setup: &dyn Fn(&mut Builder)) -> Outcome {
    // Phase 1: setup under a provisional context so primitives can
    // register. Thread count is unknown until setup returns, so clocks
    // and per-thread vectors are sized afterwards (registration only
    // appends to object vectors, which is count-independent except for
    // the embedded clocks — those are resized below).
    let mut builder = Builder {
        threads: Vec::new(),
        finale: None,
    };
    // Two-pass sizing: run setup once against a throwaway count just to
    // learn the thread count, then rebuild? Cheaper: size for a fixed
    // cap and trim. The models here are tiny (<= 4 threads), so size
    // every clock for MAX_MODEL_THREADS and let unused components stay
    // zero — component-wise operations are oblivious to trailing zeros.
    let exec = Exec::new(MAX_MODEL_THREADS, prefix, cfg.weaken_orderings);
    let prev = set_ctx(Ctx::Setup(Arc::clone(&exec)));
    setup(&mut builder);
    set_ctx(prev);
    let Builder { threads, finale } = builder;
    let n = threads.len();
    assert!(
        (1..=MAX_MODEL_THREADS).contains(&n),
        "models must spawn 1..={MAX_MODEL_THREADS} threads, got {n}"
    );
    {
        // Threads beyond `n` never existed: mark them finished so the
        // controller's all-finished check sees only real ones.
        let mut st = exec.state.lock().unwrap();
        for t in n..MAX_MODEL_THREADS {
            st.status[t] = Status::Finished;
        }
    }

    let mut handles = Vec::with_capacity(n);
    for (tid, body) in threads.into_iter().enumerate() {
        let exec2 = Arc::clone(&exec);
        handles.push(
            std::thread::Builder::new()
                .name(format!("pp-check-{tid}"))
                .spawn(move || {
                    set_ctx(Ctx::Thread(Arc::clone(&exec2), tid));
                    exec2.thread_begin(tid);
                    let outcome = panic::catch_unwind(AssertUnwindSafe(body));
                    exec2.thread_done(tid, outcome.map(|_| ()));
                })
                .expect("spawning a model thread failed"),
        );
    }
    exec.run_controller(cfg);
    for handle in handles {
        let _ = handle.join();
    }

    let mut st = exec.state.lock().unwrap();
    let trace: Vec<_> = st
        .trace
        .drain(..)
        .map(|c| (c.chosen, c.alts, c.chosen_idx, c.op))
        .collect();
    let mut failure = st.failure.take().map(|message| Failure {
        message,
        seed: seed_of(&trace),
        ops: ops_of(&trace),
    });
    drop(st);

    if failure.is_none() {
        if let Some(finale) = finale {
            let prev = set_ctx(Ctx::Setup(Arc::clone(&exec)));
            let result = panic::catch_unwind(AssertUnwindSafe(finale));
            set_ctx(prev);
            if let Err(payload) = result {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "finale panicked".to_string());
                failure = Some(Failure {
                    message: format!("postcondition failed: {msg}"),
                    seed: seed_of(&trace),
                    ops: ops_of(&trace),
                });
            }
        }
    }
    Outcome { trace, failure }
}

/// Hard cap on model threads (the preemption-bounded DFS is built for
/// small models; clocks are statically sized to this).
pub const MAX_MODEL_THREADS: usize = 4;

fn next_prefix(trace: &[(usize, Vec<usize>, usize, String)]) -> Option<Vec<usize>> {
    for i in (0..trace.len()).rev() {
        let (_, alts, chosen_idx, _) = &trace[i];
        if chosen_idx + 1 < alts.len() {
            let mut prefix: Vec<usize> = trace[..i].iter().map(|(c, ..)| *c).collect();
            prefix.push(alts[chosen_idx + 1]);
            return Some(prefix);
        }
    }
    None
}

/// Explore every schedule of `setup`'s model within `cfg`'s bounds.
/// Deterministic: the same model and config always visit the same
/// schedules in the same order.
pub fn explore(name: &str, cfg: Config, setup: impl Fn(&mut Builder)) -> Report {
    install_panic_filter();
    let mut prefix = Vec::new();
    let mut schedules = 0usize;
    loop {
        let outcome = run_once(&cfg, prefix.clone(), &setup);
        schedules += 1;
        if let Some(failure) = outcome.failure {
            return Report {
                name: name.to_string(),
                schedules,
                complete: false,
                failure: Some(failure),
            };
        }
        if schedules >= cfg.max_schedules {
            return Report {
                name: name.to_string(),
                schedules,
                complete: false,
                failure: None,
            };
        }
        match next_prefix(&outcome.trace) {
            Some(p) => prefix = p,
            None => {
                return Report {
                    name: name.to_string(),
                    schedules,
                    complete: true,
                    failure: None,
                }
            }
        }
    }
}

/// Re-run exactly one schedule from a failure seed (see
/// [`Failure::seed`]); decisions beyond the seed follow the default
/// policy, so a prefix seed is also accepted.
pub fn replay(name: &str, seed: &str, cfg: Config, setup: impl Fn(&mut Builder)) -> Report {
    install_panic_filter();
    let prefix: Vec<usize> = seed
        .split('.')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().expect("seed entries are thread ids"))
        .collect();
    let outcome = run_once(&cfg, prefix, &setup);
    Report {
        name: name.to_string(),
        schedules: 1,
        complete: outcome.failure.is_none(),
        failure: outcome.failure,
    }
}
