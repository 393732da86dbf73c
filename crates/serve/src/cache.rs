//! [`InstanceCache`]: the scenario-keyed LRU cache of shared prepared
//! instances, with single-flight preparation.
//!
//! The serving tier's working set is a set of prepared instances — one
//! per `(registry entry, scenario, size, seed)` — each costing real
//! memory (CSR mirrors, edge lists, precomputed weights). The cache
//! holds them under a configurable **cost budget**: every resident
//! instance carries its bytes-estimate, and inserting past the budget
//! evicts least-recently-used instances until the total fits again.
//! Eviction is safe at any moment because residents are
//! [`SharedPrepared`] handles: a worker that checked an instance out
//! keeps it alive through its own `Arc` clone, the eviction merely
//! drops the cache's.
//!
//! **Single-flight:** preparation is expensive (that is the whole point
//! of caching it), so a burst of misses on one key must not prepare the
//! instance once per waiter. The first miss installs a *pending* slot
//! and prepares outside the map lock; later arrivals find the pending
//! slot and block on its condvar, then share the leader's instance.
//! The `prepares` counter counts actual `prepare()` executions — the
//! single-flight property test asserts it stays at 1 under a
//! same-key stampede.
//!
//! Counters (hits / misses / coalesced / evictions / prepares) are
//! monotone, lock-free to read, and exportable into the workspace's
//! [`ExecutionStats`] named-counter currency via
//! [`InstanceCache::export_counters`].

use phase_parallel::ExecutionStats;
use pp_algos::serving::SharedPrepared;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

thread_local! {
    /// Number of single-flight preparations currently executing on this
    /// thread's stack. While it is non-zero this thread must never
    /// block on another flight: the workspace pool is a *helping*
    /// scheduler (a thread waiting on a fork-join latch drains the
    /// shared job queue), so a leader whose `prepare()` spawns parallel
    /// work can end up executing an unrelated serving job mid-prepare —
    /// and if that job then waited on the very flight pinned lower on
    /// this stack, both would deadlock. Such lookups prepare a private
    /// uncached instance instead (see [`InstanceCache::get_or_prepare`]).
    static LEADING: Cell<usize> = const { Cell::new(0) };
}

/// One in-flight preparation: the leader resolves `slot` and notifies;
/// followers wait on the condvar and act on the outcome.
struct Flight {
    slot: Mutex<FlightOutcome>,
    ready: Condvar,
}

enum FlightOutcome {
    /// The leader is still preparing.
    Waiting,
    /// The prepared instance, ready to clone.
    Done(SharedPrepared),
    /// The leader's `prepare()` unwound; followers retry the lookup.
    Abandoned,
}

/// A cache slot: a resident instance, or a preparation in flight.
enum Slot {
    Ready {
        instance: SharedPrepared,
        cost: usize,
        last_used: u64,
        /// Queries against this resident that unwound ([`
        /// InstanceCache::record_query_panic`]). At
        /// [`InstanceCache::POISON_EVICT_AFTER`] the instance is deemed
        /// poisoned and evicted, so a corrupt prepared structure cannot
        /// keep taking workers down from the cache forever.
        panics: u64,
    },
    Pending(Arc<Flight>),
}

/// The locked interior: the key → slot map plus the LRU clock and the
/// resident-cost accumulator.
struct State {
    slots: HashMap<String, Slot>,
    /// Monotone use clock; each touch stamps `last_used`.
    tick: u64,
    /// Total cost of `Ready` residents (pending slots cost nothing
    /// until installed).
    resident: usize,
}

/// Monotone counter snapshot — see [`InstanceCache::snapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from a resident instance.
    pub hits: u64,
    /// Lookups that found no resident instance (leaders + followers).
    pub misses: u64,
    /// The subset of misses that piggybacked on another lookup's
    /// in-flight preparation (the inflight-dedup counter).
    pub coalesced: u64,
    /// Resident instances dropped to fit the budget.
    pub evictions: u64,
    /// Actual `prepare()` executions — `misses - coalesced` when no
    /// instance was ever evicted and re-prepared.
    pub prepares: u64,
    /// Prepared instances rejected from residency because their cost
    /// alone exceeds the whole budget — served uncached by a typed
    /// decision, not installed-then-self-evicted.
    pub oversized: u64,
    /// Residents evicted through the poison path: their queries
    /// panicked [`InstanceCache::POISON_EVICT_AFTER`] times.
    pub poison_evictions: u64,
    /// Current resident cost in bytes (not monotone; diagnostics).
    pub resident_bytes: u64,
    /// Current resident instance count (not monotone; diagnostics).
    pub entries: u64,
}

impl CacheCounters {
    /// `hits / (hits + misses)`, 0 when idle — the serving bench's
    /// `cache_hit_rate` column.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// The scenario-keyed LRU instance cache. All methods take `&self`;
/// one cache is shared by every worker of a serving tier.
pub struct InstanceCache {
    budget: usize,
    state: Mutex<State>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    prepares: AtomicU64,
    oversized: AtomicU64,
    poison_evictions: AtomicU64,
}

impl InstanceCache {
    /// Query-panic count at which a resident instance is deemed
    /// poisoned and evicted (see [`InstanceCache::record_query_panic`]).
    pub const POISON_EVICT_AFTER: u64 = 3;

    /// A cache evicting LRU-first past `budget_bytes` of resident
    /// instance cost. A single instance costing more than the whole
    /// budget is still served — it is rejected from residency up front
    /// (the `oversized` counter) rather than cached.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            budget: budget_bytes,
            state: Mutex::new(State {
                slots: HashMap::new(),
                tick: 0,
                resident: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            prepares: AtomicU64::new(0),
            oversized: AtomicU64::new(0),
            poison_evictions: AtomicU64::new(0),
        }
    }

    /// The configured cost budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Look `key` up; on a miss, prepare via `prepare` (at most one
    /// concurrent execution per key — a stampede of misses coalesces
    /// onto the leader's flight) and install the result under the LRU
    /// budget. Returns a handle the caller owns outright: eviction can
    /// never invalidate it.
    ///
    /// Deadlock freedom on the helping scheduler: a thread already
    /// executing a `prepare()` (see the `LEADING` thread-local) never waits on a
    /// flight — it prepares a private, uncached instance. That costs an
    /// extra preparation in a rare re-entrant corner but can never
    /// block the leader the waiter might be stacked on.
    pub fn get_or_prepare(
        &self,
        key: &str,
        prepare: impl FnOnce() -> SharedPrepared,
    ) -> SharedPrepared {
        let mut prepare = Some(prepare);
        loop {
            let flight = {
                let mut state = self.state.lock().expect("cache lock");
                state.tick += 1;
                let tick = state.tick;
                match state.slots.get_mut(key) {
                    Some(Slot::Ready {
                        instance,
                        last_used,
                        ..
                    }) => {
                        *last_used = tick;
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return instance.clone();
                    }
                    Some(Slot::Pending(flight)) => {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        if LEADING.with(Cell::get) > 0 {
                            // Mid-prepare re-entrancy: waiting could
                            // deadlock on our own stack. Serve a
                            // private instance; the leader's result
                            // becomes the cached one.
                            drop(state);
                            self.prepares.fetch_add(1, Ordering::Relaxed);
                            let prepare = prepare.take().expect("bypass happens once");
                            return prepare();
                        }
                        // Coalesce onto the in-flight preparation.
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                        let flight = Arc::clone(flight);
                        drop(state);
                        let mut slot = flight.slot.lock().expect("flight lock");
                        loop {
                            match &*slot {
                                FlightOutcome::Waiting => {
                                    slot = flight.ready.wait(slot).expect("flight wait");
                                }
                                FlightOutcome::Done(instance) => return instance.clone(),
                                FlightOutcome::Abandoned => break,
                            }
                        }
                        // The leader unwound; retry from the top (we may
                        // become the new leader).
                        continue;
                    }
                    None => {
                        // Miss leader: claim the key with a pending slot
                        // so the stampede coalesces, then prepare
                        // *outside* the map lock.
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        let flight = Arc::new(Flight {
                            slot: Mutex::new(FlightOutcome::Waiting),
                            ready: Condvar::new(),
                        });
                        state
                            .slots
                            .insert(key.to_string(), Slot::Pending(Arc::clone(&flight)));
                        flight
                    }
                }
            };

            self.prepares.fetch_add(1, Ordering::Relaxed);
            let guard = FlightGuard::enter(self, key, &flight);
            let prepare = prepare.take().expect("at most one leadership per call");
            let instance = prepare();
            guard.disarm();

            {
                let mut state = self.state.lock().expect("cache lock");
                state.tick += 1;
                let tick = state.tick;
                let cost = instance.cost_bytes();
                if cost > self.budget {
                    // Typed rejection: an instance whose cost alone
                    // exceeds the whole budget can never be retained, so
                    // it is served uncached — the pending claim is
                    // withdrawn (followers still get the instance via
                    // the flight below) instead of installing a resident
                    // that the next insert would evict anyway.
                    self.oversized.fetch_add(1, Ordering::Relaxed);
                    if matches!(state.slots.get(key),
                                Some(Slot::Pending(pending)) if Arc::ptr_eq(pending, &flight))
                    {
                        state.slots.remove(key);
                    }
                } else {
                    state.slots.insert(
                        key.to_string(),
                        Slot::Ready {
                            instance: instance.clone(),
                            cost,
                            last_used: tick,
                            panics: 0,
                        },
                    );
                    state.resident += cost;
                    self.evict_to_budget(&mut state);
                }
            }

            let mut slot = flight.slot.lock().expect("flight lock");
            *slot = FlightOutcome::Done(instance.clone());
            flight.ready.notify_all();
            drop(slot);

            return instance;
        }
    }

    /// Drop LRU residents until the budget holds. Pending slots are
    /// never evicted (their cost is not yet counted), and an instance
    /// larger than the whole budget never reaches here — it is rejected
    /// from residency before insertion (the `oversized` counter).
    fn evict_to_budget(&self, state: &mut State) {
        while state.resident > self.budget {
            let victim = state
                .slots
                .iter()
                .filter_map(|(key, slot)| match slot {
                    Slot::Ready {
                        last_used, cost, ..
                    } => Some((*last_used, key.clone(), *cost)),
                    Slot::Pending(_) => None,
                })
                .min()
                .map(|(_, key, cost)| (key, cost));
            let Some((key, cost)) = victim else {
                break; // nothing evictable (all pending)
            };
            state.slots.remove(&key);
            state.resident -= cost;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record that a query against the resident instance under `key`
    /// panicked. At [`InstanceCache::POISON_EVICT_AFTER`] strikes the
    /// resident is evicted (counted under both `evictions` and
    /// `poison_evictions`) so the next lookup prepares a fresh
    /// instance. Returns `true` iff this call evicted. Workers that
    /// checked the instance out keep their handles — eviction only
    /// drops the cache's.
    pub fn record_query_panic(&self, key: &str) -> bool {
        let mut state = self.state.lock().expect("cache lock");
        if let Some(Slot::Ready { panics, cost, .. }) = state.slots.get_mut(key) {
            *panics += 1;
            if *panics >= Self::POISON_EVICT_AFTER {
                let cost = *cost;
                state.slots.remove(key);
                state.resident -= cost;
                self.evictions.fetch_add(1, Ordering::Relaxed);
                self.poison_evictions.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// A consistent snapshot of the counters.
    pub fn snapshot(&self) -> CacheCounters {
        let state = self.state.lock().expect("cache lock");
        let entries = state
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Ready { .. }))
            .count() as u64;
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            prepares: self.prepares.load(Ordering::Relaxed),
            oversized: self.oversized.load(Ordering::Relaxed),
            poison_evictions: self.poison_evictions.load(Ordering::Relaxed),
            resident_bytes: state.resident as u64,
            entries,
        }
    }

    /// Export the counters as `ExecutionStats` named counters
    /// (`"cache_hits"`, `"cache_misses"`, `"cache_coalesced"`,
    /// `"cache_evictions"`, `"cache_prepares"`, `"cache_oversized"`,
    /// `"cache_poison_evictions"`, `"cache_resident_bytes"`) — the
    /// workspace's uniform stats currency, so bench rows and reports
    /// carry cache behavior alongside rounds and frontier sizes.
    pub fn export_counters(&self, stats: &mut ExecutionStats) {
        let snap = self.snapshot();
        stats.set_counter("cache_hits", snap.hits);
        stats.set_counter("cache_misses", snap.misses);
        stats.set_counter("cache_coalesced", snap.coalesced);
        stats.set_counter("cache_evictions", snap.evictions);
        stats.set_counter("cache_prepares", snap.prepares);
        stats.set_counter("cache_oversized", snap.oversized);
        stats.set_counter("cache_poison_evictions", snap.poison_evictions);
        stats.set_counter("cache_resident_bytes", snap.resident_bytes);
    }
}

/// Leader-side RAII: marks this thread as mid-prepare (see [`LEADING`])
/// and, if the preparation unwinds instead of completing, withdraws the
/// pending slot and wakes the followers so they retry rather than wait
/// forever on a flight nobody will finish.
struct FlightGuard<'a> {
    cache: &'a InstanceCache,
    key: &'a str,
    flight: &'a Arc<Flight>,
    completed: bool,
}

impl<'a> FlightGuard<'a> {
    fn enter(cache: &'a InstanceCache, key: &'a str, flight: &'a Arc<Flight>) -> Self {
        LEADING.with(|depth| depth.set(depth.get() + 1));
        Self {
            cache,
            key,
            flight,
            completed: false,
        }
    }

    fn disarm(mut self) {
        self.completed = true;
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        LEADING.with(|depth| depth.set(depth.get() - 1));
        if self.completed {
            return;
        }
        // Unwinding out of `prepare()`: withdraw our pending claim (if
        // it is still ours) and tell the followers to retry. Poisoned
        // locks are fine to enter — the protected state was written
        // only under short panic-free sections.
        let mut state = match self.cache.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if matches!(state.slots.get(self.key),
                    Some(Slot::Pending(pending)) if Arc::ptr_eq(pending, self.flight))
        {
            state.slots.remove(self.key);
        }
        drop(state);
        let mut slot = match self.flight.slot.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        *slot = FlightOutcome::Abandoned;
        self.flight.ready.notify_all();
    }
}

impl std::fmt::Debug for InstanceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("InstanceCache")
            .field("budget_bytes", &self.budget)
            .field("counters", &snap)
            .finish()
    }
}
