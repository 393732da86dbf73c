//! Property tests for the instance cache: the LRU budget invariant,
//! counter monotonicity, and the single-flight guarantee (N concurrent
//! misses on one key run `prepare()` exactly once).

#![forbid(unsafe_code)]

use pp_algos::api::Lis;
use pp_serve::{CacheCounters, InstanceCache, SharedPrepared};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// A cheap instance with an arbitrary advertised cost — preparation
/// cost is irrelevant to the cache invariants under test.
fn stub_instance(cost: usize) -> SharedPrepared {
    SharedPrepared::new("lis", Lis, vec![3i64, 1, 4, 1, 5], cost)
}

/// Each counter the docs call monotone must never decrease.
fn assert_monotone(before: &CacheCounters, after: &CacheCounters) {
    assert!(after.hits >= before.hits, "hits shrank");
    assert!(after.misses >= before.misses, "misses shrank");
    assert!(after.coalesced >= before.coalesced, "coalesced shrank");
    assert!(after.evictions >= before.evictions, "evictions shrank");
    assert!(after.prepares >= before.prepares, "prepares shrank");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // After every single operation: resident bytes never exceed the
    // budget, the counters never decrease, and coalesced/prepares
    // stay consistent with misses.
    #[test]
    fn lru_budget_and_counter_monotonicity_hold_under_random_ops(
        budget in 1usize..4096,
        ops in prop::collection::vec((0u64..12, 1usize..1024), 1..80),
    ) {
        let cache = InstanceCache::new(budget);
        let mut last = cache.snapshot();
        for (key_id, cost) in ops {
            let key = format!("entry|scenario-{key_id}");
            let instance = cache.get_or_prepare(&key, || stub_instance(cost));
            // The returned handle is usable regardless of eviction.
            prop_assert_eq!(instance.entry_name(), "lis");

            let snap = cache.snapshot();
            prop_assert!(
                snap.resident_bytes <= budget as u64,
                "resident {} exceeds budget {budget}",
                snap.resident_bytes
            );
            assert_monotone(&last, &snap);
            prop_assert!(snap.coalesced <= snap.misses);
            // Every lookup is exactly one hit or one miss.
            prop_assert_eq!(snap.hits + snap.misses, last.hits + last.misses + 1);
            last = snap;
        }
        // Sequential use never coalesces.
        prop_assert_eq!(last.coalesced, 0);
        // Every miss was a leader, so each ran a prepare.
        prop_assert_eq!(last.prepares, last.misses);
    }

    // Re-requesting a resident key is always a hit and never evicts.
    #[test]
    fn resident_rerequests_hit(key_count in 1u64..6, cost in 1usize..64) {
        // Budget comfortably fits every key.
        let cache = InstanceCache::new(cost * 8);
        for id in 0..key_count {
            cache.get_or_prepare(&format!("k{id}"), || stub_instance(cost));
        }
        let before = cache.snapshot();
        for id in 0..key_count {
            cache.get_or_prepare(&format!("k{id}"), || stub_instance(cost));
        }
        let after = cache.snapshot();
        prop_assert_eq!(after.hits, before.hits + key_count);
        prop_assert_eq!(after.misses, before.misses);
        prop_assert_eq!(after.evictions, before.evictions);
    }
}

/// The single-flight guarantee: a stampede of concurrent misses on one
/// key executes `prepare()` exactly once — the `prepares` build
/// counter proves the followers coalesced onto the leader's
/// flight instead of preparing their own instance.
#[test]
fn concurrent_misses_prepare_exactly_once() {
    const THREADS: usize = 8;
    for round in 0..16 {
        let cache = Arc::new(InstanceCache::new(1 << 20));
        let builds = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(Barrier::new(THREADS));
        let key = format!("stampede-{round}");

        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let builds = Arc::clone(&builds);
                let barrier = Arc::clone(&barrier);
                let key = key.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_prepare(&key, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        stub_instance(256)
                    })
                })
            })
            .collect();
        let instances: Vec<SharedPrepared> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();

        assert_eq!(
            builds.load(Ordering::SeqCst),
            1,
            "round {round}: stampede must prepare exactly once"
        );
        let snap = cache.snapshot();
        assert_eq!(snap.prepares, 1, "round {round}: {snap:?}");
        assert_eq!(snap.hits + snap.misses, THREADS as u64, "round {round}");
        assert_eq!(
            snap.misses,
            snap.coalesced + 1,
            "round {round}: every miss but the leader coalesces: {snap:?}"
        );
        // Everyone got a handle to the same underlying instance: the
        // cache's resident clone + THREADS caller clones.
        assert!(instances[0].handle_count() >= 2, "shared, not duplicated");
    }
}

/// An instance larger than the entire budget is a typed rejection: it
/// is served uncached (`oversized` counter), never installed, and
/// smaller residents are untouched — no evict-everything-then-insert.
#[test]
fn over_budget_instance_is_served_not_retained() {
    let cache = InstanceCache::new(100);
    cache.get_or_prepare("small", || stub_instance(40));
    let big = cache.get_or_prepare("big", || stub_instance(1000));
    assert_eq!(big.cost_bytes(), 1000);

    let snap = cache.snapshot();
    assert_eq!(snap.oversized, 1, "{snap:?}");
    assert_eq!(
        snap.evictions, 0,
        "oversized insert must not evict: {snap:?}"
    );
    assert_eq!(snap.resident_bytes, 40, "{snap:?}");
    assert_eq!(snap.entries, 1, "{snap:?}");
    // The small resident survived the oversized arrival...
    cache.get_or_prepare("small", || {
        panic!("small was evicted by an oversized insert")
    });
    // ...and the oversized key is prepared afresh each time (served,
    // never retained).
    let again = cache.get_or_prepare("big", || stub_instance(1000));
    assert_eq!(again.cost_bytes(), 1000);
    assert_eq!(cache.snapshot().oversized, 2);
    assert_eq!(big.entry_name(), "lis");
}

/// Eviction follows recency: with a budget of two, touching the older
/// resident flips which key the next insert evicts.
#[test]
fn eviction_is_least_recently_used() {
    let cache = InstanceCache::new(200);
    cache.get_or_prepare("a", || stub_instance(100));
    cache.get_or_prepare("b", || stub_instance(100));
    // Touch "a" so "b" becomes LRU.
    cache.get_or_prepare("a", || panic!("a is resident"));
    cache.get_or_prepare("c", || stub_instance(100));

    let before = cache.snapshot();
    // "a" must still be resident (hit); "b" must have been evicted.
    cache.get_or_prepare("a", || panic!("a was evicted out of LRU order"));
    let miss_was_b = cache.snapshot();
    cache.get_or_prepare("b", || stub_instance(100));
    let after = cache.snapshot();
    assert_eq!(miss_was_b.hits, before.hits + 1);
    assert_eq!(after.misses, miss_was_b.misses + 1, "b was gone: {after:?}");
}
