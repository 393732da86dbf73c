//! Deterministic fault injection for the serving tier (`--cfg pp_fault`).
//!
//! PR 6 established the repo's robustness methodology: adversarial
//! executions must be **seeded and replayable**, never "run it a lot and
//! hope". This module extends that from schedules to *faults*. A
//! [`FaultPlan`] names injection **sites** (string labels compiled into
//! the serve path, e.g. `"serve.query.panic"`) and, per site, a firing
//! rate. Whether a particular operation faults is a **pure hash** of
//! `(plan seed, site, caller key)` — no global counters, no clocks — so
//! the fault schedule is a function of the plan alone: the same seed
//! string produces the same faults regardless of thread count,
//! interleaving, or how many times the trace is re-run. That is what
//! lets `pp-serve`'s `resilience.rs::seeded_faults_are_typed_and_replayable`
//! assert that two runs under one seed, on 1 and 8 workers, yield
//! byte-identical outcome sequences.
//!
//! The injection machinery is compiled in only under `--cfg pp_fault`
//! (mirroring `shims/rayon`'s `--cfg pp_check` instrumentation layer):
//! production builds carry zero probes — [`fires`] is a constant
//! `false` the optimizer deletes. Callers branch on [`ENABLED`] at
//! runtime instead of sprinkling `cfg` attributes.
//!
//! Three fault shapes cover the serving tier's failure surface:
//!
//! * **Injected panic** ([`panic_point`]) — unwinds with a quiet
//!   [`FaultPanic`] payload (the installed hook suppresses the default
//!   stderr backtrace for these, and only these), exercising
//!   `catch_unwind` isolation, scratch quarantine, and the cache's
//!   poison paths.
//! * **Forced deadline expiry** — the driver consults [`fires`] and
//!   pre-cancels the query's `CancelToken`, exercising the typed
//!   `DeadlineExceeded` path in every engine.
//! * **Prepare failure** — a panic point inside the cache's
//!   single-flight `prepare` closure, exercising leader-death recovery
//!   (followers must retry and elect exactly one new leader).
//!
//! ```
//! use pp_check::fault::FaultPlan;
//!
//! let plan = FaultPlan::new("pr9-smoke").with_rule("serve.query.panic", 8);
//! // Pure-hash decisions: same (seed, site, key) → same answer, always.
//! for key in 0..64u64 {
//!     assert_eq!(
//!         plan.would_fire("serve.query.panic", key),
//!         plan.would_fire("serve.query.panic", key),
//!     );
//! }
//! // Unlisted sites never fire.
//! assert!(!plan.would_fire("serve.other", 3));
//! ```

use std::sync::{Mutex, OnceLock};

/// True iff this build carries the injection machinery
/// (`RUSTFLAGS="--cfg pp_fault"`). Smoke binaries and seeded tests
/// check this at runtime and skip (successfully) when faults are
/// compiled out.
pub const ENABLED: bool = cfg!(pp_fault);

/// One injection rule: fire at `site` for roughly one in `one_in` keys
/// (exactly those whose decision hash is `0 mod one_in`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultRule {
    /// The injection site label this rule arms.
    pub site: &'static str,
    /// Firing rate denominator; `1` fires on every key. Must be ≥ 1.
    pub one_in: u64,
}

/// A seeded fault schedule: which sites fire, for which keys. Decisions
/// are pure ([`FaultPlan::would_fire`]); installing the plan globally
/// ([`install`]) is what makes the compiled-in probes consult it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: String,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan under `seed`. The seed string is the replay
    /// handle: print it with any failure, and re-running under the same
    /// seed reproduces the same fault schedule.
    pub fn new(seed: &str) -> Self {
        Self {
            seed: seed.to_string(),
            rules: Vec::new(),
        }
    }

    /// Arm `site` to fire for one in `one_in` keys.
    pub fn with_rule(mut self, site: &'static str, one_in: u64) -> Self {
        assert!(one_in >= 1, "one_in must be >= 1");
        self.rules.push(FaultRule { site, one_in });
        self
    }

    /// The plan's replay seed.
    pub fn seed(&self) -> &str {
        &self.seed
    }

    /// The pure decision function: does `site` fault for `key` under
    /// this plan? Deterministic in `(seed, site, key)` alone — thread
    /// count, wall clock and call order are all invisible to it.
    pub fn would_fire(&self, site: &str, key: u64) -> bool {
        self.rules
            .iter()
            .filter(|r| r.site == site)
            .any(|r| decision_hash(&self.seed, site, key).is_multiple_of(r.one_in))
    }
}

/// FNV-1a over `(seed, site, key)` — the decision hash behind
/// [`FaultPlan::would_fire`]. Stable across platforms and runs.
fn decision_hash(seed: &str, site: &str, key: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(seed.as_bytes());
    eat(&[0xff]); // separator: ("ab","c") never collides with ("a","bc")
    eat(site.as_bytes());
    eat(&key.to_le_bytes());
    h
}

/// The panic payload every [`panic_point`] unwinds with. Typed so the
/// serve driver can classify injected panics, and so the panic hook can
/// keep injected unwinds off stderr while real panics still print.
#[derive(Debug)]
pub struct FaultPanic {
    /// The site that fired.
    pub site: &'static str,
}

fn plan_slot() -> &'static Mutex<Option<FaultPlan>> {
    static SLOT: OnceLock<Mutex<Option<FaultPlan>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Install `plan` as the process-global fault schedule and silence the
/// default panic printout for [`FaultPanic`] unwinds. No-op (plan
/// dropped) unless built with `--cfg pp_fault`.
pub fn install(plan: FaultPlan) {
    if !ENABLED {
        return;
    }
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<FaultPanic>().is_none() {
                prev(info);
            }
        }));
    });
    *plan_slot().lock().unwrap() = Some(plan);
}

/// Remove the global fault schedule; probes go quiet again.
pub fn clear() {
    if ENABLED {
        *plan_slot().lock().unwrap() = None;
    }
}

/// Does the globally installed plan fire `site` for `key`? Constant
/// `false` when faults are compiled out or no plan is installed.
pub fn fires(site: &str, key: u64) -> bool {
    if !ENABLED {
        return false;
    }
    plan_slot()
        .lock()
        .unwrap()
        .as_ref()
        .is_some_and(|p| p.would_fire(site, key))
}

/// A compiled-in panic probe: if the installed plan fires `site` for
/// `key`, unwind with a quiet [`FaultPanic`] payload. The serve path
/// calls this inside its `catch_unwind` boundaries; everything outside
/// them must never host a probe.
pub fn panic_point(site: &'static str, key: u64) {
    if fires(site, key) {
        std::panic::panic_any(FaultPanic { site });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_seed_sensitive() {
        let a = FaultPlan::new("seed-a").with_rule("site", 4);
        let b = FaultPlan::new("seed-b").with_rule("site", 4);
        let fires_a: Vec<bool> = (0..256).map(|k| a.would_fire("site", k)).collect();
        let fires_b: Vec<bool> = (0..256).map(|k| b.would_fire("site", k)).collect();
        // Replayable: the same plan gives the same schedule.
        assert_eq!(
            fires_a,
            (0..256)
                .map(|k| a.would_fire("site", k))
                .collect::<Vec<_>>()
        );
        // Seed-sensitive: different seeds give different schedules.
        assert_ne!(fires_a, fires_b);
        // Rate roughly honored: one-in-4 over 256 keys lands well away
        // from "never" and "always".
        let n = fires_a.iter().filter(|&&f| f).count();
        assert!(n > 16 && n < 160, "one-in-4 fired {n}/256");
    }

    #[test]
    fn one_in_one_always_fires_and_unlisted_sites_never() {
        let plan = FaultPlan::new("s").with_rule("always", 1);
        assert!((0..64).all(|k| plan.would_fire("always", k)));
        assert!((0..64).all(|k| !plan.would_fire("unlisted", k)));
    }

    #[test]
    fn probes_are_silent_without_install() {
        // Whether or not pp_fault is compiled in, an uninstalled probe
        // never fires.
        clear();
        assert!(!fires("serve.query.panic", 7));
        panic_point("serve.query.panic", 7); // must not panic
    }

    #[test]
    fn installed_plan_drives_global_probes() {
        if !ENABLED {
            return; // compiled out: install is a no-op by design
        }
        install(FaultPlan::new("global").with_rule("g.site", 1));
        assert!(fires("g.site", 0));
        let err = std::panic::catch_unwind(|| panic_point("g.site", 3)).unwrap_err();
        assert_eq!(err.downcast_ref::<FaultPanic>().unwrap().site, "g.site");
        clear();
        assert!(!fires("g.site", 0));
    }
}
