//! Cooperative cancellation: [`CancelToken`] and the typed run outcome.
//!
//! A serving tier cannot let one pathological query hold a worker
//! forever, so queries carry an optional **deadline**: the driver
//! attaches a [`CancelToken`] to the [`RunConfig`](crate::RunConfig)
//! (via [`RunConfig::with_deadline`](crate::RunConfig::with_deadline)),
//! and **every** engine loop in the registry *polls* it — the shared
//! Type 1 / Type 2 / speculative-for engines at round granularity, the
//! SSSP loops additionally at packet/substep granularity, and the
//! asynchronous TAS cascades (MIS, coloring) at cascade-level
//! granularity. A poll
//! is observation-free — it never changes what the algorithm computes,
//! only whether it keeps going — so a run whose deadline never fires is
//! byte-identical to a run with no deadline at all (the conformance
//! suite pins this registry-wide). When the token trips, the engine
//! stops at the next poll and returns its partial state under a typed
//! [`RunOutcome::DeadlineExceeded`] instead of running unbounded.
//!
//! The token is a shared atomic flag plus an optional wall-clock
//! deadline, so three parties compose without coordination:
//!
//! * the **driver** arms a budget (`CancelToken::with_budget`),
//! * any holder can **force** expiry (`CancelToken::cancel`) — how the
//!   fault harness injects deadline expiry deterministically,
//! * the **engine** polls (`CancelToken::is_cancelled`), paying one
//!   relaxed atomic load on the fast path.
//!
//! ```
//! use phase_parallel::{CancelToken, RunConfig};
//! use std::time::Duration;
//!
//! // A generous budget that will never fire: the run is unaffected.
//! let cfg = RunConfig::seeded(7).with_deadline(Duration::from_secs(3600));
//! assert!(!cfg.is_cancelled());
//!
//! // Forced expiry (what the fault harness does):
//! let token = CancelToken::new();
//! let cfg = RunConfig::seeded(7).with_cancel_token(token.clone());
//! token.cancel();
//! assert!(cfg.is_cancelled());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a phase-parallel run ended: to completion, or stopped early at a
/// cancellation poll. Carried by every [`Report`](crate::Report);
/// defaults to [`RunOutcome::Completed`] everywhere, so only engines
/// that actually poll ever produce the other arm.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// The run finished; the output is the algorithm's full answer.
    #[default]
    Completed,
    /// A cancellation poll observed a tripped [`CancelToken`]: the run
    /// stopped early and the output is *partial* (whatever state the
    /// engine had settled when it stopped — deterministic only if the
    /// trip point is). Stats cover the work actually done.
    DeadlineExceeded,
}

impl RunOutcome {
    /// True iff the run ran to completion.
    pub fn is_complete(self) -> bool {
        matches!(self, RunOutcome::Completed)
    }
}

/// Shared interior of a [`CancelToken`].
struct Inner {
    /// Set once by [`CancelToken::cancel`] or by the first poll that
    /// observes the deadline passed; never cleared.
    cancelled: AtomicBool,
    /// Wall-clock deadline, fixed at token construction (`None` =
    /// manual cancellation only).
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle: a shared atomic flag plus an
/// optional wall-clock deadline. Clones share state — cancelling any
/// clone trips them all. See the [module docs](self).
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token with no deadline: trips only via [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self::build(None)
    }

    /// A token that trips `budget` from *now*. The clock starts at
    /// construction, not first poll — build the token when the query
    /// starts, not when the config template is built.
    pub fn with_budget(budget: Duration) -> Self {
        Self::build(Some(Instant::now().checked_add(budget).unwrap_or_else(
            || Instant::now() + Duration::from_secs(86_400 * 365),
        )))
    }

    fn build(deadline: Option<Instant>) -> Self {
        Self {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline,
            }),
        }
    }

    /// Trip the token now (idempotent). Every holder's next poll
    /// observes it.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Poll: has this token tripped (manually, or past its deadline)?
    /// Fast path is one relaxed load; the deadline clock is consulted
    /// only until the first trip, which latches the flag.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(at) if Instant::now() >= at => {
                // Latch so later polls skip the clock read.
                self.inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// True iff this token carries a wall-clock deadline.
    pub fn has_deadline(&self) -> bool {
        self.inner.deadline.is_some()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

/// Tokens compare by identity (shared state), not by observed value:
/// two independently-built tokens are never equal even if both are
/// untripped. This is what lets [`RunConfig`](crate::RunConfig) keep
/// its derived `PartialEq`: configs are equal iff they share the same
/// cancellation state.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for CancelToken {}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.inner.cancelled.load(Ordering::Relaxed))
            .field("has_deadline", &self.has_deadline())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_cancel_trips_all_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled());
        assert!(!c.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled());
        assert!(c.is_cancelled());
    }

    #[test]
    fn zero_budget_is_expired_immediately() {
        let t = CancelToken::with_budget(Duration::ZERO);
        assert!(t.is_cancelled());
        // Latched: still cancelled on re-poll.
        assert!(t.is_cancelled());
    }

    #[test]
    fn generous_budget_does_not_trip() {
        let t = CancelToken::with_budget(Duration::from_secs(3600));
        assert!(!t.is_cancelled());
        assert!(t.has_deadline());
    }

    #[test]
    fn identity_equality() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        assert_ne!(a, b, "distinct tokens are never equal");
        assert_eq!(a, a.clone(), "clones share identity");
    }

    #[test]
    fn outcome_default_is_completed() {
        assert!(RunOutcome::default().is_complete());
        assert!(!RunOutcome::DeadlineExceeded.is_complete());
    }
}
