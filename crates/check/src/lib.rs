//! # `pp-check` — concurrency model checker + unsafe-audit lint
//!
//! PR 5 turned `shims/rayon` into a real fork-join thread pool built on
//! `UnsafeCell` stack jobs, a mutex/condvar countdown latch, and
//! disjoint-pointer `Vec` writes. Repeated-run race smokes cannot
//! explore the schedules where such code breaks (the PR 5 review itself
//! caught a waiter-frees-frame-mid-notify use-after-free that no smoke
//! had seen), so this crate supplies the missing correctness tooling:
//!
//! 1. **A deterministic concurrency model checker** ([`sched`],
//!    [`sync`], [`models`]): loom-style schedule exploration for small
//!    ported models of the pool's protocols. Model threads run under a
//!    cooperative scheduler that context-switches only at instrumented
//!    operations, explores interleavings by depth-first search with
//!    **bounded preemptions**, and replays any failing schedule from a
//!    printable **seed string** (`"0.1.1.0"` = the thread chosen at
//!    each step). Vector-clock happens-before tracking flags data races
//!    on [`sync::RaceCell`] slots (the model of the pool's `UnsafeCell`
//!    fields), and [`sync::Frame`] lifetime tokens flag use-after-free
//!    of latch-owning stack frames.
//! 2. **A source-level unsafe audit** ([`audit`]): a dependency-free
//!    scanner that walks the workspace and enforces that every `unsafe`
//!    site carries a `// SAFETY:` justification, that no `static mut`
//!    exists, that crates with zero unsafe declare
//!    `#![forbid(unsafe_code)]`, and that crates with unsafe declare
//!    `#![deny(unsafe_op_in_unsafe_fn)]`.
//!
//! Both prongs run in tier-1 `cargo test -p pp-check`: `tests/models.rs`
//! explores every pool model (the seeded regressions and weakened
//! orderings as negative controls that must fail), and
//! `tests/audit_workspace.rs` audits the workspace.
//!
//! The checker itself is **100% safe Rust** (`#![forbid(unsafe_code)]`):
//! because model threads run one at a time, all checker-internal shared
//! state sits behind ordinary uncontended `std::sync` primitives.
//!
//! ## Replaying a failure
//!
//! Every failure report prints a seed. To re-run exactly that
//! interleaving (e.g. under a debugger or with extra logging), call
//! [`sched::replay`] with the seed and the same model — the scheduler
//! is deterministic, so the same seed reproduces the same execution,
//! operation for operation.
//!
//! ## Relation to `shims/rayon`
//!
//! The instrumented primitives in [`sync`] are drop-in shims for the
//! `std::sync` types the pool uses; `shims/rayon` selects them behind
//! `--cfg pp_check` (see `shims/rayon/src/pool.rs`), which proves the
//! real scheduler compiles and passes its test suite against the
//! instrumented layer (outside a model context every shim is a zero-
//! cost passthrough). The exhaustive schedule exploration runs on the
//! ported protocol models in [`models`], which mirror `pool.rs` line
//! for line at the synchronization level.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod audit;
pub mod clock;
pub mod fault;
pub mod fuzz;
pub mod models;
pub mod sched;
pub mod sync;

pub use sched::{explore, replay, Builder, Config, Report};
