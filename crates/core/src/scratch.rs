//! [`Scratch`]: a reusable per-query workspace for prepared solves.
//!
//! The prepare/query split amortizes *instance construction* across
//! queries; `Scratch` amortizes the *per-query buffers* — distance
//! arrays, frontier vectors, bucket queues, wake-up pools — that a
//! one-shot solve would allocate and free on every call. A query takes
//! the buffers it needs out of the workspace by name, uses them, and
//! puts them back; the next query on the same workspace finds them
//! already sized (capacity is retained, contents are cleared), so
//! steady-state query paths perform no heap growth at all.
//!
//! The workspace is untyped storage with typed accessors: a slot is
//! keyed by `(name, type)`, so the same name can even be reused at
//! different types without collision (though algorithms should not rely
//! on that). Taking a slot that was never put — or that a concurrent
//! family left at another type — simply yields an empty buffer, which
//! makes every algorithm correct on a fresh workspace by construction.
//!
//! ```
//! use phase_parallel::Scratch;
//!
//! let mut scratch = Scratch::new();
//! let mut dist = scratch.take_vec::<u64>("dist");
//! dist.resize(1024, u64::MAX);
//! scratch.put_vec("dist", dist);
//!
//! // The next take gets the same 1024-capacity buffer back, cleared.
//! let dist = scratch.take_vec::<u64>("dist");
//! assert!(dist.is_empty());
//! assert!(dist.capacity() >= 1024);
//! assert_eq!(scratch.reuses(), 1);
//! ```

use std::any::{Any, TypeId};
use std::collections::HashMap;

/// A pool of named, typed buffers reused across prepared queries. See
/// the [module docs](self) for the take/put protocol.
///
/// `Scratch` is `Send` but deliberately not shared: batched solvers
/// hand one workspace to each worker (e.g. via `map_init`) rather than
/// synchronizing on a single one.
#[derive(Default)]
pub struct Scratch {
    slots: HashMap<(&'static str, TypeId), Box<dyn Any + Send>>,
    takes: u64,
    reuses: u64,
    puts: u64,
}

impl Scratch {
    /// An empty workspace. Every `take_*` on it returns an empty
    /// buffer; capacity accumulates as queries put buffers back.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the named `Vec<T>` buffer out of the workspace: cleared,
    /// with whatever capacity its last user left behind (empty if the
    /// slot was never filled). Pair with [`Scratch::put_vec`].
    pub fn take_vec<T: Send + 'static>(&mut self, name: &'static str) -> Vec<T> {
        self.takes += 1;
        match self.remove::<Vec<T>>(name) {
            Some(mut v) => {
                self.reuses += 1;
                v.clear();
                v
            }
            None => Vec::new(),
        }
    }

    /// Return a buffer taken with [`Scratch::take_vec`] so the next
    /// query can reuse its capacity.
    pub fn put_vec<T: Send + 'static>(&mut self, name: &'static str, v: Vec<T>) {
        self.insert(name, v);
    }

    /// Take a named two-level buffer (e.g. a bucket queue). The outer
    /// spine keeps its length and every inner vector is cleared in
    /// place, so *inner* capacities survive too — `Vec::clear` on the
    /// outer vector would drop them. Pair with [`Scratch::put_nested`].
    pub fn take_nested<T: Send + 'static>(&mut self, name: &'static str) -> Vec<Vec<T>> {
        self.takes += 1;
        match self.remove::<Vec<Vec<T>>>(name) {
            Some(mut v) => {
                self.reuses += 1;
                for inner in &mut v {
                    inner.clear();
                }
                v
            }
            None => Vec::new(),
        }
    }

    /// Return a buffer taken with [`Scratch::take_nested`].
    pub fn put_nested<T: Send + 'static>(&mut self, name: &'static str, v: Vec<Vec<T>>) {
        self.insert(name, v);
    }

    /// Take an arbitrary value (a heap, a tree, a struct of buffers)
    /// out of the workspace. Unlike the `Vec` accessors this performs
    /// no clearing — the caller decides whether the previous state is
    /// reusable. Returns `None` on a fresh slot.
    pub fn take_any<T: Send + 'static>(&mut self, name: &'static str) -> Option<T> {
        self.takes += 1;
        let v = self.remove::<T>(name);
        if v.is_some() {
            self.reuses += 1;
        }
        v
    }

    /// Take a named copy of `src`, such as a per-query copy of a
    /// prepared tree. A parked value is refreshed with `clone_from`,
    /// which reuses its allocations; a fresh slot clones `src`. Pair
    /// with [`Scratch::put_any`].
    pub fn take_copy<T: Clone + Send + 'static>(&mut self, name: &'static str, src: &T) -> T {
        match self.take_any::<T>(name) {
            Some(mut copy) => {
                copy.clone_from(src);
                copy
            }
            None => src.clone(),
        }
    }

    /// Store an arbitrary value for a later [`Scratch::take_any`].
    pub fn put_any<T: Send + 'static>(&mut self, name: &'static str, v: T) {
        self.insert(name, v);
    }

    /// Number of `take_*` calls served from a previously put buffer —
    /// the reuse the workspace exists to provide. Tests use this to
    /// assert that hot paths actually recycle their buffers.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Total number of `take_*` calls.
    pub fn takes(&self) -> u64 {
        self.takes
    }

    /// Total number of `put_*` calls. A query that upholds the take/put
    /// protocol performs exactly as many puts as takes; the difference
    /// (`takes() - puts()`) is the number of buffers currently checked
    /// out — see [`Scratch::lease`].
    pub fn puts(&self) -> u64 {
        self.puts
    }

    /// Start a balance-checked scope: the returned [`ScratchLease`]
    /// derefs to this workspace, and on drop (in debug builds, outside
    /// unwinding) asserts that the scope performed matching `take_*` /
    /// `put_*` calls. A take with no matching put silently strands the
    /// buffer — capacity is rebuilt on every later query and memory
    /// grows monotonically — so the serve path wraps each query in a
    /// lease and the imbalance fails tests instead of shipping.
    pub fn lease(&mut self) -> ScratchLease<'_> {
        let (takes, puts) = (self.takes, self.puts);
        ScratchLease {
            scratch: self,
            takes_at_entry: takes,
            puts_at_entry: puts,
        }
    }

    /// Number of currently parked buffers.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True iff no buffers are parked.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drop every parked buffer, releasing their memory. Counters are
    /// kept (they describe history, not contents).
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    fn remove<T: 'static>(&mut self, name: &'static str) -> Option<T> {
        self.slots
            .remove(&(name, TypeId::of::<T>()))
            .map(|b| *b.downcast::<T>().expect("slot keyed by TypeId"))
    }

    fn insert<T: Send + 'static>(&mut self, name: &'static str, v: T) {
        self.puts += 1;
        self.slots.insert((name, TypeId::of::<T>()), Box::new(v));
    }
}

/// A balance-checked borrow of a [`Scratch`], created by
/// [`Scratch::lease`]. Derefs to the workspace; on drop it
/// `debug_assert!`s that the scope's `take_*` and `put_*` counts match.
/// The check is skipped while unwinding — a panicking query legitimately
/// leaves buffers checked out, and the *driver* handles that case by
/// quarantining the whole workspace rather than trusting its state.
pub struct ScratchLease<'a> {
    scratch: &'a mut Scratch,
    takes_at_entry: u64,
    puts_at_entry: u64,
}

impl std::ops::Deref for ScratchLease<'_> {
    type Target = Scratch;
    fn deref(&self) -> &Scratch {
        self.scratch
    }
}

impl std::ops::DerefMut for ScratchLease<'_> {
    fn deref_mut(&mut self) -> &mut Scratch {
        self.scratch
    }
}

impl Drop for ScratchLease<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let taken = self.scratch.takes - self.takes_at_entry;
        let put = self.scratch.puts - self.puts_at_entry;
        debug_assert_eq!(
            taken, put,
            "scratch take/put imbalance: {taken} takes vs {put} puts in this \
             scope — a taken buffer was never returned (early return?), so its \
             capacity is stranded and will be re-allocated on every later query"
        );
    }
}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scratch")
            .field("slots", &self.slots.len())
            .field("takes", &self.takes)
            .field("reuses", &self.reuses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_roundtrip_keeps_capacity() {
        let mut s = Scratch::new();
        let mut v = s.take_vec::<u32>("buf");
        assert!(v.is_empty());
        v.extend(0..100);
        let cap = v.capacity();
        s.put_vec("buf", v);
        let v = s.take_vec::<u32>("buf");
        assert!(v.is_empty());
        assert_eq!(v.capacity(), cap);
        assert_eq!(s.reuses(), 1);
        assert_eq!(s.takes(), 2);
    }

    #[test]
    fn nested_keeps_inner_capacity() {
        let mut s = Scratch::new();
        let mut b = s.take_nested::<u32>("buckets");
        b.push(Vec::with_capacity(64));
        b.push(Vec::with_capacity(8));
        b[0].extend(0..50);
        let caps: Vec<usize> = b.iter().map(Vec::capacity).collect();
        s.put_nested("buckets", b);
        let b = s.take_nested::<u32>("buckets");
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(Vec::is_empty));
        let caps2: Vec<usize> = b.iter().map(Vec::capacity).collect();
        assert_eq!(caps, caps2);
    }

    #[test]
    fn types_do_not_collide() {
        let mut s = Scratch::new();
        let mut a = s.take_vec::<u32>("x");
        a.push(1);
        s.put_vec("x", a);
        // Same name, different type: fresh buffer, no panic.
        let b = s.take_vec::<u64>("x");
        assert!(b.is_empty());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn any_slot_roundtrip() {
        let mut s = Scratch::new();
        assert!(s.take_any::<String>("heap").is_none());
        s.put_any("heap", String::from("state"));
        assert_eq!(s.take_any::<String>("heap").as_deref(), Some("state"));
        assert!(s.take_any::<String>("heap").is_none());
    }

    #[test]
    fn puts_counted_and_balanced_lease_passes() {
        let mut s = Scratch::new();
        {
            let mut lease = s.lease();
            let v = lease.take_vec::<u32>("buf");
            lease.put_vec("buf", v);
        } // drop: balanced, no assert
        assert_eq!(s.takes(), 1);
        assert_eq!(s.puts(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scratch take/put imbalance")]
    fn unbalanced_lease_asserts_in_debug() {
        let mut s = Scratch::new();
        let mut lease = s.lease();
        let _leaked = lease.take_vec::<u32>("buf"); // no matching put
        drop(lease);
    }

    #[test]
    fn lease_skips_assert_while_unwinding() {
        // A panic *through* a lease must not double-panic (abort): the
        // drop check detects unwinding and stands down.
        let result = std::panic::catch_unwind(|| {
            let mut s = Scratch::new();
            let mut lease = s.lease();
            let _taken = lease.take_vec::<u32>("buf");
            panic!("query died mid-flight");
        });
        assert!(result.is_err());
    }

    #[test]
    fn clear_releases() {
        let mut s = Scratch::new();
        s.put_vec("a", vec![1u8]);
        s.put_vec("b", vec![1u16]);
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
    }
}
