//! Parallel iterators over *splittable producers*.
//!
//! The execution model mirrors (a trimmed) rayon: a source collection
//! is wrapped in a [`Producer`] — an exact-length, `split_at`-able view
//! — adaptors (`map`, `zip`, `enumerate`, …) wrap producers in
//! producer combinators, and every consumer (`for_each`, `collect`,
//! `reduce`, …) drives the pipeline through one driver, `run_split`,
//! which cuts the producer into contiguous chunks, folds each chunk
//! sequentially, and combines the per-chunk results **in chunk order**.
//! `par_extend` on an unindexed pipeline uses the driver underneath,
//! `run_split_with`, to append the inline prefixes to its target
//! directly.
//!
//! The driver is *inline-first*: the calling thread folds doubling
//! prefixes itself (starting at `min_len`, capped at the chunk size)
//! until the producer runs dry or a fixed inline budget of serial time
//! has elapsed. Only the remainder is cut into `O(threads)` chunks and
//! published to the pool (`pool::run_chunks`). A region cheaper than
//! the budget — the common case in rank-heavy round loops, which run
//! hundreds of tiny rounds — never touches the deques, the injector or
//! parking; a large region pays at most about one budget plus one
//! prefix of serial time before it fans out.
//!
//! In-order combining is what keeps every consumer deterministic and
//! sequential-equivalent however the region was cut: a `collect` or
//! `par_extend` returns exactly the sequential order, a `min`/`max`
//! breaks ties exactly like `Iterator::min`/`max`, and a `reduce`
//! regroups (but never reorders) an associative combine. Only the
//! *number* of chunks — and so of `fold` accumulators and `map_init`
//! states — depends on timing.
//!
//! Length-erasing adaptors (`filter`, `filter_map`, `flat_map_iter`)
//! switch the pipeline to [`UnindexedPar`]: the *base* producer is
//! still split into prefixes and balanced chunks, and each chunk's
//! sequential iterator is post-processed by a composed [`ChunkMap`]
//! transform, so filtering pipelines still run on every worker.
//!
//! Grain control: [`IndexedPar::with_min_len`] / `with_max_len` bound
//! the per-chunk element count (measured in *base* items for unindexed
//! pipelines), so hot loops can prevent both over-splitting of tiny
//! inputs and under-splitting of skewed ones. Inline prefixes respect
//! the same bounds: the first one is `min_len` items, the largest one
//! is the chunk size.
//!
//! Deviation from rayon proper: adaptor closures must be `Clone`
//! (chunks own a clone of the pipeline), which every capture-by-
//! reference closure is. Code written against this shim compiles
//! unchanged against crates.io rayon — the bounds here are strictly
//! tighter.

#![allow(clippy::type_complexity)]

use crate::pool;
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Chunks per worker a driver aims for: enough slack that uneven chunk
/// costs level out across the shared queue, few enough that queue
/// traffic stays negligible.
const CHUNKS_PER_THREAD: usize = 4;

/// Serial time the calling thread spends folding prefixes inline before
/// it publishes the rest of a region to the pool. Sized on a 2-vCPU
/// box: long enough that most per-round regions of rank-heavy loops
/// (knapsack windows, Type 2 wake-up batches) finish inline, short
/// enough that a served batch still fans out after its first query.
const INLINE_BUDGET: Duration = Duration::from_micros(20);

// ---------------------------------------------------------------------------
// Core traits
// ---------------------------------------------------------------------------

/// Conversion into a parallel iterator (rayon's `IntoParallelIterator`).
pub trait IntoParallelIterator {
    type Item;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn into_par_iter(self) -> Self::Iter;
}

/// `c.par_iter()` sugar for collections with a parallel ref iterator.
pub trait IntoParallelRefIterator<'data> {
    type Item: 'data;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn par_iter(&'data self) -> Self::Iter;
}

/// `c.par_iter_mut()` sugar.
pub trait IntoParallelRefMutIterator<'data> {
    type Item: 'data;
    type Iter: ParallelIterator<Item = Self::Item>;
    fn par_iter_mut(&'data mut self) -> Self::Iter;
}

impl<'data, C: ?Sized + 'data> IntoParallelRefIterator<'data> for C
where
    &'data C: IntoParallelIterator,
{
    type Item = <&'data C as IntoParallelIterator>::Item;
    type Iter = <&'data C as IntoParallelIterator>::Iter;
    fn par_iter(&'data self) -> Self::Iter {
        self.into_par_iter()
    }
}

impl<'data, C: ?Sized + 'data> IntoParallelRefMutIterator<'data> for C
where
    &'data mut C: IntoParallelIterator,
{
    type Item = <&'data mut C as IntoParallelIterator>::Item;
    type Iter = <&'data mut C as IntoParallelIterator>::Iter;
    fn par_iter_mut(&'data mut self) -> Self::Iter {
        self.into_par_iter()
    }
}

/// The minimal cross-family parallel-iterator contract: everything the
/// generic sinks ([`ParallelExtend`], [`FromParallelIterator`]) need.
/// The adaptor/consumer surface lives as inherent methods on
/// [`IndexedPar`] and [`UnindexedPar`].
pub trait ParallelIterator: Sized + Send {
    type Item: Send;

    /// Append every produced item to `out`, preserving the sequential
    /// order, computing chunks in parallel.
    fn drive_append(self, out: &mut Vec<Self::Item>);
}

/// Marker refinement for exact-length iterators (rayon's
/// `IndexedParallelIterator`), implemented by [`IndexedPar`].
pub trait IndexedParallelIterator: ParallelIterator {}

/// Rayon's `ParallelExtend`: extend a collection from a parallel
/// iterator, reusing existing capacity.
pub trait ParallelExtend<T: Send> {
    fn par_extend<I>(&mut self, par_iter: I)
    where
        I: IntoParallelIterator<Item = T>;
}

impl<T: Send> ParallelExtend<T> for Vec<T> {
    fn par_extend<I>(&mut self, par_iter: I)
    where
        I: IntoParallelIterator<Item = T>,
    {
        par_iter.into_par_iter().drive_append(self);
    }
}

/// Rayon's `FromParallelIterator`: the `collect` target contract.
pub trait FromParallelIterator<T: Send> {
    fn from_par_iter<I>(par_iter: I) -> Self
    where
        I: IntoParallelIterator<Item = T>;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I>(par_iter: I) -> Self
    where
        I: IntoParallelIterator<Item = T>,
    {
        let mut out = Vec::new();
        par_iter.into_par_iter().drive_append(&mut out);
        out
    }
}

// ---------------------------------------------------------------------------
// Producers
// ---------------------------------------------------------------------------

/// An exact-length, splittable source of items — the unit the chunk
/// driver splits and ships to workers. Public only because it appears
/// in the adaptor types; user code never implements it.
pub trait Producer: Send + Sized {
    type Item: Send;
    type IntoIter: Iterator<Item = Self::Item>;

    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Split into `[0, index)` and `[index, len)`. `index <= len`.
    fn split_at(self, index: usize) -> (Self, Self);
    /// The chunk's sequential iterator.
    fn into_seq_iter(self) -> Self::IntoIter;
}

/// A raw pointer that asserts cross-thread use is safe because every
/// piece of a region (inline prefix or published chunk) writes a
/// disjoint index range.
struct SendPtr<T>(*mut T);
// SAFETY: every piece writes only its own disjoint index range (see the
// drivers below), so concurrent use never aliases a slot.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}
impl<T> SendPtr<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        SendPtr(self.0)
    }
}

/// Pick the per-chunk element count for a driver invocation.
fn chunk_len(len: usize, min_len: usize, max_len: usize, threads: usize) -> usize {
    let target = len.div_ceil((threads * CHUNKS_PER_THREAD).max(1));
    let lo = min_len.max(1);
    let hi = max_len.max(lo);
    target.clamp(lo, hi)
}

#[cfg(test)]
thread_local! {
    /// Test-only replacement for [`INLINE_BUDGET`] in regions driven
    /// from this thread (`Duration::ZERO` publishes everything,
    /// `Duration::MAX` runs everything inline).
    static BUDGET_OVERRIDE: std::cell::Cell<Option<Duration>> =
        const { std::cell::Cell::new(None) };
}

fn inline_budget() -> Duration {
    #[cfg(test)]
    if let Some(budget) = BUDGET_OVERRIDE.with(|b| b.get()) {
        return budget;
    }
    INLINE_BUDGET
}

/// Fold `producer` in grain-bounded pieces and return the per-piece
/// results in order. `fold` receives each piece's base-item offset
/// (used by the in-place `collect` writer).
fn run_split<P, R, F>(producer: P, min_len: usize, max_len: usize, fold: F) -> Vec<R>
where
    P: Producer,
    R: Send,
    F: Fn(usize, P) -> R + Sync,
{
    let mut results = Vec::new();
    let published = run_split_with(
        producer,
        min_len,
        max_len,
        |offset, piece| results.push(fold(offset, piece)),
        &fold,
    );
    results.extend(published);
    results
}

/// The driver behind [`run_split`]: the calling thread hands `inline`
/// doubling prefixes — `min_len` items, then twice that, up to the
/// chunk size — until the producer is exhausted or [`INLINE_BUDGET`]
/// has elapsed. Only what is left is cut into chunks, folded by `fold`
/// on the current pool, and returned in order; every inline piece
/// precedes every published one. A consumer that can take inline
/// pieces directly (`par_extend` appending to its vector) so builds
/// nothing per piece, and a region that ends inline clones nothing
/// shared.
fn run_split_with<P, R, I, F>(
    producer: P,
    min_len: usize,
    max_len: usize,
    mut inline: I,
    fold: &F,
) -> Vec<R>
where
    P: Producer,
    R: Send,
    I: FnMut(usize, P),
    F: Fn(usize, P) -> R + Sync,
{
    let len = producer.len();
    let (sequential, parallelism) =
        pool::with_current_registry(|r| (r.is_sequential(), r.parallelism()));
    let chunk = chunk_len(len, min_len, max_len, parallelism);
    if sequential || len <= chunk {
        inline(0, producer);
        return Vec::new();
    }
    let mut rest = producer;
    let mut offset = 0usize;
    let (budget, start) = (inline_budget(), Instant::now());
    // The clock is read between pieces only: before the first nothing
    // has run, and after the last nothing is left to publish.
    let mut elapsed = Duration::ZERO;
    let mut prefix = min_len.clamp(1, chunk);
    while elapsed < budget {
        let take = prefix.min(rest.len());
        let (head, tail) = rest.split_at(take);
        inline(offset, head);
        offset += take;
        rest = tail;
        if rest.is_empty() {
            return Vec::new();
        }
        prefix = (prefix * 2).min(chunk);
        elapsed = start.elapsed();
    }
    let registry = pool::current_registry();
    let chunk = chunk_len(rest.len(), min_len, max_len, registry.parallelism());
    let mut chunks = Vec::with_capacity(rest.len().div_ceil(chunk));
    while rest.len() > chunk {
        let (head, tail) = rest.split_at(chunk);
        chunks.push((offset, head));
        offset += chunk;
        rest = tail;
    }
    chunks.push((offset, rest));
    pool::run_chunks(&registry, chunks, |(off, part)| fold(off, part))
}

// ---- base producers -------------------------------------------------------

/// Producer over an integer range.
pub struct RangeProducer<T> {
    start: T,
    end: T,
}

macro_rules! impl_range_producer {
    ($($t:ty),*) => {$(
        impl Producer for RangeProducer<$t> {
            type Item = $t;
            type IntoIter = std::ops::Range<$t>;
            fn len(&self) -> usize {
                let (s, e) = (self.start as i128, self.end as i128);
                if e > s { (e - s) as usize } else { 0 }
            }
            fn split_at(self, index: usize) -> (Self, Self) {
                debug_assert!(index <= self.len());
                let mid = ((self.start as i128) + index as i128) as $t;
                (
                    RangeProducer { start: self.start, end: mid },
                    RangeProducer { start: mid, end: self.end },
                )
            }
            fn into_seq_iter(self) -> Self::IntoIter {
                self.start..self.end
            }
        }

        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            type Iter = IndexedPar<RangeProducer<$t>>;
            fn into_par_iter(self) -> Self::Iter {
                IndexedPar::new(RangeProducer { start: self.start, end: self.end })
            }
        }

        impl IntoParallelIterator for std::ops::RangeInclusive<$t> {
            type Item = $t;
            type Iter = IndexedPar<RangeProducer<$t>>;
            fn into_par_iter(self) -> Self::Iter {
                let (start, end) = self.into_inner();
                let producer = if start > end {
                    RangeProducer { start, end: start }
                } else {
                    assert!(
                        end < <$t>::MAX,
                        "the shim cannot iterate an inclusive range ending at the type's MAX",
                    );
                    RangeProducer { start, end: end + 1 }
                };
                IndexedPar::new(producer)
            }
        }
    )*};
}
impl_range_producer!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Producer over `&[T]`.
pub struct SliceProducer<'a, T: Sync> {
    slice: &'a [T],
}

impl<'a, T: Sync> Producer for SliceProducer<'a, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at(index);
        (SliceProducer { slice: l }, SliceProducer { slice: r })
    }
    fn into_seq_iter(self) -> Self::IntoIter {
        self.slice.iter()
    }
}

/// Producer over `&mut [T]`.
pub struct SliceMutProducer<'a, T: Send> {
    slice: &'a mut [T],
}

impl<'a, T: Send> Producer for SliceMutProducer<'a, T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn len(&self) -> usize {
        self.slice.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at_mut(index);
        (SliceMutProducer { slice: l }, SliceMutProducer { slice: r })
    }
    fn into_seq_iter(self) -> Self::IntoIter {
        self.slice.iter_mut()
    }
}

/// Owns a `Vec`'s allocation (not its elements); freed when the last
/// producer/iterator split drops.
struct RawVecAlloc<T> {
    ptr: *mut T,
    cap: usize,
}

impl<T> Drop for RawVecAlloc<T> {
    fn drop(&mut self) {
        // SAFETY: reconstructs the original allocation with length 0 —
        // elements were moved out (or dropped) by the producers.
        unsafe { drop(Vec::from_raw_parts(self.ptr, 0, self.cap)) }
    }
}
// SAFETY: the alloc itself is only ever *dropped* through the Arc (no
// element access); element reads go through producers/iterators that
// exclusively cover disjoint subranges of `T: Send` elements.
unsafe impl<T: Send> Send for RawVecAlloc<T> {}
unsafe impl<T: Send> Sync for RawVecAlloc<T> {}

/// Producer over an owned `Vec<T>`: chunks move elements out by
/// pointer; unconsumed elements are dropped by the producer/iterator
/// drop, and the allocation by the shared `RawVecAlloc`.
pub struct VecProducer<T: Send> {
    alloc: Arc<RawVecAlloc<T>>,
    start: *mut T,
    len: usize,
}

// SAFETY: a producer owns the `[start, start+len)` subrange exclusively
// (splits partition the range), so moving it across threads moves `len`
// `T: Send` values and an Arc.
unsafe impl<T: Send> Send for VecProducer<T> {}

impl<T: Send> Drop for VecProducer<T> {
    fn drop(&mut self) {
        // SAFETY: this producer exclusively covers `[start, start+len)`
        // and none of those elements were read out (reads only happen
        // via `into_seq_iter`, which forgets the producer).
        unsafe { std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(self.start, self.len)) }
    }
}

/// Moving iterator over one `VecProducer` chunk. Termination is by
/// remaining count, not pointer equality, so zero-sized element types
/// (where `ptr.add(1)` does not move) still yield every element.
pub struct VecChunkIter<T: Send> {
    _alloc: Arc<RawVecAlloc<T>>,
    cur: *mut T,
    remaining: usize,
}

// SAFETY: like its producer, the iterator exclusively owns the
// `[cur, cur+remaining)` subrange of `T: Send` elements.
unsafe impl<T: Send> Send for VecChunkIter<T> {}

impl<T: Send> Iterator for VecChunkIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        if self.remaining == 0 {
            return None;
        }
        // SAFETY: `remaining` elements starting at `cur` belong
        // exclusively to this chunk; each is read exactly once.
        unsafe {
            let item = std::ptr::read(self.cur);
            self.cur = self.cur.add(1);
            self.remaining -= 1;
            Some(item)
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T: Send> Drop for VecChunkIter<T> {
    fn drop(&mut self) {
        while self.next().is_some() {}
    }
}

impl<T: Send> Producer for VecProducer<T> {
    type Item = T;
    type IntoIter = VecChunkIter<T>;
    fn len(&self) -> usize {
        self.len
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        debug_assert!(index <= self.len);
        let this = ManuallyDrop::new(self);
        // SAFETY: moves the Arc out of the forgotten `this`; the two
        // halves exclusively cover the original range.
        let alloc = unsafe { std::ptr::read(&this.alloc) };
        let left = VecProducer {
            alloc: Arc::clone(&alloc),
            start: this.start,
            len: index,
        };
        let right = VecProducer {
            alloc,
            // SAFETY: `index <= len` (split contract), so the offset
            // stays inside this producer's owned range.
            start: unsafe { this.start.add(index) },
            len: this.len - index,
        };
        (left, right)
    }
    fn into_seq_iter(self) -> Self::IntoIter {
        let this = ManuallyDrop::new(self);
        // SAFETY: as in `split_at`; the iterator takes over the range.
        let alloc = unsafe { std::ptr::read(&this.alloc) };
        VecChunkIter {
            _alloc: alloc,
            cur: this.start,
            remaining: this.len,
        }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = IndexedPar<VecProducer<T>>;
    fn into_par_iter(self) -> Self::Iter {
        let mut vec = ManuallyDrop::new(self);
        let (ptr, len, cap) = (vec.as_mut_ptr(), vec.len(), vec.capacity());
        IndexedPar::new(VecProducer {
            alloc: Arc::new(RawVecAlloc { ptr, cap }),
            start: ptr,
            len,
        })
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Iter = IndexedPar<SliceProducer<'a, T>>;
    fn into_par_iter(self) -> Self::Iter {
        IndexedPar::new(SliceProducer { slice: self })
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Iter = IndexedPar<SliceProducer<'a, T>>;
    fn into_par_iter(self) -> Self::Iter {
        IndexedPar::new(SliceProducer { slice: self })
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut Vec<T> {
    type Item = &'a mut T;
    type Iter = IndexedPar<SliceMutProducer<'a, T>>;
    fn into_par_iter(self) -> Self::Iter {
        IndexedPar::new(SliceMutProducer { slice: self })
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Item = &'a mut T;
    type Iter = IndexedPar<SliceMutProducer<'a, T>>;
    fn into_par_iter(self) -> Self::Iter {
        IndexedPar::new(SliceMutProducer { slice: self })
    }
}

// ---- adaptor producers ----------------------------------------------------

/// `map` producer.
pub struct MapProducer<P, F> {
    base: P,
    f: F,
}

impl<P, F, R> Producer for MapProducer<P, F>
where
    P: Producer,
    F: Fn(P::Item) -> R + Clone + Send,
    R: Send,
{
    type Item = R;
    type IntoIter = std::iter::Map<P::IntoIter, F>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            MapProducer {
                base: l,
                f: self.f.clone(),
            },
            MapProducer { base: r, f: self.f },
        )
    }
    fn into_seq_iter(self) -> Self::IntoIter {
        self.base.into_seq_iter().map(self.f)
    }
}

/// `zip` producer (both sides pre-trimmed to equal length).
pub struct ZipProducer<A, B> {
    a: A,
    b: B,
}

impl<A: Producer, B: Producer> Producer for ZipProducer<A, B> {
    type Item = (A::Item, B::Item);
    type IntoIter = std::iter::Zip<A::IntoIter, B::IntoIter>;
    fn len(&self) -> usize {
        self.a.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (al, ar) = self.a.split_at(index);
        let (bl, br) = self.b.split_at(index);
        (ZipProducer { a: al, b: bl }, ZipProducer { a: ar, b: br })
    }
    fn into_seq_iter(self) -> Self::IntoIter {
        self.a.into_seq_iter().zip(self.b.into_seq_iter())
    }
}

/// `enumerate` producer.
pub struct EnumerateProducer<P> {
    base: P,
    offset: usize,
}

impl<P: Producer> Producer for EnumerateProducer<P> {
    type Item = (usize, P::Item);
    type IntoIter = std::iter::Zip<std::ops::Range<usize>, P::IntoIter>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            EnumerateProducer {
                base: l,
                offset: self.offset,
            },
            EnumerateProducer {
                base: r,
                offset: self.offset + index,
            },
        )
    }
    fn into_seq_iter(self) -> Self::IntoIter {
        let n = self.base.len();
        (self.offset..self.offset + n).zip(self.base.into_seq_iter())
    }
}

/// `copied` producer.
pub struct CopiedProducer<P> {
    base: P,
}

impl<'a, T, P> Producer for CopiedProducer<P>
where
    T: Copy + Send + Sync + 'a,
    P: Producer<Item = &'a T>,
{
    type Item = T;
    type IntoIter = std::iter::Copied<P::IntoIter>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (CopiedProducer { base: l }, CopiedProducer { base: r })
    }
    fn into_seq_iter(self) -> Self::IntoIter {
        self.base.into_seq_iter().copied()
    }
}

/// `cloned` producer.
pub struct ClonedProducer<P> {
    base: P,
}

impl<'a, T, P> Producer for ClonedProducer<P>
where
    T: Clone + Send + Sync + 'a,
    P: Producer<Item = &'a T>,
{
    type Item = T;
    type IntoIter = std::iter::Cloned<P::IntoIter>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (ClonedProducer { base: l }, ClonedProducer { base: r })
    }
    fn into_seq_iter(self) -> Self::IntoIter {
        self.base.into_seq_iter().cloned()
    }
}

/// `update` producer.
pub struct UpdateProducer<P, F> {
    base: P,
    f: F,
}

/// Sequential side of [`UpdateProducer`].
pub struct UpdateIter<I, F> {
    it: I,
    f: F,
}

impl<I: Iterator, F: Fn(&mut I::Item)> Iterator for UpdateIter<I, F> {
    type Item = I::Item;
    fn next(&mut self) -> Option<I::Item> {
        self.it.next().map(|mut item| {
            (self.f)(&mut item);
            item
        })
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.it.size_hint()
    }
}

impl<P, F> Producer for UpdateProducer<P, F>
where
    P: Producer,
    F: Fn(&mut P::Item) + Clone + Send,
{
    type Item = P::Item;
    type IntoIter = UpdateIter<P::IntoIter, F>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            UpdateProducer {
                base: l,
                f: self.f.clone(),
            },
            UpdateProducer { base: r, f: self.f },
        )
    }
    fn into_seq_iter(self) -> Self::IntoIter {
        UpdateIter {
            it: self.base.into_seq_iter(),
            f: self.f,
        }
    }
}

/// `map_init` producer: `init` runs once per chunk, the mapper borrows
/// the chunk-local state for every item — the worker-local-state shape
/// a batch of prepared queries uses for its scratch workspaces.
pub struct MapInitProducer<P, INIT, F> {
    base: P,
    init: INIT,
    f: F,
}

/// Sequential side of [`MapInitProducer`].
pub struct MapInitIter<I, T, F> {
    it: I,
    state: T,
    f: F,
}

impl<I, T, R, F> Iterator for MapInitIter<I, T, F>
where
    I: Iterator,
    F: Fn(&mut T, I::Item) -> R,
{
    type Item = R;
    fn next(&mut self) -> Option<R> {
        let item = self.it.next()?;
        Some((self.f)(&mut self.state, item))
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.it.size_hint()
    }
}

impl<P, INIT, T, R, F> Producer for MapInitProducer<P, INIT, F>
where
    P: Producer,
    INIT: Fn() -> T + Clone + Send,
    F: Fn(&mut T, P::Item) -> R + Clone + Send,
    R: Send,
{
    type Item = R;
    type IntoIter = MapInitIter<P::IntoIter, T, F>;
    fn len(&self) -> usize {
        self.base.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.base.split_at(index);
        (
            MapInitProducer {
                base: l,
                init: self.init.clone(),
                f: self.f.clone(),
            },
            MapInitProducer {
                base: r,
                init: self.init,
                f: self.f,
            },
        )
    }
    fn into_seq_iter(self) -> Self::IntoIter {
        MapInitIter {
            it: self.base.into_seq_iter(),
            state: (self.init)(),
            f: self.f,
        }
    }
}

// ---------------------------------------------------------------------------
// IndexedPar: the exact-length parallel iterator
// ---------------------------------------------------------------------------

/// An exact-length parallel iterator over a splittable [`Producer`].
pub struct IndexedPar<P: Producer> {
    producer: P,
    min_len: usize,
    max_len: usize,
}

impl<P: Producer> IndexedPar<P> {
    pub(crate) fn new(producer: P) -> Self {
        Self {
            producer,
            min_len: 1,
            max_len: usize::MAX,
        }
    }

    /// Number of items this iterator will produce.
    pub fn len(&self) -> usize {
        self.producer.len()
    }

    /// True iff no items will be produced.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lower-bound the per-chunk item count: chunks smaller than `n`
    /// are not split off, so per-item work below the fork-join overhead
    /// is batched (the grain-size knob of the workspace's hot loops).
    pub fn with_min_len(mut self, n: usize) -> Self {
        self.min_len = n.max(1);
        self
    }

    /// Upper-bound the per-chunk item count (force extra splits).
    pub fn with_max_len(mut self, n: usize) -> Self {
        self.max_len = n.max(1);
        self
    }

    // ---- indexed adaptors ----

    pub fn map<R, F>(self, f: F) -> IndexedPar<MapProducer<P, F>>
    where
        F: Fn(P::Item) -> R + Clone + Send + Sync,
        R: Send,
    {
        let (min_len, max_len) = (self.min_len, self.max_len);
        IndexedPar {
            producer: MapProducer {
                base: self.producer,
                f,
            },
            min_len,
            max_len,
        }
    }

    pub fn zip<Z, Q>(self, other: Z) -> IndexedPar<ZipProducer<P, Q>>
    where
        Z: IntoParallelIterator<Iter = IndexedPar<Q>, Item = Q::Item>,
        Q: Producer,
    {
        let (min_len, max_len) = (self.min_len, self.max_len);
        let other = other.into_par_iter();
        let n = self.producer.len().min(other.producer.len());
        let (a, _) = self.producer.split_at(n);
        let (b, _) = other.producer.split_at(n);
        IndexedPar {
            producer: ZipProducer { a, b },
            min_len,
            max_len,
        }
    }

    pub fn enumerate(self) -> IndexedPar<EnumerateProducer<P>> {
        let (min_len, max_len) = (self.min_len, self.max_len);
        IndexedPar {
            producer: EnumerateProducer {
                base: self.producer,
                offset: 0,
            },
            min_len,
            max_len,
        }
    }

    pub fn update<F>(self, f: F) -> IndexedPar<UpdateProducer<P, F>>
    where
        F: Fn(&mut P::Item) + Clone + Send + Sync,
    {
        let (min_len, max_len) = (self.min_len, self.max_len);
        IndexedPar {
            producer: UpdateProducer {
                base: self.producer,
                f,
            },
            min_len,
            max_len,
        }
    }

    /// Rayon's `map_init`: `init` builds a per-chunk (≈ per-worker)
    /// state the mapper mutably borrows for every item in the chunk.
    pub fn map_init<T, R, INIT, F>(
        self,
        init: INIT,
        f: F,
    ) -> IndexedPar<MapInitProducer<P, INIT, F>>
    where
        INIT: Fn() -> T + Clone + Send + Sync,
        F: Fn(&mut T, P::Item) -> R + Clone + Send + Sync,
        R: Send,
    {
        let (min_len, max_len) = (self.min_len, self.max_len);
        IndexedPar {
            producer: MapInitProducer {
                base: self.producer,
                init,
                f,
            },
            min_len,
            max_len,
        }
    }

    // ---- length-erasing adaptors (switch to UnindexedPar) ----

    pub fn filter<F>(self, f: F) -> UnindexedPar<P, FilterM<Ident, F>>
    where
        F: Fn(&P::Item) -> bool + Clone + Send + Sync,
    {
        UnindexedPar {
            base: self.producer,
            mapper: FilterM { prev: Ident, f },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    pub fn filter_map<R, F>(self, f: F) -> UnindexedPar<P, FilterMapM<Ident, F, R>>
    where
        F: Fn(P::Item) -> Option<R> + Clone + Send + Sync,
        R: Send,
    {
        UnindexedPar {
            base: self.producer,
            mapper: FilterMapM {
                prev: Ident,
                f,
                _r: PhantomData,
            },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    /// Rayon's `flat_map_iter`: the per-item sub-iterators run
    /// sequentially inside their chunk.
    pub fn flat_map_iter<U, F>(self, f: F) -> UnindexedPar<P, FlatMapIterM<Ident, F, U>>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(P::Item) -> U + Clone + Send + Sync,
    {
        UnindexedPar {
            base: self.producer,
            mapper: FlatMapIterM {
                prev: Ident,
                f,
                _u: PhantomData,
            },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    // ---- consumers ----

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(P::Item) + Send + Sync,
    {
        run_split(self.producer, self.min_len, self.max_len, |_, chunk| {
            chunk.into_seq_iter().for_each(&f)
        });
    }

    pub fn collect<C>(self) -> C
    where
        C: FromParallelIterator<P::Item>,
    {
        C::from_par_iter(self)
    }

    pub fn count(self) -> usize {
        run_split(self.producer, self.min_len, self.max_len, |_, chunk| {
            chunk.into_seq_iter().count()
        })
        .into_iter()
        .sum()
    }

    /// Rayon's `reduce(identity, op)` — identity-producing closure,
    /// unlike `Iterator::reduce`. `op` must be associative for the
    /// result to be independent of the (deterministic, in-order)
    /// chunk grouping.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> P::Item
    where
        ID: Fn() -> P::Item + Send + Sync,
        OP: Fn(P::Item, P::Item) -> P::Item + Send + Sync,
    {
        run_split(self.producer, self.min_len, self.max_len, |_, chunk| {
            chunk.into_seq_iter().fold(identity(), &op)
        })
        .into_iter()
        .fold(identity(), op)
    }

    /// Rayon's `fold(identity, op)`: one accumulator per chunk,
    /// returned (in chunk order) as a new parallel iterator.
    pub fn fold<T, ID, F>(self, identity: ID, fold_op: F) -> IndexedPar<VecProducer<T>>
    where
        T: Send,
        ID: Fn() -> T + Send + Sync,
        F: Fn(T, P::Item) -> T + Send + Sync,
    {
        let accs: Vec<T> = run_split(self.producer, self.min_len, self.max_len, |_, chunk| {
            chunk.into_seq_iter().fold(identity(), &fold_op)
        });
        accs.into_par_iter()
    }

    pub fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<P::Item> + std::iter::Sum<S>,
    {
        run_split(self.producer, self.min_len, self.max_len, |_, chunk| {
            chunk.into_seq_iter().sum::<S>()
        })
        .into_iter()
        .sum()
    }

    pub fn min(self) -> Option<P::Item>
    where
        P::Item: Ord,
    {
        run_split(self.producer, self.min_len, self.max_len, |_, chunk| {
            chunk.into_seq_iter().min()
        })
        .into_iter()
        .flatten()
        .reduce(|a, b| if b < a { b } else { a })
    }

    pub fn max(self) -> Option<P::Item>
    where
        P::Item: Ord,
    {
        run_split(self.producer, self.min_len, self.max_len, |_, chunk| {
            chunk.into_seq_iter().max()
        })
        .into_iter()
        .flatten()
        .reduce(|a, b| if b >= a { b } else { a })
    }

    pub fn min_by_key<K, F>(self, f: F) -> Option<P::Item>
    where
        K: Ord,
        F: Fn(&P::Item) -> K + Send + Sync,
    {
        run_split(self.producer, self.min_len, self.max_len, |_, chunk| {
            chunk.into_seq_iter().min_by_key(|x| f(x))
        })
        .into_iter()
        .flatten()
        .reduce(|a, b| if f(&b) < f(&a) { b } else { a })
    }

    pub fn max_by_key<K, F>(self, f: F) -> Option<P::Item>
    where
        K: Ord,
        F: Fn(&P::Item) -> K + Send + Sync,
    {
        run_split(self.producer, self.min_len, self.max_len, |_, chunk| {
            chunk.into_seq_iter().max_by_key(|x| f(x))
        })
        .into_iter()
        .flatten()
        .reduce(|a, b| if f(&b) >= f(&a) { b } else { a })
    }

    pub fn all<F>(self, f: F) -> bool
    where
        F: Fn(P::Item) -> bool + Send + Sync,
    {
        run_split(self.producer, self.min_len, self.max_len, |_, chunk| {
            chunk.into_seq_iter().all(&f)
        })
        .into_iter()
        .all(|ok| ok)
    }

    pub fn any<F>(self, f: F) -> bool
    where
        F: Fn(P::Item) -> bool + Send + Sync,
    {
        run_split(self.producer, self.min_len, self.max_len, |_, chunk| {
            chunk.into_seq_iter().any(&f)
        })
        .into_iter()
        .any(|ok| ok)
    }

    /// First item (in iterator order) matching the predicate.
    pub fn find_first<F>(self, f: F) -> Option<P::Item>
    where
        F: Fn(&P::Item) -> bool + Send + Sync,
    {
        run_split(self.producer, self.min_len, self.max_len, |_, chunk| {
            chunk.into_seq_iter().find(|x| f(x))
        })
        .into_iter()
        .flatten()
        .next()
    }

    /// Deterministic alias of [`IndexedPar::find_first`].
    pub fn find_any<F>(self, f: F) -> Option<P::Item>
    where
        F: Fn(&P::Item) -> bool + Send + Sync,
    {
        self.find_first(f)
    }

    pub fn position_first<F>(self, f: F) -> Option<usize>
    where
        F: Fn(P::Item) -> bool + Send + Sync,
    {
        run_split(self.producer, self.min_len, self.max_len, |off, chunk| {
            chunk.into_seq_iter().position(&f).map(|i| off + i)
        })
        .into_iter()
        .flatten()
        .next()
    }

    /// Deterministic alias of [`IndexedPar::position_first`].
    pub fn position_any<F>(self, f: F) -> Option<usize>
    where
        F: Fn(P::Item) -> bool + Send + Sync,
    {
        self.position_first(f)
    }
}

impl<'a, T, P> IndexedPar<P>
where
    T: 'a,
    P: Producer<Item = &'a T>,
{
    pub fn copied(self) -> IndexedPar<CopiedProducer<P>>
    where
        T: Copy + Send + Sync,
    {
        let (min_len, max_len) = (self.min_len, self.max_len);
        IndexedPar {
            producer: CopiedProducer {
                base: self.producer,
            },
            min_len,
            max_len,
        }
    }

    pub fn cloned(self) -> IndexedPar<ClonedProducer<P>>
    where
        T: Clone + Send + Sync,
    {
        let (min_len, max_len) = (self.min_len, self.max_len);
        IndexedPar {
            producer: ClonedProducer {
                base: self.producer,
            },
            min_len,
            max_len,
        }
    }
}

impl<P: Producer> ParallelIterator for IndexedPar<P> {
    type Item = P::Item;

    fn drive_append(self, out: &mut Vec<P::Item>) {
        let len = self.producer.len();
        out.reserve(len);
        let base_len = out.len();
        // SAFETY: `reserve` guarantees capacity for `len` more items.
        // `run_split` partitions `[0, len)` into pieces: the inline
        // prefixes, folded one after another on this thread before any
        // chunk is published, then the published chunks. Each piece
        // writes its own disjoint `[offset, offset+piece)` index range
        // exactly once, so no two writers — inline or on a worker —
        // ever share a slot. `set_len` runs only after every piece
        // completed (prefixes return before publishing; the driver
        // blocks on the batch latch for the chunks).
        let base_ptr = SendPtr(unsafe { out.as_mut_ptr().add(base_len) });
        run_split(
            self.producer,
            self.min_len,
            self.max_len,
            |offset, piece| {
                // SAFETY: `offset + piece.len() <= len` (run_split
                // contract), all within the reserved spare capacity.
                let mut ptr = unsafe { base_ptr.get().add(offset) };
                for item in piece.into_seq_iter() {
                    // SAFETY: this piece exclusively owns its target
                    // subrange; `ptr` stays within it (one write per
                    // yielded item, piece length many items).
                    unsafe {
                        ptr.write(item);
                        ptr = ptr.add(1);
                    }
                }
            },
        );
        // SAFETY: every piece completed (run_split returns only after
        // its inline prefixes ran and the batch latch opened), so all
        // `len` new slots are initialized.
        unsafe { out.set_len(base_len + len) };
    }
}

impl<P: Producer> IndexedParallelIterator for IndexedPar<P> {}

impl<P: Producer> IntoParallelIterator for IndexedPar<P> {
    type Item = P::Item;
    type Iter = Self;
    fn into_par_iter(self) -> Self {
        self
    }
}

// ---------------------------------------------------------------------------
// UnindexedPar: filtered / flattened pipelines
// ---------------------------------------------------------------------------

/// A per-chunk sequential transform: turns a base chunk's iterator into
/// the pipeline's output iterator. Composed left-to-right as adaptors
/// stack; shared by reference across workers.
pub trait ChunkMap<I: Iterator>: Send + Sync {
    type Out: Iterator;
    fn apply(&self, it: I) -> Self::Out;
}

/// The identity transform (pipeline start).
#[derive(Clone, Copy)]
pub struct Ident;

impl<I: Iterator> ChunkMap<I> for Ident {
    type Out = I;
    fn apply(&self, it: I) -> I {
        it
    }
}

/// `filter` transform.
#[derive(Clone)]
pub struct FilterM<M, F> {
    prev: M,
    f: F,
}

impl<I, M, F> ChunkMap<I> for FilterM<M, F>
where
    I: Iterator,
    M: ChunkMap<I>,
    F: Fn(&<M::Out as Iterator>::Item) -> bool + Clone + Send + Sync,
{
    type Out = std::iter::Filter<M::Out, F>;
    fn apply(&self, it: I) -> Self::Out {
        self.prev.apply(it).filter(self.f.clone())
    }
}

/// `map` transform (after a length-erasing stage).
#[derive(Clone)]
pub struct MapM<M, F, R> {
    prev: M,
    f: F,
    _r: PhantomData<fn() -> R>,
}

impl<I, M, F, R> ChunkMap<I> for MapM<M, F, R>
where
    I: Iterator,
    M: ChunkMap<I>,
    F: Fn(<M::Out as Iterator>::Item) -> R + Clone + Send + Sync,
{
    type Out = std::iter::Map<M::Out, F>;
    fn apply(&self, it: I) -> Self::Out {
        self.prev.apply(it).map(self.f.clone())
    }
}

/// `filter_map` transform.
#[derive(Clone)]
pub struct FilterMapM<M, F, R> {
    prev: M,
    f: F,
    _r: PhantomData<fn() -> R>,
}

impl<I, M, F, R> ChunkMap<I> for FilterMapM<M, F, R>
where
    I: Iterator,
    M: ChunkMap<I>,
    F: Fn(<M::Out as Iterator>::Item) -> Option<R> + Clone + Send + Sync,
{
    type Out = std::iter::FilterMap<M::Out, F>;
    fn apply(&self, it: I) -> Self::Out {
        self.prev.apply(it).filter_map(self.f.clone())
    }
}

/// `flat_map_iter` transform.
#[derive(Clone)]
pub struct FlatMapIterM<M, F, U> {
    prev: M,
    f: F,
    _u: PhantomData<fn() -> U>,
}

impl<I, M, F, U> ChunkMap<I> for FlatMapIterM<M, F, U>
where
    I: Iterator,
    M: ChunkMap<I>,
    U: IntoIterator,
    F: Fn(<M::Out as Iterator>::Item) -> U + Clone + Send + Sync,
{
    type Out = std::iter::FlatMap<M::Out, U, F>;
    fn apply(&self, it: I) -> Self::Out {
        self.prev.apply(it).flat_map(self.f.clone())
    }
}

/// A parallel pipeline whose output length is unknown (post-`filter` /
/// `flat_map_iter`): the *base* producer still splits into balanced
/// chunks; the composed [`ChunkMap`] runs inside each chunk.
pub struct UnindexedPar<P, M>
where
    P: Producer,
    M: ChunkMap<P::IntoIter>,
{
    base: P,
    mapper: M,
    min_len: usize,
    max_len: usize,
}

/// Item type of an [`UnindexedPar`] pipeline.
type MappedItem<P, M> = <<M as ChunkMap<<P as Producer>::IntoIter>>::Out as Iterator>::Item;

impl<P, M> UnindexedPar<P, M>
where
    P: Producer,
    M: ChunkMap<P::IntoIter>,
    MappedItem<P, M>: Send,
{
    fn drive<R, F>(self, fold: F) -> Vec<R>
    where
        R: Send,
        F: Fn(M::Out) -> R + Sync,
    {
        let mapper = self.mapper;
        run_split(self.base, self.min_len, self.max_len, move |_, chunk| {
            fold(mapper.apply(chunk.into_seq_iter()))
        })
    }

    // ---- adaptors (compose another transform) ----

    pub fn map<R, F>(self, f: F) -> UnindexedPar<P, MapM<M, F, R>>
    where
        F: Fn(MappedItem<P, M>) -> R + Clone + Send + Sync,
        R: Send,
    {
        UnindexedPar {
            base: self.base,
            mapper: MapM {
                prev: self.mapper,
                f,
                _r: PhantomData,
            },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    pub fn filter<F>(self, f: F) -> UnindexedPar<P, FilterM<M, F>>
    where
        F: Fn(&MappedItem<P, M>) -> bool + Clone + Send + Sync,
    {
        UnindexedPar {
            base: self.base,
            mapper: FilterM {
                prev: self.mapper,
                f,
            },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    pub fn filter_map<R, F>(self, f: F) -> UnindexedPar<P, FilterMapM<M, F, R>>
    where
        F: Fn(MappedItem<P, M>) -> Option<R> + Clone + Send + Sync,
        R: Send,
    {
        UnindexedPar {
            base: self.base,
            mapper: FilterMapM {
                prev: self.mapper,
                f,
                _r: PhantomData,
            },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    pub fn flat_map_iter<U, F>(self, f: F) -> UnindexedPar<P, FlatMapIterM<M, F, U>>
    where
        U: IntoIterator,
        U::Item: Send,
        F: Fn(MappedItem<P, M>) -> U + Clone + Send + Sync,
    {
        UnindexedPar {
            base: self.base,
            mapper: FlatMapIterM {
                prev: self.mapper,
                f,
                _u: PhantomData,
            },
            min_len: self.min_len,
            max_len: self.max_len,
        }
    }

    // ---- consumers ----

    pub fn for_each<F>(self, f: F)
    where
        F: Fn(MappedItem<P, M>) + Send + Sync,
    {
        self.drive(|it| it.for_each(&f));
    }

    pub fn collect<C>(self) -> C
    where
        C: FromParallelIterator<MappedItem<P, M>>,
    {
        C::from_par_iter(self)
    }

    pub fn count(self) -> usize {
        self.drive(|it| it.count()).into_iter().sum()
    }

    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> MappedItem<P, M>
    where
        ID: Fn() -> MappedItem<P, M> + Send + Sync,
        OP: Fn(MappedItem<P, M>, MappedItem<P, M>) -> MappedItem<P, M> + Send + Sync,
    {
        self.drive(|it| it.fold(identity(), &op))
            .into_iter()
            .fold(identity(), op)
    }

    pub fn fold<T, ID, F>(self, identity: ID, fold_op: F) -> IndexedPar<VecProducer<T>>
    where
        T: Send,
        ID: Fn() -> T + Send + Sync,
        F: Fn(T, MappedItem<P, M>) -> T + Send + Sync,
    {
        let accs: Vec<T> = self.drive(|it| it.fold(identity(), &fold_op));
        accs.into_par_iter()
    }

    pub fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<MappedItem<P, M>> + std::iter::Sum<S>,
    {
        self.drive(|it| it.sum::<S>()).into_iter().sum()
    }

    pub fn min(self) -> Option<MappedItem<P, M>>
    where
        MappedItem<P, M>: Ord,
    {
        self.drive(|it| it.min())
            .into_iter()
            .flatten()
            .reduce(|a, b| if b < a { b } else { a })
    }

    pub fn max(self) -> Option<MappedItem<P, M>>
    where
        MappedItem<P, M>: Ord,
    {
        self.drive(|it| it.max())
            .into_iter()
            .flatten()
            .reduce(|a, b| if b >= a { b } else { a })
    }

    pub fn all<F>(self, f: F) -> bool
    where
        F: Fn(MappedItem<P, M>) -> bool + Send + Sync,
    {
        self.drive(|mut it| it.all(&f)).into_iter().all(|ok| ok)
    }

    pub fn any<F>(self, f: F) -> bool
    where
        F: Fn(MappedItem<P, M>) -> bool + Send + Sync,
    {
        self.drive(|mut it| it.any(&f)).into_iter().any(|ok| ok)
    }

    /// First item (in sequential order) matching the predicate.
    pub fn find_first<F>(self, f: F) -> Option<MappedItem<P, M>>
    where
        F: Fn(&MappedItem<P, M>) -> bool + Send + Sync,
    {
        self.drive(|it| {
            it.fold(None, |found: Option<MappedItem<P, M>>, x| {
                if found.is_some() {
                    found
                } else if f(&x) {
                    Some(x)
                } else {
                    None
                }
            })
        })
        .into_iter()
        .flatten()
        .next()
    }
}

impl<P, M> ParallelIterator for UnindexedPar<P, M>
where
    P: Producer,
    M: ChunkMap<P::IntoIter>,
    MappedItem<P, M>: Send,
{
    type Item = MappedItem<P, M>;

    fn drive_append(self, out: &mut Vec<Self::Item>) {
        // Inline pieces append straight to `out`; only published chunks
        // collect into vectors of their own, appended after them.
        let mapper = self.mapper;
        let fold =
            |_, chunk: P| -> Vec<Self::Item> { mapper.apply(chunk.into_seq_iter()).collect() };
        let parts = run_split_with(
            self.base,
            self.min_len,
            self.max_len,
            |_, chunk: P| out.extend(mapper.apply(chunk.into_seq_iter())),
            &fold,
        );
        for mut part in parts {
            out.append(&mut part);
        }
    }
}

impl<P, M> IntoParallelIterator for UnindexedPar<P, M>
where
    P: Producer,
    M: ChunkMap<P::IntoIter>,
    MappedItem<P, M>: Send,
{
    type Item = MappedItem<P, M>;
    type Iter = Self;
    fn into_par_iter(self) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::{Duration, Instant, BUDGET_OVERRIDE, INLINE_BUDGET};
    use crate::prelude::*;
    use std::cmp::Ordering;
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    /// Grain bounds the equivalence sweep applies to every pipeline
    /// (besides the default, ungrained one).
    const MIN: usize = 8;
    const CHUNK: usize = 64;
    const LENS: [usize; 9] = [
        0,
        1,
        MIN - 1,
        MIN + 1,
        CHUNK - 1,
        CHUNK,
        CHUNK + 1,
        1000,
        10_000,
    ];
    const GRAINS: [(usize, usize); 2] = [(1, usize::MAX), (MIN, CHUNK)];

    fn pool(n: usize) -> crate::ThreadPool {
        crate::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    }

    /// Run `f` with the inline budget of regions driven from this thread
    /// replaced by `budget`.
    fn with_budget<T>(budget: Duration, f: impl FnOnce() -> T) -> T {
        BUDGET_OVERRIDE.with(|b| b.set(Some(budget)));
        let out = f();
        BUDGET_OVERRIDE.with(|b| b.set(None));
        out
    }

    /// Run `region` with budget 0 (every chunk published) and with an
    /// unlimited budget (everything inline) on a 2-worker pool, assert
    /// both agree, and return the result.
    fn same_either_way<T: PartialEq + std::fmt::Debug + Send>(region: impl Fn() -> T + Sync) -> T {
        let pool = pool(2);
        let published = pool.install(|| with_budget(Duration::ZERO, &region));
        let inline = pool.install(|| with_budget(Duration::MAX, &region));
        assert_eq!(published, inline);
        published
    }

    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    /// Equal under `Ord` by key only, so tie-breaking is observable.
    #[derive(Clone, Copy, Debug)]
    struct Tied(u32, usize);
    impl PartialEq for Tied {
        fn eq(&self, other: &Self) -> bool {
            self.0 == other.0
        }
    }
    impl Eq for Tied {}
    impl PartialOrd for Tied {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Tied {
        fn cmp(&self, other: &Self) -> Ordering {
            self.0.cmp(&other.0)
        }
    }

    /// An associative, non-commutative combine: a polynomial hash of
    /// the sequence, so any reordering changes the result.
    fn poly((h1, p1): (u64, u64), (h2, p2): (u64, u64)) -> (u64, u64) {
        (h1.wrapping_mul(p2).wrapping_add(h2), p1.wrapping_mul(p2))
    }

    #[test]
    fn indexed_consumers_match_across_budgets() {
        for n in LENS {
            for (lo, hi) in GRAINS {
                let par = || (0..n).into_par_iter().with_min_len(lo).with_max_len(hi);
                let seq = || 0..n;

                let collected = same_either_way(|| par().map(|x| x * 3).collect::<Vec<_>>());
                assert_eq!(collected, seq().map(|x| x * 3).collect::<Vec<_>>());

                let extended = same_either_way(|| {
                    let mut v = vec![usize::MAX; 3];
                    v.par_extend(par().map(|x| x + 1));
                    v
                });
                let mut want = vec![usize::MAX; 3];
                want.extend(seq().map(|x| x + 1));
                assert_eq!(extended, want);

                let visits = same_either_way(|| {
                    let hits: Vec<AtomicUsize> = seq().map(|_| AtomicUsize::new(0)).collect();
                    par().for_each(|i| {
                        hits[i].fetch_add(1, Relaxed);
                    });
                    hits.into_iter().map(|h| h.into_inner()).collect::<Vec<_>>()
                });
                assert!(visits.iter().all(|&h| h == 1), "n={n}: each item once");

                let hash = |x: usize| (x as u64 ^ 0x9e37, 31u64);
                let reduced = same_either_way(|| par().map(hash).reduce(|| (0, 1), poly));
                assert_eq!(reduced, seq().map(hash).fold((0, 1), poly));

                let folded = same_either_way(|| {
                    let accs: Vec<Vec<usize>> = par()
                        .fold(Vec::new, |mut acc, x| {
                            acc.push(x);
                            acc
                        })
                        .collect();
                    accs.concat()
                });
                assert_eq!(folded, seq().collect::<Vec<_>>());

                let sum = same_either_way(|| par().map(|x| x as u64).sum::<u64>());
                assert_eq!(sum, seq().map(|x| x as u64).sum::<u64>());

                let tied = |i: usize| Tied((i % 7) as u32, i);
                let (min, max) = same_either_way(|| {
                    let min = par().map(tied).min().map(|t| t.1);
                    let max = par().map(tied).max().map(|t| t.1);
                    (min, max)
                });
                assert_eq!(min, seq().map(tied).min().map(|t| t.1));
                assert_eq!(max, seq().map(tied).max().map(|t| t.1));

                let key = |x: &usize| x % 5;
                let by_key = same_either_way(|| (par().min_by_key(key), par().max_by_key(key)));
                assert_eq!(by_key, (seq().min_by_key(key), seq().max_by_key(key)));

                let late = |x: usize| x % 97 == 96;
                let first = same_either_way(|| {
                    (par().position_first(late), par().find_first(|&x| late(x)))
                });
                assert_eq!(first, (seq().position(late), seq().find(|&x| late(x))));

                let mapped = same_either_way(|| {
                    par()
                        .map_init(
                            || 0usize,
                            |seen, x| {
                                *seen += 1;
                                x * 2
                            },
                        )
                        .collect::<Vec<_>>()
                });
                assert_eq!(mapped, seq().map(|x| x * 2).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn unindexed_consumers_match_across_budgets() {
        for n in LENS {
            for (lo, hi) in GRAINS {
                let par = || (0..n).into_par_iter().with_min_len(lo).with_max_len(hi);
                let seq = || 0..n;

                let filtered = same_either_way(|| {
                    let kept: Vec<usize> = par().filter(|x| x % 3 == 0).collect();
                    let count = par().filter(|x| x % 3 == 0).count();
                    let sum = par().filter(|x| x % 3 == 0).sum::<usize>();
                    (kept, count, sum)
                });
                let kept: Vec<usize> = seq().filter(|x| x % 3 == 0).collect();
                assert_eq!(filtered, (kept.clone(), kept.len(), kept.iter().sum()));

                let flat = same_either_way(|| {
                    let mut out = vec![7usize];
                    out.par_extend(par().flat_map_iter(|x| 0..x % 4));
                    let first = par().flat_map_iter(|x| 0..x % 4).find_first(|&y| y == 2);
                    (out, first)
                });
                let mut want = vec![7usize];
                want.extend(seq().flat_map(|x| 0..x % 4));
                let first = seq().flat_map(|x| 0..x % 4).find(|&y| y == 2);
                assert_eq!(flat, (want, first));

                let tied = |i: usize| Tied((i % 7) as u32, i);
                let extremes = same_either_way(|| {
                    let min = par().filter(|x| x % 2 == 1).map(tied).min().map(|t| t.1);
                    let max = par().filter(|x| x % 2 == 1).map(tied).max().map(|t| t.1);
                    (min, max)
                });
                let odd = || seq().filter(|x| x % 2 == 1).map(tied);
                assert_eq!(
                    extremes,
                    (odd().min().map(|t| t.1), odd().max().map(|t| t.1))
                );
            }
        }
    }

    #[test]
    fn sub_budget_region_executes_no_pool_jobs() {
        // The budget is wall-clock time, so a preemption in the middle
        // of the region can legitimately publish it; one clean attempt
        // out of three pins the behaviour.
        let pool = pool(2);
        let jobs: Vec<u64> = (0..3)
            .map(|_| {
                let before = pool.scheduler_counters();
                pool.install(|| (0..64u32).into_par_iter().for_each(|x| assert!(x < 64)));
                pool.scheduler_counters().since(&before).jobs_executed
            })
            .collect();
        assert!(
            jobs.contains(&0),
            "a 64-item no-op region ran pool jobs: {jobs:?}"
        );
    }

    #[test]
    fn over_budget_region_publishes_the_remainder() {
        // The first item alone outlasts the budget, so the seven items
        // left become seven one-item jobs. Two workers plus the helping
        // caller cannot each run at most one of seven, so some executor
        // finished a job before the batch latch opened.
        let pool = pool(2);
        let before = pool.scheduler_counters();
        pool.install(|| {
            (0..8u32).into_par_iter().with_max_len(1).for_each(|x| {
                if x == 0 {
                    spin(4 * INLINE_BUDGET);
                }
            })
        });
        let delta = pool.scheduler_counters().since(&before);
        assert!(delta.jobs_executed >= 1, "{delta:?}");
    }

    #[test]
    fn par_extend_appends_inline_prefixes_before_published_chunks() {
        // Items 0..3 outlast the budget between them: the caller folds
        // the prefixes [0] and [1, 2] inline, appending to `out`
        // directly, and publishes the rest as chunks of their own.
        let pool = pool(2);
        let items = |x: usize| 0..x % 5;
        let mut out = vec![usize::MAX];
        pool.install(|| {
            out.par_extend((0..64usize).into_par_iter().flat_map_iter(|x| {
                if x < 3 {
                    spin(INLINE_BUDGET / 2);
                }
                items(x)
            }))
        });
        let mut want = vec![usize::MAX];
        want.extend((0..64).flat_map(items));
        assert_eq!(out, want);
    }

    #[test]
    fn inline_prefix_panic_leaves_nothing_queued() {
        let pool = pool(2);
        let before = pool.scheduler_counters();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.install(|| {
                (0..10_000u32)
                    .into_par_iter()
                    .for_each(|x| assert!(x != 0, "boom in the first prefix"))
            })
        }));
        assert!(result.is_err(), "the inline panic must reach the caller");
        let delta = pool.scheduler_counters().since(&before);
        assert_eq!(delta.injector_pushes, 0, "nothing was published: {delta:?}");
        assert_eq!(delta.jobs_executed, 0, "{delta:?}");
        // The pool is still usable, on both the inline and the
        // published path.
        let sum: u64 = pool.install(|| {
            (0..8u64)
                .into_par_iter()
                .with_max_len(1)
                .map(|x| {
                    spin(2 * INLINE_BUDGET);
                    x
                })
                .sum()
        });
        assert_eq!(sum, 28);
        let small: u64 = pool.install(|| (0..10u64).into_par_iter().sum());
        assert_eq!(small, 45);
    }
}
