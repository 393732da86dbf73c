//! Augmentation structures: the `(A, f, I_A)` monoid plus base function
//! `g : K × V → A` of §2 / Appendix A.

/// An augmentation over key-value pairs: maps each entry to an augmented
/// value and combines augmented values associatively.
pub trait Augment<K, V>: Send + Sync {
    /// The augmented value type.
    type A: Clone + Send + Sync;

    /// The identity of [`Augment::combine`].
    fn identity(&self) -> Self::A;

    /// Base function `g`: augmented value of a single entry.
    fn base(&self, k: &K, v: &V) -> Self::A;

    /// Associative combine `f`.
    fn combine(&self, a: &Self::A, b: &Self::A) -> Self::A;
}

/// No augmentation (unit); for plain ordered maps/sets.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoAug;

impl<K, V> Augment<K, V> for NoAug {
    type A = ();
    fn identity(&self) {}
    fn base(&self, _: &K, _: &V) {}
    fn combine(&self, _: &(), _: &()) {}
}

/// Sum of values (requires `V: Into<u64>`-like access via a projection).
#[derive(Clone, Copy, Debug, Default)]
pub struct SumAug;

impl<K> Augment<K, u64> for SumAug {
    type A = u64;
    fn identity(&self) -> u64 {
        0
    }
    fn base(&self, _: &K, v: &u64) -> u64 {
        *v
    }
    fn combine(&self, a: &u64, b: &u64) -> u64 {
        a + b
    }
}

/// Maximum of values — e.g. `T_DP` in Algorithm 2, "augmented on the
/// maximum DP value".
#[derive(Clone, Copy, Debug, Default)]
pub struct MaxAug;

impl<K> Augment<K, u64> for MaxAug {
    type A = u64;
    fn identity(&self) -> u64 {
        0
    }
    fn base(&self, _: &K, v: &u64) -> u64 {
        *v
    }
    fn combine(&self, a: &u64, b: &u64) -> u64 {
        *a.max(b)
    }
}

/// Minimum of values — e.g. `T_time` in Algorithm 2, "augmented on the
/// minimum end time".
#[derive(Clone, Copy, Debug, Default)]
pub struct MinAug;

impl<K> Augment<K, u64> for MinAug {
    type A = u64;
    fn identity(&self) -> u64 {
        u64::MAX
    }
    fn base(&self, _: &K, v: &u64) -> u64 {
        *v
    }
    fn combine(&self, a: &u64, b: &u64) -> u64 {
        *a.min(b)
    }
}
