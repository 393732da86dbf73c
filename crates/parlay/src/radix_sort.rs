//! Parallel stable LSD radix sort for integer keys.
//!
//! The comparison sort in [`crate::sort`] is the general-purpose
//! workhorse; several substrates sort *small integer keys* (graph edges
//! by endpoint, Huffman leaves by frequency, activity slots, compressed
//! coordinates), where an `O(passes · n)`-work counting sort wins. This
//! is ParlayLib's `integer_sort` shape: per pass, chunked parallel
//! histograms, an exclusive scan over the (chunk × bucket) count matrix,
//! and a stable parallel scatter — `O(n)` work per 8-bit digit pass and
//! `O(log n)` span per pass in the binary-forking model. The random
//! permutation of `pp-algos` groups the Knuth shuffle's iterations by
//! swap target with it.
//!
//! Stability matters: the tree/tour builders rely on equal keys keeping
//! their input order (the same reason Theorem 2.1 asks for stable batch
//! construction).

use rayon::prelude::*;

/// Digit width in bits; 256 buckets keeps per-chunk count arrays in L1.
const DIGIT_BITS: usize = 8;
const BUCKETS: usize = 1 << DIGIT_BITS;

/// Below this many elements a plain stable comparison sort beats the
/// counting passes, whose per-pass cost includes every bucket.
const CMP_CUTOFF: usize = BUCKETS;

/// The smallest chunk one worker takes in a pass.
const MIN_CHUNK: usize = 1 << 12;

/// A raw destination shared across scatter workers. Soundness: the
/// offset matrix assigns every (chunk, bucket) pair a disjoint output
/// range, so no two workers ever write the same index.
struct SharedOut<T>(*mut T);
// SAFETY: the offset matrix gives every (chunk, bucket) pair a disjoint
// output range, so no two workers ever write the same index.
unsafe impl<T: Send> Send for SharedOut<T> {}
unsafe impl<T: Send> Sync for SharedOut<T> {}

/// Stable sort of `v` by a `u64` key using `key_bits` low bits
/// (`key_bits ≤ 64`; pass exactly the bits you need — e.g. 32 for `u32`
/// keys — to halve the pass count).
pub fn radix_sort_by_key<T, F>(v: &mut [T], key_bits: usize, key: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync,
{
    assert!(key_bits <= 64);
    let n = v.len();
    if n <= 1 {
        return;
    }
    if n <= CMP_CUTOFF {
        v.sort_by_key(|t| key(t));
        return;
    }
    let passes = key_bits.div_ceil(DIGIT_BITS);
    let mut buf: Vec<T> = Vec::with_capacity(n);
    // SAFETY: every element of `buf` is written by the first scatter pass
    // before any read; `T: Copy` so skipped drops are fine.
    #[allow(clippy::uninit_vec)]
    unsafe {
        buf.set_len(n);
    }
    let chunk = (n / (rayon::current_num_threads() * 4).max(1)).max(MIN_CHUNK);
    let num_chunks = n.div_ceil(chunk);

    let mut src_is_v = true;
    for pass in 0..passes {
        let shift = pass * DIGIT_BITS;
        let (src, dst): (&[T], &mut [T]) = if src_is_v {
            (&*v, &mut buf[..])
        } else {
            (&*buf, &mut v[..])
        };
        // 1. Per-chunk digit histograms.
        let counts: Vec<[u32; BUCKETS]> = src
            .par_chunks(chunk)
            .map(|ch| {
                let mut local = [0u32; BUCKETS];
                for t in ch {
                    local[((key(t) >> shift) as usize) & (BUCKETS - 1)] += 1;
                }
                local
            })
            .collect();
        // 2. Exclusive scan in bucket-major order: chunk c's bucket b
        // starts after all smaller buckets and after bucket b of all
        // earlier chunks — exactly the stable order.
        let mut offsets = vec![[0u32; BUCKETS]; num_chunks];
        let mut acc = 0u32;
        for b in 0..BUCKETS {
            for c in 0..num_chunks {
                offsets[c][b] = acc;
                acc += counts[c][b];
            }
        }
        debug_assert_eq!(acc as usize, n);
        // 3. Stable parallel scatter: chunk-local cursors walk disjoint
        // output ranges.
        let out = SharedOut(dst.as_mut_ptr());
        src.par_chunks(chunk)
            .zip(offsets.into_par_iter())
            .for_each(|(ch, mut cursor)| {
                let out = &out;
                for t in ch {
                    let b = ((key(t) >> shift) as usize) & (BUCKETS - 1);
                    // SAFETY: disjointness per the offset matrix.
                    unsafe {
                        *out.0.add(cursor[b] as usize) = *t;
                    }
                    cursor[b] += 1;
                }
            });
        src_is_v = !src_is_v;
    }
    if !src_is_v {
        // Result currently lives in `buf`.
        v.par_iter_mut()
            .zip(buf.par_iter())
            .for_each(|(d, s)| *d = *s);
    }
}

/// Stable parallel radix sort of `u32`s.
pub fn radix_sort_u32(v: &mut [u32]) {
    radix_sort_by_key(v, 32, |&x| u64::from(x));
}

/// Stable parallel radix sort of `u64`s.
pub fn radix_sort_u64(v: &mut [u64]) {
    radix_sort_by_key(v, 64, |&x| x);
}

/// Stable parallel radix sort of `i64`s (sign-biased to preserve order).
pub fn radix_sort_i64(v: &mut [i64]) {
    radix_sort_by_key(v, 64, |&x| (x as u64) ^ (1 << 63));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn empty_single_pair() {
        let mut v: Vec<u32> = vec![];
        radix_sort_u32(&mut v);
        assert!(v.is_empty());
        let mut v = vec![7u32];
        radix_sort_u32(&mut v);
        assert_eq!(v, vec![7]);
        let mut v = vec![9u32, 3];
        radix_sort_u32(&mut v);
        assert_eq!(v, vec![3, 9]);
    }

    #[test]
    fn random_u32_matches_std() {
        let mut r = Rng::new(1);
        for n in [
            100usize,
            CMP_CUTOFF + 1,
            5000,
            4 * MIN_CHUNK - 1,
            4 * MIN_CHUNK + 1,
            200_000,
        ] {
            let mut v: Vec<u32> = (0..n).map(|_| r.next_u64() as u32).collect();
            let mut want = v.clone();
            want.sort_unstable();
            radix_sort_u32(&mut v);
            assert_eq!(v, want, "n={n}");
        }
    }

    #[test]
    fn random_u64_matches_std() {
        let mut r = Rng::new(2);
        let mut v: Vec<u64> = (0..150_000).map(|_| r.next_u64()).collect();
        let mut want = v.clone();
        want.sort_unstable();
        radix_sort_u64(&mut v);
        assert_eq!(v, want);
    }

    #[test]
    fn i64_negative_ordering() {
        let mut r = Rng::new(3);
        let mut v: Vec<i64> = (0..100_000).map(|_| r.next_u64() as i64).collect();
        v.push(i64::MIN);
        v.push(i64::MAX);
        v.push(0);
        let mut want = v.clone();
        want.sort_unstable();
        radix_sort_i64(&mut v);
        assert_eq!(v, want);
    }

    #[test]
    fn stability_preserved() {
        // Sort pairs (key, original index) by key only; within a key the
        // original order must survive.
        let mut r = Rng::new(4);
        for n in [120_000, CMP_CUTOFF + 1, 5000] {
            let mut v: Vec<(u32, u32)> = (0..n as u32).map(|i| (r.range(64) as u32, i)).collect();
            radix_sort_by_key(&mut v, 6, |&(k, _)| u64::from(k));
            for w in v.windows(2) {
                assert!(w[0].0 <= w[1].0);
                if w[0].0 == w[1].0 {
                    assert!(w[0].1 < w[1].1, "stability violated at n = {n}");
                }
            }
        }
    }

    #[test]
    fn narrow_key_bits_single_pass() {
        let mut r = Rng::new(5);
        let mut v: Vec<u32> = (0..100_000).map(|_| r.range(200) as u32).collect();
        let mut want = v.clone();
        want.sort_unstable();
        radix_sort_by_key(&mut v, 8, |&x| u64::from(x));
        assert_eq!(v, want);
    }

    #[test]
    fn all_equal_and_presorted() {
        let mut v = vec![42u32; 100_000];
        radix_sort_u32(&mut v);
        assert!(v.iter().all(|&x| x == 42));
        let mut v: Vec<u32> = (0..100_000).collect();
        let want = v.clone();
        radix_sort_u32(&mut v);
        assert_eq!(v, want);
        let mut v: Vec<u32> = (0..100_000).rev().collect();
        radix_sort_u32(&mut v);
        assert_eq!(v, want);
    }
}
