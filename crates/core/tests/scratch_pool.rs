//! Scratch-pool contract tests: the take/put protocol, typed-slot
//! isolation, and — through a scratch-using toy algorithm — reuse
//! growth across prepared queries on one workspace. The module-level
//! unit tests cover single calls; this suite exercises the pool the way
//! `solve_prepared` drives it.

use phase_parallel::{ExecutionStats, PhaseAlgorithm, Report, RunConfig, Scratch};

// ---- take/put round-trips ----

#[test]
fn roundtrips_across_many_types_and_slots() {
    let mut s = Scratch::new();
    // Park several slots of distinct names and types.
    let mut a = s.take_vec::<u32>("a");
    a.extend(0..64);
    s.put_vec("a", a);
    let mut b = s.take_vec::<u64>("b");
    b.extend(0..128u64);
    s.put_vec("b", b);
    let mut nested = s.take_nested::<u8>("nest");
    nested.push(Vec::with_capacity(32));
    s.put_nested("nest", nested);
    s.put_any("state", (3usize, String::from("x")));
    assert_eq!(s.len(), 4);

    // Every take returns the parked buffer: cleared, capacity intact.
    let a = s.take_vec::<u32>("a");
    assert!(a.is_empty() && a.capacity() >= 64);
    let b = s.take_vec::<u64>("b");
    assert!(b.is_empty() && b.capacity() >= 128);
    let nested = s.take_nested::<u8>("nest");
    assert_eq!(nested.len(), 1);
    assert!(nested[0].capacity() >= 32);
    assert_eq!(s.take_any::<(usize, String)>("state").unwrap().0, 3);
    assert!(s.is_empty());
    // 4 parked takes + the 3 initial misses (put_any had no take).
    assert_eq!(s.takes(), 7);
    assert_eq!(s.reuses(), 4);
}

#[test]
fn typed_slot_mismatch_yields_fresh_buffers_not_panics() {
    let mut s = Scratch::new();
    let mut v = s.take_vec::<u32>("slot");
    v.push(7);
    s.put_vec("slot", v);

    // Same name at three other shapes: all fresh, none disturb the u32
    // slot (keys are (name, TypeId) pairs).
    assert!(s.take_vec::<u64>("slot").is_empty());
    assert!(s.take_nested::<u32>("slot").is_empty());
    assert!(s.take_any::<String>("slot").is_none());
    let back = s.take_vec::<u32>("slot");
    assert!(back.is_empty() && back.capacity() >= 1, "u32 slot survived");
    // Only the final take was served from a parked buffer.
    assert_eq!(s.reuses(), 1);
    assert_eq!(s.takes(), 5);
}

#[test]
fn mismatched_put_then_put_coexist() {
    let mut s = Scratch::new();
    s.put_vec::<u32>("x", vec![1]);
    s.put_vec::<u64>("x", vec![2]);
    assert_eq!(s.len(), 2, "same name, different types: two slots");
    assert!(s.take_vec::<u32>("x").is_empty());
    assert!(s.take_vec::<u64>("x").is_empty());
    assert_eq!(s.reuses(), 2);
}

// ---- reuse monotonicity through prepared queries ----

/// A toy family whose query path takes and puts one named buffer, and
/// reports the workspace's take and reuse counters.
struct SumWithScratch;

impl PhaseAlgorithm for SumWithScratch {
    type Input = [u64];
    type Output = u64;
    type Prepared = ();

    fn name(&self) -> &'static str {
        "sum-with-scratch"
    }
    fn solve_seq(&self, input: &[u64]) -> u64 {
        input.iter().sum()
    }
    fn solve_par(&self, input: &[u64], _cfg: &RunConfig) -> Report<u64> {
        Report::plain(self.solve_seq(input))
    }
    fn prepare(&self, _input: &[u64]) {}
    fn solve_prepared(
        &self,
        input: &[u64],
        _prepared: &(),
        scratch: &mut Scratch,
        _cfg: &RunConfig,
    ) -> Report<u64> {
        let mut buf = scratch.take_vec::<u64>("sum-buf");
        buf.extend_from_slice(input);
        let total = buf.iter().sum();
        scratch.put_vec("sum-buf", buf);
        let mut stats = ExecutionStats::default();
        stats.set_counter("scratch_reuses", scratch.reuses());
        stats.set_counter("scratch_takes", scratch.takes());
        Report::new(total, stats)
    }
}

#[test]
fn point_query_reuse_counter_is_monotone() {
    let input: Vec<u64> = (0..100).collect();
    let prepared = &SumWithScratch.prepare(&input);
    let (mut scratch, cfg) = (Scratch::new(), RunConfig::new());
    let mut last = 0;
    for i in 1..=6u64 {
        let r = SumWithScratch.solve_prepared(&input, prepared, &mut scratch, &cfg);
        assert_eq!(r.output, 4950);
        let reuses = scratch.reuses();
        assert!(
            reuses >= last,
            "reuse counter went backwards: {reuses} < {last}"
        );
        last = reuses;
        // Every query after the first finds its buffer parked.
        assert_eq!(r.stats.counter("scratch_takes"), Some(i));
        assert_eq!(r.stats.counter("scratch_reuses"), Some(i - 1));
    }
}
