//! Deterministic structure-aware fuzzing for the workspace's input
//! boundaries.
//!
//! PR 6 made adversarial *schedules* seeded and replayable; PR 9 did
//! the same for *faults*. This module extends the discipline to
//! *inputs*: a [`FuzzPlan`] is a seed string, and every mutated case it
//! emits is a **pure function** of `(seed, case index)` — no global
//! RNG, no clocks — so a failing case replays from two printable
//! values. `pp-serve`'s `tests/fuzzed_inputs.rs` leans on exactly that:
//! the same plan produces the same case stream at 1 worker and at 8.
//!
//! The engine is *structure-aware*: instead of flipping random bytes it
//! starts from a **valid** instance and applies one named mutation that
//! targets a specific invariant of the input's structure. Three
//! mutator families cover the workspace's hostile-input surface:
//!
//! * **CSR arrays** ([`FuzzPlan::csr_case`]) — offset monotonicity,
//!   offset/target agreement, target range, weight parallelism: the
//!   invariants `pp_graph::Graph::try_from_csr` checks.
//! * **Scenario keys** ([`FuzzPlan::key_case`]) — truncation, trailing
//!   garbage, case flips, segment surgery: the grammar
//!   `pp_workloads::ScenarioSpec::parse` accepts.
//! * **Query-config knobs** ([`FuzzPlan::knob_case`]) — deadline zero,
//!   Δ/ρ at the `u64` extremes, out-of-range sources: the values the
//!   registry's `validate_case` / cancellation machinery must absorb.
//!
//! Every family includes an **identity** mutation (no change). The
//! driver's contract is uniform: a mutated input must resolve to
//! exactly one *typed* outcome (an `Ok` or a typed error — never a
//! panic, never a hang), and an identity case must be accepted with an
//! output byte-identical to the unfuzzed run. This crate stays
//! dependency-free, so the mutators deal in raw arrays, strings and
//! knob descriptors; the drivers (`pp-graph`'s `csr_properties.rs` for
//! CSR arrays, `pp-serve`'s `fuzzed_inputs.rs` for keys, knobs and a
//! hostile trace) feed them into the real constructors.
//!
//! ```
//! use pp_check::fuzz::FuzzPlan;
//!
//! let plan = FuzzPlan::new("doc-seed");
//! // Pure in (seed, index): the same case twice, byte for byte.
//! let a = plan.key_case(7, "graph/rmat+w/uniform");
//! let b = plan.key_case(7, "graph/rmat+w/uniform");
//! assert_eq!(a.key, b.key);
//! assert_eq!(a.mutation, b.mutation);
//! ```

use std::fmt;

/// A seeded fuzz schedule. The seed string is the replay handle: any
/// failure report prints `(seed, case index, mutation)`, and re-running
/// the same plan reproduces the identical case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzPlan {
    seed: String,
}

/// The per-case random stream: splitmix64 over a pure hash of
/// `(plan seed, case index)`. Deterministic and platform-stable.
#[derive(Clone, Debug)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    fn new(seed: &str, case: u64) -> Self {
        // FNV-1a over the seed bytes, a separator, and the index —
        // the same keying idiom as `fault::decision_hash`.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(seed.as_bytes());
        eat(&[0xff]);
        eat(&case.to_le_bytes());
        Self { state: h }
    }

    /// The next raw 64-bit draw (splitmix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        self.next_u64() % n
    }

    /// A uniformly chosen index into a nonempty slice.
    pub fn index_in<T>(&mut self, xs: &[T]) -> usize {
        self.below(xs.len() as u64) as usize
    }
}

/// One mutated CSR case: the arrays to feed `Graph::try_from_csr`,
/// plus the name of the mutation that produced them.
#[derive(Clone, Debug)]
pub struct CsrCase {
    pub offsets: Vec<usize>,
    pub targets: Vec<u32>,
    pub weights: Vec<u64>,
    /// The mutation applied; `"identity"` means the arrays are the
    /// valid originals and the constructor must accept them unchanged.
    pub mutation: &'static str,
}

/// One mutated scenario-key case.
#[derive(Clone, Debug)]
pub struct KeyCase {
    pub key: String,
    /// `"identity"` keys must parse to the original scenario.
    pub mutation: &'static str,
}

/// One query-config knob case: the extreme values to graft onto a
/// `RunConfig` (this crate cannot name that type — drivers apply the
/// `Some` fields through the config's builders).
#[derive(Clone, Debug)]
pub struct KnobCase {
    /// Deadline budget in nanoseconds (`Some(0)` = already expired).
    pub deadline_nanos: Option<u64>,
    /// Δ-stepping bucket width override.
    pub delta: Option<u64>,
    /// ρ-stepping batch bound override.
    pub rho: Option<u64>,
    /// Source-vertex override (may be far out of range on purpose).
    pub source: Option<u32>,
    /// `"identity"` leaves every knob at its default.
    pub mutation: &'static str,
}

impl fmt::Display for KnobCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (deadline={:?} delta={:?} rho={:?} source={:?})",
            self.mutation, self.deadline_nanos, self.delta, self.rho, self.source
        )
    }
}

/// The CSR mutations [`FuzzPlan::csr_case`] rotates through. Public so
/// drivers can size their sweeps to cover every mutation at least once.
pub const CSR_MUTATIONS: &[&str] = &[
    "identity",
    "offsets-empty",
    "offsets-truncated",
    "offsets-decreasing",
    "offsets-last-inflated",
    "target-out-of-range",
    "targets-truncated",
    "targets-extended",
    "weights-truncated",
    "weights-extended",
];

/// The scenario-key mutations [`FuzzPlan::key_case`] rotates through.
pub const KEY_MUTATIONS: &[&str] = &[
    "identity",
    "trailing-garbage",
    "truncated",
    "case-flipped",
    "segment-dropped",
    "segment-doubled",
    "embedded-junk",
];

/// The knob mutations [`FuzzPlan::knob_case`] rotates through.
pub const KNOB_MUTATIONS: &[&str] = &[
    "identity",
    "deadline-zero",
    "delta-max",
    "delta-one",
    "rho-max",
    "rho-one",
    "source-out-of-range",
];

impl FuzzPlan {
    /// A plan under `seed` — the printable replay handle.
    pub fn new(seed: &str) -> Self {
        Self {
            seed: seed.to_string(),
        }
    }

    /// The plan's replay seed.
    pub fn seed(&self) -> &str {
        &self.seed
    }

    /// The per-case RNG — exposed so drivers can derive auxiliary
    /// choices (which base graph, which entry) from the same stream.
    pub fn rng(&self, case: u64) -> FuzzRng {
        FuzzRng::new(&self.seed, case)
    }

    /// Mutate one valid CSR triple. The mutation is chosen by
    /// `(seed, case)`; the case index also strides the mutation table,
    /// so any window of `CSR_MUTATIONS.len()` consecutive indices
    /// covers every mutation exactly once.
    pub fn csr_case(
        &self,
        case: u64,
        offsets: &[usize],
        targets: &[u32],
        weights: &[u64],
    ) -> CsrCase {
        let mut rng = self.rng(case);
        let mutation = CSR_MUTATIONS[(case % CSR_MUTATIONS.len() as u64) as usize];
        let mut offsets = offsets.to_vec();
        let mut targets = targets.to_vec();
        let mut weights = weights.to_vec();
        let n = offsets.len().saturating_sub(1);
        match mutation {
            "identity" => {}
            "offsets-empty" => offsets.clear(),
            "offsets-truncated" => {
                let keep = rng.below(offsets.len() as u64) as usize;
                offsets.truncate(keep);
            }
            "offsets-decreasing" => {
                if offsets.len() >= 2 {
                    // Inflate an interior offset past its successor.
                    let at = rng.below(offsets.len() as u64 - 1) as usize;
                    offsets[at] = offsets[at + 1] + 1 + rng.below(7) as usize;
                } else {
                    offsets.clear(); // degenerate base: still hostile
                }
            }
            "offsets-last-inflated" => {
                if let Some(last) = offsets.last_mut() {
                    *last += 1 + rng.below(9) as usize;
                }
            }
            "target-out-of-range" => {
                if targets.is_empty() {
                    // No arc to corrupt: claim one that does not exist.
                    if let Some(last) = offsets.last_mut() {
                        *last += 1;
                    }
                    targets.push(n as u32 + 1 + rng.below(5) as u32);
                    weights.push(1);
                } else {
                    let at = rng.index_in(&targets);
                    targets[at] = n as u32 + rng.below(1 << 20) as u32;
                }
            }
            "targets-truncated" => {
                let keep = if targets.is_empty() {
                    return CsrCase {
                        // Nothing to truncate: fall back to an offset
                        // lie, which trips the same mismatch check.
                        offsets: {
                            if let Some(last) = offsets.last_mut() {
                                *last += 1;
                            }
                            offsets
                        },
                        targets,
                        weights,
                        mutation: "offsets-last-inflated",
                    };
                } else {
                    rng.below(targets.len() as u64) as usize
                };
                targets.truncate(keep);
            }
            "targets-extended" => {
                targets.push(rng.below(n.max(1) as u64) as u32);
            }
            "weights-truncated" => {
                if weights.is_empty() {
                    // Unweighted base: a lone stray weight misparallels.
                    weights.push(rng.next_u64());
                } else {
                    weights.pop();
                }
            }
            "weights-extended" => {
                weights.push(rng.next_u64());
            }
            _ => unreachable!("unknown CSR mutation"),
        }
        CsrCase {
            offsets,
            targets,
            weights,
            mutation,
        }
    }

    /// Mutate one valid scenario key. Strided like [`Self::csr_case`].
    pub fn key_case(&self, case: u64, key: &str) -> KeyCase {
        let mut rng = self.rng(case);
        let mutation = KEY_MUTATIONS[(case % KEY_MUTATIONS.len() as u64) as usize];
        let junk = ["zzz", "+w", "/", "\u{fffd}", "rmat", "0", " ", "-"];
        let key = match mutation {
            "identity" => key.to_string(),
            "trailing-garbage" => format!("{key}{}", junk[rng.index_in(&junk)]),
            "truncated" => {
                let cut = rng.below(key.len() as u64 + 1) as usize;
                key.chars().take(cut).collect()
            }
            "case-flipped" => {
                let at = rng.below(key.len() as u64) as usize;
                key.chars()
                    .enumerate()
                    .map(|(i, c)| if i == at { c.to_ascii_uppercase() } else { c })
                    .collect()
            }
            "segment-dropped" => {
                let parts: Vec<&str> = key.split('/').collect();
                let drop = rng.index_in(&parts);
                parts
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != drop)
                    .map(|(_, s)| *s)
                    .collect::<Vec<_>>()
                    .join("/")
            }
            "segment-doubled" => {
                let parts: Vec<&str> = key.split('/').collect();
                let dup = rng.index_in(&parts);
                let mut out: Vec<&str> = Vec::with_capacity(parts.len() + 1);
                for (i, s) in parts.iter().enumerate() {
                    out.push(s);
                    if i == dup {
                        out.push(s);
                    }
                }
                out.join("/")
            }
            "embedded-junk" => {
                let at = rng.below(key.len() as u64 + 1) as usize;
                let j = junk[rng.index_in(&junk)];
                let mut s: String = key.chars().take(at).collect();
                s.push_str(j);
                s.extend(key.chars().skip(at));
                s
            }
            _ => unreachable!("unknown key mutation"),
        };
        KeyCase { key, mutation }
    }

    /// One query-knob extreme. `instance_size` bounds what counts as an
    /// out-of-range source. Strided like [`Self::csr_case`].
    pub fn knob_case(&self, case: u64, instance_size: usize) -> KnobCase {
        let mut rng = self.rng(case);
        let mutation = KNOB_MUTATIONS[(case % KNOB_MUTATIONS.len() as u64) as usize];
        let mut out = KnobCase {
            deadline_nanos: None,
            delta: None,
            rho: None,
            source: None,
            mutation,
        };
        match mutation {
            "identity" => {}
            "deadline-zero" => out.deadline_nanos = Some(0),
            "delta-max" => out.delta = Some(u64::MAX),
            "delta-one" => out.delta = Some(1),
            "rho-max" => out.rho = Some(u64::MAX),
            "rho-one" => out.rho = Some(1),
            "source-out-of-range" => {
                // At or above the guaranteed floor — sometimes just
                // barely, sometimes astronomically.
                let floor = instance_size.max(1) as u64;
                let over = if rng.below(2) == 0 {
                    0
                } else {
                    rng.below(u64::from(u32::MAX) - floor.min(u64::from(u32::MAX)))
                };
                out.source = Some(floor.saturating_add(over).min(u64::from(u32::MAX)) as u32);
            }
            _ => unreachable!("unknown knob mutation"),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OFFSETS: &[usize] = &[0, 2, 3, 3, 5];
    const TARGETS: &[u32] = &[1, 3, 0, 0, 2];
    const WEIGHTS: &[u64] = &[5, 1, 5, 9, 2];

    #[test]
    fn cases_are_pure_in_seed_and_index() {
        let plan = FuzzPlan::new("purity");
        for i in 0..64u64 {
            let a = plan.csr_case(i, OFFSETS, TARGETS, WEIGHTS);
            let b = plan.csr_case(i, OFFSETS, TARGETS, WEIGHTS);
            assert_eq!(a.offsets, b.offsets);
            assert_eq!(a.targets, b.targets);
            assert_eq!(a.weights, b.weights);
            assert_eq!(a.mutation, b.mutation);
            assert_eq!(
                plan.key_case(i, "graph/rmat+w/uniform").key,
                plan.key_case(i, "graph/rmat+w/uniform").key
            );
        }
    }

    #[test]
    fn different_seeds_mutate_differently() {
        let a = FuzzPlan::new("seed-a");
        let b = FuzzPlan::new("seed-b");
        let stream = |plan: &FuzzPlan| -> Vec<String> {
            (0..32)
                .map(|i| plan.key_case(i, "graph/rmat+w/uniform").key)
                .collect()
        };
        assert_ne!(stream(&a), stream(&b));
    }

    #[test]
    fn every_mutation_appears_in_one_stride() {
        let plan = FuzzPlan::new("coverage");
        let csr: Vec<&str> = (0..CSR_MUTATIONS.len() as u64)
            .map(|i| plan.csr_case(i, OFFSETS, TARGETS, WEIGHTS).mutation)
            .collect();
        for m in CSR_MUTATIONS {
            // `targets-truncated` may legitimately rewrite itself on an
            // arcless base, but this base has arcs.
            assert!(csr.contains(m), "missing CSR mutation {m}");
        }
        let keys: Vec<&str> = (0..KEY_MUTATIONS.len() as u64)
            .map(|i| plan.key_case(i, "graph/rmat+w/uniform").mutation)
            .collect();
        for m in KEY_MUTATIONS {
            assert!(keys.contains(m), "missing key mutation {m}");
        }
        let knobs: Vec<&str> = (0..KNOB_MUTATIONS.len() as u64)
            .map(|i| plan.knob_case(i, 100).mutation)
            .collect();
        for m in KNOB_MUTATIONS {
            assert!(knobs.contains(m), "missing knob mutation {m}");
        }
    }

    #[test]
    fn identity_cases_really_are_identities() {
        let plan = FuzzPlan::new("id");
        // Index 0 of each stride is the identity mutation.
        let c = plan.csr_case(0, OFFSETS, TARGETS, WEIGHTS);
        assert_eq!(c.mutation, "identity");
        assert_eq!(c.offsets, OFFSETS);
        assert_eq!(c.targets, TARGETS);
        assert_eq!(c.weights, WEIGHTS);
        let k = plan.key_case(0, "seq/uniform");
        assert_eq!((k.mutation, k.key.as_str()), ("identity", "seq/uniform"));
        let kn = plan.knob_case(0, 10);
        assert_eq!(kn.mutation, "identity");
        assert!(kn.deadline_nanos.is_none() && kn.source.is_none());
        assert!(kn.delta.is_none() && kn.rho.is_none());
    }

    #[test]
    fn source_out_of_range_is_at_or_above_floor() {
        let plan = FuzzPlan::new("floor");
        let mut seen = 0;
        for i in 0..200u64 {
            let k = plan.knob_case(i, 120);
            if let Some(source) = k.source {
                assert_eq!(k.mutation, "source-out-of-range");
                assert!(source as usize >= 120, "source {source} under floor");
                seen += 1;
            }
        }
        assert!(seen > 0);
    }

    #[test]
    fn hostile_csr_mutations_change_something() {
        let plan = FuzzPlan::new("delta");
        for i in 0..100u64 {
            let c = plan.csr_case(i, OFFSETS, TARGETS, WEIGHTS);
            if c.mutation != "identity" {
                assert!(
                    c.offsets != OFFSETS || c.targets != TARGETS || c.weights != WEIGHTS,
                    "case {i} ({}) mutated nothing",
                    c.mutation
                );
            }
        }
    }
}
