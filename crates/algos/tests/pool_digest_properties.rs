//! Property: outputs are **thread-count-independent** under the
//! work-stealing pool.
//!
//! Pool v2 lets any worker steal chunks from any other, so execution
//! order varies wildly with the schedule — but `run_chunks` combines
//! chunk results in chunk order and every family's parallel execution
//! must equal its sequential baseline. These properties pin that down
//! across 1-, 2-, and 8-thread pools (1 = no stealing possible, 2 = one
//! potential thief, 8 = oversubscribed on small CI runners, maximal
//! steal traffic): same instance, same run seed, identical digests.

use pp_algos::registry::{lookup, CaseSpec};
use pp_algos::RunConfig;
use proptest::prelude::*;

/// One family per engine class (Type 1, Type 2, relaxed-rank,
/// reservations), plus the LIS workhorse — enough to cover every
/// parallel-iterator shape the pool schedules without running the whole
/// registry per proptest case.
const FAMILIES: &[&str] = &[
    "lis",
    "knapsack",
    "sssp/delta",
    "coloring",
    "matching/reservations",
];

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn digests_identical_across_1_2_8_thread_pools(
        family_index in 0usize..5,
        size in 1usize..120,
        case_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let family = FAMILIES[family_index];
        let entry = lookup(family).expect("family is registered");
        let case = CaseSpec::new(size, case_seed);
        let mut digests = Vec::new();
        for threads in THREAD_COUNTS {
            let cfg = RunConfig::seeded(run_seed).with_threads(threads);
            let outcome = entry.run_case(&case, &cfg).unwrap();
            prop_assert_eq!(
                outcome.expected_digest,
                outcome.observed_digest,
                "{} diverged from its sequential baseline on {} threads",
                family,
                threads
            );
            digests.push(outcome.observed_digest);
        }
        prop_assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "{} digests vary with thread count: {:?}",
            family,
            digests
        );
    }

    // The prepared path under stealing: one instance prepared once,
    // queries answered on 2- and 8-thread pools must reproduce the
    // one-shot digests of the same query configs.
    #[test]
    fn prepared_digests_survive_stealing_pools(
        size in 1usize..80,
        case_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let entry = lookup("lis").expect("lis is registered");
        let case = CaseSpec::new(size, case_seed);
        let queries: Vec<RunConfig> =
            (0..3).map(|i| RunConfig::seeded(run_seed + i)).collect();
        for threads in [2usize, 8] {
            let cfg = RunConfig::seeded(run_seed).with_threads(threads);
            for (i, outcome) in entry.run_batch(&case, &queries, &cfg).unwrap().iter().enumerate() {
                prop_assert!(
                    outcome.agrees(),
                    "prepared query {} diverged on {} threads",
                    i,
                    threads
                );
            }
        }
    }
}
