//! Phase-parallel unlimited knapsack (Theorem 4.3): `O(nW)` work,
//! `O((W / w*) log n)` span.
//!
//! The frontier of round `i` is the weight window
//! `[i·w*, (i+1)·w*)`: every dependency of a state in the window lands in
//! an earlier window (items weigh ≥ w*), so the whole window fills in
//! parallel.

use super::Item;
use phase_parallel::{run_type1, Report, RunConfig, Type1Problem};
use rayon::prelude::*;

/// Parallel unlimited knapsack. The output is `(max value, dp)`, with
/// the full DP table for [`super::reconstruct`];
/// [`Knapsack`](crate::api::Knapsack) reports only the value. The
/// report's `stats.rounds == ⌈W / w*⌉` = the relaxed rank of the
/// instance. The window loop polls the config's deadline each round; a
/// trip stops the fill early with a partial DP table under
/// `RunOutcome::DeadlineExceeded`.
pub fn max_value_par_with_dp(
    items: &[Item],
    capacity: u64,
    cfg: &RunConfig,
) -> Report<(u64, Vec<u64>)> {
    if items.is_empty() || capacity == 0 {
        return Report::plain((0, vec![0; capacity as usize + 1]));
    }
    let w_star = items.iter().map(|i| i.weight).min().expect("non-empty") as usize;
    let w = capacity as usize;

    struct Problem<'a> {
        items: &'a [Item],
        dp: Vec<u64>,
        w: usize,
        w_star: usize,
        next: usize,
    }

    impl Type1Problem for Problem<'_> {
        type Output = Vec<u64>;

        fn extract_frontier(&mut self) -> Vec<u32> {
            if self.next > self.w {
                return Vec::new();
            }
            let lo = self.next;
            let hi = (lo + self.w_star).min(self.w + 1);
            self.next = hi;
            (lo as u32..hi as u32).collect()
        }

        fn process(&mut self, frontier: &[u32]) {
            let lo = frontier[0] as usize;
            let hi = *frontier.last().unwrap() as usize + 1;
            // States in [lo, hi) read only dp[..lo]: split the borrow.
            let (prefix, window) = self.dp.split_at_mut(lo);
            let items = self.items;
            window[..hi - lo]
                .par_iter_mut()
                .enumerate()
                .for_each(|(off, slot)| {
                    let j = lo + off;
                    let mut best = 0u64;
                    for it in items {
                        let iw = it.weight as usize;
                        if iw <= j {
                            debug_assert!(j - iw < prefix.len());
                            best = best.max(prefix[j - iw] + it.value);
                        }
                    }
                    *slot = best;
                });
        }

        fn finish(self) -> Vec<u64> {
            self.dp
        }
    }

    run_type1(
        Problem {
            items,
            dp: vec![0u64; w + 1],
            w,
            w_star,
            // State 0 has value 0 and no work; start the windows at 1 so
            // the first frontier is [1, w*).
            next: 1,
        },
        cfg,
    )
    .map(|dp| (dp[w], dp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_boundaries_exact() {
        // w* = 3, W = 9: windows [1,4), [4,7), [7,10) → 3 rounds.
        let items = vec![Item::new(3, 4), Item::new(5, 7)];
        let stats = max_value_par_with_dp(&items, 9, &RunConfig::new()).stats;
        assert_eq!(stats.rounds, 3);
        assert_eq!(stats.frontier_sizes, vec![3, 3, 3]);
    }

    #[test]
    fn w_star_one_is_sequential_rank() {
        // w* = 1 → every state is its own round: rank = W.
        let items = vec![Item::new(1, 1)];
        let report = max_value_par_with_dp(&items, 20, &RunConfig::new());
        assert_eq!(report.output.0, 20);
        assert_eq!(report.stats.rounds, 20);
    }
}
