//! Unlimited (unbounded) knapsack (§4.2, Theorem 4.3).
//!
//! `dp[j] = max(0, max_{w_i <= j} dp[j - w_i] + v_i)` over weights
//! `j = 0..=W`. The rank of state `j` is `⌊j / w*⌋` where `w*` is the
//! minimum item weight, because any dependency `j → j - w_i` jumps back
//! at least `w*`: all states inside one `w*`-aligned window are mutually
//! independent and form one frontier — the Type 1 extraction is just a
//! window advance (a degenerate range query).

mod par;
mod seq;

pub use par::max_value_par_with_dp;
pub use seq::max_value_seq;

/// Recover one optimal item multiset from the DP table: returns item
/// indices (with repetition) whose weights sum to ≤ `capacity` and whose
/// values sum to `dp[capacity]`. `O(W + answer·n)` backward walk.
pub fn reconstruct(items: &[Item], dp: &[u64], capacity: u64) -> Vec<usize> {
    let mut out = Vec::new();
    let mut j = capacity as usize;
    debug_assert_eq!(dp.len(), j + 1);
    // Walk down to the smallest j with the same value (unused slack).
    while j > 0 && dp[j - 1] == dp[j] {
        j -= 1;
    }
    while j > 0 && dp[j] > 0 {
        let (i, _) = items
            .iter()
            .enumerate()
            .find(|&(_, it)| {
                it.weight as usize <= j && dp[j - it.weight as usize] + it.value == dp[j]
            })
            .expect("dp table inconsistent");
        out.push(i);
        j -= items[i].weight as usize;
        while j > 0 && dp[j - 1] == dp[j] {
            j -= 1;
        }
    }
    out
}

/// One item: integer weight ≥ 1 and value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Item {
    /// Weight (must be ≥ 1).
    pub weight: u64,
    /// Value.
    pub value: u64,
}

impl Item {
    /// Construct an item; panics on zero weight (a zero-weight item
    /// makes the optimum unbounded and the rank undefined).
    pub fn new(weight: u64, value: u64) -> Self {
        assert!(weight >= 1, "item weight must be at least 1");
        Self { weight, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phase_parallel::RunConfig;
    use pp_parlay::rng::Rng;

    fn par(items: &[Item], w: u64) -> u64 {
        max_value_par_with_dp(items, w, &RunConfig::new()).output.0
    }

    /// Exponential-ish oracle: plain recursion with memo over small W.
    fn oracle(items: &[Item], w: u64) -> u64 {
        let mut dp = vec![0u64; w as usize + 1];
        for j in 1..=w as usize {
            for it in items {
                if it.weight as usize <= j {
                    dp[j] = dp[j].max(dp[j - it.weight as usize] + it.value);
                }
            }
        }
        dp[w as usize]
    }

    #[test]
    fn seq_and_par_match_oracle() {
        let mut r = Rng::new(1);
        for trial in 0..20 {
            let n = 1 + r.range(12) as usize;
            let items: Vec<Item> = (0..n)
                .map(|_| Item::new(1 + r.range(20), r.range(100)))
                .collect();
            let w = r.range(200);
            let want = oracle(&items, w);
            assert_eq!(max_value_seq(&items, w), want, "seq trial {trial}");
            assert_eq!(par(&items, w), want, "par trial {trial}");
        }
    }

    #[test]
    fn classic_instance() {
        // Coins {1,5,11} with values equal to weights fill W exactly.
        let items = vec![Item::new(1, 1), Item::new(5, 5), Item::new(11, 11)];
        assert_eq!(max_value_seq(&items, 100), 100);
        assert_eq!(par(&items, 100), 100);
        // Value-dense small item dominates: three copies of (3, 7).
        let items = vec![Item::new(3, 7), Item::new(5, 9)];
        assert_eq!(max_value_seq(&items, 10), 21);
        assert_eq!(par(&items, 10), 21);
    }

    #[test]
    fn rounds_equal_relaxed_rank() {
        // rank(W) = W / w* (Theorem 4.3).
        let items = vec![Item::new(4, 10), Item::new(7, 15)];
        let report = max_value_par_with_dp(&items, 100, &RunConfig::new());
        assert_eq!(report.output.0, max_value_seq(&items, 100));
        assert_eq!(report.stats.rounds as u64, 100 / 4); // w*-wide windows covering 1..=100
    }

    #[test]
    fn reconstruction_is_optimal_and_feasible() {
        let mut r = Rng::new(9);
        for trial in 0..15 {
            let n = 1 + r.range(8) as usize;
            let items: Vec<Item> = (0..n)
                .map(|_| Item::new(1 + r.range(15), r.range(60)))
                .collect();
            let w = 10 + r.range(150);
            let (best, dp) = max_value_par_with_dp(&items, w, &RunConfig::new()).output;
            let chosen = reconstruct(&items, &dp, w);
            let total_w: u64 = chosen.iter().map(|&i| items[i].weight).sum();
            let total_v: u64 = chosen.iter().map(|&i| items[i].value).sum();
            assert!(total_w <= w, "trial {trial}: overweight");
            assert_eq!(total_v, best, "trial {trial}: value mismatch");
        }
    }

    #[test]
    fn empty_and_unreachable() {
        assert_eq!(max_value_seq(&[], 50), 0);
        assert_eq!(par(&[], 50), 0);
        // All items heavier than W.
        let items = vec![Item::new(100, 5)];
        assert_eq!(max_value_seq(&items, 50), 0);
        assert_eq!(par(&items, 50), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_weight() {
        Item::new(0, 5);
    }
}
