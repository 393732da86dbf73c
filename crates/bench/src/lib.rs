//! The paper [`report`]: the 1-thread ledger and every figure and table
//! as JSON rows, each checked against its sequential baseline.
//! `PP_SCALE` (default 1) multiplies input sizes, `PP_SMOKE=1` shrinks
//! them to CI size, and `RAYON_NUM_THREADS` sets the parallelism.

#![forbid(unsafe_code)]

pub mod report;

/// Input-size multiplier from the `PP_SCALE` env var (default 1).
pub fn scale() -> usize {
    std::env::var("PP_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Smoke mode from the `PP_SMOKE` env var: tiny sizes, so CI can run
/// the report as a tripwire.
pub fn smoke() -> bool {
    std::env::var("PP_SMOKE").is_ok_and(|s| !s.is_empty() && s != "0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_one() {
        // (Unless the env var is set in the test environment.)
        if std::env::var("PP_SCALE").is_err() {
            assert_eq!(scale(), 1);
        }
    }
}
