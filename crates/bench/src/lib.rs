//! The paper [`report`] and the helpers the CI smoke gates share.
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
/// the report and the gates as a tripwire.
pub fn smoke() -> bool {
    std::env::var("PP_SMOKE").is_ok_and(|s| !s.is_empty() && s != "0")
}

/// Run a closure on a single-threaded rayon pool — the "Ours seq."
/// column of Table 2 (the parallel algorithm on one core).
pub fn run_single_threaded<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    phase_parallel::RunConfig::new().with_threads(1).install(f)
}

/// Simple fixed-width table printer: columns right-aligned, at least
/// 12 wide.
pub struct Table(Vec<usize>);

impl Table {
    /// Start a table and print its header row.
    pub fn new(headers: &[&str]) -> Self {
        let table = Table(headers.iter().map(|h| h.len().max(12)).collect());
        let header = table.line(headers);
        println!("{header}\n{}", "-".repeat(header.len()));
        table
    }

    /// Print one data row.
    pub fn row(&self, cells: &[String]) {
        println!("{}", self.line(cells));
    }

    fn line(&self, cells: &[impl AsRef<str>]) -> String {
        let cells = cells.iter().zip(&self.0);
        let cells: Vec<_> = cells.map(|(c, w)| format!("{:>w$}", c.as_ref())).collect();
        cells.join("  ")
    }
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

    #[test]
    fn single_threaded_pool_runs() {
        let v = run_single_threaded(rayon::current_num_threads);
        assert_eq!(v, 1);
    }
}
