//! `cargo run --release -p pp-bench --bin report -- <section>` prints a
//! section of the paper report (`ledger`, `fig5`, `fig6`, `fig7`,
//! `fig8_9`, `fig10`, `table1`, `threads`, `ablations`, `model` or `all`)
//! as JSON lines, and fails if any row disagrees with its baseline.

#![forbid(unsafe_code)]

use pp_bench::report::{run, Sizing};

fn main() -> Result<(), String> {
    let section = std::env::args().nth(1).unwrap_or_default();
    let (scale, smoke) = (pp_bench::scale(), pp_bench::smoke());
    let sizing = Sizing { scale, smoke };
    match run(&section, sizing, &mut std::io::stdout().lock())? {
        0 => Ok(()),
        bad => Err(format!("{bad} rows disagree with their baseline")),
    }
}
