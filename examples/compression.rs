//! A complete Huffman coding pipeline on Zipfian text.
//!
//! Builds the code tree with the phase-parallel construction (§4.3),
//! verifies it against the sequential two-queue algorithm, and encodes /
//! decodes a message to show the tree actually works end-to-end.
//!
//! Run with: `cargo run --release -p pp-algos --example compression`

use phase_parallel::RunConfig;
use pp_algos::huffman::{build_par, build_seq, CanonicalCode};
use pp_parlay::rng::Rng;
use std::time::Instant;

fn main() {
    // Zipfian symbol frequencies over a large alphabet (§6.2 uses
    // Zipfian as one of its three distributions).
    let alphabet = 1_000_000usize;
    let freqs: Vec<u64> = (0..alphabet)
        .map(|i| (2_000_000.0 / (i + 1) as f64).ceil() as u64)
        .collect();

    let t = Instant::now();
    let seq_tree = build_seq(&freqs);
    let t_seq = t.elapsed();

    let t = Instant::now();
    let report = build_par(&freqs, &RunConfig::new());
    let (par_tree, stats) = (report.output, report.stats);
    let t_par = t.elapsed();

    let wpl_seq = seq_tree.weighted_path_length(&freqs);
    let wpl_par = par_tree.weighted_path_length(&freqs);
    assert_eq!(wpl_seq, wpl_par, "both trees must be optimal");
    println!("alphabet {alphabet}: optimal weighted path length = {wpl_seq}");
    println!("  sequential two-queue: {t_seq:?}");
    println!(
        "  phase-parallel:       {t_par:?}  ({} rounds, height {})",
        stats.rounds,
        par_tree.height()
    );

    // Full pipeline: canonical codes → encode → decode → verify.
    let code = CanonicalCode::from_tree(&par_tree);
    let mut rng = Rng::new(9);
    let message: Vec<usize> = (0..50_000)
        .map(|_| {
            // Zipf-ish sampling: low symbol ids are frequent.
            let r = rng.f64();
            ((alphabet as f64).powf(r) as usize).min(alphabet - 1)
        })
        .collect();
    let bits = code.encode(&message);
    let decoded = code.decode(&bits, message.len());
    assert_eq!(decoded, message, "lossless round-trip");
    let fixed_bits = message.len() * 20; // fixed 20-bit symbols
    println!(
        "round-trip OK: {} symbols → {} bits Huffman vs {} bits fixed ({:.1}% saved)",
        message.len(),
        bits.len(),
        fixed_bits,
        100.0 * (1.0 - bits.len() as f64 / fixed_bits as f64)
    );
    assert!(bits.len() < fixed_bits);
}
