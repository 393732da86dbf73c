//! # `pp-graph` — graph substrate for the phase-parallel experiments
//!
//! A compact CSR (compressed sparse row) graph representation plus the
//! synthetic generators that stand in for the paper's datasets:
//!
//! * **RMAT power-law graphs** replace the Twitter / Friendster social
//!   networks of §6.3 (low diameter, skewed degrees — the two properties
//!   the SSSP experiment exercises).
//! * **2D grid graphs** replace the OpenStreetMap road graphs mentioned
//!   in §6.3 (high diameter, small frontiers).
//! * **Uniform (Erdős–Rényi-style) graphs** for MIS / coloring / matching
//!   experiments and tests.
//! * **Random geometric graphs** (mesh-like locality), **2D tori**
//!   (regular degree, no boundary), and **hub-and-spoke graphs**
//!   (adversarial degree skew) — the extra shapes behind the
//!   `pp-workloads` scenario families.
//!
//! Edge weights are drawn uniformly from `[w*, w_max]` exactly as in the
//! paper's SSSP setup ("we fix the largest edge weight as 2^23, vary w*
//! ... and set the weight uniformly at random in this range").
//!
//! The substitution keeps what the experiments measure: round counts
//! depend on diameter and frontier sizes, and those are the properties each
//! generator reproduces. The real datasets run to billions of edges and
//! cannot ship with the repository.

#![forbid(unsafe_code)]

pub mod bfs;
pub mod builder;
pub mod chunk;
pub mod csr;
pub mod gen;

pub use builder::GraphBuilder;
pub use csr::{Graph, GraphError};
