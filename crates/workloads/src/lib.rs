//! # `pp-workloads` — string-keyed workload scenarios
//!
//! The paper evaluates the phase-parallel framework across qualitatively
//! different inputs — power-law social graphs, meshes and road-like
//! graphs, adversarial dependence chains. This crate turns that input
//! diversity into a first-class, *tested* axis: a [`ScenarioSpec`] names
//! a workload family by string key (`graph/rmat`, `seq/adversarial-chain`,
//! …), carries the family's typed knobs, and deterministically
//! materializes instances from a seed.
//!
//! Two kinds of family ([`ScenarioKind`]):
//!
//! * **`graph/…`** families materialize a [`pp_graph::Graph`]
//!   (optionally weighted via the `w/unit | w/uniform | w/exp`
//!   distributions) — consumed by the SSSP, MIS, coloring and matching
//!   registry entries.
//! * **`seq/…`** families materialize structured *draws* in a caller's
//!   span — consumed by the sequence entries (LIS, activity selection,
//!   Huffman, Whac-A-Mole, dominance chains, …), which map the draws
//!   into their own value space. Structure survives the mapping because
//!   it is monotone.
//!
//! The registry in `pp-algos` threads an `Option<ScenarioSpec>` through
//! its `CaseSpec`, so any entry can be exercised on any applicable
//! scenario; the conformance suite sweeps the full entry × scenario
//! matrix.
//!
//! A scenario can also drive a typed family directly — here, preparing
//! a grid road network once and serving a batch of per-source SSSP
//! queries against it, one `Scratch` workspace per worker:
//!
//! ```
//! use phase_parallel::{PhaseAlgorithm, RunConfig, Scratch};
//! use pp_algos::api::{DeltaSssp, SsspInstance};
//! use pp_workloads::ScenarioSpec;
//! use rayon::prelude::*;
//!
//! let spec = ScenarioSpec::parse("graph/grid2d+w/uniform")?;
//! let road = spec.weighted_graph(100, 7)?; // 10×10 grid, weights in [1, 1000]
//! let n = road.num_vertices() as u32;
//! let instance = SsspInstance::new(road, 0);
//!
//! let prepared = DeltaSssp.prepare(&instance); // w*, min out-weights: built once
//! let queries: Vec<RunConfig> = (0..4u64)
//!     .map(|i| RunConfig::seeded(i).with_source((i as u32 * 23) % n))
//!     .collect();
//! let distances: Vec<Vec<u64>> = queries
//!     .par_iter()
//!     .map_init(Scratch::new, |scratch, q| {
//!         DeltaSssp.solve_prepared(&instance, &prepared, scratch, q).output
//!     })
//!     .collect();
//! assert_eq!(distances.len(), 4);
//! assert_eq!(distances[0][0], 0); // query 0 starts at vertex 0
//! # Ok::<(), pp_workloads::ScenarioError>(())
//! ```

#![forbid(unsafe_code)]

pub mod catalog;
pub mod error;
pub mod spec;
pub mod trace;

pub use catalog::{all_scenarios, families, graph_scenarios, scenarios_of_kind, seq_scenarios};
pub use error::ScenarioError;
pub use spec::{Family, ScenarioKind, ScenarioSpec, WeightDist};
pub use trace::{QueryTrace, TraceConfig, TraceQuery, ZipfSampler};
