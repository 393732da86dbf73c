//! Compressed sparse row (CSR) graphs.

/// Why raw CSR arrays failed validation ([`Graph::try_from_csr`]).
///
/// Every variant names the first invariant the arrays broke; hostile or
/// corrupted input surfaces as one of these instead of a panic, so the
/// serve boundary can turn it into a typed `InvalidInput` row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// `offsets` is empty — a CSR needs `n + 1` entries, even for `n = 0`.
    EmptyOffsets,
    /// `offsets` decreases somewhere: `offsets[at + 1] < offsets[at]`.
    NonMonotoneOffsets {
        /// Index of the first decreasing window.
        at: usize,
    },
    /// `offsets.last()` does not equal `targets.len()`.
    OffsetTargetMismatch {
        /// The final offset (claimed arc count).
        last_offset: usize,
        /// The actual number of stored targets.
        targets: usize,
    },
    /// `weights` is non-empty but not parallel to `targets`.
    WeightLengthMismatch {
        /// Number of weights supplied.
        weights: usize,
        /// Number of targets they should parallel.
        targets: usize,
    },
    /// An arc points at a vertex `>= n`.
    TargetOutOfRange {
        /// Arc slot holding the bad target.
        arc: usize,
        /// The out-of-range target vertex.
        target: u32,
        /// Number of vertices in the graph.
        vertices: usize,
    },
    /// More arcs than the arc index space: arc slots are stored as `u32`
    /// throughout the algorithm layer (e.g. CSR mirror slots), so a
    /// graph may hold at most `u32::MAX` arcs.
    ArcCountOverflow {
        /// The claimed arc count.
        arcs: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::EmptyOffsets => write!(f, "offsets must have n + 1 entries"),
            GraphError::NonMonotoneOffsets { at } => {
                write!(f, "offsets decrease at index {at}")
            }
            GraphError::OffsetTargetMismatch {
                last_offset,
                targets,
            } => write!(
                f,
                "final offset {last_offset} does not match {targets} stored targets"
            ),
            GraphError::WeightLengthMismatch { weights, targets } => write!(
                f,
                "{weights} weights are not parallel to {targets} targets"
            ),
            GraphError::TargetOutOfRange {
                arc,
                target,
                vertices,
            } => write!(
                f,
                "edge target out of range: arc {arc} points at {target} in a {vertices}-vertex graph"
            ),
            GraphError::ArcCountOverflow { arcs } => {
                write!(f, "{arcs} arcs overflow the u32 arc index space")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A graph in CSR form. Directed in general; undirected graphs store both
/// arc directions (built via [`crate::builder::GraphBuilder::symmetric`]).
/// Weights are optional: `weights` is either empty or parallel to
/// `targets`.
#[derive(Debug)]
pub struct Graph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<u64>,
}

impl Graph {
    /// Construct from raw CSR arrays.
    ///
    /// # Panics
    /// Panics if the arrays are inconsistent; the message is the
    /// [`GraphError`] the checked constructor
    /// ([`Graph::try_from_csr`]) would have returned.
    pub fn from_csr(offsets: Vec<usize>, targets: Vec<u32>, weights: Vec<u64>) -> Self {
        match Self::try_from_csr(offsets, targets, weights) {
            Ok(g) => g,
            Err(e) => panic!("{e}"),
        }
    }

    /// Validate raw CSR arrays and construct the graph, or report the
    /// first broken invariant as a typed [`GraphError`]. `O(n + m)`.
    pub fn try_from_csr(
        offsets: Vec<usize>,
        targets: Vec<u32>,
        weights: Vec<u64>,
    ) -> Result<Self, GraphError> {
        check_csr(&offsets, &targets, &weights)?;
        Ok(Self {
            offsets,
            targets,
            weights,
        })
    }

    /// Re-check every CSR invariant on an already-constructed graph —
    /// the materializer-boundary hook: anything that hands a graph
    /// across a trust boundary can re-assert well-formedness for the
    /// cost of one `O(n + m)` scan.
    pub fn validate(&self) -> Result<(), GraphError> {
        check_csr(&self.offsets, &self.targets, &self.weights)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored arcs (an undirected edge counts twice).
    pub fn num_edges(&self) -> usize {
        self.targets.len()
    }

    /// Whether edge weights are present.
    pub fn is_weighted(&self) -> bool {
        !self.weights.is_empty()
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Maximum out-degree over all vertices (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices() as u32)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// The CSR offset array (`n + 1` entries): vertex `v`'s arcs occupy
    /// `offsets[v]..offsets[v + 1]` of [`Graph::neighbors`]' backing
    /// storage. Exposed for edge-balanced work splitting
    /// ([`crate::chunk`]), which uses it as a ready-made degree prefix.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Neighbors of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Weights parallel to [`Graph::neighbors`].
    ///
    /// # Panics
    /// Panics if the graph has edges but no weights.
    pub fn edge_weights(&self, v: u32) -> &[u64] {
        if self.targets.is_empty() {
            return &[];
        }
        assert!(self.is_weighted());
        &self.weights[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Smallest edge weight `w*` (`None` if unweighted or edgeless).
    pub fn min_weight(&self) -> Option<u64> {
        self.weights.iter().copied().min()
    }

    /// Largest edge weight (`None` if unweighted or edgeless).
    pub fn max_weight(&self) -> Option<u64> {
        self.weights.iter().copied().max()
    }

    /// The same arcs carrying `weight(u, v)`: `offsets` and `targets`
    /// are kept as they are, and the weights are filled in CSR order.
    pub(crate) fn reweighted(&self, weight: impl Fn(u32, u32) -> u64) -> Graph {
        let mut weights = Vec::with_capacity(self.num_edges());
        for u in 0..self.num_vertices() as u32 {
            weights.extend(self.neighbors(u).iter().map(|&v| weight(u, v)));
        }
        Graph {
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            weights,
        }
    }

    /// Check structural symmetry (every arc has its reverse): true for
    /// well-formed undirected graphs. `O(m log m)`; for tests.
    pub fn is_symmetric(&self) -> bool {
        let mut arcs: Vec<(u32, u32)> = Vec::with_capacity(self.num_edges());
        for u in 0..self.num_vertices() as u32 {
            for &v in self.neighbors(u) {
                arcs.push((u, v));
            }
        }
        let mut rev: Vec<(u32, u32)> = arcs.iter().map(|&(u, v)| (v, u)).collect();
        arcs.sort_unstable();
        rev.sort_unstable();
        arcs == rev
    }
}

/// The single source of CSR truth behind [`Graph::try_from_csr`] and
/// [`Graph::validate`]: reports the first broken invariant.
fn check_csr(offsets: &[usize], targets: &[u32], weights: &[u64]) -> Result<(), GraphError> {
    if offsets.is_empty() {
        return Err(GraphError::EmptyOffsets);
    }
    if let Some(at) = offsets.windows(2).position(|w| w[0] > w[1]) {
        return Err(GraphError::NonMonotoneOffsets { at });
    }
    let last_offset = *offsets.last().unwrap();
    if last_offset > u32::MAX as usize {
        return Err(GraphError::ArcCountOverflow { arcs: last_offset });
    }
    if last_offset != targets.len() {
        return Err(GraphError::OffsetTargetMismatch {
            last_offset,
            targets: targets.len(),
        });
    }
    if !weights.is_empty() && weights.len() != targets.len() {
        return Err(GraphError::WeightLengthMismatch {
            weights: weights.len(),
            targets: targets.len(),
        });
    }
    let n = offsets.len() - 1;
    if let Some(arc) = targets.iter().position(|&t| (t as usize) >= n) {
        return Err(GraphError::TargetOutOfRange {
            arc,
            target: targets[arc],
            vertices: n,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        // 0-1, 1-2, 0-2 undirected.
        Graph::from_csr(vec![0, 2, 4, 6], vec![1, 2, 0, 2, 0, 1], vec![])
    }

    #[test]
    fn basic_accessors() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(!g.is_weighted());
        assert!(g.is_symmetric());
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn weighted_graph() {
        let g = Graph::from_csr(vec![0, 1, 2], vec![1, 0], vec![5, 7]);
        assert!(g.is_weighted());
        assert_eq!(g.edge_weights(0), &[5]);
        assert_eq!(g.min_weight(), Some(5));
        assert_eq!(g.max_weight(), Some(7));
    }

    #[test]
    fn asymmetric_detected() {
        let g = Graph::from_csr(vec![0, 1, 1], vec![1], vec![]);
        assert!(!g.is_symmetric());
    }

    #[test]
    #[should_panic(expected = "edge target out of range")]
    fn rejects_bad_target() {
        Graph::from_csr(vec![0, 1], vec![5], vec![]);
    }

    #[test]
    fn try_from_csr_reports_each_invariant() {
        assert_eq!(
            Graph::try_from_csr(vec![], vec![], vec![]).unwrap_err(),
            GraphError::EmptyOffsets
        );
        assert_eq!(
            Graph::try_from_csr(vec![0, 2, 1], vec![1, 0], vec![]).unwrap_err(),
            GraphError::NonMonotoneOffsets { at: 1 }
        );
        assert_eq!(
            Graph::try_from_csr(vec![0, 3], vec![0], vec![]).unwrap_err(),
            GraphError::OffsetTargetMismatch {
                last_offset: 3,
                targets: 1
            }
        );
        assert_eq!(
            Graph::try_from_csr(vec![0, 1, 2], vec![1, 0], vec![7]).unwrap_err(),
            GraphError::WeightLengthMismatch {
                weights: 1,
                targets: 2
            }
        );
        assert_eq!(
            Graph::try_from_csr(vec![0, 1], vec![5], vec![]).unwrap_err(),
            GraphError::TargetOutOfRange {
                arc: 0,
                target: 5,
                vertices: 1
            }
        );
        assert_eq!(
            Graph::try_from_csr(vec![0, u32::MAX as usize + 1], vec![], vec![]).unwrap_err(),
            GraphError::ArcCountOverflow {
                arcs: u32::MAX as usize + 1
            }
        );
    }

    #[test]
    fn validate_passes_constructed_graphs() {
        assert_eq!(triangle().validate(), Ok(()));
        assert_eq!(
            Graph::from_csr(vec![0, 1, 2], vec![1, 0], vec![5, 7]).validate(),
            Ok(())
        );
    }

    #[test]
    fn try_from_csr_accepts_valid_arrays() {
        let g = Graph::try_from_csr(vec![0, 2, 4, 6], vec![1, 2, 0, 2, 0, 1], vec![]).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 6);
        // The n = 0 CSR is a single zero offset — valid and edgeless.
        let empty = Graph::try_from_csr(vec![0], vec![], vec![]).unwrap();
        assert_eq!(empty.num_vertices(), 0);
        assert_eq!(empty.num_edges(), 0);
    }
}
