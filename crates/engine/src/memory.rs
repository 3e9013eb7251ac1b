//! Transient-allocation budgeting and the engine error type.
//!
//! The paper's Table 2 reports OOM for several system × dataset cells
//! (PyTorch-style sparse execution on MAGNN, Euler's mini-batch GCN on
//! power-law graphs). Our machine is not the paper's 512 GB testbed, so
//! rather than actually exhausting RAM, execution strategies *account*
//! their peak transient tensor allocation and fail with
//! [`EngineError::Oom`] when it exceeds the configured budget. FlexGraph's
//! fused path allocates orders of magnitude less, which is exactly the
//! effect the table demonstrates.

use flexgraph_tensor::fusion::materialized_bytes;

/// Transient bytes a batch-shaped execution materializes: one copied
/// feature row per gathered vertex plus one message row per edge, all at
/// feature width `dim`. This is the single admission-control arithmetic
/// shared by the mini-batch baseline ([`crate::minibatch`]) and the
/// serving subsystem's per-batch admission check — both must account
/// identically or the serve layer's backpressure would disagree with
/// the engine's OOM accounting.
pub fn admission_bytes(vertices: usize, edges: usize, dim: usize) -> usize {
    materialized_bytes(vertices, dim) + materialized_bytes(edges, dim)
}

/// Resident bytes of one decoded CSR/CSC graph segment held by the
/// paged store's cache: two `u32` offset arrays of `vertices + 1`
/// entries each, plus the out- and in-adjacency arrays. The store's
/// `PageCache` prices residency with this arithmetic and checks it
/// against the same [`MemoryBudget`] the execution strategies use, so
/// graph residency and transient tensors draw from one accounting
/// scheme rather than two that can silently disagree.
pub fn segment_residency_bytes(vertices: usize, out_edges: usize, in_edges: usize) -> usize {
    let w = std::mem::size_of::<u32>();
    2 * (vertices + 1) * w + (out_edges + in_edges) * w
}

/// Budget for transient (per-operation) tensor allocations.
#[derive(Clone, Copy, Debug)]
pub struct MemoryBudget {
    /// Maximum transient bytes a single aggregation step may materialize.
    pub bytes: usize,
}

impl MemoryBudget {
    /// No limit (unit tests, small graphs).
    pub fn unlimited() -> Self {
        Self { bytes: usize::MAX }
    }

    /// A budget of `mb` mebibytes.
    pub fn mib(mb: usize) -> Self {
        Self {
            bytes: mb * 1024 * 1024,
        }
    }

    /// Checks a proposed transient allocation.
    pub fn check(&self, needed: usize) -> Result<(), EngineError> {
        if needed > self.bytes {
            Err(EngineError::Oom {
                needed,
                budget: self.bytes,
            })
        } else {
            Ok(())
        }
    }
}

impl Default for MemoryBudget {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Errors surfaced by execution strategies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A strategy needed more transient memory than the budget allows —
    /// the paper's OOM cells.
    Oom {
        /// Bytes the strategy would have materialized.
        needed: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The strategy cannot express the requested model (the paper's "✗"
    /// cells, e.g. MAGNN on GAS-like abstractions).
    Unsupported(&'static str),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Oom { needed, budget } => {
                write!(f, "OOM: needs {needed} transient bytes, budget {budget}")
            }
            Self::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_checks() {
        let b = MemoryBudget::mib(1);
        assert!(b.check(1024).is_ok());
        assert_eq!(
            b.check(2 * 1024 * 1024),
            Err(EngineError::Oom {
                needed: 2 * 1024 * 1024,
                budget: 1024 * 1024
            })
        );
        assert!(MemoryBudget::unlimited().check(usize::MAX - 1).is_ok());
    }

    #[test]
    fn admission_bytes_matches_materialized_sum() {
        use flexgraph_tensor::fusion::materialized_bytes;
        assert_eq!(
            admission_bytes(10, 40, 8),
            materialized_bytes(10, 8) + materialized_bytes(40, 8)
        );
        assert_eq!(admission_bytes(0, 0, 16), 0);
    }

    #[test]
    fn segment_residency_counts_offsets_and_adjacency() {
        // 10 vertices → two 11-entry u32 offset arrays; 30 + 30 edges
        // → 60 u32 adjacency entries.
        assert_eq!(segment_residency_bytes(10, 30, 30), 2 * 11 * 4 + 60 * 4);
        assert_eq!(segment_residency_bytes(0, 0, 0), 8);
    }

    #[test]
    fn errors_display() {
        let e = EngineError::Unsupported("MAGNN on SAGA-NN");
        assert!(e.to_string().contains("MAGNN"));
        let o = EngineError::Oom {
            needed: 10,
            budget: 5,
        };
        assert!(o.to_string().contains("OOM"));
    }
}
