//! The global schema tree.
//!
//! The schema tree encodes the neighbor-type hierarchy a GNN model
//! defines: its root stands for "the vertex", its leaves for the neighbor
//! types (e.g. the metapath types of MAGNN, the single `vertex` type of
//! GCN/PinSage, the anchor-sets of P-GNN). All roots of the HDGs share
//! one global schema tree (paper §4.1, storage optimization (3)).

/// The shared schema tree: a root plus one leaf per neighbor type.
///
/// Deeper schema trees are representable by nesting types, but none of the
/// models in the paper (GCN, PinSage, MAGNN, P-GNN, JK-Net) needs more
/// than root→types, so the concrete structure stays two-level, matching
/// the paper's Figure 9 ("Global tree T" with root and two children).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchemaTree {
    /// Human-readable neighbor-type names, index = type id.
    type_names: Vec<String>,
}

impl SchemaTree {
    /// Creates a schema tree with the given neighbor-type names.
    ///
    /// # Panics
    ///
    /// Panics when no type is given — every model has at least one.
    pub fn new<S: Into<String>>(type_names: Vec<S>) -> Self {
        assert!(
            !type_names.is_empty(),
            "a schema tree needs ≥ 1 neighbor type"
        );
        Self {
            type_names: type_names.into_iter().map(Into::into).collect(),
        }
    }

    /// The single-type schema (`vertex`) used by flat models.
    pub fn flat() -> Self {
        Self::new(vec!["vertex"])
    }

    /// Number of neighbor types (leaves of the tree).
    pub fn num_types(&self) -> usize {
        self.type_names.len()
    }

    /// Heap bytes of the (single, global) schema tree.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .type_names
                .iter()
                .map(|s| s.capacity() + std::mem::size_of::<String>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_schema_is_flat() {
        let s = SchemaTree::flat();
        assert_eq!(s.num_types(), 1);
        assert_eq!(s, SchemaTree::new(vec!["vertex"]));
    }

    #[test]
    fn magnn_schema_has_one_leaf_per_metapath() {
        let s = SchemaTree::new(vec!["MP1", "MP2"]);
        assert_eq!(s.num_types(), 2);
    }

    #[test]
    #[should_panic(expected = "needs ≥ 1 neighbor type")]
    fn empty_schema_rejected() {
        let _ = SchemaTree::new(Vec::<String>::new());
    }

    #[test]
    fn heap_bytes_is_small_and_positive() {
        // The global tree is shared — its footprint must be trivial
        // compared to instance storage.
        let s = SchemaTree::new(vec!["a", "b", "c", "d", "e", "f"]);
        assert!(s.heap_bytes() > 0);
        assert!(s.heap_bytes() < 4096);
    }
}
