//! Versioned model snapshots, the serving forward pass, and hot
//! checkpoint swap.
//!
//! A [`ModelSnapshot`] is an immutable `(version, parameters)` pair.
//! The server holds the current snapshot behind an `Arc` and swaps it
//! by **replacement, never mutation**: a new checkpoint is restored
//! into a *cloned* parameter set ([`ModelSnapshot::with_checkpoint`]),
//! validated end to end (CRC, shapes — checkpoint v2's two-phase
//! restore), and only then published. A batch that cloned the old
//! `Arc` keeps computing against the old parameters untouched, which
//! is the "a batch never mixes model versions" guarantee.
//!
//! The served model is the two-layer head GCN checkpoints carry —
//! `relu((x_v + a_v) · W1) · W2` — with the aggregation `a_v` computed
//! over a capped k-hop shell HDG instead of the 1-hop training graph,
//! so any checkpoint written by [`flexgraph_models::checkpoint::save`]
//! for a [`flexgraph_models::gcn::Gcn`] is servable as-is.

use crate::{QuantConfig, ServeError};
use flexgraph_engine::hybrid::{hierarchical_aggregate, AggrOp, AggrPlan, Strategy};
use flexgraph_engine::{admission_bytes, MemoryBudget};
use flexgraph_graph::bfs::HopScratch;
use flexgraph_graph::Graph;
use flexgraph_hdg::build::select_hop_shells;
use flexgraph_hdg::HdgBuilder;
use flexgraph_models::checkpoint;
use flexgraph_tensor::{xavier_uniform, ParamSet, Tensor};
use rand::SeedableRng;

/// Static configuration of the served model and its NeighborSelection.
#[derive(Clone, Copy, Debug)]
pub struct ServeModelConfig {
    /// Hop-shell depth `k` of the per-request neighborhood.
    pub hops: usize,
    /// Per-shell sampling cap (0 = uncapped) — bounds the transient
    /// memory of a single request on power-law graphs.
    pub cap: usize,
    /// Seed of the deterministic `(seed, root, leaf)` sampling hash.
    pub seed: u64,
    /// Aggregation UDF applied at every HDG level.
    pub op: AggrOp,
    /// Input feature width.
    pub in_dim: usize,
    /// Hidden width of the dense head (W1 is `in_dim × hidden`).
    pub hidden: usize,
    /// Output width (W2 is `hidden × classes`).
    pub classes: usize,
}

impl Default for ServeModelConfig {
    fn default() -> Self {
        Self {
            hops: 2,
            cap: 16,
            seed: 0,
            op: AggrOp::Sum,
            in_dim: 8,
            hidden: 16,
            classes: 4,
        }
    }
}

/// An immutable, versioned parameter snapshot. Slot 0 is W1, slot 1 is
/// W2 — the exact layout [`flexgraph_models::gcn::Gcn`] registers, so
/// GCN checkpoints restore directly.
pub struct ModelSnapshot {
    version: u64,
    params: ParamSet,
}

impl std::fmt::Debug for ModelSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shapes: Vec<(usize, usize)> = (0..self.params.len())
            .map(|i| self.params.value(i).shape())
            .collect();
        f.debug_struct("ModelSnapshot")
            .field("version", &self.version)
            .field("param_shapes", &shapes)
            .finish()
    }
}

fn clone_params(src: &ParamSet) -> ParamSet {
    let mut dst = ParamSet::new();
    for i in 0..src.len() {
        dst.register(src.value(i).clone());
    }
    dst
}

impl ModelSnapshot {
    /// Version 1: Xavier-initialized f32 parameters (pre-first-swap
    /// serving, tests).
    pub fn init(cfg: &ServeModelConfig, init_seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(init_seed);
        let mut params = ParamSet::new();
        params.register(xavier_uniform(&mut rng, cfg.in_dim, cfg.hidden));
        params.register(xavier_uniform(&mut rng, cfg.hidden, cfg.classes));
        Self { version: 1, params }
    }

    /// [`ModelSnapshot::init`]; `ledger/src/workloads/serve.rs` names
    /// it, and it goes with ROADMAP 1(g).
    pub fn init_quant(cfg: &ServeModelConfig, init_seed: u64, _: QuantConfig) -> Self {
        Self::init(cfg, init_seed)
    }

    /// This snapshot's version — the cache-key component.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The parameter set.
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// First dense layer, `in_dim × hidden`.
    pub fn w1(&self) -> &Tensor {
        self.params.value(0)
    }

    /// Second dense layer, `hidden × classes`.
    pub fn w2(&self) -> &Tensor {
        self.params.value(1)
    }

    /// Builds the successor snapshot from a checkpoint v2 buffer:
    /// restore into a **clone** of the current parameters (`self` is
    /// never touched), bump the version. Any validation
    /// failure — corrupt CRC, shape mismatch — leaves the caller's
    /// snapshot the serving truth.
    pub fn with_checkpoint(&self, bytes: &[u8]) -> Result<Self, ServeError> {
        let mut params = clone_params(&self.params);
        checkpoint::restore(&mut params, bytes)?;
        Ok(Self {
            version: self.version + 1,
            params,
        })
    }
}

/// The capped k-hop NeighborSelection of one batch, priced: the filled
/// builder and the transient bytes it materializes — its closure (roots
/// plus distinct leaves, counted on the walk's own stamps) and its leaf
/// edges, in the engine's own [`admission_bytes`] arithmetic. Walked
/// once; [`aggregate_roots`] admits on the price and freezes the same
/// builder into the HDG.
fn select_priced(g: &Graph, cfg: &ServeModelConfig, roots: &[u32]) -> (HdgBuilder, usize) {
    let mut scratch = HopScratch::new();
    let selection = select_hop_shells(g, roots.to_vec(), cfg.hops, cfg.cap, cfg.seed, &mut scratch)
        .unwrap_or_else(|e| match e {});
    let leaves = selection.leaves();
    let closure = scratch.count_distinct(roots.iter().chain(leaves).copied());
    let price = admission_bytes(closure, leaves.len(), cfg.in_dim);
    (selection, price)
}

/// Transient bytes the capped k-hop selection of `roots` would
/// materialize — the hop-shell closure sized with the engine's own
/// [`admission_bytes`] arithmetic, so serve backpressure and engine
/// OOM accounting can never disagree. Exact: it walks the selection
/// (one depth-bounded walk per root, the cost of the roots' k-hop
/// balls) and prices it exactly as [`aggregate_roots`] prices the
/// selection it is about to build from.
///
/// # Panics
///
/// Panics if a root is outside `g` ([`aggregate_roots`] rejects one).
pub fn selection_admission_bytes(g: &Graph, cfg: &ServeModelConfig, roots: &[u32]) -> usize {
    select_priced(g, cfg, roots).1
}

/// Capped k-hop aggregation for a set of roots: one `(dim)` row per
/// root, in `roots` order. This is the only admission path, budget or
/// not: the batch's selection is walked once, priced with
/// [`selection_admission_bytes`]' arithmetic and checked against
/// `budget`, and only an admitted selection is frozen into the HDG and
/// aggregated (the fused Ha path materializes almost nothing, so this
/// check is what actually enforces the budget; the engine's per-step
/// checks run too). Per-root bitwise independent — see the crate docs —
/// so this is both the batch path and (with one root) the reference
/// path. A root outside `g` is [`ServeError::UnknownVertex`].
pub fn aggregate_roots(
    g: &Graph,
    feats: &Tensor,
    cfg: &ServeModelConfig,
    roots: &[u32],
    budget: &MemoryBudget,
) -> Result<Tensor, ServeError> {
    let num_vertices = g.num_vertices();
    if let Some(&vertex) = roots.iter().find(|&&v| v as usize >= num_vertices) {
        return Err(ServeError::UnknownVertex {
            vertex,
            num_vertices,
        });
    }
    let (selection, price) = select_priced(g, cfg, roots);
    budget.check(price)?;
    let hdg = selection.build();
    let plan = AggrPlan::flat(cfg.op);
    let res = hierarchical_aggregate(&hdg, feats, &plan, Strategy::Ha, budget)?;
    Ok(res.features)
}

/// The dense head on pre-summed rows: `relu(s · W1) · W2` where row
/// `i` of `summed` is `x_v + a_v` for some vertex `v`. Every output row
/// is its own matmul chain over ascending `k`, so head-of-batch outputs
/// equal head-of-one outputs bitwise.
pub fn dense_head(summed: &Tensor, snap: &ModelSnapshot) -> Tensor {
    let mut hidden = summed.matmul(snap.w1());
    hidden.relu_inplace();
    hidden.matmul(snap.w2())
}

/// The reference single-request forward: exactly what a batch of one
/// computes, with no queue, cache, or batching in the loop — the exact
/// sequence [`crate::Server::execute_batch`] performs per row:
/// aggregation, `x_v + a_v`, then [`dense_head`]. The parity suite
/// holds every served output bitwise equal to this.
pub fn serve_one(
    g: &Graph,
    feats: &Tensor,
    snap: &ModelSnapshot,
    cfg: &ServeModelConfig,
    vertex: u32,
    budget: &MemoryBudget,
) -> Result<Vec<f32>, ServeError> {
    let agg = aggregate_roots(g, feats, cfg, &[vertex], budget)?;
    let mut summed = Tensor::zeros(1, cfg.in_dim);
    summed
        .row_mut(0)
        .copy_from_slice(feats.row(vertex as usize));
    for (o, a) in summed.row_mut(0).iter_mut().zip(agg.row(0)) {
        *o += a;
    }
    Ok(dense_head(&summed, snap).row(0).to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexgraph_graph::gen::community;
    use flexgraph_hdg::build::from_hop_shells_capped;
    use flexgraph_models::checkpoint::CheckpointError;

    fn cfg(ds_dim: usize, classes: usize) -> ServeModelConfig {
        ServeModelConfig {
            in_dim: ds_dim,
            classes,
            ..Default::default()
        }
    }

    #[test]
    fn snapshot_swap_bumps_version_and_replaces_params() {
        let cfg = cfg(8, 4);
        let old = ModelSnapshot::init(&cfg, 1);
        // A checkpoint from differently-initialized params of the same
        // shape.
        let other = ModelSnapshot::init(&cfg, 2);
        let bytes = checkpoint::save(other.params());
        let new = old.with_checkpoint(&bytes).unwrap();
        assert_eq!(new.version(), old.version() + 1);
        assert_eq!(new.w1().data(), other.w1().data());
        assert_ne!(old.w1().data(), new.w1().data(), "old snapshot untouched");
    }

    #[test]
    fn bad_checkpoints_are_rejected_and_leave_nothing_changed() {
        let scfg = cfg(8, 4);
        let snap = ModelSnapshot::init(&scfg, 1);
        let mut bytes = checkpoint::save(snap.params());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        match snap.with_checkpoint(&bytes) {
            Err(ServeError::BadCheckpoint(CheckpointError::Corrupt)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // Shape mismatch: a checkpoint for a different architecture.
        let narrow = ModelSnapshot::init(&cfg(8, 3), 1);
        let wrong = checkpoint::save(narrow.params());
        assert!(matches!(
            snap.with_checkpoint(&wrong),
            Err(ServeError::BadCheckpoint(
                CheckpointError::ShapeMismatch { .. }
            ))
        ));
    }

    #[test]
    fn serve_one_is_deterministic_and_shaped() {
        let ds = community(60, 3, 4, 1, 8, 5);
        let scfg = cfg(ds.feature_dim(), 4);
        let snap = ModelSnapshot::init(&scfg, 9);
        let budget = MemoryBudget::unlimited();
        let a = serve_one(&ds.graph, &ds.features, &snap, &scfg, 17, &budget).unwrap();
        let b = serve_one(&ds.graph, &ds.features, &snap, &scfg, 17, &budget).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a, b);
    }

    /// `selection_admission_bytes` as it was when it walked each root
    /// on its own and counted the closure in a hash set.
    fn price_root_by_root(g: &Graph, cfg: &ServeModelConfig, roots: &[u32]) -> usize {
        let mut closure: std::collections::HashSet<u32> = roots.iter().copied().collect();
        let mut edges = 0usize;
        for &r in roots {
            let solo = from_hop_shells_capped(g, vec![r], cfg.hops, cfg.cap, cfg.seed);
            edges += solo.leaf_sources().len();
            closure.extend(solo.leaf_sources());
        }
        admission_bytes(closure.len(), edges, cfg.in_dim)
    }

    /// The check inside `aggregate_roots` prices the selection it
    /// builds from; the stand-alone probe re-walks it. Under a finite
    /// budget they must agree batch for batch, and so must a budgeted
    /// cache-off `Server`: the same batches shed, with the probe's byte
    /// count as `needed`, the rest served — the server's rows bit-equal
    /// to `serve_one`.
    #[test]
    fn finite_budget_sheds_exactly_what_the_probe_prices_over() {
        let ds = community(120, 3, 4, 1, 8, 5);
        let scfg = cfg(ds.feature_dim(), 4);
        let n = ds.graph.num_vertices() as u32;
        let batches: Vec<Vec<u32>> = (0..24u32)
            .map(|b| (0..=b % 6).map(|i| (b * 17 + i * 29) % n).collect())
            .collect();
        let mut prices: Vec<usize> = batches
            .iter()
            .map(|roots| selection_admission_bytes(&ds.graph, &scfg, roots))
            .collect();
        prices.sort_unstable();
        let budget = MemoryBudget {
            bytes: prices[prices.len() / 2],
        };
        let server = crate::Server::new(
            ds.graph.clone(),
            ds.features.clone(),
            crate::ServerConfig {
                model: scfg,
                cache_bytes: 0,
                budget,
                ..Default::default()
            },
            ModelSnapshot::init(&scfg, 9),
        );
        let snap = server.snapshot();
        let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut shed = 0;
        for roots in &batches {
            let price = selection_admission_bytes(&ds.graph, &scfg, roots);
            assert_eq!(price, price_root_by_root(&ds.graph, &scfg, roots));
            let got = aggregate_roots(&ds.graph, &ds.features, &scfg, roots, &budget);
            let requests: Vec<crate::Request> = (0..)
                .zip(roots)
                .map(|(id, &vertex)| crate::Request {
                    id,
                    vertex,
                    submitted_vt: 0,
                })
                .collect();
            let served = server.execute_batch(&requests, &snap);
            if price > budget.bytes {
                shed += 1;
                for err in [got.err(), served.err()] {
                    match err {
                        Some(ServeError::AdmissionDenied { needed, budget: b }) => {
                            assert_eq!((needed, b), (price, budget.bytes), "roots {roots:?}");
                        }
                        other => panic!("roots {roots:?}: expected a shed batch, got {other:?}"),
                    }
                }
            } else {
                let rows = served.unwrap_or_else(|e| panic!("roots {roots:?}: server shed: {e}"));
                assert_eq!(rows.len(), roots.len());
                for (r, &v) in rows.iter().zip(roots) {
                    let one = serve_one(&ds.graph, &ds.features, &snap, &scfg, v, &budget).unwrap();
                    assert_eq!(bits(&r.output), bits(&one), "roots {roots:?} vertex {v}");
                }
                let want = aggregate_roots(
                    &ds.graph,
                    &ds.features,
                    &scfg,
                    roots,
                    &MemoryBudget::unlimited(),
                )
                .unwrap();
                assert_eq!(got.unwrap().data(), want.data(), "roots {roots:?}");
            }
        }
        assert!(shed > 0 && shed < batches.len(), "both outcomes exercised");
    }

    /// "One row per root, in `roots` order, per-root bitwise
    /// independent" holds for a repeated root too. The HDG builder used
    /// to key ranks by vertex id: row 0 came back all zero and row 2
    /// twice the sum (the server dedups first, so no parity suite saw it).
    #[test]
    fn duplicate_roots_get_identical_rows() {
        let ds = community(200, 4, 4, 1, 8, 3);
        let scfg = cfg(ds.feature_dim(), 4);
        let budget = MemoryBudget::unlimited();
        let agg = |roots: &[u32]| {
            aggregate_roots(&ds.graph, &ds.features, &scfg, roots, &budget).unwrap()
        };
        let (batch, seven, three) = (agg(&[7, 3, 7]), agg(&[7]), agg(&[3]));
        assert!(seven.row(0).iter().any(|&x| x != 0.0));
        let bits = |row: &[f32]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(batch.row(0)), bits(seven.row(0)));
        assert_eq!(bits(batch.row(1)), bits(three.row(0)));
        assert_eq!(bits(batch.row(2)), bits(seven.row(0)));
    }

    /// Roots reach `aggregate_roots` from `serve_one` and
    /// `Server::execute_batch`, not only through `Server::submit`; one
    /// outside the graph is a structured error, not an index panic.
    #[test]
    fn out_of_graph_roots_are_unknown_vertices() {
        let ds = community(60, 3, 4, 1, 8, 5);
        let scfg = cfg(ds.feature_dim(), 4);
        let snap = ModelSnapshot::init(&scfg, 9);
        let budget = MemoryBudget::unlimited();
        let n = ds.graph.num_vertices();
        let unknown = |vertex: u32| ServeError::UnknownVertex {
            vertex,
            num_vertices: n,
        };
        let got = serve_one(&ds.graph, &ds.features, &snap, &scfg, n as u32, &budget);
        assert_eq!(got, Err(unknown(n as u32)));
        let got = aggregate_roots(&ds.graph, &ds.features, &scfg, &[3, 70, 5], &budget);
        assert_eq!(got.err(), Some(unknown(70)));
        assert!(serve_one(&ds.graph, &ds.features, &snap, &scfg, n as u32 - 1, &budget).is_ok());
    }

    #[test]
    fn admission_failures_surface_as_denied() {
        let ds = community(60, 3, 4, 1, 8, 5);
        let scfg = ServeModelConfig {
            cap: 0, // uncapped shells to force real transients
            in_dim: ds.feature_dim(),
            ..Default::default()
        };
        let snap = ModelSnapshot::init(&scfg, 9);
        let tiny = MemoryBudget { bytes: 8 };
        assert!(matches!(
            serve_one(&ds.graph, &ds.features, &snap, &scfg, 0, &tiny),
            Err(ServeError::AdmissionDenied { .. })
        ));
    }
}
