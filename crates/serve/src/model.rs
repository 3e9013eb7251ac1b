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

use crate::ServeError;
use flexgraph_engine::hybrid::{
    hierarchical_aggregate_quant, AggrOp, AggrPlan, LeafFeats, Strategy,
};
use flexgraph_engine::{admission_bytes, planned_admission_bytes, MemoryBudget};
use flexgraph_graph::hll::ReachSketches;
use flexgraph_graph::Graph;
use flexgraph_hdg::build::select_hop_shells;
use flexgraph_hdg::HdgBuilder;
use flexgraph_models::checkpoint;
use flexgraph_tensor::quant::{matmul_bf16, matmul_i8, round_bf16_inplace};
use flexgraph_tensor::{
    xavier_uniform, Bf16Tensor, ParamSet, QInt8Cols, QInt8Rows, QuantConfig, Tensor,
};
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

/// The feature matrix at the serving tier's configured precision.
///
/// Quantization is per-row (bf16 is elementwise; int8 scales depend
/// only on the row itself), so a vertex's stored feature row is a pure
/// function of its f32 row — batch composition can never change the
/// `x_v` any request reads, which is what keeps the parity invariant
/// alive under quantization.
#[derive(Clone, Debug)]
pub enum ServeFeats {
    /// Full-width features (4 bytes/element).
    F32(Tensor),
    /// bf16 storage (2 bytes/element), widened as rows stream.
    Bf16(Bf16Tensor),
    /// Symmetric per-row int8 (≈1 byte/element), dequantized as rows
    /// stream.
    Int8(QInt8Rows),
}

impl ServeFeats {
    /// Quantizes (or wraps) an f32 feature matrix per `quant`.
    pub fn new(feats: Tensor, quant: QuantConfig) -> Self {
        match quant {
            QuantConfig::F32 => Self::F32(feats),
            QuantConfig::Bf16 => Self::Bf16(Bf16Tensor::from_tensor(&feats)),
            QuantConfig::Int8 => Self::Int8(QInt8Rows::quantize(&feats)),
        }
    }

    /// Number of feature rows (vertices).
    pub fn rows(&self) -> usize {
        match self {
            Self::F32(t) => t.rows(),
            Self::Bf16(t) => t.rows(),
            Self::Int8(t) => t.rows(),
        }
    }

    /// Feature width.
    pub fn cols(&self) -> usize {
        match self {
            Self::F32(t) => t.cols(),
            Self::Bf16(t) => t.cols(),
            Self::Int8(t) => t.cols(),
        }
    }

    /// Writes the f32 view of row `v` into `out`.
    pub fn copy_row_into(&self, v: usize, out: &mut [f32]) {
        match self {
            Self::F32(t) => out.copy_from_slice(t.row(v)),
            Self::Bf16(t) => t.widen_row_into(v, out),
            Self::Int8(t) => t.dequantize_row_into(v, out),
        }
    }

    /// The leaf-level view the quantized aggregation entry consumes.
    pub fn as_leaf(&self) -> LeafFeats<'_> {
        match self {
            Self::F32(t) => LeafFeats::F32(t),
            Self::Bf16(t) => LeafFeats::Bf16(t),
            Self::Int8(t) => LeafFeats::Int8(t),
        }
    }

    /// Heap bytes of the stored matrix — the bandwidth/footprint lever
    /// quantized serving exists for.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Self::F32(t) => t.heap_bytes(),
            Self::Bf16(t) => t.heap_bytes(),
            Self::Int8(t) => t.heap_bytes(),
        }
    }
}

/// The dense head's weights at the snapshot's precision, derived once
/// from the f32 parameters at snapshot construction (never per batch).
#[derive(Clone, Debug)]
enum QuantWeights {
    /// Serve straight off the f32 `ParamSet`.
    F32,
    /// bf16-stored W1/W2, widened into the f32 matmul chain.
    Bf16 { w1: Bf16Tensor, w2: Bf16Tensor },
    /// Per-column int8 W1/W2 for the i32-accumulating matmul.
    Int8 { w1: QInt8Cols, w2: QInt8Cols },
}

impl QuantWeights {
    fn derive(params: &ParamSet, quant: QuantConfig) -> Self {
        match quant {
            QuantConfig::F32 => Self::F32,
            QuantConfig::Bf16 => Self::Bf16 {
                w1: Bf16Tensor::from_tensor(params.value(0)),
                w2: Bf16Tensor::from_tensor(params.value(1)),
            },
            QuantConfig::Int8 => Self::Int8 {
                w1: QInt8Cols::quantize(params.value(0)),
                w2: QInt8Cols::quantize(params.value(1)),
            },
        }
    }
}

/// An immutable, versioned parameter snapshot. Slot 0 is W1, slot 1 is
/// W2 — the exact layout [`flexgraph_models::gcn::Gcn`] registers, so
/// GCN checkpoints restore directly.
///
/// A snapshot carries its [`QuantConfig`] and the weights *already
/// quantized* under it: quantization happens exactly once, at snapshot
/// construction (initial load or hot swap), never on the request path.
/// Because a hot swap builds a whole new snapshot
/// ([`ModelSnapshot::with_checkpoint`] re-quantizes the restored
/// parameters under the same config), pinned in-flight batches keep
/// serving their old snapshot's quantized weights untouched.
pub struct ModelSnapshot {
    version: u64,
    params: ParamSet,
    quant_cfg: QuantConfig,
    quant: QuantWeights,
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
        Self::init_quant(cfg, init_seed, QuantConfig::F32)
    }

    /// Version 1 at an explicit serving precision: the same f32
    /// initialization, with the weights quantized once up front.
    pub fn init_quant(cfg: &ServeModelConfig, init_seed: u64, quant: QuantConfig) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(init_seed);
        let mut params = ParamSet::new();
        params.register(xavier_uniform(&mut rng, cfg.in_dim, cfg.hidden));
        params.register(xavier_uniform(&mut rng, cfg.hidden, cfg.classes));
        let quant_w = QuantWeights::derive(&params, quant);
        Self {
            version: 1,
            params,
            quant_cfg: quant,
            quant: quant_w,
        }
    }

    /// This snapshot's version — the cache-key component.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The precision this snapshot serves at.
    pub fn quant_config(&self) -> QuantConfig {
        self.quant_cfg
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
    /// never touched), re-quantize the restored weights under this
    /// snapshot's [`QuantConfig`], bump the version. Any validation
    /// failure — corrupt CRC, shape mismatch — leaves the caller's
    /// snapshot the serving truth.
    pub fn with_checkpoint(&self, bytes: &[u8]) -> Result<Self, ServeError> {
        let mut params = clone_params(&self.params);
        checkpoint::restore(&mut params, bytes)?;
        let quant = QuantWeights::derive(&params, self.quant_cfg);
        Ok(Self {
            version: self.version + 1,
            params,
            quant_cfg: self.quant_cfg,
            quant,
        })
    }
}

/// The capped k-hop NeighborSelection of one batch — walked once, then
/// read twice: [`price`] sizes admission from its leaves and
/// [`aggregate_selected`] freezes the same builder into the HDG.
fn select(g: &Graph, cfg: &ServeModelConfig, roots: &[u32]) -> HdgBuilder {
    select_hop_shells(g, roots.to_vec(), cfg.hops, cfg.cap, cfg.seed).unwrap_or_else(|e| match e {})
}

/// Transient bytes a selection materializes: its closure (roots plus
/// distinct leaves) and its leaf edges, in the engine's own
/// [`admission_bytes`] arithmetic.
fn price(cfg: &ServeModelConfig, roots: &[u32], leaves: &[u32]) -> usize {
    let mut closure = [roots, leaves].concat();
    closure.sort_unstable();
    closure.dedup();
    admission_bytes(closure.len(), leaves.len(), cfg.in_dim)
}

/// Transient bytes the capped k-hop selection of `roots` would
/// materialize — the hop-shell closure sized with the engine's own
/// [`admission_bytes`] arithmetic, so serve backpressure and engine
/// OOM accounting can never disagree. Exact: it walks the selection
/// (one depth-bounded walk per root, the cost of the roots' k-hop
/// balls) and prices it exactly as [`aggregate_roots`] prices the
/// selection it is about to build from.
pub fn selection_admission_bytes(g: &Graph, cfg: &ServeModelConfig, roots: &[u32]) -> usize {
    price(cfg, roots, select(g, cfg, roots).leaves())
}

/// HyperLogLog admission planner: prices a batch's capped k-hop
/// selection **without walking the graph**.
///
/// Exact admission ([`selection_admission_bytes`], and the check inside
/// [`aggregate_roots`]) costs one depth-bounded walk per root — the
/// walk the HDG build needs anyway and shares, so admitting a batch
/// that is then served costs nothing extra. What exact admission cannot
/// do is say no *before* walking: a shell is capped only after it has
/// been enumerated, so on a power-law graph an over-budget batch is
/// rejected only once its uncapped `hops`-ball has been visited. This
/// planner is for that case. It builds per-vertex hop-ball sketches
/// ([`ReachSketches`]) once at server startup; pricing a batch is then
/// a handful of register merges, and a rejected batch reads no
/// adjacency at all.
///
/// Shell sizes fall out of ball differences, the per-shell sampling
/// `cap` is applied to the *estimated* shell exactly as
/// `select_hop_shells` applies it to the real one, and the
/// distinct-closure estimate takes the tighter of the per-root capped
/// sum and the merged-ball union estimate. Counts are near-exact in the
/// linear-counting regime, so planned prices agree with the exact
/// arithmetic to within the sketch error (≲ 5% on serving-scale
/// batches).
pub struct AdmissionPlanner {
    sketches: ReachSketches,
    hops: usize,
    cap: usize,
    in_dim: usize,
}

impl AdmissionPlanner {
    /// HLL precision of the per-vertex ball sketches: `2^12` registers
    /// (4 KiB per sketch) keeps serving-scale counts in the
    /// linear-counting regime, where estimates are near-exact.
    pub const PRECISION: u32 = 12;

    /// Builds hop-ball sketches for every vertex of `g` (one-time,
    /// `O(hops · E)` sketch merges).
    pub fn new(g: &Graph, cfg: &ServeModelConfig) -> Self {
        Self {
            sketches: ReachSketches::build(g, cfg.hops.max(1), Self::PRECISION),
            hops: cfg.hops,
            cap: cfg.cap,
            in_dim: cfg.in_dim,
        }
    }

    /// Estimated [`selection_admission_bytes`] for `roots`, from the
    /// sketches alone.
    pub fn planned_bytes(&self, roots: &[u32]) -> usize {
        let mut edges = 0.0f64;
        let mut per_root_vertices = 0.0f64;
        for &r in roots {
            per_root_vertices += 1.0; // the root itself
            for hop in 1..=self.hops {
                let mut h = self.sketches.shell_estimate(r, hop);
                if self.cap > 0 {
                    h = h.min(self.cap as f64);
                }
                edges += h;
                per_root_vertices += h;
            }
        }
        // Distinct closure: the per-root sum ignores overlap between
        // roots; the merged (uncapped) ball union ignores the caps.
        // Each bounds the true capped closure from above in the regime
        // where the other is loose, so take the tighter.
        let mut vertices = per_root_vertices;
        if self.hops >= 1 && !roots.is_empty() {
            vertices = vertices.min(self.sketches.merged_estimate(roots, self.hops));
        }
        planned_admission_bytes(vertices, edges, self.in_dim)
    }

    /// Bytes of heap held by the underlying sketches.
    pub fn heap_bytes(&self) -> usize {
        self.sketches.heap_bytes()
    }
}

/// The one body behind every `aggregate_roots*` entry: select → price →
/// admit → build HDG → aggregate, over a single selection. `admit`
/// says whether this call owns the exact admission check or a caller
/// already admitted the batch.
fn aggregate_selected(
    g: &Graph,
    feats: LeafFeats<'_>,
    cfg: &ServeModelConfig,
    roots: &[u32],
    budget: &MemoryBudget,
    admit: bool,
) -> Result<Tensor, ServeError> {
    let selection = select(g, cfg, roots);
    if admit {
        budget.check(price(cfg, roots, selection.leaves()))?;
    }
    let hdg = selection.build();
    let plan = AggrPlan::flat(cfg.op);
    let res = hierarchical_aggregate_quant(&hdg, feats, &plan, Strategy::Ha, budget)?;
    Ok(res.features)
}

/// Capped k-hop aggregation for a set of roots: one `(dim)` row per
/// root, in `roots` order, admission-checked against `budget` up
/// front (the fused Ha path materializes almost nothing, so the
/// explicit check — [`selection_admission_bytes`]' arithmetic on the
/// selection this call builds from — is what actually enforces the
/// budget). Per-root bitwise independent — see the crate docs — so this
/// is both the batch path and (with one root) the reference path.
pub fn aggregate_roots(
    g: &Graph,
    feats: &Tensor,
    cfg: &ServeModelConfig,
    roots: &[u32],
    budget: &MemoryBudget,
) -> Result<Tensor, ServeError> {
    aggregate_selected(g, LeafFeats::F32(feats), cfg, roots, budget, true)
}

/// [`aggregate_roots`] minus the up-front exact selection sizing, for
/// callers that already admitted the batch (the server's
/// [`AdmissionPlanner`] path, which prices the selection from sketches
/// before anything is walked). The engine's own per-step budget checks
/// still run inside the aggregation.
pub fn aggregate_roots_preadmitted(
    g: &Graph,
    feats: &Tensor,
    cfg: &ServeModelConfig,
    roots: &[u32],
    budget: &MemoryBudget,
) -> Result<Tensor, ServeError> {
    aggregate_selected(g, LeafFeats::F32(feats), cfg, roots, budget, false)
}

/// [`aggregate_roots`] over the serving tier's quantized feature store:
/// the leaf level streams rows at reduced width, every level above is
/// the unchanged f32 code. `ServeFeats::F32` is bitwise the f32 path.
pub fn aggregate_roots_quant(
    g: &Graph,
    feats: &ServeFeats,
    cfg: &ServeModelConfig,
    roots: &[u32],
    budget: &MemoryBudget,
) -> Result<Tensor, ServeError> {
    aggregate_selected(g, feats.as_leaf(), cfg, roots, budget, true)
}

/// [`aggregate_roots_preadmitted`] over the quantized feature store.
pub fn aggregate_roots_preadmitted_quant(
    g: &Graph,
    feats: &ServeFeats,
    cfg: &ServeModelConfig,
    roots: &[u32],
    budget: &MemoryBudget,
) -> Result<Tensor, ServeError> {
    aggregate_selected(g, feats.as_leaf(), cfg, roots, budget, false)
}

/// Rounds every element of `t` through bf16 when `quant` stores rows at
/// half width; identity under `F32`. This is the
/// **rounding-at-cache-boundaries** rule: any row that *may* enter the
/// half-width [`crate::cache::EmbeddingCache`] (aggregations, final
/// outputs) is rounded before first use, so a warm hit returns bitwise
/// what the cold compute produced.
pub fn cache_round_inplace(quant: QuantConfig, t: &mut Tensor) {
    if quant != QuantConfig::F32 {
        round_bf16_inplace(t);
    }
}

/// The dense head on pre-summed rows: `relu(s · W1) · W2` where row
/// `i` of `summed` is `x_v + a_v` for some vertex `v`. Row-independent
/// (tiled matmul accumulates each output element over ascending `k`),
/// so head-of-batch outputs equal head-of-one outputs bitwise.
pub fn dense_head(summed: &Tensor, snap: &ModelSnapshot) -> Tensor {
    summed.matmul(snap.w1()).relu().matmul(snap.w2())
}

/// The dense head at the snapshot's precision. Under `F32` this is
/// exactly [`dense_head`]; the quantized arms round activations at
/// every storage boundary and emit outputs already bf16-rounded (their
/// cache-storage form), so cold computes and warm hits are bitwise
/// interchangeable. Every step is per-row independent — elementwise
/// rounding, per-row activation quantization, per-output-row matmul
/// chains — which preserves the batch-composition parity invariant.
pub fn dense_head_quant(summed: &Tensor, snap: &ModelSnapshot) -> Tensor {
    match &snap.quant {
        QuantWeights::F32 => dense_head(summed, snap),
        QuantWeights::Bf16 { w1, w2 } => {
            // Round activations to bf16, then widen into the same
            // ascending-K f32 chain as the f32 matmul.
            let s = Bf16Tensor::from_tensor(summed);
            let mut h = matmul_bf16(&s, w1);
            h.relu_inplace();
            let hq = Bf16Tensor::from_tensor(&h);
            let mut out = matmul_bf16(&hq, w2);
            round_bf16_inplace(&mut out);
            out
        }
        QuantWeights::Int8 { w1, w2 } => {
            // Per-row symmetric activation quant + i32-accumulating
            // matmul; relu between layers runs on the dequantized f32.
            let qs = QInt8Rows::quantize(summed);
            let mut h = matmul_i8(&qs, w1);
            h.relu_inplace();
            let qh = QInt8Rows::quantize(&h);
            let mut out = matmul_i8(&qh, w2);
            round_bf16_inplace(&mut out);
            out
        }
    }
}

/// The reference single-request forward: exactly what a batch of one
/// computes, with no queue, cache, or batching in the loop. The parity
/// suite holds every served output bitwise equal to this.
///
/// Quant-aware: when `snap` carries a non-f32 [`QuantConfig`], the f32
/// feature matrix is quantized per-row (a pure per-row function, so
/// doing it per call changes nothing) and the forward runs the
/// quantized pipeline via [`serve_one_quant`].
pub fn serve_one(
    g: &Graph,
    feats: &Tensor,
    snap: &ModelSnapshot,
    cfg: &ServeModelConfig,
    vertex: u32,
    budget: &MemoryBudget,
) -> Result<Vec<f32>, ServeError> {
    match snap.quant_config() {
        QuantConfig::F32 => {
            let agg = aggregate_roots(g, feats, cfg, &[vertex], budget)?;
            let mut summed = Tensor::zeros(1, cfg.in_dim);
            let x = feats.row(vertex as usize);
            let a = agg.row(0);
            for (o, (xv, av)) in summed.row_mut(0).iter_mut().zip(x.iter().zip(a)) {
                *o = xv + av;
            }
            Ok(dense_head(&summed, snap).row(0).to_vec())
        }
        q => {
            let store = ServeFeats::new(feats.clone(), q);
            serve_one_quant(g, &store, snap, cfg, vertex, budget)
        }
    }
}

/// [`serve_one`] over an already-built quantized feature store — the
/// reference forward of the quantized determinism contract, and the
/// exact sequence [`crate::Server::execute_batch`] performs per row:
/// quantized aggregation, bf16 rounding of `a_v` (its cache-storage
/// form), `x_v + a_v` in f32, then [`dense_head_quant`].
pub fn serve_one_quant(
    g: &Graph,
    feats: &ServeFeats,
    snap: &ModelSnapshot,
    cfg: &ServeModelConfig,
    vertex: u32,
    budget: &MemoryBudget,
) -> Result<Vec<f32>, ServeError> {
    let quant = snap.quant_config();
    let mut agg = aggregate_roots_quant(g, feats, cfg, &[vertex], budget)?;
    cache_round_inplace(quant, &mut agg);
    let mut summed = Tensor::zeros(1, cfg.in_dim);
    let mut x = vec![0.0f32; cfg.in_dim];
    feats.copy_row_into(vertex as usize, &mut x);
    let a = agg.row(0);
    for (o, (xv, av)) in summed.row_mut(0).iter_mut().zip(x.iter().zip(a)) {
        *o = xv + av;
    }
    Ok(dense_head_quant(&summed, snap).row(0).to_vec())
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

    /// Planned prices must track the exact arithmetic closely enough
    /// that sketch-admitted and BFS-admitted servers agree on real
    /// workloads: within 5% relative, with a small absolute slack for
    /// tiny closures where one HLL register collision is worth a whole
    /// vertex row.
    fn assert_plans_track_exact(ds: &flexgraph_graph::gen::Dataset, cap: usize) {
        let scfg = ServeModelConfig {
            cap,
            in_dim: ds.feature_dim(),
            ..Default::default()
        };
        let planner = AdmissionPlanner::new(&ds.graph, &scfg);
        let row_bytes = flexgraph_tensor::fusion::materialized_bytes(1, scfg.in_dim) as f64;
        let check = |roots: &[u32], rel: f64| {
            let exact = selection_admission_bytes(&ds.graph, &scfg, roots) as f64;
            let planned = planner.planned_bytes(roots) as f64;
            let err = (planned - exact).abs();
            assert!(
                err <= (rel * exact).max(3.0 * row_bytes),
                "roots {roots:?} cap {cap}: planned {planned} vs exact {exact}"
            );
        };
        let n = ds.graph.num_vertices() as u32;
        for r in (0..n).step_by(7) {
            check(&[r], 0.05);
        }
        // Batches: when caps bind, each root samples its shells
        // independently, so the *overlap among sampled leaves* is
        // workload-dependent and not recoverable from the sketches —
        // the planner only brackets it (per-root capped sum vs merged
        // uncapped union). Allow 10% there; uncapped batches stay at 5%.
        let batch_rel = if cap == 0 { 0.05 } else { 0.10 };
        check(&[0, 1, 2, 3], batch_rel); // overlapping neighborhoods
        check(&[0, n / 3, 2 * n / 3, n - 1], batch_rel); // spread across communities
    }

    #[test]
    fn planned_admission_tracks_exact_within_tolerance() {
        for seed_graph in [community(60, 3, 4, 1, 8, 5), community(80, 3, 5, 1, 8, 3)] {
            assert_plans_track_exact(&seed_graph, 0);
            assert_plans_track_exact(&seed_graph, 16);
        }
    }

    #[test]
    fn preadmitted_aggregation_is_bitwise_the_admitted_one() {
        let ds = community(60, 3, 4, 1, 8, 5);
        let scfg = cfg(ds.feature_dim(), 4);
        let budget = MemoryBudget::unlimited();
        let roots = [3u32, 17, 17, 42];
        let a = aggregate_roots(&ds.graph, &ds.features, &scfg, &roots, &budget).unwrap();
        let b =
            aggregate_roots_preadmitted(&ds.graph, &ds.features, &scfg, &roots, &budget).unwrap();
        assert_eq!(
            a.data(),
            b.data(),
            "admission check must not change outputs"
        );
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
    /// budget they must agree batch for batch: the same ones shed, with
    /// the probe's byte count as `needed`, the rest served.
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
        let mut shed = 0;
        for roots in &batches {
            let price = selection_admission_bytes(&ds.graph, &scfg, roots);
            assert_eq!(price, price_root_by_root(&ds.graph, &scfg, roots));
            let got = aggregate_roots(&ds.graph, &ds.features, &scfg, roots, &budget);
            if price > budget.bytes {
                shed += 1;
                match got {
                    Err(ServeError::AdmissionDenied { needed, budget: b }) => {
                        assert_eq!((needed, b), (price, budget.bytes), "roots {roots:?}");
                    }
                    other => panic!("roots {roots:?}: expected a shed batch, got {other:?}"),
                }
            } else {
                let want = aggregate_roots_preadmitted(
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
