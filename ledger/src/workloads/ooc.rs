//! `ooc_hop2_tight`: a two-hop forward over the paged store under a
//! page-cache budget an eighth of the decoded graph, so the store —
//! not HDG rebuilding — does most of the work.

use crate::harness::{bits_digest, Fnv, Size, Traced, Workload};
use crate::span::Recorder;
use crate::stats::median;
use flexgraph::engine::{hierarchical_aggregate, AggrOp, AggrPlan, MemoryBudget, Strategy};
use flexgraph::hdg::build::from_hop_shells_capped;
use flexgraph::obs::PageCacheRecord;
use flexgraph::store::ooc::hdg_for;
use flexgraph::store::{forward_out_of_core, rmat_to_store, Neighborhood, PagedGraph};
use flexgraph::tensor::Tensor;
use std::path::PathBuf;
use std::time::Instant;

const DIM: usize = 16;
const PARTITION: usize = 128;

pub struct Ooc {
    seed: u64,
    scale: u32,
    edge_factor: usize,
    seg_vertices: u32,
    size: Size,
    path: PathBuf,
    nbr: Neighborhood,
}

impl Ooc {
    pub fn generate(seed: u64, size: Size, work_dir: &std::path::Path) -> Self {
        let (scale, edge_factor, seg_vertices) = match size {
            Size::Full => (12, 8, 16),
            Size::Tiny => (7, 4, 8),
        };
        Ooc {
            seed,
            scale,
            edge_factor,
            seg_vertices,
            size,
            path: work_dir.join(format!("ooc-{seed}-{}.fgps", std::process::id())),
            nbr: Neighborhood::HopShells {
                k: 2,
                cap: 16,
                seed: seed ^ 0x0c,
            },
        }
    }

    fn roots(&self) -> Vec<u32> {
        (0..1u32 << self.scale).collect()
    }

    /// The pure per-vertex feature row both the paged and the in-RAM
    /// forward read.
    fn feat_row(&self, v: u32) -> Vec<f32> {
        let mut state = (u64::from(v) ^ self.seed).wrapping_mul(6364136223846793005);
        (0..DIM)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) * 4.0 - 2.0
            })
            .collect()
    }

    fn all_feats(&self) -> Tensor {
        let roots = self.roots();
        let flat: Vec<f32> = roots.iter().flat_map(|&v| self.feat_row(v)).collect();
        Tensor::from_vec(roots.len(), DIM, flat)
    }

    fn forward(&self, pg: &PagedGraph) -> Tensor {
        forward_out_of_core(
            pg,
            &self.roots(),
            &self.nbr,
            PARTITION,
            &|v| self.feat_row(v),
            DIM,
            &AggrPlan::flat(AggrOp::Sum),
            Strategy::SaFa,
            &MemoryBudget::unlimited(),
        )
        .expect("forward under a budget no smaller than the widest segment")
        .features
    }

    /// The in-RAM twin: same selection, same plan, whole graph resident.
    fn in_ram_forward(&self, g: &flexgraph::graph::Graph, feats: &Tensor) -> Tensor {
        let Neighborhood::HopShells { k, cap, seed } = self.nbr else {
            unreachable!("the workload is defined over hop shells");
        };
        let hdg = from_hop_shells_capped(g, self.roots(), k, cap, seed);
        hierarchical_aggregate(
            &hdg,
            feats,
            &AggrPlan::flat(AggrOp::Sum),
            Strategy::SaFa,
            &MemoryBudget::unlimited(),
        )
        .expect("unlimited budget")
        .features
    }
}

impl Drop for Ooc {
    fn drop(&mut self) {
        // Best effort: the store file lives in the scratch directory.
        let _ = std::fs::remove_file(&self.path);
    }
}

pub struct OocState {
    file_bytes: u64,
    residency: usize,
    /// max(residency / 8, widest segment): the builders pin one segment
    /// at a time, so the widest one is the hard floor.
    budget: MemoryBudget,
    /// Output digest of the first forward; every later one must match.
    first: Option<u64>,
    stats: PageCacheRecord,
    /// Seconds of each traced forward, without the `open`.
    forwards: Vec<f64>,
}

impl Workload for Ooc {
    type State = OocState;
    type Out = (Tensor, PageCacheRecord);

    fn digest(&self, _st: &OocState, h: &mut Fnv) {
        h.bytes(&std::fs::read(&self.path).expect("the store file set-up wrote"));
    }

    /// Streaming the R-MAT graph to the store, opening it, one scan of
    /// every segment — which prices the residency the budget is an
    /// eighth of — and the warm-up forward.
    fn setup(&self, rec: &Recorder) -> OocState {
        let summary = rec.span("store.rmat_to_store", || {
            rmat_to_store(
                &self.path,
                self.scale,
                self.edge_factor,
                self.seed,
                self.seg_vertices,
            )
            .expect("stream the graph to the store")
        });
        let pg = rec.span("store.open", || {
            PagedGraph::open(&self.path, MemoryBudget::unlimited()).expect("open the store")
        });
        let (mut residency, mut widest) = (0usize, 0usize);
        rec.span("store.scan", || {
            for sid in 0..pg.num_segments() {
                let (seg, _) = rec.span("store.read_segment", || {
                    pg.reader().read_segment(sid).expect("read a segment")
                });
                residency += seg.residency_bytes();
                widest = widest.max(seg.residency_bytes());
            }
        });
        let mut st = OocState {
            file_bytes: summary.store.bytes,
            residency,
            budget: MemoryBudget {
                bytes: (residency / 8).max(widest),
            },
            first: None,
            stats: PageCacheRecord::default(),
            forwards: Vec::new(),
        };
        let warm_up = rec.span("store.warm_up_forward", || self.op(&mut st, 0));
        self.check(&mut st, 0, warm_up)
            .expect("the warm-up forward evicts under the tight budget");
        st
    }

    /// A fresh `open` per op: every forward starts with an empty page
    /// cache.
    fn op(&self, st: &mut OocState, _i: u64) -> Self::Out {
        let pg = PagedGraph::open(&self.path, st.budget).expect("open the store");
        (self.forward(&pg), pg.cache_stats())
    }

    /// The forward is one call; its layers are derived in
    /// [`Workload::layers`] from forwards under other budgets.
    fn traced_op(&self, st: &mut OocState, _i: u64, rec: &Recorder) -> Self::Out {
        let pg = rec.span("store.open", || {
            PagedGraph::open(&self.path, st.budget).expect("open the store")
        });
        let t0 = Instant::now();
        let out = self.forward(&pg);
        st.forwards.push(t0.elapsed().as_secs_f64());
        (out, pg.cache_stats())
    }

    fn check(&self, st: &mut OocState, _i: u64, out: Self::Out) -> Result<(), String> {
        let (features, stats) = out;
        st.stats = stats;
        if self.size == Size::Full && stats.evictions == 0 {
            return Err("the tight budget evicted nothing".into());
        }
        let got = bits_digest(features.data());
        match *st.first.get_or_insert(got) {
            first if first == got => Ok(()),
            first => Err(format!(
                "output digest {got:#x} != first forward's {first:#x}"
            )),
        }
    }

    fn verify(&self, st: &mut OocState) -> Result<(), String> {
        let pg =
            PagedGraph::open(&self.path, MemoryBudget::unlimited()).map_err(|e| e.to_string())?;
        let g = pg.to_graph().map_err(|e| e.to_string())?;
        let want = self.in_ram_forward(&g, &self.all_feats());
        if Some(bits_digest(want.data())) == st.first {
            Ok(())
        } else {
            Err("out-of-core output differs from the in-RAM engine's".into())
        }
    }

    fn verify_twin(&self, plain: &OocState, traced: &OocState) -> Result<(), String> {
        if plain.first == traced.first {
            Ok(())
        } else {
            Err(format!("{:?} != {:?}", plain.first, traced.first))
        }
    }

    fn layers(&self, st: &mut OocState, t: &mut Traced<'_>) {
        let (rec, m) = (t.rec, &mut t.metrics);
        let write_s = rec.median_s("store.rmat_to_store");
        m.set("store.stream_write_s", write_s);
        m.set(
            "store.stream_write_mb_s",
            st.file_bytes as f64 / 1e6 / write_s,
        );
        m.set("store.open_s", rec.median_s("store.open"));
        m.set(
            "store.read_segment_us",
            rec.median_s("store.read_segment") * 1e6,
        );
        // Read + CRC + decode of the whole file.
        m.set(
            "store.scan_mb_s",
            st.file_bytes as f64 / 1e6 / rec.median_s("store.scan"),
        );
        m.set("store.cache.hit_rate", st.stats.hit_rate());
        m.set("store.cache.misses", st.stats.misses as f64);
        m.set("store.cache.evictions", st.stats.evictions as f64);
        m.set("store.cache.bytes_read", st.stats.bytes_read as f64);
        m.set(
            "store.read_amplification",
            st.stats.bytes_read as f64 / st.file_bytes as f64,
        );

        // One adjacency query against a segment that is not resident,
        // then against the same segment once it is.
        let unlimited = MemoryBudget::unlimited();
        let pg = PagedGraph::open(&self.path, unlimited).expect("open the store");
        let (mut miss, mut hit) = (Vec::new(), Vec::new());
        for sid in 0..pg.num_segments() {
            let v = pg.reader().segment_range(sid).0;
            miss.push(
                rec.probe("store.out_neighbors_miss", 1, || pg.out_neighbors(v))
                    .1,
            );
            hit.push(
                rec.probe("store.out_neighbors_hit", 1, || pg.out_neighbors(v))
                    .1,
            );
        }
        m.set("store.out_neighbors_miss_us", median(&miss) * 1e6);
        m.set("store.out_neighbors_hit_us", median(&hit) * 1e6);

        // Every segment is resident now: HDG construction through the
        // cache without paging, then the engine on those HDGs.
        let feats = self.all_feats();
        let plan = AggrPlan::flat(AggrOp::Sum);
        let (mut build, mut agg) = (Vec::new(), Vec::new());
        let mut transient = 0usize;
        for chunk in self.roots().chunks(PARTITION).take(8) {
            let (hdg, s) = rec.probe("store.hdg_for", 1, || {
                hdg_for(&pg, chunk.to_vec(), &self.nbr).expect("resident segments")
            });
            build.push(s);
            let (res, s) = rec.probe("engine.hybrid.aggregate", 1, || {
                hierarchical_aggregate(&hdg, &feats, &plan, Strategy::SaFa, &unlimited)
                    .expect("unlimited budget")
            });
            agg.push(s);
            transient = transient.max(res.peak_transient_bytes);
        }
        m.set("store.hdg_for_s", median(&build));
        m.set("engine.hybrid.aggregate_s", median(&agg));
        m.set("engine.hybrid.transient_bytes", transient as f64);

        // The same forward with the whole graph allowed to stay
        // resident, and its in-RAM twin (one HDG over all roots).
        let (_, full_s) = rec.probe("store.forward_full_budget", 2, || {
            let pg = PagedGraph::open(&self.path, unlimited).expect("open the store");
            self.forward(&pg)
        });
        let g = pg.to_graph().expect("rehydrate the graph");
        let (_, in_ram_s) = rec.probe("engine.in_ram_forward", 2, || {
            self.in_ram_forward(&g, &feats)
        });
        m.set("store.forward_full_budget_s", full_s);
        m.set("engine.in_ram_forward_s", in_ram_s);
        // The tight-budget forward is the full-budget one plus paging.
        t.derived.push((
            "store.paging (tight - full budget)",
            median(&st.forwards) - full_s,
        ));
        t.derived.push(("store.forward_full_budget", full_s));
        println!(
            "  store: {} B on disk, {} B decoded, page-cache budget {} B ({:.1}x over)",
            st.file_bytes,
            st.residency,
            st.budget.bytes,
            st.residency as f64 / st.budget.bytes as f64
        );
    }
}
