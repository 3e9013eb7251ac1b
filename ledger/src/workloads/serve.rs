//! `serve_cold` and `serve_warm`: the same graph and model served with
//! the embedding cache off (every request pays selection, HDG build,
//! aggregation and the dense head) and on (a pure hit path).
//!
//! Closed loop, one client, window of 32: submit 32 requests, then
//! `poll`. A request's latency is its window's submit-to-`poll`-return
//! wall time — one clock pair per window, so the timer does not
//! dominate the warm path.

use crate::harness::{Fnv, Size, Traced, Workload};
use crate::span::Recorder;
use crate::stats::{median, percentile, sorted};
use flexgraph::engine::{hierarchical_aggregate, AggrPlan, MemoryBudget, Strategy};
use flexgraph::graph::bfs::hop_shells;
use flexgraph::graph::gen::{community, Dataset};
use flexgraph::hdg::build::from_hop_shells_capped;
use flexgraph::serve::model::{aggregate_roots, selection_admission_bytes, serve_one};
use flexgraph::serve::{
    BatcherConfig, CacheKey, EmbeddingCache, ModelSnapshot, QuantConfig, Response,
    ServeModelConfig, Server, ServerConfig,
};
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Requests per window; also the batcher's `max_batch`, so each `poll`
/// closes exactly one full batch.
const WINDOW: usize = 32;
const WARM_CACHE_BYTES: usize = 64 << 20;
/// Requests checked against `serve_one` after the timed phase.
const SAMPLE: usize = 256;
/// Windows the cold server answers in set-up: the kernel pool starts
/// and the first batches run before the first timed op.
const COLD_WARM_UP_WINDOWS: u64 = 16;
/// Batches the per-batch layer probes run over.
const PROBE_BATCHES: usize = 20;

pub struct Serve {
    ds: Dataset,
    /// Request vertex ids; a whole number of windows.
    stream: Vec<u32>,
    warm: bool,
    model: ServeModelConfig,
    init_seed: u64,
}

impl Serve {
    pub fn generate(seed: u64, size: Size, warm: bool) -> Self {
        let (ds, requests) = match size {
            Size::Full => (community(4000, 4, 6, 2, 16, seed), 32_000),
            Size::Tiny => (community(200, 4, 4, 1, 8, seed), 20 * WINDOW),
        };
        let n = ds.graph.num_vertices() as u32;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5e7e);
        let stream = (0..requests)
            .map(|_| {
                // Warm: 75 % of requests over the first |V|/16 vertices,
                // the rest uniform. Cold: uniform.
                if warm && rng.gen_range(0..4u32) != 0 {
                    rng.gen_range(0..(n / 16).max(1))
                } else {
                    rng.gen_range(0..n)
                }
            })
            .collect();
        let model = ServeModelConfig {
            hops: 2,
            cap: 16,
            seed: seed ^ 0xca9,
            in_dim: ds.feature_dim(),
            classes: ds.num_classes,
            ..ServeModelConfig::default()
        };
        Serve {
            ds,
            stream,
            warm,
            model,
            init_seed: seed ^ 0x1417,
        }
    }

    fn server(&self, cache_bytes: usize) -> Server {
        let cfg = ServerConfig {
            batcher: BatcherConfig {
                max_batch: WINDOW,
                max_delay: 64,
                queue_cap: 2 * WINDOW,
            },
            model: self.model,
            cache_bytes,
            budget: MemoryBudget::unlimited(),
            quant: QuantConfig::F32,
        };
        Server::new(
            self.ds.graph.clone(),
            self.ds.features.clone(),
            cfg,
            ModelSnapshot::init_quant(&self.model, self.init_seed, QuantConfig::F32),
        )
    }

    fn window(&self, i: u64) -> &[u32] {
        let windows = self.stream.len() / WINDOW;
        let w = (i % windows as u64) as usize;
        &self.stream[w * WINDOW..(w + 1) * WINDOW]
    }

    fn submit(&self, server: &Server, i: u64) {
        for &v in self.window(i) {
            // A refusal shows as a short window in `check`.
            let _ = server.submit(v);
        }
    }
}

pub struct ServeState {
    server: Server,
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Workload for Serve {
    type State = ServeState;
    type Out = Vec<Response>;

    fn units_per_op(&self) -> u64 {
        WINDOW as u64
    }

    fn digest(&self, _st: &ServeState, h: &mut Fnv) {
        let g = &self.ds.graph;
        h.usizes(g.out_offsets());
        h.usizes(g.in_offsets());
        h.u32s(g.in_sources());
        h.f32s(self.ds.features.data());
        h.u32s(&self.stream);
    }

    /// `Server::new`, then: warm, one pass of the stream to fill the
    /// cache; cold, a few windows to start the pool.
    fn setup(&self, rec: &Recorder) -> ServeState {
        let cache = if self.warm { WARM_CACHE_BYTES } else { 0 };
        let server = rec.span("serve.server_new", || self.server(cache));
        let windows = if self.warm {
            (self.stream.len() / WINDOW) as u64
        } else {
            COLD_WARM_UP_WINDOWS
        };
        rec.span("serve.warming_pass", || {
            for i in 0..windows {
                self.submit(&server, i);
                server.poll().expect("unlimited budget");
            }
        });
        // The ops' hit rate and batch fill should not count the above.
        server.take_window();
        ServeState { server }
    }

    fn op(&self, st: &mut ServeState, i: u64) -> Vec<Response> {
        self.submit(&st.server, i);
        st.server.poll().unwrap_or_default()
    }

    /// `poll` taken apart over the public calls it makes: close the
    /// batch, pin the snapshot, execute.
    fn traced_op(&self, st: &mut ServeState, i: u64, rec: &Recorder) -> Vec<Response> {
        let server = &st.server;
        rec.span("serve.submit", || self.submit(server, i));
        let Some((batch, _)) = rec.span("serve.batcher.next_batch", || server.next_batch()) else {
            return Vec::new();
        };
        let snap = rec.span("serve.snapshot", || server.snapshot());
        rec.span("serve.execute_batch", || {
            server.execute_batch(&batch, &snap).unwrap_or_default()
        })
    }

    fn check(&self, _st: &mut ServeState, i: u64, out: Vec<Response>) -> Result<(), String> {
        let want = self.window(i);
        if out.len() == want.len() && out.iter().zip(want).all(|(r, &v)| r.vertex == v) {
            Ok(())
        } else {
            Err(format!("{} of {} requests answered", out.len(), want.len()))
        }
    }

    /// A sample of requests through the timed server must equal the
    /// batch-of-one reference bitwise; the warm server must also equal
    /// a cache-less one.
    fn verify(&self, st: &mut ServeState) -> Result<(), String> {
        let snap = st.server.snapshot();
        let cold = self.warm.then(|| self.server(0));
        let windows = (SAMPLE.min(self.stream.len()) / WINDOW) as u64;
        for i in 0..windows {
            let got = self.op(st, i);
            let cold_got = cold.as_ref().map(|server| {
                self.submit(server, i);
                server.poll().unwrap_or_default()
            });
            if got.len() != WINDOW {
                return Err(format!("window {i}: {} responses", got.len()));
            }
            for (j, r) in got.iter().enumerate() {
                let want = serve_one(
                    &self.ds.graph,
                    &self.ds.features,
                    &snap,
                    &self.model,
                    r.vertex,
                    &MemoryBudget::unlimited(),
                )
                .map_err(|e| format!("serve_one({}): {e:?}", r.vertex))?;
                if !same_bits(&r.output, &want) {
                    return Err(format!("vertex {} differs from serve_one", r.vertex));
                }
                if let Some(c) = &cold_got {
                    if c.len() != WINDOW || !same_bits(&c[j].output, &r.output) {
                        return Err(format!("vertex {}: warm differs from cold", r.vertex));
                    }
                }
            }
        }
        Ok(())
    }

    fn verify_twin(&self, _plain: &ServeState, _traced: &ServeState) -> Result<(), String> {
        // Every window of both blocks was checked request by request.
        Ok(())
    }

    fn layers(&self, st: &mut ServeState, t: &mut Traced<'_>) {
        let (rec, m) = (t.rec, &mut t.metrics);
        let per_op = rec.op_self_medians();
        let of = |name: &str| per_op.get(name).copied().unwrap_or(0.0);
        m.set("serve.server_new_s", rec.median_s("serve.server_new"));
        m.set("serve.submit_us", of("serve.submit") / WINDOW as f64 * 1e6);
        m.set(
            "serve.poll_batch_us",
            (of("serve.batcher.next_batch") + of("serve.snapshot") + of("serve.execute_batch"))
                * 1e6,
        );
        // A request's latency is its window's; from the plain ops.
        let latency = sorted(t.plain_op_s.to_vec());
        m.set("serve.latency_p50_ms", percentile(&latency, 50.0) * 1e3);
        m.set("serve.latency_p99_ms", percentile(&latency, 99.0) * 1e3);
        let w = st.server.window_stats();
        m.set(
            "serve.cache.hit_rate",
            w.cache_hits as f64 / (w.cache_hits + w.cache_misses).max(1) as f64,
        );
        m.set(
            "serve.batch.fill",
            w.served as f64 / (w.batches.max(1) * WINDOW as u64) as f64,
        );

        // What a cold batch is made of, per 32-root batch.
        let g = &self.ds.graph;
        let feats = &self.ds.features;
        let unlimited = MemoryBudget::unlimited();
        let plan = AggrPlan::flat(self.model.op);
        let (mut admit, mut shells, mut build, mut agg, mut roots_s) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut transient = 0usize;
        for i in 0..PROBE_BATCHES as u64 {
            let roots = self.window(i);
            admit.push(
                rec.probe("serve.admission", 1, || {
                    selection_admission_bytes(g, &self.model, roots)
                })
                .1,
            );
            shells.push(
                rec.probe("graph.bfs.hop_shells", 1, || {
                    for &r in roots {
                        black_box(hop_shells(g, r, self.model.hops));
                    }
                })
                .1,
            );
            let (hdg, s) = rec.probe("hdg.build.hop_shells_capped", 1, || {
                from_hop_shells_capped(
                    g,
                    roots.to_vec(),
                    self.model.hops,
                    self.model.cap,
                    self.model.seed,
                )
            });
            build.push(s);
            let (res, s) = rec.probe("engine.hybrid.aggregate", 1, || {
                hierarchical_aggregate(&hdg, feats, &plan, Strategy::Ha, &unlimited)
                    .expect("unlimited budget")
            });
            agg.push(s);
            transient = transient.max(res.peak_transient_bytes);
            roots_s.push(
                rec.probe("serve.aggregate_roots", 1, || {
                    aggregate_roots(g, feats, &self.model, roots, &unlimited)
                        .expect("unlimited budget")
                })
                .1,
            );
        }
        m.set("serve.admission_us", median(&admit) * 1e6);
        m.set("graph.bfs.hop_shells_s", median(&shells));
        m.set("hdg.build.hop_shells_capped_s", median(&build));
        m.set("engine.hybrid.aggregate_s", median(&agg));
        m.set("engine.hybrid.transient_bytes", transient as f64);
        m.set("serve.aggregate_roots_us", median(&roots_s) * 1e6);

        // The cache on its own, at the rows the server stores.
        const KEYS: u32 = 20_000;
        let mut cache = EmbeddingCache::new(WARM_CACHE_BYTES);
        let key = |v: u32| CacheKey {
            version: 1,
            vertex: v,
            layer: 0,
        };
        let row = vec![0.5f32; self.model.in_dim];
        let insert_s = rec.span("serve.cache.insert", || {
            let t0 = Instant::now();
            for v in 0..KEYS {
                cache.insert(key(v), row.clone());
            }
            t0.elapsed().as_secs_f64()
        });
        let get_s = rec.span("serve.cache.get", || {
            let t0 = Instant::now();
            for v in 0..KEYS {
                black_box(cache.get(key(v)));
            }
            t0.elapsed().as_secs_f64()
        });
        m.set("serve.cache.insert_ns", insert_s / f64::from(KEYS) * 1e9);
        m.set("serve.cache.get_ns", get_s / f64::from(KEYS) * 1e9);
    }
}
