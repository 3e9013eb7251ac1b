//! Serving-path benchmark: micro-batching vs batch_size=1, cache cold
//! vs warm, and the quantized inference path (ISSUE 8). Emits
//! `BENCH_serve.json` in the current directory.
//!
//! The workload is a skewed request stream (a small hot set absorbs
//! most requests, the tail is uniform) replayed identically through
//! four f32 server configurations:
//!
//! 1. `bs1_cold`    — max_batch 1, cache disabled (the no-batching
//!    baseline),
//! 2. `micro_cold`  — micro-batched, cache disabled (isolates the
//!    batching win),
//! 3. `micro_warm1` — micro-batched with the cache enabled, first pass
//!    (cold cache, pays the fills),
//! 4. `micro_warm2` — the same stream replayed on the warmed server
//!    (isolates the cache win).
//!
//! f32 outputs are asserted **bitwise identical** across all four — the
//! serving layer's parity invariant — so the speedups are pure
//! scheduling/caching effects. The speedups themselves are wall-clock
//! ratios and are only reported; the bench fails on the deterministic
//! claims alone (parity, batch counts, hit rates).
//!
//! On top of that, the same stream runs through each `QuantConfig`
//! (f32 / bf16 / int8): per config the bench measures cold and warm
//! req/s, the warm-pass cache hit rate, and the max-abs error of the
//! quantized outputs against f32, and asserts the **per-config**
//! determinism contract — cold vs warm, rerun vs rerun, and threads 1
//! vs 4 all bitwise identical. A final experiment gives an f32 and a
//! bf16-cached server the *same tight byte budget* (~0.75× the hot
//! set's f32 footprint) and records both warm hit rates; the bf16 mode
//! must win, since 2-byte rows fit the whole hot set where 4-byte rows
//! thrash.
//!
//! With `FLEXGRAPH_TRACE` set, each configuration emits deterministic
//! `serve` trace windows (virtual-time counters only, carrying the
//! config's quant label), which CI byte-compares across two runs.
//! `FLEXGRAPH_BENCH_STRICT=1` additionally re-reads the committed
//! `BENCH_serve.json` in the current directory (if any) and fails if
//! any config's req/s fell below 0.9× its committed value — the
//! regression gate; off by default because shared machines jitter.
//!
//! Scale with `FLEXGRAPH_BENCH_SCALE` (default 0.25); thread count with
//! `FLEXGRAPH_THREADS`.

use flexgraph::engine::MemoryBudget;
use flexgraph::graph::gen::community;
use flexgraph::obs;
use flexgraph::serve::{
    BatcherConfig, ModelSnapshot, QuantConfig, Response, ServeModelConfig, Server, ServerConfig,
};
use flexgraph::tensor::set_thread_override;
use flexgraph_bench::bench_scale;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

const INIT_SEED: u64 = 13;

fn workload(n: u32, requests: usize) -> Vec<u32> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let hot: Vec<u32> = (0..requests)
        .map(|_| rng.gen_range(0..n.max(16) / 16))
        .collect();
    hot.into_iter()
        .enumerate()
        .map(|(i, h)| {
            if i % 4 == 0 {
                // Tail: uniform over the whole graph.
                (h.wrapping_mul(2654435761).wrapping_add(i as u32)) % n
            } else {
                h // Hot set: the first |V|/16 vertices.
            }
        })
        .collect()
}

/// Replays the stream, polling after every submission and flushing at
/// the end; returns responses in request order plus the elapsed
/// seconds.
fn drive(server: &Server, stream: &[u32]) -> (Vec<Response>, f64) {
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(stream.len());
    for &v in stream {
        server.submit(v).expect("bench stream fits the queue");
        out.extend(server.poll().expect("unlimited budget"));
    }
    out.extend(server.flush().expect("unlimited budget"));
    (out, t0.elapsed().as_secs_f64())
}

fn bitwise_eq(a: &[Response], b: &[Response]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.vertex == y.vertex
                && x.output.len() == y.output.len()
                && x.output
                    .iter()
                    .zip(&y.output)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

fn max_abs_err(a: &[Response], b: &[Response]) -> f64 {
    assert_eq!(a.len(), b.len(), "streams align index-wise");
    a.iter()
        .zip(b)
        .flat_map(|(x, y)| {
            assert_eq!(x.vertex, y.vertex, "same request order");
            x.output.iter().zip(&y.output)
        })
        .map(|(p, q)| (p - q).abs() as f64)
        .fold(0.0, f64::max)
}

/// One quantized-config measurement.
struct QuantRow {
    name: &'static str,
    cold_req_per_s: f64,
    warm_req_per_s: f64,
    warm_hit_rate: f64,
    /// vs the f32 warm outputs; 0 for the f32 row by construction.
    max_abs_err: f64,
    /// cold==warm, rerun==timed run, threads 1 == threads 4 — all
    /// bitwise, all within this config.
    bitwise_identical: bool,
}

/// `FLEXGRAPH_BENCH_STRICT` support: extracts `(name, req/s)` pairs
/// from a previously committed `BENCH_serve.json`. Works line-by-line —
/// the writer below puts one config object per line.
fn baseline_rates(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|l| {
            let name = l
                .split("\"name\": \"")
                .nth(1)?
                .split('"')
                .next()?
                .to_string();
            let rate = ["\"req_per_s\": ", "\"warm_req_per_s\": "]
                .iter()
                .find_map(|k| {
                    l.split(k)
                        .nth(1)?
                        .split([',', '}'])
                        .next()?
                        .trim()
                        .parse::<f64>()
                        .ok()
                })?;
            Some((name, rate))
        })
        .collect()
}

fn main() {
    obs::init_env_trace();
    let scale = bench_scale().0;
    let strict = std::env::var("FLEXGRAPH_BENCH_STRICT").as_deref() == Ok("1");
    let committed = if strict {
        std::fs::read_to_string("BENCH_serve.json").ok()
    } else {
        None
    };
    let n = ((2_000.0 * scale) as usize).max(200);
    let requests = (n * 4).max(800);
    let ds = community(n, 4, 6, 2, 16, 29);
    let model = ServeModelConfig {
        in_dim: ds.feature_dim(),
        classes: ds.num_classes,
        ..Default::default()
    };
    let server_cfg = |max_batch: usize, cache_bytes: usize, quant: QuantConfig| ServerConfig {
        batcher: BatcherConfig {
            max_batch,
            max_delay: 64,
            queue_cap: requests + 1,
        },
        model,
        cache_bytes,
        budget: MemoryBudget::unlimited(),
        quant,
    };
    let make = |cfg: ServerConfig| {
        Server::new(
            ds.graph.clone(),
            ds.features.clone(),
            cfg,
            ModelSnapshot::init_quant(&model, INIT_SEED, cfg.quant),
        )
    };
    let stream = workload(n as u32, requests);

    // 1 + 2: batching effect, cache out of the picture (f32).
    let bs1 = make(server_cfg(1, 0, QuantConfig::F32));
    let (out_bs1, s_bs1) = drive(&bs1, &stream);
    let bs1_rec = bs1.emit_trace_window();
    let micro = make(server_cfg(32, 0, QuantConfig::F32));
    let (out_micro, s_micro) = drive(&micro, &stream);
    let micro_rec = micro.emit_trace_window();

    // 3 + 4: cache effect, batching held fixed (f32).
    let cached = make(server_cfg(32, 64 << 20, QuantConfig::F32));
    let (out_cold, s_cold) = drive(&cached, &stream);
    cached.emit_trace_window();
    let (out_warm, s_warm) = drive(&cached, &stream);
    let warm_rec = cached.emit_trace_window();

    assert!(
        bitwise_eq(&out_bs1, &out_micro)
            && bitwise_eq(&out_bs1, &out_cold)
            && bitwise_eq(&out_bs1, &out_warm),
        "serving outputs must be bitwise identical across batching and cache configs"
    );
    // The two speedups are wall-clock ratios: printed and recorded,
    // never a verdict. What is gated is what they are ratios *of* —
    // micro-batching runs the stream in fewer batches, and the replay
    // on a warmed cache computes nothing.
    let batch_speedup = s_bs1 / s_micro;
    let warm_speedup = s_cold / s_warm;
    assert!(
        micro_rec.batches < bs1_rec.batches,
        "micro-batching must coalesce: {} batches vs {} at batch_size=1",
        micro_rec.batches,
        bs1_rec.batches
    );
    assert_eq!(
        warm_rec.cache_misses, 0,
        "the replayed stream must be answered from the warmed cache alone"
    );
    let hit_rate =
        warm_rec.cache_hits as f64 / (warm_rec.cache_hits + warm_rec.cache_misses).max(1) as f64;

    // Quantized configs: timed cold + warm pass each, then untimed
    // bitwise sweeps (rerun determinism, threads 1 vs 4).
    let mut quant_rows: Vec<QuantRow> = Vec::new();
    for quant in [QuantConfig::F32, QuantConfig::Bf16, QuantConfig::Int8] {
        eprintln!("benchmarking quant config {}...", quant.label());
        let cfg = server_cfg(32, 64 << 20, quant);
        let server = make(cfg);
        let (q_cold, s_q_cold) = drive(&server, &stream);
        server.emit_trace_window();
        let (q_warm, s_q_warm) = drive(&server, &stream);
        let q_rec = server.emit_trace_window();
        assert_eq!(q_rec.quant, quant.code(), "trace window carries the label");
        let q_hit = q_rec.cache_hits as f64 / (q_rec.cache_hits + q_rec.cache_misses).max(1) as f64;

        let mut sweep = Vec::new();
        for threads in [1usize, 4] {
            set_thread_override(Some(threads));
            let (out, _) = drive(&make(cfg), &stream);
            sweep.push(out);
        }
        set_thread_override(None);
        let identical = bitwise_eq(&q_cold, &q_warm)
            && bitwise_eq(&q_cold, &sweep[0])
            && bitwise_eq(&sweep[0], &sweep[1]);
        assert!(
            identical,
            "{} serving must be bitwise identical across cache state, reruns, \
             and threads 1/4 (the per-config determinism contract)",
            quant.label()
        );
        quant_rows.push(QuantRow {
            name: quant.label(),
            cold_req_per_s: requests as f64 / s_q_cold,
            warm_req_per_s: requests as f64 / s_q_warm,
            warm_hit_rate: q_hit,
            max_abs_err: max_abs_err(&q_warm, &out_warm),
            bitwise_identical: identical,
        });
    }
    assert_eq!(
        quant_rows[0].max_abs_err, 0.0,
        "the f32 quant row is the reference itself"
    );

    // Same-byte-budget cache comparison: ~0.75× the hot set's f32
    // footprint, so 4-byte rows thrash where 2-byte rows fit. Hot set =
    // the first |V|/16 vertices; each caches one in_dim-wide
    // aggregation row (layer 0) and one classes-wide output row
    // (layer 1).
    let hot = (n / 16).max(1);
    let hot_f32_bytes = hot * (model.in_dim + model.classes) * 4;
    let tight = hot_f32_bytes * 3 / 4;
    let mut tight_rates = Vec::new();
    for quant in [QuantConfig::F32, QuantConfig::Bf16] {
        let server = make(server_cfg(32, tight, quant));
        drive(&server, &stream);
        server.emit_trace_window();
        drive(&server, &stream);
        let rec = server.emit_trace_window();
        tight_rates.push(rec.cache_hits as f64 / (rec.cache_hits + rec.cache_misses).max(1) as f64);
    }
    let (tight_f32, tight_bf16) = (tight_rates[0], tight_rates[1]);
    assert!(
        tight_bf16 > tight_f32,
        "under the same {tight}-byte budget, bf16 cache storage must out-hit f32 \
         (got bf16 {tight_bf16:.4} vs f32 {tight_f32:.4})"
    );

    let rows = [
        ("bs1_cold", s_bs1, 1),
        ("micro_cold", s_micro, 32),
        ("micro_warm1", s_cold, 32),
        ("micro_warm2", s_warm, 32),
    ];
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"vertices\": {n},");
    let _ = writeln!(json, "  \"requests\": {requests},");
    let _ = writeln!(json, "  \"scale\": {scale},");
    let _ = writeln!(json, "  \"bitwise_identical\": true,");
    let _ = writeln!(json, "  \"microbatch_speedup\": {batch_speedup:.3},");
    let _ = writeln!(json, "  \"warm_cache_speedup\": {warm_speedup:.3},");
    let _ = writeln!(json, "  \"warm_hit_rate\": {hit_rate:.4},");
    json.push_str("  \"configs\": [\n");
    for (i, (name, secs, max_batch)) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{name}\", \"max_batch\": {max_batch}, \
             \"seconds\": {secs:.4}, \"req_per_s\": {:.1}}}",
            requests as f64 / secs
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str("  \"quant\": [\n");
    for (i, r) in quant_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"cold_req_per_s\": {:.1}, \
             \"warm_req_per_s\": {:.1}, \"warm_hit_rate\": {:.4}, \
             \"max_abs_err\": {:.6}, \"bitwise_identical\": {}}}",
            r.name,
            r.cold_req_per_s,
            r.warm_req_per_s,
            r.warm_hit_rate,
            r.max_abs_err,
            r.bitwise_identical
        );
        json.push_str(if i + 1 < quant_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"cache_budget\": {{\"bytes\": {tight}, \"f32_warm_hit_rate\": {tight_f32:.4}, \
         \"bf16_warm_hit_rate\": {tight_bf16:.4}}}"
    );
    json.push_str("}\n");

    // Regression gate, before overwriting the committed file: every
    // config present in both old and new JSON must hold ≥ 0.9× of its
    // committed req/s (warm req/s for quant rows).
    if let Some(old) = &committed {
        let old_rates = baseline_rates(old);
        let new_rates = baseline_rates(&json);
        for (name, old_rate) in &old_rates {
            if let Some((_, new_rate)) = new_rates.iter().find(|(n2, _)| n2 == name) {
                assert!(
                    *new_rate >= 0.9 * old_rate,
                    "strict gate: config {name} regressed to {new_rate:.1} req/s \
                     (committed {old_rate:.1})"
                );
            }
        }
        println!(
            "strict gate: {} configs at or above 0.9x committed baseline",
            old_rates.len()
        );
    }
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");

    println!(
        "{:<12} {:>9} {:>10} {:>12}",
        "config", "batch", "seconds", "req/s"
    );
    for (name, secs, max_batch) in &rows {
        println!(
            "{:<12} {:>9} {:>10.4} {:>12.1}",
            name,
            max_batch,
            secs,
            requests as f64 / secs
        );
    }
    println!(
        "\n{:<6} {:>12} {:>12} {:>10} {:>13}  bitwise",
        "quant", "cold req/s", "warm req/s", "hit rate", "max_abs_err"
    );
    for r in &quant_rows {
        println!(
            "{:<6} {:>12.1} {:>12.1} {:>10.4} {:>13.6}  {}",
            r.name,
            r.cold_req_per_s,
            r.warm_req_per_s,
            r.warm_hit_rate,
            r.max_abs_err,
            if r.bitwise_identical {
                "ok"
            } else {
                "MISMATCH"
            }
        );
    }
    println!(
        "\nmicro-batching speedup {batch_speedup:.2}x, warm-cache speedup \
         {warm_speedup:.2}x (hit rate {:.1}%); same {tight}-byte cache budget: \
         bf16 hit rate {tight_bf16:.4} vs f32 {tight_f32:.4}; outputs bitwise \
         identical per config; wrote BENCH_serve.json",
        hit_rate * 100.0
    );
    obs::finish_trace();
}
