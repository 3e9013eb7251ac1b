//! Renders a `FLEXGRAPH_TRACE` JSONL file into a human-readable
//! per-stage / per-partition breakdown.
//!
//! ```text
//! cargo run --release --bin trace_summary -- trace.jsonl
//! ```
//!
//! With no argument, generates a 2-epoch demo trace in a temp file
//! first (so `trace_summary` doubles as a smoke test of the whole
//! telemetry path) and summarizes that.

use flexgraph::obs::{self, Stage, TraceLine};
use std::collections::BTreeMap;

/// The `p50` / `p99` bounds of merged serving windows. A parsed record
/// holds no latency buckets — the wire carries each window's bounds, not
/// its histogram — so the bounds merge beside the record, by max: the
/// largest window bound is still a valid `≤` for the union (the median
/// of a union never exceeds the largest part's median).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct LatBounds {
    p50: u64,
    p99: u64,
}

impl LatBounds {
    fn merge(&mut self, p50: u64, p99: u64) {
        self.p50 = self.p50.max(p50);
        self.p99 = self.p99.max(p99);
    }
}

fn main() {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => demo_trace(),
    };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read trace {path:?}: {e}"));

    let mut wall_mode = false;
    // (epoch, partition) → (record, roots digest); epoch → summary line.
    type PartEntry = (obs::PartitionRecord, (u64, u64, u64));
    let mut parts: BTreeMap<(u64, u32), PartEntry> = BTreeMap::new();
    let mut epochs: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new(); // parts, work, fabric bytes
                                                                      // Serving windows in trace order, plus the merged totals.
    let mut serve_windows: Vec<(u64, obs::ServeRecord, u64, u64)> = Vec::new();
    let mut serve_total = obs::ServeRecord::default();
    let mut serve_bounds = LatBounds::default();
    // Page-cache (paged store) records in trace order, plus the merge.
    let mut pgc_lines: Vec<(u64, obs::PageCacheRecord)> = Vec::new();
    let mut pgc_total = obs::PageCacheRecord::default();
    for (i, line) in text.lines().enumerate() {
        match obs::parse_line(line) {
            Ok(TraceLine::Meta { version, wall }) => {
                println!("trace {path} (format v{version}, wall={wall})");
                wall_mode = wall;
            }
            Ok(TraceLine::Part { record, roots, .. }) => {
                parts.insert((record.epoch, record.partition), (record, roots));
            }
            Ok(TraceLine::Epoch {
                epoch,
                parts: p,
                work,
                fabric,
                ..
            }) => {
                epochs.insert(epoch, (p, work, fabric.bytes));
            }
            Ok(TraceLine::Serve {
                vt,
                record,
                p50,
                p99,
            }) => {
                serve_total.merge(&record);
                serve_bounds.merge(p50, p99);
                serve_windows.push((vt, record, p50, p99));
            }
            Ok(TraceLine::PageCache { vt, record }) => {
                pgc_total.merge(&record);
                pgc_lines.push((vt, record));
            }
            Err(e) => panic!("line {}: schema violation: {e}", i + 1),
        }
    }

    for (epoch, (k, work, fabric_bytes)) in &epochs {
        println!("\nepoch {epoch}: {k} partitions, {work} work units, {fabric_bytes} fabric bytes");
        let header = if wall_mode {
            format!(
                "{:>5} {:>10} {:>12} {:>12} {:>9}",
                "part", "stage", "work", "wall_ms", "msgs"
            )
        } else {
            format!("{:>5} {:>10} {:>12} {:>9}", "part", "stage", "work", "msgs")
        };
        println!("{header}");
        for ((e, p), (rec, roots)) in &parts {
            if e != epoch {
                continue;
            }
            let mut first = true;
            for st in Stage::ALL {
                let s = rec.stage(st);
                if s.invocations == 0 {
                    continue;
                }
                let part_col = if first {
                    format!("{p}{}", if rec.pipelined { "*" } else { "" })
                } else {
                    String::new()
                };
                let msgs_col = if first {
                    rec.comm.messages.to_string()
                } else {
                    String::new()
                };
                if wall_mode {
                    println!(
                        "{:>5} {:>10} {:>12} {:>12.3} {:>9}",
                        part_col,
                        st.name(),
                        s.work,
                        s.wall_ns as f64 / 1e6,
                        msgs_col
                    );
                } else {
                    println!(
                        "{:>5} {:>10} {:>12} {:>9}",
                        part_col,
                        st.name(),
                        s.work,
                        msgs_col
                    );
                }
                first = false;
            }
            let &(rc, rt, rmax) = roots;
            if rc > 0 {
                println!(
                    "{:>5} {:>10} {:>12} (roots: {} attributed, max {})",
                    "", "roots", rt, rc, rmax
                );
            }
        }
    }
    if !epochs.is_empty() {
        println!("\n(* = pipelined leaf level)");
    }

    if !serve_windows.is_empty() {
        println!("\nserve: {} windows", serve_windows.len());
        println!(
            "{:>6} {:>8} {:>8} {:>8} {:>9} {:>11} {:>7} {:>9} {:>9}",
            "vt", "enq", "served", "rej", "batches", "cache(h/m)", "queue", "lat_p50", "lat_p99"
        );
        for (vt, r, p50, p99) in &serve_windows {
            println!(
                "{:>6} {:>8} {:>8} {:>8} {:>9} {:>11} {:>7} {:>9} {:>9}",
                vt,
                r.enqueued,
                r.served,
                r.rejected,
                format!("{}≤{}", r.batches, r.batch_max),
                format!("{}/{}", r.cache_hits, r.cache_misses),
                r.queue_depth_max,
                p50,
                p99
            );
        }
        let t = &serve_total;
        let hit_rate = if t.cache_hits + t.cache_misses > 0 {
            t.cache_hits as f64 / (t.cache_hits + t.cache_misses) as f64 * 100.0
        } else {
            0.0
        };
        let mean_lat = if t.latency.count > 0 {
            t.latency.total as f64 / t.latency.count as f64
        } else {
            0.0
        };
        println!(
            "total: {} served / {} enqueued ({} rejected), {} batches, \
             cache hit rate {hit_rate:.1}%, mean latency {mean_lat:.1} vt, \
             p50≤{} p99≤{} (merged)",
            t.served, t.enqueued, t.rejected, t.batches, serve_bounds.p50, serve_bounds.p99,
        );
    }

    if !pgc_lines.is_empty() {
        println!("\npage cache: {} records", pgc_lines.len());
        println!(
            "{:>6} {:>8} {:>8} {:>8} {:>9} {:>12} {:>12}",
            "vt", "fetches", "hits", "evicted", "hit_rate", "read_bytes", "resident"
        );
        for (vt, r) in &pgc_lines {
            println!(
                "{:>6} {:>8} {:>8} {:>8} {:>9.4} {:>12} {:>12}",
                vt,
                r.fetches,
                r.hits,
                r.evictions,
                r.hit_rate(),
                r.bytes_read,
                r.resident_bytes
            );
        }
        println!(
            "total: {} fetches, hit rate {:.1}%, {} evictions, {} bytes read (merged)",
            pgc_total.fetches,
            pgc_total.hit_rate() * 100.0,
            pgc_total.evictions,
            pgc_total.bytes_read
        );
    }

    if epochs.is_empty() && serve_windows.is_empty() && pgc_lines.is_empty() {
        println!("(no epoch, serve, or page-cache records)");
    }
}

/// Runs a tiny 2-epoch distributed training on the virtual-time runtime
/// with tracing on and returns the trace path.
fn demo_trace() -> String {
    use flexgraph::dist::{make_shards, DistConfig, EpochRuntime, VirtualRuntime};
    use flexgraph::graph::partition::hash_partition;
    use flexgraph::hdg::build::from_direct_neighbors;

    let path = std::env::temp_dir()
        .join(format!("flexgraph_demo_trace_{}.jsonl", std::process::id()))
        .to_str()
        .unwrap()
        .to_string();
    obs::start_trace(&path).expect("temp trace file");

    let ds = flexgraph::graph::gen::community(160, 4, 5, 2, 8, 11);
    let part = hash_partition(&ds.graph, 3);
    let shards = make_shards(ds.graph.num_vertices(), &ds.features, &part, |r| {
        from_direct_neighbors(&ds.graph, r.to_vec())
    });
    let cfg = DistConfig::default();
    for _ in 0..2 {
        VirtualRuntime::default().epoch(&ds.graph, &shards, &cfg);
    }
    obs::finish_trace();
    println!("(no trace given — generated a demo trace from a 2-epoch run)");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_quantiles_come_from_the_bounds_the_lines_carry() {
        let mut total = obs::ServeRecord::default();
        let mut bounds = LatBounds::default();
        for (vt, latencies) in [(1, &[2, 3, 3][..]), (2, &[1, 1, 1, 100])] {
            let mut window = obs::ServeRecord::default();
            for &l in latencies {
                window.latency.record(l);
            }
            let line = obs::trace::render_serve(vt, &window);
            let Ok(TraceLine::Serve {
                record, p50, p99, ..
            }) = obs::parse_line(&line)
            else {
                panic!("not a serve line: {line}");
            };
            total.merge(&record);
            bounds.merge(p50, p99);
        }
        assert_eq!(bounds, LatBounds { p50: 3, p99: 100 });
        assert!(bounds.p50 < total.latency.max);
    }
}
