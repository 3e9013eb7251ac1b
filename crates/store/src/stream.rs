//! Streaming R-MAT generation: scale-28+ graphs written straight to an
//! FGPS store without ever materializing the edge list in RAM.
//!
//! The generator replays **exactly** the RNG sequence of
//! [`flexgraph_graph::gen::rmat`] (same `StdRng` seeding, same per-edge
//! draw pattern, same self-loop skip), so the arc multiset is identical
//! to the in-RAM generator's. Instead of `GraphBuilder`'s global
//! sort + dedup, arcs are spilled to per-segment bucket files — arc
//! `(s, d)` goes to the out-bucket of `s`'s segment and the in-bucket
//! of `d`'s segment — and pass 2 sorts + dedups one bucket at a time.
//! Because every `(src, dst)` pair lands in exactly one out-bucket,
//! per-bucket `sort_unstable + dedup` produces the same per-vertex
//! ascending adjacency the global sort would (and symmetrically for the
//! in side), which is what makes the store bitwise-identical to
//! `gen::rmat(..).graph` round-tripped through [`crate::write_graph`].
//!
//! Peak memory is one bucket (≈ `2 · arcs / num_segments` pairs), not
//! the graph: segment width is the knob trading file handles for RAM.

use crate::err::StoreError;
use crate::file::{expected_segments, StoreSummary, StoreWriter};
use crate::format::Segment;
use flexgraph_graph::csr::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

fn io_err(path: &Path, err: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        err,
    }
}

/// Extra accounting from a streamed generation run.
#[derive(Clone, Copy, Debug)]
pub struct StreamSummary {
    /// The finished store.
    pub store: StoreSummary,
    /// Raw (pre-dedup) arcs spilled to buckets.
    pub arcs_spilled: u64,
    /// Largest single bucket pair count — pass 2's working set.
    pub peak_bucket_pairs: u64,
}

/// One segment's spill bucket: `(key, neighbor)` u32 pairs on disk.
struct Bucket {
    path: PathBuf,
    w: BufWriter<File>,
    pairs: u64,
}

impl Bucket {
    fn create(path: PathBuf) -> Result<Bucket, StoreError> {
        let f = File::create(&path).map_err(|e| io_err(&path, e))?;
        Ok(Bucket {
            w: BufWriter::new(f),
            path,
            pairs: 0,
        })
    }

    fn push(&mut self, key: u32, nbr: u32) -> Result<(), StoreError> {
        let mut rec = [0u8; 8];
        rec[..4].copy_from_slice(&key.to_le_bytes());
        rec[4..].copy_from_slice(&nbr.to_le_bytes());
        self.w.write_all(&rec).map_err(|e| io_err(&self.path, e))?;
        self.pairs += 1;
        Ok(())
    }

    /// Flushes, reads back, sorts, and dedups the bucket's pairs.
    fn drain_sorted(mut self) -> Result<Vec<(u32, u32)>, StoreError> {
        self.w.flush().map_err(|e| io_err(&self.path, e))?;
        drop(self.w);
        let f = File::open(&self.path).map_err(|e| io_err(&self.path, e))?;
        let mut r = BufReader::new(f);
        let mut pairs = Vec::with_capacity(self.pairs as usize);
        let mut rec = [0u8; 8];
        for _ in 0..self.pairs {
            r.read_exact(&mut rec).map_err(|e| io_err(&self.path, e))?;
            pairs.push((
                u32::from_le_bytes(rec[..4].try_into().unwrap()),
                u32::from_le_bytes(rec[4..].try_into().unwrap()),
            ));
        }
        std::fs::remove_file(&self.path).map_err(|e| io_err(&self.path, e))?;
        pairs.sort_unstable();
        pairs.dedup();
        Ok(pairs)
    }
}

/// Builds one adjacency side of a segment from sorted, deduped
/// `(key, neighbor)` pairs whose keys all fall in `[first, first+nv)`.
fn side_from_pairs(first: VertexId, nv: usize, pairs: &[(u32, u32)]) -> (Vec<u32>, Vec<VertexId>) {
    let mut off = Vec::with_capacity(nv + 1);
    off.push(0u32);
    let mut adj = Vec::with_capacity(pairs.len());
    let mut i = 0usize;
    for l in 0..nv {
        let v = first + l as u32;
        while i < pairs.len() && pairs[i].0 == v {
            adj.push(pairs[i].1);
            i += 1;
        }
        off.push(adj.len() as u32);
    }
    debug_assert_eq!(i, pairs.len(), "pair key outside segment range");
    (off, adj)
}

/// Streams an R-MAT graph of `2^scale` vertices and `edge_factor`
/// undirected edges per vertex straight to `path`, never holding more
/// than one spill bucket in RAM. RNG-compatible with
/// [`flexgraph_graph::gen::rmat`]: same `seed` → same graph, bit for
/// bit. Spill files live in a `<path>.spill/` directory, removed on
/// success.
pub fn rmat_to_store(
    path: impl AsRef<Path>,
    scale: u32,
    edge_factor: usize,
    seed: u64,
    seg_vertices: u32,
) -> Result<StreamSummary, StoreError> {
    let path = path.as_ref();
    let n = 1u64 << scale;
    let num_segments = expected_segments(n, seg_vertices);
    let spill_dir = path.with_extension("spill");
    std::fs::create_dir_all(&spill_dir).map_err(|e| io_err(&spill_dir, e))?;

    // Pass 1: replay gen::rmat's RNG, spilling each directed arc to the
    // out-bucket of its source segment and the in-bucket of its
    // destination segment (both directions of each undirected edge).
    let mut out_buckets = Vec::with_capacity(num_segments as usize);
    let mut in_buckets = Vec::with_capacity(num_segments as usize);
    for s in 0..num_segments {
        out_buckets.push(Bucket::create(spill_dir.join(format!("seg{s}.out")))?);
        in_buckets.push(Bucket::create(spill_dir.join(format!("seg{s}.in")))?);
    }
    let m = (n as usize) * edge_factor;
    let (a, b, c) = (0.57, 0.19, 0.19);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arcs_spilled = 0u64;
    let seg_of = |v: u64| (v / u64::from(seg_vertices)) as usize;
    for _ in 0..m {
        let (mut src, mut dst) = (0u64, 0u64);
        for _ in 0..scale {
            let r: f64 = rng.gen();
            let (sbit, dbit) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            src = (src << 1) | sbit;
            dst = (dst << 1) | dbit;
        }
        if src != dst {
            // Both directions, like gen::rmat's add_undirected.
            for (s, d) in [(src, dst), (dst, src)] {
                out_buckets[seg_of(s)].push(s as u32, d as u32)?;
                in_buckets[seg_of(d)].push(d as u32, s as u32)?;
                arcs_spilled += 1;
            }
        }
    }

    // Pass 2: per segment, sort + dedup each side and append.
    let mut w = StoreWriter::create(path, n, seg_vertices)?;
    let mut peak_bucket_pairs = 0u64;
    for (sid, (ob, ib)) in out_buckets.into_iter().zip(in_buckets).enumerate() {
        peak_bucket_pairs = peak_bucket_pairs.max(ob.pairs).max(ib.pairs);
        let first = sid as u64 * u64::from(seg_vertices);
        let nv = (n - first).min(u64::from(seg_vertices)) as usize;
        let out_pairs = ob.drain_sorted()?;
        let (out_off, out_dst) = side_from_pairs(first as VertexId, nv, &out_pairs);
        drop(out_pairs);
        let in_pairs = ib.drain_sorted()?;
        let (in_off, in_src) = side_from_pairs(first as VertexId, nv, &in_pairs);
        w.push_segment(&Segment {
            first_vertex: first as VertexId,
            out_off,
            out_dst,
            in_off,
            in_src,
        })?;
    }
    let store = w.finish()?;
    std::fs::remove_dir_all(&spill_dir).map_err(|e| io_err(&spill_dir, e))?;
    Ok(StreamSummary {
        store,
        arcs_spilled,
        peak_bucket_pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::write_graph;
    use crate::paged::PagedGraph;
    use flexgraph_engine::MemoryBudget;
    use flexgraph_graph::gen;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("flexgraph-store-tests");
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    #[test]
    fn streamed_rmat_is_bitwise_identical_to_in_ram() {
        for (scale, ef, seed, segv) in [(7u32, 6usize, 42u64, 32u32), (8, 4, 7, 100)] {
            let streamed = tmp(&format!("rmat_s{scale}_{seed}.fgps"));
            let sum = rmat_to_store(&streamed, scale, ef, seed, segv).unwrap();
            let ds = gen::rmat(scale, ef, 4, 2, seed, "parity");
            assert_eq!(sum.store.num_arcs, ds.graph.num_edges() as u64);
            assert!(sum.arcs_spilled >= sum.store.num_arcs);

            // The streamed file is byte-identical to writing the
            // in-RAM graph through the same segmentation.
            let baseline = tmp(&format!("rmat_base_s{scale}_{seed}.fgps"));
            write_graph(&ds.graph, &baseline, segv).unwrap();
            assert_eq!(
                std::fs::read(&streamed).unwrap(),
                std::fs::read(&baseline).unwrap(),
                "streamed store differs from in-RAM-written store"
            );

            // And it rehydrates to the identical CSR arrays.
            let pg = PagedGraph::open(&streamed, MemoryBudget::unlimited()).unwrap();
            let back = pg.to_graph().unwrap();
            assert_eq!(back.out_offsets(), ds.graph.out_offsets());
            assert_eq!(back.in_offsets(), ds.graph.in_offsets());
            assert_eq!(back.in_sources(), ds.graph.in_sources());
            assert!(
                !streamed.with_extension("spill").exists(),
                "spill dir must be cleaned up"
            );
            std::fs::remove_file(&streamed).unwrap();
            std::fs::remove_file(&baseline).unwrap();
        }
    }
}
