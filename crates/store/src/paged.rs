//! [`PagedGraph`]: an out-of-core graph — a [`StoreReader`] behind a
//! [`PageCache`] — exposing the same adjacency queries as the in-RAM
//! [`Graph`], plus a lossless rehydration path for parity checks.

use crate::cache::{PageCache, PinnedSegment};
use crate::err::StoreError;
use crate::file::StoreReader;
use flexgraph_engine::MemoryBudget;
use flexgraph_graph::bfs::Adjacency;
use flexgraph_graph::csr::{Graph, GraphBuilder, VertexId};
use flexgraph_obs::PageCacheRecord;
use std::path::Path;

/// A disk-resident graph with a bounded decoded-segment cache.
pub struct PagedGraph {
    reader: StoreReader,
    cache: PageCache,
}

impl PagedGraph {
    /// Opens `path` with a residency budget for decoded segments.
    pub fn open(path: impl AsRef<Path>, budget: MemoryBudget) -> Result<PagedGraph, StoreError> {
        Ok(PagedGraph {
            reader: StoreReader::open(path)?,
            cache: PageCache::new(budget),
        })
    }

    /// Vertices in the graph.
    pub fn num_vertices(&self) -> usize {
        self.reader.num_vertices() as usize
    }

    /// Directed arcs in the graph.
    pub fn num_edges(&self) -> usize {
        self.reader.num_arcs() as usize
    }

    /// Number of on-disk segments.
    pub fn num_segments(&self) -> u32 {
        self.reader.num_segments()
    }

    /// Vertices per segment.
    pub fn seg_vertices(&self) -> u32 {
        self.reader.seg_vertices()
    }

    /// The segment holding vertex `v`.
    pub fn segment_of(&self, v: VertexId) -> u32 {
        self.reader.segment_of(v)
    }

    /// The underlying reader (for direct, uncached scans).
    pub fn reader(&self) -> &StoreReader {
        &self.reader
    }

    /// Pins segment `sid`, fetching and decoding it on a cache miss.
    pub fn segment(&self, sid: u32) -> Result<PinnedSegment<'_>, StoreError> {
        self.cache.get(sid, || self.reader.read_segment(sid))
    }

    /// The segment holding `v`, pinned.
    pub fn segment_for(&self, v: VertexId) -> Result<PinnedSegment<'_>, StoreError> {
        self.segment(self.segment_of(v))
    }

    /// Out-neighbors of `v`, copied out of the pinned segment.
    pub fn out_neighbors(&self, v: VertexId) -> Result<Vec<VertexId>, StoreError> {
        Ok(self.segment_for(v)?.out_neighbors(v).to_vec())
    }

    /// Page-cache counters with the residency snapshot filled in.
    pub fn cache_stats(&self) -> PageCacheRecord {
        self.cache.stats()
    }

    /// Drops all unpinned cached segments (counters persist).
    pub fn drop_cache(&self) {
        self.cache.clear()
    }

    /// Rehydrates the full in-RAM [`Graph`], streaming segments in
    /// order through the cache. Arcs arrive sorted by `(src, dst)` —
    /// exactly the order `GraphBuilder::dedup().build()` leaves them —
    /// so the result is bitwise-identical (offset arrays and adjacency
    /// arrays) to the graph the store was written from.
    pub fn to_graph(&self) -> Result<Graph, StoreError> {
        let mut b = GraphBuilder::new(self.num_vertices());
        for sid in 0..self.num_segments() {
            let seg = self.segment(sid)?;
            let first = seg.first_vertex;
            for l in 0..seg.num_vertices() {
                let v = first + l as VertexId;
                for &d in seg.out_neighbors(v) {
                    b.add_edge(v, d);
                }
            }
        }
        Ok(b.build())
    }
}

impl Adjacency for PagedGraph {
    type Error = StoreError;

    fn num_vertices(&self) -> usize {
        PagedGraph::num_vertices(self)
    }

    /// Reads `v`'s out-neighbors in place from its pinned segment — one
    /// cache fetch, no copy.
    fn for_each_out(&self, v: VertexId, visit: impl FnMut(VertexId)) -> Result<(), StoreError> {
        self.segment_for(v)?
            .out_neighbors(v)
            .iter()
            .copied()
            .for_each(visit);
        Ok(())
    }

    /// Reads `v`'s in-sources in place, in stored (ascending) order.
    fn for_each_in(&self, v: VertexId, visit: impl FnMut(VertexId)) -> Result<(), StoreError> {
        self.segment_for(v)?
            .in_sources(v)
            .iter()
            .copied()
            .for_each(visit);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::write_graph;
    use flexgraph_graph::gen::community;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("flexgraph-store-tests");
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    #[test]
    fn paged_adjacency_matches_in_ram() {
        let ds = community(60, 3, 4, 1, 4, 9);
        let g = &ds.graph;
        let path = tmp("paged_adj.fgps");
        write_graph(g, &path, 13).unwrap();
        let pg = PagedGraph::open(&path, MemoryBudget::unlimited()).unwrap();
        assert_eq!(pg.num_vertices(), 60);
        assert_eq!(pg.num_edges(), g.num_edges());
        for v in 0..60u32 {
            assert_eq!(pg.out_neighbors(v).unwrap(), g.out_neighbors(v));
            let mut in_sources = Vec::new();
            pg.for_each_in(v, |u| in_sources.push(u)).unwrap();
            assert_eq!(in_sources, g.in_neighbors(v));
        }
        let stats = pg.cache_stats();
        assert_eq!(stats.hits + stats.misses, stats.fetches);
        assert_eq!(stats.misses, 5, "ceil(60/13) segments, each read once");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn to_graph_is_bitwise_identical_under_eviction() {
        let ds = community(80, 4, 5, 1, 4, 3);
        let g = &ds.graph;
        let path = tmp("paged_rt.fgps");
        write_graph(g, &path, 9).unwrap();
        // A budget of two segments forces eviction during the scan.
        let probe = PagedGraph::open(&path, MemoryBudget::unlimited()).unwrap();
        let two = probe.segment(0).unwrap().residency_bytes()
            + probe.segment(1).unwrap().residency_bytes();
        let pg = PagedGraph::open(&path, MemoryBudget { bytes: two }).unwrap();
        let back = pg.to_graph().unwrap();
        assert_eq!(back.out_offsets(), g.out_offsets());
        assert_eq!(back.in_offsets(), g.in_offsets());
        assert_eq!(back.in_sources(), g.in_sources());
        let all_out: Vec<_> = (0..80u32)
            .flat_map(|v| back.out_neighbors(v).to_vec())
            .collect();
        let want: Vec<_> = (0..80u32)
            .flat_map(|v| g.out_neighbors(v).to_vec())
            .collect();
        assert_eq!(all_out, want);
        assert!(
            pg.cache_stats().evictions > 0,
            "budget must have forced eviction"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
