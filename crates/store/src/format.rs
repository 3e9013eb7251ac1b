//! The FGPS segment codec: varint primitives and the chunked CSR/CSC
//! segment encoding.
//!
//! ## File layout (FGPS v1)
//!
//! ```text
//! header (32 bytes):
//!   magic        u32 = "FGPS"        version      u32 = 1
//!   num_vertices u64                 num_arcs     u64   (directed arcs)
//!   seg_vertices u32                 num_segments u32
//! segment 0 … segment S−1, back to back:
//!   body: out-adjacency then in-adjacency, per vertex of the segment:
//!         varint degree, then zigzag-varint neighbor deltas
//!   trailer: u32 CRC-32 of the body (graph::crc::crc32)
//! footer:
//!   per segment: offset u64, len u64   (len includes the CRC trailer)
//!   u32 CRC-32 of the entries          — then, for tail discovery:
//!   footer_offset u64, magic u32       (the fixed last 12 bytes)
//! ```
//!
//! Segment `s` covers the fixed vertex range
//! `[s·seg_vertices, min((s+1)·seg_vertices, n))` — a reader maps any
//! vertex to its segment with one division, no per-vertex index.
//! Adjacency lists are stored in exactly the order
//! [`flexgraph_graph::csr::GraphBuilder`] produces (ascending after
//! dedup), so a round-trip through the store is bitwise lossless;
//! zigzag encoding keeps the codec total even for unsorted lists.
//!
//! Decoding validates before it allocates: every declared degree is
//! checked against the bytes that remain (each neighbor takes ≥ 1 byte)
//! *before* reserving space, so a
//! corrupt degree field produces a [`CodecError`], not a huge
//! speculative allocation.

use flexgraph_engine::segment_residency_bytes;
use flexgraph_graph::csr::VertexId;

/// "FGPS" in LE byte order.
pub const MAGIC: u32 = 0x5347_4746;
/// Format version this build reads and writes.
pub const VERSION: u32 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: u64 = 32;
/// Fixed length of the discovery tail (footer offset + magic).
pub const TAIL_LEN: u64 = 12;

/// A position-annotated codec violation. The file-level reader adds the
/// path and rebases `offset` from body-relative to file-relative.
#[derive(Debug, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset of the violation, relative to the segment body.
    pub offset: usize,
    /// What was violated.
    pub what: &'static str,
}

/// Appends `x` as LEB128.
pub fn write_varint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let b = (x & 0x7f) as u8;
        x >>= 7;
        if x == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Reads one LEB128 value at `*pos`, advancing it. Rejects truncation
/// and encodings longer than 10 bytes.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let start = *pos;
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = buf.get(*pos) else {
            return Err(CodecError {
                offset: start,
                what: "varint truncated",
            });
        };
        *pos += 1;
        if shift >= 64 {
            return Err(CodecError {
                offset: start,
                what: "varint longer than 64 bits",
            });
        }
        x |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(x);
        }
        shift += 7;
    }
}

/// Maps a signed delta onto the unsigned varint domain.
pub fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

/// One decoded segment: a CSR/CSC slice over the vertex range
/// `[first_vertex, first_vertex + num_vertices())`, with offset arrays
/// local to the segment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// First vertex of the range this segment covers.
    pub first_vertex: VertexId,
    /// Local out-adjacency offsets (`num_vertices() + 1` entries).
    pub out_off: Vec<u32>,
    /// Out-neighbors, concatenated per vertex.
    pub out_dst: Vec<VertexId>,
    /// Local in-adjacency offsets.
    pub in_off: Vec<u32>,
    /// In-sources, concatenated per vertex.
    pub in_src: Vec<VertexId>,
}

impl Segment {
    /// Number of vertices in the segment's range.
    pub fn num_vertices(&self) -> usize {
        self.out_off.len() - 1
    }

    /// Whether `v` falls inside this segment's range.
    pub fn contains(&self, v: VertexId) -> bool {
        v >= self.first_vertex && ((v - self.first_vertex) as usize) < self.num_vertices()
    }

    /// Out-neighbors of global vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v` is outside the segment's range.
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let l = (v - self.first_vertex) as usize;
        &self.out_dst[self.out_off[l] as usize..self.out_off[l + 1] as usize]
    }

    /// In-sources of global vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics when `v` is outside the segment's range.
    pub fn in_sources(&self, v: VertexId) -> &[VertexId] {
        let l = (v - self.first_vertex) as usize;
        &self.in_src[self.in_off[l] as usize..self.in_off[l + 1] as usize]
    }

    /// Decoded bytes this segment keeps resident, priced by the
    /// engine's shared accounting arithmetic.
    pub fn residency_bytes(&self) -> usize {
        segment_residency_bytes(self.num_vertices(), self.out_dst.len(), self.in_src.len())
    }

    /// Builds the segment covering `[first, first + nv)` of an in-RAM
    /// graph, copying its adjacency slices verbatim.
    pub fn from_graph(g: &flexgraph_graph::csr::Graph, first: VertexId, nv: usize) -> Segment {
        let mut seg = Segment {
            first_vertex: first,
            out_off: Vec::with_capacity(nv + 1),
            out_dst: Vec::new(),
            in_off: Vec::with_capacity(nv + 1),
            in_src: Vec::new(),
        };
        seg.out_off.push(0);
        seg.in_off.push(0);
        for l in 0..nv {
            let v = first + l as VertexId;
            seg.out_dst.extend_from_slice(g.out_neighbors(v));
            seg.out_off.push(seg.out_dst.len() as u32);
            seg.in_src.extend_from_slice(g.in_neighbors(v));
            seg.in_off.push(seg.in_src.len() as u32);
        }
        seg
    }
}

/// Encodes one adjacency side (degrees + zigzag deltas) into `out`.
fn encode_adj(out: &mut Vec<u8>, off: &[u32], adj: &[VertexId]) {
    for l in 0..off.len() - 1 {
        let list = &adj[off[l] as usize..off[l + 1] as usize];
        write_varint(out, list.len() as u64);
        let mut prev = 0i64;
        for &u in list {
            write_varint(out, zigzag(i64::from(u) - prev));
            prev = i64::from(u);
        }
    }
}

/// Encodes a segment body (no CRC trailer).
pub fn encode_segment(seg: &Segment) -> Vec<u8> {
    let mut out = Vec::new();
    encode_adj(&mut out, &seg.out_off, &seg.out_dst);
    encode_adj(&mut out, &seg.in_off, &seg.in_src);
    out
}

/// Decodes one adjacency side of `nv` vertices; every neighbor must be
/// `< n`. Degrees are preflighted against the remaining bytes before
/// any reservation.
fn decode_adj(
    buf: &[u8],
    pos: &mut usize,
    nv: usize,
    n: u64,
) -> Result<(Vec<u32>, Vec<VertexId>), CodecError> {
    let mut off = Vec::with_capacity(nv + 1);
    off.push(0u32);
    let mut adj: Vec<VertexId> = Vec::new();
    for _ in 0..nv {
        let at = *pos;
        let deg = read_varint(buf, pos)? as usize;
        // Each neighbor costs at least one byte, so a degree larger
        // than the remaining body is corrupt — reject before reserving.
        if deg > buf.len() - *pos {
            return Err(CodecError {
                offset: at,
                what: "degree larger than remaining segment bytes",
            });
        }
        adj.reserve(deg);
        let mut prev = 0i64;
        for _ in 0..deg {
            let at = *pos;
            let v = prev
                .checked_add(unzigzag(read_varint(buf, pos)?))
                .ok_or(CodecError {
                    offset: at,
                    what: "neighbor delta overflows",
                })?;
            if v < 0 || v as u64 >= n {
                return Err(CodecError {
                    offset: at,
                    what: "neighbor id out of range",
                });
            }
            adj.push(v as VertexId);
            prev = v;
        }
        off.push(adj.len() as u32);
    }
    Ok((off, adj))
}

/// Decodes a segment body produced by [`encode_segment`]. `n` is the
/// graph's total vertex count (for neighbor-range validation); the body
/// must be consumed exactly.
pub fn decode_segment(
    body: &[u8],
    first_vertex: VertexId,
    nv: usize,
    n: u64,
) -> Result<Segment, CodecError> {
    let mut pos = 0usize;
    let (out_off, out_dst) = decode_adj(body, &mut pos, nv, n)?;
    let (in_off, in_src) = decode_adj(body, &mut pos, nv, n)?;
    if pos != body.len() {
        return Err(CodecError {
            offset: pos,
            what: "trailing bytes after segment body",
        });
    }
    Ok(Segment {
        first_vertex,
        out_off,
        out_dst,
        in_off,
        in_src,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexgraph_graph::csr::sample_graph;

    #[test]
    fn varint_round_trip() {
        let mut buf = Vec::new();
        let vals = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &vals {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &vals {
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
        // Truncation is a structured error.
        assert_eq!(
            read_varint(&[0x80], &mut 0).unwrap_err().what,
            "varint truncated"
        );
        // An 11-byte encoding cannot fit in 64 bits.
        assert!(read_varint(&[0x80; 11], &mut 0).is_err());
    }

    #[test]
    fn zigzag_round_trip() {
        for x in [-5i64, -1, 0, 1, 5, i64::MIN / 2, i64::MAX / 2] {
            assert_eq!(unzigzag(zigzag(x)), x);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn segment_codec_round_trip() {
        let g = sample_graph();
        let n = g.num_vertices() as u64;
        for (first, nv) in [(0u32, 4usize), (4, 4), (8, g.num_vertices() - 8)] {
            let seg = Segment::from_graph(&g, first, nv);
            let body = encode_segment(&seg);
            let back = decode_segment(&body, first, nv, n).unwrap();
            assert_eq!(back, seg);
            for l in 0..nv {
                let v = first + l as u32;
                assert_eq!(back.out_neighbors(v), g.out_neighbors(v));
                assert_eq!(back.in_sources(v), g.in_neighbors(v));
            }
        }
    }

    #[test]
    fn decode_rejects_corruption_before_allocating() {
        let g = sample_graph();
        let n = g.num_vertices() as u64;
        let seg = Segment::from_graph(&g, 0, 4);
        let body = encode_segment(&seg);
        // A degree claiming more neighbors than the body holds bytes.
        let mut evil = body.clone();
        evil[0] = 0xff; // still a 2-byte varint prefix → huge degree
        evil.insert(1, 0x7f);
        let err = decode_segment(&evil, 0, 4, n).unwrap_err();
        assert_eq!(err.what, "degree larger than remaining segment bytes");
        assert_eq!(err.offset, 0);
        // Truncation anywhere is rejected.
        for cut in 0..body.len() {
            assert!(decode_segment(&body[..cut], 0, 4, n).is_err(), "cut {cut}");
        }
        // Out-of-range neighbor ids are rejected.
        assert!(
            decode_segment(&body, 0, 4, 2).is_err(),
            "neighbors ≥ 2 must be out of range"
        );
        // A delta that overflows the running neighbor id is rejected:
        // out-degree 2, neighbor 1, delta i64::MAX, in-degree 0.
        let mut overflow = Vec::new();
        for x in [2, zigzag(1), zigzag(i64::MAX), 0] {
            write_varint(&mut overflow, x);
        }
        let err = decode_segment(&overflow, 0, 1, 10).unwrap_err();
        assert_eq!((err.what, err.offset), ("neighbor delta overflows", 2));
        // Trailing garbage is rejected.
        let mut padded = body.clone();
        padded.push(0);
        assert_eq!(
            decode_segment(&padded, 0, 4, n).unwrap_err().what,
            "trailing bytes after segment body"
        );
    }

    #[test]
    fn residency_matches_engine_arithmetic() {
        let g = sample_graph();
        let seg = Segment::from_graph(&g, 0, 4);
        assert_eq!(
            seg.residency_bytes(),
            flexgraph_engine::segment_residency_bytes(4, seg.out_dst.len(), seg.in_src.len())
        );
    }
}
