//! The FGPS file writer and reader.
//!
//! [`StoreWriter`] streams segments to disk in vertex order — the edge
//! count is unknown until the last segment, so the header is written as
//! a placeholder and patched in [`StoreWriter::finish`], after the
//! footer. [`StoreReader`] discovers the footer from the fixed 12-byte
//! tail, validates every length field against the real file size
//! *before* reading segment bodies, and verifies each segment's CRC-32
//! trailer on every read.

use crate::err::StoreError;
use crate::format::{
    decode_segment, encode_segment, CodecError, Segment, HEADER_LEN, MAGIC, TAIL_LEN, VERSION,
};
use flexgraph_graph::crc::crc32;
use flexgraph_graph::csr::{Graph, VertexId};
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

fn io_err(path: &Path, err: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        err,
    }
}

/// Summary of a finished store file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreSummary {
    /// Vertices in the graph.
    pub num_vertices: u64,
    /// Directed arcs (out-adjacency entries; the in side holds the same
    /// arcs keyed by destination).
    pub num_arcs: u64,
    /// Segments written.
    pub num_segments: u32,
    /// Total file size in bytes.
    pub bytes: u64,
}

/// Streaming segment writer. Segments must be pushed in vertex order,
/// each covering exactly its fixed range.
pub struct StoreWriter {
    out: BufWriter<File>,
    path: PathBuf,
    num_vertices: u64,
    seg_vertices: u32,
    segs: Vec<(u64, u64)>,
    pos: u64,
    arcs: u64,
}

impl StoreWriter {
    /// Creates `path`, writing a placeholder header.
    pub fn create(
        path: impl AsRef<Path>,
        num_vertices: u64,
        seg_vertices: u32,
    ) -> Result<StoreWriter, StoreError> {
        let path = path.as_ref().to_path_buf();
        assert!(seg_vertices > 0, "seg_vertices must be positive");
        let f = File::create(&path).map_err(|e| io_err(&path, e))?;
        let mut w = StoreWriter {
            out: BufWriter::new(f),
            path,
            num_vertices,
            seg_vertices,
            segs: Vec::new(),
            pos: 0,
            arcs: 0,
        };
        let header = w.render_header(0, 0);
        w.write_all(&header)?;
        Ok(w)
    }

    fn render_header(&self, arcs: u64, num_segments: u32) -> Vec<u8> {
        let mut h = Vec::with_capacity(HEADER_LEN as usize);
        h.extend_from_slice(&MAGIC.to_le_bytes());
        h.extend_from_slice(&VERSION.to_le_bytes());
        h.extend_from_slice(&self.num_vertices.to_le_bytes());
        h.extend_from_slice(&arcs.to_le_bytes());
        h.extend_from_slice(&self.seg_vertices.to_le_bytes());
        h.extend_from_slice(&num_segments.to_le_bytes());
        h
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.out
            .write_all(bytes)
            .map_err(|e| io_err(&self.path, e))?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    /// Number of segments a graph of `n` vertices needs at this
    /// writer's segment width.
    pub fn expected_segments(&self) -> u32 {
        expected_segments(self.num_vertices, self.seg_vertices)
    }

    /// Appends the next segment.
    ///
    /// # Panics
    ///
    /// Panics when the segment does not cover exactly the next vertex
    /// range — pushing out of order is a logic bug, not a data error.
    pub fn push_segment(&mut self, seg: &Segment) -> Result<(), StoreError> {
        let sid = self.segs.len() as u64;
        let first = sid * u64::from(self.seg_vertices);
        let nv = (self.num_vertices - first).min(u64::from(self.seg_vertices)) as usize;
        assert_eq!(
            (u64::from(seg.first_vertex), seg.num_vertices()),
            (first, nv),
            "segment pushed out of order"
        );
        let body = encode_segment(seg);
        let offset = self.pos;
        self.write_all(&body)?;
        self.write_all(&crc32(&body).to_le_bytes())?;
        self.segs.push((offset, body.len() as u64 + 4));
        self.arcs += seg.out_dst.len() as u64;
        Ok(())
    }

    /// Writes the footer, patches the header, and flushes.
    pub fn finish(mut self) -> Result<StoreSummary, StoreError> {
        assert_eq!(
            self.segs.len() as u32,
            self.expected_segments(),
            "finish() before all segments were pushed"
        );
        let footer_off = self.pos;
        let mut entries = Vec::with_capacity(self.segs.len() * 16);
        for &(off, len) in &self.segs {
            entries.extend_from_slice(&off.to_le_bytes());
            entries.extend_from_slice(&len.to_le_bytes());
        }
        let num_segments = self.segs.len() as u32;
        self.write_all(&entries)?;
        let crc = crc32(&entries);
        self.write_all(&crc.to_le_bytes())?;
        self.write_all(&footer_off.to_le_bytes())?;
        self.write_all(&MAGIC.to_le_bytes())?;
        let bytes = self.pos;
        // Patch the header now that the arc count is known.
        let header = self.render_header(self.arcs, num_segments);
        let mut f = self
            .out
            .into_inner()
            .map_err(|e| io_err(&self.path, e.into_error()))?;
        f.seek(SeekFrom::Start(0))
            .map_err(|e| io_err(&self.path, e))?;
        f.write_all(&header).map_err(|e| io_err(&self.path, e))?;
        f.flush().map_err(|e| io_err(&self.path, e))?;
        Ok(StoreSummary {
            num_vertices: self.num_vertices,
            num_arcs: self.arcs,
            num_segments,
            bytes,
        })
    }
}

/// `ceil(n / seg_vertices)`, the segment count for a graph of `n`
/// vertices (0 for an empty graph).
pub fn expected_segments(n: u64, seg_vertices: u32) -> u32 {
    n.div_ceil(u64::from(seg_vertices)) as u32
}

/// Writes an in-RAM graph to `path` as an FGPS store.
pub fn write_graph(
    g: &Graph,
    path: impl AsRef<Path>,
    seg_vertices: u32,
) -> Result<StoreSummary, StoreError> {
    let n = g.num_vertices() as u64;
    let mut w = StoreWriter::create(path, n, seg_vertices)?;
    for sid in 0..w.expected_segments() {
        let first = u64::from(sid) * u64::from(seg_vertices);
        let nv = (n - first).min(u64::from(seg_vertices)) as usize;
        let seg = Segment::from_graph(g, first as VertexId, nv);
        w.push_segment(&seg)?;
    }
    w.finish()
}

/// Read-only access to an FGPS file: header fields plus the footer
/// index, validated once at open.
pub struct StoreReader {
    f: File,
    path: PathBuf,
    num_vertices: u64,
    num_arcs: u64,
    seg_vertices: u32,
    segs: Vec<(u64, u64)>,
}

impl StoreReader {
    /// Opens and validates `path`: magic (head and tail), version,
    /// footer CRC, and every footer entry against the file length.
    pub fn open(path: impl AsRef<Path>) -> Result<StoreReader, StoreError> {
        let path = path.as_ref().to_path_buf();
        let f = File::open(&path).map_err(|e| io_err(&path, e))?;
        let file_len = f.metadata().map_err(|e| io_err(&path, e))?.len();
        let corrupt = |offset: u64, what: &'static str| StoreError::Corrupt {
            path: path.clone(),
            offset,
            what,
        };
        if file_len < HEADER_LEN + TAIL_LEN {
            return Err(corrupt(file_len, "file shorter than header + tail"));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        f.read_exact_at(&mut header, 0)
            .map_err(|e| io_err(&path, e))?;
        let u32_at = |b: &[u8], i: usize| u32::from_le_bytes(b[i..i + 4].try_into().unwrap());
        let u64_at = |b: &[u8], i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        if u32_at(&header, 0) != MAGIC {
            return Err(StoreError::BadMagic { path, offset: 0 });
        }
        let version = u32_at(&header, 4);
        if version != VERSION {
            return Err(StoreError::BadVersion { path, version });
        }
        let num_vertices = u64_at(&header, 8);
        let num_arcs = u64_at(&header, 16);
        let seg_vertices = u32_at(&header, 24);
        let num_segments = u32_at(&header, 28);
        if seg_vertices == 0 {
            return Err(corrupt(24, "zero segment width"));
        }
        if u64::from(num_segments) != num_vertices.div_ceil(u64::from(seg_vertices)) {
            return Err(corrupt(28, "segment count disagrees with vertex count"));
        }
        // Tail: footer offset + magic.
        let mut tail = [0u8; TAIL_LEN as usize];
        f.read_exact_at(&mut tail, file_len - TAIL_LEN)
            .map_err(|e| io_err(&path, e))?;
        if u32_at(&tail, 8) != MAGIC {
            return Err(StoreError::BadMagic {
                path,
                offset: file_len - 4,
            });
        }
        let footer_off = u64_at(&tail, 0);
        let footer_len = u64::from(num_segments) * 16 + 4;
        if footer_off < HEADER_LEN || footer_off + footer_len + TAIL_LEN != file_len {
            return Err(corrupt(file_len - TAIL_LEN, "footer offset out of bounds"));
        }
        let mut footer = vec![0u8; footer_len as usize];
        f.read_exact_at(&mut footer, footer_off)
            .map_err(|e| io_err(&path, e))?;
        let entries = &footer[..footer.len() - 4];
        if crc32(entries) != u32_at(&footer, entries.len()) {
            return Err(corrupt(
                footer_off + entries.len() as u64,
                "footer CRC mismatch",
            ));
        }
        let mut segs = Vec::with_capacity(num_segments as usize);
        let mut expect = HEADER_LEN;
        for s in 0..num_segments as usize {
            let off = u64_at(entries, s * 16);
            let len = u64_at(entries, s * 16 + 8);
            // Segments are back to back between header and footer; a
            // 4-byte CRC trailer is each one's minimum size.
            if off != expect || len < 4 || off + len > footer_off {
                return Err(corrupt(footer_off + (s * 16) as u64, "bad footer entry"));
            }
            expect = off + len;
            segs.push((off, len));
        }
        if expect != footer_off {
            return Err(corrupt(footer_off, "segments do not reach the footer"));
        }
        Ok(StoreReader {
            f,
            path,
            num_vertices,
            num_arcs,
            seg_vertices,
            segs,
        })
    }

    /// Vertices in the stored graph.
    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    /// Directed arcs in the stored graph.
    pub fn num_arcs(&self) -> u64 {
        self.num_arcs
    }

    /// Vertices per segment (the last segment may be shorter).
    pub fn seg_vertices(&self) -> u32 {
        self.seg_vertices
    }

    /// Number of segments.
    pub fn num_segments(&self) -> u32 {
        self.segs.len() as u32
    }

    /// The file this reader serves.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The segment holding vertex `v`.
    pub fn segment_of(&self, v: VertexId) -> u32 {
        v / self.seg_vertices
    }

    /// `(first_vertex, num_vertices)` of segment `sid`.
    pub fn segment_range(&self, sid: u32) -> (VertexId, usize) {
        let first = u64::from(sid) * u64::from(self.seg_vertices);
        let nv = (self.num_vertices - first).min(u64::from(self.seg_vertices)) as usize;
        (first as VertexId, nv)
    }

    /// Reads, CRC-checks, and decodes segment `sid`, returning the
    /// segment and the compressed bytes read.
    pub fn read_segment(&self, sid: u32) -> Result<(Segment, u64), StoreError> {
        let (off, len) = self.segs[sid as usize];
        let mut raw = vec![0u8; len as usize];
        self.f
            .read_exact_at(&mut raw, off)
            .map_err(|e| io_err(&self.path, e))?;
        let body = &raw[..raw.len() - 4];
        let stored = u32::from_le_bytes(raw[raw.len() - 4..].try_into().unwrap());
        if crc32(body) != stored {
            return Err(StoreError::Corrupt {
                path: self.path.clone(),
                offset: off + body.len() as u64,
                what: "segment CRC mismatch",
            });
        }
        let (first, nv) = self.segment_range(sid);
        let seg = decode_segment(body, first, nv, self.num_vertices).map_err(
            |CodecError { offset, what }| StoreError::Corrupt {
                path: self.path.clone(),
                offset: off + offset as u64,
                what,
            },
        )?;
        Ok((seg, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexgraph_graph::csr::sample_graph;
    use flexgraph_graph::gen::community;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join("flexgraph-store-tests");
        std::fs::create_dir_all(&d).unwrap();
        d.join(name)
    }

    #[test]
    fn write_read_round_trip() {
        let ds = community(50, 3, 4, 1, 4, 7);
        let g = &ds.graph;
        for segv in [7u32, 16, 64] {
            let path = tmp(&format!("round_trip_{segv}.fgps"));
            let sum = write_graph(g, &path, segv).unwrap();
            assert_eq!(sum.num_vertices, 50);
            assert_eq!(sum.num_arcs, g.num_edges() as u64);
            let r = StoreReader::open(&path).unwrap();
            assert_eq!(r.num_vertices(), 50);
            assert_eq!(r.num_arcs(), g.num_edges() as u64);
            assert_eq!(r.num_segments(), expected_segments(50, segv));
            let mut arcs = 0u64;
            for sid in 0..r.num_segments() {
                let (seg, bytes) = r.read_segment(sid).unwrap();
                assert!(bytes >= 4);
                let (first, nv) = r.segment_range(sid);
                assert_eq!(seg.first_vertex, first);
                assert_eq!(seg.num_vertices(), nv);
                for l in 0..nv {
                    let v = first + l as u32;
                    assert_eq!(seg.out_neighbors(v), g.out_neighbors(v));
                    assert_eq!(seg.in_sources(v), g.in_neighbors(v));
                }
                arcs += seg.out_dst.len() as u64;
            }
            assert_eq!(arcs, g.num_edges() as u64);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn delta_varint_beats_raw_u32() {
        let ds = community(400, 4, 8, 2, 4, 11);
        let path = tmp("compression.fgps");
        let sum = write_graph(&ds.graph, &path, 64).unwrap();
        let raw = 2 * ds.graph.num_edges() as u64 * 4;
        assert!(
            sum.bytes < raw,
            "compressed store ({}) not smaller than raw adjacency ({raw})",
            sum.bytes
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corruption_is_detected_with_path_and_offset() {
        let g = sample_graph();
        let path = tmp("corrupt.fgps");
        write_graph(&g, &path, 4).unwrap();
        let clean = std::fs::read(&path).unwrap();

        // Flip one byte inside the first segment body: read fails CRC.
        let mut evil = clean.clone();
        evil[HEADER_LEN as usize] ^= 0x40;
        std::fs::write(&path, &evil).unwrap();
        let r = StoreReader::open(&path).unwrap();
        match r.read_segment(0) {
            Err(StoreError::Corrupt { path: p, what, .. }) => {
                assert!(p.ends_with("corrupt.fgps"));
                assert_eq!(what, "segment CRC mismatch");
            }
            other => panic!("expected CRC mismatch, got {other:?}"),
        }

        // Bad head magic.
        let mut evil = clean.clone();
        evil[0] ^= 1;
        std::fs::write(&path, &evil).unwrap();
        assert!(matches!(
            StoreReader::open(&path),
            Err(StoreError::BadMagic { offset: 0, .. })
        ));

        // Unsupported version.
        let mut evil = clean.clone();
        evil[4..8].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&path, &evil).unwrap();
        assert!(matches!(
            StoreReader::open(&path),
            Err(StoreError::BadVersion { version: 9, .. })
        ));

        // Truncation at every offset fails open() or read_segment().
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            let survived = match StoreReader::open(&path) {
                Err(_) => false,
                Ok(r) => (0..r.num_segments()).all(|s| r.read_segment(s).is_ok()),
            };
            assert!(!survived, "accepted a {cut}-byte prefix");
        }

        // The pristine image still loads.
        std::fs::write(&path, &clean).unwrap();
        let r = StoreReader::open(&path).unwrap();
        for sid in 0..r.num_segments() {
            r.read_segment(sid).unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_error_names_the_path() {
        match StoreReader::open("/nonexistent/definitely-missing.fgps") {
            Err(StoreError::Io { path, .. }) => {
                assert!(path.to_string_lossy().contains("definitely-missing"))
            }
            Err(other) => panic!("expected Io error, got {other:?}"),
            Ok(_) => panic!("opened a nonexistent file"),
        }
    }
}
