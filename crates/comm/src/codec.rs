//! Feature-row message encoding.
//!
//! Distributed aggregation ships `(vertex id, feature row)` pairs between
//! workers. The codec is a fixed little-endian framing over [`bytes`]:
//! `u32 row_count, u32 dim, then row_count × (u32 id, dim × f32)`.
//!
//! Encoding and decoding sit on the critical path of every distributed
//! epoch (each worker moves feature-matrix-sized payloads), so both have
//! bulk paths: [`RowWriter`] serializes each row with a single byte-cast
//! copy into a buffer sized once and frozen without a copy, and
//! [`decode_rows_with`] streams borrowed row slices without per-row
//! allocation.

use bytes::{BufMut, Bytes, BytesMut};

/// Reinterprets an `f32` slice as bytes.
fn f32_bytes(row: &[f32]) -> &[u8] {
    // SAFETY: `f32` has no padding and alignment 4 ≥ 1; any initialized
    // f32 buffer is a valid byte buffer of 4× the length. The cast is
    // only used on little-endian targets (checked below) so the wire
    // format stays LE.
    unsafe { std::slice::from_raw_parts(row.as_ptr().cast::<u8>(), row.len() * 4) }
}

/// Writes one row message straight into its exact-size wire buffer, for
/// senders that know the row count up front (the leaf-sync plan does):
/// header first, then each row once, with sender-side partial
/// aggregation accumulating *in the wire buffer* instead of in a staging
/// matrix. [`RowWriter::finish`] hands the buffer over without a copy.
pub struct RowWriter {
    buf: Vec<u8>,
    dim: usize,
    /// Byte length of the finished message.
    wire_len: usize,
}

impl RowWriter {
    /// Starts a message of exactly `rows` rows of `dim` floats.
    pub fn with_rows(dim: usize, rows: usize) -> Self {
        let wire_len = 8 + rows * (4 + dim * 4);
        let mut buf = Vec::with_capacity(wire_len);
        buf.extend_from_slice(&(rows as u32).to_le_bytes());
        buf.extend_from_slice(&(dim as u32).to_le_bytes());
        Self { buf, dim, wire_len }
    }

    /// Appends the row `(id, row)`.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim`.
    pub fn push(&mut self, id: u32, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row width mismatch in RowWriter");
        self.buf.extend_from_slice(&id.to_le_bytes());
        if cfg!(target_endian = "little") {
            self.buf.extend_from_slice(f32_bytes(row));
        } else {
            for &x in row {
                self.buf.extend_from_slice(&x.to_le_bytes());
            }
        }
    }

    /// Adds `row` element-wise into the row pushed last, where it lies
    /// in the wire buffer (f32 ⇄ LE bytes is exact, so the sums equal
    /// accumulating in an `f32` matrix and encoding afterwards).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim` or no row has been pushed.
    pub fn add_to_last(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row width mismatch in RowWriter");
        assert!(self.buf.len() > 8, "add_to_last before the first push");
        let at = self.buf.len() - self.dim * 4;
        for (cell, &x) in self.buf[at..].chunks_exact_mut(4).zip(row) {
            let sum = f32::from_le_bytes([cell[0], cell[1], cell[2], cell[3]]) + x;
            cell.copy_from_slice(&sum.to_le_bytes());
        }
    }

    /// The finished message.
    ///
    /// # Panics
    ///
    /// Panics unless exactly the promised number of rows was pushed.
    pub fn finish(self) -> Bytes {
        assert_eq!(self.buf.len(), self.wire_len, "row count mismatch");
        Bytes::from(self.buf)
    }
}

/// Encodes `(id, row)` pairs; every row must have length `dim`.
///
/// # Panics
///
/// Panics if any row's length differs from `dim`.
pub fn encode_rows(dim: usize, rows: &[(u32, &[f32])]) -> Bytes {
    let mut w = RowWriter::with_rows(dim, rows.len());
    for (id, row) in rows {
        w.push(*id, row);
    }
    w.finish()
}

/// Encodes rows stored as one flat buffer (`ids.len()` rows of `dim`
/// contiguous floats).
///
/// # Panics
///
/// Panics when `flat.len() != ids.len() * dim`.
pub fn encode_flat_rows(dim: usize, ids: &[u32], flat: &[f32]) -> Bytes {
    assert_eq!(flat.len(), ids.len() * dim, "flat buffer size mismatch");
    let mut w = RowWriter::with_rows(dim, ids.len());
    for (i, &id) in ids.iter().enumerate() {
        w.push(id, &flat[i * dim..(i + 1) * dim]);
    }
    w.finish()
}

/// A structured decode failure. Malformed frames — truncated, bit-flipped
/// lengths, or adversarial headers — must surface as one of these, never
/// as a panic or out-of-bounds read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer than the 8 header bytes are present.
    TruncatedHeader {
        /// Bytes actually available.
        have: usize,
    },
    /// The header promises more row bytes than the buffer holds.
    TruncatedPayload {
        /// Row count from the header.
        rows: usize,
        /// Row dimension from the header.
        dim: usize,
        /// Payload bytes the header implies.
        need: usize,
        /// Payload bytes actually available.
        have: usize,
    },
    /// The header's `rows * row_bytes` does not even fit in `usize` —
    /// only possible for a corrupted or adversarial frame.
    ImplausibleHeader {
        /// Row count from the header.
        rows: usize,
        /// Row dimension from the header.
        dim: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TruncatedHeader { have } => {
                write!(f, "truncated header: {have} of 8 bytes")
            }
            Self::TruncatedPayload {
                rows,
                dim,
                need,
                have,
            } => write!(
                f,
                "truncated payload: want {rows} rows of dim {dim} ({need} bytes, have {have})"
            ),
            Self::ImplausibleHeader { rows, dim } => {
                write!(f, "implausible header: {rows} rows of dim {dim}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Validates a frame header against the buffer length, returning
/// `(count, dim)` only when every promised byte is present.
fn checked_header(b: &[u8]) -> Result<(usize, usize), DecodeError> {
    if b.len() < 8 {
        return Err(DecodeError::TruncatedHeader { have: b.len() });
    }
    let count = u32::from_le_bytes(b[0..4].try_into().unwrap()) as usize;
    let dim = u32::from_le_bytes(b[4..8].try_into().unwrap()) as usize;
    let need = dim
        .checked_mul(4)
        .and_then(|rb| rb.checked_add(4))
        .and_then(|rb| rb.checked_mul(count))
        .ok_or(DecodeError::ImplausibleHeader { rows: count, dim })?;
    if b.len() - 8 < need {
        return Err(DecodeError::TruncatedPayload {
            rows: count,
            dim,
            need,
            have: b.len() - 8,
        });
    }
    Ok((count, dim))
}

/// Streams the rows of a buffer produced by [`encode_rows`] to `visit`,
/// decoding each row into a reused scratch buffer (no per-row
/// allocation). Returns the row dimension, or a [`DecodeError`] on any
/// malformed frame — `visit` is never called in that case.
pub fn try_decode_rows_with(
    buf: &Bytes,
    mut visit: impl FnMut(u32, &[f32]),
) -> Result<usize, DecodeError> {
    let b = buf.as_ref();
    let (count, dim) = checked_header(b)?;
    let mut scratch = vec![0.0f32; dim];
    let mut off = 8usize;
    for _ in 0..count {
        let id = u32::from_le_bytes(b[off..off + 4].try_into().unwrap());
        off += 4;
        for (x, chunk) in scratch
            .iter_mut()
            .zip(b[off..off + dim * 4].chunks_exact(4))
        {
            *x = f32::from_le_bytes(chunk.try_into().unwrap());
        }
        off += dim * 4;
        visit(id, &scratch);
    }
    Ok(dim)
}

/// Owned rows produced by [`try_decode_rows`]: `(dim, (id, row) pairs)`.
pub type DecodedRows = (usize, Vec<(u32, Vec<f32>)>);

/// Decodes a buffer produced by [`encode_rows`] into owned rows, or a
/// [`DecodeError`] on any malformed frame.
pub fn try_decode_rows(buf: &Bytes) -> Result<DecodedRows, DecodeError> {
    let b = buf.as_ref();
    let (count, dim) = checked_header(b)?;
    let mut rows = Vec::with_capacity(count);
    let mut off = 8usize;
    for _ in 0..count {
        let id = u32::from_le_bytes(b[off..off + 4].try_into().unwrap());
        off += 4;
        let mut row = Vec::with_capacity(dim);
        for chunk in b[off..off + dim * 4].chunks_exact(4) {
            row.push(f32::from_le_bytes(chunk.try_into().unwrap()));
        }
        off += dim * 4;
        rows.push((id, row));
    }
    Ok((dim, rows))
}

/// Streaming decode for trusted (fabric-internal) buffers.
///
/// # Panics
///
/// Panics on a malformed buffer; use [`try_decode_rows_with`] for
/// untrusted input.
pub fn decode_rows_with(buf: &Bytes, visit: impl FnMut(u32, &[f32])) -> usize {
    try_decode_rows_with(buf, visit).unwrap_or_else(|e| panic!("{e}"))
}

/// Owned-row decode for trusted (fabric-internal) buffers.
///
/// # Panics
///
/// Panics on a malformed buffer; use [`try_decode_rows`] for untrusted
/// input.
pub fn decode_rows(buf: Bytes) -> (usize, Vec<(u32, Vec<f32>)>) {
    try_decode_rows(&buf).unwrap_or_else(|e| panic!("{e}"))
}

/// Control-plane frames of the replicated serving tier (ISSUE 9). The
/// router (fabric rank 0) drives replica workers with `Exec` / `Swap` /
/// `Shutdown`; replicas answer each `Exec` with exactly one `Rows` or
/// `Shed`. All frames ride the same reliable-fabric tags, so per-link
/// FIFO ordering guarantees a replica installs a `Swap`ped checkpoint
/// before any `Exec` pinned to that version reaches it.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeFrame {
    /// Execute a version-pinned sub-batch: `(request id, vertex)` pairs
    /// for one tenant, all on one checkpoint version.
    Exec {
        /// Dispatch round (diagnostic; responses echo it).
        round: u64,
        /// Owning tenant.
        tenant: u64,
        /// Checkpoint version every request of the sub-batch is pinned
        /// to.
        version: u64,
        /// `(request id, vertex)` pairs.
        requests: Vec<(u64, u32)>,
    },
    /// Install a checkpoint for `tenant` as `version`. Replicas keep
    /// every installed version, so in-flight batches pinned to older
    /// versions still execute during a rolling swap.
    Swap {
        /// Owning tenant.
        tenant: u64,
        /// Version the restored snapshot publishes as.
        version: u64,
        /// Checkpoint bytes (v2, CRC-validated by the installer).
        checkpoint: Vec<u8>,
    },
    /// Orderly replica shutdown.
    Shutdown,
    /// Response to one `Exec`: per-request output rows, each with its
    /// shard-local cache-hit flag, plus the replica's cache counter
    /// deltas for the tenant's trace window.
    Rows {
        /// Echo of the `Exec` round.
        round: u64,
        /// Echo of the `Exec` tenant.
        tenant: u64,
        /// Echo of the pinned version.
        version: u64,
        /// Output row width.
        dim: usize,
        /// `(request id, cache_hit, output row)` triples.
        rows: Vec<(u64, bool, Vec<f32>)>,
        /// Cache hits this execution observed.
        cache_hits: u64,
        /// Cache misses this execution observed.
        cache_misses: u64,
    },
    /// Response to one `Exec` whose sub-batch was shed by admission
    /// control on the replica.
    Shed {
        /// Echo of the `Exec` round.
        round: u64,
        /// Echo of the `Exec` tenant.
        tenant: u64,
        /// Transient bytes the sub-batch would have materialized.
        needed: u64,
        /// The replica's configured budget.
        budget: u64,
    },
}

const FRAME_EXEC: u8 = 1;
const FRAME_SWAP: u8 = 2;
const FRAME_SHUTDOWN: u8 = 3;
const FRAME_ROWS: u8 = 4;
const FRAME_SHED: u8 = 5;

/// A structured serve-frame decode failure — malformed control frames
/// surface as errors, never panics or out-of-bounds reads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeFrameError {
    /// The buffer ends before a promised field.
    Truncated {
        /// Bytes the frame promises at the point of failure.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// The leading kind byte is not a known frame kind.
    UnknownKind(u8),
    /// Well-formed frame followed by garbage.
    TrailingBytes {
        /// Unconsumed byte count.
        extra: usize,
    },
    /// A hit flag byte was neither 0 nor 1.
    BadFlag(u8),
}

impl std::fmt::Display for ServeFrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { need, have } => {
                write!(f, "truncated serve frame: need {need} bytes, have {have}")
            }
            Self::UnknownKind(k) => write!(f, "unknown serve frame kind {k}"),
            Self::TrailingBytes { extra } => {
                write!(f, "serve frame has {extra} trailing bytes")
            }
            Self::BadFlag(b) => write!(f, "serve frame hit flag must be 0/1, got {b}"),
        }
    }
}

impl std::error::Error for ServeFrameError {}

struct FrameReader<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> FrameReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeFrameError> {
        if self.b.len() - self.off < n {
            return Err(ServeFrameError::Truncated {
                need: n,
                have: self.b.len() - self.off,
            });
        }
        let s = &self.b[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ServeFrameError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, ServeFrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ServeFrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f32(&mut self) -> Result<f32, ServeFrameError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
}

impl ServeFrame {
    /// Serializes the frame (fixed little-endian layout, leading kind
    /// byte).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        match self {
            Self::Exec {
                round,
                tenant,
                version,
                requests,
            } => {
                buf.put_u8(FRAME_EXEC);
                buf.put_u64_le(*round);
                buf.put_u64_le(*tenant);
                buf.put_u64_le(*version);
                buf.put_u32_le(requests.len() as u32);
                for &(id, vertex) in requests {
                    buf.put_u64_le(id);
                    buf.put_u32_le(vertex);
                }
            }
            Self::Swap {
                tenant,
                version,
                checkpoint,
            } => {
                buf.put_u8(FRAME_SWAP);
                buf.put_u64_le(*tenant);
                buf.put_u64_le(*version);
                buf.put_u32_le(checkpoint.len() as u32);
                buf.put_slice(checkpoint);
            }
            Self::Shutdown => buf.put_u8(FRAME_SHUTDOWN),
            Self::Rows {
                round,
                tenant,
                version,
                dim,
                rows,
                cache_hits,
                cache_misses,
            } => {
                buf.put_u8(FRAME_ROWS);
                buf.put_u64_le(*round);
                buf.put_u64_le(*tenant);
                buf.put_u64_le(*version);
                buf.put_u32_le(*dim as u32);
                buf.put_u32_le(rows.len() as u32);
                for (id, hit, row) in rows {
                    assert_eq!(row.len(), *dim, "row width mismatch in ServeFrame::Rows");
                    buf.put_u64_le(*id);
                    buf.put_u8(u8::from(*hit));
                    if cfg!(target_endian = "little") {
                        buf.put_slice(f32_bytes(row));
                    } else {
                        for &x in row {
                            buf.put_f32_le(x);
                        }
                    }
                }
                buf.put_u64_le(*cache_hits);
                buf.put_u64_le(*cache_misses);
            }
            Self::Shed {
                round,
                tenant,
                needed,
                budget,
            } => {
                buf.put_u8(FRAME_SHED);
                buf.put_u64_le(*round);
                buf.put_u64_le(*tenant);
                buf.put_u64_le(*needed);
                buf.put_u64_le(*budget);
            }
        }
        buf.freeze()
    }
}

/// Decodes a [`ServeFrame`], rejecting truncation, unknown kinds, bad
/// flags, and trailing bytes structurally.
pub fn try_decode_serve_frame(buf: &Bytes) -> Result<ServeFrame, ServeFrameError> {
    let mut r = FrameReader {
        b: buf.as_ref(),
        off: 0,
    };
    let frame = match r.u8()? {
        FRAME_EXEC => {
            let round = r.u64()?;
            let tenant = r.u64()?;
            let version = r.u64()?;
            let count = r.u32()? as usize;
            let mut requests = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                let id = r.u64()?;
                let vertex = r.u32()?;
                requests.push((id, vertex));
            }
            ServeFrame::Exec {
                round,
                tenant,
                version,
                requests,
            }
        }
        FRAME_SWAP => {
            let tenant = r.u64()?;
            let version = r.u64()?;
            let len = r.u32()? as usize;
            let checkpoint = r.take(len)?.to_vec();
            ServeFrame::Swap {
                tenant,
                version,
                checkpoint,
            }
        }
        FRAME_SHUTDOWN => ServeFrame::Shutdown,
        FRAME_ROWS => {
            let round = r.u64()?;
            let tenant = r.u64()?;
            let version = r.u64()?;
            let dim = r.u32()? as usize;
            let count = r.u32()? as usize;
            let mut rows = Vec::with_capacity(count.min(1 << 20));
            for _ in 0..count {
                let id = r.u64()?;
                let hit = match r.u8()? {
                    0 => false,
                    1 => true,
                    b => return Err(ServeFrameError::BadFlag(b)),
                };
                let mut row = Vec::with_capacity(dim);
                for _ in 0..dim {
                    row.push(r.f32()?);
                }
                rows.push((id, hit, row));
            }
            let cache_hits = r.u64()?;
            let cache_misses = r.u64()?;
            ServeFrame::Rows {
                round,
                tenant,
                version,
                dim,
                rows,
                cache_hits,
                cache_misses,
            }
        }
        FRAME_SHED => ServeFrame::Shed {
            round: r.u64()?,
            tenant: r.u64()?,
            needed: r.u64()?,
            budget: r.u64()?,
        },
        k => return Err(ServeFrameError::UnknownKind(k)),
    };
    if r.off != r.b.len() {
        return Err(ServeFrameError::TrailingBytes {
            extra: r.b.len() - r.off,
        });
    }
    Ok(frame)
}

/// Panicking decode for trusted (fabric-internal) serve frames.
///
/// # Panics
///
/// Panics on a malformed buffer; use [`try_decode_serve_frame`] for
/// untrusted input.
pub fn decode_serve_frame(buf: &Bytes) -> ServeFrame {
    try_decode_serve_frame(buf).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let r0 = [1.0f32, -2.5, 3.25];
        let r1 = [0.0f32, f32::MAX, f32::MIN_POSITIVE];
        let enc = encode_rows(3, &[(7, &r0), (42, &r1)]);
        let (dim, rows) = decode_rows(enc);
        assert_eq!(dim, 3);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], (7, r0.to_vec()));
        assert_eq!(rows[1], (42, r1.to_vec()));
    }

    #[test]
    fn streaming_decode_matches_owned_decode() {
        let r0 = [1.5f32, -2.25];
        let r1 = [9.0f32, 0.125];
        let enc = encode_rows(2, &[(1, &r0), (2, &r1)]);
        let mut got = Vec::new();
        let dim = decode_rows_with(&enc, |id, row| got.push((id, row.to_vec())));
        assert_eq!(dim, 2);
        let (_, want) = decode_rows(enc);
        assert_eq!(got, want);
    }

    #[test]
    fn empty_message_round_trips() {
        let enc = encode_rows(5, &[]);
        let (dim, rows) = decode_rows(enc);
        assert_eq!(dim, 5);
        assert!(rows.is_empty());
        let d2 = decode_rows_with(&encode_rows(5, &[]), |_, _| panic!("no rows"));
        assert_eq!(d2, 5);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_buffer_panics() {
        let enc = encode_rows(3, &[(1, &[1.0, 2.0, 3.0])]);
        let cut = enc.slice(0..enc.len() - 4);
        let _ = decode_rows(cut);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_buffer_panics_streaming() {
        let enc = encode_rows(3, &[(1, &[1.0, 2.0, 3.0])]);
        let cut = enc.slice(0..enc.len() - 4);
        let _ = decode_rows_with(&cut, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn ragged_rows_rejected() {
        let _ = encode_rows(2, &[(0, &[1.0, 2.0, 3.0])]);
    }

    #[test]
    fn try_decode_surfaces_structured_errors() {
        let enc = encode_rows(3, &[(1, &[1.0, 2.0, 3.0])]);
        assert_eq!(
            try_decode_rows(&enc.slice(0..5)),
            Err(DecodeError::TruncatedHeader { have: 5 })
        );
        let cut = enc.slice(0..enc.len() - 4);
        match try_decode_rows(&cut) {
            Err(DecodeError::TruncatedPayload {
                rows: 1, dim: 3, ..
            }) => {}
            other => panic!("want TruncatedPayload, got {other:?}"),
        }
        let mut called = false;
        assert!(try_decode_rows_with(&cut, |_, _| called = true).is_err());
        assert!(!called, "visit must not run on malformed frames");
    }

    #[test]
    fn implausible_header_is_rejected_without_allocation() {
        // Header claiming u32::MAX rows of u32::MAX dim: the byte count
        // overflows usize; must error out, not attempt a huge decode.
        let mut buf = BytesMut::with_capacity(8);
        buf.put_u32_le(u32::MAX);
        buf.put_u32_le(u32::MAX);
        let frame = buf.freeze();
        match try_decode_rows(&frame) {
            Err(DecodeError::ImplausibleHeader { .. })
            | Err(DecodeError::TruncatedPayload { .. }) => {}
            other => panic!("want structured error, got {other:?}"),
        }
    }

    #[test]
    fn serve_frames_round_trip() {
        let frames = [
            ServeFrame::Exec {
                round: 3,
                tenant: 11,
                version: 2,
                requests: vec![(100, 7), (101, 9)],
            },
            ServeFrame::Swap {
                tenant: 11,
                version: 3,
                checkpoint: vec![0xde, 0xad, 0xbe, 0xef],
            },
            ServeFrame::Shutdown,
            ServeFrame::Rows {
                round: 3,
                tenant: 11,
                version: 2,
                dim: 2,
                rows: vec![(100, false, vec![1.5, -2.0]), (101, true, vec![0.0, 8.25])],
                cache_hits: 1,
                cache_misses: 4,
            },
            ServeFrame::Shed {
                round: 4,
                tenant: 11,
                needed: 4096,
                budget: 64,
            },
        ];
        for f in frames {
            let enc = f.encode();
            assert_eq!(decode_serve_frame(&enc), f);
        }
    }

    #[test]
    fn serve_frame_decode_rejects_malformed_input() {
        let enc = ServeFrame::Exec {
            round: 1,
            tenant: 2,
            version: 3,
            requests: vec![(9, 4)],
        }
        .encode();
        // Truncation anywhere inside the frame is structural.
        for cut in 0..enc.len() {
            assert!(matches!(
                try_decode_serve_frame(&enc.slice(0..cut)),
                Err(ServeFrameError::Truncated { .. })
            ));
        }
        // Trailing garbage is rejected.
        let mut padded = BytesMut::with_capacity(enc.len() + 1);
        padded.put_slice(enc.as_ref());
        padded.put_u8(0);
        assert_eq!(
            try_decode_serve_frame(&padded.freeze()),
            Err(ServeFrameError::TrailingBytes { extra: 1 })
        );
        // Unknown kinds are rejected.
        assert_eq!(
            try_decode_serve_frame(&Bytes::from_static(&[0x77])),
            Err(ServeFrameError::UnknownKind(0x77))
        );
        // A hit flag outside {0, 1} is rejected.
        let rows = ServeFrame::Rows {
            round: 0,
            tenant: 0,
            version: 1,
            dim: 1,
            rows: vec![(5, true, vec![1.0])],
            cache_hits: 0,
            cache_misses: 0,
        }
        .encode();
        let mut corrupt = rows.as_ref().to_vec();
        // kind(1) + round(8) + tenant(8) + version(8) + dim(4) + count(4)
        // + id(8) puts the flag byte at offset 41.
        corrupt[41] = 9;
        assert_eq!(
            try_decode_serve_frame(&Bytes::from(corrupt)),
            Err(ServeFrameError::BadFlag(9))
        );
    }

    #[test]
    fn large_payload_round_trips_exactly() {
        let dim = 64;
        let rows: Vec<Vec<f32>> = (0..500)
            .map(|r| (0..dim).map(|c| (r * dim + c) as f32 * 0.5 - 7.0).collect())
            .collect();
        let refs: Vec<(u32, &[f32])> = rows
            .iter()
            .enumerate()
            .map(|(i, r)| (i as u32, r.as_slice()))
            .collect();
        let enc = encode_rows(dim, &refs);
        let mut i = 0usize;
        decode_rows_with(&enc, |id, row| {
            assert_eq!(id as usize, i);
            assert_eq!(row, rows[i].as_slice());
            i += 1;
        });
        assert_eq!(i, 500);
    }
}
