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

use bytes::Bytes;

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
    // Only a frame with rows has its `dim` bounded by the bytes present;
    // an empty one may promise any width and needs no scratch.
    let mut scratch = vec![0.0f32; if count == 0 { 0 } else { dim }];
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

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};

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
