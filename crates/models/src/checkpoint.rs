//! Parameter checkpointing — the fault-tolerance module of the paper's
//! architecture diagram (Figure 12).
//!
//! Long-running distributed training must survive worker loss; the
//! minimal recoverable state is the parameter set (HDGs and features are
//! reproducible from the input), and exact recovery of a training
//! trajectory additionally needs the optimizer moments. The format is a
//! versioned little-endian binary:
//!
//! ```text
//! magic  version  flags  count  count × (rows, cols, rows·cols × f32)
//! [flags bit 0]   t  mcount  mcount × tensor  mcount × tensor
//! crc32
//! ```
//!
//! The trailing CRC-32 (IEEE polynomial) covers every preceding byte, so
//! any single bit flip anywhere in a stored checkpoint is detected as
//! [`CheckpointError::Corrupt`] before a single parameter is touched.
//! Restores are two-phase: parse and validate everything, then mutate.

use flexgraph_graph::crc::crc32;
use flexgraph_tensor::{Adam, ParamSet, Tensor};

const MAGIC: u32 = 0x464c_4758; // "FLGX"
const VERSION: u32 = 2;

/// Flags bit 0: an optimizer-state section follows the parameters.
const FLAG_OPTIMIZER: u32 = 1;

/// Errors surfaced when restoring a checkpoint.
#[derive(Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Not a FlexGraph checkpoint.
    BadMagic,
    /// Produced by an incompatible version.
    BadVersion(u32),
    /// Buffer ended early or sizes disagree.
    Truncated,
    /// The trailing CRC-32 does not match the body — bit rot, a torn
    /// write, or tampering.
    Corrupt,
    /// Parameter count or shapes do not match the receiving model.
    ShapeMismatch {
        /// Parameter slot at fault.
        slot: usize,
    },
    /// [`restore_full`] was handed a checkpoint saved without optimizer
    /// state ([`save`] rather than [`save_full`]).
    MissingOptimizerState,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a FlexGraph checkpoint"),
            Self::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            Self::Truncated => write!(f, "truncated checkpoint"),
            Self::Corrupt => write!(f, "checkpoint failed CRC validation"),
            Self::ShapeMismatch { slot } => {
                write!(f, "parameter {slot} has a different shape than the model")
            }
            Self::MissingOptimizerState => {
                write!(f, "checkpoint carries no optimizer state")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    out.extend_from_slice(&(t.rows() as u32).to_le_bytes());
    out.extend_from_slice(&(t.cols() as u32).to_le_bytes());
    for &x in t.data() {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

fn encode(params: &ParamSet, opt: Option<&Adam>) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.extend_from_slice(&VERSION.to_le_bytes());
    let flags = if opt.is_some() { FLAG_OPTIMIZER } else { 0 };
    out.extend_from_slice(&flags.to_le_bytes());
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for i in 0..params.len() {
        put_tensor(&mut out, params.value(i));
    }
    if let Some(opt) = opt {
        out.extend_from_slice(&opt.step_count().to_le_bytes());
        let m = opt.first_moments();
        let v = opt.second_moments();
        out.extend_from_slice(&(m.len() as u32).to_le_bytes());
        for t in m.iter().chain(v) {
            put_tensor(&mut out, t);
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Serializes every parameter of `params` (no optimizer state).
pub fn save(params: &ParamSet) -> Vec<u8> {
    encode(params, None)
}

/// Serializes parameters plus the Adam moments and step counter, enough
/// to resume a training trajectory bit-for-bit.
pub fn save_full(params: &ParamSet, opt: &Adam) -> Vec<u8> {
    encode(params, Some(opt))
}

fn read_u32(buf: &[u8], off: &mut usize) -> Result<u32, CheckpointError> {
    let end = *off + 4;
    let bytes = buf.get(*off..end).ok_or(CheckpointError::Truncated)?;
    *off = end;
    Ok(u32::from_le_bytes(
        bytes.try_into().expect("slice is 4 bytes"),
    ))
}

/// Reads one tensor, validating its shape against `want` before
/// allocating anything proportional to the stored sizes.
fn read_tensor(
    buf: &[u8],
    off: &mut usize,
    want: (usize, usize),
    slot: usize,
) -> Result<Tensor, CheckpointError> {
    let rows = read_u32(buf, off)? as usize;
    let cols = read_u32(buf, off)? as usize;
    if (rows, cols) != want {
        return Err(CheckpointError::ShapeMismatch { slot });
    }
    let need = rows * cols * 4;
    let data = buf
        .get(*off..*off + need)
        .ok_or(CheckpointError::Truncated)?;
    *off += need;
    let vals: Vec<f32> = data
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("chunk is 4 bytes")))
        .collect();
    Ok(Tensor::from_vec(rows, cols, vals))
}

/// Validates the envelope — magic, version, CRC — and returns the body
/// (header fields onward) with the parse offset positioned at `flags`.
fn validated_body(buf: &[u8]) -> Result<(&[u8], usize), CheckpointError> {
    let mut off = 0usize;
    if read_u32(buf, &mut off)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = read_u32(buf, &mut off)?;
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    // CRC before structure: a flipped bit in a length field must not
    // steer the structural parser.
    if buf.len() < off + 4 {
        return Err(CheckpointError::Truncated);
    }
    let body = &buf[..buf.len() - 4];
    let stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().expect("4 bytes"));
    if crc32(body) != stored {
        return Err(CheckpointError::Corrupt);
    }
    Ok((body, off))
}

/// Parses the parameter section into tensors validated against `params`,
/// leaving `off` at the start of any optional trailing section.
fn parse_params(
    body: &[u8],
    off: &mut usize,
    params: &ParamSet,
) -> Result<(u32, Vec<Tensor>), CheckpointError> {
    let flags = read_u32(body, off)?;
    let count = read_u32(body, off)? as usize;
    if count != params.len() {
        return Err(CheckpointError::ShapeMismatch {
            slot: count.min(params.len()),
        });
    }
    let mut restored: Vec<Tensor> = Vec::with_capacity(count);
    for slot in 0..count {
        restored.push(read_tensor(body, off, params.value(slot).shape(), slot)?);
    }
    Ok((flags, restored))
}

/// Restores a checkpoint's parameters into `params`, validating the CRC
/// and every shape first. Accepts both [`save`] and [`save_full`] output
/// (the optimizer section, if present, is ignored). On error the
/// parameter set is left unchanged.
pub fn restore(params: &mut ParamSet, buf: &[u8]) -> Result<(), CheckpointError> {
    let (body, mut off) = validated_body(buf)?;
    let (_, restored) = parse_params(body, &mut off, params)?;
    for (slot, t) in restored.into_iter().enumerate() {
        *params.value_mut(slot) = t;
    }
    Ok(())
}

/// Restores parameters *and* Adam state from a [`save_full`] checkpoint.
/// On error both the parameter set and the optimizer are left unchanged.
pub fn restore_full(
    params: &mut ParamSet,
    opt: &mut Adam,
    buf: &[u8],
) -> Result<(), CheckpointError> {
    let (body, mut off) = validated_body(buf)?;
    let (flags, restored) = parse_params(body, &mut off, params)?;
    if flags & FLAG_OPTIMIZER == 0 {
        return Err(CheckpointError::MissingOptimizerState);
    }
    let t = read_u32(body, &mut off)?;
    let mcount = read_u32(body, &mut off)? as usize;
    // Moments are lazily initialized: either absent (pre-first-step) or
    // one per parameter, shaped like it.
    if mcount != 0 && mcount != params.len() {
        return Err(CheckpointError::ShapeMismatch {
            slot: mcount.min(params.len()),
        });
    }
    let mut m: Vec<Tensor> = Vec::with_capacity(mcount);
    for slot in 0..mcount {
        m.push(read_tensor(
            body,
            &mut off,
            params.value(slot).shape(),
            slot,
        )?);
    }
    let mut v: Vec<Tensor> = Vec::with_capacity(mcount);
    for slot in 0..mcount {
        v.push(read_tensor(
            body,
            &mut off,
            params.value(slot).shape(),
            slot,
        )?);
    }
    for (slot, t) in restored.into_iter().enumerate() {
        *params.value_mut(slot) = t;
    }
    opt.restore_state(t, m, v);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_params() -> ParamSet {
        let mut p = ParamSet::new();
        p.register(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        p.register(Tensor::from_rows(&[&[-0.5]]));
        p
    }

    #[test]
    fn round_trip_restores_exactly() {
        let p = sample_params();
        let bytes = save(&p);
        let mut q = ParamSet::new();
        q.register(Tensor::zeros(2, 2));
        q.register(Tensor::zeros(1, 1));
        restore(&mut q, &bytes).unwrap();
        assert_eq!(q.value(0), p.value(0));
        assert_eq!(q.value(1), p.value(1));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = save(&sample_params());
        bytes[0] ^= 0xFF;
        let mut q = sample_params();
        assert_eq!(restore(&mut q, &bytes), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn truncation_rejected_without_mutation() {
        let p = sample_params();
        let bytes = save(&p);
        let mut q = ParamSet::new();
        q.register(Tensor::full(2, 2, 9.0));
        q.register(Tensor::full(1, 1, 9.0));
        let cut = &bytes[..bytes.len() - 2];
        assert!(restore(&mut q, cut).is_err());
        // Two-phase restore: nothing was overwritten.
        assert_eq!(q.value(0), &Tensor::full(2, 2, 9.0));
    }

    #[test]
    fn single_bit_flip_is_detected_everywhere() {
        let bytes = save_full(&sample_params(), &Adam::new(0.01));
        for byte in 8..bytes.len() {
            for bit in 0..8 {
                let mut evil = bytes.clone();
                evil[byte] ^= 1 << bit;
                let mut q = sample_params();
                let mut opt = Adam::new(0.01);
                let got = restore_full(&mut q, &mut opt, &evil);
                assert!(got.is_err(), "flip at byte {byte} bit {bit} accepted");
            }
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let bytes = save(&sample_params());
        let mut q = ParamSet::new();
        q.register(Tensor::zeros(2, 3)); // Wrong shape.
        q.register(Tensor::zeros(1, 1));
        assert_eq!(
            restore(&mut q, &bytes),
            Err(CheckpointError::ShapeMismatch { slot: 0 })
        );
    }

    #[test]
    fn full_checkpoint_required_for_restore_full() {
        let bytes = save(&sample_params());
        let mut q = sample_params();
        let mut opt = Adam::new(0.01);
        assert_eq!(
            restore_full(&mut q, &mut opt, &bytes),
            Err(CheckpointError::MissingOptimizerState)
        );
        // But a plain restore still reads a full checkpoint fine.
        let full = save_full(&q, &opt);
        restore(&mut q, &full).unwrap();
    }

    #[test]
    fn training_recovers_from_checkpoint() {
        use crate::train::{TrainConfig, Trainer};
        use crate::Gcn;
        use flexgraph_graph::gen::community;

        let ds = community(150, 2, 6, 1, 8, 61);
        let mut tr = Trainer::new(
            Gcn::new(8, ds.feature_dim(), ds.num_classes),
            TrainConfig {
                epochs: 10,
                lr: 0.02,
                seed: 4,
            },
        );
        tr.run(&ds);
        let before = tr.infer(&ds);
        let ckpt = save(&tr.params);

        // Simulate a crash: wreck the parameters, then restore.
        for i in 0..tr.params.len() {
            tr.params.value_mut(i).map_inplace(|_| 0.123);
        }
        assert!(
            tr.infer(&ds).max_abs_diff(&before) > 1e-3,
            "wreck took effect"
        );
        restore(&mut tr.params, &ckpt).unwrap();
        let after = tr.infer(&ds);
        assert!(after.max_abs_diff(&before) < 1e-6, "exact recovery");
    }

    #[test]
    fn full_round_trip_resumes_trajectory_bitwise() {
        use crate::train::{TrainConfig, Trainer};
        use crate::Gcn;
        use flexgraph_graph::gen::community;

        let ds = community(120, 2, 6, 1, 8, 23);
        let cfg = TrainConfig {
            epochs: 4,
            lr: 0.02,
            seed: 9,
        };
        // Reference: 4 + 3 epochs uninterrupted.
        let mut a = Trainer::new(Gcn::new(8, ds.feature_dim(), ds.num_classes), cfg);
        a.run(&ds);
        let mut ref_losses = Vec::new();
        for e in 0..3 {
            ref_losses.push(a.epoch(&ds, 4 + e).loss);
        }

        // Crash after 4 epochs, restore from a full checkpoint, resume.
        let mut b = Trainer::new(Gcn::new(8, ds.feature_dim(), ds.num_classes), cfg);
        b.run(&ds);
        let ckpt = save_full(&b.params, b.optimizer());
        for i in 0..b.params.len() {
            b.params.value_mut(i).map_inplace(|x| x * 0.5 + 7.0);
        }
        b.optimizer_mut().restore_state(99, Vec::new(), Vec::new());
        let (params, opt) = b.params_and_optimizer_mut();
        restore_full(params, opt, &ckpt).unwrap();
        for (e, &want) in ref_losses.iter().enumerate() {
            let got = b.epoch(&ds, 4 + e as u64).loss;
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "epoch {e} diverged after restore"
            );
        }
    }
}
