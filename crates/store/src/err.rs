//! Store error type.
//!
//! Every variant that concerns an on-disk artifact names the file and
//! (where one exists) the byte offset of the first violation: a
//! corruption report that cannot be acted on is barely better than a
//! panic.

use flexgraph_engine::EngineError;
use std::path::PathBuf;

/// Errors from the paged graph store.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure on `path`.
    Io {
        /// The file being read or written.
        path: PathBuf,
        /// The underlying error.
        err: std::io::Error,
    },
    /// `path` does not start (or end) with the FGPS magic number.
    BadMagic {
        /// The offending file.
        path: PathBuf,
        /// Byte offset of the magic field that failed to match.
        offset: u64,
    },
    /// The file is FGPS but a version this build does not speak.
    BadVersion {
        /// The offending file.
        path: PathBuf,
        /// The version the file claims.
        version: u32,
    },
    /// Structural corruption: a CRC mismatch, a truncated section, or a
    /// field that contradicts the rest of the file.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// Byte offset of the first violation.
        offset: u64,
        /// What was violated.
        what: &'static str,
    },
    /// The page cache could not admit a segment: the bytes that cannot
    /// be evicted (pinned segments plus the new one) exceed the budget.
    Budget {
        /// Unevictable bytes the access would have required resident.
        needed: usize,
        /// The configured residency budget.
        budget: usize,
    },
    /// An execution-engine failure surfaced through the out-of-core
    /// driver (transient-tensor OOM or an unsupported model shape).
    Engine(EngineError),
}

impl StoreError {
    /// The file the error concerns, for variants that carry one.
    pub fn path(&self) -> Option<&std::path::Path> {
        match self {
            Self::Io { path, .. }
            | Self::BadMagic { path, .. }
            | Self::BadVersion { path, .. }
            | Self::Corrupt { path, .. } => Some(path),
            Self::Budget { .. } | Self::Engine(_) => None,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { path, err } => write!(f, "I/O error on {}: {err}", path.display()),
            Self::BadMagic { path, offset } => {
                write!(
                    f,
                    "not an FGPS store: bad magic in {} at byte {offset}",
                    path.display()
                )
            }
            Self::BadVersion { path, version } => {
                write!(
                    f,
                    "unsupported FGPS version {version} in {}",
                    path.display()
                )
            }
            Self::Corrupt { path, offset, what } => {
                write!(
                    f,
                    "corrupt store file {} at byte {offset}: {what}",
                    path.display()
                )
            }
            Self::Budget { needed, budget } => {
                write!(
                    f,
                    "page cache budget exhausted: {needed} unevictable bytes, budget {budget}"
                )
            }
            Self::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<EngineError> for StoreError {
    fn from(e: EngineError) -> Self {
        Self::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_carry_path_and_offset() {
        let e = StoreError::Corrupt {
            path: PathBuf::from("/tmp/g.fgps"),
            offset: 1234,
            what: "segment CRC mismatch",
        };
        assert!(e.path().unwrap().ends_with("g.fgps"));
        let s = e.to_string();
        assert!(s.contains("g.fgps") && s.contains("1234") && s.contains("CRC"));

        let b = StoreError::Budget {
            needed: 10,
            budget: 5,
        };
        assert!(b.path().is_none());
        assert!(b.to_string().contains("budget"));

        let g: StoreError = EngineError::Unsupported("x").into();
        assert!(matches!(g, StoreError::Engine(_)));
    }
}
