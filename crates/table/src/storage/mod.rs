//! Out-of-core paged columnar storage.
//!
//! Every table in this workspace used to live wholly in RAM. This
//! module tree adds the disk half: a checksummed on-disk **page
//! format** ([`page`]), a bounded **buffer manager** with clock
//! eviction and pin/unpin accounting ([`buffer`]), and a
//! [`PagedTable`] ([`paged`]) that implements the same scan surface as
//! [`crate::PartitionedTable`] — `par_eval_bool` / `par_count` — over
//! fixed-row-count column pages faulted in on demand.
//!
//! **Zone maps** make the layer more than a cache. Every `(column,
//! page)` chunk records min/max, null-count and error-count at write
//! time. A top-level conjunct of the form `col CMP literal` whose range
//! provably misses a page's zone map lets the scan emit `false` for the
//! whole page without faulting it in — the same eval-budget economics
//! the paper applies to oracle calls, applied to I/O. The skip rule is
//! **Kleene-sound**: a page is skipped only when the provably-false
//! conjunct comes *before* (in source order) any conjunct that might
//! error on that page, so error surfacing stays bit-identical to the
//! in-RAM scan (see [`paged`] for the proof sketch).
//!
//! Scans return [`crate::TableResult`] exactly like the in-RAM
//! executor; storage faults (truncation, checksum mismatch, I/O
//! errors) surface as [`crate::TableError::Storage`] wrapping the
//! structured [`StorageError`] — never a panic, never a silently wrong
//! count.

pub mod buffer;
pub mod page;
pub mod paged;

pub use buffer::{BufferManager, BufferSnapshot, PageGuard};
pub use lts_obs::Snapshot;
pub use page::{decode_page, encode_page, PageMeta, TableManifest, ZoneMap, PAGE_FORMAT_VERSION};
pub use paged::{PagedTable, ScanSnapshot};

use crate::error::TableError;
use std::fmt;
use std::path::PathBuf;

/// Structured faults from the on-disk page format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An operating-system I/O failure.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The OS error text.
        message: String,
    },
    /// The manifest does not start with the `LTSP` magic bytes.
    BadMagic {
        /// The file involved.
        path: PathBuf,
    },
    /// The on-disk format version is not the one this build reads.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build writes.
        expected: u32,
    },
    /// Stored and recomputed checksums disagree (bit rot, torn write).
    ChecksumMismatch {
        /// What failed to verify (manifest, or a specific page).
        what: String,
    },
    /// A file ended before the bytes the manifest promised.
    Truncated {
        /// What was cut short.
        what: String,
    },
    /// Structurally invalid bytes (bad type tag, ragged payload, …).
    Corrupt {
        /// Description of the problem.
        message: String,
    },
    /// Invalid caller-supplied configuration (zero page rows, …).
    InvalidConfig {
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { path, message } => {
                write!(f, "i/o error on {}: {message}", path.display())
            }
            StorageError::BadMagic { path } => {
                write!(f, "{} is not a paged-table manifest", path.display())
            }
            StorageError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "page format version {found} (this build reads {expected})"
                )
            }
            StorageError::ChecksumMismatch { what } => {
                write!(f, "checksum mismatch in {what}")
            }
            StorageError::Truncated { what } => write!(f, "truncated {what}"),
            StorageError::Corrupt { message } => write!(f, "corrupt data: {message}"),
            StorageError::InvalidConfig { message } => write!(f, "invalid config: {message}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<StorageError> for TableError {
    fn from(e: StorageError) -> Self {
        TableError::Storage {
            message: e.to_string(),
        }
    }
}

/// Convenience result alias for the storage layer.
pub type StorageResult<T> = Result<T, StorageError>;

/// FNV-1a 64-bit hash — the integrity checksum of the page format.
/// Not cryptographic; it detects truncation, torn writes and bit rot.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_known_vectors() {
        // Reference values for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn storage_error_display_and_conversion() {
        let e = StorageError::Truncated {
            what: "column file col_0.pages".into(),
        };
        assert!(e.to_string().contains("col_0.pages"));
        let t: TableError = e.into();
        assert!(matches!(&t, TableError::Storage { message } if message.contains("truncated")));
    }
}
