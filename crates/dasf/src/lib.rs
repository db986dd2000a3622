//! `dasf` — a hierarchical array file format (HDF5 substrate).
//!
//! The DASSA paper stores DAS data in HDF5: each one-minute recording is a
//! file holding a 2-D `channel × time` array plus two levels of key-value
//! metadata (Figure 4). DASSA's storage engine relies on exactly three
//! HDF5 capabilities:
//!
//! 1. named n-dimensional datasets inside a group hierarchy,
//! 2. typed key-value attributes attached to any object,
//! 3. *hyperslab* reads — rectangular sub-regions fetched without
//!    loading the whole dataset.
//!
//! This crate implements those three capabilities from scratch in a
//! compact little-endian format, preserving the performance character
//! that matters to the paper: opening a file touches only the superblock
//! and object table (cheap metadata-only opens make VCA construction
//! fast), while dataset reads seek directly to contiguous row-major
//! runs.
//!
//! # File layout (v4, `DASF0004`)
//!
//! ```text
//! [ 0.. 8)  magic "DASF0004"
//! [ 8..16)  u64: offset of the object table
//! [16.. X)  dataset payloads: per-unit *stored* bytes (raw, or
//!           codec-compressed; see [`Codec`]), contiguous row-major
//! [ X.. Y)  object table: root group tree w/ attributes, per-dataset
//!           chunked CRC32C checksums, and per-unit codec headers
//!           `{codec, raw_len, stored_len}` for compressed datasets
//! [ Y..EOF) 32-byte commit record:
//!             u64 table offset · u64 table length ·
//!             u32 CRC32C(table) · u32 CRC32C(superblock ∥ record) ·
//!             8-byte commit magic "DASF4END"
//! ```
//!
//! Every dataset payload is checksummed in units (64 KiB of raw payload
//! for contiguous layout, one unit per storage chunk for chunked
//! layout). v4 adds an optional codec stage *under* the checksums: each
//! unit may be stored compressed, and its CRC32C covers the **stored**
//! bytes, so scrubbing (`verify_all`, `das_fsck`) hashes exactly what
//! is on disk and never pays a decode. The reader visits only the units
//! a read's rows touch, verifies each before decoding it, decodes it
//! once, straight into the caller's array, and remembers the verified
//! set per handle, so repeated reads do not re-hash. A flipped byte
//! anywhere — payload, object table, or superblock — surfaces as
//! [`DasfError::ChecksumMismatch`], and a file truncated before its
//! commit record is complete is always [`DasfError::Truncated`], never
//! half-readable; and a table whose checksums hold but whose unit headers
//! contradict the dataset's geometry is [`DasfError::Corrupt`] before a
//! payload byte is read. Writers are crash-consistent: bytes stream to
//! `<name>.tmp`, which is fsynced and atomically renamed into place by
//! [`Writer::finish`]; an unfinished writer removes its temp file on
//! drop. Version-3 files (`DASF0003`, checksums but no codec stage) and
//! version-2 files (`DASF0002`, no checksums, no commit record) still
//! open through the same read path.
//!
//! # Example
//! ```
//! use dasf::{File, Value, Writer};
//! let dir = std::env::temp_dir().join("dasf-doc");
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("example.dasf");
//!
//! let mut w = Writer::create(&path).unwrap();
//! w.set_attr("/", "SamplingFrequency(HZ)", Value::Int(500)).unwrap();
//! w.create_group("/Measurement").unwrap();
//! w.write_dataset_f32("/Measurement/data", &[4, 6], &vec![1.5f32; 24]).unwrap();
//! w.finish().unwrap();
//!
//! let f = File::open(&path).unwrap();
//! assert_eq!(f.attr("/", "SamplingFrequency(HZ)"), Some(&Value::Int(500)));
//! let d = f.dataset("/Measurement/data").unwrap();
//! assert_eq!(d.dims, vec![4, 6]);
//! // Hyperslab: rows 1..3, cols 2..5.
//! let sub = f.read_hyperslab_f32("/Measurement/data", &[(1, 2), (2, 3)]).unwrap();
//! assert_eq!(sub.len(), 6);
//! ```

// This crate parses bytes it does not control. All of it is safe Rust
// but one call, in `crc`, into a function compiled for a CPU feature
// detected at run time; `ci.sh` holds the count at one.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod codec;
pub mod crc;
mod element;
mod error;
mod faults;
pub mod metrics;
mod object;
pub mod pool;
mod reader;
mod value;
mod writer;

pub use codec::Codec;
pub use element::{Dtype, Element};
pub use error::DasfError;
pub use object::{DatasetMeta, Layout, Node, ObjectTable, UnitHeader};
pub use pool::{BufferPool, PooledBuf};
pub use reader::{ChecksumFault, File, VerifyOutcome};
pub use value::Value;
pub use writer::Writer;

/// Magic bytes at the start of every current (v4) dasf file.
pub const MAGIC: &[u8; 8] = b"DASF0004";

/// Magic of the v3 format (checksums, no codec stage), still fully
/// readable.
pub const MAGIC_V3: &[u8; 8] = b"DASF0003";

/// Magic of the legacy v2 format, still opened read-only.
pub const MAGIC_V2: &[u8; 8] = b"DASF0002";

/// Trailing bytes of the v4 commit record; a file that does not end
/// with them was interrupted before `finish` completed.
pub const COMMIT_MAGIC: &[u8; 8] = b"DASF4END";

/// Trailing bytes of a v3 commit record.
pub const COMMIT_MAGIC_V3: &[u8; 8] = b"DASF3END";

/// Size of the v3/v4 commit record at the end of the file.
pub const FOOTER_LEN: u64 = 32;

/// Checksum granularity for contiguous-layout payloads: one CRC32C per
/// this many **raw** payload bytes (chunked layouts checksum per storage
/// chunk). On v4 compressed datasets each such raw unit maps to one
/// stored unit and the CRC covers the stored bytes.
pub const VERIFY_CHUNK_BYTES: u64 = 64 * 1024;

/// On-disk format version of an open file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// `DASF0002`: no checksums, no commit record. Read-only legacy.
    V2,
    /// `DASF0003`: chunked CRC32C checksums + trailing commit record.
    V3,
    /// `DASF0004`: v3 plus a per-unit codec stage under the checksums.
    V4,
}

impl Version {
    /// The 8-byte magic this version opens with.
    pub fn magic(self) -> &'static [u8; 8] {
        match self {
            Version::V2 => MAGIC_V2,
            Version::V3 => MAGIC_V3,
            Version::V4 => MAGIC,
        }
    }

    /// The 8-byte commit-record trailer of this version. v2 has no
    /// commit record; callers only reach this for v3/v4 files.
    pub(crate) fn commit_magic(self) -> &'static [u8; 8] {
        match self {
            Version::V2 => unreachable!("v2 files have no commit record"),
            Version::V3 => COMMIT_MAGIC_V3,
            Version::V4 => COMMIT_MAGIC,
        }
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, DasfError>;
