//! Reading dasf files: cheap metadata opens and verified hyperslab reads.

use crate::codec::{self, Codec};
use crate::crc::crc32c;
use crate::element::{Dtype, Element};
use crate::error::DasfError;
use crate::object::{DatasetMeta, Layout, ObjectTable};
use crate::pool::PooledBuf;
use crate::value::Value;
use crate::{Result, Version, FOOTER_LEN, MAGIC, MAGIC_V2, MAGIC_V3, VERIFY_CHUNK_BYTES};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fs::File as FsFile;
use std::io::{Read, Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A checksum fault found by [`File::verify_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChecksumFault {
    /// Dataset path within the file.
    pub dataset: String,
    /// Verify unit (contiguous 64 KiB slice index, or storage chunk
    /// index for chunked layout) whose bytes no longer match.
    pub chunk: usize,
}

/// Result of scrubbing every dataset of a file ([`File::verify_all`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Datasets visited.
    pub datasets: usize,
    /// Verify units hashed.
    pub chunks_verified: u64,
    /// Payload bytes hashed.
    pub bytes_verified: u64,
    /// Every unit whose CRC32C no longer matches the object table.
    pub mismatches: Vec<ChecksumFault>,
    /// Datasets that carry no checksums (v2 files) and were skipped.
    pub unverified_datasets: usize,
}

impl VerifyOutcome {
    /// True when nothing mismatched (unverifiable v2 datasets count as
    /// clean — they have no checksums to fail).
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Generate the typed convenience aliases over the generic
/// [`File::read`] / [`File::read_hyperslab`] — one macro arm per
/// element type instead of four hand-written wrappers.
macro_rules! typed_read_aliases {
    ($($t:ty => $read:ident, $slab:ident);+ $(;)?) => {$(
        #[doc = concat!("`", stringify!($t), "` whole-dataset read.")]
        pub fn $read(&self, path: &str) -> Result<Vec<$t>> {
            self.read(path)
        }

        #[doc = concat!("`", stringify!($t), "` hyperslab read.")]
        pub fn $slab(&self, path: &str, selection: &[(u64, u64)]) -> Result<Vec<$t>> {
            self.read_hyperslab(path, selection)
        }
    )+};
}

/// An open dasf file.
///
/// `open` reads only the 16-byte superblock, the object-table footer,
/// and (v3/v4) the 32-byte commit record — array payloads stay on disk
/// until a read method asks for them. That is the property DASSA's VCA
/// exploits: merging a thousand files costs a thousand metadata opens,
/// not a terabyte of data movement.
///
/// Every read — whole or hyperslab, raw or compressed, contiguous or
/// chunked — is one walk over verify units. The selection becomes
/// ascending runs; only the units those runs touch are visited
/// (neighbours fetched with one positioned read into a pooled staging
/// buffer); each is CRC-checked over its stored bytes (v3/v4), its
/// codec undone once, and its share of every run written straight into
/// the caller's destination: a strided run sink, of which the
/// `&mut Vec<T>` methods are the dense case and
/// [`File::read_hyperslab_strided`] the general one. Cost follows the
/// units asked for, and a delivered element is written once.
///
/// The first read or scrub of a dataset checks its table entry against
/// its geometry (unit headers, offsets, extent) before any payload byte
/// is read, so a table with valid checksums and impossible contents is
/// a [`DasfError::Corrupt`] naming dataset and unit, not a wild slice
/// or a table-sized allocation.
///
/// Which units passed their CRC is kept per handle, so repeated reads
/// do not re-hash (they still fetch and decode). Bytes that rot on
/// disk *after* a unit verified are therefore not re-detected through
/// the same handle, but a fresh `open` re-verifies everything it reads.
/// Checksums cover the bytes as stored, so on v4 compressed datasets
/// decode only ever runs on CRC-verified input.
pub struct File {
    path: PathBuf,
    handle: RefCell<FsFile>,
    table: ObjectTable,
    /// Size of the data region in bytes (table offset − superblock).
    data_region_bytes: u64,
    version: Version,
    /// Per dataset, built the first time it is read or scrubbed: where
    /// its verify units lie and which are already hashed clean.
    units: RefCell<HashMap<String, UnitMap>>,
    /// Deterministic injected bit-rot (faultline `dasf.read.corrupt`):
    /// one byte of the data region reads back flipped.
    corruption: Option<crate::faults::Corruption>,
}

impl File {
    /// Open `path`, validating magic, object table, and (v3/v4) the
    /// commit record and its checksums.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<File> {
        let m = crate::metrics::metrics();
        m.open_count.inc();
        let _trace = obs::trace::scope("dasf.open");
        let started = std::time::Instant::now();
        let result = Self::open_impl(path.as_ref());
        m.open_ns.record_duration(started.elapsed());
        result
    }

    /// Open and scrub in one step: [`File::open`] followed by
    /// [`File::verify_all`], failing with the first checksum mismatch.
    ///
    /// This is the verify-on-admit entry point for streaming ingest — a
    /// file only joins the live index after every checksummed unit has
    /// been re-hashed clean. On v2 files (no checksums) the scrub visits
    /// nothing and the open succeeds; torn or truncated files fail the
    /// open itself, so the caller sees exactly one fallible step.
    pub fn open_verified<P: AsRef<Path>>(path: P) -> Result<File> {
        let file = Self::open(path)?;
        let outcome = file.verify_all()?;
        if let Some(fault) = outcome.mismatches.first() {
            return Err(DasfError::ChecksumMismatch {
                path: file.path.display().to_string(),
                dataset: fault.dataset.clone(),
                chunk: fault.chunk,
            });
        }
        Ok(file)
    }

    fn open_impl(path: &Path) -> Result<File> {
        crate::faults::check_open(path)?;
        let path = path.to_path_buf();
        let mut f = FsFile::open(&path)?;
        let file_len = f.metadata()?.len();
        let mut header = [0u8; 16];
        f.read_exact(&mut header).map_err(map_eof)?;
        let version = if &header[..8] == MAGIC {
            Version::V4
        } else if &header[..8] == MAGIC_V3 {
            Version::V3
        } else if &header[..8] == MAGIC_V2 {
            Version::V2
        } else {
            return Err(DasfError::BadMagic);
        };
        let header_offset = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));

        let (table_offset, table_bytes) = match version {
            Version::V2 => {
                // Legacy open: no commit record, no checksums. The
                // in-place superblock patch means an unfinished v2 write
                // is only detectable by its placeholder offset.
                if header_offset < 16 {
                    return Err(DasfError::Corrupt(format!(
                        "object table offset {header_offset} inside superblock (unfinished write?)"
                    )));
                }
                if header_offset > file_len {
                    return Err(DasfError::Truncated);
                }
                f.seek(SeekFrom::Start(header_offset))?;
                let mut tb = Vec::with_capacity((file_len - header_offset) as usize);
                f.read_to_end(&mut tb)?;
                (header_offset, tb)
            }
            Version::V3 | Version::V4 => {
                if file_len < 16 + FOOTER_LEN {
                    return Err(DasfError::Truncated);
                }
                let mut footer = [0u8; FOOTER_LEN as usize];
                f.seek(SeekFrom::End(-(FOOTER_LEN as i64)))?;
                f.read_exact(&mut footer).map_err(map_eof)?;
                if &footer[24..32] != version.commit_magic() {
                    // Torn write: the file ends before the commit record.
                    return Err(DasfError::Truncated);
                }
                let t_off = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes"));
                let t_len = u64::from_le_bytes(footer[8..16].try_into().expect("8 bytes"));
                let table_crc = u32::from_le_bytes(footer[16..20].try_into().expect("4 bytes"));
                let footer_crc = u32::from_le_bytes(footer[20..24].try_into().expect("4 bytes"));
                // The footer CRC covers the reconstructed superblock
                // plus the record prefix, so flipped bytes in either are
                // distinguishable from truncation.
                let mut covered = Vec::with_capacity(36);
                covered.extend_from_slice(version.magic());
                covered.extend_from_slice(&footer[0..8]);
                covered.extend_from_slice(&footer[..20]);
                if crc32c(&covered) != footer_crc {
                    return Err(metadata_mismatch(&path, "(commit record)"));
                }
                if header_offset != t_off {
                    return Err(metadata_mismatch(&path, "(superblock)"));
                }
                if t_off < 16 {
                    return Err(DasfError::Truncated);
                }
                if t_off
                    .checked_add(t_len)
                    .and_then(|v| v.checked_add(FOOTER_LEN))
                    != Some(file_len)
                {
                    return Err(DasfError::Truncated);
                }
                f.seek(SeekFrom::Start(t_off))?;
                let mut tb = vec![0u8; t_len as usize];
                f.read_exact(&mut tb).map_err(map_eof)?;
                if crc32c(&tb) != table_crc {
                    return Err(metadata_mismatch(&path, "(object table)"));
                }
                (t_off, tb)
            }
        };
        let table = ObjectTable::decode(&table_bytes, version)?;
        let data_region_bytes = table_offset - 16;
        let corruption = crate::faults::payload_corruption(&path, data_region_bytes);
        Ok(File {
            path,
            handle: RefCell::new(f),
            table,
            data_region_bytes,
            version,
            units: RefCell::new(HashMap::new()),
            corruption,
        })
    }

    /// The path this file was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// On-disk format version ([`Version::V4`] for current files).
    pub fn version(&self) -> Version {
        self.version
    }

    /// Total bytes of dataset payload in the file.
    pub fn data_region_bytes(&self) -> u64 {
        self.data_region_bytes
    }

    /// Metadata of the dataset at `path`.
    pub fn dataset(&self, path: &str) -> Result<&DatasetMeta> {
        self.table.dataset(path)
    }

    /// All dataset paths, depth-first.
    pub fn dataset_paths(&self) -> Vec<String> {
        self.table.dataset_paths()
    }

    /// Attributes of the object at `path`.
    pub fn attrs(&self, path: &str) -> Result<&BTreeMap<String, Value>> {
        self.table.attrs(path)
    }

    /// One attribute, or `None` when missing.
    pub fn attr(&self, path: &str, key: &str) -> Option<&Value> {
        self.table.attr(path, key)
    }

    /// Positioned read through the shared handle, with injected bit-rot
    /// applied afterwards so it behaves exactly like a flaky sector.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        {
            let mut handle = self.handle.borrow_mut();
            handle.seek(SeekFrom::Start(offset))?;
            handle.read_exact(buf).map_err(map_eof)?;
        }
        if let Some(c) = &self.corruption {
            crate::faults::apply_corruption(c, offset, buf);
        }
        Ok(())
    }

    /// Locate every verify unit of `meta` in the file, checking the
    /// table entry against the dataset's geometry on the way: the
    /// number of checksums and unit headers, what each header says its
    /// unit decodes to, and that every stored span lies inside the data
    /// region. Nothing after this trusts a length from the table
    /// without it, and nothing before it reads a payload byte.
    fn unit_map(&self, dataset: &str, meta: &DatasetMeta) -> Result<UnitMap> {
        let corrupt = |what: String| DasfError::Corrupt(format!("dataset {dataset}: {what}"));
        let width = meta.dtype.size() as u64;
        let bytes = meta
            .dims
            .iter()
            .try_fold(width, |n, &d| n.checked_mul(d))
            .ok_or_else(|| corrupt(format!("extent {:?} overflows", meta.dims)))?;
        let n_units = match &meta.layout {
            Layout::Contiguous => bytes.div_ceil(VERIFY_CHUNK_BYTES),
            Layout::Chunked {
                chunk_dims,
                chunk_offsets,
            } => {
                if chunk_dims.len() != meta.dims.len()
                    || chunk_dims.is_empty()
                    || chunk_dims.contains(&0)
                {
                    return Err(corrupt(format!(
                        "chunk dims {chunk_dims:?} do not fit extent {:?}",
                        meta.dims
                    )));
                }
                let grid = meta.dims.iter().zip(chunk_dims);
                let cells = grid.fold(1u64, |n, (&d, &c)| n.saturating_mul(d.div_ceil(c)));
                if cells != chunk_offsets.len() as u64 {
                    return Err(corrupt(format!(
                        "chunk table has {} entries, grid needs {cells}",
                        chunk_offsets.len()
                    )));
                }
                cells
            }
        };
        // Each count below is compared with a vector the table decoder
        // already holds, so `n_units` is bounded before it sizes one.
        if self.version != Version::V2 && meta.checksums.len() as u64 != n_units {
            return Err(corrupt(format!(
                "carries {} checksums for {n_units} verify units",
                meta.checksums.len()
            )));
        }
        if meta.is_compressed() {
            if meta.stored_units.len() as u64 != n_units {
                return Err(corrupt(format!(
                    "carries {} unit headers for {n_units} verify units",
                    meta.stored_units.len()
                )));
            }
        } else if bytes > self.data_region_bytes {
            return Err(corrupt(format!(
                "{bytes} payload bytes in a data region of {}",
                self.data_region_bytes
            )));
        }
        let n_units = n_units as usize;
        let region_end = 16 + self.data_region_bytes;
        let mut spans = Vec::with_capacity(n_units);
        let mut next = meta.data_offset;
        for unit in 0..n_units {
            let (at, raw) = match &meta.layout {
                Layout::Contiguous => (next, meta.unit_range(unit).1),
                Layout::Chunked { chunk_offsets, .. } => {
                    (chunk_offsets[unit], meta.chunk_elems(unit) * width)
                }
            };
            let stored = match meta.stored_units.get(unit) {
                None => raw,
                Some(h) => {
                    if h.raw_len as u64 != raw {
                        return Err(corrupt(format!(
                            "unit {unit} header decodes to {} bytes, the unit holds {raw}",
                            h.raw_len
                        )));
                    }
                    if h.codec == Codec::Raw && h.stored_len != h.raw_len {
                        return Err(corrupt(format!(
                            "unit {unit} is stored raw in {} bytes, not its {raw}",
                            h.stored_len
                        )));
                    }
                    if matches!(h.codec, Codec::Quant { .. })
                        && !matches!(meta.dtype, Dtype::F32 | Dtype::F64)
                    {
                        return Err(corrupt(format!(
                            "unit {unit} is quantised but holds {}",
                            meta.dtype.name()
                        )));
                    }
                    h.stored_len as u64
                }
            };
            next = at
                .checked_add(stored)
                .filter(|&end| at >= 16 && end <= region_end)
                .ok_or_else(|| {
                    corrupt(format!(
                        "unit {unit} ({stored} bytes at offset {at}) lies outside the data region"
                    ))
                })?;
            spans.push((at, stored));
        }
        // What one fetch can need: the largest unit, or as many small
        // ones as the staging cap (or the dataset) holds.
        let largest = spans.iter().map(|s| s.1).max().unwrap_or(0);
        let stored = spans.iter().map(|s| s.1).sum::<u64>();
        Ok(UnitMap {
            verified: vec![false; n_units],
            staging: largest.max(stored.min(STAGING_BYTES)) as usize,
            spans,
        })
    }

    /// Start a pass over the units of the dataset at `path`, building
    /// (and validating) its [`UnitMap`] first if this handle has not
    /// seen the dataset yet.
    fn walk<'a>(
        &'a self,
        maps: &'a mut HashMap<String, UnitMap>,
        path: &'a str,
        meta: &'a DatasetMeta,
    ) -> Result<Walk<'a>> {
        if !maps.contains_key(path) {
            maps.insert(path.to_string(), self.unit_map(path, meta)?);
        }
        let units = maps.get_mut(path).expect("inserted above");
        Ok(Walk {
            file: self,
            dataset: path,
            meta,
            sums: (self.version != Version::V2).then_some(&meta.checksums[..]),
            staging: crate::pool::bytes().acquire(units.staging),
            units,
            staged_at: 0,
            scratch: None,
            spent: Spent::default(),
        })
    }

    /// Read an entire dataset. Verifies every unit this handle has not
    /// verified yet.
    pub fn read<T: Element>(&self, path: &str) -> Result<Vec<T>> {
        let mut out = Vec::new();
        self.read_into(path, &mut out)?;
        Ok(out)
    }

    /// [`File::read`] into a caller-supplied vector (resized to the
    /// dataset), returning the element count. Stored bytes stage
    /// through the shared [`crate::pool`], so repeated reads recycle
    /// buffers instead of allocating per call; growth of `out` is
    /// charged to `dasf.alloc.bytes` — hand in a pooled buffer to avoid
    /// it.
    pub fn read_into<T: Element>(&self, path: &str, out: &mut Vec<T>) -> Result<usize> {
        self.read_to(path, None, Dest::Dense(out))
    }

    /// Read a rectangular hyperslab: `selection[d] = (offset, count)` per
    /// dimension. Only the verify units that rows of the selection
    /// touch are fetched, checked, and decoded.
    pub fn read_hyperslab<T: Element>(
        &self,
        path: &str,
        selection: &[(u64, u64)],
    ) -> Result<Vec<T>> {
        let mut out = Vec::new();
        self.read_hyperslab_into(path, selection, &mut out)?;
        Ok(out)
    }

    /// [`File::read_hyperslab`] into a caller-supplied vector (resized
    /// to the selection), returning the element count. Stages through
    /// the shared [`crate::pool`] like [`File::read_into`].
    pub fn read_hyperslab_into<T: Element>(
        &self,
        path: &str,
        selection: &[(u64, u64)],
        out: &mut Vec<T>,
    ) -> Result<usize> {
        self.read_to(path, Some(selection), Dest::Dense(out))
    }

    /// [`File::read_hyperslab`] straight into a window of a larger
    /// row-major array: row `k` of the selection (its `k`-th run along
    /// the innermost dimension, in row-major order) lands at
    /// `dst[start + k * stride..]`, and no other element of `dst` is
    /// written. This is how a member file's block reaches its columns
    /// of an assembled `channel × time` array without a tile in
    /// between. After an `Err`, the rows of the window hold an
    /// unspecified mix of old and new values.
    ///
    /// Fails with [`DasfError::OutOfBounds`] when the rows would overlap
    /// (`stride` shorter than a row) or run past the end of `dst`.
    pub fn read_hyperslab_strided<T: Element>(
        &self,
        path: &str,
        selection: &[(u64, u64)],
        dst: &mut [T],
        start: usize,
        stride: usize,
    ) -> Result<usize> {
        self.read_to(path, Some(selection), Dest::Strided { dst, start, stride })
    }

    /// Every read: count it, time it, and run [`File::read_impl`].
    fn read_to<T: Element>(
        &self,
        path: &str,
        selection: Option<&[(u64, u64)]>,
        dest: Dest<'_, T>,
    ) -> Result<usize> {
        let m = crate::metrics::metrics();
        m.read_count.inc();
        let _trace = obs::trace::scope("dasf.read");
        let started = Instant::now();
        let result = self.read_impl(path, selection, dest);
        if let Ok(n) = &result {
            m.read_bytes.add((n * std::mem::size_of::<T>()) as u64);
        }
        m.read_ns.record_duration(started.elapsed());
        result
    }

    fn read_impl<T: Element>(
        &self,
        path: &str,
        selection: Option<&[(u64, u64)]>,
        dest: Dest<'_, T>,
    ) -> Result<usize> {
        crate::faults::check_read(&self.path)?;
        let meta = self.table.dataset(path)?;
        if meta.dtype != T::DTYPE {
            return Err(DasfError::TypeMismatch {
                path: path.to_string(),
                expected: T::DTYPE.name(),
                actual: meta.dtype.name(),
            });
        }
        let mut maps = self.units.borrow_mut();
        let mut walk = self.walk(&mut maps, path, meta)?;
        let runs = Runs::of(meta, selection)?;
        let mut sink = dest.sink(&runs)?;
        if runs.count > 0 {
            match &meta.layout {
                Layout::Contiguous => walk.contiguous(&runs, &mut sink)?,
                Layout::Chunked { chunk_dims, .. } => walk.chunked(chunk_dims, &runs, &mut sink)?,
            }
        }
        Ok((runs.count * runs.len) as usize)
    }

    /// Scrub every dataset: hash all verify units against the object
    /// table and collect mismatches instead of failing on the first one.
    /// I/O errors and reads past EOF still abort with `Err` — the file
    /// is torn, not merely corrupt — and so does a table entry that
    /// contradicts its dataset's geometry. v2 datasets (no checksums)
    /// are counted in `unverified_datasets` and otherwise skipped.
    pub fn verify_all(&self) -> Result<VerifyOutcome> {
        let _trace = obs::trace::scope("dasf.verify");
        let mut out = VerifyOutcome::default();
        let mut maps = self.units.borrow_mut();
        for path in self.dataset_paths() {
            let meta = self.table.dataset(&path)?;
            out.datasets += 1;
            let mut walk = self.walk(&mut maps, &path, meta)?;
            if walk.sums.is_none() {
                out.unverified_datasets += 1;
                continue;
            }
            // Checksums cover the *stored* bytes, so the scrub hashes
            // exactly what is on disk and never decodes.
            let n_units = walk.units.spans.len();
            let mut unit = 0;
            while unit < n_units {
                let fetched = walk.fetch(unit..n_units)?;
                for u in unit..fetched {
                    if walk.hashes_clean(u) {
                        walk.units.verified[u] = true;
                    } else {
                        crate::metrics::metrics().verify_mismatch.inc();
                        out.mismatches.push(ChecksumFault {
                            dataset: path.clone(),
                            chunk: u,
                        });
                    }
                }
                unit = fetched;
            }
            out.chunks_verified += walk.spent.hashed_units;
            out.bytes_verified += walk.spent.hashed_bytes;
        }
        Ok(out)
    }

    typed_read_aliases! {
        f32 => read_f32, read_hyperslab_f32;
        f64 => read_f64, read_hyperslab_f64;
    }
}

/// Stored bytes one positioned read may fetch: enough consecutive units
/// to amortise the call, few enough that they are still in cache when
/// the CRC and the decoder come for them.
const STAGING_BYTES: u64 = 1 << 20;

/// What a handle keeps per dataset once it has used it.
struct UnitMap {
    /// `(file offset, stored length)` of every verify unit.
    spans: Vec<(u64, u64)>,
    /// Capacity of the staging buffer a pass over this dataset wants.
    staging: usize,
    /// Units this handle has hashed clean. A later read skips their
    /// CRC (it still fetches and decodes them), which is why rot that
    /// sets in afterwards goes unseen until a fresh `open`.
    verified: Vec<bool>,
}

/// Time and traffic of one pass below the element copy, published when
/// the pass ends (one histogram sample per pass, not per unit).
#[derive(Default)]
struct Spent {
    verify: Duration,
    hashed_units: u64,
    hashed_bytes: u64,
    decode: Duration,
    raw_bytes: u64,
    stored_bytes: u64,
}

/// One pass over units of one dataset — a read, or a scrub: fetch
/// stored units, CRC-check them, undo their codec. Contiguous and
/// chunked reads and [`File::verify_all`] are all loops around these
/// three steps.
struct Walk<'a> {
    file: &'a File,
    dataset: &'a str,
    meta: &'a DatasetMeta,
    /// Expected CRC32C per unit; `None` on v2 files, which carry none.
    sums: Option<&'a [u32]>,
    units: &'a mut UnitMap,
    /// The stored bytes of the units last fetched …
    staging: PooledBuf<u8>,
    /// … which start at this file offset.
    staged_at: u64,
    /// Where a compressed unit's LZ stage is undone; acquired by the
    /// first unit that needs it.
    scratch: Option<PooledBuf<u8>>,
    spent: Spent,
}

impl Walk<'_> {
    /// Fetch a prefix of `units` with one positioned read: as many as
    /// lie back to back in the file and fit [`STAGING_BYTES`] (always
    /// at least one). Returns the end of the fetched range.
    fn fetch(&mut self, units: Range<usize>) -> Result<usize> {
        let spans = &self.units.spans;
        let (at, mut len) = spans[units.start];
        let mut end = units.start + 1;
        while end < units.end && spans[end].0 == at + len && len + spans[end].1 <= STAGING_BYTES {
            len += spans[end].1;
            end += 1;
        }
        let len = len as usize;
        if self.staging.len() < len {
            self.staging.resize(len, 0);
        }
        self.file.read_at(at, &mut self.staging[..len])?;
        self.staged_at = at;
        Ok(end)
    }

    /// Hash a fetched unit and compare with the table's checksum.
    fn hashes_clean(&mut self, unit: usize) -> bool {
        let Some(sums) = self.sums else { return true };
        let started = Instant::now();
        let stored = staged(&self.staging, self.staged_at, self.units.spans[unit]);
        let clean = crc32c(stored) == sums[unit];
        self.spent.verify += started.elapsed();
        self.spent.hashed_units += 1;
        self.spent.hashed_bytes += stored.len() as u64;
        clean
    }

    /// CRC-check a fetched unit, unless this handle already has, and
    /// undo its codec as far as [`codec::Unit`] goes. Decode only ever
    /// sees bytes that passed their checksum.
    fn open(&mut self, unit: usize) -> Result<codec::Unit<'_>> {
        if !self.units.verified[unit] {
            if !self.hashes_clean(unit) {
                crate::metrics::metrics().verify_mismatch.inc();
                return Err(DasfError::ChecksumMismatch {
                    path: self.file.path.display().to_string(),
                    dataset: self.dataset.to_string(),
                    chunk: unit,
                });
            }
            self.units.verified[unit] = true;
        }
        let stored = staged(&self.staging, self.staged_at, self.units.spans[unit]);
        let Some(header) = self.meta.stored_units.get(unit) else {
            return Ok(codec::Unit::Plain(stored));
        };
        self.spent.raw_bytes += header.raw_len as u64;
        self.spent.stored_bytes += stored.len() as u64;
        let scratch = self
            .scratch
            .get_or_insert_with(|| crate::pool::bytes().acquire(header.raw_len as usize));
        codec::open_unit(header.codec, stored, header.raw_len as usize, scratch)
    }

    /// Contiguous layout: visit the 64 KiB units the runs cover, in
    /// ascending order, and write each unit's share of each run into
    /// the sink while the unit is open.
    fn contiguous<T: Element>(&mut self, runs: &Runs, sink: &mut Sink<'_, T>) -> Result<()> {
        let width = std::mem::size_of::<T>() as u64;
        let compressed = self.meta.is_compressed();
        let unit_of = |element: u64| (element * width / VERIFY_CHUNK_BYTES) as usize;
        let mut next = 0;
        while next < runs.count {
            // The units of one run, extended over every following run
            // that starts in or right behind them: one ascending range
            // of units to fetch.
            let mut run = next;
            let mut units = unit_of(runs.start(run))..unit_of(runs.start(run) + runs.len - 1) + 1;
            next += 1;
            while next < runs.count && unit_of(runs.start(next)) <= units.end {
                units.end = unit_of(runs.start(next) + runs.len - 1) + 1;
                next += 1;
            }
            while !units.is_empty() {
                let fetched = self.fetch(units.clone())?;
                for unit in units.start..fetched {
                    let from = unit as u64 * VERIFY_CHUNK_BYTES / width;
                    let to = from + self.meta.unit_range(unit).1 / width;
                    let started = Instant::now();
                    let opened = self.open(unit)?;
                    // Runs `run..next` in order; the last one a unit
                    // touches may continue in the next unit.
                    while run < next {
                        let (lo, hi) = (runs.start(run), runs.start(run) + runs.len);
                        if lo >= to {
                            break;
                        }
                        let (a, b) = (lo.max(from), hi.min(to));
                        opened.copy_to((a - from) as usize, sink.at(run, a - lo, b - a));
                        if hi > to {
                            break;
                        }
                        run += 1;
                    }
                    if compressed {
                        self.spent.decode += started.elapsed();
                    }
                }
                units.start = fetched;
            }
        }
        Ok(())
    }

    /// Chunked layout: every storage chunk is one unit. Visit the
    /// chunks the selection intersects and write each overlap, row by
    /// row, into the sink.
    fn chunked<T: Element>(
        &mut self,
        chunk_dims: &[u64],
        runs: &Runs,
        sink: &mut Sink<'_, T>,
    ) -> Result<()> {
        let (dims, sel) = (&self.meta.dims, &runs.sel);
        let ndim = dims.len();
        let compressed = self.meta.is_compressed();
        // Selection rows per step of each dimension but the innermost.
        let mut row_strides = vec![1u64; ndim - 1];
        for d in (0..ndim.saturating_sub(2)).rev() {
            row_strides[d] = row_strides[d + 1] * sel[d + 1].1;
        }
        // Chunk-grid range intersecting the selection, per dimension.
        let lo_chunk: Vec<u64> = sel.iter().zip(chunk_dims).map(|(s, &c)| s.0 / c).collect();
        let hi_chunk: Vec<u64> = sel
            .iter()
            .zip(chunk_dims)
            .map(|(s, &c)| (s.0 + s.1 - 1) / c)
            .collect();
        let mut gidx = lo_chunk.clone();
        loop {
            // Linear chunk index in the grid, and the clipped extent.
            let mut unit = 0usize;
            for d in 0..ndim {
                unit = unit * dims[d].div_ceil(chunk_dims[d]) as usize + gidx[d] as usize;
            }
            let starts: Vec<u64> = gidx.iter().zip(chunk_dims).map(|(&g, &c)| g * c).collect();
            let lens: Vec<u64> = (0..ndim)
                .map(|d| chunk_dims[d].min(dims[d] - starts[d]))
                .collect();
            let mut c_strides = vec![1u64; ndim];
            for d in (0..ndim - 1).rev() {
                c_strides[d] = c_strides[d + 1] * lens[d + 1];
            }
            // Overlap of selection and chunk, per dimension (global);
            // never empty, by the choice of the grid range.
            let ov_lo: Vec<u64> = (0..ndim).map(|d| sel[d].0.max(starts[d])).collect();
            let ov_hi: Vec<u64> = (0..ndim)
                .map(|d| (sel[d].0 + sel[d].1).min(starts[d] + lens[d]))
                .collect();
            self.fetch(unit..unit + 1)?;
            let started = Instant::now();
            let opened = self.open(unit)?;
            let run = ov_hi[ndim - 1] - ov_lo[ndim - 1];
            let mut idx = ov_lo.clone();
            'rows: loop {
                let mut src = 0u64;
                let mut row = 0u64;
                for d in 0..ndim {
                    src += (idx[d] - starts[d]) * c_strides[d];
                    if d < ndim - 1 {
                        row += (idx[d] - sel[d].0) * row_strides[d];
                    }
                }
                let col = ov_lo[ndim - 1] - sel[ndim - 1].0;
                opened.copy_to(src as usize, sink.at(row, col, run));
                let mut d = ndim - 1;
                loop {
                    if d == 0 {
                        break 'rows;
                    }
                    d -= 1;
                    idx[d] += 1;
                    if idx[d] < ov_hi[d] {
                        break;
                    }
                    idx[d] = ov_lo[d];
                }
            }
            if compressed {
                self.spent.decode += started.elapsed();
            }
            // Advance the chunk-grid odometer within [lo_chunk, hi_chunk].
            let mut d = ndim;
            loop {
                if d == 0 {
                    return Ok(());
                }
                d -= 1;
                gidx[d] += 1;
                if gidx[d] <= hi_chunk[d] {
                    break;
                }
                gidx[d] = lo_chunk[d];
            }
        }
    }
}

/// The stored bytes of the unit at `span` in a staging buffer that
/// starts at file offset `staged_at`.
fn staged(staging: &[u8], staged_at: u64, (at, len): (u64, u64)) -> &[u8] {
    &staging[(at - staged_at) as usize..][..len as usize]
}

impl Drop for Walk<'_> {
    fn drop(&mut self) {
        let (m, spent) = (crate::metrics::metrics(), &self.spent);
        if spent.hashed_units > 0 {
            m.verify_ns.record_duration(spent.verify);
            m.verify_chunks.add(spent.hashed_units);
            m.verify_bytes.add(spent.hashed_bytes);
        }
        if spent.raw_bytes > 0 {
            m.codec_decode_ns.record_duration(spent.decode);
            m.codec_bytes_raw.add(spent.raw_bytes);
            m.codec_bytes_stored.add(spent.stored_bytes);
        }
    }
}

/// A bounds-checked selection as the ascending runs of consecutive
/// elements it occupies in a row-major dataset: one per row along the
/// innermost dimension. A whole read of a contiguous dataset is the
/// single run over the flattened array.
struct Runs {
    /// `(offset, count)` per dimension.
    sel: Vec<(u64, u64)>,
    /// `(count, element stride)` of every dimension but the innermost.
    outer: Vec<(u64, u64)>,
    /// Element offset of run 0.
    first: u64,
    /// Number of runs; zero for an empty selection.
    count: u64,
    /// Elements per run.
    len: u64,
}

impl Runs {
    fn of(meta: &DatasetMeta, selection: Option<&[(u64, u64)]>) -> Result<Runs> {
        // The unit map vouched for the extent: its product fits.
        let flat = [meta.dims.iter().product::<u64>()];
        let (dims, sel): (&[u64], Vec<(u64, u64)>) = match selection {
            None if meta.layout == Layout::Contiguous => (&flat, vec![(0, flat[0])]),
            None => (&meta.dims, meta.dims.iter().map(|&d| (0, d)).collect()),
            Some(sel) => {
                if sel.len() != meta.dims.len() {
                    return Err(DasfError::OutOfBounds(format!(
                        "selection rank {} != dataset rank {}",
                        sel.len(),
                        meta.dims.len()
                    )));
                }
                for (d, (&(off, cnt), &dim)) in sel.iter().zip(&meta.dims).enumerate() {
                    if off.checked_add(cnt).is_none_or(|end| end > dim) {
                        return Err(DasfError::OutOfBounds(format!(
                            "dim {d}: {off}+{cnt} > {dim}"
                        )));
                    }
                }
                (&meta.dims, sel.to_vec())
            }
        };
        // A rank-0 dataset is one run of its one element.
        let (&(_, len), rows) = sel.split_last().unwrap_or((&(0, 1), &[]));
        let mut stride = 1u64;
        let mut first = 0u64;
        let mut outer = vec![(0, 0); rows.len()];
        for d in (0..sel.len()).rev() {
            first += sel[d].0 * stride;
            if d < rows.len() {
                outer[d] = (sel[d].1, stride);
            }
            stride *= dims[d];
        }
        let count = rows.iter().map(|s| s.1).product::<u64>();
        Ok(Runs {
            count: if len == 0 { 0 } else { count },
            sel,
            outer,
            first,
            len,
        })
    }

    /// Element offset of run `k` in the dataset.
    fn start(&self, k: u64) -> u64 {
        let mut rest = k;
        let mut at = self.first;
        for &(count, stride) in self.outer.iter().rev() {
            at += rest % count * stride;
            rest /= count;
        }
        at
    }
}

/// Where the caller wants a read.
enum Dest<'a, T> {
    /// A vector resized to the selection, rows back to back.
    Dense(&'a mut Vec<T>),
    /// A window of a larger array: see [`File::read_hyperslab_strided`].
    Strided {
        dst: &'a mut [T],
        start: usize,
        stride: usize,
    },
}

/// The strided run sink every read writes through: elements
/// `lo .. lo + len` of run `k` live at `dst[start + k * stride + lo..]`.
struct Sink<'a, T> {
    dst: &'a mut [T],
    start: usize,
    stride: usize,
}

impl<'a, T: Element> Dest<'a, T> {
    /// Size (dense) or bounds-check (strided) the destination for
    /// `runs`, so that [`Sink::at`] cannot fail during the walk.
    fn sink(self, runs: &Runs) -> Result<Sink<'a, T>> {
        let (count, len) = (runs.count as usize, runs.len as usize);
        match self {
            Dest::Dense(out) => {
                // Every element below `count * len` is overwritten, so
                // only what the vector grows by needs a value first.
                let before = out.capacity();
                out.truncate(count * len);
                out.resize(count * len, T::default());
                let grown = out.capacity().saturating_sub(before);
                if grown > 0 {
                    // Pooled buffers come in pre-sized and cost nothing;
                    // fresh vectors show up in the allocation ledger.
                    crate::metrics::metrics()
                        .alloc_bytes
                        .add((grown * std::mem::size_of::<T>()) as u64);
                }
                Ok(Sink {
                    dst: out,
                    start: 0,
                    stride: len,
                })
            }
            Dest::Strided { dst, start, stride } => {
                let fits = match count.checked_sub(1) {
                    None => true,
                    Some(last) => {
                        (stride >= len || last == 0)
                            && last
                                .checked_mul(stride)
                                .and_then(|n| n.checked_add(start))
                                .and_then(|n| n.checked_add(len))
                                .is_some_and(|end| end <= dst.len())
                    }
                };
                if !fits {
                    return Err(DasfError::OutOfBounds(format!(
                        "{count} rows of {len} at {start} + k * {stride} do not fit a \
                         destination of {}",
                        dst.len()
                    )));
                }
                Ok(Sink { dst, start, stride })
            }
        }
    }
}

impl<T> Sink<'_, T> {
    fn at(&mut self, run: u64, lo: u64, len: u64) -> &mut [T] {
        let at = self.start + run as usize * self.stride + lo as usize;
        &mut self.dst[at..at + len as usize]
    }
}

/// `ChecksumMismatch` for a metadata region of the file.
fn metadata_mismatch(path: &Path, region: &str) -> DasfError {
    crate::metrics::metrics().verify_mismatch.inc();
    DasfError::ChecksumMismatch {
        path: path.display().to_string(),
        dataset: region.to_string(),
        chunk: 0,
    }
}

fn map_eof(e: std::io::Error) -> DasfError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        DasfError::Truncated
    } else {
        DasfError::Io(e)
    }
}

#[cfg(test)]
mod equivalence;
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Writer;
    use std::io::Write as _;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dasf-reader-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_2d(name: &str, rows: u64, cols: u64) -> PathBuf {
        let p = tmp(name);
        let mut w = Writer::create(&p).unwrap();
        let data: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
        w.write_dataset_f32("/data", &[rows, cols], &data).unwrap();
        w.finish().unwrap();
        p
    }

    #[test]
    fn whole_read_round_trip() {
        let p = write_2d("whole.dasf", 5, 7);
        let f = File::open(&p).unwrap();
        assert_eq!(f.version(), crate::Version::V4);
        let v = f.read_f32("/data").unwrap();
        assert_eq!(v.len(), 35);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[34], 34.0);
    }

    #[test]
    fn hyperslab_matches_manual_slice() {
        let (rows, cols) = (6u64, 8u64);
        let p = write_2d("slab.dasf", rows, cols);
        let f = File::open(&p).unwrap();
        let sub = f.read_hyperslab_f32("/data", &[(2, 3), (1, 4)]).unwrap();
        let mut expect = Vec::new();
        for r in 2..5u64 {
            for c in 1..5u64 {
                expect.push((r * cols + c) as f32);
            }
        }
        assert_eq!(sub, expect);
    }

    #[test]
    fn hyperslab_full_extent_equals_read() {
        let p = write_2d("full.dasf", 4, 4);
        let f = File::open(&p).unwrap();
        assert_eq!(
            f.read_hyperslab_f32("/data", &[(0, 4), (0, 4)]).unwrap(),
            f.read_f32("/data").unwrap()
        );
    }

    #[test]
    fn hyperslab_1d_and_3d() {
        let p = tmp("nd.dasf");
        let mut w = Writer::create(&p).unwrap();
        w.write_dataset_f64(
            "/one",
            &[10],
            &(0..10).map(|i| i as f64).collect::<Vec<_>>(),
        )
        .unwrap();
        let d3: Vec<f64> = (0..2 * 3 * 4).map(|i| i as f64).collect();
        w.write_dataset_f64("/three", &[2, 3, 4], &d3).unwrap();
        w.finish().unwrap();
        let f = File::open(&p).unwrap();
        assert_eq!(
            f.read_hyperslab_f64("/one", &[(3, 4)]).unwrap(),
            vec![3.0, 4.0, 5.0, 6.0]
        );
        // three[1, 0..2, 1..3]
        let sub = f
            .read_hyperslab_f64("/three", &[(1, 1), (0, 2), (1, 2)])
            .unwrap();
        let expect: Vec<f64> = vec![
            (12 + 1) as f64,
            (12 + 2) as f64,
            (12 + 4 + 1) as f64,
            (12 + 4 + 2) as f64,
        ];
        assert_eq!(sub, expect);
    }

    #[test]
    fn empty_selection_returns_empty() {
        let p = write_2d("emptysel.dasf", 4, 4);
        let f = File::open(&p).unwrap();
        assert!(f
            .read_hyperslab_f32("/data", &[(0, 0), (0, 4)])
            .unwrap()
            .is_empty());
    }

    #[test]
    fn out_of_bounds_rejected() {
        let p = write_2d("oob.dasf", 4, 4);
        let f = File::open(&p).unwrap();
        assert!(matches!(
            f.read_hyperslab_f32("/data", &[(2, 3), (0, 4)]),
            Err(DasfError::OutOfBounds(_))
        ));
        assert!(matches!(
            f.read_hyperslab_f32("/data", &[(0, 4)]),
            Err(DasfError::OutOfBounds(_))
        ));
    }

    #[test]
    fn type_mismatch_rejected() {
        let p = write_2d("type.dasf", 2, 2);
        let f = File::open(&p).unwrap();
        assert!(matches!(
            f.read_f64("/data"),
            Err(DasfError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let p = tmp("notdasf.bin");
        std::fs::File::create(&p)
            .unwrap()
            .write_all(b"GARBAGE!xxxxxxxx")
            .unwrap();
        assert!(matches!(File::open(&p), Err(DasfError::BadMagic)));
    }

    #[test]
    fn truncated_header_rejected() {
        let p = tmp("short.bin");
        std::fs::File::create(&p)
            .unwrap()
            .write_all(b"DASF")
            .unwrap();
        assert!(matches!(File::open(&p), Err(DasfError::Truncated)));
    }

    #[test]
    fn unfinished_write_leaves_no_file() {
        // The crash-consistent writer never exposes a torn file: an
        // unfinished write means there is nothing at the final path.
        let p = tmp("unfinished.dasf");
        std::fs::remove_file(&p).ok(); // stale runs of older suites
        {
            let mut w = Writer::create(&p).unwrap();
            w.write_dataset_f32("/d", &[2], &[1.0, 2.0]).unwrap();
            // no finish()
        }
        assert!(!p.exists());
        assert!(matches!(File::open(&p), Err(DasfError::Io(_))));
    }

    #[test]
    fn truncated_file_detected_at_open() {
        let p = write_2d("truncpay.dasf", 8, 8);
        let bytes = std::fs::read(&p).unwrap();
        let mut cut = bytes.clone();
        cut.truncate(bytes.len() - 10);
        let p2 = tmp("truncpay2.dasf");
        std::fs::write(&p2, &cut).unwrap();
        assert!(matches!(File::open(&p2), Err(DasfError::Truncated)));
    }

    #[test]
    fn verify_all_reports_clean_round_trip() {
        let p = write_2d("scrub.dasf", 8, 8);
        let f = File::open(&p).unwrap();
        let v = f.verify_all().unwrap();
        assert!(v.is_clean());
        assert_eq!(v.datasets, 1);
        assert_eq!(v.chunks_verified, 1);
        assert_eq!(v.bytes_verified, 8 * 8 * 4);
        assert_eq!(v.unverified_datasets, 0);
    }

    #[test]
    fn attrs_survive_round_trip() {
        let p = tmp("attrs.dasf");
        let mut w = Writer::create(&p).unwrap();
        w.set_attr(
            "/",
            "TimeStamp(yymmddhhmmss)",
            Value::Str("170620100545".into()),
        )
        .unwrap();
        w.create_group("/Measurement").unwrap();
        w.write_dataset_f32("/Measurement/d", &[1], &[9.0]).unwrap();
        w.set_attr(
            "/Measurement/d",
            "Number of raw data values",
            Value::Int(45),
        )
        .unwrap();
        w.finish().unwrap();
        let f = File::open(&p).unwrap();
        assert_eq!(
            f.attr("/", "TimeStamp(yymmddhhmmss)")
                .and_then(|v| v.as_str()),
            Some("170620100545")
        );
        assert_eq!(
            f.attr("/Measurement/d", "Number of raw data values")
                .and_then(|v| v.as_int()),
            Some(45)
        );
        assert_eq!(f.attr("/", "nope"), None);
    }
}
