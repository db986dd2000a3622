//! Writing dasf files (v4, crash-consistent).
//!
//! Bytes stream into `<name>.tmp`; `finish` writes the object table and
//! commit record, fsyncs, and atomically renames the temp file into
//! place. Until that rename, the final path either does not exist or
//! still holds its previous (complete) content — a crash mid-write can
//! never leave a torn file under the final name. Dropping an unfinished
//! writer removes the temp file.
//!
//! A writer carries a [`Codec`] (default [`Codec::Raw`]); with a
//! non-raw codec each verify unit is encoded before it is written and
//! checksummed, so the CRC covers the stored bytes. Units the codec
//! cannot shrink are stored raw per unit — a compressed dataset never
//! grows past its raw size. The crash-consistency protocol is untouched
//! either way.
//!
//! A compressed write is one walk over the verify units, the mirror of
//! the reader's: each unit goes once from the caller's elements through
//! the writer's `codec::Encoder` onto the tail of the one buffer that
//! is then written out, and is checksummed where it landed. The payload
//! is never laid out as bytes first and no unit passes through a vector
//! of its own.

use crate::codec::{Codec, Encoder};
use crate::crc::crc32c;
use crate::element::{encode_slice, Element};
use crate::error::DasfError;
use crate::object::{DatasetMeta, Layout, ObjectTable, UnitHeader};
use crate::value::Value;
use crate::{Result, Version, VERIFY_CHUNK_BYTES};
use std::collections::BTreeMap;
use std::fs::{File as FsFile, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Streaming writer: datasets append to the data region as they arrive;
/// `finish` writes the object table, commit record, and superblock, then
/// publishes the file with an atomic rename.
///
/// Memory: a raw write holds the dataset's little-endian bytes; a
/// compressed contiguous write holds its stored bytes (never more than
/// that) plus the encoder — 256 KiB of match table and one unit of byte
/// planes, ≈ 320 KiB, allocated by the first dataset written under a
/// non-raw codec and kept for the writer's life. A chunked write holds
/// one chunk at a time.
pub struct Writer {
    /// Open handle on the temp file; `None` only transiently inside
    /// `finish` and `Drop`.
    file: Option<BufWriter<FsFile>>,
    final_path: PathBuf,
    tmp_path: PathBuf,
    table: ObjectTable,
    /// Next free byte in the data region.
    cursor: u64,
    finished: bool,
    version: Version,
    /// Codec requested for subsequently written datasets.
    codec: Codec,
    /// Built by the first dataset written under a non-raw codec.
    encoder: Option<Encoder>,
}

/// What the encoded walk of one dataset leaves besides stored bytes.
#[derive(Default)]
struct EncodedUnits {
    checksums: Vec<u32>,
    stored_units: Vec<UnitHeader>,
    encode_spent: Duration,
}

impl EncodedUnits {
    /// One step of the walk: append `unit`'s stored bytes under
    /// `requested` to `stored`, checksum them where they landed, and
    /// record the unit's header. A unit the codec cannot shrink is
    /// stored raw under a `Raw` header.
    fn push<T: Element>(
        &mut self,
        encoder: &mut Encoder,
        requested: Codec,
        unit: &[T],
        stored: &mut Vec<u8>,
    ) {
        let tail = stored.len();
        let started = Instant::now();
        let codec = encoder.encode_unit(requested, unit, stored);
        self.encode_spent += started.elapsed();
        self.checksums.push(crc32c(&stored[tail..]));
        self.stored_units.push(UnitHeader {
            codec,
            raw_len: std::mem::size_of_val(unit) as u32,
            stored_len: (stored.len() - tail) as u32,
        });
    }

    /// Charge the dataset's codec metrics.
    fn record(&self) {
        let m = crate::metrics::metrics();
        let (raw, stored) = self.stored_units.iter().fold((0, 0), |(raw, stored), u| {
            (raw + u.raw_len as u64, stored + u.stored_len as u64)
        });
        m.codec_encode_ns.record_duration(self.encode_spent);
        m.codec_bytes_raw.add(raw);
        m.codec_bytes_stored.add(stored);
    }
}

/// Call `visit` with each chunk of a row-major `dims` array on a
/// `chunk_dims` grid, in row-major grid order: the chunk's elements
/// gathered row-major into one reused buffer, edge chunks clipped to
/// the array's extent.
fn for_each_chunk<T: Element>(
    dims: &[u64],
    chunk_dims: &[u64],
    data: &[T],
    mut visit: impl FnMut(&[T]) -> Result<()>,
) -> Result<()> {
    let ndim = dims.len();
    let grid: Vec<u64> = dims
        .iter()
        .zip(chunk_dims)
        .map(|(&d, &c)| d.div_ceil(c))
        .collect();
    // Row-major strides of the full dataset (in elements).
    let mut strides = vec![1u64; ndim];
    for d in (0..ndim.saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * dims[d + 1];
    }
    let mut chunk = Vec::new();
    let mut grid_idx = vec![0u64; ndim];
    let (mut starts, mut lens, mut idx) = (vec![0u64; ndim], vec![0u64; ndim], vec![0u64; ndim]);
    for _ in 0..grid.iter().product::<u64>() {
        // Clipped extent of this chunk.
        for d in 0..ndim {
            starts[d] = grid_idx[d] * chunk_dims[d];
            lens[d] = chunk_dims[d].min(dims[d] - starts[d]);
        }
        // Gather the chunk's elements row-major.
        chunk.clear();
        idx.fill(0);
        'gather: loop {
            let mut flat = 0u64;
            for d in 0..ndim {
                flat += (starts[d] + idx[d]) * strides[d];
            }
            // Innermost dim run is contiguous in the source.
            let run = lens[ndim - 1] as usize;
            chunk.extend_from_slice(&data[flat as usize..flat as usize + run]);
            // Odometer over all but the innermost dim.
            let mut d = ndim - 1;
            loop {
                if d == 0 {
                    break 'gather;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < lens[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        visit(&chunk)?;
        // Advance the chunk-grid odometer.
        for d in (0..ndim).rev() {
            grid_idx[d] += 1;
            if grid_idx[d] < grid[d] {
                break;
            }
            grid_idx[d] = 0;
        }
    }
    Ok(())
}

/// `<path>.tmp` — the staging name a writer streams into.
fn tmp_path_for(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

impl Writer {
    /// Start writing the file that will appear at `path` once `finish`
    /// succeeds. Creates (truncates) `path.tmp` and writes the
    /// superblock there; `path` itself is untouched until the final
    /// atomic rename.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Writer> {
        Writer::create_versioned(path, Version::V4)
    }

    /// [`Writer::create`] for an explicit format version — v3 for
    /// compatibility fixtures, v4 otherwise. v2 files are read-only.
    pub fn create_versioned<P: AsRef<Path>>(path: P, version: Version) -> Result<Writer> {
        if version == Version::V2 {
            return Err(DasfError::Corrupt("v2 files are read-only".into()));
        }
        let final_path = path.as_ref().to_path_buf();
        let tmp_path = tmp_path_for(&final_path);
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        let mut w = BufWriter::new(file);
        w.write_all(version.magic())?;
        w.write_all(&0u64.to_le_bytes())?; // placeholder table offset
        Ok(Writer {
            file: Some(w),
            final_path,
            tmp_path,
            table: ObjectTable::new(),
            cursor: 16,
            finished: false,
            version,
            codec: Codec::Raw,
            encoder: None,
        })
    }

    /// Set the codec for datasets written after this call. Non-raw
    /// codecs need the v4 unit-header slot, so a v3 writer rejects
    /// them.
    pub fn set_codec(&mut self, codec: Codec) -> Result<()> {
        if self.version != Version::V4 && codec != Codec::Raw {
            return Err(DasfError::Corrupt(format!(
                "codec {} needs a v4 file; this writer targets {:?}",
                codec.label(),
                self.version
            )));
        }
        self.codec = codec;
        Ok(())
    }

    fn fh(&mut self) -> &mut BufWriter<FsFile> {
        self.file.as_mut().expect("writer file open")
    }

    /// Create a group (parents must exist). Root `/` always exists.
    pub fn create_group(&mut self, path: &str) -> Result<()> {
        self.table.create_group(path)
    }

    /// Attach an attribute to an existing object.
    pub fn set_attr(&mut self, path: &str, key: &str, value: Value) -> Result<()> {
        self.table.set_attr(path, key, value)
    }

    /// Write a dataset of any supported element type.
    ///
    /// `dims` is the row-major extent; `data.len()` must equal the product
    /// of `dims`. The payload is checksummed in [`VERIFY_CHUNK_BYTES`]
    /// units as it is encoded.
    pub fn write_dataset<T: Element>(
        &mut self,
        path: &str,
        dims: &[u64],
        data: &[T],
    ) -> Result<()> {
        let expected: u64 = dims.iter().product();
        if expected as usize != data.len() {
            return Err(DasfError::ShapeMismatch {
                expected: expected as usize,
                actual: data.len(),
            });
        }
        let raw_bytes = std::mem::size_of_val(data);
        let codec = self.codec;
        let mut units = EncodedUnits::default();
        let on_disk = if codec == Codec::Raw {
            // Byte-identical to the uncompressed layout: checksums over
            // the raw units, no unit headers.
            let bytes = encode_slice(data);
            units.checksums = bytes
                .chunks(VERIFY_CHUNK_BYTES as usize)
                .map(crc32c)
                .collect();
            bytes
        } else {
            let encoder = self.encoder.get_or_insert_with(Encoder::new);
            let unit_elems = VERIFY_CHUNK_BYTES as usize / std::mem::size_of::<T>();
            // No unit is stored in more than its raw bytes; the slack is
            // what a token stream about to be rejected overshoots by.
            let mut stored = Vec::with_capacity(raw_bytes + VERIFY_CHUNK_BYTES as usize / 64);
            for unit in data.chunks(unit_elems) {
                units.push(encoder, codec, unit, &mut stored);
            }
            units.record();
            stored
        };
        let meta = DatasetMeta {
            dtype: T::DTYPE,
            dims: dims.to_vec(),
            data_offset: self.cursor,
            layout: Layout::Contiguous,
            attrs: BTreeMap::new(),
            checksums: units.checksums,
            stored_units: units.stored_units,
        };
        // Register first so path errors surface before any bytes move.
        self.table.insert_dataset(path, meta)?;
        crate::faults::check_write(&self.final_path, path)?;
        let started = Instant::now();
        self.fh().write_all(&on_disk)?;
        self.cursor += on_disk.len() as u64;
        let m = crate::metrics::metrics();
        m.write_count.inc();
        m.write_bytes.add(raw_bytes as u64);
        m.write_ns.record_duration(started.elapsed());
        Ok(())
    }

    /// Write a dataset in chunked layout (HDF5-style): the array is
    /// split on a `chunk_dims` grid and each chunk is stored as its own
    /// contiguous run, so later hyperslab reads touch only the chunks
    /// they intersect. Edge chunks are clipped to the dataset extent.
    /// Each stored chunk carries its own CRC32C.
    pub fn write_dataset_chunked<T: Element>(
        &mut self,
        path: &str,
        dims: &[u64],
        chunk_dims: &[u64],
        data: &[T],
    ) -> Result<()> {
        let expected: u64 = dims.iter().product();
        if expected as usize != data.len() {
            return Err(DasfError::ShapeMismatch {
                expected: expected as usize,
                actual: data.len(),
            });
        }
        if chunk_dims.len() != dims.len() || chunk_dims.contains(&0) {
            return Err(DasfError::Corrupt(format!(
                "chunk dims {chunk_dims:?} invalid for dataset dims {dims:?}"
            )));
        }
        crate::faults::check_write(&self.final_path, path)?;
        let started = Instant::now();
        // Each storage chunk is one verify unit; unit headers address it
        // with u32 lengths, so huge chunks disable compression wholesale
        // rather than truncate.
        let max_chunk_bytes = chunk_dims.iter().product::<u64>() * std::mem::size_of::<T>() as u64;
        let codec = if max_chunk_bytes <= u32::MAX as u64 {
            self.codec
        } else {
            Codec::Raw
        };
        let Writer {
            file,
            cursor,
            encoder,
            ..
        } = self;
        let file = file.as_mut().expect("writer file open");
        let mut encoder = (codec != Codec::Raw).then(|| encoder.get_or_insert_with(Encoder::new));

        let mut units = EncodedUnits::default();
        let mut chunk_offsets = Vec::new();
        // One chunk's stored bytes at a time, written as they are made.
        let mut stored = Vec::new();
        for_each_chunk(dims, chunk_dims, data, |chunk| {
            chunk_offsets.push(*cursor);
            match &mut encoder {
                Some(encoder) => {
                    stored.clear();
                    units.push(encoder, codec, chunk, &mut stored);
                }
                None => {
                    stored = encode_slice(chunk);
                    units.checksums.push(crc32c(&stored));
                }
            }
            file.write_all(&stored)?;
            *cursor += stored.len() as u64;
            Ok(())
        })?;
        if encoder.is_some() {
            units.record();
        }
        let meta = DatasetMeta {
            dtype: T::DTYPE,
            dims: dims.to_vec(),
            data_offset: chunk_offsets.first().copied().unwrap_or(self.cursor),
            layout: Layout::Chunked {
                chunk_dims: chunk_dims.to_vec(),
                chunk_offsets,
            },
            attrs: BTreeMap::new(),
            checksums: units.checksums,
            stored_units: units.stored_units,
        };
        self.table.insert_dataset(path, meta)?;
        let m = crate::metrics::metrics();
        m.write_count.inc();
        m.write_bytes
            .add(expected * std::mem::size_of::<T>() as u64);
        m.write_ns.record_duration(started.elapsed());
        Ok(())
    }

    /// Convenience wrapper for `f32` data (the DAS amplitude type).
    pub fn write_dataset_f32(&mut self, path: &str, dims: &[u64], data: &[f32]) -> Result<()> {
        self.write_dataset(path, dims, data)
    }

    /// Convenience wrapper for `f64` data.
    pub fn write_dataset_f64(&mut self, path: &str, dims: &[u64], data: &[f64]) -> Result<()> {
        self.write_dataset(path, dims, data)
    }

    /// Write the object table and commit record, patch the superblock,
    /// fsync, and atomically rename the temp file to its final path.
    /// Consumes the writer; dropping without calling this — or any
    /// error from it, a failed fsync included — removes the temp file
    /// and leaves the final path untouched.
    pub fn finish(mut self) -> Result<()> {
        let table_offset = self.cursor;
        let table_bytes = self.table.encode_versioned(self.version);

        // 32-byte commit record. Its own CRC covers the reconstructed
        // superblock plus the record prefix, so a flipped byte in either
        // the stored superblock or the record itself is detectable.
        let mut footer = Vec::with_capacity(32);
        footer.extend_from_slice(&table_offset.to_le_bytes());
        footer.extend_from_slice(&(table_bytes.len() as u64).to_le_bytes());
        footer.extend_from_slice(&crc32c(&table_bytes).to_le_bytes());
        let mut covered = Vec::with_capacity(36);
        covered.extend_from_slice(self.version.magic());
        covered.extend_from_slice(&table_offset.to_le_bytes());
        covered.extend_from_slice(&footer[..20]);
        footer.extend_from_slice(&crc32c(&covered).to_le_bytes());
        footer.extend_from_slice(self.version.commit_magic());
        debug_assert_eq!(footer.len(), 32);

        let w = self.fh();
        w.write_all(&table_bytes)?;
        w.write_all(&footer)?;
        w.flush()?;
        let mut inner = self
            .file
            .take()
            .expect("writer file open")
            .into_inner()
            .map_err(|e| DasfError::Io(e.into_error()))?;
        inner.seek(SeekFrom::Start(8))?;
        inner.write_all(&table_offset.to_le_bytes())?;
        // The rename below publishes the file as complete and durable —
        // `ingest` admits what it finds in a spool on that promise — so
        // a flush that failed must not reach it: the error returns, and
        // dropping `self` removes the temp file with the final name
        // untouched. No errno is excused: the "tmpfs may refuse" of
        // earlier versions had none behind it (Linux tmpfs and overlayfs
        // both implement fsync).
        crate::faults::check_sync(&self.final_path)?;
        inner.sync_all()?;
        drop(inner);
        std::fs::rename(&self.tmp_path, &self.final_path)?;
        // Persist the rename itself — best effort: the complete, synced
        // file is already visible under its final name and whatever it
        // replaced is gone, so an error here could only misreport a
        // finished write as failed; and not every platform lets a
        // directory be opened for syncing at all.
        if let Some(dir) = self.final_path.parent() {
            if let Ok(d) = FsFile::open(dir) {
                d.sync_all().ok();
            }
        }
        self.finished = true;
        Ok(())
    }
}

impl Drop for Writer {
    fn drop(&mut self) {
        if !self.finished {
            // Close the handle before unlinking, then abort the write.
            drop(self.file.take());
            std::fs::remove_file(&self.tmp_path).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::File;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dasf-writer-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut w = Writer::create(tmp("shape.dasf")).unwrap();
        let err = w.write_dataset_f32("/d", &[2, 3], &[0.0; 5]).unwrap_err();
        assert!(matches!(
            err,
            DasfError::ShapeMismatch {
                expected: 6,
                actual: 5
            }
        ));
    }

    #[test]
    fn dataset_into_missing_group_rejected() {
        let mut w = Writer::create(tmp("missing.dasf")).unwrap();
        let err = w.write_dataset_f32("/g/d", &[1], &[0.0]).unwrap_err();
        assert!(matches!(err, DasfError::NoSuchObject(_)));
    }

    #[test]
    fn empty_file_round_trips() {
        let p = tmp("empty.dasf");
        Writer::create(&p).unwrap().finish().unwrap();
        let f = File::open(&p).unwrap();
        assert!(f.dataset_paths().is_empty());
    }

    #[test]
    fn unfinished_writer_leaves_no_file_behind() {
        let p = tmp("aborted.dasf");
        let staging = tmp_path_for(&p);
        {
            let mut w = Writer::create(&p).unwrap();
            w.write_dataset_f32("/d", &[2], &[1.0, 2.0]).unwrap();
            assert!(staging.exists(), "writer streams into the temp file");
            assert!(!p.exists(), "final path untouched before finish");
            // no finish()
        }
        assert!(!staging.exists(), "drop removes the temp file");
        assert!(!p.exists());
    }

    #[test]
    fn finish_replaces_previous_content_atomically() {
        let p = tmp("replace.dasf");
        let mut w = Writer::create(&p).unwrap();
        w.write_dataset_f32("/d", &[1], &[1.0]).unwrap();
        w.finish().unwrap();

        // While a second writer is mid-flight, the old file is intact.
        let mut w2 = Writer::create(&p).unwrap();
        w2.write_dataset_f32("/d", &[1], &[2.0]).unwrap();
        assert_eq!(File::open(&p).unwrap().read_f32("/d").unwrap(), vec![1.0]);
        w2.finish().unwrap();
        assert_eq!(File::open(&p).unwrap().read_f32("/d").unwrap(), vec![2.0]);
        assert!(!tmp_path_for(&p).exists());
    }

    #[test]
    fn contiguous_checksums_cover_every_unit() {
        let p = tmp("sums.dasf");
        let mut w = Writer::create(&p).unwrap();
        // 3 × 64 KiB units: 40k f32 = 160_000 bytes → units of 65536,
        // 65536, 28928 bytes.
        let data: Vec<f32> = (0..40_000).map(|i| i as f32).collect();
        w.write_dataset_f32("/big", &[40_000], &data).unwrap();
        w.write_dataset_chunked("/ch", &[4, 4], &[2, 3], &data[..16])
            .unwrap();
        w.finish().unwrap();
        let f = File::open(&p).unwrap();
        let big = f.dataset("/big").unwrap();
        assert_eq!(big.checksums.len(), 3);
        assert_eq!(big.checksums.len(), big.verify_unit_count());
        let ch = f.dataset("/ch").unwrap();
        // Grid 2×2 → 4 chunks, one checksum each.
        assert_eq!(ch.checksums.len(), 4);
        assert_eq!(ch.checksums.len(), ch.verify_unit_count());
    }

    // -----------------------------------------------------------------
    // The encoded walk against the write bodies it replaced
    // -----------------------------------------------------------------

    /// Per-unit encodings as this file made them before the encoded
    /// walk: every unit of the payload's bytes through
    /// `codec::reference::encode_unit` and vectors of its own.
    fn reference_units(
        requested: Codec,
        raw: &[u8],
        dtype: crate::Dtype,
        unit_len: usize,
    ) -> (Vec<u32>, Vec<UnitHeader>, Vec<u8>) {
        let (mut checksums, mut headers, mut stored) = (Vec::new(), Vec::new(), Vec::new());
        for unit in raw.chunks(unit_len) {
            let (codec, bytes) = codec::reference::encode_unit(requested, unit, dtype)
                .unwrap_or((Codec::Raw, unit.to_vec()));
            checksums.push(crc32c(&bytes));
            headers.push(UnitHeader {
                codec,
                raw_len: unit.len() as u32,
                stored_len: bytes.len() as u32,
            });
            stored.extend_from_slice(&bytes);
        }
        (checksums, headers, stored)
    }

    /// `write_dataset` as it was: `encode_slice` of the whole payload,
    /// then [`reference_units`].
    fn write_dataset_reference<T: Element>(w: &mut Writer, path: &str, dims: &[u64], data: &[T]) {
        let bytes = encode_slice(data);
        let (checksums, stored_units, stored) = if w.codec == Codec::Raw {
            let sums = bytes
                .chunks(VERIFY_CHUNK_BYTES as usize)
                .map(crc32c)
                .collect();
            (sums, Vec::new(), bytes)
        } else {
            reference_units(w.codec, &bytes, T::DTYPE, VERIFY_CHUNK_BYTES as usize)
        };
        let meta = DatasetMeta {
            dtype: T::DTYPE,
            dims: dims.to_vec(),
            data_offset: w.cursor,
            layout: Layout::Contiguous,
            attrs: BTreeMap::new(),
            checksums,
            stored_units,
        };
        w.table.insert_dataset(path, meta).unwrap();
        w.fh().write_all(&stored).unwrap();
        w.cursor += stored.len() as u64;
    }

    /// `write_dataset_chunked` as it was, one [`reference_units`] call
    /// per chunk (the chunk walk itself is shared).
    fn write_dataset_chunked_reference<T: Element>(
        w: &mut Writer,
        path: &str,
        dims: &[u64],
        chunk_dims: &[u64],
        data: &[T],
    ) {
        let (mut chunk_offsets, mut checksums, mut stored_units) =
            (Vec::new(), Vec::new(), Vec::new());
        for_each_chunk(dims, chunk_dims, data, |chunk| {
            chunk_offsets.push(w.cursor);
            let bytes = encode_slice(chunk);
            let stored = if w.codec == Codec::Raw {
                checksums.push(crc32c(&bytes));
                bytes
            } else {
                let (sums, headers, stored) =
                    reference_units(w.codec, &bytes, T::DTYPE, bytes.len().max(1));
                checksums.extend(sums);
                stored_units.extend(headers);
                stored
            };
            w.fh().write_all(&stored)?;
            w.cursor += stored.len() as u64;
            Ok(())
        })
        .unwrap();
        let meta = DatasetMeta {
            dtype: T::DTYPE,
            dims: dims.to_vec(),
            data_offset: chunk_offsets.first().copied().unwrap_or(w.cursor),
            layout: Layout::Chunked {
                chunk_dims: chunk_dims.to_vec(),
                chunk_offsets,
            },
            attrs: BTreeMap::new(),
            checksums,
            stored_units,
        };
        w.table.insert_dataset(path, meta).unwrap();
    }

    /// One dataset of a test file, written by the writer proper or by
    /// the reference bodies above.
    type Step = Box<dyn Fn(&mut Writer, bool)>;

    fn contiguous<T: Element>(path: &'static str, data: Vec<T>) -> Step {
        Box::new(move |w, reference| {
            let dims = [data.len() as u64];
            if reference {
                write_dataset_reference(w, path, &dims, &data);
            } else {
                w.write_dataset(path, &dims, &data).unwrap();
            }
        })
    }

    fn chunked<T: Element>(
        path: &'static str,
        dims: [u64; 2],
        chunk: [u64; 2],
        data: Vec<T>,
    ) -> Step {
        Box::new(move |w, reference| {
            if reference {
                write_dataset_chunked_reference(w, path, &dims, &chunk, &data);
            } else {
                w.write_dataset_chunked(path, &dims, &chunk, &data).unwrap();
            }
        })
    }

    fn file_bytes(name: &str, codec: Codec, steps: &[&Step], reference: bool) -> Vec<u8> {
        let p = tmp(name);
        let mut w = Writer::create(&p).unwrap();
        w.set_attr("/", "SamplingFrequency(HZ)", Value::Int(500))
            .unwrap();
        w.set_codec(codec).unwrap();
        for step in steps {
            step(&mut w, reference);
        }
        w.finish().unwrap();
        std::fs::read(&p).unwrap()
    }

    /// xorshift64 in (−1, 1).
    fn jitter(state: &mut u64) -> f64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        (*state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Every element type in both layouts: units that shrink, units
    /// that do not, partial last units, chunks clipped at the edges,
    /// one chunk longer than the LZ window, floats `quant` takes and
    /// floats it must refuse.
    fn steps() -> Vec<Step> {
        let mut rng = 0x5EED_u64;
        let wave: Vec<f32> = (0..40_000)
            .map(|i| ((i / 64) as f64 * 0.125 + jitter(&mut rng) * 0.25) as f32)
            .collect();
        let mut holed = wave[..20_000].to_vec();
        holed[17_000] = f32::INFINITY;
        let wide: Vec<f64> = wave.iter().map(|&v| v as f64 * 1e-3).collect();
        let noise: Vec<u8> = (0..70_000)
            .map(|_| (jitter(&mut rng) * 128.0) as i8 as u8)
            .collect();
        let far: Vec<u8> = [&noise[..], &noise[..], &[0u8; 9_000][..]].concat();
        let counts: Vec<i16> = (0..50_000).map(|i| (i / 37) as i16).collect();
        let ids: Vec<i32> = (0..300).map(|i| i * i - 7).collect();
        let ticks: Vec<i64> = (0..9_000).map(|i| 1_501_281_910_000 + i * 20).collect();
        let tiles: Vec<f64> = (0..2_000).map(|i| (i / 9) as f64).collect();
        let small: Vec<i16> = (0..48).map(|i| i % 5).collect();
        vec![
            contiguous("/wave", wave.clone()),
            contiguous("/holed", holed),
            contiguous("/wide", wide),
            contiguous("/counts", counts),
            contiguous("/ids", ids),
            contiguous("/ticks", ticks),
            contiguous("/noise", noise),
            contiguous("/none", Vec::<f32>::new()),
            chunked("/strips", [5, 8_000], [2, 3_000], wave),
            chunked("/tiles", [40, 50], [16, 16], tiles),
            chunked("/small", [3, 16], [1, 16], small),
            chunked("/far", [1, 149_000], [1, 149_000], far),
        ]
    }

    #[test]
    fn files_are_the_reference_writers_byte_for_byte() {
        let steps = steps();
        for (tag, codec) in [
            ("raw", Codec::Raw),
            ("lz", Codec::ShuffleLz),
            ("q", Codec::Quant { bound: 1e-3 }),
            ("q64", Codec::Quant { bound: 1.0 / 64.0 }),
        ] {
            // several datasets through one writer, one encoder…
            let all: Vec<&Step> = steps.iter().collect();
            let got = file_bytes(&format!("walk_all_{tag}.dasf"), codec, &all, false);
            let want = file_bytes(&format!("ref_all_{tag}.dasf"), codec, &all, true);
            assert!(got == want, "{tag}: file of every dataset differs");
            // …and each alone in a file of its own.
            for (i, step) in steps.iter().enumerate() {
                let got = file_bytes(&format!("walk_{i}_{tag}.dasf"), codec, &[step], false);
                let want = file_bytes(&format!("ref_{i}_{tag}.dasf"), codec, &[step], true);
                assert!(got == want, "{tag}: file of dataset {i} differs");
            }
        }
    }

    #[test]
    fn a_much_used_writer_stores_what_a_fresh_one_does() {
        let steps = steps();
        let probe: Vec<f32> = (0..30_000).map(|i| (i / 48) as f32 * 0.5).collect();
        let stored = |name: &str, warm_up: &[Step]| {
            let p = tmp(name);
            let mut w = Writer::create(&p).unwrap();
            w.set_codec(Codec::ShuffleLz).unwrap();
            for step in warm_up {
                step(&mut w, false);
            }
            w.set_codec(Codec::Quant { bound: 0.125 }).unwrap();
            w.write_dataset("/probe", &[30_000], &probe).unwrap();
            w.write_dataset_chunked("/probe_c", &[3, 10_000], &[1, 10_000], &probe)
                .unwrap();
            w.finish().unwrap();
            let f = File::open(&p).unwrap();
            let bytes = std::fs::read(&p).unwrap();
            ["/probe", "/probe_c"].map(|path| {
                let d = f.dataset(path).unwrap();
                let at = d.data_offset as usize;
                (
                    d.checksums.clone(),
                    d.stored_units.clone(),
                    bytes[at..at + d.stored_byte_len() as usize].to_vec(),
                )
            })
        };
        let fresh = stored("fresh.dasf", &[]);
        assert!(fresh[0].1.iter().all(|u| u.codec != Codec::Raw));
        assert!(stored("used.dasf", &steps) == fresh);
    }
}
