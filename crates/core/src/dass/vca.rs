//! The Virtually Concatenated Array (paper §IV): many small DAS files
//! presented as one logical `channel × time` array, without copying data.

use super::metadata::DasFileMeta;
use super::plan::{IoExecutor, IoPlan};
use super::search::{FileCatalog, FileEntry};
use crate::{DassaError, Result};
use arrayudf::Array2;
use dasf::{File, Value, Writer};
use std::ops::Range;
use std::path::Path;

/// A virtually concatenated array over time-ordered DAS files.
///
/// Construction touches only metadata (Figure 6: creating a VCA over
/// 2880 files takes ~0.01 s vs hours for a real concatenation). Reads
/// resolve global coordinates to per-file hyperslabs on the fly.
#[derive(Debug, Clone)]
pub struct Vca {
    entries: Vec<FileEntry>,
    /// Exclusive prefix sum of per-file sample counts; length
    /// `n_files + 1`, last element = total samples.
    time_offsets: Vec<u64>,
    channels: u64,
    sampling_hz: i64,
}

impl Vca {
    /// Build a VCA from catalog entries (e.g. the result of a
    /// `das_search` query). Members must agree on channel count and
    /// sampling rate; they are sorted by timestamp.
    pub fn from_entries(entries: &[FileEntry]) -> Result<Vca> {
        if entries.is_empty() {
            return Err(DassaError::BadSelection(
                "VCA needs at least one file".into(),
            ));
        }
        let mut entries = entries.to_vec();
        entries.sort_by_key(|e| e.meta.timestamp);
        let channels = entries[0].meta.channels;
        let sampling_hz = entries[0].meta.sampling_hz;
        for e in &entries {
            if e.meta.channels != channels {
                return Err(DassaError::Inconsistent(format!(
                    "{}: {} channels, expected {channels}",
                    e.path.display(),
                    e.meta.channels
                )));
            }
            if e.meta.sampling_hz != sampling_hz {
                return Err(DassaError::Inconsistent(format!(
                    "{}: {} Hz, expected {sampling_hz}",
                    e.path.display(),
                    e.meta.sampling_hz
                )));
            }
        }
        let mut time_offsets = Vec::with_capacity(entries.len() + 1);
        let mut acc = 0u64;
        for e in &entries {
            time_offsets.push(acc);
            acc += e.meta.samples;
        }
        time_offsets.push(acc);
        Ok(Vca {
            entries,
            time_offsets,
            channels,
            sampling_hz,
        })
    }

    /// Number of channels (rows of the logical array).
    pub fn channels(&self) -> u64 {
        self.channels
    }

    /// Total time samples across all member files (columns).
    pub fn total_samples(&self) -> u64 {
        *self.time_offsets.last().expect("non-empty")
    }

    /// Sampling rate in Hz.
    pub fn sampling_hz(&self) -> i64 {
        self.sampling_hz
    }

    /// Number of member files.
    pub fn n_files(&self) -> usize {
        self.entries.len()
    }

    /// Member files in time order.
    pub fn entries(&self) -> &[FileEntry] {
        &self.entries
    }

    /// Metadata for a file holding the whole concatenation: the first
    /// member's provenance (timestamp, spatial resolution) with the
    /// merged shape — what RCA creation stamps on its output.
    pub fn merged_meta(&self) -> DasFileMeta {
        let first = &self.entries[0].meta;
        DasFileMeta {
            sampling_hz: self.sampling_hz(),
            spatial_resolution_m: first.spatial_resolution_m,
            timestamp: first.timestamp,
            channels: self.channels(),
            samples: self.total_samples(),
        }
    }

    /// Samples contributed by member `i`.
    pub fn samples_of(&self, i: usize) -> u64 {
        self.time_offsets[i + 1] - self.time_offsets[i]
    }

    /// Global time offset at which member `i` starts.
    pub fn time_offset_of(&self, i: usize) -> u64 {
        self.time_offsets[i]
    }

    /// Are the member timestamps gap-free?
    pub fn is_contiguous(&self) -> bool {
        FileCatalog::is_contiguous(&self.entries)
    }

    /// Decompose a global time range into `(file_index, local_range)`
    /// pieces, in order.
    pub fn map_time_range(&self, t: Range<u64>) -> Vec<(usize, Range<u64>)> {
        let mut out = Vec::new();
        if t.start >= t.end {
            return out;
        }
        for (i, _) in self.entries.iter().enumerate() {
            let f_start = self.time_offsets[i];
            let f_end = self.time_offsets[i + 1];
            let lo = t.start.max(f_start);
            let hi = t.end.min(f_end);
            if lo < hi {
                out.push((i, (lo - f_start)..(hi - f_start)));
            }
        }
        out
    }

    /// Serial read of a rectangular region (channel range × global time
    /// range) as `f32`, the storage type: one hyperslab plan op per
    /// touched member file, run by the serial [`IoExecutor`].
    pub fn read_region_f32(&self, ch: Range<u64>, t: Range<u64>) -> Result<Array2<f32>> {
        let plan = IoPlan::for_region(self, ch, t)?;
        Ok(IoExecutor::serial().run(&plan)?.0)
    }

    /// Read the whole logical array as `f32`.
    pub fn read_all_f32(&self) -> Result<Array2<f32>> {
        self.read_region_f32(0..self.channels, 0..self.total_samples())
    }

    /// Read the whole logical array widened to `f64` for analysis.
    pub fn read_all_f64(&self) -> Result<Array2<f64>> {
        let a = self.read_all_f32()?;
        let (rows, cols) = (a.rows(), a.cols());
        let data = a.into_vec().into_iter().map(|v| v as f64).collect();
        Ok(Array2::from_vec(rows, cols, data))
    }

    /// Persist the VCA as a *logical file*: only member paths and shape
    /// metadata, no data — the paper's "VCA creates a logical file which
    /// only contains the metadata (e.g., name) of all files to merge".
    pub fn save(&self, path: &Path) -> Result<()> {
        let mut w = Writer::create(path)?;
        w.set_attr("/", "vca.members", Value::Int(self.entries.len() as i64))?;
        w.set_attr("/", "vca.channels", Value::Int(self.channels as i64))?;
        w.set_attr("/", "vca.sampling_hz", Value::Int(self.sampling_hz))?;
        for (i, e) in self.entries.iter().enumerate() {
            w.set_attr(
                "/",
                &format!("vca.member.{i}"),
                Value::Str(e.path.display().to_string()),
            )?;
        }
        w.finish()?;
        Ok(())
    }

    /// Load a VCA descriptor saved by [`Vca::save`], re-opening member
    /// metadata (members must still exist on disk).
    pub fn load(path: &Path) -> Result<Vca> {
        let f = File::open(path)?;
        let n = f
            .attr("/", "vca.members")
            .and_then(|v| v.as_int())
            .ok_or_else(|| DassaError::Inconsistent("not a VCA descriptor".into()))?;
        let n = u64::try_from(n)
            .map_err(|_| DassaError::Inconsistent(format!("negative member count {n}")))?;
        // Sized by the members found, not by the count the file claims.
        let mut entries = Vec::new();
        for i in 0..n {
            let member = f
                .attr("/", &format!("vca.member.{i}"))
                .and_then(|v| v.as_str())
                .ok_or_else(|| DassaError::Inconsistent(format!("missing member {i}")))?;
            let mf = File::open(member)?;
            let meta = super::metadata::DasFileMeta::from_file(&mf)?;
            entries.push(FileEntry {
                path: member.into(),
                meta,
            });
        }
        Vca::from_entries(&entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dass::search::tests::make_files;
    use crate::dass::FileCatalog;

    fn catalog(tag: &str, n: usize, channels: u64, samples: u64) -> FileCatalog {
        let dir = make_files(tag, "170728224510", n, channels, samples);
        FileCatalog::scan(&dir).unwrap()
    }

    #[test]
    fn shape_is_concatenation() {
        let cat = catalog("vca-shape", 4, 3, 60);
        let vca = Vca::from_entries(cat.entries()).unwrap();
        assert_eq!(vca.channels(), 3);
        assert_eq!(vca.total_samples(), 240);
        assert_eq!(vca.n_files(), 4);
        assert!(vca.is_contiguous());
    }

    #[test]
    fn map_time_range_splits_at_file_boundaries() {
        let cat = catalog("vca-map", 3, 2, 60);
        let vca = Vca::from_entries(cat.entries()).unwrap();
        assert_eq!(vca.map_time_range(0..60), vec![(0, 0..60)]);
        assert_eq!(vca.map_time_range(30..90), vec![(0, 30..60), (1, 0..30)]);
        assert_eq!(
            vca.map_time_range(10..180),
            vec![(0, 10..60), (1, 0..60), (2, 0..60)]
        );
        assert!(vca.map_time_range(5..5).is_empty());
    }

    #[test]
    fn read_region_crosses_files_correctly() {
        // make_files encodes value = file*1e6 + ch*1000 + t.
        let cat = catalog("vca-read", 3, 4, 60);
        let vca = Vca::from_entries(cat.entries()).unwrap();
        let block = vca.read_region_f32(1..3, 50..130).unwrap();
        assert_eq!(block.rows(), 2);
        assert_eq!(block.cols(), 80);
        // Global t=50 is file 0 local 50; t=70 is file 1 local 10 …
        assert_eq!(block.get(0, 0), 1050.0); // ch 1, file 0, t 50
        assert_eq!(block.get(0, 10), 1_001_000.0); // ch 1, file 1, t 0
        assert_eq!(block.get(1, 79), 2_002_009.0); // ch 2, file 2, t 9
    }

    #[test]
    fn read_all_matches_manual_assembly() {
        let cat = catalog("vca-all", 2, 3, 30);
        let vca = Vca::from_entries(cat.entries()).unwrap();
        let all = vca.read_all_f32().unwrap();
        assert_eq!(all.rows(), 3);
        assert_eq!(all.cols(), 60);
        assert_eq!(all.get(2, 0), 2000.0);
        assert_eq!(all.get(2, 30), 1_002_000.0);
    }

    #[test]
    fn invalid_selections_rejected() {
        let cat = catalog("vca-bad", 2, 3, 30);
        let vca = Vca::from_entries(cat.entries()).unwrap();
        assert!(vca.read_region_f32(0..4, 0..10).is_err());
        assert!(vca.read_region_f32(2..2, 0..10).is_err());
        assert!(vca.read_region_f32(0..1, 0..61).is_err());
        assert!(vca.read_region_f32(0..1, 10..10).is_err());
    }

    #[test]
    fn mismatched_members_rejected() {
        let cat_a = catalog("vca-mix-a", 1, 3, 30);
        let cat_b = catalog("vca-mix-b", 1, 5, 30);
        let mut entries = cat_a.entries().to_vec();
        entries.extend(cat_b.entries().to_vec());
        assert!(matches!(
            Vca::from_entries(&entries),
            Err(DassaError::Inconsistent(_))
        ));
    }

    #[test]
    fn empty_vca_rejected() {
        assert!(matches!(
            Vca::from_entries(&[]),
            Err(DassaError::BadSelection(_))
        ));
    }

    #[test]
    fn save_load_round_trip() {
        let cat = catalog("vca-save", 3, 2, 30);
        let vca = Vca::from_entries(cat.entries()).unwrap();
        let desc = std::env::temp_dir().join("dassa-search-vca-save/my.vca.dasf");
        vca.save(&desc).unwrap();
        let back = Vca::load(&desc).unwrap();
        assert_eq!(back.channels(), vca.channels());
        assert_eq!(back.total_samples(), vca.total_samples());
        assert_eq!(back.n_files(), vca.n_files());
        // Descriptor is tiny: metadata only.
        let size = std::fs::metadata(&desc).unwrap().len();
        assert!(size < 4096, "descriptor unexpectedly large: {size} bytes");
    }

    #[test]
    fn load_rejects_hostile_member_counts_without_sizing_from_them() {
        let cat = catalog("vca-hostile", 1, 2, 30);
        let member = cat.entries()[0].path.display().to_string();
        for count in [-1i64, 1 << 40] {
            let desc =
                std::env::temp_dir().join(format!("dassa-search-vca-hostile/{count}.vca.dasf"));
            let mut w = Writer::create(&desc).unwrap();
            w.set_attr("/", "vca.members", Value::Int(count)).unwrap();
            w.set_attr("/", "vca.member.0", Value::Str(member.clone()))
                .unwrap();
            w.finish().unwrap();
            assert!(
                matches!(Vca::load(&desc), Err(DassaError::Inconsistent(_))),
                "{count} members"
            );
        }
    }

    #[test]
    fn load_rejects_non_descriptor() {
        let cat = catalog("vca-notdesc", 1, 2, 30);
        let member = cat.entries()[0].path.clone();
        assert!(matches!(
            Vca::load(&member),
            Err(DassaError::Inconsistent(_))
        ));
    }
}
