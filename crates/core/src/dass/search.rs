//! `das_search` (paper §IV-A): find DAS files by timestamp range or by
//! regular expression over the file catalog's metadata.

use super::metadata::DasFileMeta;
use super::timestamp::Timestamp;
use crate::{DassaError, Result};
use dasf::File;
use regexlite::Regex;
use std::path::{Path, PathBuf};

/// One searchable DAS file: its path plus the parsed metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct FileEntry {
    /// Absolute or catalog-relative path of the dasf file.
    pub path: PathBuf,
    /// Global metadata parsed at scan time.
    pub meta: DasFileMeta,
}

/// An in-memory catalog of DAS files, sorted by timestamp.
///
/// Scanning opens each file *metadata-only* — this is the operation
/// Figure 6 measures: searching 2880 files takes milliseconds because no
/// array data moves.
#[derive(Debug, Clone, Default)]
pub struct FileCatalog {
    entries: Vec<FileEntry>,
}

impl FileCatalog {
    /// Scan `dir` (non-recursively) for `.dasf` files and parse their
    /// metadata. Files that fail to open or lack metadata are an error —
    /// a corrupt acquisition should be loud, not silently skipped.
    pub fn scan<P: AsRef<Path>>(dir: P) -> Result<FileCatalog> {
        let mut entries = Vec::new();
        for entry in std::fs::read_dir(dir.as_ref())? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("dasf") {
                continue;
            }
            let file = File::open(&path)?;
            let meta = DasFileMeta::from_file(&file)?;
            entries.push(FileEntry { path, meta });
        }
        entries.sort_by_key(|e| e.meta.timestamp);
        Ok(FileCatalog { entries })
    }

    /// Build a catalog from pre-parsed entries (sorted on construction).
    pub fn from_entries(mut entries: Vec<FileEntry>) -> FileCatalog {
        entries.sort_by_key(|e| e.meta.timestamp);
        FileCatalog { entries }
    }

    /// All entries, in timestamp order.
    pub fn entries(&self) -> &[FileEntry] {
        &self.entries
    }

    /// Number of files in the catalog.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the catalog holds no files.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Type-1 query (`das_search -s <ts> -c <n>`): the file at timestamp
    /// `start` plus the next `count` files. The paper's example
    /// `-s 170728224510 -c 2` returns three files.
    ///
    /// `start` is the numeric `yymmddhhmmss` timestamp.
    pub fn search_range(&self, start: u64, count: usize) -> Result<Vec<FileEntry>> {
        let start_ts = Timestamp::parse_u64(start)?;
        let begin = self
            .entries
            .partition_point(|e| e.meta.timestamp < start_ts);
        if begin == self.entries.len() {
            return Err(DassaError::BadSelection(format!(
                "no file at or after timestamp {start}"
            )));
        }
        let end = begin
            .saturating_add(count)
            .saturating_add(1)
            .min(self.entries.len());
        Ok(self.entries[begin..end].to_vec())
    }

    /// Type-2 query (`das_search -e <regex>`): entries whose file name
    /// (or compact timestamp) matches the pattern. The paper's example:
    /// `das_search -e 170728224[567]10`.
    pub fn search_regex(&self, pattern: &str) -> Result<Vec<FileEntry>> {
        let re = Regex::new(pattern)?;
        Ok(self
            .entries
            .iter()
            .filter(|e| {
                let name = e
                    .path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or_default();
                re.is_match(name) || re.is_match(&e.meta.timestamp.to_compact())
            })
            .cloned()
            .collect())
    }

    /// Are the entries' timestamps contiguous (each file starts exactly
    /// where the previous one ends)? VCA construction checks this.
    pub fn is_contiguous(entries: &[FileEntry]) -> bool {
        entries.windows(2).all(|w| {
            let dur = w[0].meta.duration_minutes().max(1);
            w[0].meta.timestamp.add_minutes(dur) == w[1].meta.timestamp
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dass::metadata::{das_file_name, write_das_file, DATASET_PATH};
    use arrayudf::Array2;

    /// Create `n` one-minute DAS files starting at `start` in a fresh
    /// temp dir; returns the dir.
    pub(crate) fn make_files(
        tag: &str,
        start: &str,
        n: usize,
        channels: u64,
        samples: u64,
    ) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dassa-search-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let t0 = Timestamp::parse(start).unwrap();
        for i in 0..n {
            let ts = t0.add_minutes(i as u64);
            let meta = DasFileMeta {
                sampling_hz: (samples / 60).max(1) as i64,
                spatial_resolution_m: 2.0,
                timestamp: ts,
                channels,
                samples,
            };
            let data = Array2::from_fn(channels as usize, samples as usize, |r, c| {
                (i * 1_000_000 + r * 1000 + c) as f32
            });
            write_das_file(&dir.join(das_file_name(&ts)), &meta, &data).unwrap();
        }
        dir
    }

    /// A `dasf.read.corrupt` plan under which `rotten` reads back a
    /// flipped byte in its *last* verify unit — a reader has decoded
    /// every earlier unit into its destination by the time the
    /// checksum fails — while every file in `sound` reads clean.
    pub(crate) fn plan_rotting_last_unit(
        rotten: &std::path::Path,
        sound: &[&std::path::Path],
    ) -> std::sync::Arc<faultline::FaultPlan> {
        use faultline::{site::DASF_READ_CORRUPT, FaultPlan};
        let fires = |plan: &FaultPlan, p: &std::path::Path| {
            let name = p.file_name().expect("member file name");
            plan.fires(
                DASF_READ_CORRUPT,
                faultline::key_of(name.as_encoded_bytes()),
            )
        };
        (0..100_000)
            .map(|seed| std::sync::Arc::new(FaultPlan::new(seed).with(DASF_READ_CORRUPT, 0.5)))
            .find(|plan| {
                fires(plan, rotten)
                    && !sound.iter().any(|p| fires(plan, p))
                    && faultline::with_plan(std::sync::Arc::clone(plan), || {
                        // where the rot sits, as the scrub sees it
                        let f = dasf::File::open(rotten).expect("open");
                        let units = f.dataset(DATASET_PATH).expect("dataset").checksums.len();
                        let faults = f.verify_all().expect("scrub").mismatches;
                        units > 1 && faults.len() == 1 && faults[0].chunk == units - 1
                    })
            })
            .expect("some seed rots the last unit")
    }

    #[test]
    fn scan_sorts_by_timestamp() {
        let dir = make_files("scan", "170728224510", 5, 3, 60);
        let cat = FileCatalog::scan(&dir).unwrap();
        assert_eq!(cat.len(), 5);
        for w in cat.entries().windows(2) {
            assert!(w[0].meta.timestamp < w[1].meta.timestamp);
        }
    }

    #[test]
    fn range_query_matches_paper_example() {
        let dir = make_files("range", "170728224510", 6, 2, 60);
        let cat = FileCatalog::scan(&dir).unwrap();
        // -s 170728224510 -c 2 → three files
        let hits = cat.search_range(170728224510, 2).unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].meta.timestamp.to_compact(), "170728224510");
        assert_eq!(hits[2].meta.timestamp.to_compact(), "170728224710");
    }

    #[test]
    fn range_query_clamps_at_catalog_end() {
        let dir = make_files("clamp", "170728224510", 3, 2, 60);
        let cat = FileCatalog::scan(&dir).unwrap();
        let hits = cat.search_range(170728224510, 100).unwrap();
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn range_query_count_near_usize_max_returns_the_tail() {
        let dir = make_files("huge-count", "170728224510", 4, 2, 60);
        let cat = FileCatalog::scan(&dir).unwrap();
        let stamps = |hits: Vec<FileEntry>| -> Vec<String> {
            hits.iter().map(|e| e.meta.timestamp.to_compact()).collect()
        };
        let all = cat.search_range(170728224510, usize::MAX).unwrap();
        assert_eq!(stamps(all), stamps(cat.entries().to_vec()));
        let tail = cat.search_range(170728224610, usize::MAX - 1).unwrap();
        assert_eq!(stamps(tail), stamps(cat.entries()[1..].to_vec()));
    }

    #[test]
    fn range_query_start_between_files() {
        let dir = make_files("between", "170728224510", 3, 2, 60);
        let cat = FileCatalog::scan(&dir).unwrap();
        // 170728224530 is mid-minute; the next file starts at ...4610.
        let hits = cat.search_range(170728224530, 0).unwrap();
        assert_eq!(hits[0].meta.timestamp.to_compact(), "170728224610");
    }

    #[test]
    fn range_query_past_end_errors() {
        let dir = make_files("pastend", "170728224510", 2, 2, 60);
        let cat = FileCatalog::scan(&dir).unwrap();
        assert!(matches!(
            cat.search_range(180101000000, 1),
            Err(DassaError::BadSelection(_))
        ));
    }

    #[test]
    fn regex_query_matches_paper_example() {
        let dir = make_files("regex", "170728224510", 6, 2, 60);
        let cat = FileCatalog::scan(&dir).unwrap();
        // das_search -e 170728224[567]10
        let hits = cat.search_regex("170728224[567]10").unwrap();
        let stamps: Vec<String> = hits.iter().map(|e| e.meta.timestamp.to_compact()).collect();
        assert_eq!(stamps, vec!["170728224510", "170728224610", "170728224710"]);
    }

    #[test]
    fn regex_rejects_bad_pattern() {
        let cat = FileCatalog::default();
        assert!(matches!(cat.search_regex("(["), Err(DassaError::Regex(_))));
    }

    #[test]
    fn contiguity_check() {
        let dir = make_files("contig", "170728235810", 4, 2, 60);
        let cat = FileCatalog::scan(&dir).unwrap();
        assert!(FileCatalog::is_contiguous(cat.entries()));
        // Drop the middle file → gap.
        let gappy: Vec<FileEntry> = cat
            .entries()
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, e)| e.clone())
            .collect();
        assert!(!FileCatalog::is_contiguous(&gappy));
    }

    #[test]
    fn scan_ignores_non_dasf_files() {
        let dir = make_files("mixed", "170728224510", 2, 2, 60);
        std::fs::write(dir.join("notes.txt"), "hello").unwrap();
        let cat = FileCatalog::scan(&dir).unwrap();
        assert_eq!(cat.len(), 2);
    }

    #[test]
    fn scan_errors_on_corrupt_dasf() {
        let dir = make_files("corrupt", "170728224510", 1, 2, 60);
        std::fs::write(dir.join("bad.dasf"), b"not a dasf file").unwrap();
        assert!(FileCatalog::scan(&dir).is_err());
    }
}
