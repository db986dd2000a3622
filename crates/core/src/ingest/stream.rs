//! The incremental VCA: a minute-keyed index of admitted files.
//!
//! A batch [`Vca`](crate::dass::Vca) is built once from a complete,
//! contiguous catalog. Streams have neither property — files arrive out
//! of order, some minutes never arrive — so ingest keeps a
//! [`MinuteIndex`] instead: admitted files keyed by their epoch minute,
//! merged one metadata record at a time (the paper's Table I "cheap
//! metadata merge", no array data moves). Gaps are first-class: window
//! reads zero-fill missing minutes and account for them, mirroring the
//! batch reader's `ReadReport`.

use crate::dass::plan::read_member_into;
use crate::dass::{FileEntry, DATASET_PATH};
use crate::{DassaError, Result};
use arrayudf::Array2;
use std::collections::BTreeMap;
use std::ops::Range;

/// The fixed geometry of a minute stream, pinned by the first admitted
/// file; every later admission must agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamShape {
    /// Channels per file.
    pub channels: u64,
    /// Sampling rate in Hz.
    pub sampling_hz: i64,
    /// Time samples per minute file (`sampling_hz * 60`).
    pub samples_per_minute: u64,
}

/// What [`MinuteIndex::admit`] did with a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// The minute was vacant; the file now backs it.
    Admitted,
    /// The minute is already backed by an earlier admission
    /// (first-writer-wins; inspect [`MinuteIndex::entry_at`] to tell a
    /// re-delivery of the same path from a conflicting second path).
    Duplicate,
}

/// One window's worth of samples plus its gap accounting.
#[derive(Debug, Clone)]
pub struct WindowData {
    /// `channels × (minutes · samples_per_minute)`, missing minutes
    /// zero-filled.
    pub data: Array2<f32>,
    /// Minutes backed by a readable file.
    pub present_minutes: u64,
    /// Minutes zero-filled (absent, or present but unreadable).
    pub gap_minutes: u64,
    /// Samples zero-filled (`gap_minutes × channels × samples_per_minute`).
    pub gap_samples: u64,
    /// Zero-filled runs as absolute epoch-minute ranges, ascending.
    pub gap_spans: Vec<Range<u64>>,
}

/// Admitted minute files, keyed by [`crate::dass::Timestamp::epoch_minutes`].
#[derive(Debug, Default)]
pub struct MinuteIndex {
    shape: Option<StreamShape>,
    minutes: BTreeMap<u64, FileEntry>,
}

impl MinuteIndex {
    /// Empty index; the first admission pins the stream shape.
    pub fn new() -> MinuteIndex {
        MinuteIndex::default()
    }

    /// Geometry pinned by the first admission, if any.
    pub fn shape(&self) -> Option<StreamShape> {
        self.shape
    }

    /// Admitted files.
    pub fn len(&self) -> usize {
        self.minutes.len()
    }

    /// True before the first admission.
    pub fn is_empty(&self) -> bool {
        self.minutes.is_empty()
    }

    /// Earliest admitted minute.
    pub fn base_minute(&self) -> Option<u64> {
        self.minutes.keys().next().copied()
    }

    /// One past the latest admitted minute (every admitted file covers
    /// exactly one minute).
    pub fn max_end_minute(&self) -> Option<u64> {
        self.minutes.keys().next_back().map(|m| m + 1)
    }

    /// The entry backing `minute`, if admitted.
    pub fn entry_at(&self, minute: u64) -> Option<&FileEntry> {
        self.minutes.get(&minute)
    }

    /// Admitted minutes in ascending order — the stream as the
    /// watermark sees it, whatever order the files arrived in.
    pub fn minutes(&self) -> impl Iterator<Item = u64> + '_ {
        self.minutes.keys().copied()
    }

    /// Merge one validated file into the index. Order-independent and
    /// idempotent: any permutation (with duplicates) of the same entry
    /// set yields the same index, which is what makes the watermark
    /// arithmetic deterministic under out-of-order delivery.
    pub fn admit(&mut self, entry: FileEntry) -> Result<Admit> {
        let meta = &entry.meta;
        if meta.duration_minutes() != 1 {
            return Err(DassaError::Inconsistent(format!(
                "{}: ingest expects one-minute files, this one covers {} minute(s) \
                 ({} samples at {} Hz)",
                entry.path.display(),
                meta.duration_minutes(),
                meta.samples,
                meta.sampling_hz
            )));
        }
        let shape = StreamShape {
            channels: meta.channels,
            sampling_hz: meta.sampling_hz,
            samples_per_minute: meta.samples,
        };
        match self.shape {
            None => self.shape = Some(shape),
            Some(fixed) if fixed != shape => {
                return Err(DassaError::Inconsistent(format!(
                    "{}: shape {}ch x {}spm @ {}Hz disagrees with the stream's \
                     {}ch x {}spm @ {}Hz",
                    entry.path.display(),
                    shape.channels,
                    shape.samples_per_minute,
                    shape.sampling_hz,
                    fixed.channels,
                    fixed.samples_per_minute,
                    fixed.sampling_hz
                )));
            }
            Some(_) => {}
        }
        let minute = meta.timestamp.epoch_minutes();
        match self.minutes.entry(minute) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(entry);
                Ok(Admit::Admitted)
            }
            std::collections::btree_map::Entry::Occupied(_) => Ok(Admit::Duplicate),
        }
    }

    /// The unadmitted runs inside `range`, ascending — the spans a
    /// window read will zero-fill.
    pub fn gap_spans(&self, range: Range<u64>) -> Vec<Range<u64>> {
        let mut spans = Vec::new();
        let mut cursor = range.start;
        for &m in self.minutes.range(range.clone()).map(|(m, _)| m) {
            if m > cursor {
                spans.push(cursor..m);
            }
            cursor = m + 1;
        }
        if cursor < range.end {
            spans.push(cursor..range.end);
        }
        spans
    }

    /// Read `minutes` minutes starting at `start_minute` as one
    /// `channel × time` array. Missing minutes are zero-filled; a
    /// minute whose file fails to read *after* admission (moved,
    /// re-torn, bit-rotted) degrades to a gap too — an always-on loop
    /// must emit a partial window rather than die.
    ///
    /// Panics if called before the first admission (the daemon never
    /// seals a window on an empty index).
    pub fn read_window(&self, start_minute: u64, minutes: u64) -> WindowData {
        let shape = self.shape.expect("read_window on an empty index");
        let ch = shape.channels as usize;
        let spm = shape.samples_per_minute as usize;
        let mut data = Array2::<f32>::zeroed(ch, minutes as usize * spm);
        let mut present = vec![false; minutes as usize];
        for off in 0..minutes {
            let Some(entry) = self.minutes.get(&(start_minute + off)) else {
                continue;
            };
            // Straight into the minute's columns, which stay zero — a
            // gap — if the read fails, however far it got.
            let t0 = off as usize * spm;
            let read = read_member_into(&entry.path, DATASET_PATH, None, (ch, spm), &mut data, t0);
            present[off as usize] = read.is_ok();
        }
        let present_minutes = present.iter().filter(|p| **p).count() as u64;
        let gap_minutes = minutes - present_minutes;
        let mut gap_spans = Vec::new();
        let mut cursor: Option<u64> = None;
        for (off, ok) in present.iter().enumerate() {
            let m = start_minute + off as u64;
            match (ok, cursor) {
                (false, None) => cursor = Some(m),
                (true, Some(s)) => {
                    gap_spans.push(s..m);
                    cursor = None;
                }
                _ => {}
            }
        }
        if let Some(s) = cursor {
            gap_spans.push(s..start_minute + minutes);
        }
        WindowData {
            data,
            present_minutes,
            gap_minutes,
            gap_samples: gap_minutes * shape.channels * shape.samples_per_minute,
            gap_spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dass::search::tests::make_files;
    use crate::dass::FileCatalog;

    fn entries(tag: &str, start: &str, n: usize) -> Vec<FileEntry> {
        let dir = make_files(tag, start, n, 3, 60);
        FileCatalog::scan(&dir).unwrap().entries().to_vec()
    }

    #[test]
    fn admit_is_order_independent_and_dedups() {
        let mut es = entries("ingest-order", "170728224510", 5);
        let minutes: Vec<u64> = es
            .iter()
            .map(|e| e.meta.timestamp.epoch_minutes())
            .collect();

        let mut forward = MinuteIndex::new();
        for e in &es {
            assert_eq!(forward.admit(e.clone()).unwrap(), Admit::Admitted);
        }
        es.reverse();
        let mut backward = MinuteIndex::new();
        for e in &es {
            backward.admit(e.clone()).unwrap();
        }
        assert_eq!(forward.base_minute(), backward.base_minute());
        assert_eq!(forward.max_end_minute(), backward.max_end_minute());
        assert_eq!(forward.base_minute(), Some(minutes[0]));
        assert_eq!(forward.max_end_minute(), Some(minutes[4] + 1));

        // Re-delivery of an already-admitted minute is a duplicate.
        assert_eq!(backward.admit(es[0].clone()).unwrap(), Admit::Duplicate);
        assert_eq!(backward.len(), 5);
    }

    #[test]
    fn shape_disagreement_is_rejected() {
        let a = entries("ingest-shape-a", "170728224510", 1);
        let b = entries("ingest-shape-b", "170728225510", 1);
        let mut wide = b[0].clone();
        wide.meta.channels = 7; // lies about geometry
        let mut idx = MinuteIndex::new();
        idx.admit(a[0].clone()).unwrap();
        assert!(matches!(idx.admit(wide), Err(DassaError::Inconsistent(_))));
    }

    #[test]
    fn multi_minute_files_are_rejected() {
        let a = entries("ingest-multi", "170728224510", 1);
        let mut long = a[0].clone();
        long.meta.samples *= 2; // two minutes at the same rate
        assert!(matches!(
            MinuteIndex::new().admit(long),
            Err(DassaError::Inconsistent(_))
        ));
    }

    #[test]
    fn gap_spans_complement_admitted_minutes() {
        let es = entries("ingest-gaps", "170728224510", 5);
        let base = es[0].meta.timestamp.epoch_minutes();
        let mut idx = MinuteIndex::new();
        for (i, e) in es.iter().enumerate() {
            if i != 1 && i != 2 {
                idx.admit(e.clone()).unwrap();
            }
        }
        assert_eq!(idx.gap_spans(base..base + 5), vec![base + 1..base + 3]);
        assert_eq!(
            idx.gap_spans(base..base + 7),
            vec![base + 1..base + 3, base + 5..base + 7]
        );
        assert!(idx.gap_spans(base..base + 1).is_empty());
    }

    #[test]
    fn read_window_zero_fills_and_accounts_gaps() {
        let es = entries("ingest-window", "170728224510", 4);
        let base = es[0].meta.timestamp.epoch_minutes();
        let mut idx = MinuteIndex::new();
        for (i, e) in es.iter().enumerate() {
            if i != 2 {
                idx.admit(e.clone()).unwrap();
            }
        }
        let w = idx.read_window(base, 4);
        assert_eq!(w.data.rows(), 3);
        assert_eq!(w.data.cols(), 4 * 60);
        assert_eq!(w.present_minutes, 3);
        assert_eq!(w.gap_minutes, 1);
        assert_eq!(w.gap_samples, 3 * 60);
        assert_eq!(w.gap_spans, vec![base + 2..base + 3]);
        // The missing minute is exactly zero; a present one is not.
        let zeroed = &w.data.as_slice()[2 * 60..3 * 60];
        assert!(zeroed.iter().all(|v| *v == 0.0));
        // make_files value = file*1e6 + ch*1000 + t; minute 1 is file 1.
        assert_eq!(w.data.as_slice()[60], 1_000_000.0);
    }

    #[test]
    fn read_window_degrades_missing_file_to_gap() {
        let es = entries("ingest-degrade", "170728224510", 2);
        let base = es[0].meta.timestamp.epoch_minutes();
        let mut idx = MinuteIndex::new();
        for e in &es {
            idx.admit(e.clone()).unwrap();
        }
        // Yank the second file out from under the index.
        std::fs::remove_file(&es[1].path).unwrap();
        let w = idx.read_window(base, 2);
        assert_eq!(w.present_minutes, 1);
        assert_eq!(w.gap_spans, vec![base + 1..base + 2]);
    }

    #[test]
    fn read_window_zeroes_a_minute_that_rots_in_its_last_unit() {
        // The minute is read straight into the window, and its first two
        // units decode before the third fails its checksum: the gap must
        // still be exactly zero, and exactly accounted.
        use crate::dass::search::tests::plan_rotting_last_unit;
        let (channels, spm) = (6u64, 6_000u64);
        let dir = make_files("ingest-rot-last-unit", "170728224510", 2, channels, spm);
        let es = FileCatalog::scan(&dir).unwrap().entries().to_vec();
        let base = es[0].meta.timestamp.epoch_minutes();
        let mut idx = MinuteIndex::new();
        for e in &es {
            idx.admit(e.clone()).unwrap();
        }
        let faults = plan_rotting_last_unit(&es[0].path, &[&es[1].path]);
        let w = faultline::with_plan(faults, || idx.read_window(base, 2));
        assert_eq!((w.present_minutes, w.gap_minutes), (1, 1));
        assert_eq!(w.gap_samples, channels * spm);
        assert_eq!(w.gap_spans, vec![base..base + 1]);
        for r in 0..channels as usize {
            let row = w.data.row(r);
            assert!(row[..spm as usize].iter().all(|v| *v == 0.0), "row {r}");
            // make_files value = file*1e6 + ch*1000 + t; minute 1 is file 1
            assert_eq!(row[spm as usize], (1_000_000 + r * 1000) as f32);
            assert_eq!(
                row[2 * spm as usize - 1],
                (1_000_000 + r * 1000 + 5_999) as f32
            );
        }
    }
}
