//! Scrubbing: offline integrity verification of dasf file trees.
//!
//! Backs the `das_fsck` tool. A scrub opens every `.dasf` file under
//! the given paths, verifies every checksum unit (see
//! [`dasf::File::verify_all`]), and classifies each file:
//!
//! * **clean** — v3, every unit hashed and matched;
//! * **clean-unverified** — opened fine but carries no checksums (v2);
//! * **torn** — truncated / interrupted mid-write (`Truncated`);
//! * **corrupt** — bytes present but wrong (`ChecksumMismatch`,
//!   `BadMagic`, structural `Corrupt`);
//! * **error** — the host filesystem failed us (`Io`).
//!
//! The distinction matters operationally: a torn file is the tail of a
//! crash and its writer may be re-run; a corrupt file is bit-rot and
//! needs restoring from a replica. Quarantine moves damaged files into
//! a side directory so the catalog scan ([`super::FileCatalog`]) stops
//! picking them up.

use dasf::{DasfError, File};
use obs::Counter;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Metric names recorded by scrubs in the global `obs` registry.
pub mod metric_names {
    /// Files examined.
    pub const SCANNED: &str = "fsck.scanned";
    /// Files fully verified clean (including v2 `clean-unverified`).
    pub const CLEAN: &str = "fsck.clean";
    /// Files with checksum mismatches or structural corruption.
    pub const CORRUPT: &str = "fsck.corrupt";
    /// Files truncated mid-write.
    pub const TORN: &str = "fsck.torn";
}

struct Metrics {
    scanned: Counter,
    clean: Counter,
    corrupt: Counter,
    torn: Counter,
}

fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global();
        Metrics {
            scanned: reg.counter(metric_names::SCANNED),
            clean: reg.counter(metric_names::CLEAN),
            corrupt: reg.counter(metric_names::CORRUPT),
            torn: reg.counter(metric_names::TORN),
        }
    })
}

/// Scrub classification of one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileStatus {
    /// Every checksum unit verified.
    Clean,
    /// Opened and structurally sound, but the format carries no
    /// checksums to verify (v2).
    CleanUnverified,
    /// Checksum mismatch or structural corruption: bytes are wrong.
    Corrupt,
    /// Truncated / interrupted mid-write: bytes are missing.
    Torn,
    /// The filesystem failed (permission, disappearing file, …).
    Error,
}

impl FileStatus {
    /// The machine-readable status string used in JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FileStatus::Clean => "clean",
            FileStatus::CleanUnverified => "clean-unverified",
            FileStatus::Corrupt => "corrupt",
            FileStatus::Torn => "torn",
            FileStatus::Error => "error",
        }
    }

    /// True for the two undamaged classifications.
    pub fn is_clean(self) -> bool {
        matches!(self, FileStatus::Clean | FileStatus::CleanUnverified)
    }
}

impl fmt::Display for FileStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One scrubbed file.
#[derive(Debug, Clone)]
pub struct FileVerdict {
    /// The file scrubbed.
    pub path: PathBuf,
    /// Its classification.
    pub status: FileStatus,
    /// Human-readable evidence (first mismatch, error text, …).
    pub detail: String,
    /// Codec label of the file's datasets (`raw`, `shuffle-lz`,
    /// `quant:<bound>`), or `-` when the file could not be opened.
    pub codec: String,
    /// On-disk payload bytes over raw payload bytes inverted:
    /// `raw / stored` across all datasets (1.0 for uncompressed files,
    /// 0.0 when unknown).
    pub compress_ratio: f64,
}

impl FileVerdict {
    /// A verdict with no codec information (unopened / damaged file).
    fn without_codec(path: &Path, status: FileStatus, detail: String) -> FileVerdict {
        FileVerdict {
            path: path.to_path_buf(),
            status,
            detail,
            codec: "-".into(),
            compress_ratio: 0.0,
        }
    }
}

/// Aggregate result of scrubbing a set of paths.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Per-file verdicts, sorted by path.
    pub files: Vec<FileVerdict>,
}

impl FsckReport {
    fn count(&self, f: impl Fn(FileStatus) -> bool) -> usize {
        self.files.iter().filter(|v| f(v.status)).count()
    }

    /// Files examined.
    pub fn scanned(&self) -> usize {
        self.files.len()
    }

    /// Undamaged files (clean + clean-unverified).
    pub fn clean(&self) -> usize {
        self.count(FileStatus::is_clean)
    }

    /// Corrupt files.
    pub fn corrupt(&self) -> usize {
        self.count(|s| s == FileStatus::Corrupt)
    }

    /// Torn files.
    pub fn torn(&self) -> usize {
        self.count(|s| s == FileStatus::Torn)
    }

    /// Filesystem errors.
    pub fn errors(&self) -> usize {
        self.count(|s| s == FileStatus::Error)
    }

    /// True when every file scrubbed undamaged.
    pub fn is_clean(&self) -> bool {
        self.files.iter().all(|v| v.status.is_clean())
    }

    /// The damaged (non-clean) verdicts.
    pub fn damaged(&self) -> impl Iterator<Item = &FileVerdict> {
        self.files.iter().filter(|v| !v.status.is_clean())
    }

    /// Render as one machine-readable JSON object:
    /// `{"scanned":N,"clean":N,"corrupt":N,"torn":N,"errors":N,
    ///   "files":[{"path":"…","status":"…","detail":"…",
    ///             "codec":"…","compress_ratio":"N.NNN"},…]}`.
    ///
    /// Emitted through the workspace-shared [`obs::json::JsonWriter`],
    /// the same serializer behind `--metrics` and `--trace` output, so
    /// every binary quotes and escapes identically. The field order
    /// above is load-bearing: `ci.sh` greps for adjacent fields, so new
    /// fields go after `detail`, never between `path` and `status`.
    pub fn to_json(&self) -> String {
        let mut w = obs::json::JsonWriter::with_capacity(256 + self.files.len() * 128);
        w.begin_object();
        w.key("scanned").uint(self.scanned() as u64);
        w.key("clean").uint(self.clean() as u64);
        w.key("corrupt").uint(self.corrupt() as u64);
        w.key("torn").uint(self.torn() as u64);
        w.key("errors").uint(self.errors() as u64);
        w.key("files").begin_array();
        for v in &self.files {
            w.begin_object();
            w.key("path").string(&v.path.display().to_string());
            w.key("status").string(v.status.as_str());
            w.key("detail").string(&v.detail);
            w.key("codec").string(&v.codec);
            // The shared parser admits only unsigned integers, so the
            // ratio travels as a fixed-point string.
            w.key("compress_ratio")
                .string(&format!("{:.3}", v.compress_ratio));
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Codec label and raw/stored compression ratio of an open file,
/// aggregated across its datasets. Uncompressed files report
/// `("raw", 1.0)`.
fn codec_summary(f: &File) -> (String, f64) {
    let mut codec = dasf::Codec::Raw;
    let mut raw = 0u64;
    let mut stored = 0u64;
    for path in f.dataset_paths() {
        if let Ok(meta) = f.dataset(&path) {
            raw += meta.byte_len();
            stored += meta.stored_byte_len();
            if codec == dasf::Codec::Raw {
                codec = meta.codec();
            }
        }
    }
    let ratio = if stored > 0 {
        raw as f64 / stored as f64
    } else {
        1.0
    };
    (codec.label(), ratio)
}

/// Scrub one file: open it, then verify every checksum unit.
pub fn scrub_file(path: &Path) -> FileVerdict {
    let m = metrics();
    m.scanned.inc();
    let count = |status: FileStatus| match status {
        FileStatus::Clean | FileStatus::CleanUnverified => m.clean.inc(),
        FileStatus::Corrupt => m.corrupt.inc(),
        FileStatus::Torn => m.torn.inc(),
        FileStatus::Error => {}
    };
    let f = match File::open(path) {
        Ok(f) => f,
        Err(e) => {
            let (status, detail) = match e {
                DasfError::Truncated => (FileStatus::Torn, "truncated before commit record".into()),
                e @ (DasfError::BadMagic
                | DasfError::ChecksumMismatch { .. }
                | DasfError::Corrupt(_)) => (FileStatus::Corrupt, e.to_string()),
                e => (FileStatus::Error, e.to_string()),
            };
            count(status);
            return FileVerdict::without_codec(path, status, detail);
        }
    };
    let (codec, compress_ratio) = codec_summary(&f);
    let verdict = |status: FileStatus, detail: String| {
        count(status);
        FileVerdict {
            path: path.to_path_buf(),
            status,
            detail,
            codec: codec.clone(),
            compress_ratio,
        }
    };
    match f.verify_all() {
        Err(DasfError::Truncated) => verdict(
            FileStatus::Torn,
            "payload ends before dataset extent".into(),
        ),
        Err(e @ (DasfError::ChecksumMismatch { .. } | DasfError::Corrupt(_))) => {
            verdict(FileStatus::Corrupt, e.to_string())
        }
        Err(e) => verdict(FileStatus::Error, e.to_string()),
        Ok(v) if !v.mismatches.is_empty() => {
            let first = &v.mismatches[0];
            verdict(
                FileStatus::Corrupt,
                format!(
                    "{} checksum mismatch(es), first in dataset {} chunk {}",
                    v.mismatches.len(),
                    first.dataset,
                    first.chunk
                ),
            )
        }
        Ok(v) if v.unverified_datasets > 0 && v.chunks_verified == 0 => verdict(
            FileStatus::CleanUnverified,
            format!("v2 file, {} dataset(s) carry no checksums", v.datasets),
        ),
        Ok(v) => verdict(
            FileStatus::Clean,
            format!(
                "{} chunk(s), {} byte(s) verified",
                v.chunks_verified, v.bytes_verified
            ),
        ),
    }
}

/// Expand files and directory trees into the list of `.dasf` files to
/// scrub (sorted, deduplicated). Explicitly named files are taken as-is
/// regardless of extension; directories are walked recursively.
pub fn collect_targets(paths: &[PathBuf]) -> std::io::Result<Vec<PathBuf>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<std::io::Result<_>>()?;
        entries.sort();
        for p in entries {
            if p.is_dir() {
                walk(&p, out)?;
            } else if p.extension().and_then(|e| e.to_str()) == Some("dasf") {
                out.push(p);
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    for p in paths {
        if p.is_dir() {
            walk(p, &mut out)?;
        } else {
            out.push(p.clone());
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Scrub `targets` with `threads` worker threads (clamped to ≥ 1 and to
/// the number of targets) and return the aggregate report, verdicts
/// sorted by path. The caller is one of the workers, so one thread
/// spawns none.
pub fn scrub_paths(targets: &[PathBuf], threads: usize) -> FsckReport {
    let threads = threads.clamp(1, targets.len().max(1));
    let next = AtomicUsize::new(0);
    let verdicts = Mutex::new(Vec::with_capacity(targets.len()));
    let scrub_rest = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(path) = targets.get(i) else { break };
        let v = scrub_file(path);
        verdicts.lock().unwrap().push(v);
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(scrub_rest);
        }
        scrub_rest();
    });
    let mut files = verdicts.into_inner().unwrap();
    files.sort_by(|a, b| a.path.cmp(&b.path));
    FsckReport { files }
}

/// Move every damaged file in `report` into `dir` (created if needed).
/// Returns the new locations; files that fail to move are reported as
/// errors rather than silently left in place.
pub fn quarantine(report: &FsckReport, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut moved = Vec::new();
    for v in report.damaged() {
        let name = v
            .path
            .file_name()
            .ok_or_else(|| std::io::Error::other("damaged file has no name"))?;
        let dst = dir.join(name);
        std::fs::rename(&v.path, &dst)?;
        moved.push(dst);
    }
    Ok(moved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasf::Writer;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dassa-fsck-tests-{tag}"));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_sample(dir: &Path, name: &str) -> PathBuf {
        let p = dir.join(name);
        let mut w = Writer::create(&p).unwrap();
        w.create_group("/Measurement").unwrap();
        let data: Vec<f32> = (0..60).map(|i| i as f32 * 0.25).collect();
        w.write_dataset_f32("/Measurement/data", &[6, 10], &data)
            .unwrap();
        w.finish().unwrap();
        p
    }

    #[test]
    fn clean_corpus_scrubs_clean() {
        let dir = tmpdir("clean");
        for i in 0..4 {
            write_sample(&dir, &format!("f{i}.dasf"));
        }
        let targets = collect_targets(std::slice::from_ref(&dir)).unwrap();
        assert_eq!(targets.len(), 4);
        let report = scrub_paths(&targets, 3);
        assert!(report.is_clean());
        assert_eq!(report.scanned(), 4);
        assert_eq!(report.clean(), 4);
        let json = report.to_json();
        assert!(json.starts_with("{\"scanned\":4,\"clean\":4,\"corrupt\":0,\"torn\":0,"));
    }

    #[test]
    fn corrupt_and_torn_are_distinguished() {
        let dir = tmpdir("mixed");
        write_sample(&dir, "ok.dasf");
        let corrupt = write_sample(&dir, "rot.dasf");
        let torn = write_sample(&dir, "torn.dasf");
        // Flip a payload byte.
        let mut bytes = std::fs::read(&corrupt).unwrap();
        bytes[24] ^= 0x40;
        std::fs::write(&corrupt, &bytes).unwrap();
        // Chop the commit record.
        let bytes = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() - 7]).unwrap();

        let targets = collect_targets(std::slice::from_ref(&dir)).unwrap();
        let report = scrub_paths(&targets, 2);
        assert_eq!(report.scanned(), 3);
        assert_eq!(report.clean(), 1);
        assert_eq!(report.corrupt(), 1);
        assert_eq!(report.torn(), 1);
        assert!(!report.is_clean());
        let by_name: Vec<(String, FileStatus)> = report
            .files
            .iter()
            .map(|v| {
                (
                    v.path.file_name().unwrap().to_str().unwrap().to_string(),
                    v.status,
                )
            })
            .collect();
        assert_eq!(
            by_name,
            vec![
                ("ok.dasf".into(), FileStatus::Clean),
                ("rot.dasf".into(), FileStatus::Corrupt),
                ("torn.dasf".into(), FileStatus::Torn),
            ]
        );
        // The corrupt verdict names the damaged dataset.
        let rot = &report.files[1];
        assert!(
            rot.detail.contains("/Measurement/data"),
            "detail: {}",
            rot.detail
        );

        // Quarantine moves exactly the damaged files.
        let qdir = dir.join("quarantine");
        let moved = quarantine(&report, &qdir).unwrap();
        assert_eq!(moved.len(), 2);
        assert!(!corrupt.exists() && !torn.exists());
        assert!(dir.join("ok.dasf").exists());
        assert!(qdir.join("rot.dasf").exists() && qdir.join("torn.dasf").exists());
    }

    #[test]
    fn missing_file_is_an_error_not_a_panic() {
        let dir = tmpdir("missing");
        let report = scrub_paths(&[dir.join("nope.dasf")], 1);
        assert_eq!(report.errors(), 1);
        assert!(!report.is_clean());
        assert_eq!(report.files[0].status, FileStatus::Error);
    }

    #[test]
    fn json_escapes_and_field_order_survive_the_shared_writer() {
        let report = FsckReport {
            files: vec![FileVerdict {
                path: std::path::PathBuf::from("a\"b.dasf"),
                status: FileStatus::Error,
                detail: "line1\nline2\u{1}".into(),
                codec: "-".into(),
                compress_ratio: 0.0,
            }],
        };
        let json = report.to_json();
        assert_eq!(
            json,
            "{\"scanned\":1,\"clean\":0,\"corrupt\":0,\"torn\":0,\"errors\":1,\
             \"files\":[{\"path\":\"a\\\"b.dasf\",\"status\":\"error\",\
             \"detail\":\"line1\\nline2\\u0001\",\
             \"codec\":\"-\",\"compress_ratio\":\"0.000\"}]}"
        );
        // The shared parser accepts its sibling writer's escapes.
        obs::json::parse(&json).unwrap();
    }

    #[test]
    fn compressed_file_reports_codec_and_ratio() {
        let dir = tmpdir("codec");
        let plain = write_sample(&dir, "plain.dasf");
        let packed = dir.join("packed.dasf");
        let mut w = Writer::create(&packed).unwrap();
        w.set_codec(dasf::Codec::ShuffleLz).unwrap();
        w.create_group("/Measurement").unwrap();
        let data: Vec<f32> = (0..20000).map(|i| (i >> 5) as f32 * 0.25).collect();
        w.write_dataset_f32("/Measurement/data", &[2, 10000], &data)
            .unwrap();
        w.finish().unwrap();

        let v = scrub_file(&packed);
        assert_eq!(v.status, FileStatus::Clean);
        assert_eq!(v.codec, "shuffle-lz");
        assert!(v.compress_ratio > 1.0, "ratio: {}", v.compress_ratio);

        let v = scrub_file(&plain);
        assert_eq!(v.codec, "raw");
        assert!((v.compress_ratio - 1.0).abs() < 1e-9);
    }
}
