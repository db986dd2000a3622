//! The crash-consistent checkpoint journal.
//!
//! One tiny JSON file (`checkpoint.json` in the output directory)
//! records how far the detection loop has committed: the window
//! anchoring geometry and the index of the next window to emit. It is
//! rewritten after *every* emitted window with the same discipline the
//! dasf writer uses for data (`<name>.tmp` + fsync + atomic rename +
//! parent-dir fsync), so at any kill point the file on disk is either
//! the old complete checkpoint or the new complete checkpoint — never
//! a torn one.
//!
//! The checkpoint is deliberately *behind* the reports: a window's
//! report is renamed into place first, the checkpoint second. A crash
//! between the two resumes at the same window, finds the report
//! already on disk, skips re-evaluation, and advances — no lost and no
//! duplicate windows, which is the property the chaos suite's
//! kill-and-resume matrix pins down.

use faultline::{fires, key_of, site};
use obs::json::{parse, JsonValue, JsonWriter};
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// The committed frontier of an ingest run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Epoch minute windows are anchored at (fixed at first seal).
    pub base_minute: u64,
    /// Index of the next window to evaluate; windows below this are
    /// committed (their reports are on disk).
    pub next_window: u64,
    /// Highest watermark reached, in epoch minutes (informational; the
    /// sealed frontier is `base_minute + next_window * hop_minutes`).
    pub watermark_minute: u64,
    /// Window length in minutes.
    pub window_minutes: u64,
    /// Hop between window starts in minutes.
    pub hop_minutes: u64,
}

impl Checkpoint {
    /// Serialize (field order is stable for greppability).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(128);
        w.begin_object();
        w.key("base_minute").uint(self.base_minute);
        w.key("next_window").uint(self.next_window);
        w.key("watermark_minute").uint(self.watermark_minute);
        w.key("window_minutes").uint(self.window_minutes);
        w.key("hop_minutes").uint(self.hop_minutes);
        w.end_object();
        w.finish()
    }

    /// Atomically replace the journal at `path`.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        write_atomic(path, self.to_json().as_bytes())
    }

    /// Load the journal at `path`; `Ok(None)` when no checkpoint has
    /// ever been committed. A malformed journal is an error, not a
    /// silent fresh start — restarting detection from zero over a
    /// spool whose windows were already emitted would be wrong twice
    /// (duplicate work, and `ingest.late` evictions of live files).
    pub fn load(path: &Path) -> io::Result<Option<Checkpoint>> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let bad = |msg: String| io::Error::other(format!("{}: {msg}", path.display()));
        let value = parse(&text).map_err(|e| bad(e.to_string()))?;
        let JsonValue::Object(map) = value else {
            return Err(bad("checkpoint is not a JSON object".into()));
        };
        let field = |key: &str| -> io::Result<u64> {
            match map.get(key) {
                Some(JsonValue::Number(n)) => Ok(*n),
                Some(_) => Err(bad(format!("field `{key}` is not an unsigned integer"))),
                None => Err(bad(format!("missing field `{key}`"))),
            }
        };
        Ok(Some(Checkpoint {
            base_minute: field("base_minute")?,
            next_window: field("next_window")?,
            watermark_minute: field("watermark_minute")?,
            window_minutes: field("window_minutes")?,
            hop_minutes: field("hop_minutes")?,
        }))
    }
}

/// Write `bytes` to `path` crash-consistently: sibling `.tmp`, fsync,
/// atomic rename over the target, fsync of the parent directory so the
/// rename itself survives power loss. Shared by the checkpoint journal
/// and the window reports. On error the `.tmp` is gone and `path` holds
/// what it held before.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    if let Err(e) = publish(&tmp, path, bytes) {
        fs::remove_file(&tmp).ok();
        return Err(e);
    }
    if let Some(dir) = dir {
        // Directory fsync is best-effort on filesystems that refuse
        // opening directories; the rename is already atomic.
        if let Ok(d) = fs::File::open(dir) {
            d.sync_all().ok();
        }
    }
    Ok(())
}

/// Write and sync `tmp`, then rename it over `path`. The
/// `ingest.report.write` fault site fails the write.
fn publish(tmp: &Path, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = fs::File::create(tmp)?;
    let name = path.file_name().unwrap_or_default();
    if fires(site::INGEST_REPORT_WRITE, key_of(name.as_encoded_bytes())) {
        return Err(io::Error::other(
            "faultline: injected write failure (ingest.report.write)",
        ));
    }
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dassa-journal-{tag}"));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample() -> Checkpoint {
        Checkpoint {
            base_minute: 9_250_605,
            next_window: 3,
            watermark_minute: 9_250_612,
            window_minutes: 2,
            hop_minutes: 2,
        }
    }

    #[test]
    fn save_load_round_trip() {
        let path = tmpdir("roundtrip").join("checkpoint.json");
        assert_eq!(Checkpoint::load(&path).unwrap(), None);
        let cp = sample();
        cp.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), Some(cp));
        // Overwrite advances in place.
        let mut next = cp;
        next.next_window = 4;
        next.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), Some(next));
        // No stray tmp file survives a successful commit.
        assert!(!path.with_extension("json.tmp").exists());
    }

    #[test]
    fn malformed_journal_is_loud() {
        let path = tmpdir("malformed").join("checkpoint.json");
        std::fs::write(&path, "{\"base_minute\":1").unwrap();
        assert!(Checkpoint::load(&path).is_err());
        std::fs::write(&path, "{\"base_minute\":1}").unwrap();
        let err = Checkpoint::load(&path).unwrap_err().to_string();
        assert!(err.contains("next_window"), "{err}");
    }

    #[test]
    fn write_atomic_replaces_content() {
        let path = tmpdir("atomic").join("blob.json");
        write_atomic(&path, b"old").unwrap();
        write_atomic(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
    }

    #[test]
    fn a_failed_publish_leaves_no_tmp_behind() {
        let dir = tmpdir("failed-publish");
        // A non-empty directory squats on the report's name, so the
        // rename over it fails after the `.tmp` was written.
        let path = dir.join("window_000000.json");
        std::fs::create_dir_all(path.join("occupied")).unwrap();
        assert!(write_atomic(&path, b"{}").is_err());
        assert!(!dir.join("window_000000.json.tmp").exists());
    }

    #[test]
    fn an_injected_write_failure_publishes_nothing() {
        use faultline::FaultPlan;
        let path = tmpdir("injected").join("checkpoint.json");
        write_atomic(&path, b"old").unwrap();
        let plan = std::sync::Arc::new(FaultPlan::new(1).with(site::INGEST_REPORT_WRITE, 1.0));
        let err = faultline::with_plan(plan, || write_atomic(&path, b"new")).unwrap_err();
        assert!(err.to_string().contains("ingest.report.write"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        assert!(!path.with_extension("json.tmp").exists());
    }
}
