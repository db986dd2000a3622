//! `faultline` injection hooks for the dasf I/O layer.
//!
//! Faults are keyed by *file name* (DAS minute-file names encode
//! timestamps, so they are stable across runs and identical no matter
//! which rank or strategy touches the file): under a given plan a file
//! is either permanently unreadable or permanently healthy — the
//! bad-sector model. Transient faults live at the `par_read` and
//! `minimpi` layers, which key by attempt.
//!
//! Most injected errors are *detected* errors ([`DasfError::Io`],
//! [`DasfError::Truncated`]). The exception is `dasf.read.corrupt`,
//! which injects *real* bit-rot: one deterministic byte of the data
//! region reads back XOR-flipped, and it is the v3 checksum layer — not
//! the injector — that must turn it into
//! [`DasfError::ChecksumMismatch`]. Against a v2 file the flip is
//! silent, which is exactly the gap the v3 format closes.

use crate::error::DasfError;
use crate::Result;
use faultline::site;
use std::path::Path;
use std::time::Duration;

/// Upper bound on injected read latency. Long enough to perturb
/// schedules (and show up in `dasf.read.ns`), short enough that chaos
/// matrices over many seeds stay fast.
const MAX_LATENCY_NS: u64 = 200_000;

/// The injection key for `path`: a stable hash of its file name.
fn file_key(path: &Path) -> u64 {
    faultline::key_of(
        path.file_name()
            .map(|n| n.as_encoded_bytes())
            .unwrap_or_default(),
    )
}

fn injected(what: &str) -> DasfError {
    crate::metrics::metrics().faults_injected.inc();
    DasfError::Io(std::io::Error::other(format!("faultline: injected {what}")))
}

/// Open-time hook: may fail [`crate::File::open`] for this path.
pub(crate) fn check_open(path: &Path) -> Result<()> {
    let Some(plan) = faultline::current() else {
        return Ok(());
    };
    if plan.fires(site::DASF_OPEN_ERR, file_key(path)) {
        return Err(injected("open failure (dasf.open.err)"));
    }
    Ok(())
}

/// Read-time hook: may stall briefly, then may fail the read with a
/// detected error. Called once per dataset read (whole or hyperslab).
pub(crate) fn check_read(path: &Path) -> Result<()> {
    let Some(plan) = faultline::current() else {
        return Ok(());
    };
    let key = file_key(path);
    if plan.fires(site::DASF_READ_LATENCY, key) {
        let ns = 1 + plan.value_below(site::DASF_READ_LATENCY, key, MAX_LATENCY_NS);
        std::thread::sleep(Duration::from_nanos(ns));
        crate::metrics::metrics().faults_injected.inc();
    }
    if plan.fires(site::DASF_READ_ERR, key) {
        return Err(injected("read failure (dasf.read.err)"));
    }
    if plan.fires(site::DASF_READ_SHORT, key) {
        crate::metrics::metrics().faults_injected.inc();
        return Err(DasfError::Truncated);
    }
    Ok(())
}

/// One byte of the data region that reads back flipped — the bad-sector
/// model of bit-rot. Deterministic per file name, so every rank and
/// both read strategies see the identical fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Corruption {
    /// Absolute file offset of the rotten byte (inside `[16, 16+data)`).
    pub offset: u64,
    /// Nonzero XOR mask applied to it.
    pub mask: u8,
}

/// The corruption this file suffers under the active plan, if any.
/// Decided at open time from the `dasf.read.corrupt` site.
pub(crate) fn payload_corruption(path: &Path, data_region_bytes: u64) -> Option<Corruption> {
    let plan = faultline::current()?;
    if data_region_bytes == 0 {
        return None;
    }
    let key = file_key(path);
    if !plan.fires(site::DASF_READ_CORRUPT, key) {
        return None;
    }
    let offset = 16 + plan.value_below(site::DASF_READ_CORRUPT, key, data_region_bytes);
    let mask =
        1 + plan.value_below(site::DASF_READ_CORRUPT, key ^ 0x9e37_79b9_7f4a_7c15, 255) as u8;
    Some(Corruption { offset, mask })
}

/// Flip the rotten byte in `buf` if this read (starting at absolute file
/// offset `buf_file_offset`) covers it.
pub(crate) fn apply_corruption(c: &Corruption, buf_file_offset: u64, buf: &mut [u8]) {
    if c.offset >= buf_file_offset && c.offset - buf_file_offset < buf.len() as u64 {
        buf[(c.offset - buf_file_offset) as usize] ^= c.mask;
        crate::metrics::metrics().faults_injected.inc();
    }
}

/// Write-time hook, keyed by file name × dataset path.
pub(crate) fn check_write(file: &Path, dataset: &str) -> Result<()> {
    let Some(plan) = faultline::current() else {
        return Ok(());
    };
    let key = file_key(file) ^ faultline::key_of(dataset.as_bytes());
    if plan.fires(site::DASF_WRITE_ERR, key) {
        return Err(injected("write failure (dasf.write.err)"));
    }
    Ok(())
}

/// Flush-time hook in `Writer::finish`: the data file's fsync fails.
/// Keyed by file name, like the open and read sites.
pub(crate) fn check_sync(file: &Path) -> Result<()> {
    let Some(plan) = faultline::current() else {
        return Ok(());
    };
    if plan.fires(site::DASF_WRITE_SYNC_ERR, file_key(file)) {
        return Err(injected("fsync failure (dasf.write.sync_err)"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{File, Writer};
    use faultline::FaultPlan;
    use std::sync::Arc;

    fn sample(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dasf-fault-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let mut w = Writer::create(&p).unwrap();
        w.write_dataset_f32("/d", &[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
            .unwrap();
        w.finish().unwrap();
        p
    }

    #[test]
    fn no_plan_is_a_noop() {
        let p = sample("noplan.dasf");
        let f = File::open(&p).unwrap();
        assert_eq!(f.read_f32("/d").unwrap().len(), 6);
    }

    #[test]
    fn injected_faults_fire_deterministically() {
        let p = sample("inject.dasf");
        let open_err = Arc::new(FaultPlan::new(1).with(site::DASF_OPEN_ERR, 1.0));
        faultline::with_plan(open_err, || {
            assert!(matches!(File::open(&p), Err(DasfError::Io(_))));
        });
        let read_corrupt = Arc::new(FaultPlan::new(1).with(site::DASF_READ_CORRUPT, 1.0));
        faultline::with_plan(read_corrupt, || {
            // Real bytes are flipped in the read buffer; it is the v3
            // checksum layer that reports them.
            let f = File::open(&p).unwrap();
            assert!(matches!(
                f.read_f32("/d"),
                Err(DasfError::ChecksumMismatch { .. })
            ));
            assert!(matches!(
                f.read_hyperslab_f32("/d", &[(0, 1), (0, 2)]),
                Err(DasfError::ChecksumMismatch { .. })
            ));
        });
        let read_short = Arc::new(FaultPlan::new(1).with(site::DASF_READ_SHORT, 1.0));
        faultline::with_plan(read_short, || {
            let f = File::open(&p).unwrap();
            assert!(matches!(f.read_f32("/d"), Err(DasfError::Truncated)));
        });
        // Data is untouched once the plan is gone.
        let f = File::open(&p).unwrap();
        assert_eq!(f.read_f32("/d").unwrap()[5], 6.0);
    }

    #[test]
    fn latency_fault_returns_correct_data() {
        let p = sample("latency.dasf");
        let plan = Arc::new(FaultPlan::new(2).with(site::DASF_READ_LATENCY, 1.0));
        faultline::with_plan(plan, || {
            let f = File::open(&p).unwrap();
            assert_eq!(
                f.read_f32("/d").unwrap(),
                vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
            );
        });
    }

    #[test]
    fn write_fault_fails_writer() {
        let dir = std::env::temp_dir().join("dasf-fault-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("wfail.dasf");
        let plan = Arc::new(FaultPlan::new(3).with(site::DASF_WRITE_ERR, 1.0));
        faultline::with_plan(plan, || {
            let mut w = Writer::create(&p).unwrap();
            assert!(matches!(
                w.write_dataset_f32("/d", &[1], &[1.0]),
                Err(DasfError::Io(_))
            ));
        });
    }
}
