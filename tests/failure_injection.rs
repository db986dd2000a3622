//! Failure injection: corrupt files, truncated payloads, bad
//! selections, and dead ranks must surface as errors — never wrong data.

use dasgen::{write_minute_files, Scene};
use dassa::prelude::*;
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::time::Duration;

fn dataset(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dassa-failinj-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let scene = Scene::demo(6, 20.0, 120.0, 3);
    write_minute_files(&scene, &dir, "170728224510", 2).expect("generate");
    dir
}

#[test]
fn scan_rejects_garbage_dasf_file() {
    let dir = dataset("garbage");
    std::fs::write(dir.join("zzz.dasf"), b"this is not a dasf file at all").expect("write");
    match FileCatalog::scan(&dir) {
        Err(DassaError::Dasf(dasf::DasfError::BadMagic)) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn scan_rejects_truncated_file() {
    let dir = dataset("truncated");
    let victim = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "dasf"))
        .expect("a dasf file");
    let bytes = std::fs::read(&victim).expect("read");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate");
    assert!(
        FileCatalog::scan(&dir).is_err(),
        "truncation must not pass silently"
    );
}

#[test]
fn read_detects_payload_corruption_in_offsets() {
    // Corrupt the superblock's table offset to point past EOF.
    let dir = dataset("offsets");
    let victim = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "dasf"))
        .expect("a dasf file");
    let mut f = std::fs::OpenOptions::new()
        .write(true)
        .open(&victim)
        .expect("open rw");
    f.seek(SeekFrom::Start(8)).expect("seek");
    f.write_all(&u64::MAX.to_le_bytes()).expect("poison offset");
    drop(f);
    // v3 catches this either as a structurally impossible offset
    // (Truncated) or as a superblock/commit-record checksum mismatch,
    // depending on which check trips first — both are hard errors.
    assert!(matches!(
        dasf::File::open(&victim),
        Err(dasf::DasfError::Truncated | dasf::DasfError::ChecksumMismatch { .. })
    ));
}

#[test]
fn vca_member_deleted_between_save_and_load() {
    let dir = dataset("deleted-member");
    let catalog = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(catalog.entries()).expect("vca");
    let desc = dir.join("dangling.vca.dasf");
    vca.save(&desc).expect("save");
    // Remove one member file.
    std::fs::remove_file(&catalog.entries()[1].path).expect("delete member");
    assert!(
        Vca::load(&desc).is_err(),
        "dangling member must fail loudly"
    );
}

#[test]
fn vca_member_shrunk_after_construction() {
    // A member rewritten with fewer samples after the VCA was built:
    // reads that touch it must error (hyperslab out of bounds), not
    // return stale-shaped data.
    let dir = dataset("shrunk");
    let catalog = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(catalog.entries()).expect("vca");
    let victim = &catalog.entries()[1];
    let mut w = dasf::Writer::create(&victim.path).expect("rewrite");
    w.set_attr(
        "/",
        "TimeStamp(yymmddhhmmss)",
        dasf::Value::Str("170728224610".into()),
    )
    .expect("attr");
    w.create_group("/Measurement").expect("group");
    w.write_dataset_f32("/Measurement/data", &[6, 10], &[0.0; 60])
        .expect("small data");
    w.finish().expect("finish");
    assert!(
        vca.read_all_f32().is_err(),
        "shrunken member must fail the read"
    );
}

#[test]
fn bad_selections_error_not_panic() {
    let dir = dataset("selection");
    let catalog = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(catalog.entries()).expect("vca");
    assert!(matches!(
        vca.read_region_f32(0..99, 0..10),
        Err(DassaError::BadSelection(_))
    ));
    assert!(matches!(
        vca.read_region_f32(0..1, 0..u64::MAX),
        Err(DassaError::BadSelection(_))
    ));
    assert!(matches!(
        catalog.search_range(999999999999, 0),
        Err(DassaError::BadTimestamp(_)) | Err(DassaError::BadSelection(_))
    ));
}

#[test]
fn dead_rank_surfaces_as_timeout_not_hang() {
    // Rank 1 "dies" (never joins the gather); in a bounded-policy world
    // rank 0's gather reports it after its retries instead of blocking.
    let policy = minimpi::RetryPolicy::bounded(2, Duration::from_millis(25));
    let plan = std::sync::Arc::new(faultline::FaultPlan::new(0));
    let (out, _) = minimpi::run_chaos(2, plan, policy, |comm| {
        if comm.rank() == 0 {
            comm.try_gather(0, vec![42u64]).map(drop)
        } else {
            Ok(())
        }
    });
    assert_eq!(
        out[0],
        Err(minimpi::CommError::Timeout {
            src: 1,
            attempts: 2
        })
    );
}

#[test]
fn rank_panic_propagates_to_caller() {
    let result = std::panic::catch_unwind(|| {
        minimpi::run(2, |comm| {
            if comm.rank() == 1 {
                panic!("simulated rank failure");
            }
        });
    });
    assert!(result.is_err(), "a dead rank must not be silently ignored");
}
