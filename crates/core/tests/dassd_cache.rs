//! Property tests for the `dassd` chunk cache, in the style of
//! `plan_equivalence.rs`: random get sequences against a small corpus
//! must keep resident bytes within capacity, account every get as
//! exactly one hit or miss, return bytes identical to disk even after
//! evict-and-refetch, and never serve a chunk that fails checksum
//! verification.

use arrayudf::Array2;
use dassa::dassd::cache::{metric_names, ChunkCache};
use dassa::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// Write `files` member files with deterministic contents; returns
/// `(dir, per-file paths, per-file golden data)`.
fn build_dataset(
    files: usize,
    channels: u64,
    samples: u64,
    seed: u64,
) -> (PathBuf, Vec<PathBuf>, Vec<Array2<f32>>) {
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dassa-dassd-cache-{id}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("dir");
    let t0 = Timestamp::parse("170728224510").expect("ts");
    let mut paths = Vec::new();
    let mut golden = Vec::new();
    for f in 0..files {
        let ts = t0.add_minutes(f as u64);
        let data = Array2::from_fn(channels as usize, samples as usize, |r, c| {
            let mut z = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(
                ((f * 1_000_003 + r * 1_009 + c) as u64).wrapping_mul(0xBF58476D1CE4E5B9),
            );
            z ^= z >> 31;
            (z % 100_000) as f32 / 100.0
        });
        let meta = DasFileMeta {
            sampling_hz: (samples / 60).max(1) as i64,
            spatial_resolution_m: 2.0,
            timestamp: ts,
            channels,
            samples,
        };
        let path = dir.join(das_file_name(&ts));
        write_das_file(&path, &meta, &data).expect("write");
        paths.push(path);
        golden.push(data);
    }
    (dir, paths, golden)
}

fn fresh_registry() -> Arc<obs::Registry> {
    Arc::new(obs::Registry::new())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random get sequences: after every get, resident bytes are
    /// within capacity (checked both live and via the high-water
    /// histogram), `hit + miss` equals total gets, and every returned
    /// chunk — first fetch, cache hit, or refetch after eviction — is
    /// byte-identical to the golden data written to disk.
    #[test]
    fn random_gets_stay_bounded_and_byte_identical(
        files in 2usize..6,
        channels in 1u64..5,
        samples in 8u64..64,
        capacity_files in 1u64..4,
        accesses in proptest::collection::vec(0usize..6, 1..40),
        seed in any::<u64>(),
    ) {
        let (dir, paths, golden) = build_dataset(files, channels, samples, seed);
        let file_bytes = channels * samples * 4;
        // Capacity holds `capacity_files` whole entries (possibly
        // fewer than the corpus), plus slack below one entry so a
        // partial fit never admits an extra chunk.
        let capacity = file_bytes * capacity_files + file_bytes / 3;
        let reg = fresh_registry();
        let cache = ChunkCache::new(capacity, DATASET_PATH, &reg);

        let mut gets = 0u64;
        for a in accesses {
            let i = a % files;
            let member: Arc<Member> = cache.get_or_read(&paths[i]).expect("get");
            gets += 1;
            prop_assert_eq!(member.rows() as u64, channels);
            prop_assert_eq!(member.cols() as u64, samples);
            prop_assert_eq!(
                member.data(), golden[i].as_slice(),
                "file {} drifted from disk", i
            );
            prop_assert!(cache.resident_bytes() <= capacity);
        }

        let snap = reg.snapshot();
        prop_assert_eq!(
            snap.counter(metric_names::HIT) + snap.counter(metric_names::MISS),
            gets,
            "every get is exactly one hit or one miss"
        );
        prop_assert_eq!(snap.gauge(metric_names::BYTES), cache.resident_bytes());
        if let Some(h) = snap.histogram(metric_names::RESIDENT_BYTES) {
            prop_assert!(h.max <= capacity, "high-water {} > capacity {}", h.max, capacity);
        }
        prop_assert!(snap.counter(metric_names::MISS) >= 1, "the first get must miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Hyperslab slices of a cached member match a direct
    /// `read_hyperslab_into` of the same file, for random windows.
    #[test]
    fn cached_hyperslabs_match_disk_reads(
        channels in 2u64..6,
        samples in 8u64..64,
        seed in any::<u64>(),
        r0 in 0u64..4,
        c0 in 0u64..32,
    ) {
        let (dir, paths, _) = build_dataset(1, channels, samples, seed);
        let r0 = r0 % channels;
        let nr = (channels - r0).max(1);
        let c0 = c0 % samples;
        let nc = (samples - c0).max(1);
        let sel = [(r0, nr), (c0, nc)];

        let reg = fresh_registry();
        let cache = ChunkCache::new(1 << 20, DATASET_PATH, &reg);
        let member = cache.get_or_read(&paths[0]).expect("get");
        let sliced = member.hyperslab(Some(sel));

        let f = dasf::File::open(&paths[0]).expect("open");
        let mut direct = vec![0.0f32; (nr * nc) as usize];
        let n = f
            .read_hyperslab_into(DATASET_PATH, &sel, &mut direct)
            .expect("hyperslab");
        prop_assert_eq!(n, (nr * nc) as usize);
        prop_assert_eq!(sliced, direct);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A chunk that fails checksum verification is never served and never
/// cached: every get errors with `ChecksumMismatch`, `cache.miss`
/// keeps counting (proof each attempt went to disk), nothing becomes
/// resident, and healthy files keep being served around it.
#[test]
fn checksum_failure_is_never_served_from_cache() {
    let (dir, paths, golden) = build_dataset(2, 4, 32, 99);

    // Flip one byte of the payload region (the v3 integrity suite
    // proves any payload flip surfaces as ChecksumMismatch).
    let victim = &paths[0];
    let data_offset = {
        let f = dasf::File::open(victim).expect("open");
        f.dataset(DATASET_PATH).expect("meta").data_offset
    };
    let mut bytes = std::fs::read(victim).expect("read file");
    bytes[data_offset as usize + 5] ^= 0x40;
    std::fs::write(victim, &bytes).expect("rewrite");

    let reg = fresh_registry();
    let cache = ChunkCache::new(1 << 20, DATASET_PATH, &reg);

    for round in 0..3 {
        match cache.get_or_read(victim) {
            Err(DassaError::Dasf(dasf::DasfError::ChecksumMismatch { .. })) => {}
            other => panic!("round {round}: expected ChecksumMismatch, got {other:?}"),
        }
        assert!(
            !cache.contains(victim),
            "round {round}: corrupt chunk must not become resident"
        );
    }
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter(metric_names::MISS),
        3,
        "every corrupt get must go to disk, never to cache"
    );
    assert_eq!(snap.counter(metric_names::HIT), 0);
    assert_eq!(cache.resident_bytes(), 0);

    // The healthy neighbour is unaffected — served, cached, hit.
    let ok = cache.get_or_read(&paths[1]).expect("healthy file");
    assert_eq!(ok.data(), golden[1].as_slice());
    let again = cache.get_or_read(&paths[1]).expect("healthy file again");
    assert_eq!(again.data(), golden[1].as_slice());
    assert_eq!(reg.snapshot().counter(metric_names::HIT), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An entry larger than the whole capacity is served but never
/// admitted, and does not evict what is resident.
#[test]
fn oversized_chunks_bypass_the_cache() {
    let (dir, paths, golden) = build_dataset(2, 4, 64, 5);
    let file_bytes = 4 * 64 * 4u64;

    // Capacity fits nothing.
    let reg = fresh_registry();
    let cache = ChunkCache::new(file_bytes / 2, DATASET_PATH, &reg);
    let c = cache.get_or_read(&paths[0]).expect("oversized get");
    assert_eq!(c.data(), golden[0].as_slice());
    assert!(cache.is_empty(), "oversized chunk must not be admitted");
    assert_eq!(cache.resident_bytes(), 0);
    let c2 = cache.get_or_read(&paths[1]).expect("second oversized get");
    assert_eq!(c2.data(), golden[1].as_slice());
    assert_eq!(reg.snapshot().counter(metric_names::MISS), 2);
    assert_eq!(reg.snapshot().counter(metric_names::EVICT), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A v4 shuffle-lz file is served *decoded* and byte-identical to its
/// raw twin; residency is charged at the decoded size while the
/// `cache.stored_bytes` counter records the smaller on-disk footprint.
#[test]
fn compressed_files_are_served_decoded_with_stored_accounting() {
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dassa-dassd-cache-codec-{id}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("dir");
    let (channels, samples) = (8u64, 4096u64);
    // Stepped ramps: long byte runs after the shuffle, so shuffle-lz
    // genuinely shrinks the payload.
    let data = Array2::from_fn(channels as usize, samples as usize, |r, c| {
        (r * 4 + c / 32) as f32 * 0.25
    });
    let meta = DasFileMeta {
        sampling_hz: (samples / 60).max(1) as i64,
        spatial_resolution_m: 2.0,
        timestamp: Timestamp::parse("170728224510").expect("ts"),
        channels,
        samples,
    };
    let path = dir.join(das_file_name(&meta.timestamp));
    write_das_file_with_codec(&path, &meta, &data, None, dasf::Codec::ShuffleLz).expect("write");

    let raw_bytes = channels * samples * 4;
    let reg = fresh_registry();
    let cache = ChunkCache::new(1 << 22, DATASET_PATH, &reg);
    let c = cache.get_or_read(&path).expect("get");
    assert_eq!(c.data(), data.as_slice());
    assert_eq!(c.bytes(), raw_bytes);
    assert_eq!(cache.resident_bytes(), raw_bytes);
    let stored = reg.snapshot().counter(metric_names::STORED_BYTES);
    assert_eq!(stored, c.stored_bytes());
    assert!(
        stored < raw_bytes / 2,
        "expected stored < raw/2, got {stored} vs {raw_bytes}"
    );
    // A hit must not recount disk bytes.
    let _ = cache.get_or_read(&path).expect("hit");
    assert_eq!(reg.snapshot().counter(metric_names::STORED_BYTES), stored);
    let _ = std::fs::remove_dir_all(&dir);
}
