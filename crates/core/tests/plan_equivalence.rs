//! Equivalence properties for the chunk-granular I/O planner: every
//! source (VCA, LAV, RCA), every exchange strategy, and every executor
//! mode must produce byte-identical arrays from the same logical
//! region — with and without a seeded fault plan. These tests pin the
//! plan/execute split: if a future change makes any path drift from the
//! others by a single bit, a shrunk counterexample lands here.

use arrayudf::Array2;
use dassa::prelude::*;
use faultline::{site, FaultPlan};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// Build a dataset with per-file deterministic contents; returns
/// `(dir, full expected array)`.
fn build_dataset(files: usize, channels: u64, samples: u64, seed: u64) -> (PathBuf, Array2<f32>) {
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dassa-plan-eq-{id}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("dir");
    let t0 = Timestamp::parse("170728224510").expect("ts");
    let mut per_file: Vec<Array2<f32>> = Vec::new();
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
        write_das_file(&dir.join(das_file_name(&ts)), &meta, &data).expect("write");
        per_file.push(data);
    }
    let total = (samples as usize) * files;
    let expected = Array2::from_fn(channels as usize, total, |r, c| {
        per_file[c / samples as usize].get(r, c % samples as usize)
    });
    (dir, expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// No faults: the serial executor (VCA region plan), the LAV plan,
    /// both distributed exchange strategies run explicitly as plans,
    /// and an RCA round-trip all return the same bytes as the
    /// independently assembled golden array.
    #[test]
    fn every_source_and_strategy_is_byte_identical(
        files in 1usize..4,
        channels in 1u64..7,
        samples in 2u64..24,
        ranks in 1usize..5,
        seed in any::<u64>(),
    ) {
        let (dir, expected) = build_dataset(files, channels, samples, seed);
        let cat = FileCatalog::scan(&dir).expect("scan");
        let vca = Vca::from_entries(cat.entries()).expect("vca");

        // Serial executor over the full-region plan.
        prop_assert_eq!(vca.read_all_f32().expect("serial"), expected.clone());

        // LAV: the full view materializes through hyperslab ops.
        let lav = Lav::full(&vca);
        prop_assert_eq!(lav.read_f32(&vca).expect("lav"), expected.clone());

        // Both §IV-B strategies, driven through explicit plans.
        for strategy in [ReadStrategy::CollectivePerFile, ReadStrategy::CommAvoiding] {
            let plan = IoPlan::for_vca(&vca, strategy, ranks);
            let blocks = minimpi::run(ranks, |c| {
                IoExecutor::new(c).run(&plan).expect("run").0
            });
            prop_assert_eq!(
                Array2::vstack(&blocks),
                expected.clone(),
                "strategy {:?} ranks {}", strategy, ranks
            );
        }

        // RCA: physically merge, then re-read via the single-op plan.
        let rca_path = dir.join("eq.rca.dasf");
        create_rca(cat.entries(), &rca_path).expect("rca");
        let (_, rca_data) = read_rca(&rca_path).expect("read rca");
        prop_assert_eq!(rca_data, expected);
    }

    /// Seeded fault plan: both strategies agree bit-for-bit with each
    /// other AND with the predictable outcome — transiently faulty files
    /// retry back to the clean bytes, permanently bad files quarantine
    /// to all-zero spans, and nothing else moves.
    #[test]
    fn strategies_agree_bit_for_bit_under_faults(
        files in 2usize..5,
        channels in 1u64..6,
        samples in 2u64..20,
        ranks in 2usize..4,
        seed in any::<u64>(),
    ) {
        let (dir, clean) = build_dataset(files, channels, samples, seed);
        let cat = FileCatalog::scan(&dir).expect("scan");
        let vca = Vca::from_entries(cat.entries()).expect("vca");
        let plan = Arc::new(
            FaultPlan::new(seed)
                .with(site::DASF_READ_ERR, 0.3)
                .with(site::PAR_READ_FILE, 0.4),
        );

        let mut outcomes = Vec::new();
        for strategy in [ReadStrategy::CollectivePerFile, ReadStrategy::CommAvoiding] {
            let io_plan = IoPlan::for_vca(&vca, strategy, ranks);
            let (results, _) = minimpi::run_chaos(
                ranks,
                Arc::clone(&plan),
                minimpi::RetryPolicy::default(),
                |c| IoExecutor::resilient(c).run(&io_plan).expect("resilient"),
            );
            let (blocks, reports): (Vec<_>, Vec<_>) = results.into_iter().unzip();
            for r in &reports[1..] {
                prop_assert_eq!(r, &reports[0], "ranks must report identically");
            }
            outcomes.push((Array2::vstack(&blocks), reports[0].clone()));
        }
        prop_assert_eq!(&outcomes[0].0, &outcomes[1].0, "strategies must agree on bytes");
        prop_assert_eq!(&outcomes[0].1, &outcomes[1].1, "strategies must agree on reports");

        let (full, report) = &outcomes[0];
        for fi in 0..vca.n_files() {
            let t0 = vca.time_offset_of(fi) as usize;
            let width = vca.samples_of(fi) as usize;
            let quarantined = report.quarantined.contains(&fi);
            for r in 0..vca.channels() as usize {
                for c in t0..t0 + width {
                    if quarantined {
                        prop_assert_eq!(full.get(r, c), 0.0, "file {} must be zeroed", fi);
                    } else {
                        prop_assert_eq!(full.get(r, c), clean.get(r, c), "file {} must survive", fi);
                    }
                }
            }
        }
    }

    /// Any valid sub-region agrees between the serial region plan and a
    /// LAV describing the same rectangle — plans built two ways, same
    /// hyperslabs, same bytes.
    #[test]
    fn region_and_lav_plans_coincide(
        files in 1usize..4,
        channels in 2u64..7,
        samples in 4u64..20,
        c_frac in 0.0f64..1.0,
        t_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let (dir, expected) = build_dataset(files, channels, samples, seed);
        let cat = FileCatalog::scan(&dir).expect("scan");
        let vca = Vca::from_entries(cat.entries()).expect("vca");
        let total = samples * files as u64;
        let c0 = (c_frac * channels as f64) as u64 % channels;
        let t0 = (t_frac * total as f64) as u64 % total;
        let cn = 1 + (channels - c0 - 1).min(3);
        let tn = 1 + (total - t0 - 1).min(15);

        let region = vca.read_region_f32(c0..c0 + cn, t0..t0 + tn).expect("region");
        let lav = Lav::new(c0..c0 + cn, t0..t0 + tn);
        prop_assert_eq!(&lav.read_f32(&vca).expect("lav"), &region);
        for r in 0..cn as usize {
            for c in 0..tn as usize {
                prop_assert_eq!(
                    region.get(r, c),
                    expected.get(c0 as usize + r, t0 as usize + c)
                );
            }
        }
    }
}

/// `Vca::map_time_range` edge cases: the decomposition that every
/// region plan is built from.
#[test]
#[allow(clippy::reversed_empty_ranges)] // inverted ranges are an edge case under test
fn map_time_range_edge_cases() {
    // 3 files × 30 samples each → global extent 0..90.
    let (dir, _) = build_dataset(3, 2, 30, 0xED6E);
    let cat = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(cat.entries()).expect("vca");

    // Empty ranges map to nothing, wherever they sit.
    assert!(vca.map_time_range(0..0).is_empty());
    assert!(vca.map_time_range(45..45).is_empty());
    assert!(vca.map_time_range(90..90).is_empty());
    // Inverted ranges are treated as empty, not panics.
    assert!(vca.map_time_range(50..20).is_empty());

    // A range spanning a file boundary splits into per-file pieces.
    assert_eq!(vca.map_time_range(25..35), vec![(0, 25..30), (1, 0..5)]);
    assert_eq!(
        vca.map_time_range(29..61),
        vec![(0, 29..30), (1, 0..30), (2, 0..1)]
    );

    // Past EOF: the overlap clamps to the real extent; fully past EOF
    // maps to nothing.
    assert_eq!(vca.map_time_range(80..200), vec![(2, 20..30)]);
    assert!(vca.map_time_range(90..120).is_empty());
    assert!(vca.map_time_range(1000..2000).is_empty());

    // The exact full extent covers every file exactly once.
    assert_eq!(
        vca.map_time_range(0..90),
        vec![(0, 0..30), (1, 0..30), (2, 0..30)]
    );

    // Region *plans* reject past-EOF selections even though the raw
    // decomposition clamps — validation lives in the planner.
    assert!(IoPlan::for_region(&vca, 0..2, 80..200).is_err());
    assert!(IoPlan::for_region(&vca, 0..2, 10..10).is_err());
}

/// The planner's buffer pool sees reuse on repeated serial reads: the
/// second identical read must hit the size classes the first one
/// populated.
#[test]
fn repeated_reads_hit_the_buffer_pool() {
    let (dir, _) = build_dataset(4, 3, 30, 0xB0F);
    let cat = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(cat.entries()).expect("vca");

    let a = vca.read_all_f32().expect("first");
    let before = obs::global()
        .snapshot()
        .counter(dasf::pool::names::POOL_HIT);
    let b = vca.read_all_f32().expect("second");
    let after = obs::global()
        .snapshot()
        .counter(dasf::pool::names::POOL_HIT);
    assert_eq!(a, b);
    assert!(
        after > before,
        "second read must reuse pooled buffers: hits {before} -> {after}"
    );
}
