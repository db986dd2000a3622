//! Property tests for the DASSA storage engine: random geometries,
//! random selections, random rank counts — VCA, LAV, RCA, and both
//! parallel readers must all agree with each other.

use arrayudf::Array2;
use dassa::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// Build a dataset with per-file deterministic contents; returns
/// `(dir, full expected array)`.
fn build_dataset(files: usize, channels: u64, samples: u64, seed: u64) -> (PathBuf, Array2<f32>) {
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dassa-core-prop-{id}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("dir");
    let t0 = Timestamp::parse("170728224510").expect("ts");
    let mut full_cols: Vec<Array2<f32>> = Vec::new();
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
        full_cols.push(data);
    }
    // Expected: horizontal concatenation along time.
    let total = (samples as usize) * files;
    let expected = Array2::from_fn(channels as usize, total, |r, c| {
        full_cols[c / samples as usize].get(r, c % samples as usize)
    });
    (dir, expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn vca_reads_equal_expected_everywhere(
        files in 1usize..5,
        channels in 1u64..8,
        samples in 1u64..40,
        seed in any::<u64>(),
    ) {
        let (dir, expected) = build_dataset(files, channels, samples, seed);
        let cat = FileCatalog::scan(&dir).expect("scan");
        let vca = Vca::from_entries(cat.entries()).expect("vca");
        prop_assert_eq!(vca.read_all_f32().expect("read"), expected);
    }

    #[test]
    fn random_region_reads_match_slicing(
        files in 1usize..4,
        channels in 2u64..8,
        samples in 4u64..30,
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
        let tn = 1 + (total - t0 - 1).min(25);
        let region = vca.read_region_f32(c0..c0 + cn, t0..t0 + tn).expect("region");
        for r in 0..cn as usize {
            for c in 0..tn as usize {
                prop_assert_eq!(
                    region.get(r, c),
                    expected.get(c0 as usize + r, t0 as usize + c)
                );
            }
        }
        // LAV over the same region agrees.
        let lav = Lav::new(c0..c0 + cn, t0..t0 + tn);
        prop_assert_eq!(lav.read_f32(&vca).expect("lav"), region);
    }

    #[test]
    fn readers_and_rca_all_agree(
        files in 1usize..4,
        channels in 1u64..7,
        samples in 1u64..24,
        ranks in 1usize..5,
        seed in any::<u64>(),
    ) {
        let (dir, expected) = build_dataset(files, channels, samples, seed);
        let cat = FileCatalog::scan(&dir).expect("scan");
        let vca = Vca::from_entries(cat.entries()).expect("vca");

        for strategy in [ReadStrategy::CollectivePerFile, ReadStrategy::CommAvoiding] {
            let plan = IoPlan::for_vca(&vca, strategy, ranks);
            let blocks = minimpi::run(ranks, |c| IoExecutor::new(c).run(&plan).expect("read").0);
            prop_assert_eq!(Array2::vstack(&blocks), expected.clone(), "{:?}", strategy);
        }

        let rca_path = dir.join("prop.rca.dasf");
        create_rca(cat.entries(), &rca_path).expect("rca");
        let (_, rca_data) = read_rca(&rca_path).expect("read rca");
        prop_assert_eq!(rca_data, expected);
    }

    /// The observability counters expose the paper's §IV-B communication
    /// asymmetry: the collective reader broadcasts every file to every
    /// rank (O(n·p) traffic, one bcast per file per rank), while the
    /// comm-avoiding reader does a single alltoallv per rank moving only
    /// the misplaced blocks (O(n) traffic) — under either resilience.
    #[test]
    fn par_read_obs_counters_expose_comm_asymmetry(
        files in 1usize..4,
        channels in 2u64..8,
        samples in 8u64..40,
        ranks in 2usize..5,
        seed in any::<u64>(),
    ) {
        use dassa::prelude::*;
        use dassa::prelude::plan::metric_names as pr;
        use minimpi::metric_names as mm;
        use std::sync::Arc;

        let (dir, _) = build_dataset(files, channels, samples, seed);
        let cat = FileCatalog::scan(&dir).expect("scan");
        let vca = Vca::from_entries(cat.entries()).expect("vca");

        for resilience in [Resilience::FailFast, Resilience::Quarantine] {
            let world = |strategy| {
                let plan = IoPlan::for_vca(&vca, strategy, ranks);
                let reg = Arc::new(obs::Registry::new());
                minimpi::run_in_registry(ranks, Arc::clone(&reg), |c| {
                    let executor = match resilience {
                        Resilience::FailFast => IoExecutor::new(c),
                        Resilience::Quarantine => IoExecutor::resilient(c),
                    };
                    executor.run(&plan).expect("read")
                });
                reg.snapshot()
            };
            let coll = world(ReadStrategy::CollectivePerFile);
            let ca = world(ReadStrategy::CommAvoiding);

            // Collective: one bcast per file per rank, no alltoallv.
            prop_assert_eq!(coll.counter(mm::BCASTS), (files * ranks) as u64);
            prop_assert_eq!(coll.counter(mm::ALLTOALLVS), 0);
            // Comm-avoiding: exactly one alltoallv per rank, no broadcasts.
            prop_assert_eq!(ca.counter(mm::ALLTOALLVS), ranks as u64);
            prop_assert_eq!(ca.counter(mm::BCASTS), 0);
            // O(n·p) vs O(n): with ≥2 ranks the broadcasts move at least as
            // many payload bytes as the alltoallv exchange.
            prop_assert!(
                coll.counter(mm::P2P_BYTES) >= ca.counter(mm::P2P_BYTES),
                "collective {} bytes < comm-avoiding {} bytes",
                coll.counter(mm::P2P_BYTES),
                ca.counter(mm::P2P_BYTES)
            );
            // Each strategy records its stage breakdown once per rank.
            let phases = [
                (&coll, pr::COLLECTIVE_READ_NS),
                (&coll, pr::COLLECTIVE_EXCHANGE_NS),
                (&coll, pr::COLLECTIVE_COPY_NS),
                (&ca, pr::CA_READ_NS),
                (&ca, pr::CA_EXCHANGE_NS),
                (&ca, pr::CA_COPY_NS),
            ];
            for (snap, name) in phases {
                prop_assert_eq!(
                    snap.histogram(name).map(|h| h.count),
                    Some(ranks as u64),
                    "{} under {:?}", name, resilience
                );
            }
        }
    }

    /// With faults disabled, the resilient readers are *exactly* the
    /// plain readers: same array from both strategies on any
    /// file/channel/rank split, a clean [`ReadReport`] on every rank,
    /// and the same answer whether the world is a classic blocking one
    /// or a chaos world carrying an empty fault plan.
    #[test]
    fn resilient_readers_match_plain_when_faults_are_off(
        files in 1usize..4,
        channels in 1u64..7,
        samples in 1u64..24,
        ranks in 1usize..5,
        seed in any::<u64>(),
    ) {
        use std::sync::Arc;

        let (dir, expected) = build_dataset(files, channels, samples, seed);
        let cat = FileCatalog::scan(&dir).expect("scan");
        let vca = Vca::from_entries(cat.entries()).expect("vca");

        let resilient = |strategy| {
            let plan = IoPlan::for_vca(&vca, strategy, ranks);
            minimpi::run(ranks, |c| IoExecutor::resilient(c).run(&plan).expect("resilient"))
        };
        let coll = resilient(ReadStrategy::CollectivePerFile);
        let ca = resilient(ReadStrategy::CommAvoiding);
        for (block_report, what) in coll.iter().chain(&ca).map(|r| (r, "resilient")) {
            prop_assert!(block_report.1.is_clean(), "{what}: dirty report {:?}", block_report.1);
        }
        let coll_blocks: Vec<_> = coll.into_iter().map(|(b, _)| b).collect();
        let ca_blocks: Vec<_> = ca.into_iter().map(|(b, _)| b).collect();
        prop_assert_eq!(Array2::vstack(&coll_blocks), expected.clone());
        prop_assert_eq!(Array2::vstack(&ca_blocks), expected.clone());

        // An installed-but-empty plan (no site rates) must change nothing:
        // bounded retries, timeouts, and the fault hooks all stay inert.
        let plan = Arc::new(faultline::FaultPlan::new(seed));
        let auto = IoPlan::for_vca(&vca, ReadStrategy::Auto, ranks);
        let (results, _reg) = minimpi::run_chaos(
            ranks,
            plan,
            minimpi::RetryPolicy::default(),
            |c| IoExecutor::resilient(c).run(&auto).expect("chaos clean"),
        );
        let mut blocks = Vec::new();
        for (block, report) in results {
            prop_assert!(report.is_clean(), "empty plan produced faults: {report:?}");
            blocks.push(block);
        }
        prop_assert_eq!(Array2::vstack(&blocks), expected);
    }

    #[test]
    fn timestamp_roundtrip_and_arithmetic(minutes in 0u64..2_000_000) {
        let t0 = Timestamp::parse("170101000000").expect("ts");
        let later = t0.add_minutes(minutes);
        // Round-trip through the compact form.
        let reparsed = Timestamp::parse(&later.to_compact()).expect("reparse");
        prop_assert_eq!(reparsed, later);
        // Arithmetic consistency.
        prop_assert_eq!(t0.minutes_until(&later), minutes);
        prop_assert_eq!(
            later.epoch_seconds() - t0.epoch_seconds(),
            minutes * 60
        );
    }
}

/// A snapshot full of real parallel-read metrics survives the JSON
/// exporter round-trip — what `das_pipeline --metrics=out.json` writes
/// is exactly what a consumer parses back.
#[test]
fn metrics_json_round_trips_real_workload() {
    use std::sync::Arc;

    let (dir, _) = build_dataset(3, 5, 30, 0x15A);
    let cat = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(cat.entries()).expect("vca");
    let registry = Arc::new(obs::Registry::new());
    let plan = IoPlan::for_vca(&vca, ReadStrategy::CommAvoiding, 3);
    minimpi::run_in_registry(3, Arc::clone(&registry), |c| {
        IoExecutor::new(c).run(&plan).expect("ca")
    });

    let snap = registry.snapshot();
    assert!(!snap.counters.is_empty(), "workload produced no counters");
    assert!(
        !snap.histograms.is_empty(),
        "workload produced no histograms"
    );
    let parsed = obs::Snapshot::from_json(&snap.to_json()).expect("parse");
    assert_eq!(parsed, snap);
}
