//! The executor driven over whole worlds: both §IV-B exchanges against
//! the serial read, their collective counts, retry/quarantine under
//! seeded faults, and fail-fast over a rotten or a reshaped member.

use crate::dass::plan::{IoExecutor, IoPlan, ReadReport, ReadStrategy, MAX_READ_ATTEMPTS};
use crate::dass::search::tests::{make_files, reshape_member};
use crate::dass::{FileCatalog, Vca};
use crate::{DassaError, Result};
use arrayudf::Array2;
use faultline::{site, FaultPlan};
use minimpi::{run_chaos, Comm, RetryPolicy};
use std::sync::Arc;
use std::time::Duration;

const BOTH: [ReadStrategy; 2] = [ReadStrategy::CollectivePerFile, ReadStrategy::CommAvoiding];

fn sample_vca(tag: &str, files: usize, channels: u64, samples: u64) -> Vca {
    let dir = make_files(tag, "170728224510", files, channels, samples);
    let cat = FileCatalog::scan(&dir).unwrap();
    Vca::from_entries(cat.entries()).unwrap()
}

/// This rank's share of a full-extent read of `vca`.
fn run_on(
    executor: IoExecutor<'_>,
    comm: &Comm,
    vca: &Vca,
    strategy: ReadStrategy,
) -> Result<(Array2<f32>, ReadReport)> {
    executor.run(&IoPlan::for_vca(vca, strategy, comm.size()))
}

fn read_resilient(comm: &Comm, vca: &Vca, strategy: ReadStrategy) -> (Array2<f32>, ReadReport) {
    run_on(IoExecutor::resilient(comm), comm, vca, strategy).expect("resilient read")
}

fn run_and_gather(vca: &Vca, ranks: usize, strategy: ReadStrategy) -> Array2<f32> {
    let blocks = minimpi::run(ranks, |comm| {
        run_on(IoExecutor::new(comm), comm, vca, strategy)
            .expect("parallel read")
            .0
    });
    Array2::vstack(&blocks)
}

#[test]
fn collective_per_file_matches_serial() {
    let vca = sample_vca("par-coll", 4, 6, 30);
    let serial = vca.read_all_f32().unwrap();
    for ranks in [1usize, 2, 3, 6] {
        let out = run_and_gather(&vca, ranks, ReadStrategy::CollectivePerFile);
        assert_eq!(out, serial, "ranks={ranks}");
    }
}

#[test]
fn comm_avoiding_matches_serial() {
    let vca = sample_vca("par-ca", 5, 6, 30);
    let serial = vca.read_all_f32().unwrap();
    for ranks in [1usize, 2, 3, 4, 7] {
        let out = run_and_gather(&vca, ranks, ReadStrategy::CommAvoiding);
        assert_eq!(out, serial, "ranks={ranks}");
    }
}

#[test]
fn strategies_agree_with_more_ranks_than_files() {
    let vca = sample_vca("par-more", 2, 8, 20);
    let a = run_and_gather(&vca, 5, ReadStrategy::CollectivePerFile);
    let b = run_and_gather(&vca, 5, ReadStrategy::CommAvoiding);
    assert_eq!(a, b);
}

#[test]
fn broadcast_count_scales_with_files() {
    // The paper's complexity claim: collective-per-file needs O(n)
    // broadcasts; communication-avoiding none at all.
    let vca = sample_vca("par-count", 6, 4, 10);
    let (_, coll) = minimpi::run_with_stats(2, |comm| {
        run_on(
            IoExecutor::new(comm),
            comm,
            &vca,
            ReadStrategy::CollectivePerFile,
        )
        .unwrap()
    });
    assert_eq!(coll.bcasts, 6 * 2, "one bcast per file per rank");

    let (_, ca) = minimpi::run_with_stats(2, |comm| {
        run_on(
            IoExecutor::new(comm),
            comm,
            &vca,
            ReadStrategy::CommAvoiding,
        )
        .unwrap()
    });
    assert_eq!(ca.bcasts, 0);
    assert_eq!(ca.alltoallvs, 2, "a single alltoallv per rank");
}

#[test]
fn comm_avoiding_moves_fewer_bytes() {
    // Collective-per-file broadcasts whole files to everyone;
    // communication-avoiding ships each byte to exactly one owner.
    let vca = sample_vca("par-bytes", 8, 8, 25);
    let [coll, ca] = BOTH.map(|strategy| {
        minimpi::run_with_stats(4, |comm| {
            run_on(IoExecutor::new(comm), comm, &vca, strategy).unwrap()
        })
        .1
    });
    assert!(
        ca.p2p_bytes < coll.p2p_bytes,
        "comm-avoiding {} bytes vs collective {} bytes",
        ca.p2p_bytes,
        coll.p2p_bytes
    );
}

/// The members of `vca` for which the file-name-keyed `site` fires
/// under `plan` — computed independently of the reader, straight
/// from the plan.
fn members_struck(vca: &Vca, plan: &FaultPlan, site: &str) -> Vec<usize> {
    let struck: Vec<usize> = vca
        .entries()
        .iter()
        .enumerate()
        .filter(|(_, e)| {
            let name = e.path.file_name().expect("member file name");
            plan.fires(site, faultline::key_of(name.as_encoded_bytes()))
        })
        .map(|(fi, _)| fi)
        .collect();
    assert!(
        !struck.is_empty() && struck.len() < vca.n_files(),
        "the seed should strike some but not all of {} files (got {struck:?})",
        vca.n_files()
    );
    struck
}

/// Struck members are zero, everything else matches the clean read.
fn assert_zero_filled(full: &Array2<f32>, clean: &Array2<f32>, vca: &Vca, struck: &[usize]) {
    for fi in 0..vca.n_files() {
        let t0 = vca.time_offset_of(fi) as usize;
        let cols = vca.samples_of(fi) as usize;
        for ch in 0..vca.channels() as usize {
            for c in t0..t0 + cols {
                let want = if struck.contains(&fi) {
                    0.0
                } else {
                    clean.get(ch, c)
                };
                assert_eq!(full.get(ch, c), want, "file {fi} ch {ch} col {c}");
            }
        }
    }
}

#[test]
fn resilient_clean_run_matches_plain_reader() {
    let vca = sample_vca("par-res-clean", 4, 6, 30);
    let serial = vca.read_all_f32().unwrap();
    for strat in BOTH {
        let results = minimpi::run(3, |comm| read_resilient(comm, &vca, strat));
        let (blocks, reports): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        assert_eq!(Array2::vstack(&blocks), serial, "{strat:?}");
        for r in &reports {
            assert!(r.is_clean(), "{strat:?}: {r:?}");
        }
    }
}

#[test]
fn quarantine_zero_fills_and_strategies_agree() {
    let vca = sample_vca("par-res-quar", 6, 5, 20);
    let serial = vca.read_all_f32().unwrap();
    // Permanent (file-name-keyed) read errors.
    let plan = FaultPlan::new(33).with(site::DASF_READ_ERR, 0.5);
    let expected = members_struck(&vca, &plan, site::DASF_READ_ERR);
    let plan = Arc::new(plan);
    let mut per_strategy = Vec::new();
    for strat in BOTH {
        let (results, _) = run_chaos(3, Arc::clone(&plan), RetryPolicy::default(), |comm| {
            read_resilient(comm, &vca, strat)
        });
        let (blocks, reports): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        let full = Array2::vstack(&blocks);
        // Every rank reports the same thing, and it matches the
        // plan-derived expectation.
        for r in &reports {
            assert_eq!(r.quarantined, expected, "{strat:?}");
            assert_eq!(
                r.zero_samples,
                expected
                    .iter()
                    .map(|&fi| vca.channels() * vca.samples_of(fi))
                    .sum::<u64>()
            );
        }
        assert_zero_filled(&full, &serial, &vca, &expected);
        per_strategy.push(full);
    }
    assert_eq!(per_strategy[0], per_strategy[1], "strategies agree");
}

#[test]
fn bitrot_quarantines_with_attributed_mismatches() {
    // `dasf.read.corrupt` flips real bytes; the v3 checksum layer
    // turns every attempt into a ChecksumMismatch, so the file
    // quarantines after MAX_READ_ATTEMPTS detected mismatches.
    let vca = sample_vca("par-res-rot", 6, 5, 20);
    let serial = vca.read_all_f32().unwrap();
    let plan = FaultPlan::new(5).with(site::DASF_READ_CORRUPT, 0.5);
    let expected = members_struck(&vca, &plan, site::DASF_READ_CORRUPT);
    let plan = Arc::new(plan);
    let mut per_strategy = Vec::new();
    for strat in BOTH {
        let (results, _) = run_chaos(3, Arc::clone(&plan), RetryPolicy::default(), |comm| {
            read_resilient(comm, &vca, strat)
        });
        let (blocks, reports): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        for r in &reports {
            assert_eq!(r.quarantined, expected, "{strat:?}");
            assert_eq!(
                r.checksum_mismatches,
                expected.len() as u64 * MAX_READ_ATTEMPTS as u64,
                "{strat:?}: every attempt on a rotten file detects the rot"
            );
            assert!(!r.is_clean());
        }
        let full = Array2::vstack(&blocks);
        assert_zero_filled(&full, &serial, &vca, &expected);
        per_strategy.push((full, reports.into_iter().next().unwrap()));
    }
    assert_eq!(per_strategy[0], per_strategy[1], "strategies agree");
}

#[test]
fn transient_faults_retry_and_recover() {
    // `par_read.file` failures are capped below the retry budget:
    // every file eventually reads, the report only shows effort.
    let vca = sample_vca("par-res-transient", 5, 4, 16);
    let serial = vca.read_all_f32().unwrap();
    let plan = Arc::new(FaultPlan::new(9).with(site::PAR_READ_FILE, 1.0));
    let mut reports = Vec::new();
    for _ in 0..2 {
        let (results, _) = run_chaos(2, Arc::clone(&plan), RetryPolicy::default(), |comm| {
            read_resilient(comm, &vca, ReadStrategy::CommAvoiding)
        });
        let (blocks, mut rep): (Vec<_>, Vec<_>) = results.into_iter().unzip();
        assert_eq!(Array2::vstack(&blocks), serial);
        assert!(rep[0].quarantined.is_empty());
        assert!(rep[0].io_retries >= vca.n_files() as u64);
        reports.push(rep.remove(0));
    }
    assert_eq!(reports[0], reports[1], "retry counts are deterministic");
}

#[test]
fn uneven_channels_and_ranks() {
    let vca = sample_vca("par-uneven", 3, 7, 15);
    let serial = vca.read_all_f32().unwrap();
    for ranks in [2usize, 3, 5] {
        for strat in BOTH {
            assert_eq!(
                run_and_gather(&vca, ranks, strat),
                serial,
                "{strat:?}/{ranks}"
            );
        }
    }
}

/// `world`'s result, from a helper thread, or a failure after 10 s:
/// a rank stranded inside a collective must fail the test, not hang
/// the suite.
fn within_10s<T: Send + 'static>(world: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(world()));
    rx.recv_timeout(Duration::from_secs(10))
        .expect("the world hung or panicked: a rank left the others inside a collective")
}

/// `body` on every rank of a blocking world, or of a chaos world with
/// no faults, behind the 10 s watchdog.
fn in_world<T: Send + 'static>(
    ranks: usize,
    chaos: bool,
    body: impl Fn(&Comm) -> T + Send + Sync + 'static,
) -> Vec<T> {
    within_10s(move || {
        if chaos {
            let no_faults = Arc::new(FaultPlan::new(0));
            run_chaos(ranks, no_faults, RetryPolicy::default(), body).0
        } else {
            minimpi::run(ranks, body)
        }
    })
}

/// Whether this process runs `test` by itself. Otherwise it re-runs
/// `test` alone in a child process of this test binary, fails if the
/// child does, and returns `false`. A process-wide counter such as
/// `dasf.open.count` takes exact values only where no other test runs
/// beside the one reading it.
fn alone(test: &str) -> bool {
    const ALONE: &str = "DASSA_TEST_ALONE";
    if std::env::var_os(ALONE).is_some() {
        return true;
    }
    let exe = std::env::current_exe().expect("the test binary");
    let out = std::process::Command::new(exe)
        .args([test, "--exact", "--test-threads=1"])
        .env(ALONE, "1")
        .output()
        .expect("run the test alone");
    let said = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && said.contains("1 passed"),
        "{test}, run alone:\n{said}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    false
}

/// Fail-fast over a world: a member nobody can read — its bytes rotten
/// on disk, or the file rewritten at another shape after the scan — is
/// an error on **every** rank: the owner's the typed one, the others'
/// naming the file and the owner. Nobody is left waiting in a
/// collective the owner never entered. Under quarantine the same member
/// is a zero span, reported alike on every rank; a rotten member is
/// read again up to the budget, a reshaped one only once. The test
/// counts `dasf.open.count`, so it runs in a process of its own.
#[test]
fn fail_fast_fails_every_rank_and_strands_none() {
    if !alone("dass::plan::world_tests::fail_fast_fails_every_rank_and_strands_none") {
        return;
    }
    let rotten = sample_vca("exec-fail-fast-world", 4, 6, 30);
    let clean = rotten.read_all_f32().unwrap();
    let path = &rotten.entries()[1].path;
    let mut bytes = std::fs::read(path).unwrap();
    // Payload rot: the samples follow the 16-byte superblock, so the
    // scan still reads the member's metadata and only a read meets this.
    for b in &mut bytes[64..68] {
        *b = !*b;
    }
    std::fs::write(path, bytes).unwrap();
    // The same corpus, with member 1 rewritten at 5 channels of the 6
    // the scan planned.
    let reshaped = sample_vca("exec-reshaped-world", 4, 6, 30);
    reshape_member(&reshaped.entries()[1], 5, 30);

    // A damaged corpus, what its owner returns, the cause the other
    // ranks are told, and the retries a quarantining read spends on it.
    type Damage = (Vca, fn(&DassaError) -> bool, &'static str, u64);
    let damages: [Damage; 2] = [
        (
            rotten,
            |e| {
                matches!(
                    e,
                    DassaError::Dasf(dasf::DasfError::ChecksumMismatch { .. })
                )
            },
            "checksum mismatch",
            MAX_READ_ATTEMPTS as u64 - 1,
        ),
        (
            reshaped,
            |e| matches!(e, DassaError::Inconsistent(_)),
            "inconsistent",
            0,
        ),
    ];
    let opens = obs::global().counter(dasf::metrics::names::OPEN_COUNT);
    for (vca, owner_error, cause, retries) in damages {
        let damaged = vca.entries()[1].path.to_str().unwrap().to_string();
        for ranks in [2usize, 3] {
            for strategy in BOTH {
                for chaos in [false, true] {
                    let what =
                        format!("{cause}, {strategy:?}, {ranks} ranks, chaos world: {chaos}");
                    let v = vca.clone();
                    let results = in_world(ranks, chaos, move |comm| {
                        run_on(IoExecutor::new(comm), comm, &v, strategy).map(drop)
                    });
                    for (rank, result) in results.iter().enumerate() {
                        let err = result.as_ref().expect_err(&what);
                        if rank == 1 % ranks {
                            assert!(owner_error(err), "{what}: owner returned {err:?}");
                        } else {
                            let said = err.to_string();
                            assert!(
                                said.contains(&damaged)
                                    && said.contains("rank 1")
                                    && said.contains(cause),
                                "{what}: rank {rank} returned {said:?}"
                            );
                        }
                    }

                    let v = vca.clone();
                    let before = opens.get();
                    let kept =
                        in_world(ranks, chaos, move |comm| read_resilient(comm, &v, strategy));
                    let opened = opens.get() - before;
                    let (blocks, reports): (Vec<_>, Vec<_>) = kept.into_iter().unzip();
                    for r in &reports {
                        assert_eq!(r.quarantined, [1], "{what}");
                        assert_eq!(r.zero_samples, 6 * 30, "{what}");
                        assert_eq!(r.io_retries, retries, "{what}");
                    }
                    assert_eq!(
                        opened,
                        vca.n_files() as u64 + retries,
                        "{what}: one open per member and per retry"
                    );
                    assert_zero_filled(&Array2::vstack(&blocks), &clean, &vca, &[1]);
                }
            }
        }
    }
}
