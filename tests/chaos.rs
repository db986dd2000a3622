//! Seeded chaos suite for the `faultline` fault-injection subsystem.
//!
//! Every test here derives its faults from a [`FaultPlan`] seed, so the
//! whole suite is deterministic: the same seed produces byte-identical
//! arrays, identical quarantine reports, and identical retry counters on
//! every run. The seed matrix is controlled by `DASSA_CHAOS_SEEDS`
//! (a count, default 4); CI runs it at 8.
//!
//! Invariants checked, per seed:
//! 1. same seed ⇒ byte-identical outcome (arrays, reports, counters);
//! 2. both §IV-B read strategies return identical arrays and identical
//!    quarantine sets under the same plan;
//! 3. no fault schedule yields silently wrong data — every span either
//!    matches the clean read or is zero-filled *and* reported;
//! 4. every retry/quarantine event increments exactly one obs metric;
//! 5. a dead rank turns collectives into `Err` after bounded retries,
//!    never a hang or a panic.

use dasgen::{write_minute_files, Scene};
use dassa::prelude::*;
use faultline::{site, FaultPlan};
use minimpi::{run_chaos, run_chaos_in_registry, CommError, RetryPolicy};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

/// Route every structured log record the daemons emit during this
/// suite into a shared buffer instead of stderr: the chaos output
/// stays clean (the CI digest diff sees only digest lines), and tests
/// can still assert that operator-facing events were logged. Installed
/// once per process, never uncaptured — tests run concurrently and a
/// mid-flight uncapture would race.
fn captured_logs() -> Arc<Mutex<Vec<obs::LogRecord>>> {
    static SINK: OnceLock<Arc<Mutex<Vec<obs::LogRecord>>>> = OnceLock::new();
    Arc::clone(SINK.get_or_init(|| {
        let buffer = Arc::new(Mutex::new(Vec::new()));
        obs::logger().capture(Arc::clone(&buffer));
        buffer
    }))
}

const RANKS: usize = 3;
const FILES: usize = 6;
const CHANNELS: usize = 5;

/// The deterministic seed matrix: `DASSA_CHAOS_SEEDS` picks how many
/// seeds to sweep (CI uses 8), the seeds themselves are fixed.
fn seed_matrix() -> Vec<u64> {
    let n: u64 = std::env::var("DASSA_CHAOS_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    (0..n).map(|i| 0xDA55A + i * 7919).collect()
}

/// A plan exercising every layer: permanent I/O errors and real
/// bit-rot (both file-name keyed), read latency, transient per-file
/// failures, and comm-level message drops and delays.
fn chaos_plan(seed: u64) -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::new(seed)
            .with(site::DASF_READ_ERR, 0.25)
            .with(site::DASF_READ_CORRUPT, 0.25)
            .with(site::DASF_READ_LATENCY, 0.3)
            .with(site::PAR_READ_FILE, 0.4)
            .with(site::MINIMPI_RECV_DROP, 0.2)
            .with(site::MINIMPI_RECV_DELAY, 0.2),
    )
}

/// Does a file-name-keyed site fire for member `fi` of `vca`?
fn fires_for_member(vca: &Vca, plan: &FaultPlan, s: &str, fi: usize) -> bool {
    let name = vca.entries()[fi].path.file_name().expect("member name");
    plan.fires(s, faultline::key_of(name.as_encoded_bytes()))
}

fn dataset(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dassa-chaos-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let scene = Scene::demo(CHANNELS, 4.0, 360.0, 3);
    write_minute_files(&scene, &dir, "170728224510", FILES).expect("generate");
    dir
}

fn load_vca(dir: &PathBuf) -> Vca {
    let catalog = FileCatalog::scan(dir).expect("scan");
    Vca::from_entries(catalog.entries()).expect("vca")
}

/// This rank's share of a retry/quarantine read of all of `vca`.
fn resilient_read(
    comm: &minimpi::Comm,
    vca: &Vca,
    strategy: ReadStrategy,
) -> dassa::Result<(arrayudf::Array2<f32>, ReadReport)> {
    IoExecutor::resilient(comm).run(&IoPlan::for_vca(vca, strategy, comm.size()))
}

/// One resilient parallel read under `plan`; returns the reassembled
/// full array and the (rank-0) report, after asserting all ranks agree.
fn chaos_read(
    vca: &Vca,
    plan: &Arc<FaultPlan>,
    strategy: ReadStrategy,
) -> (arrayudf::Array2<f32>, ReadReport) {
    let (results, _) = run_chaos(RANKS, Arc::clone(plan), RetryPolicy::default(), |comm| {
        resilient_read(comm, vca, strategy).expect("resilient read")
    });
    let (blocks, reports): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    for r in &reports[1..] {
        assert_eq!(r, &reports[0], "all ranks must report identically");
    }
    (arrayudf::Array2::vstack(&blocks), reports[0].clone())
}

/// The quarantine set `plan` implies for `vca`, computed straight from
/// the plan (file-name keyed permanent errors and bit-rot), independent
/// of the reader under test.
fn expected_quarantine(vca: &Vca, plan: &FaultPlan) -> Vec<usize> {
    (0..vca.n_files())
        .filter(|&fi| {
            fires_for_member(vca, plan, site::DASF_READ_ERR, fi)
                || fires_for_member(vca, plan, site::DASF_READ_CORRUPT, fi)
        })
        .collect()
}

/// The per-file transient failure count `plan` implies (capped below
/// the retry budget, keyed by file index).
fn expected_transient(plan: &FaultPlan, fi: usize) -> u64 {
    if plan.fires(site::PAR_READ_FILE, fi as u64) {
        1 + plan.value_below(site::PAR_READ_FILE, fi as u64, MAX_READ_ATTEMPTS as u64 - 1)
    } else {
        0
    }
}

/// The world-total checksum mismatches `plan` implies: a rotten file
/// reports one mismatch per attempt that reaches the actual read —
/// unless `dasf.read.err` also fires, which fails the read before any
/// bytes (and hence any checksums) are touched.
fn expected_mismatches(vca: &Vca, plan: &FaultPlan) -> u64 {
    (0..vca.n_files())
        .map(|fi| {
            if fires_for_member(vca, plan, site::DASF_READ_CORRUPT, fi)
                && !fires_for_member(vca, plan, site::DASF_READ_ERR, fi)
            {
                MAX_READ_ATTEMPTS as u64 - expected_transient(plan, fi)
            } else {
                0
            }
        })
        .sum()
}

/// The world-total read retries `plan` implies: permanently bad files
/// burn the whole budget; transiently faulty files repeat
/// `1 + value_below(..)` times; both at once still cap at the budget.
fn expected_io_retries(vca: &Vca, plan: &FaultPlan, quarantined: &[usize]) -> u64 {
    (0..vca.n_files())
        .map(|fi| {
            if quarantined.contains(&fi) {
                return (MAX_READ_ATTEMPTS - 1) as u64;
            }
            expected_transient(plan, fi)
        })
        .sum()
}

#[test]
fn same_seed_is_byte_identical() {
    let dir = dataset("determinism");
    let vca = load_vca(&dir);
    for seed in seed_matrix() {
        let plan = chaos_plan(seed);
        for strategy in [ReadStrategy::CollectivePerFile, ReadStrategy::CommAvoiding] {
            let (a1, r1) = chaos_read(&vca, &plan, strategy);
            let (a2, r2) = chaos_read(&vca, &plan, strategy);
            assert_eq!(a1, a2, "seed {seed} {strategy:?}: arrays must be identical");
            assert_eq!(
                r1, r2,
                "seed {seed} {strategy:?}: reports must be identical"
            );
        }
    }
}

#[test]
fn strategies_agree_under_every_seed() {
    let dir = dataset("agreement");
    let vca = load_vca(&dir);
    for seed in seed_matrix() {
        let plan = chaos_plan(seed);
        let (coll, coll_rep) = chaos_read(&vca, &plan, ReadStrategy::CollectivePerFile);
        let (ca, ca_rep) = chaos_read(&vca, &plan, ReadStrategy::CommAvoiding);
        assert_eq!(
            coll, ca,
            "seed {seed}: strategies must return the same bytes"
        );
        assert_eq!(
            coll_rep, ca_rep,
            "seed {seed}: strategies must quarantine the same files"
        );
    }
}

#[test]
fn no_fault_schedule_yields_silently_wrong_data() {
    let dir = dataset("no-silent-corruption");
    let vca = load_vca(&dir);
    let clean = vca.read_all_f32().expect("clean serial read");
    for seed in seed_matrix() {
        let plan = chaos_plan(seed);
        let (full, report) = chaos_read(&vca, &plan, ReadStrategy::CommAvoiding);
        for fi in 0..vca.n_files() {
            let quarantined = report.quarantined.contains(&fi);
            let t0 = vca.time_offset_of(fi) as usize;
            let cols = vca.samples_of(fi) as usize;
            for ch in 0..CHANNELS {
                for c in t0..t0 + cols {
                    let got = full.get(ch, c);
                    if quarantined {
                        assert_eq!(got, 0.0, "seed {seed}: quarantined span must be zero");
                    } else {
                        assert_eq!(
                            got,
                            clean.get(ch, c),
                            "seed {seed} file {fi}: surviving span must be exact"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn quarantine_and_retries_match_the_plan_exactly() {
    let dir = dataset("counter-exactness");
    let vca = load_vca(&dir);
    for seed in seed_matrix() {
        let plan = chaos_plan(seed);
        let expected_q = expected_quarantine(&vca, &plan);
        let expected_r = expected_io_retries(&vca, &plan, &expected_q);
        let registry = Arc::new(obs::Registry::new());
        let (results, stats) = run_chaos_in_registry(
            RANKS,
            Arc::clone(&registry),
            Arc::clone(&plan),
            RetryPolicy::default(),
            |comm| resilient_read(comm, &vca, ReadStrategy::CommAvoiding).expect("read"),
        );
        let report = &results[0].1;
        assert_eq!(report.quarantined, expected_q, "seed {seed}");
        assert_eq!(report.io_retries, expected_r, "seed {seed}");
        assert_eq!(
            report.checksum_mismatches,
            expected_mismatches(&vca, &plan),
            "seed {seed}: mismatch count must be derivable from the plan"
        );

        // Every retry/quarantine event increments exactly one metric:
        // the world-registry counters equal the report, with no leakage
        // between the I/O metrics and `minimpi.retries`.
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter(plan::metric_names::QUARANTINED),
            expected_q.len() as u64,
            "seed {seed}: one increment per quarantined file"
        );
        assert_eq!(
            snap.counter(plan::metric_names::RETRIES),
            expected_r,
            "seed {seed}: one increment per repeated read attempt"
        );
        // Comm retries come only from injected message drops, which are
        // deterministic too — re-running the same seed reproduces them.
        let (_, stats2) = run_chaos_in_registry(
            RANKS,
            Arc::new(obs::Registry::new()),
            Arc::clone(&plan),
            RetryPolicy::default(),
            |comm| resilient_read(comm, &vca, ReadStrategy::CommAvoiding).expect("read"),
        );
        assert_eq!(
            stats.retries, stats2.retries,
            "seed {seed}: comm retry count must be reproducible"
        );
    }
}

#[test]
fn io_faults_never_touch_comm_counters_and_vice_versa() {
    let dir = dataset("no-double-count");
    let vca = load_vca(&dir);
    // Only I/O faults: comm retries must stay zero.
    let io_plan = Arc::new(
        FaultPlan::new(11)
            .with(site::DASF_READ_ERR, 0.5)
            .with(site::PAR_READ_FILE, 0.5),
    );
    let registry = Arc::new(obs::Registry::new());
    let (_, stats) = run_chaos_in_registry(
        RANKS,
        Arc::clone(&registry),
        Arc::clone(&io_plan),
        RetryPolicy::default(),
        |comm| resilient_read(comm, &vca, ReadStrategy::CommAvoiding).expect("read"),
    );
    assert_eq!(
        stats.retries, 0,
        "I/O faults must not count as comm retries"
    );

    // Only comm faults: the read must be clean and exact.
    let comm_plan = Arc::new(FaultPlan::new(11).with(site::MINIMPI_RECV_DROP, 1.0));
    let clean = vca.read_all_f32().expect("clean serial read");
    let registry = Arc::new(obs::Registry::new());
    let (results, stats) = run_chaos_in_registry(
        RANKS,
        Arc::clone(&registry),
        comm_plan,
        RetryPolicy::default(),
        |comm| resilient_read(comm, &vca, ReadStrategy::CollectivePerFile).expect("read"),
    );
    let (blocks, reports): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    assert_eq!(arrayudf::Array2::vstack(&blocks), clean);
    assert!(reports.iter().all(|r| r.is_clean()));
    let snap = registry.snapshot();
    assert_eq!(snap.counter(plan::metric_names::QUARANTINED), 0);
    assert_eq!(snap.counter(plan::metric_names::RETRIES), 0);
    assert!(
        stats.retries > 0,
        "dropped messages must count as comm retries"
    );
}

#[test]
fn dead_rank_fails_the_read_with_an_error_not_a_hang() {
    let dir = dataset("dead-rank");
    let vca = load_vca(&dir);
    // Find a seed where, on a 2-rank world, rank 1 is dead and rank 0
    // survives.
    let plan = (0u64..)
        .map(|seed| FaultPlan::new(seed).with(site::MINIMPI_RANK_DEAD, 0.5))
        .find(|p| !p.fires(site::MINIMPI_RANK_DEAD, 0) && p.fires(site::MINIMPI_RANK_DEAD, 1))
        .expect("some seed kills exactly rank 1");
    let (results, _) = run_chaos(
        2,
        Arc::new(plan),
        RetryPolicy::bounded(2, std::time::Duration::from_millis(10)),
        |comm| resilient_read(comm, &vca, ReadStrategy::CollectivePerFile),
    );
    match &results[1] {
        Err(DassaError::Comm(CommError::RankDead(1))) => {}
        other => panic!("dead rank must refuse with RankDead, got {other:?}"),
    }
    match &results[0] {
        Err(DassaError::Comm(CommError::Timeout {
            src: 1,
            attempts: 2,
        })) => {}
        other => panic!("survivor must time out after bounded retries, got {other:?}"),
    }
}

#[test]
fn bitrot_is_attributed_to_exact_files_identically_on_both_strategies() {
    // Satellite: `dasf.read.corrupt` now flips real bytes, and the
    // quarantine report must attribute the resulting checksum
    // mismatches to the exact member files — the same way under both
    // §IV-B strategies, with counts derived purely from the plan.
    let dir = dataset("bitrot-attribution");
    let vca = load_vca(&dir);
    let mut rotten_seen = 0usize;
    for seed in seed_matrix() {
        let plan = chaos_plan(seed);
        let rotten: Vec<usize> = (0..vca.n_files())
            .filter(|&fi| fires_for_member(&vca, &plan, site::DASF_READ_CORRUPT, fi))
            .collect();
        rotten_seen += rotten.len();
        let expected_q = expected_quarantine(&vca, &plan);
        let expected_m = expected_mismatches(&vca, &plan);
        let (coll, coll_rep) = chaos_read(&vca, &plan, ReadStrategy::CollectivePerFile);
        let (ca, ca_rep) = chaos_read(&vca, &plan, ReadStrategy::CommAvoiding);
        // Every rotten file is quarantined (it is in the expected set).
        for fi in &rotten {
            assert!(
                coll_rep.quarantined.contains(fi),
                "seed {seed}: rotten file {fi} must be quarantined"
            );
        }
        assert_eq!(coll_rep.quarantined, expected_q, "seed {seed}");
        assert_eq!(coll_rep.checksum_mismatches, expected_m, "seed {seed}");
        assert_eq!(
            coll_rep, ca_rep,
            "seed {seed}: both strategies must attribute identically"
        );
        assert_eq!(coll, ca, "seed {seed}: both strategies, same bytes");
    }
    assert!(
        rotten_seen > 0,
        "the seed matrix must exercise at least one rotten file"
    );
}

/// The fault plan a `dassd` chaos run installs in its workers: the
/// three dasf failure modes (hard read error, short read, bit-rot) at
/// rates that leave some member files healthy. All three sites are
/// file-name keyed, so which files fail is a pure function of the
/// seed — independent of worker scheduling.
fn dassd_chaos_plan(seed: u64) -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::new(seed)
            .with(site::DASF_READ_ERR, 0.25)
            .with(site::DASF_READ_SHORT, 0.2)
            .with(site::DASF_READ_CORRUPT, 0.25),
    )
}

/// One serial request sequence against a chaos-planned `dassd`:
/// per-member-file windowed reads, a full read, a valid eval, and a
/// compile error — every response folded into one outcome line per
/// request (`ok:<fnv digest>` or `err:<kind>`). Used both by the
/// in-process determinism test and the CI digest file.
fn dassd_chaos_outcomes(dir: &std::path::Path, seed: u64) -> Vec<String> {
    use dassa::dassd::{Client, ClientError, Server, ServerConfig};
    let _logs = captured_logs();
    let vca = load_vca(&dir.to_path_buf());
    let server = Server::start(
        dir,
        ServerConfig {
            workers: 2,
            queue_depth: 8,
            fault_plan: Some(dassd_chaos_plan(seed)),
            ..ServerConfig::default()
        },
    )
    .expect("chaos server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let digest_f32 = |data: &[f32]| {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in data {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    };
    let mut outcomes = Vec::new();
    let mut record = |tag: String, result: Result<u64, ClientError>| {
        outcomes.push(match result {
            Ok(d) => format!("{tag}:ok:{d:016x}"),
            Err(ClientError::Server { kind, .. }) => format!("{tag}:err:{}", kind.name()),
            Err(ClientError::Compile(_)) => format!("{tag}:err:compile"),
            Err(other) => panic!("{tag}: connection must survive request faults, got {other}"),
        });
    };
    for fi in 0..vca.n_files() {
        let t0 = vca.time_offset_of(fi);
        let t1 = t0 + vca.samples_of(fi);
        let got = client.read_region(0..vca.channels(), t0..t1);
        record(format!("read[{fi}]"), got.map(|a| digest_f32(a.as_slice())));
    }
    record(
        "read[all]".into(),
        client.read_all().map(|a| digest_f32(a.as_slice())),
    );
    record(
        "eval".into(),
        client
            .eval("load(\"corpus\") | detrend | xcorr(master=ch[0])")
            .map(|(dims, flat)| {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for d in &dims {
                    for b in d.to_le_bytes() {
                        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                    }
                }
                for v in &flat {
                    for b in v.to_bits().to_le_bytes() {
                        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                    }
                }
                h
            }),
    );
    record(
        "eval[bad]".into(),
        client.eval("load(\"corpus\") | detrnd").map(|_| 0),
    );
    // The connection — and the server — must still be healthy after
    // every injected failure.
    client
        .ping()
        .expect("server must keep serving after faults");
    drop(client);
    server.stop();
    outcomes
}

/// `dassd` under a faultline plan: every injected dasf failure (hard
/// read error, short read, corrupt page) surfaces as a *typed* error
/// response, the server keeps serving afterwards (no hang, no crash),
/// healthy files are byte-identical to a fault-free serial read (no
/// poisoned cache), and the whole outcome sequence is deterministic
/// per seed.
#[test]
fn dassd_serves_typed_errors_and_survives_every_seed() {
    let dir = dataset("dassd");
    let vca = load_vca(&dir);

    // Fault-free goldens, one digest per member window, read serially.
    let clean = vca.read_all_f32().expect("clean read");
    let digest_window = |t0: usize, t1: usize| {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for r in 0..clean.rows() {
            for c in t0..t1 {
                for b in clean.get(r, c).to_bits().to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        h
    };

    let mut faults_seen = 0usize;
    for seed in seed_matrix() {
        let plan = dassd_chaos_plan(seed);
        let o1 = dassd_chaos_outcomes(&dir, seed);
        let o2 = dassd_chaos_outcomes(&dir, seed);
        assert_eq!(
            o1, o2,
            "seed {seed}: outcome sequence must be deterministic"
        );

        for (fi, line) in o1.iter().take(vca.n_files()).enumerate() {
            let hard = fires_for_member(&vca, &plan, site::DASF_READ_ERR, fi);
            let short = fires_for_member(&vca, &plan, site::DASF_READ_SHORT, fi);
            let rot = fires_for_member(&vca, &plan, site::DASF_READ_CORRUPT, fi);
            if hard || short || rot {
                faults_seen += 1;
                // Hard errors mask the others (they fail before bytes
                // are read); rot surfaces as the typed corrupt kind.
                let kind = if hard {
                    "err:io"
                } else if short || rot {
                    "err:corrupt"
                } else {
                    unreachable!()
                };
                assert!(
                    line.ends_with(kind),
                    "seed {seed} file {fi}: expected {kind}, got {line}"
                );
            } else {
                let t0 = vca.time_offset_of(fi) as usize;
                let t1 = t0 + vca.samples_of(fi) as usize;
                let want = format!("read[{fi}]:ok:{:016x}", digest_window(t0, t1));
                assert_eq!(
                    line, &want,
                    "seed {seed} file {fi}: healthy file must match the fault-free read"
                );
            }
        }
        // The bad program is a compile error under every seed.
        assert_eq!(o1.last().unwrap(), "eval[bad]:err:compile");
    }
    assert!(
        faults_seen > 0,
        "the seed matrix must strike at least one member file"
    );
}

/// With `DASSA_CHAOS_DIGEST=<path>` set, write one line per
/// (seed, strategy) plus one per (seed, dassd request): a checksum of
/// the reassembled array (or the typed error outcome) plus the full
/// quarantine report. CI runs the suite twice and `diff`s the two
/// files, so nondeterminism *between processes* (which the in-process
/// assertions above can't see) also fails the gate. Without the env
/// var this test is a no-op.
#[test]
// `[0..FILES]` really is a one-stage run list, not a collect typo.
#[allow(clippy::single_range_in_vec_init)]
fn emit_outcome_digest_for_ci() {
    let Some(path) = std::env::var_os("DASSA_CHAOS_DIGEST") else {
        return;
    };
    let dir = dataset("digest");
    let vca = load_vca(&dir);
    let mut out = String::new();
    for seed in seed_matrix() {
        let plan = chaos_plan(seed);
        for strategy in [ReadStrategy::CollectivePerFile, ReadStrategy::CommAvoiding] {
            let (full, report) = chaos_read(&vca, &plan, strategy);
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for v in full.as_slice() {
                for b in v.to_bits().to_le_bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                }
            }
            out.push_str(&format!(
                "seed={seed:#x} strategy={strategy:?} digest={h:016x} report={report:?}\n"
            ));
        }
        for line in dassd_chaos_outcomes(&dir, seed) {
            out.push_str(&format!("seed={seed:#x} dassd {line}\n"));
        }
        for line in ingest_chaos_outcomes(&format!("digest-{seed:x}"), seed, &[0..FILES]) {
            out.push_str(&format!("seed={seed:#x} ingest {line}\n"));
        }
    }
    std::fs::write(&path, out).expect("write digest");
}

/// The fault plan an ingest chaos run installs: arrival disorder
/// (torn spool renames that heal under retry, deferred discovery,
/// double delivery) on the new `ingest.*` sites, plus the two dasf
/// read failure modes so validation-time scrubbing quarantines. All
/// sites are file-name keyed: which files misbehave — and how often —
/// is a pure function of the seed.
fn ingest_chaos_plan(seed: u64) -> Arc<FaultPlan> {
    Arc::new(
        FaultPlan::new(seed)
            .with(site::INGEST_SPOOL_TORN, 0.35)
            .with(site::INGEST_ARRIVAL_DELAY, 0.35)
            .with(site::INGEST_ARRIVAL_DUPLICATE, 0.3)
            .with(site::DASF_READ_ERR, 0.15)
            .with(site::DASF_READ_CORRUPT, 0.2),
    )
}

/// One ingest chaos run, staged: for each range in `stages`, copy that
/// slice of the (sorted) source corpus into the spool and drain it
/// with `ingest::run_once` under `seed`'s plan — so `&[0..6]` is an
/// uninterrupted run and `&[0..3, 3..6]` is a stop-and-resume. Returns
/// one outcome line per stage summary, per source file's final
/// location, and per emitted window report (name + FNV digest of its
/// exact bytes).
fn ingest_chaos_outcomes(tag: &str, seed: u64, stages: &[std::ops::Range<usize>]) -> Vec<String> {
    use dassa::ingest::{run_once, IngestConfig};
    let _logs = captured_logs();
    let src = dataset(&format!("ingest-src-{tag}"));
    let mut names: Vec<String> = std::fs::read_dir(&src)
        .expect("src")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".dasf"))
        .collect();
    names.sort();

    let spool = std::env::temp_dir().join(format!("dassa-chaos-ingest-spool-{tag}"));
    let out = std::env::temp_dir().join(format!("dassa-chaos-ingest-out-{tag}"));
    let _ = std::fs::remove_dir_all(&spool);
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&spool).expect("spool");

    let mut cfg = IngestConfig::new(&spool, &out);
    cfg.window_minutes = 2;
    cfg.threads = 1;
    cfg.max_attempts = 3;
    cfg.base_backoff = std::time::Duration::from_millis(1);
    cfg.poll = std::time::Duration::from_millis(1);

    // Thread-local install: validation and window reads both happen on
    // this thread (the daemon keeps faulted I/O off the evaluator).
    let _guard = faultline::PlanGuard::install(ingest_chaos_plan(seed));
    let mut lines = Vec::new();
    for stage in stages {
        for n in &names[stage.clone()] {
            std::fs::copy(src.join(n), spool.join(n)).expect("stage file");
        }
        let s = run_once(&cfg).expect("ingest run");
        lines.push(format!(
            "stage={stage:?} admitted={} late={} dup={} quar={} emitted={} skipped={} gaps={}",
            s.admitted,
            s.late,
            s.duplicate,
            s.quarantined,
            s.windows_emitted,
            s.windows_skipped,
            s.gap_samples
        ));
    }
    for n in &names {
        let loc = ["", "ingest.late", "ingest.duplicate", "ingest.quarantine"]
            .iter()
            .find(|d| spool.join(d).join(n).exists())
            .map(|d| if d.is_empty() { "spool" } else { d })
            .unwrap_or("gone");
        lines.push(format!("file={n}:{loc}"));
    }
    let mut reports: Vec<String> = std::fs::read_dir(&out)
        .expect("out")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("window_") && n.ends_with(".json"))
        .collect();
    reports.sort();
    for r in &reports {
        let bytes = std::fs::read(out.join(r)).expect("report bytes");
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        lines.push(format!("report={r}:{h:016x}"));
    }
    lines
}

/// Ingest under arrival + integrity chaos: the same seed must produce
/// the same admissions, the same retirements, the same quarantines,
/// and byte-identical window reports, every time.
#[test]
// `[0..FILES]` really is a one-stage run list, not a collect typo.
#[allow(clippy::single_range_in_vec_init)]
fn ingest_chaos_is_deterministic_per_seed() {
    let mut emitted_total = 0usize;
    let mut quarantined_total = 0usize;
    for seed in seed_matrix() {
        let a = ingest_chaos_outcomes(&format!("det-a-{seed:x}"), seed, &[0..FILES]);
        let b = ingest_chaos_outcomes(&format!("det-b-{seed:x}"), seed, &[0..FILES]);
        assert_eq!(a, b, "seed {seed}: ingest outcomes must be byte-identical");
        emitted_total += a.iter().filter(|l| l.starts_with("report=")).count();
        quarantined_total += a
            .iter()
            .filter(|l| l.ends_with(":ingest.quarantine"))
            .count();
    }
    assert!(
        emitted_total > 0,
        "the seed matrix must emit at least one window"
    );
    assert!(
        quarantined_total > 0,
        "the seed matrix must quarantine at least one file"
    );
    // The quarantines above were also logged as structured records —
    // captured, not splattered over the suite's stderr.
    let logs = captured_logs();
    let logs = logs.lock().unwrap_or_else(|p| p.into_inner());
    assert!(
        logs.iter().any(|r| {
            r.level == obs::Level::Warn
                && r.target.starts_with("ingest")
                && r.msg.contains("quarantined")
        }),
        "quarantine events must reach the structured logger"
    );
}

/// Stop-and-resume under chaos: draining the corpus in two stages
/// (checkpoint journal in between) must emit the *same window reports,
/// byte for byte* as one uninterrupted drain — no lost windows, no
/// duplicates, no drift in gap accounting.
#[test]
// `[0..FILES]` really is a one-stage run list, not a collect typo.
#[allow(clippy::single_range_in_vec_init)]
fn ingest_resume_matches_uninterrupted_run_per_seed() {
    for seed in seed_matrix() {
        let full = ingest_chaos_outcomes(&format!("resume-full-{seed:x}"), seed, &[0..FILES]);
        let staged = ingest_chaos_outcomes(
            &format!("resume-staged-{seed:x}"),
            seed,
            &[0..FILES / 2, FILES / 2..FILES],
        );
        let reports = |lines: &[String]| -> Vec<String> {
            lines
                .iter()
                .filter(|l| l.starts_with("report="))
                .cloned()
                .collect()
        };
        assert_eq!(
            reports(&full),
            reports(&staged),
            "seed {seed}: resumed union must equal the uninterrupted run"
        );
    }
}

#[test]
fn analysis_on_chaos_read_is_deterministic() {
    use dassa::prelude::*;
    let dir = dataset("end-to-end");
    let vca = load_vca(&dir);
    let plan = chaos_plan(seed_matrix()[0]);
    let haee = Haee::builder().threads(2).build();
    let analysis = Analysis::Stacking(StackingParams {
        window: 64,
        hop: 64,
        master_channel: 0,
        ..Default::default()
    });
    let mut outputs = Vec::new();
    for _ in 0..2 {
        let (full, _) = chaos_read(&vca, &plan, ReadStrategy::CommAvoiding);
        let data: Vec<f64> = full.as_slice().iter().map(|&v| v as f64).collect();
        let data = arrayudf::Array2::from_vec(full.rows(), full.cols(), data);
        let out = dasa::run(&analysis, &data, &haee).expect("analysis");
        outputs.push(out.to_dataset());
    }
    assert_eq!(outputs[0], outputs[1], "same seed ⇒ same analysis output");
}
