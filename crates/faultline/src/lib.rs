//! `faultline` — deterministic, seeded fault injection.
//!
//! Production DAS pipelines treat degraded inputs as the normal case:
//! files arrive truncated, disks stall, ranks die mid-collective. Testing
//! graceful degradation with *random* fault injection is worse than
//! useless — a failure you cannot replay is a failure you cannot debug.
//! This crate makes fault schedules a pure function of a seed:
//!
//! * a [`FaultPlan`] maps **named injection sites** (e.g.
//!   [`site::DASF_READ_ERR`]) to firing rates;
//! * whether a site fires for a given *key* (file index, rank id,
//!   collective sequence number…) is decided by hashing
//!   `(seed, site, key)` — no wall clock, no global RNG, no ordering
//!   dependence. Same seed ⇒ byte-identical fault schedule, on any
//!   thread interleaving, in any process;
//! * plans round-trip through a compact text spec
//!   (`"seed=42,dasf.read.err=0.25"`) so a failing chaos run is
//!   reproducible from one CLI flag (`das_pipeline --fault-plan=…`).
//!
//! Instrumented crates (`dasf`, `minimpi`, `dassa`) consult the
//! *active* plan via [`current`]; see [`with_plan`] for scoped
//! (thread-local) activation and [`install_global`] for process-wide
//! activation. With no plan active every hook is a cheap no-op.
//!
//! ```
//! use faultline::{site, FaultPlan};
//!
//! let plan = FaultPlan::parse("seed=7,dasf.read.err=0.5").unwrap();
//! // Purely deterministic: the same (site, key) always agrees.
//! let a = plan.fires(site::DASF_READ_ERR, 3);
//! assert_eq!(a, plan.fires(site::DASF_READ_ERR, 3));
//! // And round-trips through its spec.
//! let again = FaultPlan::parse(&plan.to_spec()).unwrap();
//! assert_eq!(again.fires(site::DASF_READ_ERR, 3), a);
//! ```

#![forbid(unsafe_code)]

mod plan;
mod scope;

pub use plan::{key_of, FaultPlan, PlanError, RATE_DENOM};
pub use scope::{clear_global, current, fires, install_global, value_below, with_plan, PlanGuard};

/// Canonical injection-site names, grouped by the layer that can fail.
///
/// A site name is part of the chaos-test contract: renaming one changes
/// which faults a recorded plan spec reproduces. Add new sites here and
/// document them in DESIGN.md ("Fault injection & chaos testing").
pub mod site {
    /// `dasf::File::open` returns an I/O error. Key: hash of file name.
    pub const DASF_OPEN_ERR: &str = "dasf.open.err";
    /// A dataset read fails with an I/O error. Key: hash of file name.
    pub const DASF_READ_ERR: &str = "dasf.read.err";
    /// A dataset read observes a short (truncated) payload. Key: hash of
    /// file name.
    pub const DASF_READ_SHORT: &str = "dasf.read.short";
    /// Bit-rot: one deterministic byte of the file's payload region is
    /// flipped in every read buffer that covers it — the fault layer
    /// does *not* report it. On DASF v3 files the checksum layer turns
    /// the flip into `DasfError::ChecksumMismatch`; on v2 files it
    /// passes silently (the gap v3 closes). Key: hash of file name.
    pub const DASF_READ_CORRUPT: &str = "dasf.read.corrupt";
    /// A dataset read stalls briefly (bounded injected latency; data is
    /// still correct). Key: hash of file name.
    pub const DASF_READ_LATENCY: &str = "dasf.read.latency";
    /// A dataset write fails with an I/O error. Key: hash of file name
    /// mixed with the dataset path.
    pub const DASF_WRITE_ERR: &str = "dasf.write.err";
    /// `dasf::Writer::finish` fails to fsync the data file: the write
    /// returns an I/O error, the temp file is removed and nothing is
    /// published under the final name. Key: hash of file name.
    pub const DASF_WRITE_SYNC_ERR: &str = "dasf.write.sync_err";
    /// A rank is dead for the whole run: its sends are suppressed and
    /// its fallible collectives return `CommError::RankDead`. Key: rank.
    pub const MINIMPI_RANK_DEAD: &str = "minimpi.rank.dead";
    /// A collective receive loses its first delivery attempt(s) and must
    /// retry (bounded by the retry policy). Key: mix of (seq, round,
    /// src, dst).
    pub const MINIMPI_RECV_DROP: &str = "minimpi.recv.drop";
    /// A collective receive is delayed (bounded injected latency before
    /// the matching attempt). Key: mix of (seq, round, src, dst).
    pub const MINIMPI_RECV_DELAY: &str = "minimpi.recv.delay";
    /// A member-file read inside the parallel VCA readers fails above
    /// the dasf layer. Key: file index within the VCA — identical for
    /// both read strategies, so quarantine sets agree.
    pub const PAR_READ_FILE: &str = "par_read.file";
    /// A spool file looks torn (truncated mid-rename) to the ingest
    /// validator for its first validation attempt(s) — models a writer
    /// that renamed before its data hit the disk. Key: hash of file
    /// name; the *number* of torn attempts is drawn with
    /// [`crate::value_below`], so some files recover under retry and
    /// some exhaust the budget and quarantine. Deterministic per seed.
    pub const INGEST_SPOOL_TORN: &str = "ingest.spool.torn";
    /// A spool file's arrival is delayed: the scanner defers it for a
    /// bounded number of scan rounds before validating — models slow
    /// transfer and out-of-order delivery. Key: hash of file name.
    pub const INGEST_ARRIVAL_DELAY: &str = "ingest.arrival.delay";
    /// A spool file is delivered twice: after a successful admit the
    /// scanner re-queues the same path once — models at-least-once
    /// upstream transports. Key: hash of file name.
    pub const INGEST_ARRIVAL_DUPLICATE: &str = "ingest.arrival.duplicate";
    /// An ingest output write (a window report or the checkpoint
    /// journal) fails with an I/O error after its `.tmp` was created —
    /// a full or failing disk. The `.tmp` is removed and nothing is
    /// published under the final name. Key: hash of the target's file
    /// name.
    pub const INGEST_REPORT_WRITE: &str = "ingest.report.write";
    /// A daemon's acceptor fails its first attempts as `accept` does at
    /// `EMFILE`, the pending connection left in the backlog: when the
    /// site fires, attempts `0..1 + value_below(site, 0, 8)` fail, then
    /// the fault clears. Key: 0.
    pub const DASSD_ACCEPT_ERR: &str = "dassd.accept.err";

    /// Every site this workspace injects at, for spec validation and
    /// docs.
    pub const ALL: &[&str] = &[
        DASF_OPEN_ERR,
        DASF_READ_ERR,
        DASF_READ_SHORT,
        DASF_READ_CORRUPT,
        DASF_READ_LATENCY,
        DASF_WRITE_ERR,
        DASF_WRITE_SYNC_ERR,
        MINIMPI_RANK_DEAD,
        MINIMPI_RECV_DROP,
        MINIMPI_RECV_DELAY,
        PAR_READ_FILE,
        INGEST_SPOOL_TORN,
        INGEST_ARRIVAL_DELAY,
        INGEST_ARRIVAL_DUPLICATE,
        INGEST_REPORT_WRITE,
        DASSD_ACCEPT_ERR,
    ];
}
