//! The one engine that runs every [`IoPlan`].
//!
//! One loop per [`Exchange`]: the serial region reader, collective-per-
//! file and communication-avoiding. In each, the rank that owns a member
//! reads it with a bounded number of attempts ([`IoExecutor::read_member`]),
//! and every rank learns how that went — retries, checksum mismatches,
//! and the tile if there is one — **inside the message the exchange
//! sends anyway** (a [`Delivery`] in the per-file broadcast or in the
//! one `alltoallv`). No collective exists only to agree on an outcome,
//! so no rank can return while another waits in one. [`Resilience`]
//! decides two numbers and one action: how many attempts a member gets,
//! and what a rank does with a member nobody could read
//! ([`IoExecutor::unreadable`]).
//!
//! A serial plan reads every op straight into its columns of the output
//! array ([`read_member_into`]: no tile, no paste); a distributed plan
//! keeps samples in pooled buffers ([`dasf::pool`]) wrapped in zero-copy
//! [`Tile`]s, whose handles the exchange moves (an `Arc` bump per hop)
//! instead of packing per-destination `Vec`s.

use super::super::fsck::{scrub_file, FsckReport};
use super::tile::Tile;
use super::{Exchange, IoPlan, ReadOp};
use crate::{DassaError, Result};
use arrayudf::dist::partition;
use arrayudf::Array2;
use dasf::File;
use minimpi::{Comm, WirePayload};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Metric names recorded by the executor, in the world's registry (see
/// [`minimpi::Comm::registry`]) and aggregated globally.
pub mod metric_names {
    /// File-read time (ns) inside a collective-per-file exchange.
    pub const COLLECTIVE_READ_NS: &str = "dass.par_read.collective.read_ns";
    /// Broadcast time (ns) inside a collective-per-file exchange.
    pub const COLLECTIVE_EXCHANGE_NS: &str = "dass.par_read.collective.exchange_ns";
    /// Row-copy/assembly time (ns) inside a collective-per-file exchange.
    pub const COLLECTIVE_COPY_NS: &str = "dass.par_read.collective.copy_ns";
    /// File-read time (ns) inside a communication-avoiding exchange.
    pub const CA_READ_NS: &str = "dass.par_read.comm_avoiding.read_ns";
    /// All-to-all time (ns) inside a communication-avoiding exchange.
    pub const CA_EXCHANGE_NS: &str = "dass.par_read.comm_avoiding.exchange_ns";
    /// Pack/assembly time (ns) inside a communication-avoiding exchange.
    pub const CA_COPY_NS: &str = "dass.par_read.comm_avoiding.copy_ns";
    /// Member files quarantined (counted once, on the owner rank, when
    /// the retry budget is exhausted).
    pub const QUARANTINED: &str = "par_read.quarantined";
    /// Repeated member-file read attempts (counted once per repeat, on
    /// the owner rank).
    pub const RETRIES: &str = "par_read.retries";
    /// Member-file read attempts that failed with a dasf checksum
    /// mismatch (real bit-rot detected by the v3 integrity layer).
    pub const CHECKSUM_MISMATCH: &str = "par_read.checksum_mismatch";
}

/// Read attempts per member file under [`Resilience::Quarantine`] before
/// the file is quarantined.
pub const MAX_READ_ATTEMPTS: u32 = 3;

/// What a read survived: which member files were quarantined (skipped,
/// their span zero-filled), and how hard the world worked to avoid
/// quarantining more. Always clean under [`Resilience::FailFast`], where
/// an unreadable member is an `Err` instead.
///
/// The report is **identical on every rank and across both read
/// strategies** for a given (VCA, world size, fault plan): quarantine
/// decisions depend only on per-file fault schedules keyed by file name
/// and index, and both strategies give file `fi` to owner rank
/// `fi % size`. Communication-level retries are deliberately *not* in
/// here — the two strategies issue different collective sequences, so
/// their `minimpi.retries` legitimately differ.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadReport {
    /// Indices (into [`Vca::entries`](crate::dass::Vca::entries)) of
    /// quarantined member files, ascending.
    pub quarantined: Vec<usize>,
    /// World-total repeated read attempts (sum over all ranks).
    pub io_retries: u64,
    /// World-total member-read attempts that failed with a
    /// [`dasf::DasfError::ChecksumMismatch`] — detected bit-rot, as
    /// opposed to I/O errors or truncation.
    pub checksum_mismatches: u64,
    /// Total f32 samples zero-filled across the plan's extent
    /// (`rows × cols` summed over quarantined ops).
    pub zero_samples: u64,
}

impl ReadReport {
    /// True when every member file was read cleanly on the first try.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty() && self.io_retries == 0 && self.checksum_mismatches == 0
    }
}

/// What the executor does with a member file that cannot be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resilience {
    /// One attempt; an unreadable member makes **every** rank return an
    /// error — the owner its typed one, the others one naming the file,
    /// the owner rank and the cause.
    FailFast,
    /// Retry up to [`MAX_READ_ATTEMPTS`], then quarantine the file:
    /// zero-fill its span and say so in the [`ReadReport`].
    ///
    /// Communication failures (a dead rank in a [`minimpi::run_chaos`]
    /// world) still return `Err` — resilience covers data, not the world.
    Quarantine,
}

/// Executes [`IoPlan`]s: serial or collective, fail-fast or
/// retry/quarantine.
pub struct IoExecutor<'a> {
    comm: Option<&'a Comm>,
    resilience: Resilience,
}

/// Read one member file's block — `selection`, or the whole
/// `rows × cols` dataset — into the zeroed rectangle of `out` at
/// `(0, t0)`, decoded in place by
/// [`dasf::File::read_hyperslab_strided`]. A read that fails part way
/// has already written rows, so on `Err` the rectangle is zeroed again:
/// the block is all there or all zero, which is what retries, the
/// quarantine and ingest's gaps are defined on.
pub(crate) fn read_member_into(
    path: &Path,
    dataset: &str,
    selection: Option<[(u64, u64); 2]>,
    (rows, cols): (usize, usize),
    out: &mut Array2<f32>,
    t0: usize,
) -> Result<()> {
    assert!(
        rows <= out.rows() && t0 + cols <= out.cols(),
        "block {rows}x{cols} does not fit at column {t0} of {}x{}",
        out.rows(),
        out.cols()
    );
    let f = File::open(path)?;
    let whole = [(0, rows as u64), (0, cols as u64)];
    if selection.is_none() {
        let dims = &f.dataset(dataset)?.dims;
        if dims[..] != [rows as u64, cols as u64] {
            return Err(DassaError::Inconsistent(format!(
                "{}: dataset {dataset} is {dims:?}, the plan expects {rows} x {cols}",
                path.display()
            )));
        }
    }
    let stride = out.cols();
    let selection = selection.as_ref().unwrap_or(&whole);
    let read = f.read_hyperslab_strided(dataset, selection, out.as_mut_slice(), t0, stride);
    if read.is_err() {
        for row in out.as_mut_slice().chunks_mut(stride).take(rows) {
            row[t0..t0 + cols].fill(0.0);
        }
    }
    read?;
    Ok(())
}

/// What the owner of a member observed reading it.
struct MemberRead<R> {
    /// What the read returned, or the error of the last attempt.
    value: Result<R>,
    /// Repeated attempts (first attempt is free).
    retries: u64,
    /// Attempts that failed with a checksum mismatch — the file's bytes
    /// were readable but rotten.
    mismatches: u64,
}

impl MemberRead<Tile> {
    /// What rank `owner` tells a rank that keeps `rows` of the member
    /// about this read: a zero-copy restriction of the tile, or why
    /// there is none.
    fn deliver(&self, op: &ReadOp, owner: usize, rows: Range<usize>) -> Delivery {
        Delivery {
            file_index: op.file_index,
            retries: self.retries,
            mismatches: self.mismatches,
            tile: match &self.value {
                Ok(tile) => Ok(tile.restrict(rows)),
                Err(e) => Err(format!(
                    "{}: unreadable on its owner, rank {owner}: {e}",
                    op.path.display()
                )),
            },
        }
    }
}

/// What every rank learns about one member, as the exchange carries it.
#[derive(Clone)]
struct Delivery {
    file_index: usize,
    retries: u64,
    mismatches: u64,
    /// The receiver's rows of the member, or the owner's account of why
    /// it has none.
    tile: std::result::Result<Tile, String>,
}

/// The outcome rides with the tile and counts no bytes of its own, so
/// the exchange's volume is the sample bytes the paper's model prices.
impl WirePayload for Delivery {
    fn wire_bytes(&self) -> usize {
        self.tile.as_ref().map_or(0, Tile::wire_bytes)
    }
}

/// Why a member has no samples, as one rank knows it.
enum Unread {
    /// This rank owns the member: the typed error of its last attempt.
    Mine(DassaError),
    /// Another rank does: what it said in the exchange.
    Theirs(String),
}

/// Wall time a rank spent in each phase of a distributed read.
#[derive(Default)]
struct Phases {
    read: Duration,
    exchange: Duration,
    copy: Duration,
}

impl Phases {
    fn record(&self, reg: &obs::Registry, [read, exchange, copy]: [&str; 3]) {
        reg.histogram(read).record_duration(self.read);
        reg.histogram(exchange).record_duration(self.exchange);
        reg.histogram(copy).record_duration(self.copy);
    }
}

impl IoExecutor<'static> {
    /// A serial executor: the calling thread performs every op.
    pub fn serial() -> IoExecutor<'static> {
        IoExecutor {
            comm: None,
            resilience: Resilience::FailFast,
        }
    }
}

impl<'a> IoExecutor<'a> {
    /// A [`Resilience::FailFast`] executor over `comm`.
    pub fn new(comm: &'a Comm) -> IoExecutor<'a> {
        IoExecutor {
            comm: Some(comm),
            resilience: Resilience::FailFast,
        }
    }

    /// A [`Resilience::Quarantine`] executor over `comm`.
    pub fn resilient(comm: &'a Comm) -> IoExecutor<'a> {
        IoExecutor {
            comm: Some(comm),
            resilience: Resilience::Quarantine,
        }
    }

    fn registry(&self) -> &Arc<obs::Registry> {
        match self.comm {
            Some(comm) => comm.registry(),
            None => obs::global(),
        }
    }

    /// Run `plan`, returning this rank's channel block (rows
    /// `partition(plan.rows, size, rank)` for distributed plans, all
    /// `plan.rows` for serial ones) and the read report, identical on
    /// every rank.
    pub fn run(&self, plan: &IoPlan) -> Result<(Array2<f32>, ReadReport)> {
        let (local, mut report) = match plan.exchange {
            Exchange::None => self.run_serial(plan),
            Exchange::BcastPerFile => self.run_collective(plan),
            Exchange::AllToAll => self.run_ca(plan),
        }?;
        report.zero_samples = plan
            .ops
            .iter()
            .filter(|op| report.quarantined.binary_search(&op.file_index).is_ok())
            .map(ReadOp::bytes)
            .sum::<u64>()
            / std::mem::size_of::<f32>() as u64;
        Ok((local, report))
    }

    /// One op of a distributed plan: open the file, read the selection
    /// into a pooled buffer, wrap it as a whole tile for the exchange.
    fn read_op(dataset: &str, op: &ReadOp) -> Result<Tile> {
        let f = File::open(&op.path)?;
        let mut buf = super::pool::f32s().acquire(op.rows * op.cols);
        let n = match &op.selection {
            Some(sel) => f.read_hyperslab_into(dataset, sel, &mut buf)?,
            None => f.read_into(dataset, &mut buf)?,
        };
        debug_assert_eq!(n, op.rows * op.cols, "op shape mismatch for {:?}", op.path);
        Ok(Tile::whole(buf, op.rows, op.cols, op.file_index, op.t0))
    }

    /// Run `read` — one op's read, on the rank that owns it — until it
    /// succeeds or the attempts [`Resilience`] allows are spent.
    ///
    /// Failures come from two places, both deterministic under a
    /// [`faultline`] plan: real `dasf` errors (fault sites keyed by file
    /// *name* — a "bad sector", failing every attempt identically; this
    /// includes `dasf.read.corrupt` bit-rot, which the v3 checksum layer
    /// turns into `ChecksumMismatch`) and transient injected failures at
    /// `par_read.file` (keyed by file *index*; the failure count is
    /// capped below the budget, so a purely transient fault retries and
    /// then succeeds, never quarantines — and never strikes where the
    /// budget is one attempt).
    fn read_member<R>(&self, op: &ReadOp, mut read: impl FnMut() -> Result<R>) -> MemberRead<R> {
        let budget = match self.resilience {
            Resilience::FailFast => 1,
            Resilience::Quarantine => MAX_READ_ATTEMPTS,
        };
        let key = op.file_index as u64;
        let transient = match (budget > 1).then(faultline::current).flatten() {
            Some(plan) if plan.fires(faultline::site::PAR_READ_FILE, key) => {
                1 + plan.value_below(faultline::site::PAR_READ_FILE, key, budget as u64 - 1) as u32
            }
            _ => 0,
        };
        let reg = self.registry();
        let mut retries = 0u64;
        let mut mismatches = 0u64;
        let mut attempt = 0;
        loop {
            attempt += 1;
            let result = if attempt <= transient {
                Err(DassaError::Io(std::io::Error::other(
                    "faultline: injected member-file read failure (par_read.file)",
                )))
            } else {
                read()
            };
            let mismatch = matches!(
                result,
                Err(DassaError::Dasf(dasf::DasfError::ChecksumMismatch { .. }))
            );
            if mismatch {
                mismatches += 1;
                reg.counter(metric_names::CHECKSUM_MISMATCH).inc();
            }
            if result.is_ok() || attempt == budget {
                return MemberRead {
                    value: result,
                    retries,
                    mismatches,
                };
            }
            retries += 1;
            reg.counter(metric_names::RETRIES).inc();
        }
    }

    /// The one thing [`Resilience`] decides about a member nobody could
    /// read: fail the whole read, on every rank alike, or zero-fill the
    /// member's span and report it.
    fn unreadable(&self, file_index: usize, why: Unread, report: &mut ReadReport) -> Result<()> {
        match self.resilience {
            Resilience::FailFast => Err(match why {
                Unread::Mine(e) => e,
                Unread::Theirs(said) => DassaError::Io(std::io::Error::other(said)),
            }),
            Resilience::Quarantine => {
                if matches!(why, Unread::Mine(_)) {
                    self.registry().counter(metric_names::QUARANTINED).inc();
                }
                report.quarantined.push(file_index);
                Ok(())
            }
        }
    }

    /// What a rank does with one delivered member: count its owner's
    /// effort, then keep `my_rows` of the tile — or, without one, do
    /// what [`IoExecutor::unreadable`] says. `mine` is the typed error
    /// when this rank is the owner that failed.
    fn settle(
        &self,
        delivery: Delivery,
        mine: Option<DassaError>,
        my_rows: &Range<usize>,
        local: &mut Array2<f32>,
        report: &mut ReadReport,
    ) -> Result<()> {
        report.io_retries += delivery.retries;
        report.checksum_mismatches += delivery.mismatches;
        match delivery.tile {
            Ok(tile) => {
                local.paste(0, tile.t0(), tile.restrict(my_rows.clone()).view());
                Ok(())
            }
            Err(said) => {
                let why = mine.map_or(Unread::Theirs(said), Unread::Mine);
                self.unreadable(delivery.file_index, why, report)
            }
        }
    }

    /// Serial execution: every op on the calling thread, each read
    /// straight into its columns of the output; [`read_member_into`]
    /// keeps a failed attempt's block zero.
    fn run_serial(&self, plan: &IoPlan) -> Result<(Array2<f32>, ReadReport)> {
        let mut local = Array2::<f32>::zeroed(plan.rows, plan.cols);
        let mut report = ReadReport::default();
        for op in &plan.ops {
            let member = self.read_member(op, || {
                let shape = (op.rows, op.cols);
                read_member_into(
                    &op.path,
                    &plan.dataset,
                    op.selection,
                    shape,
                    &mut local,
                    op.t0,
                )
            });
            report.io_retries += member.retries;
            report.checksum_mismatches += member.mismatches;
            if let Err(e) = member.value {
                self.unreadable(op.file_index, Unread::Mine(e), &mut report)?;
            }
        }
        Ok((local, report))
    }

    /// "Collective-per-file" (Figure 5a): for each op, the aggregator
    /// rank `file_index % size` reads the whole file and broadcasts it;
    /// every rank keeps its channel rows. That is the
    /// "merge-read-broadcast" pattern of collective I/O: *n* broadcasts
    /// for *n* files, each moving the whole file to every rank — and
    /// nothing else: the aggregator's outcome is in the broadcast.
    fn run_collective(&self, plan: &IoPlan) -> Result<(Array2<f32>, ReadReport)> {
        let comm = self.comm.expect("collective plan needs a Comm");
        let reg = comm.registry();
        let _trace = obs::trace::scope_in(reg, "par_read.collective");
        let (rank, size) = (comm.rank(), comm.size());
        let my_rows = partition(plan.rows, size, rank);
        let mut local = Array2::<f32>::zeroed(my_rows.len(), plan.cols);
        let mut report = ReadReport::default();
        let mut phases = Phases::default();

        for op in &plan.ops {
            let root = op.file_index % size;
            // Aggregator reads the entire file with one I/O call …
            let t = Instant::now();
            let member = (rank == root).then(|| {
                let _s = obs::trace::scope_in(reg, "par_read.read");
                self.read_member(op, || Self::read_op(&plan.dataset, op))
            });
            phases.read += t.elapsed();
            // … and broadcasts it whole — the expensive step this
            // strategy pays once per file. The transfer is an `Arc`
            // bump per tree edge; the counters see the full tile bytes.
            let t = Instant::now();
            let told = member.as_ref().map(|m| m.deliver(op, root, 0..op.rows));
            let delivery = comm.try_bcast_payload(root, told)?;
            phases.exchange += t.elapsed();
            let _copy = obs::trace::scope_in(reg, "par_read.copy");
            let t = Instant::now();
            let mine = member.and_then(|m| m.value.err());
            self.settle(delivery, mine, &my_rows, &mut local, &mut report)?;
            phases.copy += t.elapsed();
        }
        phases.record(
            reg,
            [
                metric_names::COLLECTIVE_READ_NS,
                metric_names::COLLECTIVE_EXCHANGE_NS,
                metric_names::COLLECTIVE_COPY_NS,
            ],
        );
        Ok((local, report))
    }

    /// Communication-avoiding (Figure 5b, the paper's contribution):
    /// files are dealt round-robin (`file_index % size == rank`); each
    /// rank reads its *whole files* with one contiguous I/O call each,
    /// then a single `alltoallv` delivers every channel block to its
    /// owner — exactly the needed bytes, and with them what became of
    /// each file. No broadcast, no second collective.
    fn run_ca(&self, plan: &IoPlan) -> Result<(Array2<f32>, ReadReport)> {
        let comm = self.comm.expect("all-to-all plan needs a Comm");
        let reg = comm.registry();
        let _trace = obs::trace::scope_in(reg, "par_read.ca");
        let (rank, size) = (comm.rank(), comm.size());
        let my_rows = partition(plan.rows, size, rank);
        let mut phases = Phases::default();

        // 1. Independent contiguous reads of my round-robin files.
        let read_trace = obs::trace::scope_in(reg, "par_read.read");
        let t = Instant::now();
        let members: Vec<(&ReadOp, MemberRead<Tile>)> = plan
            .ops
            .iter()
            .filter(|op| op.file_index % size == rank)
            .map(|op| {
                (
                    op,
                    self.read_member(op, || Self::read_op(&plan.dataset, op)),
                )
            })
            .collect();
        phases.read = t.elapsed();
        drop(read_trace);

        // 2. Per-destination blocks: for each of my files (ascending
        //    file index), the destination's channel rows as a zero-copy
        //    row restriction of the whole-file tile — or, for a file I
        //    could not read, the reason in the tile's place.
        let t = Instant::now();
        let blocks: Vec<Vec<Delivery>> = (0..size)
            .map(|dst| {
                let rows = partition(plan.rows, size, dst);
                members
                    .iter()
                    .map(|(op, member)| member.deliver(op, rank, rows.clone()))
                    .collect()
            })
            .collect();
        // My typed errors, ascending; the whole-file tile handles go.
        let mine: Vec<(usize, DassaError)> = members
            .into_iter()
            .filter_map(|(op, member)| Some((op.file_index, member.value.err()?)))
            .collect();
        let mut mine = mine.into_iter().peekable();
        phases.copy = t.elapsed();

        // 3. One all-to-all exchange (concurrent pairwise transfers).
        let t = Instant::now();
        let received = comm.try_alltoallv_payload(blocks)?;
        phases.exchange = t.elapsed();

        // 4. Assemble in file order (so every rank settles the same
        //    member first): tiles carry their own column offset, so
        //    placement is direct.
        let _copy = obs::trace::scope_in(reg, "par_read.copy");
        let t = Instant::now();
        let mut local = Array2::<f32>::zeroed(my_rows.len(), plan.cols);
        let mut report = ReadReport::default();
        let mut deliveries: Vec<Delivery> = received.into_iter().flatten().collect();
        deliveries.sort_by_key(|d| d.file_index);
        for delivery in deliveries {
            let mine = mine
                .next_if(|(fi, _)| *fi == delivery.file_index)
                .map(|(_, e)| e);
            self.settle(delivery, mine, &my_rows, &mut local, &mut report)?;
        }
        phases.copy += t.elapsed();
        phases.record(
            reg,
            [
                metric_names::CA_READ_NS,
                metric_names::CA_EXCHANGE_NS,
                metric_names::CA_COPY_NS,
            ],
        );
        Ok((local, report))
    }

    /// Scrub `targets` with `threads` worker threads (clamped to ≥ 1):
    /// the `das_fsck` verification path, run through the same engine as
    /// the data reads. Returns the aggregate report, verdicts sorted by
    /// path. The caller is one of the workers, so one thread spawns
    /// none.
    pub fn run_scrub(&self, targets: &[PathBuf], threads: usize) -> FsckReport {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dass::search::tests::{make_files, plan_rotting_last_unit};
    use crate::dass::{FileCatalog, Vca};
    use minimpi::RetryPolicy;

    /// Reads land in the output as they decode, so a member whose rot
    /// sits in its last unit has written most of its rows by the time
    /// the checksum fails. The retry contract is unchanged all the
    /// same: the member's block is zero, the rest is exact, and the
    /// report counts what it always counted.
    #[test]
    fn rot_in_a_members_last_unit_leaves_no_partial_rows() {
        // 6 ch x 6000 samples = 144 000 bytes: units of 64 KiB, 64 KiB
        // and a short one that holds the tail of the last channel.
        let (channels, samples) = (6u64, 6_000u64);
        let dir = make_files("exec-rot-last-unit", "170728224510", 2, channels, samples);
        let cat = FileCatalog::scan(&dir).unwrap();
        let vca = Vca::from_entries(cat.entries()).unwrap();
        let clean = vca.read_all_f32().unwrap();
        let paths: Vec<&Path> = vca.entries().iter().map(|e| e.path.as_path()).collect();
        let faults = plan_rotting_last_unit(paths[0], &[paths[1]]);

        // Whole members, and a region whose rows of member 0 end in the
        // rotten unit (channel 5) after three sound channels.
        for (ch, t) in [(0..channels, 0..2 * samples), (2..channels, 3_000..9_000)] {
            let plan = IoPlan::for_region(&vca, ch.clone(), t.clone()).unwrap();
            let member0_cols = (samples - t.start) as usize;
            let (mut results, _) =
                minimpi::run_chaos(1, Arc::clone(&faults), RetryPolicy::default(), |comm| {
                    IoExecutor::resilient(comm)
                        .run(&plan)
                        .expect("quarantine, not an error")
                });
            let (got, report) = results.remove(0);
            assert_eq!(
                report,
                ReadReport {
                    quarantined: vec![0],
                    io_retries: MAX_READ_ATTEMPTS as u64 - 1,
                    checksum_mismatches: MAX_READ_ATTEMPTS as u64,
                    zero_samples: (ch.end - ch.start) * member0_cols as u64,
                }
            );
            for r in 0..got.rows() {
                for c in 0..got.cols() {
                    let want = if c < member0_cols {
                        0.0
                    } else {
                        clean.get(ch.start as usize + r, t.start as usize + c)
                    };
                    assert_eq!(got.get(r, c), want, "row {r} col {c} of {ch:?} x {t:?}");
                }
            }
            // Fail-fast: the same read is the typed mismatch itself.
            let (results, _) =
                minimpi::run_chaos(1, Arc::clone(&faults), RetryPolicy::default(), |comm| {
                    IoExecutor::new(comm).run(&plan).map(drop)
                });
            assert!(matches!(
                results[0],
                Err(crate::DassaError::Dasf(dasf::DasfError::ChecksumMismatch {
                    chunk: 2,
                    ..
                }))
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_member_of_the_wrong_shape_is_a_typed_error() {
        let dir = make_files("exec-wrong-shape", "170728224510", 1, 3, 60);
        let cat = FileCatalog::scan(&dir).unwrap();
        let path = &cat.entries()[0].path;
        let mut out = Array2::<f32>::zeroed(3, 120);
        // The plan says 3 x 50; the file holds 3 x 60.
        assert!(matches!(
            read_member_into(path, "/Measurement/data", None, (3, 50), &mut out, 0),
            Err(crate::DassaError::Inconsistent(_))
        ));
        assert!(out.as_slice().iter().all(|v| *v == 0.0));
        read_member_into(path, "/Measurement/data", None, (3, 60), &mut out, 60).unwrap();
        assert_eq!(out.get(2, 60), 2000.0);
        assert_eq!(out.get(2, 59), 0.0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
