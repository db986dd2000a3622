//! The one engine that runs every [`IoPlan`].
//!
//! The executor is deliberately a *transliteration* of the four legacy
//! read loops (plain and resilient × collective-per-file and
//! communication-avoiding) plus the serial region reader: it issues the
//! same dasf calls in the same order, the same collectives with the
//! same headers, takes the same fault-injection decisions at the same
//! sites, and records the same spans and histograms — so traces, chaos
//! digests and communication statistics are bit-identical to the
//! pre-planner code. What changed underneath: a serial plan reads every
//! op straight into its columns of the output array
//! ([`read_member_into`]: no tile, no paste), and a distributed plan
//! keeps samples in pooled buffers ([`dasf::pool`]) wrapped in
//! zero-copy [`Tile`]s, whose handles the exchange moves (an `Arc` bump
//! per hop) instead of packing per-destination `Vec`s.

use super::super::fsck::{scrub_file, FsckReport};
use super::super::par_read::{metric_names, ReadReport, MAX_READ_ATTEMPTS};
use super::tile::Tile;
use super::{Exchange, IoPlan, ReadOp};
use crate::Result;
use arrayudf::dist::partition;
use arrayudf::Array2;
use dasf::File;
use minimpi::Comm;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// What the executor does when a member read keeps failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resilience {
    /// Propagate the first error — the legacy plain readers.
    FailFast,
    /// Retry up to [`MAX_READ_ATTEMPTS`], then quarantine the file and
    /// zero-fill its span — the legacy resilient readers.
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
            return Err(crate::DassaError::Inconsistent(format!(
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

/// What one retried member read observed.
struct MemberRead<R> {
    /// What the read returned, or `None` after [`MAX_READ_ATTEMPTS`]
    /// failures (⇒ quarantine).
    value: Option<R>,
    /// Repeated attempts (first attempt is free).
    retries: u64,
    /// Attempts that failed with a checksum mismatch — the file's bytes
    /// were readable but rotten.
    mismatches: u64,
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
    /// A fail-fast executor over `comm` — semantics of the legacy plain
    /// parallel readers.
    pub fn new(comm: &'a Comm) -> IoExecutor<'a> {
        IoExecutor {
            comm: Some(comm),
            resilience: Resilience::FailFast,
        }
    }

    /// A retry/quarantine executor over `comm` — semantics of the
    /// legacy resilient readers.
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
    /// `plan.rows` for serial ones) and the read report (always clean
    /// under [`Resilience::FailFast`]).
    pub fn run(&self, plan: &IoPlan) -> Result<(Array2<f32>, ReadReport)> {
        match plan.exchange {
            Exchange::None => self.run_serial(plan),
            Exchange::BcastPerFile => match self.resilience {
                Resilience::FailFast => self
                    .run_collective(plan)
                    .map(|a| (a, ReadReport::default())),
                Resilience::Quarantine => self.run_collective_resilient(plan),
            },
            Exchange::AllToAll => match self.resilience {
                Resilience::FailFast => self.run_ca(plan).map(|a| (a, ReadReport::default())),
                Resilience::Quarantine => self.run_ca_resilient(plan),
            },
        }
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

    /// Run `read` — one op's read — with bounded retries.
    ///
    /// Failures come from two places, both deterministic under a
    /// [`faultline`] plan: real `dasf` errors (fault sites keyed by file
    /// *name* — a "bad sector", failing every attempt identically; this
    /// includes `dasf.read.corrupt` bit-rot, which the v3 checksum layer
    /// turns into `ChecksumMismatch`) and transient injected failures at
    /// `par_read.file` (keyed by file *index*; the failure count is
    /// capped below the budget, so a purely transient fault retries and
    /// then succeeds, never quarantines).
    fn read_op_with_retries<R>(
        &self,
        op: &ReadOp,
        mut read: impl FnMut() -> Result<R>,
    ) -> MemberRead<R> {
        let transient = match faultline::current() {
            Some(plan) if plan.fires(faultline::site::PAR_READ_FILE, op.file_index as u64) => {
                1 + plan.value_below(
                    faultline::site::PAR_READ_FILE,
                    op.file_index as u64,
                    MAX_READ_ATTEMPTS as u64 - 1,
                ) as u32
            }
            _ => 0,
        };
        let reg = self.registry();
        let mut retries = 0u64;
        let mut mismatches = 0u64;
        for attempt in 0..MAX_READ_ATTEMPTS {
            let result = if attempt < transient {
                Err(crate::DassaError::Io(std::io::Error::other(
                    "faultline: injected member-file read failure (par_read.file)",
                )))
            } else {
                read()
            };
            match result {
                Ok(value) => {
                    return MemberRead {
                        value: Some(value),
                        retries,
                        mismatches,
                    }
                }
                Err(e) => {
                    if matches!(
                        e,
                        crate::DassaError::Dasf(dasf::DasfError::ChecksumMismatch { .. })
                    ) {
                        mismatches += 1;
                        reg.counter(metric_names::CHECKSUM_MISMATCH).inc();
                    }
                    if attempt + 1 < MAX_READ_ATTEMPTS {
                        retries += 1;
                        reg.counter(metric_names::RETRIES).inc();
                    }
                }
            }
        }
        reg.counter(metric_names::QUARANTINED).inc();
        MemberRead {
            value: None,
            retries,
            mismatches,
        }
    }

    /// The global zero-filled sample count implied by a quarantine set.
    fn zero_samples_of(plan: &IoPlan, quarantined: &[usize]) -> u64 {
        plan.ops
            .iter()
            .filter(|op| quarantined.binary_search(&op.file_index).is_ok())
            .map(ReadOp::bytes)
            .sum::<u64>()
            / std::mem::size_of::<f32>() as u64
    }

    /// Serial execution: every op on the calling thread, each read
    /// straight into its columns of the output (the legacy region
    /// reader); [`read_member_into`] keeps a failed attempt's block zero.
    fn run_serial(&self, plan: &IoPlan) -> Result<(Array2<f32>, ReadReport)> {
        let mut local = Array2::<f32>::zeroed(plan.rows, plan.cols);
        let mut quarantined = Vec::new();
        let mut io_retries = 0u64;
        let mut checksum_mismatches = 0u64;
        for op in &plan.ops {
            let mut read = || {
                let shape = (op.rows, op.cols);
                read_member_into(
                    &op.path,
                    &plan.dataset,
                    op.selection,
                    shape,
                    &mut local,
                    op.t0,
                )
            };
            match self.resilience {
                Resilience::FailFast => read()?,
                Resilience::Quarantine => {
                    let member = self.read_op_with_retries(op, read);
                    io_retries += member.retries;
                    checksum_mismatches += member.mismatches;
                    if member.value.is_none() {
                        quarantined.push(op.file_index);
                    }
                }
            }
        }
        let zero_samples = Self::zero_samples_of(plan, &quarantined);
        Ok((
            local,
            ReadReport {
                quarantined,
                io_retries,
                checksum_mismatches,
                zero_samples,
            },
        ))
    }

    /// "Collective-per-file" (Figure 5a): for each op, the aggregator
    /// rank `file_index % size` reads the whole file and broadcasts the
    /// tile; every rank keeps its channel rows.
    fn run_collective(&self, plan: &IoPlan) -> Result<Array2<f32>> {
        let comm = self.comm.expect("collective plan needs a Comm");
        let _trace = obs::trace::scope_in(comm.registry(), "par_read.collective");
        let (rank, size) = (comm.rank(), comm.size());
        let my_rows = partition(plan.rows, size, rank);
        let total_cols = plan.cols;
        let mut local = Array2::<f32>::zeroed(my_rows.len(), total_cols);
        let mut read_ns = std::time::Duration::ZERO;
        let mut exchange_ns = std::time::Duration::ZERO;
        let mut copy_ns = std::time::Duration::ZERO;

        for op in &plan.ops {
            let root = op.file_index % size;
            // Aggregator reads the entire file with one I/O call …
            let t = std::time::Instant::now();
            let payload: Option<Tile> = if rank == root {
                let _s = obs::trace::scope_in(comm.registry(), "par_read.read");
                Some(Self::read_op(&plan.dataset, op)?)
            } else {
                None
            };
            read_ns += t.elapsed();
            // … and broadcasts it whole — the expensive step this
            // strategy pays once per file. The transfer is an `Arc`
            // bump per tree edge; the counters see the full tile bytes.
            let t = std::time::Instant::now();
            let tile = comm.bcast_payload(root, payload);
            exchange_ns += t.elapsed();
            let _copy = obs::trace::scope_in(comm.registry(), "par_read.copy");
            let t = std::time::Instant::now();
            local.paste(0, op.t0, tile.restrict(my_rows.clone()).view());
            copy_ns += t.elapsed();
        }
        let reg = comm.registry();
        reg.histogram(metric_names::COLLECTIVE_READ_NS)
            .record_duration(read_ns);
        reg.histogram(metric_names::COLLECTIVE_EXCHANGE_NS)
            .record_duration(exchange_ns);
        reg.histogram(metric_names::COLLECTIVE_COPY_NS)
            .record_duration(copy_ns);
        Ok(local)
    }

    /// Communication-avoiding (Figure 5b): each rank reads the whole
    /// files assigned to it round-robin (`file_index % size == rank`),
    /// restricts each tile to per-destination channel rows (an `Arc`
    /// bump, not a pack copy), and one `alltoallv` delivers every block
    /// to its owner.
    fn run_ca(&self, plan: &IoPlan) -> Result<Array2<f32>> {
        let comm = self.comm.expect("all-to-all plan needs a Comm");
        let _trace = obs::trace::scope_in(comm.registry(), "par_read.ca");
        let (rank, size) = (comm.rank(), comm.size());
        let my_rows = partition(plan.rows, size, rank);
        let total_cols = plan.cols;

        // 1. Independent contiguous reads of my round-robin files.
        let read_trace = obs::trace::scope_in(comm.registry(), "par_read.read");
        let t = std::time::Instant::now();
        let mut my_tiles: Vec<Tile> = Vec::new();
        for op in &plan.ops {
            if op.file_index % size == rank {
                my_tiles.push(Self::read_op(&plan.dataset, op)?);
            }
        }
        let read_ns = t.elapsed();
        drop(read_trace);

        // 2. Per-destination blocks: for each of my files (ascending
        //    file index), the destination's channel rows as a zero-copy
        //    row restriction of the whole-file tile.
        let t = std::time::Instant::now();
        let mut blocks: Vec<Vec<Tile>> = (0..size)
            .map(|_| Vec::with_capacity(my_tiles.len()))
            .collect();
        for tile in &my_tiles {
            for (dst, block) in blocks.iter_mut().enumerate() {
                block.push(tile.restrict(partition(plan.rows, size, dst)));
            }
        }
        let mut copy_ns = t.elapsed();

        // 3. One all-to-all exchange (concurrent pairwise transfers).
        let t = std::time::Instant::now();
        let received = comm.alltoallv_payload(blocks);
        let exchange_ns = t.elapsed();

        // 4. Assemble: tiles carry their own file index and column
        //    offset, so placement is direct.
        let _copy = obs::trace::scope_in(comm.registry(), "par_read.copy");
        let t = std::time::Instant::now();
        let mut local = Array2::<f32>::zeroed(my_rows.len(), total_cols);
        for block in received {
            for tile in block {
                debug_assert_eq!(tile.row_range(), my_rows, "exchange layout mismatch");
                local.paste(0, tile.t0(), tile.view());
            }
        }
        copy_ns += t.elapsed();
        let reg = comm.registry();
        reg.histogram(metric_names::CA_READ_NS)
            .record_duration(read_ns);
        reg.histogram(metric_names::CA_EXCHANGE_NS)
            .record_duration(exchange_ns);
        reg.histogram(metric_names::CA_COPY_NS)
            .record_duration(copy_ns);
        Ok(local)
    }

    /// [`IoExecutor::run_collective`] with retry/quarantine: before each
    /// data broadcast the aggregator broadcasts a small header (did the
    /// read succeed, and after how many retries), so every rank tracks
    /// the same quarantine set and retry total without extra
    /// collectives.
    fn run_collective_resilient(&self, plan: &IoPlan) -> Result<(Array2<f32>, ReadReport)> {
        let comm = self.comm.expect("collective plan needs a Comm");
        let _trace = obs::trace::scope_in(comm.registry(), "par_read.collective");
        let (rank, size) = (comm.rank(), comm.size());
        let my_rows = partition(plan.rows, size, rank);
        let total_cols = plan.cols;
        let mut local = Array2::<f32>::zeroed(my_rows.len(), total_cols);
        let mut quarantined = Vec::new();
        let mut io_retries = 0u64;
        let mut checksum_mismatches = 0u64;

        for op in &plan.ops {
            let root = op.file_index % size;
            let member = if rank == root {
                let _s = obs::trace::scope_in(comm.registry(), "par_read.read");
                self.read_op_with_retries(op, || Self::read_op(&plan.dataset, op))
            } else {
                MemberRead {
                    value: None,
                    retries: 0,
                    mismatches: 0,
                }
            };
            let MemberRead {
                value: payload,
                retries: my_retries,
                mismatches: my_mismatches,
            } = member;
            let (ok, retries, mismatches) = comm.try_bcast(
                root,
                (rank == root).then(|| (payload.is_some(), my_retries, my_mismatches)),
            )?;
            io_retries += retries;
            checksum_mismatches += mismatches;
            if !ok {
                // Quarantined: no data broadcast; the span stays zero.
                quarantined.push(op.file_index);
                continue;
            }
            let tile = comm.try_bcast_payload(root, payload)?;
            local.paste(0, op.t0, tile.restrict(my_rows.clone()).view());
        }
        let zero_samples = Self::zero_samples_of(plan, &quarantined);
        Ok((
            local,
            ReadReport {
                quarantined,
                io_retries,
                checksum_mismatches,
                zero_samples,
            },
        ))
    }

    /// [`IoExecutor::run_ca`] with retry/quarantine: after the local
    /// reads, one extra allgather merges every rank's quarantine list
    /// and retry count, so all ranks agree on which blocks the
    /// `alltoallv` will *not* carry; quarantined spans stay zero-filled.
    fn run_ca_resilient(&self, plan: &IoPlan) -> Result<(Array2<f32>, ReadReport)> {
        let comm = self.comm.expect("all-to-all plan needs a Comm");
        let _trace = obs::trace::scope_in(comm.registry(), "par_read.ca");
        let (rank, size) = (comm.rank(), comm.size());
        let my_rows = partition(plan.rows, size, rank);
        let total_cols = plan.cols;

        // 1. Independent contiguous reads of my round-robin files, with
        //    bounded retries; failures become local quarantine entries.
        let read_trace = obs::trace::scope_in(comm.registry(), "par_read.read");
        let mut my_tiles: Vec<Tile> = Vec::new();
        let mut my_quarantined: Vec<u64> = Vec::new();
        let mut my_retries = 0u64;
        let mut my_mismatches = 0u64;
        for op in &plan.ops {
            if op.file_index % size != rank {
                continue;
            }
            let member = self.read_op_with_retries(op, || Self::read_op(&plan.dataset, op));
            my_retries += member.retries;
            my_mismatches += member.mismatches;
            match member.value {
                Some(tile) => my_tiles.push(tile),
                None => my_quarantined.push(op.file_index as u64),
            }
        }
        drop(read_trace);

        // 2. Agree on the global quarantine set and the retry/mismatch
        //    totals before the exchange, so receivers know which blocks
        //    will not arrive.
        let merged = comm.try_allgather((my_quarantined, my_retries, my_mismatches))?;
        let mut quarantined: Vec<usize> = merged
            .iter()
            .flat_map(|(q, _, _)| q.iter().map(|&fi| fi as usize))
            .collect();
        quarantined.sort_unstable();
        let io_retries: u64 = merged.iter().map(|(_, r, _)| r).sum();
        let checksum_mismatches: u64 = merged.iter().map(|(_, _, m)| m).sum();

        // 3. Per-destination blocks from the tiles that survived
        //    (quarantined files are simply absent from `my_tiles`).
        let mut blocks: Vec<Vec<Tile>> = (0..size)
            .map(|_| Vec::with_capacity(my_tiles.len()))
            .collect();
        for tile in &my_tiles {
            for (dst, block) in blocks.iter_mut().enumerate() {
                block.push(tile.restrict(partition(plan.rows, size, dst)));
            }
        }

        // 4. One all-to-all exchange (concurrent pairwise transfers).
        let received = comm.try_alltoallv_payload(blocks)?;

        // 5. Assemble; quarantined spans stay zero because their tiles
        //    were never read or sent.
        let _copy = obs::trace::scope_in(comm.registry(), "par_read.copy");
        let mut local = Array2::<f32>::zeroed(my_rows.len(), total_cols);
        for block in received {
            for tile in block {
                debug_assert_eq!(tile.row_range(), my_rows, "exchange layout mismatch");
                local.paste(0, tile.t0(), tile.view());
            }
        }
        let zero_samples = Self::zero_samples_of(plan, &quarantined);
        Ok((
            local,
            ReadReport {
                quarantined,
                io_retries,
                checksum_mismatches,
                zero_samples,
            },
        ))
    }

    /// Scrub `targets` with `threads` worker threads (clamped to ≥ 1):
    /// the `das_fsck` verification path, run through the same engine as
    /// the data reads. Returns the aggregate report, verdicts sorted by
    /// path.
    pub fn run_scrub(&self, targets: &[PathBuf], threads: usize) -> FsckReport {
        let threads = threads.clamp(1, targets.len().max(1));
        let next = AtomicUsize::new(0);
        let verdicts = Mutex::new(Vec::with_capacity(targets.len()));
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(path) = targets.get(i) else { break };
                    let v = scrub_file(path);
                    verdicts.lock().unwrap().push(v);
                });
            }
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
