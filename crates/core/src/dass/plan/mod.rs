//! The chunk-granular I/O planner: every DASS read is a plan, executed
//! by one engine.
//!
//! 1. **Plan** ([`IoPlan`]): a description of *what* to read — one
//!    [`ReadOp`] per `(file, dataset, hyperslab)` producing a block of
//!    the output, plus the [`Exchange`] step that moves blocks (as
//!    [`Tile`]s) to their owner ranks. Plans are built from a [`Vca`], a [`Lav`] region, or
//!    a single merged file, and are pure metadata: building one does no
//!    I/O.
//! 2. **Execute** ([`IoExecutor`]): the one engine that runs any plan,
//!    one loop per [`Exchange`] — serial or collective, fail-fast or
//!    retry/quarantine ([`Resilience`]). A serial plan decodes every op
//!    straight into its columns of the caller's `Array2`; a distributed
//!    one reads each member whole into a pooled [`Member`]
//!    ([`dasf::pool`]) and assembles the zero-copy [`Tile`]s the
//!    exchange delivers, each with its owner's account of the read.
//!
//! How a member file becomes samples is decided in one place:
//! `read_member` and the in-place `read_member_into` share one open,
//! and one check holds every member to the op that planned it, so a
//! member rewritten at another shape is a typed
//! [`DassaError::Inconsistent`] under the serial reader, both exchanges
//! and `dassd`'s [`ChunkCache`](crate::dassd::ChunkCache), which caches
//! [`Member`]s.
//!
//! This is the only way in: serial region reads (`Vca::read_region_f32`,
//! LAV and RCA materialization), both §IV-B parallel strategies
//! (`IoExecutor::new(comm).run(&IoPlan::for_vca(..))`), ingest's window
//! reads and `dassd`'s cache misses all run through this module. The
//! `das_fsck` scrub verifies files without decoding them and lives in
//! [`fsck`](super::fsck) (`scrub_paths`).

mod exec;
mod member;
mod tile;

pub use dasf::pool;
pub use exec::{metric_names, IoExecutor, ReadReport, Resilience, MAX_READ_ATTEMPTS};
pub use member::Member;
pub(crate) use member::{check_holds, read_member, read_member_into};
pub use tile::Tile;

use super::lav::Lav;
use super::metadata::{DasFileMeta, DATASET_PATH};
use super::vca::Vca;
use crate::{DassaError, Result};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// One chunk-granular read: open `path`, read `selection` (or the whole
/// dataset) as a `rows × cols` tile destined for global column `t0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOp {
    /// Index of the member file (drives owner-rank assignment and
    /// quarantine bookkeeping; both strategies give file `i` to rank
    /// `i % size`).
    pub file_index: usize,
    /// The file to open.
    pub path: PathBuf,
    /// Channel rows this op produces.
    pub rows: usize,
    /// Time samples this op produces.
    pub cols: usize,
    /// Hyperslab `[(row_offset, rows), (col_offset, cols)]`, or `None`
    /// for the whole dataset (one contiguous I/O call).
    pub selection: Option<[(u64, u64); 2]>,
    /// Global column (time) offset where the tile lands.
    pub t0: usize,
}

impl ReadOp {
    /// Payload bytes this op reads.
    pub fn bytes(&self) -> u64 {
        (self.rows * self.cols * std::mem::size_of::<f32>()) as u64
    }
}

/// Which §IV-B strategy a parallel read of a [`Vca`] uses. Both deliver
/// to each rank its contiguous *channel block* of the full time extent
/// — the decomposition every DASSA analysis uses — and return
/// bit-identical arrays (property-tested), so callers choose purely on
/// performance: Figure 7 measures ~37× in favour of
/// communication-avoiding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStrategy {
    /// "Collective-per-file": one broadcast per member file
    /// ([`Exchange::BcastPerFile`]).
    CollectivePerFile,
    /// The paper's communication-avoiding method
    /// ([`Exchange::AllToAll`]).
    CommAvoiding,
    /// Pick per Figure 7: communication-avoiding when it can spread whole
    /// files across ranks (`ranks > 1 && files >= ranks`), else
    /// collective-per-file (single rank, or ranks that would sit idle in
    /// the round-robin deal).
    Auto,
}

impl ReadStrategy {
    /// The concrete strategy [`ReadStrategy::Auto`] resolves to for a
    /// world of `ranks` reading `files` member files.
    pub fn resolve(self, ranks: usize, files: usize) -> ReadStrategy {
        match self {
            ReadStrategy::Auto => {
                if ranks > 1 && files >= ranks {
                    ReadStrategy::CommAvoiding
                } else {
                    ReadStrategy::CollectivePerFile
                }
            }
            other => other,
        }
    }
}

/// How tiles travel from the rank that read them to the rank that owns
/// their channel rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exchange {
    /// No exchange: the executing rank performs every op itself
    /// (serial region reads, single-file reads).
    None,
    /// Collective-per-file (Figure 5a): op `i` is read by rank
    /// `i % size` and broadcast whole; every rank keeps its rows. O(n)
    /// broadcasts for n files, each moving the whole file to every rank.
    BcastPerFile,
    /// Communication-avoiding (Figure 5b): ops are dealt round-robin,
    /// then a single `alltoallv` of row-restricted tiles delivers every
    /// channel block to its owner — exactly the needed bytes, and reads
    /// are contiguous and concurrent.
    AllToAll,
}

impl Exchange {
    /// The exchange step implementing a *resolved* [`ReadStrategy`].
    ///
    /// # Panics
    /// Panics on [`ReadStrategy::Auto`] — resolve it first.
    pub fn for_strategy(strategy: ReadStrategy) -> Exchange {
        match strategy {
            ReadStrategy::CollectivePerFile => Exchange::BcastPerFile,
            ReadStrategy::CommAvoiding => Exchange::AllToAll,
            ReadStrategy::Auto => unreachable!("resolve the strategy before planning"),
        }
    }
}

/// A complete read plan: the DAG of [`ReadOp`]s (all independent),
/// followed by one [`Exchange`] step, producing a `rows × cols` logical
/// array (of which each rank owns `partition(rows, size, rank)` when
/// the plan is distributed).
#[derive(Debug, Clone)]
pub struct IoPlan {
    /// Dataset path inside each member file.
    pub dataset: String,
    /// Channel rows of the logical output.
    pub rows: usize,
    /// Time samples of the logical output.
    pub cols: usize,
    /// The reads, ascending by `file_index`.
    pub ops: Vec<ReadOp>,
    /// How tiles reach their owner ranks.
    pub exchange: Exchange,
}

impl IoPlan {
    /// Plan a full-extent parallel read of `vca` for a world of
    /// `ranks`, with `strategy` resolved per [`ReadStrategy::resolve`].
    pub fn for_vca(vca: &Vca, strategy: ReadStrategy, ranks: usize) -> IoPlan {
        let resolved = strategy.resolve(ranks, vca.n_files());
        let channels = vca.channels() as usize;
        let ops = vca
            .entries()
            .iter()
            .enumerate()
            .map(|(fi, entry)| ReadOp {
                file_index: fi,
                path: entry.path.clone(),
                rows: channels,
                cols: vca.samples_of(fi) as usize,
                selection: None,
                t0: vca.time_offset_of(fi) as usize,
            })
            .collect();
        IoPlan {
            dataset: DATASET_PATH.to_string(),
            rows: channels,
            cols: vca.total_samples() as usize,
            ops,
            exchange: Exchange::for_strategy(resolved),
        }
    }

    /// Plan a serial read of a rectangular region (channel range ×
    /// global time range) of `vca`: one hyperslab op per member file
    /// the time range touches.
    pub fn for_region(vca: &Vca, ch: Range<u64>, t: Range<u64>) -> Result<IoPlan> {
        if ch.end > vca.channels() || ch.start >= ch.end {
            return Err(DassaError::BadSelection(format!(
                "channel range {ch:?} invalid for {} channels",
                vca.channels()
            )));
        }
        if t.end > vca.total_samples() || t.start >= t.end {
            return Err(DassaError::BadSelection(format!(
                "time range {t:?} invalid for {} samples",
                vca.total_samples()
            )));
        }
        let rows = (ch.end - ch.start) as usize;
        let cols = (t.end - t.start) as usize;
        let mut ops = Vec::new();
        let mut col_cursor = 0usize;
        for (fi, local) in vca.map_time_range(t) {
            let width = (local.end - local.start) as usize;
            ops.push(ReadOp {
                file_index: fi,
                path: vca.entries()[fi].path.clone(),
                rows,
                cols: width,
                selection: Some([
                    (ch.start, ch.end - ch.start),
                    (local.start, local.end - local.start),
                ]),
                t0: col_cursor,
            });
            col_cursor += width;
        }
        Ok(IoPlan {
            dataset: DATASET_PATH.to_string(),
            rows,
            cols,
            ops,
            exchange: Exchange::None,
        })
    }

    /// Plan the serial materialization of a [`Lav`] over `vca`.
    pub fn for_lav(vca: &Vca, lav: &Lav) -> Result<IoPlan> {
        IoPlan::for_region(vca, lav.channel_range(), lav.time_range())
    }

    /// Lower a compiled `dasl` `load(...)` clause into a plan — how the
    /// pipeline language's front end meets this planner.
    ///
    /// The clause's time window is in **seconds**; it converts to sample
    /// columns with the corpus' sampling rate, clamped to the corpus
    /// extent (asking for `0..3600` of a 60 s corpus reads all of it).
    /// Windowed loads plan serial region reads ([`IoPlan::for_region`],
    /// the same path as `Vca::read_all_f32`); full-extent loads on more
    /// than one rank plan a §IV-B parallel read with the clause's
    /// strategy — `auto` resolves heuristically, `modeled` prices both
    /// strategies on [`perfmodel::Machine::cori_haswell`].
    pub fn for_load(vca: &Vca, spec: &dasl::LoadSpec, ranks: usize) -> Result<IoPlan> {
        let hz = vca.sampling_hz().max(1) as u64;
        let windowed = spec.time.is_some() || spec.channels.is_some();
        if windowed && ranks > 1 {
            return Err(DassaError::BadSelection(
                "a windowed load (t=/ch=) plans a serial region read; drop --ranks or load \
                 the full extent"
                    .to_string(),
            ));
        }
        if ranks > 1 {
            return Ok(match spec.strategy {
                dasl::Strategy::Auto => IoPlan::for_vca(vca, ReadStrategy::Auto, ranks),
                dasl::Strategy::Collective => {
                    IoPlan::for_vca(vca, ReadStrategy::CollectivePerFile, ranks)
                }
                dasl::Strategy::CommAvoiding => {
                    IoPlan::for_vca(vca, ReadStrategy::CommAvoiding, ranks)
                }
                dasl::Strategy::Modeled => {
                    for_vca_modeled(vca, &perfmodel::Machine::cori_haswell(), ranks)
                }
            });
        }
        let ch = match spec.channels {
            Some((a, b)) => a..b,
            None => 0..vca.channels(),
        };
        let t = match spec.time {
            Some((t0, t1)) => {
                let start = t0 * hz;
                let end = (t1 * hz).min(vca.total_samples());
                if start >= vca.total_samples() {
                    return Err(DassaError::BadSelection(format!(
                        "load time window {t0}..{t1} s starts past the corpus ({} s)",
                        vca.total_samples() / hz
                    )));
                }
                start..end
            }
            None => 0..vca.total_samples(),
        };
        IoPlan::for_region(vca, ch, t)
    }

    /// Plan a whole-file read of one merged (RCA) file with the given
    /// shape.
    pub fn for_file(path: &Path, meta: &DasFileMeta) -> IoPlan {
        IoPlan {
            dataset: DATASET_PATH.to_string(),
            rows: meta.channels as usize,
            cols: meta.samples as usize,
            ops: vec![ReadOp {
                file_index: 0,
                path: path.to_path_buf(),
                rows: meta.channels as usize,
                cols: meta.samples as usize,
                selection: None,
                t0: 0,
            }],
            exchange: Exchange::None,
        }
    }

    /// Total payload bytes the plan reads.
    pub fn total_bytes(&self) -> u64 {
        self.ops.iter().map(ReadOp::bytes).sum()
    }
}

/// Model-driven strategy choice: price both §IV-B strategies on a
/// [`perfmodel::Machine`] and take the cheaper.
///
/// Additive to the heuristic [`ReadStrategy::resolve`] (which stays the
/// default): collective-per-file serializes `files` reads on one
/// aggregator at a time and broadcasts every file whole, while
/// communication-avoiding spreads reads across ranks and pays a single
/// all-to-all of `total/ranks` bytes per rank.
///
/// Codec-aware (DASF v4): `stored_bytes_per_file` is what actually
/// leaves the disks, so I/O is priced on it, while broadcast and
/// all-to-all move *decoded* granules and are priced on
/// `raw_bytes_per_file`. When the files are compressed
/// (`stored < raw`), decode CPU time is charged where decoding happens:
/// the collective aggregator decodes every file serially before
/// broadcasting, whereas communication-avoiding readers each decode
/// only their own share — a cranked-up decode rate therefore pushes the
/// model toward [`ReadStrategy::CommAvoiding`].
pub fn choose_strategy_modeled(
    machine: &perfmodel::Machine,
    ranks: usize,
    files: usize,
    raw_bytes_per_file: u64,
    stored_bytes_per_file: u64,
) -> ReadStrategy {
    if ranks <= 1 || files == 0 {
        return ReadStrategy::CollectivePerFile;
    }
    let n = files as u64;
    let raw_total = n * raw_bytes_per_file;
    let stored_total = n * stored_bytes_per_file;
    let per_rank_files = files.div_ceil(ranks) as u64;
    // Per-unit raw fallback means stored == raw is effectively an
    // uncompressed dataset: no decode stage to pay for.
    let decode_per_file = if stored_bytes_per_file < raw_bytes_per_file {
        machine.decode_time(raw_bytes_per_file)
    } else {
        0.0
    };
    let collective = machine.open_time(n)
        + machine.read_time(1, 1, n, stored_total)
        + n as f64 * decode_per_file
        + files as f64 * machine.bcast_time(ranks, raw_bytes_per_file);
    let readers = ranks.min(files);
    let comm_avoiding = machine.open_time(per_rank_files)
        + machine.read_time(
            1,
            readers,
            per_rank_files,
            per_rank_files * stored_bytes_per_file,
        )
        + per_rank_files as f64 * decode_per_file
        + machine.alltoallv_time(ranks, raw_total / ranks as u64);
    if comm_avoiding <= collective {
        ReadStrategy::CommAvoiding
    } else {
        ReadStrategy::CollectivePerFile
    }
}

/// [`IoPlan::for_vca`] with the strategy chosen by
/// [`choose_strategy_modeled`] instead of the heuristic.
///
/// The stored (on-disk) size is sampled from the first member's
/// metadata — one cheap metadata-only open. Files written raw, v3
/// files, and files that cannot be opened here all price as
/// uncompressed (`stored == raw`).
pub fn for_vca_modeled(vca: &Vca, machine: &perfmodel::Machine, ranks: usize) -> IoPlan {
    let raw_bytes_per_file = if vca.n_files() == 0 {
        0
    } else {
        vca.channels() * vca.samples_of(0) * std::mem::size_of::<f32>() as u64
    };
    let stored_bytes_per_file = vca
        .entries()
        .first()
        .and_then(|e| dasf::File::open(&e.path).ok())
        .and_then(|f| {
            f.dataset(DATASET_PATH)
                .ok()
                .filter(|m| m.is_compressed())
                .map(|m| m.stored_byte_len())
        })
        .unwrap_or(raw_bytes_per_file);
    let strategy = choose_strategy_modeled(
        machine,
        ranks,
        vca.n_files(),
        raw_bytes_per_file,
        stored_bytes_per_file,
    );
    IoPlan::for_vca(vca, strategy, ranks)
}

#[cfg(test)]
mod world_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dass::search::tests::make_files;
    use crate::dass::FileCatalog;

    fn sample_vca(tag: &str, files: usize, channels: u64, samples: u64) -> Vca {
        let dir = make_files(tag, "170728224510", files, channels, samples);
        let cat = FileCatalog::scan(&dir).unwrap();
        Vca::from_entries(cat.entries()).unwrap()
    }

    #[test]
    fn vca_plan_covers_every_file_in_order() {
        let vca = sample_vca("plan-vca", 4, 6, 30);
        let plan = IoPlan::for_vca(&vca, ReadStrategy::CommAvoiding, 2);
        assert_eq!(plan.exchange, Exchange::AllToAll);
        assert_eq!(plan.rows, 6);
        assert_eq!(plan.cols, 120);
        assert_eq!(plan.ops.len(), 4);
        for (i, op) in plan.ops.iter().enumerate() {
            assert_eq!(op.file_index, i);
            assert_eq!(op.rows, 6);
            assert_eq!(op.cols, 30);
            assert_eq!(op.t0, i * 30);
            assert_eq!(op.selection, None);
        }
        assert_eq!(plan.total_bytes(), 4 * 6 * 30 * 4);
    }

    #[test]
    fn auto_resolution_matches_read_strategy_resolve() {
        let vca = sample_vca("plan-auto", 4, 4, 10);
        // 4 files ≥ 2 ranks → communication-avoiding.
        let plan = IoPlan::for_vca(&vca, ReadStrategy::Auto, 2);
        assert_eq!(plan.exchange, Exchange::AllToAll);
        // Single rank → collective-per-file.
        let plan = IoPlan::for_vca(&vca, ReadStrategy::Auto, 1);
        assert_eq!(plan.exchange, Exchange::BcastPerFile);
        // More ranks than files → collective-per-file.
        let plan = IoPlan::for_vca(&vca, ReadStrategy::Auto, 9);
        assert_eq!(plan.exchange, Exchange::BcastPerFile);
    }

    #[test]
    fn region_plan_splits_at_file_boundaries() {
        let vca = sample_vca("plan-region", 3, 4, 60);
        let plan = IoPlan::for_region(&vca, 1..3, 50..130).unwrap();
        assert_eq!(plan.exchange, Exchange::None);
        assert_eq!((plan.rows, plan.cols), (2, 80));
        let shapes: Vec<(usize, usize, usize)> = plan
            .ops
            .iter()
            .map(|op| (op.file_index, op.cols, op.t0))
            .collect();
        assert_eq!(shapes, vec![(0, 10, 0), (1, 60, 10), (2, 10, 70)]);
        assert_eq!(plan.ops[1].selection, Some([(1, 2), (0, 60)]));
    }

    #[test]
    fn region_plan_validates_like_the_reader() {
        let vca = sample_vca("plan-bad", 2, 3, 30);
        assert!(IoPlan::for_region(&vca, 0..4, 0..10).is_err());
        assert!(IoPlan::for_region(&vca, 2..2, 0..10).is_err());
        assert!(IoPlan::for_region(&vca, 0..1, 0..61).is_err());
        assert!(IoPlan::for_region(&vca, 0..1, 10..10).is_err());
    }

    #[test]
    fn modeled_choice_prefers_comm_avoiding_at_scale() {
        let m = perfmodel::Machine::cori_haswell();
        // Many files across many ranks: the paper's Figure 7 regime.
        // Uncompressed corpus: stored == raw.
        assert_eq!(
            choose_strategy_modeled(&m, 8, 64, 30 << 20, 30 << 20),
            ReadStrategy::CommAvoiding
        );
        // Degenerate single-rank world: nothing to exchange.
        assert_eq!(
            choose_strategy_modeled(&m, 1, 64, 30 << 20, 30 << 20),
            ReadStrategy::CollectivePerFile
        );
    }

    #[test]
    fn modeled_choice_flips_when_decode_dominates() {
        // Perfmodel honesty check: the decode term must be able to
        // change the answer, not just nudge the totals. Few small
        // compressed files across many ranks, free opens, fat message
        // latency: broadcasting 4 files costs 4·⌈log₂ 64⌉ = 24 latency
        // rounds against the all-to-all's 63, so collective-per-file
        // wins while decode is free. Crank the decode rate and the
        // aggregator pays it 4× (once per file, serially) against a
        // comm-avoiding reader's 1× — the choice must flip.
        let m = perfmodel::Machine {
            file_open_s: 0.0,
            net_latency: 1e-3,
            decode_ns_per_byte: 0.0,
            ..perfmodel::Machine::cori_haswell()
        };
        let (ranks, files) = (64, 4);
        let raw = 1u64 << 20;
        let stored = raw / 2;
        assert_eq!(
            choose_strategy_modeled(&m, ranks, files, raw, stored),
            ReadStrategy::CollectivePerFile
        );
        let slow_decode = perfmodel::Machine {
            decode_ns_per_byte: 50.0,
            ..m.clone()
        };
        assert_eq!(
            choose_strategy_modeled(&slow_decode, ranks, files, raw, stored),
            ReadStrategy::CommAvoiding
        );
        // Uncompressed files (stored == raw) never pay decode, so the
        // cranked rate must not leak into their pricing.
        assert_eq!(
            choose_strategy_modeled(&slow_decode, ranks, files, raw, raw),
            ReadStrategy::CollectivePerFile
        );
    }
}
