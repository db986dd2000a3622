//! `dassa` — Parallel DAS Data Storage and Analysis.
//!
//! Rust reproduction of **"DASSA: Parallel DAS Data Storage and Analysis
//! for Subsurface Event Detection"** (Dong et al., IEEE IPDPS 2020).
//! DASSA makes terabyte-scale distributed-acoustic-sensing (DAS) analysis
//! practical on parallel machines by pairing a storage engine tuned for
//! thousands-of-small-files datasets with a hybrid process/thread
//! execution engine for user-defined analysis functions.
//!
//! The framework has two halves, mirrored by the two top-level modules:
//!
//! * [`dass`] — the **DAS data Storage engine**:
//!   [`dass::DasFileMeta`] (the paper's Figure 4 metadata schema),
//!   [`dass::FileCatalog`] + [`dass::search`] (the `das_search` tool:
//!   timestamp-range and regex queries), [`dass::Vca`] (virtually
//!   concatenated array), [`dass::create_rca`] (really concatenated
//!   array), [`dass::Lav`] (logical array view), and the two parallel
//!   VCA read strategies — collective-per-file and the paper's
//!   communication-avoiding read — as [`dass::IoPlan`]s run by the one
//!   [`dass::IoExecutor`].
//!
//! * [`dasa`] — the **DAS data Analysis engine**: the hybrid ArrayUDF
//!   execution engine ([`dasa::Haee`]) and the two flagship pipelines,
//!   local similarity (earthquake detection, Algorithm 2) and
//!   traffic-noise interferometry (Algorithm 3), built on DasLib kernels
//!   from the [`dsp`] crate. Each is a [`dasa::Analysis`], a named `dasl`
//!   program that [`dasa::run`] executes on the VM.
//!
//! A third module, [`dassd`], wraps both engines in a long-running TCP
//! server (the `das_serve` binary) with a shared chunk cache, admission
//! control, and a blocking [`dassd::Client`] — DAS analytics as a
//! service rather than a batch run.
//!
//! A fourth, [`ingest`], is the streaming half (the `das_ingest`
//! binary): an always-on daemon that validates minute files as they
//! land in a spool directory, admits them into an incremental minute
//! index, and runs a detection job over every completed window — with
//! a crash-consistent checkpoint journal, watermark/late-file
//! handling, retry-then-quarantine validation, and bounded in-flight
//! memory.
//!
//! # Quickstart
//!
//! ```no_run
//! use dassa::dass::{FileCatalog, Vca};
//! use dassa::dasa::{run, Analysis, Haee, LocalSimiParams};
//!
//! // Find one hour of DAS files and merge them virtually.
//! let catalog = FileCatalog::scan("/data/das")?;
//! let hits = catalog.search_range(170728224510, 59)?;
//! let vca = Vca::from_entries(&hits)?;
//!
//! // Detect events with local similarity on 8 threads. Every analysis
//! // goes through the same dispatcher, over the block as stored (f32):
//! // the engine widens one row at a time; it comes from a builder.
//! let data = vca.read_all_f32()?;
//! let haee = Haee::builder().threads(8).build();
//! let out = run(&Analysis::LocalSimilarity(LocalSimiParams::default()), &data, &haee)?;
//! let simi = out.as_map().expect("local similarity yields a channel × time map");
//! # Ok::<(), dassa::DassaError>(())
//! ```
//!
//! Every pipeline and I/O layer reports into the [`obs`] metrics
//! registry (span timers, byte counters); run `das_pipeline --metrics`
//! or snapshot [`obs::global`] to see where time went.

pub mod dasa;
pub mod dass;
pub mod dassd;
mod error;
pub mod ingest;
pub mod prelude;

pub use error::DassaError;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, DassaError>;
