//! One import for the whole DASSA surface.
//!
//! Examples, tests, and tools used to deep-import from `dassa::dasa`
//! and `dassa::dass` submodule paths, which coupled every caller to the
//! crate's internal layout. `use dassa::prelude::*` brings in the
//! storage engine (catalog/VCA/planner/executor), the analysis engine
//! (HAEE, the flagship pipelines, the one [`run`] dispatcher), and the
//! `dasl` pipeline-language front end, so callers name what they use
//! and nothing about where it lives.

// `crate::Result` stays out of the prelude on purpose: glob-importing a
// 1-parameter `Result` alias shadows `std::result::Result` in every
// consumer. Name it as `dassa::Result` where needed.
pub use crate::DassaError;

// The engines and the server as modules, for qualified paths
// (`dasa::run`, `dassd::Server::start`, `ingest::run_once`, …).
pub use crate::{dasa, dass, dassd, ingest};

// DASA — the analysis engine.
pub use crate::dasa::{
    cross_correlation_with_master, execute, interferometry_dist, local_similarity, prepare_master,
    preprocess_channel, run, stacked_interferometry, Analysis, AnalysisOutput, BindProgram,
    BoundProgram, Haee, HaeeBuilder, InterferometryParams, Job, LocalSimiParams, MasterSpectrum,
    StackedCorrelation, StackingParams, TimeNorm,
};

// DASS — the storage engine.
pub use crate::dass::{
    choose_strategy_modeled, collect_targets, create_rca, das_file_name, fsck, plan, quarantine,
    read_rca, scrub_file, scrub_paths, write_das_file, write_das_file_with_codec,
    write_das_file_with_layout, DasFileMeta, Exchange, FileCatalog, FileEntry, FileStatus,
    FsckReport, IoExecutor, IoPlan, Lav, ReadOp, ReadReport, ReadStrategy, Resilience, Tile,
    Timestamp, Vca, DATASET_PATH, MAX_READ_ATTEMPTS,
};

// DASSD — the data server.
pub use crate::dassd::{BusyRetry, ChunkCache, Client, ClientError, Server, ServerConfig};

// Ingest — the streaming daemon. `run`/`run_once` stay qualified
// (`ingest::run_once`) so they don't collide with `dasa::run`.
pub use crate::ingest::{Checkpoint, IngestConfig, IngestJob, IngestSummary, MinuteIndex};

// The pipeline language: `dasl::compile("load(…) | …")` → a `Program`
// that `run` executes.
pub use ::dasl;
pub use ::dasl::Program;
