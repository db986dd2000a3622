//! DASS — the DAS data Storage engine (paper §IV).
//!
//! DAS acquisitions land as thousands of small per-minute files. DASS
//! provides the machinery to make that practical as analysis input:
//! a metadata schema ([`DasFileMeta`], Figure 4), search over file
//! catalogs ([`FileCatalog`], the `das_search` tool of §IV-A), virtual
//! and real concatenation ([`Vca`], [`create_rca`]), logical subsetting
//! ([`Lav`]), the parallel read strategies of §IV-B
//! ([`ReadStrategy`]: collective-per-file vs the paper's
//! communication-avoiding read), and offline integrity scrubbing
//! ([`scrub_paths`], the `das_fsck` tool).
//!
//! Every read is a *plan* executed by one engine, and building an
//! [`IoPlan`] and handing it to an [`IoExecutor`] is the only way to
//! read: see [`plan`] for the split, the shared buffer pool, and
//! zero-copy [`Tile`]s.

pub mod fsck;
mod lav;
mod metadata;
pub mod plan;
mod rca;
// `pub(crate)` so sibling modules (ingest) can borrow the shared
// `search::tests::make_files` corpus helper in their own tests.
pub(crate) mod search;
mod timestamp;
mod vca;

pub use fsck::{collect_targets, quarantine, scrub_file, scrub_paths, FileStatus, FsckReport};
pub use lav::Lav;
pub use metadata::{
    das_file_name, keys, write_das_file, write_das_file_with_codec, write_das_file_with_layout,
    DasFileMeta, DATASET_PATH,
};
pub use plan::{
    choose_strategy_modeled, Exchange, IoExecutor, IoPlan, ReadOp, ReadReport, ReadStrategy,
    Resilience, Tile, MAX_READ_ATTEMPTS,
};
pub use rca::{create_rca, read_rca};
pub use search::{FileCatalog, FileEntry};
pub use timestamp::Timestamp;
pub use vca::Vca;
