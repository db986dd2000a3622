//! The four workloads and what they share: the trait the harness
//! drives, and the corpus generator.

use crate::harness::Cx;
use crate::util::dir_bytes;
use arrayudf::Array2;
use dassa::prelude::*;
use std::path::{Path, PathBuf};

pub mod batch_compute;
pub mod ingest_stream;
pub mod serve_query;
pub mod storage_scan;

/// Workload names, in the order `all` and `selfcheck` run them.
pub const NAMES: [&str; 4] = [
    "batch_compute",
    "storage_scan",
    "serve_query",
    "ingest_stream",
];

/// Acquisition rate of the read-side corpora, in Hz.
pub const HZ: u64 = 500;
/// Samples per channel in a one-minute file.
pub const SPM: u64 = 60 * HZ;
/// Timestamp of every corpus' first minute.
pub const START: &str = "170728224510";

/// A set-up workload: a corpus on disk, oracles in memory, and a fixed
/// schedule of ops.
pub trait Workload {
    /// One pass of the op schedule. Each op goes through [`Cx::op`].
    fn cycle(&mut self, cx: &mut Cx);
    /// Raw sample bytes one pass delivers to its caller (stated, for MB/s).
    fn cycle_bytes(&self) -> u64;
    /// Bytes on disk ÷ raw sample bytes of the corpus.
    fn stored_ratio(&self) -> f64;
    /// The final shapes, for the run's log.
    fn describe(&self) -> String;
    /// End-of-run oracles. Teardown (server stopped, threads joined) is
    /// the workload's `Drop`.
    fn finish(self: Box<Self>, _cx: &mut Cx) {}
}

/// Build `name`'s corpus and oracles under `dir` from `seed`.
pub fn setup(name: &str, seed: u64, quick: bool, dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "batch_compute" => Box::new(batch_compute::BatchCompute::setup(
            seed,
            batch_compute::Shape::pick(quick),
            dir,
        )?),
        "storage_scan" => Box::new(storage_scan::StorageScan::setup(
            seed,
            storage_scan::Shape::pick(quick),
            dir,
        )?),
        "serve_query" => Box::new(serve_query::ServeQuery::setup(
            seed,
            serve_query::Shape::pick(quick),
            dir,
        )?),
        "ingest_stream" => Box::new(ingest_stream::IngestStream::setup(
            seed,
            ingest_stream::Shape::pick(quick),
            dir,
        )?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (have: {})",
                NAMES.join(", ")
            ))
        }
    })
}

/// A generated corpus of one-minute files.
pub struct Corpus {
    pub dir: PathBuf,
    pub paths: Vec<PathBuf>,
    /// Sample bytes before any codec: `files × channels × SPM × 4`.
    pub raw_bytes: u64,
    /// Bytes the files take on disk.
    pub stored_bytes: u64,
}

impl Corpus {
    pub fn stored_ratio(&self) -> f64 {
        self.stored_bytes as f64 / self.raw_bytes as f64
    }

    pub fn vca(&self) -> Result<Vca, String> {
        let catalog = FileCatalog::scan(&self.dir).map_err(|e| e.to_string())?;
        Vca::from_entries(catalog.entries()).map_err(|e| e.to_string())
    }
}

/// Metadata of minute `minute` of a stream of `channels` at `hz`.
pub fn meta_for(minute: u64, channels: u64, hz: u64) -> Result<DasFileMeta, String> {
    Ok(DasFileMeta {
        sampling_hz: hz as i64,
        spatial_resolution_m: 2.0,
        timestamp: Timestamp::parse(START)
            .map_err(|e| e.to_string())?
            .add_minutes(minute),
        channels,
        samples: 60 * hz,
    })
}

/// Minute `minute` of the corpus a seed gives: the first minute of a
/// `dasgen::Scene::demo` scene of its own. (`Scene::render` walks its
/// noise generators forward from sample 0, so minute `m` of one long
/// scene costs `m + 1` minutes of rendering; sixteen one-minute scenes
/// cost sixteen.)
pub fn render_minute(seed: u64, channels: u64, hz: u64, minute: u64) -> Array2<f32> {
    let scene_seed = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(minute);
    dasgen::Scene::demo(channels as usize, hz as f64, 60.0, scene_seed)
        .render(0.0, (60 * hz) as usize)
}

/// Render `minutes` one-minute files and write each with
/// `write_das_file_with_codec` — what
/// `dasgen::write_minute_files_with_codec` does per file. `each` sees
/// every rendered minute, so oracle digests come from the render and
/// not from a read of the file.
pub fn generate(
    dir: &Path,
    seed: u64,
    channels: u64,
    minutes: u64,
    codec: dasf::Codec,
    mut each: impl FnMut(u64, &Array2<f32>) -> Result<(), String>,
) -> Result<Corpus, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut paths = Vec::with_capacity(minutes as usize);
    for m in 0..minutes {
        let data = render_minute(seed, channels, HZ, m);
        let meta = meta_for(m, channels, HZ)?;
        let path = dir.join(das_file_name(&meta.timestamp));
        write_das_file_with_codec(&path, &meta, &data, None, codec).map_err(|e| e.to_string())?;
        each(m, &data)?;
        paths.push(path);
    }
    Ok(Corpus {
        dir: dir.to_path_buf(),
        paths,
        raw_bytes: minutes * channels * SPM * 4,
        stored_bytes: dir_bytes(dir),
    })
}

/// Rows `ch`, columns `t` of a rendered minute, as a block of its own.
pub fn slab(
    minute: &Array2<f32>,
    ch: std::ops::Range<u64>,
    t: std::ops::Range<u64>,
) -> Array2<f32> {
    let (t0, t1) = (t.start as usize, t.end as usize);
    let rows = ch.start as usize..ch.end as usize;
    let data: Vec<f32> = rows
        .clone()
        .flat_map(|r| minute.row(r)[t0..t1].iter().copied())
        .collect();
    Array2::from_vec(rows.len(), t1 - t0, data)
}

pub fn lz() -> dasf::Codec {
    dasf::Codec::parse("shuffle-lz").expect("shuffle-lz is a known codec")
}

/// Widen a storage-typed block to the analysis type, as `das_pipeline`
/// does between its read and its analyze stage.
pub fn widen(block: &Array2<f32>) -> Array2<f64> {
    let wide: Vec<f64> = block.as_slice().iter().map(|&v| v as f64).collect();
    Array2::from_vec(block.rows(), block.cols(), wide)
}
