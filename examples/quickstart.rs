//! Quickstart: the full DASSA workflow in one file.
//!
//! 1. Generate a small synthetic DAS acquisition (one-minute files in
//!    the paper's HDF5-style schema).
//! 2. Find files with `das_search`-style queries.
//! 3. Merge them into a Virtually Concatenated Array (VCA).
//! 4. Read a channel subset through a Logical Array View (LAV).
//! 5. Run the local-similarity UDF with the hybrid execution engine.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dasgen::{write_minute_files, Scene};
use dassa::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 3-minute acquisition: 32 channels at 50 Hz with the demo
    //    events (two vehicles, an earthquake, a persistent source).
    let dir = std::env::temp_dir().join("dassa-quickstart");
    let _ = std::fs::remove_dir_all(&dir);
    let scene = Scene::demo(32, 50.0, 180.0, 7);
    let files = write_minute_files(&scene, &dir, "170728224510", 3)?;
    println!(
        "wrote {} one-minute files to {}",
        files.len(),
        dir.display()
    );

    // 2. Search the catalog (the paper's das_search, §IV-A).
    let catalog = FileCatalog::scan(&dir)?;
    let by_range = catalog.search_range(170728224510, 2)?; // -s ... -c 2
    let by_regex = catalog.search_regex("1707282245[12]0")?; // -e ...
    println!(
        "search: range query hit {} files, regex query hit {} files",
        by_range.len(),
        by_regex.len()
    );

    // 3. Merge into a VCA — metadata only, no data copied.
    let vca = Vca::from_entries(&by_range)?;
    println!(
        "VCA: {} channels x {} samples across {} files (contiguous: {})",
        vca.channels(),
        vca.total_samples(),
        vca.n_files(),
        vca.is_contiguous()
    );

    // 4. Subset channels 8..24 through a LAV and materialize it as
    //    stored (f32); the engine widens one row at a time.
    let lav = Lav::full(&vca).select_channels(8..24)?;
    let data = lav.read_f32(&vca)?;
    println!("LAV read: {} x {} samples", data.rows(), data.cols());

    // 5. Local similarity (Algorithm 2) on 4 threads.
    let params = LocalSimiParams {
        half_window: 20,
        channel_offset: 1,
        search_half: 8,
        time_stride: 50,
    };
    let simi = local_similarity(&data, &params, &Haee::builder().threads(4).build());
    let peak = simi.as_slice().iter().cloned().fold(f64::MIN, f64::max);
    let mean = simi.as_slice().iter().sum::<f64>() / simi.len() as f64;
    println!(
        "local similarity map: {} x {}; mean {:.3}, peak {:.3}",
        simi.rows(),
        simi.cols(),
        mean,
        peak
    );
    assert!(peak > mean, "events should stand out from the background");
    println!("ok");
    Ok(())
}
