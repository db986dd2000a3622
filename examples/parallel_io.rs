//! The communication-avoiding parallel reader in action (paper §IV-B,
//! Figure 5): read one VCA with both strategies on simulated MPI ranks
//! and compare the communication each one generated.
//!
//! ```sh
//! cargo run --release --example parallel_io
//! ```

use arrayudf::Array2;
use dasgen::{write_minute_files, Scene};
use dassa::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Eight one-minute files, 32 channels at 25 Hz.
    let dir = std::env::temp_dir().join("dassa-parallel-io-example");
    let _ = std::fs::remove_dir_all(&dir);
    let scene = Scene::demo(32, 25.0, 480.0, 11);
    write_minute_files(&scene, &dir, "170728224510", 8)?;
    let catalog = FileCatalog::scan(&dir)?;
    let vca = Vca::from_entries(catalog.entries())?;
    println!(
        "VCA: {} files, {} channels x {} samples",
        vca.n_files(),
        vca.channels(),
        vca.total_samples()
    );

    let ranks = 4;
    let serial = vca.read_all_f32()?;

    // Every read is a plan handed to the one executor; the strategy
    // only picks the plan's exchange step.
    let read = |strategy: ReadStrategy| {
        let plan = IoPlan::for_vca(&vca, strategy, ranks);
        minimpi::run_with_stats(ranks, |comm| {
            IoExecutor::new(comm).run(&plan).expect("parallel read").0
        })
    };
    // Strategy A: collective-per-file — every file is broadcast whole.
    let (blocks_a, stats_a) = read(ReadStrategy::CollectivePerFile);
    // Strategy B: communication-avoiding — whole-file reads + one
    // all-to-all exchange.
    let (blocks_b, stats_b) = read(ReadStrategy::CommAvoiding);

    // Both must reconstruct the array exactly.
    assert_eq!(Array2::vstack(&blocks_a), serial);
    assert_eq!(Array2::vstack(&blocks_b), serial);

    println!("\nstrategy                 broadcasts  alltoallv  p2p bytes");
    println!(
        "collective-per-file      {:>10}  {:>9}  {:>9}",
        stats_a.bcasts / ranks as u64,
        stats_a.alltoallvs / ranks as u64,
        stats_a.p2p_bytes
    );
    println!(
        "communication-avoiding   {:>10}  {:>9}  {:>9}",
        stats_b.bcasts / ranks as u64,
        stats_b.alltoallvs / ranks as u64,
        stats_b.p2p_bytes
    );
    println!(
        "\ncommunication volume ratio: {:.1}x in favour of communication-avoiding",
        stats_a.p2p_bytes as f64 / stats_b.p2p_bytes.max(1) as f64
    );
    println!("both strategies reconstructed the array bit-identically. ok");
    Ok(())
}
