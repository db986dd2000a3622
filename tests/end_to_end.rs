//! End-to-end integration: generate → store → search → merge → parallel
//! read → analyse, across crates, validated against serial oracles.

use arrayudf::Array2;
use dasgen::{write_minute_files, Scene};
use dassa::prelude::*;
use std::path::PathBuf;

fn fresh_dataset(tag: &str, channels: usize, hz: f64, minutes: usize) -> (PathBuf, Scene) {
    let dir = std::env::temp_dir().join(format!("dassa-e2e-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let scene = Scene::demo(channels, hz, minutes as f64 * 60.0, 0xE2E);
    write_minute_files(&scene, &dir, "170728224510", minutes).expect("generate");
    (dir, scene)
}

#[test]
fn generate_search_merge_read_pipeline() {
    let (dir, scene) = fresh_dataset("pipeline", 16, 20.0, 4);
    let catalog = FileCatalog::scan(&dir).expect("scan");
    assert_eq!(catalog.len(), 4);

    // Search both ways; select the middle two files.
    let range_hits = catalog.search_range(170728224610, 1).expect("range");
    assert_eq!(range_hits.len(), 2);
    let regex_hits = catalog
        .search_regex("1707282246.0|1707282247.0")
        .expect("regex");
    assert_eq!(
        regex_hits, range_hits,
        "both query types find the same files"
    );

    // VCA over the hits reads exactly the scene windows.
    let vca = Vca::from_entries(&range_hits).expect("vca");
    let data = vca.read_all_f32().expect("read");
    let expect = scene.render(60.0, 2 * scene.samples_for(60.0));
    assert_eq!(data, expect);

    // LAV subsetting equals direct slicing.
    let lav = Lav::full(&vca).select_channels(3..9).expect("channels");
    let sub = lav.read_f32(&vca).expect("lav read");
    assert_eq!(sub, expect.row_block(3, 9));
}

#[test]
fn parallel_readers_match_serial_for_many_geometries() {
    let (dir, _) = fresh_dataset("readers", 13, 20.0, 5);
    let catalog = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(catalog.entries()).expect("vca");
    let serial = vca.read_all_f32().expect("serial");
    for ranks in [1usize, 2, 3, 5, 8] {
        for strategy in [ReadStrategy::CollectivePerFile, ReadStrategy::CommAvoiding] {
            let plan = IoPlan::for_vca(&vca, strategy, ranks);
            let blocks = minimpi::run(ranks, |c| IoExecutor::new(c).run(&plan).expect("read").0);
            assert_eq!(
                Array2::vstack(&blocks),
                serial,
                "{strategy:?}, {ranks} ranks"
            );
        }
    }
}

#[test]
fn rca_and_vca_views_are_interchangeable() {
    let (dir, _) = fresh_dataset("rca-vca", 8, 20.0, 3);
    let catalog = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(catalog.entries()).expect("vca");
    let rca_path = dir.join("merged.rca.dasf");
    create_rca(catalog.entries(), &rca_path).expect("rca");
    let (meta, rca_data) = read_rca(&rca_path).expect("read rca");
    assert_eq!(meta.channels, vca.channels());
    assert_eq!(meta.samples, vca.total_samples());
    assert_eq!(rca_data, vca.read_all_f32().expect("vca read"));
}

#[test]
fn vca_descriptor_survives_save_load_and_reads_identically() {
    let (dir, _) = fresh_dataset("descriptor", 6, 20.0, 3);
    let catalog = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(catalog.entries()).expect("vca");
    let desc = dir.join("saved.vca.dasf");
    vca.save(&desc).expect("save");
    let reloaded = Vca::load(&desc).expect("load");
    assert_eq!(
        reloaded.read_all_f32().expect("read"),
        vca.read_all_f32().expect("read")
    );
}

#[test]
fn distributed_pipelines_equal_single_process_results() {
    let (dir, _) = fresh_dataset("dist", 12, 20.0, 2);
    let catalog = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(catalog.entries()).expect("vca");
    let data = vca.read_all_f32().expect("read");
    let total = data.rows();

    // Interferometry, with the distributed read feeding it.
    let if_params = InterferometryParams {
        band: (0.02, 0.45),
        ..Default::default()
    };
    let haee = Haee::builder().threads(1).build();
    let if_serial = dasa::run(&Analysis::Interferometry(if_params), &data, &haee).expect("serial");
    let if_serial = if_serial
        .as_scores()
        .expect("one score per channel")
        .to_vec();
    let read_plan = IoPlan::for_vca(&vca, ReadStrategy::CommAvoiding, 4);
    let if_blocks = minimpi::run(4, |comm| {
        let (local, _) = IoExecutor::new(comm).run(&read_plan).expect("read");
        interferometry_dist(
            comm,
            &local,
            total,
            &if_params,
            &Haee::builder().threads(1).build(),
        )
        .expect("dist")
    });
    let gathered: Vec<f64> = if_blocks.into_iter().flatten().collect();
    assert_eq!(gathered.len(), if_serial.len());
    for (ch, (a, b)) in gathered.iter().zip(&if_serial).enumerate() {
        assert!((a - b).abs() < 1e-12, "channel {ch}: {a} vs {b}");
    }
}

#[test]
fn das_search_cli_binary_works() {
    let (dir, _) = fresh_dataset("cli", 4, 20.0, 3);
    // The binary belongs to the `dassa` package; locate it next to this
    // test executable (target/<profile>/das_search).
    let mut exe = std::env::current_exe().expect("test exe path");
    exe.pop(); // deps/
    exe.pop(); // <profile>/
    exe.push("das_search");
    if !exe.exists() {
        eprintln!(
            "skipping: {} not built (run `cargo build --workspace` first)",
            exe.display()
        );
        return;
    }
    let out = std::process::Command::new(&exe)
        .args([
            "-d",
            dir.to_str().expect("utf8 path"),
            "-s",
            "170728224510",
            "-c",
            "1",
        ])
        .output()
        .expect("run das_search");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.lines().count(),
        2,
        "-c 1 returns two files:\n{stdout}"
    );
    assert!(stdout.contains("170728224510"));
    assert!(stdout.contains("170728224610"));

    // Regex mode with VCA output.
    let vca_out = dir.join("cli.vca.dasf");
    let out = std::process::Command::new(&exe)
        .args([
            "-d",
            dir.to_str().expect("utf8 path"),
            "-e",
            "17072822461.",
            "--vca",
            vca_out.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run das_search regex");
    assert!(out.status.success());
    let vca = Vca::load(&vca_out).expect("cli-written VCA loads");
    assert_eq!(vca.n_files(), 1);
}
