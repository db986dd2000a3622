//! Figure 7 — reading a VCA: "collective-per-file" vs the paper's
//! "communication-avoiding" method, with RCA reads as reference.
//!
//! Two parts:
//! 1. **Measured** at local scale (simulated MPI ranks on this host):
//!    both strategies read the same generated VCA; we report wall time
//!    and — more robustly on a 1-core host — the communication volume
//!    each strategy actually moved (broadcast bytes vs exchange bytes).
//! 2. **Modeled** at the paper's scale (90 processes, up to 2880
//!    700 MB files on Cori Lustre) via the calibrated cost model.

use bench::{datasets, report, time};
use dassa::prelude::*;
use perfmodel::{experiments::model_fig7, Machine};

fn main() {
    let json_run = report::JsonRun::start("fig7");
    // ---------------- measured, local scale ---------------------------
    let (channels, hz, minutes) = (24, 40.0, 12);
    let dir = datasets::minute_dataset("fig7", channels, hz, minutes);
    let catalog = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(catalog.entries()).expect("vca");
    let rca_path = dir.join("fig7.rca.dasf");
    create_rca(catalog.entries(), &rca_path).expect("rca");

    let ranks = 6;
    let mut t = report::Table::new(
        &format!("Figure 7 (measured, {ranks} ranks, {minutes} files): VCA read strategies"),
        &["method", "wall(s)", "p2p msgs", "p2p bytes", "bcasts"],
    );

    let coll_plan = IoPlan::for_vca(&vca, ReadStrategy::CollectivePerFile, ranks);
    let ((), coll_s) = time(|| {
        minimpi::run(ranks, |comm| {
            IoExecutor::new(comm)
                .run(&coll_plan)
                .expect("collective read");
        });
    });
    let (_, coll_stats) = minimpi::run_with_stats(ranks, |comm| {
        IoExecutor::new(comm)
            .run(&coll_plan)
            .expect("collective read")
    });

    let ca_plan = IoPlan::for_vca(&vca, ReadStrategy::CommAvoiding, ranks);
    let ((), ca_s) = time(|| {
        minimpi::run(ranks, |comm| {
            IoExecutor::new(comm)
                .run(&ca_plan)
                .expect("comm-avoiding read");
        });
    });
    let (_, ca_stats) = minimpi::run_with_stats(ranks, |comm| {
        IoExecutor::new(comm)
            .run(&ca_plan)
            .expect("comm-avoiding read")
    });

    let (_, rca_s) = time(|| read_rca(&rca_path).expect("rca read"));

    t.row(&[
        "collective-per-file".into(),
        format!("{coll_s:.4}"),
        coll_stats.p2p_messages.to_string(),
        report::bytes(coll_stats.p2p_bytes),
        (coll_stats.bcasts / ranks as u64).to_string(),
    ]);
    t.row(&[
        "communication-avoiding".into(),
        format!("{ca_s:.4}"),
        ca_stats.p2p_messages.to_string(),
        report::bytes(ca_stats.p2p_bytes),
        (ca_stats.bcasts / ranks as u64).to_string(),
    ]);
    t.row(&[
        "RCA (serial reference)".into(),
        format!("{rca_s:.4}"),
        "0".into(),
        "0B".into(),
        "0".into(),
    ]);
    t.print();
    t.write_csv("fig7_measured").expect("csv");

    // Correctness cross-check: both strategies reconstruct the array.
    let serial = vca.read_all_f32().expect("serial read");
    let blocks = minimpi::run(ranks, |comm| {
        IoExecutor::new(comm).run(&ca_plan).expect("read").0
    });
    assert_eq!(arrayudf::Array2::vstack(&blocks), serial);

    println!(
        "\ncommunication volume ratio (collective / comm-avoiding): {:.1}x",
        coll_stats.p2p_bytes as f64 / ca_stats.p2p_bytes.max(1) as f64
    );
    assert!(
        ca_stats.p2p_bytes < coll_stats.p2p_bytes,
        "comm-avoiding must move fewer bytes"
    );
    assert_eq!(ca_stats.bcasts, 0, "comm-avoiding issues no broadcasts");

    // ---------------- modeled, paper scale -----------------------------
    let m = Machine::cori_haswell();
    let mut tm = report::Table::new(
        "Figure 7 (modeled, 90 processes on Cori, 700 MB files)",
        &[
            "files",
            "collective(s)",
            "comm-avoid(s)",
            "RCA read(s)",
            "speedup",
        ],
    );
    let mut speedups = Vec::new();
    for &n in &[360u64, 720, 1440, 2880] {
        let f = model_fig7(&m, n, 700 << 20, 90, 8);
        speedups.push(f.collective_per_file_s / f.comm_avoiding_s);
        tm.row(&[
            n.to_string(),
            format!("{:.1}", f.collective_per_file_s),
            format!("{:.1}", f.comm_avoiding_s),
            format!("{:.1}", f.rca_read_s),
            format!("{:.0}x", f.collective_per_file_s / f.comm_avoiding_s),
        ]);
    }
    tm.print();
    tm.write_csv("fig7_modeled").expect("csv");
    let mean = speedups.iter().sum::<f64>() / speedups.len() as f64;
    println!("\nmean modeled speedup: {mean:.0}x   [paper: ~37x on average]");
    println!("ordering check: collective-per-file > RCA > communication-avoiding (as in Fig. 7)");
    json_run.finish(&[&t, &tm]);
}
