//! Figure 8 — pure-MPI ArrayUDF vs the hybrid engine (HAEE).
//!
//! Measured part: the interferometry UDF executed under both layouts at
//! local scale — pure MPI (`ranks = cores, threads = 1`, master channel
//! duplicated per rank) vs hybrid (`1 rank, threads = cores`, master
//! shared). We report wall time, I/O request counts, and the measured
//! per-node memory footprint of the master-channel state.
//!
//! Modeled part: the calibrated Cori model over the paper's node counts
//! (91 → 728, 16 cores each), reproducing the read/compute/write bars
//! and the out-of-memory failure of pure MPI at 91 nodes.

use bench::{calibrate, datasets, report, time};
use dassa::prelude::*;
use perfmodel::experiments::{model_fig8, Layout, Workload};
use perfmodel::Machine;

fn main() {
    let json_run = report::JsonRun::start("fig8");
    // ---------------- measured, local scale ---------------------------
    let (channels, hz, minutes) = (24, 40.0, 8);
    let dir = datasets::minute_dataset("fig8", channels, hz, minutes);
    let catalog = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(catalog.entries()).expect("vca");
    let params = InterferometryParams {
        band: (0.01, 0.4),
        ..Default::default()
    };
    let cores = 4usize;

    let run_layout = |ranks: usize, threads: usize| -> (f64, minimpi::StatsSnapshot, u64) {
        let total_ch = vca.channels() as usize;
        let plan = IoPlan::for_vca(&vca, ReadStrategy::CommAvoiding, ranks);
        let ((), wall) = time(|| {
            minimpi::run(ranks, |comm| {
                let (local, _) = IoExecutor::new(comm).run(&plan).expect("read");
                interferometry_dist(
                    comm,
                    &local,
                    total_ch,
                    &params,
                    &Haee::builder().threads(threads).build(),
                )
                .expect("pipeline")
            });
        });
        let (_, stats) = minimpi::run_with_stats(ranks, |comm| {
            let (local, _) = IoExecutor::new(comm).run(&plan).expect("read");
            interferometry_dist(
                comm,
                &local,
                total_ch,
                &params,
                &Haee::builder().threads(threads).build(),
            )
            .expect("pipeline")
        });
        // Master-channel bytes resident per "node" = one copy per rank.
        let master_row: Vec<f64> = vca
            .read_region_f32(0..1, 0..vca.total_samples())
            .expect("master row")
            .into_vec()
            .into_iter()
            .map(|v| v as f64)
            .collect();
        let master_bytes = prepare_master(&master_row, &params).bytes() * ranks as u64;
        (wall, stats, master_bytes)
    };

    let (mpi_wall, mpi_stats, mpi_master) = run_layout(cores, 1);
    let (hy_wall, hy_stats, hy_master) = run_layout(1, cores);

    let mut t = report::Table::new(
        &format!("Figure 8 (measured, {cores} cores): pure MPI vs hybrid HAEE"),
        &[
            "layout",
            "wall(s)",
            "p2p msgs",
            "master copies",
            "master bytes",
        ],
    );
    t.row(&[
        format!("pure MPI ({cores} ranks x 1 thread)"),
        format!("{mpi_wall:.3}"),
        mpi_stats.p2p_messages.to_string(),
        cores.to_string(),
        report::bytes(mpi_master),
    ]);
    t.row(&[
        format!("hybrid (1 rank x {cores} threads)"),
        format!("{hy_wall:.3}"),
        hy_stats.p2p_messages.to_string(),
        "1".into(),
        report::bytes(hy_master),
    ]);
    t.print();
    t.write_csv("fig8_measured").expect("csv");

    assert_eq!(
        mpi_master / hy_master,
        cores as u64,
        "pure MPI duplicates the master channel per rank"
    );
    assert!(
        hy_stats.p2p_messages < mpi_stats.p2p_messages,
        "hybrid communicates less"
    );
    println!(
        "\nmaster duplication: {}x; message reduction: {:.1}x",
        mpi_master / hy_master,
        mpi_stats.p2p_messages as f64 / hy_stats.p2p_messages.max(1) as f64
    );

    // ---------------- modeled, paper scale -----------------------------
    println!("\ncalibrating compute rate on this host...");
    let cal = calibrate::calibrate();
    println!(
        "  interferometry: {:.1} MB/s/core; write: {:.0} MB/s",
        cal.compute_bytes_per_s_per_core / 1e6,
        cal.write_bytes_per_s / 1e6
    );
    let m = Machine::cori_haswell();
    let w = Workload::paper();
    let mut tm = report::Table::new(
        "Figure 8 (modeled, Cori, 1.9 TB, 16 cores/node)",
        &[
            "nodes",
            "layout",
            "read(s)",
            "compute(s)",
            "write(s)",
            "total",
        ],
    );
    for &nodes in &[91usize, 182, 364, 728] {
        for layout in [
            Layout::PureMpi { procs_per_node: 16 },
            Layout::Hybrid { threads: 16 },
        ] {
            let p = model_fig8(&m, &cal, &w, nodes, layout);
            let name = match layout {
                Layout::PureMpi { .. } => "ArrayUDF (MPI)",
                Layout::Hybrid { .. } => "HArrayUDF",
            };
            tm.row(&[
                nodes.to_string(),
                name.into(),
                if p.oom {
                    "OOM".into()
                } else {
                    format!("{:.1}", p.read_s)
                },
                if p.oom {
                    "OOM".into()
                } else {
                    format!("{:.1}", p.compute_s)
                },
                if p.oom {
                    "OOM".into()
                } else {
                    format!("{:.2}", p.write_s)
                },
                report::secs(p.total_s()),
            ]);
        }
    }
    tm.print();
    tm.write_csv("fig8_modeled").expect("csv");
    println!("\npaper shape: pure MPI OOMs at 91 nodes; at 728 nodes its read time");
    println!("balloons (11648 concurrent I/O requests); HAEE issues 16x fewer calls.");
    json_run.finish(&[&t, &tm]);
}
