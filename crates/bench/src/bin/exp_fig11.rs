//! Figure 11 — strong and weak scaling of DASSA.
//!
//! Measured part: strong scaling of the full pipeline across simulated
//! MPI ranks on this host — on a single-core machine wall time cannot
//! improve, so the measured series reports *work distribution*
//! (per-rank cell counts stay balanced and total work stays constant),
//! which is the precondition for the paper's ~100 % compute efficiency.
//!
//! Modeled part: the calibrated Cori model over 91 → 1456 nodes
//! (8 threads per node, as in the paper), reporting parallel efficiency
//! of compute and I/O for both strong (1.9 TB fixed) and weak
//! (171 MB/core) scaling.

use bench::{calibrate, datasets, report, time};
use dassa::prelude::*;
use perfmodel::experiments::{model_fig11_strong, model_fig11_weak, Workload};
use perfmodel::Machine;

fn main() {
    let json_run = report::JsonRun::start("fig11");
    // ---------------- measured, local scale ---------------------------
    let (channels, hz, minutes) = (24, 40.0, 4);
    let dir = datasets::minute_dataset("fig11", channels, hz, minutes);
    let catalog = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(catalog.entries()).expect("vca");
    let params = InterferometryParams {
        band: (0.01, 0.4),
        ..Default::default()
    };

    let mut t = report::Table::new(
        "Figure 11 (measured, simulated ranks): work distribution",
        &["ranks", "wall(s)", "max ch/rank", "min ch/rank", "scores"],
    );
    let mut reference: Option<Vec<f64>> = None;
    for ranks in [1usize, 2, 4, 8] {
        let total_ch = vca.channels() as usize;
        let plan = IoPlan::for_vca(&vca, ReadStrategy::CommAvoiding, ranks);
        let (blocks, wall) = time(|| {
            minimpi::run(ranks, |comm| {
                let (local, _) = IoExecutor::new(comm).run(&plan).expect("read");
                interferometry_dist(
                    comm,
                    &local,
                    total_ch,
                    &params,
                    &Haee::builder().threads(1).build(),
                )
                .expect("pipeline")
            })
        });
        let sizes: Vec<usize> = blocks.iter().map(|b| b.len()).collect();
        let flat: Vec<f64> = blocks.into_iter().flatten().collect();
        match &reference {
            None => reference = Some(flat.clone()),
            Some(r) => {
                // Identical results at every scale (bitwise).
                assert_eq!(r.len(), flat.len());
                for (a, b) in r.iter().zip(&flat) {
                    assert!(
                        (a - b).abs() < 1e-12,
                        "results must not depend on rank count"
                    );
                }
            }
        }
        t.row(&[
            ranks.to_string(),
            format!("{wall:.3}"),
            sizes.iter().max().expect("nonempty").to_string(),
            sizes.iter().min().expect("nonempty").to_string(),
            flat.len().to_string(),
        ]);
    }
    t.print();
    t.write_csv("fig11_measured").expect("csv");
    println!("(single-core host: wall time cannot drop; balance and result-identity");
    println!(" across rank counts are the measurable scaling preconditions)\n");

    // ---------------- modeled, paper scale -----------------------------
    let cal = calibrate::calibrate();
    let m = Machine::cori_haswell();
    let w = Workload::paper();
    let nodes = [91usize, 182, 364, 728, 1092, 1456];

    let mut ts = report::Table::new(
        "Figure 11 (modeled): strong scaling, 1.9 TB, 8 threads/node",
        &[
            "nodes",
            "compute eff(%)",
            "I/O eff(%)",
            "read(s)",
            "compute(s)",
        ],
    );
    for p in model_fig11_strong(&m, &cal, &w, &nodes, 8) {
        ts.row(&[
            p.nodes.to_string(),
            format!("{:.1}", p.compute_eff),
            format!("{:.1}", p.io_eff),
            format!("{:.1}", p.read_s),
            format!("{:.1}", p.compute_s),
        ]);
    }
    ts.print();
    ts.write_csv("fig11_strong").expect("csv");

    let mut tw = report::Table::new(
        "Figure 11 (modeled): weak scaling, 171 MB/core, 8 threads/node",
        &[
            "nodes",
            "compute eff(%)",
            "I/O eff(%)",
            "read(s)",
            "compute(s)",
        ],
    );
    for p in model_fig11_weak(&m, &cal, 171 << 20, &nodes, 8) {
        tw.row(&[
            p.nodes.to_string(),
            format!("{:.1}", p.compute_eff),
            format!("{:.1}", p.io_eff),
            format!("{:.1}", p.read_s),
            format!("{:.1}", p.compute_s),
        ]);
    }
    tw.print();
    tw.write_csv("fig11_weak").expect("csv");

    // Burst buffer counterfactual — the paper's proposed fix for the
    // I/O decay ("using the Burst Buffer addresses the down trend").
    let bb = Machine::cori_burst_buffer();
    let mut tb = report::Table::new(
        "Figure 11 (modeled): strong scaling on the DataWarp burst buffer",
        &["nodes", "I/O eff Lustre(%)", "I/O eff BurstBuffer(%)"],
    );
    let lustre_pts = model_fig11_strong(&m, &cal, &w, &nodes, 8);
    let bb_pts = model_fig11_strong(&bb, &cal, &w, &nodes, 8);
    for (l, b) in lustre_pts.iter().zip(&bb_pts) {
        tb.row(&[
            l.nodes.to_string(),
            format!("{:.1}", l.io_eff),
            format!("{:.1}", b.io_eff),
        ]);
    }
    tb.print();
    tb.write_csv("fig11_burst_buffer").expect("csv");

    println!("\npaper shape: compute efficiency ~100% throughout; I/O efficiency decays");
    println!("as node counts grow (fixed number of Lustre OSTs absorbs more requests);");
    println!("the burst buffer column shows the paper's proposed remedy working.");
    json_run.finish(&[&t, &ts, &tw, &tb]);
}
