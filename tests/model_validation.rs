//! Cost-model validation: where the model and the real implementation
//! overlap (small scale, observable message counts), they must agree —
//! this is what justifies trusting the model's at-scale extrapolations.

use dasgen::{write_minute_files, Scene};
use dassa::prelude::*;
use perfmodel::experiments::{model_fig11_weak, model_fig7, model_fig8, Layout, Workload};
use perfmodel::{Calibration, Machine};

fn small_vca(tag: &str, files: usize) -> Vca {
    let dir = std::env::temp_dir().join(format!("dassa-modelval-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let scene = Scene::demo(12, 20.0, files as f64 * 60.0, 3);
    write_minute_files(&scene, &dir, "170728224510", files).expect("generate");
    let catalog = FileCatalog::scan(&dir).expect("scan");
    Vca::from_entries(catalog.entries()).expect("vca")
}

/// The world's communication statistics for one full-extent read of
/// `vca` on `ranks` ranks.
fn comm_stats(
    vca: &Vca,
    ranks: usize,
    strategy: ReadStrategy,
    resilience: Resilience,
) -> minimpi::StatsSnapshot {
    let plan = IoPlan::for_vca(vca, strategy, ranks);
    let (_, stats) = minimpi::run_with_stats(ranks, |c| {
        let executor = match resilience {
            Resilience::FailFast => IoExecutor::new(c),
            Resilience::Quarantine => IoExecutor::resilient(c),
        };
        executor.run(&plan).expect("read")
    });
    stats
}

#[test]
fn model_and_implementation_agree_on_communication_structure() {
    // The model prices collective-per-file as n broadcasts and
    // communication-avoiding as one alltoallv per rank. The real
    // implementation must issue exactly those collectives and no other
    // — fail-fast and resilient alike: what became of each member
    // travels inside the exchange, so agreeing on it costs no header
    // broadcast, no allgather, and no sample bytes.
    let n_files = 6usize;
    let ranks = 3usize;
    let vca = small_vca("structure", n_files);
    let file_bytes = vca.channels() * vca.samples_of(0) * 4;

    for resilience in [Resilience::FailFast, Resilience::Quarantine] {
        let coll = comm_stats(&vca, ranks, ReadStrategy::CollectivePerFile, resilience);
        assert_eq!(
            coll,
            minimpi::StatsSnapshot {
                bcasts: (n_files * ranks) as u64, // n, counted per rank
                p2p_messages: (n_files * (ranks - 1)) as u64,
                // the model's volume to the byte, so well inside its 1 %
                p2p_bytes: n_files as u64 * (ranks as u64 - 1) * file_bytes,
                ..Default::default()
            },
            "collective-per-file, {resilience:?}"
        );

        let ca = comm_stats(&vca, ranks, ReadStrategy::CommAvoiding, resilience);
        assert_eq!(
            minimpi::StatsSnapshot { p2p_bytes: 0, ..ca },
            minimpi::StatsSnapshot {
                alltoallvs: ranks as u64, // one, counted per rank
                p2p_messages: (ranks * (ranks - 1)) as u64,
                ..Default::default()
            },
            "communication-avoiding, {resilience:?}"
        );
        // Same tolerances as `model_byte_volumes_match_measurement`.
        let total_bytes = (n_files as u64 * file_bytes) as f64;
        let expected_ca = total_bytes * (ranks as f64 - 1.0) / ranks as f64;
        assert!(
            (ca.p2p_bytes as f64 - expected_ca).abs() / expected_ca < 0.35,
            "communication-avoiding, {resilience:?}: moved {} bytes, expected ≈{expected_ca}",
            ca.p2p_bytes
        );
    }
}

#[test]
fn model_byte_volumes_match_measurement() {
    // Collective-per-file must move ~(p−1)/p · n · file_bytes more data
    // than communication-avoiding moves in total; verify the measured
    // ratio against the model's closed form.
    let n_files = 8usize;
    let ranks = 4usize;
    let vca = small_vca("volume", n_files);
    let file_bytes = (vca.channels() * vca.samples_of(0) * 4) as f64;

    let coll = comm_stats(
        &vca,
        ranks,
        ReadStrategy::CollectivePerFile,
        Resilience::FailFast,
    );
    let ca = comm_stats(
        &vca,
        ranks,
        ReadStrategy::CommAvoiding,
        Resilience::FailFast,
    );

    // Binomial bcast of a file sends p−1 copies in total.
    let model_coll = n_files as f64 * (ranks as f64 - 1.0) * file_bytes;
    let measured_coll = coll.p2p_bytes as f64;
    assert!(
        (measured_coll - model_coll).abs() / model_coll < 0.01,
        "collective bytes: measured {measured_coll}, model {model_coll}"
    );

    // Comm-avoiding ships each byte at most once (minus the diagonal).
    let total_bytes = n_files as f64 * file_bytes;
    assert!(
        ca.p2p_bytes as f64 <= total_bytes,
        "comm-avoiding moved more than the dataset: {} > {total_bytes}",
        ca.p2p_bytes
    );
    let expected_ca = total_bytes * (ranks as f64 - 1.0) / ranks as f64;
    assert!(
        (ca.p2p_bytes as f64 - expected_ca).abs() / expected_ca < 0.35,
        "comm-avoiding bytes: measured {}, expected ≈{expected_ca}",
        ca.p2p_bytes
    );
}

#[test]
fn modeled_orderings_match_measured_orderings() {
    // Every qualitative claim the model makes at Cori scale must also
    // hold in the measured local system where testable.
    let m = Machine::cori_haswell();
    let cal = Calibration::default();
    let w = Workload::paper();

    // 1. Comm-avoiding beats collective-per-file (model)…
    let f = model_fig7(&m, 720, 700 << 20, 90, 8);
    assert!(f.comm_avoiding_s < f.collective_per_file_s);
    // …and in measurement (byte volume as the robust proxy).
    let vca = small_vca("ordering", 6);
    let coll = comm_stats(
        &vca,
        3,
        ReadStrategy::CollectivePerFile,
        Resilience::FailFast,
    );
    let ca = comm_stats(&vca, 3, ReadStrategy::CommAvoiding, Resilience::FailFast);
    assert!(ca.p2p_bytes < coll.p2p_bytes);

    // 2. Hybrid ≤ pure MPI in read time at any node count (model).
    for nodes in [91usize, 364, 728] {
        let p = model_fig8(&m, &cal, &w, nodes, Layout::PureMpi { procs_per_node: 16 });
        let h = model_fig8(&m, &cal, &w, nodes, Layout::Hybrid { threads: 16 });
        assert!(h.read_s <= p.read_s + 1e-12, "nodes={nodes}");
    }

    // 3. Weak-scaling I/O efficiency decays monotonically.
    let pts = model_fig11_weak(&m, &cal, 171 << 20, &[91, 182, 364, 728, 1456], 8);
    for w2 in pts.windows(2) {
        assert!(w2[1].io_eff <= w2[0].io_eff + 1e-9);
    }
}

#[test]
fn calibration_rates_scale_the_model_linearly() {
    // Doubling the measured compute rate must halve modeled compute time
    // and leave I/O untouched — the calibration seam is clean.
    let m = Machine::cori_haswell();
    let w = Workload::paper();
    let cal1 = Calibration::default();
    let cal2 = Calibration {
        compute_bytes_per_s_per_core: cal1.compute_bytes_per_s_per_core * 2.0,
        ..cal1
    };
    let a = model_fig8(&m, &cal1, &w, 182, Layout::Hybrid { threads: 16 });
    let b = model_fig8(&m, &cal2, &w, 182, Layout::Hybrid { threads: 16 });
    assert!((a.compute_s / b.compute_s - 2.0).abs() < 1e-9);
    assert_eq!(a.read_s, b.read_s);
}
