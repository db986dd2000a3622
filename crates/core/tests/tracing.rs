//! Acceptance test for the tracing + cluster-metrics tentpole: a
//! pipeline-shaped run under a 4-rank chaos world must produce a Chrome
//! trace whose events span every rank and thread with zero drops at the
//! default ring capacity, and a cluster snapshot with a per-metric
//! imbalance ratio.

use arrayudf::Array2;
use dassa::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

const RANKS: usize = 4;

fn build_corpus(dir: &std::path::Path, files: usize, channels: u64, samples: u64) {
    std::fs::create_dir_all(dir).expect("corpus dir");
    let t0 = Timestamp::parse("170728224510").expect("ts");
    for f in 0..files {
        let ts = t0.add_minutes(f as u64);
        let data = Array2::from_fn(channels as usize, samples as usize, |r, c| {
            (f * 31 + r * 7 + c) as f32 * 0.5
        });
        let meta = DasFileMeta {
            sampling_hz: (samples / 60).max(1) as i64,
            spatial_resolution_m: 2.0,
            timestamp: ts,
            channels,
            samples,
        };
        write_das_file(&dir.join(das_file_name(&ts)), &meta, &data).expect("write member");
    }
}

#[test]
fn chaos_world_run_yields_full_trace_and_cluster_snapshot() {
    let dir = std::env::temp_dir().join("dassa-tracing-acceptance");
    let _ = std::fs::remove_dir_all(&dir);
    build_corpus(&dir, 6, 8, 120);
    let catalog = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(catalog.entries()).expect("vca");

    // Default-capacity tracer on the global registry: every already-
    // instrumented site (dasf reads, minimpi collectives, par_read
    // phases, span guards) lands on the timeline without further wiring.
    let tracer = obs::trace::enable_global(obs::trace::DEFAULT_CAPACITY);

    // Transient faults at every member read: each file fails a capped
    // number of times and then succeeds, so retry counters light up on
    // every rank while the gather still completes (no dead ranks).
    let plan = Arc::new(faultline::FaultPlan::parse("seed=11,par_read.file=1.0").expect("plan"));
    let io_plan = IoPlan::for_vca(&vca, ReadStrategy::Auto, RANKS);
    let (results, _world) = minimpi::run_chaos(
        RANKS,
        plan,
        minimpi::RetryPolicy::default(),
        |comm| -> dassa::Result<_> {
            let (block, report) = IoExecutor::resilient(comm).run(&io_plan)?;
            let cluster = comm
                .try_cluster_snapshot()
                .expect("gather per-rank snapshots");
            Ok((block, report, cluster))
        },
    );

    // Every rank read its full channel partition; faults were transient.
    let mut cluster = None;
    for (rank, result) in results.into_iter().enumerate() {
        let (block, report, cluster_at_rank) = result.expect("rank read");
        assert!(block.rows() > 0 && block.cols() == 6 * 120, "rank {rank}");
        assert!(report.quarantined.is_empty(), "rank {rank} quarantined");
        assert!(report.io_retries > 0, "rank {rank} saw no injected faults");
        if rank == 0 {
            cluster = cluster_at_rank;
        } else {
            assert!(cluster_at_rank.is_none(), "only root holds the gather");
        }
    }

    // -- ClusterSnapshot: per-rank breakdown with imbalance ratios.
    let cluster = cluster.expect("root cluster snapshot");
    assert_eq!(cluster.size(), RANKS);
    let retry_stats = cluster
        .counter_stats(dassa::dass::plan::metric_names::RETRIES)
        .expect("per-rank retry counters");
    assert!(retry_stats.sum > 0, "retries must be visible per rank");
    assert!(retry_stats.imbalance() >= 1.0);
    let any_positive = cluster
        .counter_names()
        .iter()
        .filter_map(|n| cluster.counter_stats(n))
        .any(|s| s.sum > 0 && s.imbalance() >= 1.0);
    assert!(any_positive);
    assert!(cluster.render_text().contains("imbalance="));
    // The combined metrics document round-trips through the shared
    // JSON layer.
    let combined = cluster.aggregate().to_json_with_cluster(&cluster);
    assert_eq!(
        obs::ClusterSnapshot::from_json(&combined).expect("reparse"),
        cluster
    );

    // -- Chrome trace: all ranks and threads, zero drops, exact codec.
    let trace = tracer.collect();
    assert_eq!(trace.dropped, 0, "default ring capacity must not drop");
    assert_eq!(obs::global().snapshot().counter("trace.dropped"), 0);
    let pids: BTreeSet<u32> = trace.events.iter().map(|e| e.rank).collect();
    for rank in 0..RANKS as u32 {
        assert!(pids.contains(&rank), "no events from rank {rank}: {pids:?}");
    }
    let threads: BTreeSet<(u32, u32)> = trace.events.iter().map(|e| (e.rank, e.tid)).collect();
    assert!(threads.len() >= RANKS, "events span {threads:?}");

    let json = trace.to_chrome_json();
    for field in ["\"ph\":", "\"ts\":", "\"pid\":", "\"tid\":", "\"name\":"] {
        assert!(json.contains(field), "missing {field}");
    }
    assert!(json.contains("\"dropped\":0"));
    let back = obs::Trace::from_chrome_json(&json).expect("parse trace back");
    assert_eq!(back, trace);

    // The instrumented layers all made it onto the timeline.
    let names: BTreeSet<&str> = trace.events.iter().map(|e| e.name.as_str()).collect();
    assert!(
        names.iter().any(|n| n.starts_with("dasf.")),
        "dasf events missing: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("minimpi.")),
        "minimpi events missing: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("par_read.")),
        "par_read events missing: {names:?}"
    );
}
