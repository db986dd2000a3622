//! One answer from every entry point: each analysis, computed over one
//! raw `dasgen` corpus by `das_pipeline` (serial `-a`, `--eval` at two
//! threads, two and four thread ranks under either read strategy) and by
//! an in-process `dassd` `Eval` (cold, then from its chunk cache), must
//! give one output digest ([`dasa::dataset_digest`]: FNV-1a over the
//! dims, then the bits of every value).
//!
//! Four ranks over three channels leave one rank an empty row block,
//! and two minute files make both strategies assemble across a file
//! boundary. Run with `--nocapture` to see the row × analysis table.

use dasgen::{write_minute_files, Scene};
use dassa::dassd::cache::metric_names;
use dassa::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Every way one analysis is computed; the first is the reference.
const ROWS: [&str; 8] = [
    "das_pipeline -a, -t 1",
    "das_pipeline --eval, -t 2",
    "--ranks 2, collective",
    "--ranks 2, comm_avoiding",
    "--ranks 4, collective",
    "--ranks 4, comm_avoiding",
    "dassd Eval, cold",
    "dassd Eval, cached",
];

/// `(-a name, the same program as source after its load clause)`. The
/// corpus is 100 Hz, so interferometry's default corners, 0.002 and
/// 0.096 of Nyquist, are 0.1 and 4.8 Hz.
const ANALYSES: [(&str, &str); 3] = [
    (
        "interferometry",
        "detrend | bandpass(0.1, 4.8) | resample(2) | xcorr(master=ch[0])",
    ),
    ("localsim", "localsim"),
    ("stack", "stack(master=ch[0])"),
];

/// `das_pipeline` of the profile this test was built in, next to the
/// test executable (`target/<profile>/deps/..`), if it has been built.
fn das_pipeline() -> Option<PathBuf> {
    let mut exe = std::env::current_exe().expect("test exe path");
    exe.pop(); // deps/
    exe.pop(); // <profile>/
    exe.push("das_pipeline");
    exe.exists().then_some(exe)
}

fn source(strategy: Option<&str>, tail: &str) -> String {
    match strategy {
        Some(s) => format!("load(\"corpus\", strategy=\"{s}\") | {tail}"),
        None => format!("load(\"corpus\") | {tail}"),
    }
}

/// Run `das_pipeline` over `corpus` with `args`, writing to `out`, and
/// digest the dataset it wrote.
fn pipeline_digest(exe: &Path, corpus: &Path, out: &Path, args: &[&str]) -> Result<u64, String> {
    let run = Command::new(exe)
        .arg("-d")
        .arg(corpus)
        .args(args)
        .arg("-o")
        .arg(out)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !run.status.success() {
        return Err(format!(
            "{args:?} exited {}: {}",
            run.status,
            String::from_utf8_lossy(&run.stderr)
        ));
    }
    let file = dasf::File::open(out).map_err(|e| e.to_string())?;
    let dims = file
        .dataset("/result")
        .map_err(|e| e.to_string())?
        .dims
        .clone();
    let values: Vec<f64> = file.read("/result").map_err(|e| e.to_string())?;
    Ok(dasa::dataset_digest(&dims, &values))
}

/// One analysis along every row, in [`ROWS`] order.
fn digests(exe: &Path, corpus: &Path, out: &Path, analysis: &str, tail: &str) -> Vec<String> {
    let file = |row: usize| out.join(format!("{analysis}-{row}.dasf"));
    let mut runs: Vec<Vec<String>> = vec![
        vec!["-a".into(), analysis.into(), "-t".into(), "1".into()],
        vec!["--eval".into(), source(None, tail), "-t".into(), "2".into()],
    ];
    for ranks in ["2", "4"] {
        for strategy in ["collective", "comm_avoiding"] {
            runs.push(vec![
                "--eval".into(),
                source(Some(strategy), tail),
                "-t".into(),
                "1".into(),
                "--ranks".into(),
                ranks.into(),
            ]);
        }
    }
    let mut got: Vec<String> = runs
        .iter()
        .enumerate()
        .map(|(row, args)| {
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let digest = pipeline_digest(exe, corpus, &file(row), &args);
            digest.map_or_else(|e| e, |d| format!("{d:016x}"))
        })
        .collect();

    // A fresh server per analysis, so its first eval reads cold.
    let server = Server::start(corpus, ServerConfig::default()).expect("start dassd");
    let hits = || server.registry().snapshot().counter(metric_names::HIT);
    let mut client = Client::connect(server.addr()).expect("connect");
    let src = source(None, tail);
    for warm in [false, true] {
        let before = hits();
        let digest = client
            .eval(&src)
            .map(|(dims, values)| format!("{:016x}", dasa::dataset_digest(&dims, &values)));
        let moved = hits() > before;
        assert_eq!(
            moved,
            warm,
            "{analysis}: cache.hit moved={moved} on the {} eval",
            if warm { "cached" } else { "cold" }
        );
        got.push(digest.unwrap_or_else(|e| format!("eval failed: {e}")));
    }
    server.stop();
    got
}

#[test]
fn every_entry_point_gives_one_digest_per_analysis() {
    let Some(exe) = das_pipeline() else {
        eprintln!("skipping: das_pipeline not built (run `cargo build --workspace` first)");
        return;
    };
    let root = std::env::temp_dir().join(format!("dassa-one-answer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (corpus, out) = (root.join("corpus"), root.join("out"));
    std::fs::create_dir_all(&out).expect("out dir");
    let scene = Scene::demo(3, 100.0, 120.0, 0x0A5E);
    write_minute_files(&scene, &corpus, "170728224510", 2).expect("generate");

    // One thread per analysis: each runs its rows in order.
    let columns: Vec<Vec<String>> = std::thread::scope(|s| {
        let handles: Vec<_> = ANALYSES
            .iter()
            .map(|&(analysis, tail)| s.spawn(|| digests(&exe, &corpus, &out, analysis, tail)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("column"))
            .collect()
    });
    let _ = std::fs::remove_dir_all(&root);

    let header: String = ANALYSES.iter().map(|(a, _)| format!("{a:<18}")).collect();
    println!("{:<28}{}", "row", header.trim_end());
    for (row, name) in ROWS.iter().enumerate() {
        let cells: String = columns.iter().map(|c| format!("{:<18}", c[row])).collect();
        println!("{name:<28}{}", cells.trim_end());
    }
    for (column, (analysis, _)) in columns.iter().zip(ANALYSES) {
        for (row, digest) in column.iter().enumerate() {
            assert_eq!(
                digest, &column[0],
                "{analysis}: `{}` disagrees with `{}`",
                ROWS[row], ROWS[0]
            );
        }
    }
}
