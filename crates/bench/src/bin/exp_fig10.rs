//! Figure 10 — the local-similarity event map.
//!
//! The paper's Figure 10 plots local similarity (Algorithm 2) over a
//! 6-minute record, where two moving vehicles, a persistent vibrating
//! source, and an M4.4 earthquake stand out as bright features. We
//! generate a 6-minute scene with exactly those event types (with known
//! ground truth), run the same algorithm, render the map as ASCII, and
//! score the detection quantitatively — something the real dataset
//! cannot offer.

use bench::{datasets, report};
use dassa::prelude::*;

fn main() {
    let json_run = report::JsonRun::start("fig10");
    let (channels, hz, minutes) = (64, 50.0, 6);
    let dir = datasets::minute_dataset("fig10", channels, hz, minutes);
    let scene = datasets::minute_scene(channels, hz, minutes);
    let catalog = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(catalog.entries()).expect("vca");
    let data = vca.read_all_f32().expect("read");

    let params = LocalSimiParams {
        half_window: 25,
        channel_offset: 1,
        search_half: 12,
        time_stride: 50, // one output sample per second at 50 Hz
    };
    let simi = local_similarity(&data, &params, &Haee::builder().threads(4).build());
    let truth = scene.ground_truth_mask(0.0, data.cols(), params.time_stride);
    assert_eq!(simi.rows(), truth.rows());
    assert_eq!(simi.cols(), truth.cols());

    // Detection scoring: threshold the map, compare with ground truth.
    let threshold = 0.62;
    let (mut tp, mut fp, mut _tn, mut fn_) = (0u64, 0u64, 0u64, 0u64);
    let mut sum_active = 0.0;
    let mut n_active = 0u64;
    let mut sum_quiet = 0.0;
    let mut n_quiet = 0u64;
    for ch in 0..simi.rows() {
        for s in 0..simi.cols() {
            let hot = simi.get(ch, s) >= threshold;
            let truth_hot = truth.get(ch, s);
            match (hot, truth_hot) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, false) => _tn += 1,
                (false, true) => fn_ += 1,
            }
            if truth_hot {
                sum_active += simi.get(ch, s);
                n_active += 1;
            } else {
                sum_quiet += simi.get(ch, s);
                n_quiet += 1;
            }
        }
    }
    let recall = tp as f64 / (tp + fn_).max(1) as f64;
    let precision = tp as f64 / (tp + fp).max(1) as f64;
    let mean_active = sum_active / n_active.max(1) as f64;
    let mean_quiet = sum_quiet / n_quiet.max(1) as f64;

    // ASCII rendering: time downward (like the paper's elapsed-time
    // axis), channels across.
    println!("Figure 10: local-similarity map ('.'<0.5, '+'<thr, '#'>=thr={threshold})");
    println!("channels -->  (elapsed time downward, 1 row per 10 s)");
    for s in (0..simi.cols()).step_by(10) {
        let mut line = String::with_capacity(simi.rows());
        for ch in 0..simi.rows() {
            let v = simi.get(ch, s);
            line.push(if v >= threshold {
                '#'
            } else if v >= 0.5 {
                '+'
            } else {
                '.'
            });
        }
        println!("{line}  t={:>3}s", s);
    }

    // CSV of the full map for external plotting.
    let mut t = report::Table::new(
        "fig10 map (channel, second, similarity, truth)",
        &["channel", "second", "similarity", "event"],
    );
    for ch in 0..simi.rows() {
        for s in 0..simi.cols() {
            t.row(&[
                ch.to_string(),
                s.to_string(),
                format!("{:.4}", simi.get(ch, s)),
                (truth.get(ch, s) as u8).to_string(),
            ]);
        }
    }
    let csv = t.write_csv("fig10_map").expect("csv");

    println!("\ndetection at threshold {threshold}:");
    println!("  recall    = {recall:.2}");
    println!("  precision = {precision:.2}");
    println!("  mean similarity on event cells: {mean_active:.3}");
    println!("  mean similarity on quiet cells: {mean_quiet:.3}");
    println!("csv: {}", csv.display());
    println!("\npaper: two vehicles, a persistent vibrating source, and the M4.4");
    println!("earthquake are distinguishable — here they are injected with known");
    println!("ground truth, so separability is asserted, not eyeballed.");

    assert!(
        mean_active > mean_quiet + 0.1,
        "event cells must score visibly higher ({mean_active:.3} vs {mean_quiet:.3})"
    );
    assert!(
        recall > 0.4,
        "most event cells detected (recall {recall:.2})"
    );
    assert!(
        precision > 0.5,
        "detections mostly real (precision {precision:.2})"
    );
    json_run.finish(&[&t]);
}
