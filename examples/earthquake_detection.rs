//! Earthquake detection with local similarity — the paper's first case
//! study (§V-C, Figure 10), end to end with quantitative scoring.
//!
//! A 6-minute record containing an M4.4-like earthquake, two vehicles,
//! and a persistent vibration source is analysed with Algorithm 2; the
//! detected hot cells are checked against the generator's ground truth,
//! and each injected event is individually confirmed.
//!
//! ```sh
//! cargo run --release --example earthquake_detection
//! ```

use dasgen::{Event, Scene};
use dassa::prelude::*;

fn main() {
    let (channels, hz, duration_s) = (48usize, 50.0, 360.0);
    let scene = Scene::demo(channels, hz, duration_s, 21);
    println!("rendering {channels}-channel, {duration_s}-second scene...");
    let samples = scene.samples_for(duration_s);
    let data = scene.render(0.0, samples);

    let params = LocalSimiParams {
        half_window: 25,
        channel_offset: 1,
        search_half: 12,
        time_stride: hz as usize, // one score per second
    };
    println!("running local similarity (Algorithm 2) on 4 threads...");
    let simi = local_similarity(&data, &params, &Haee::builder().threads(4).build());

    // Per-event verification: at moments each event is active, some
    // nearby cell must score above the background.
    let background: f64 = simi.as_slice().iter().sum::<f64>() / simi.len() as f64;
    println!("background similarity: {background:.3}");
    for (i, event) in scene.events.iter().enumerate() {
        let name = match event {
            Event::Vehicle { .. } => "vehicle",
            Event::Earthquake { .. } => "earthquake",
            Event::Persistent { .. } => "persistent source",
        };
        // Scan the score grid for this event's active cells.
        let mut best: f64 = 0.0;
        let mut hits = 0usize;
        let mut active = 0usize;
        for s in 0..simi.cols() {
            let t = s as f64; // seconds (stride = hz)
            for ch in 0..simi.rows() {
                if event.is_active(t, ch as f64) {
                    active += 1;
                    let v = simi.get(ch, s);
                    best = best.max(v);
                    if v > background + 0.15 {
                        hits += 1;
                    }
                }
            }
        }
        let coverage = hits as f64 / active.max(1) as f64;
        println!(
            "event {i} ({name:18}): active cells {active:5}, peak similarity {best:.3}, \
             {:.0}% above background",
            coverage * 100.0
        );
        assert!(
            best > background + 0.2,
            "{name} must produce a clear similarity peak ({best:.3} vs bg {background:.3})"
        );
    }
    println!("all injected events detected — the Figure 10 result holds on synthetic truth");
}
