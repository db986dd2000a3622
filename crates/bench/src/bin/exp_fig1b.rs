//! Figure 1b — the paper's 6-minute DAS record illustration: "a 2D
//! array indexed by channel and time, which contains lots of noise and
//! some signals from moving cars and a M4.4 earthquake".
//!
//! We render the synthetic counterpart: an amplitude map of the record
//! (channel × time), a spectrogram of one channel, and an
//! envelope-based pick of the earthquake's arrival — validated against
//! the generator's ground truth.

use bench::{datasets, report};
use dasgen::Event;
use dassa::prelude::*;
use dsp::{envelope, spectrogram};

fn main() {
    let json_run = report::JsonRun::start("fig1b");
    let (channels, hz, minutes) = (64, 50.0, 6);
    let dir = datasets::minute_dataset("fig1b", channels, hz, minutes);
    let scene = datasets::minute_scene(channels, hz, minutes);
    let catalog = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(catalog.entries()).expect("vca");
    let data = vca.read_all_f32().expect("read");
    // the dsp helpers below take one f64 row
    let row = |ch: usize| -> Vec<f64> { data.row(ch).iter().map(|&v| f64::from(v)).collect() };

    // ---- amplitude map (the 2-D array of Figure 1b) -------------------
    println!("Figure 1b: |amplitude| map, channels across, time downward");
    println!("(' '<1, '.'<2, '+'<4, '#'>=4 — noise floor ~1)");
    let stride = (hz as usize) * 5; // one row per 5 s
    for t0 in (0..data.cols()).step_by(stride) {
        let mut line = String::with_capacity(channels);
        for ch in 0..channels {
            // Peak amplitude in this 5-second bin.
            let hi = (t0 + stride).min(data.cols());
            let peak = data.row(ch)[t0..hi]
                .iter()
                .fold(0.0f64, |m, &v| m.max(f64::from(v).abs()));
            line.push(match peak {
                p if p >= 4.0 => '#',
                p if p >= 2.0 => '+',
                p if p >= 1.0 => '.',
                _ => ' ',
            });
        }
        println!("{line}  t={:>3}s", t0 / hz as usize);
    }

    // ---- spectrogram of the channel nearest the persistent source ----
    let persistent_ch = scene
        .events
        .iter()
        .find_map(|e| match e {
            Event::Persistent { channel, .. } => Some(*channel as usize),
            _ => None,
        })
        .expect("demo scene has a persistent source");
    let spec = spectrogram(&row(persistent_ch), 128, 64);
    let dom = spec.dominant_bin();
    let dom_freq_hz = spec.bin_freq(dom) * hz / 2.0;
    println!("\nspectrogram of channel {persistent_ch} (persistent source):");
    println!(
        "  dominant bin {dom} -> {dom_freq_hz:.1} Hz  [injected: {:.1} Hz]",
        hz * 0.12
    );

    // ---- earthquake arrival pick via Hilbert envelope -----------------
    let (quake_origin_s, quake_epicenter) = scene
        .events
        .iter()
        .find_map(|e| match e {
            Event::Earthquake {
                origin_s,
                epicenter_channel,
                ..
            } => Some((*origin_s, *epicenter_channel as usize)),
            _ => None,
        })
        .expect("demo scene has an earthquake");
    let env = envelope(&row(quake_epicenter));
    // Pick: first sample whose envelope exceeds 6x the pre-event median.
    let pre: usize = (quake_origin_s * hz) as usize / 2;
    let mut baseline: Vec<f64> = env[..pre].to_vec();
    baseline.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = baseline[baseline.len() / 2];
    let pick = env
        .iter()
        .position(|&v| v > 6.0 * median)
        .map(|i| i as f64 / hz);
    println!("\nearthquake pick on epicentral channel {quake_epicenter}:");
    println!("  ground-truth origin: {quake_origin_s:.1} s");
    match pick {
        Some(t) => {
            println!("  envelope pick:       {t:.1} s");
            let err = (t - quake_origin_s).abs();
            assert!(
                err < 10.0,
                "pick error {err:.1}s too large (origin {quake_origin_s}, pick {t})"
            );
            println!("  pick error:          {err:.1} s  (events before origin are vehicles)");
        }
        None => panic!("earthquake not visible in the envelope"),
    }

    // CSV: per-channel, per-5s peak amplitudes for external plotting.
    let mut t = report::Table::new("fig1b amplitude bins", &["channel", "t_bin_s", "peak"]);
    for ch in 0..channels {
        for (bi, t0) in (0..data.cols()).step_by(stride).enumerate() {
            let hi = (t0 + stride).min(data.cols());
            let peak = data.row(ch)[t0..hi]
                .iter()
                .fold(0.0f64, |m, &v| m.max(f64::from(v).abs()));
            t.row(&[ch.to_string(), (bi * 5).to_string(), format!("{peak:.3}")]);
        }
    }
    let csv = t.write_csv("fig1b_map").expect("csv");
    println!("\ncsv: {}", csv.display());
    println!("paper: vehicles and the M4.4 earthquake are visible in the raw record —");
    println!("here the same structures appear and the quake onset is picked within seconds.");
    json_run.finish(&[&t]);
}
