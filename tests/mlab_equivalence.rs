//! The mlab baseline and the native DASSA pipeline must agree
//! numerically: Figure 9's comparison is only meaningful if both sides
//! compute the same thing (they share the DasLib kernels underneath).

use arrayudf::Array2;
use dassa::prelude::*;
use mlab::{Interp, Value};

fn test_data(channels: usize, samples: usize) -> Array2<f64> {
    Array2::from_fn(channels, samples, |c, t| {
        let tt = t as f64;
        (0.04 * (tt - c as f64 * 3.0)).sin() + 0.3 * (0.017 * tt + c as f64 * 0.5).cos()
    })
}

#[test]
fn interferometry_pipeline_matches_native_bitwise_tolerance() {
    let data = test_data(10, 800);
    let params = InterferometryParams {
        filter_order: 4,
        band: (0.01, 0.4),
        resample_p: 1,
        resample_q: 2,
        master_channel: 0,
    };
    let haee = Haee::builder().threads(2).build();
    let native = dasa::run(&Analysis::Interferometry(params), &data, &haee).expect("native");
    let native = native.as_scores().expect("one score per channel").to_vec();

    let mut interp = Interp::new();
    interp.set(
        "data",
        Value::Matrix {
            rows: data.rows(),
            cols: data.cols(),
            data: data.as_slice().to_vec(),
        },
    );
    interp.set("nch", Value::Num(data.rows() as f64));
    interp
        .run(
            "[b, a] = butter(4, [0.01 0.4]);
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
             end",
        )
        .expect("script");
    let scores = match interp.get("scores").expect("scores") {
        Value::Matrix { data, .. } => data.clone(),
        other => panic!("unexpected value {other:?}"),
    };
    assert_eq!(scores.len(), native.len());
    for (ch, (m, n)) in scores.iter().zip(&native).enumerate() {
        assert!((m - n).abs() < 1e-9, "channel {ch}: mlab {m} vs native {n}");
    }
}

#[test]
fn individual_kernels_match_through_the_interpreter() {
    // Each Table II operation, called from script vs called natively.
    let x: Vec<f64> = (0..256)
        .map(|i| (i as f64 * 0.1).sin() + i as f64 * 0.01)
        .collect();
    let mut interp = Interp::new();
    interp.set("x", Value::row(x.clone()));
    interp
        .run(
            "d = detrend(x);
             [b, a] = butter(3, 0.35);
             f = filtfilt(b, a, x);
             r = resample(x, 2, 3);
             s = abs(fft(x));
             c = abscorr(x, d);",
        )
        .expect("kernel script");

    let get = |name: &str| -> Vec<f64> {
        match interp.get(name).expect(name) {
            Value::Matrix { data, .. } => data.clone(),
            Value::Num(v) => vec![*v],
            other => panic!("{other:?}"),
        }
    };

    let close = |a: &[f64], b: &[f64]| {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    };

    close(&get("d"), &dsp::detrend(&x));
    let (bb, aa) = dsp::butter(3, dsp::FilterBand::Lowpass(0.35));
    close(&get("f"), &dsp::filtfilt(&bb, &aa, &x));
    close(&get("r"), &dsp::resample(&x, 2, 3));
    let spec: Vec<f64> = dsp::fft_real(&x).iter().map(|z| z.abs()).collect();
    close(&get("s"), &spec);
    close(&get("c"), &[dsp::abscorr(&x, &dsp::detrend(&x))]);
}

#[test]
fn interpreter_overhead_exists_but_results_do_not_drift() {
    // Run the same reduction 50 times through the interpreter; the
    // result must be identical every time (determinism of the baseline).
    let mut first = None;
    for _ in 0..50 {
        let mut i = Interp::new();
        i.run("v = 1:1000; s = sum(v .* v);").expect("run");
        let s = i.get_scalar("s").expect("scalar");
        match first {
            None => first = Some(s),
            Some(f) => assert_eq!(f, s),
        }
    }
    assert_eq!(first, Some(333_833_500.0));
}
