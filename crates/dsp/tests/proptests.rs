//! Property tests for the DasLib kernels: invariants that must hold for
//! arbitrary signals, not just hand-picked ones.

use dsp::{
    abscorr, butter, detrend, detrend_constant, fft, fft_real, filtfilt, ifft, interp1, resample,
    xcorr_direct, xcorr_fft, Complex, CorrMode, FilterBand,
};
use proptest::prelude::*;

fn signal(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3f64..1e3, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Random lengths up to 4096 land on every engine: radix passes,
    // Bluestein, and the half-length real path for the even ones.
    #[test]
    fn fft_ifft_round_trip(x in signal(4096)) {
        let cx: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
        let back = ifft(&fft(&cx));
        for (a, b) in back.iter().zip(&cx) {
            prop_assert!((*a - *b).abs() < 1e-6 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn fft_parseval(x in signal(4096)) {
        let spec = fft_real(&x);
        let t: f64 = x.iter().map(|v| v * v).sum();
        let f: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        prop_assert!((t - f).abs() < 1e-6 * (1.0 + t));
    }

    #[test]
    fn detrend_is_idempotent(x in signal(128)) {
        let once = detrend(&x);
        let twice = detrend(&once);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn detrend_constant_zero_mean(x in signal(128)) {
        let y = detrend_constant(&x);
        let mean = y.iter().sum::<f64>() / y.len() as f64;
        prop_assert!(mean.abs() < 1e-8 * (1.0 + x.iter().map(|v| v.abs()).fold(0.0, f64::max)));
    }

    #[test]
    fn abscorr_in_unit_interval(
        x in prop::collection::vec(-1e3f64..1e3, 4..64),
        seed in 0u64..1000,
    ) {
        // Build y the same length as x from the seed.
        let y: Vec<f64> = x.iter().enumerate()
            .map(|(i, &v)| v * ((seed + i as u64) % 7) as f64 - (seed % 13) as f64)
            .collect();
        let c = abscorr(&x, &y);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&c), "abscorr={c}");
    }

    #[test]
    fn abscorr_symmetric(x in prop::collection::vec(-10f64..10.0, 4..32)) {
        let y: Vec<f64> = x.iter().rev().cloned().collect();
        prop_assert!((abscorr(&x, &y) - abscorr(&y, &x)).abs() < 1e-12);
    }

    #[test]
    fn xcorr_fft_equals_direct(
        x in prop::collection::vec(-10f64..10.0, 1..48),
        y in prop::collection::vec(-10f64..10.0, 1..48),
    ) {
        let f = xcorr_fft(&x, &y, CorrMode::Full);
        let d = xcorr_direct(&x, &y);
        prop_assert_eq!(f.len(), d.len());
        for (a, b) in f.iter().zip(&d) {
            prop_assert!((a - b).abs() < 1e-6, "{} vs {}", a, b);
        }
    }

    #[test]
    fn filtfilt_output_length_matches(x in prop::collection::vec(-10f64..10.0, 40..200)) {
        let (b, a) = butter(3, FilterBand::Lowpass(0.4));
        let y = filtfilt(&b, &a, &x);
        prop_assert_eq!(y.len(), x.len());
        prop_assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn filtfilt_linear(x in prop::collection::vec(-10f64..10.0, 40..150)) {
        // filtfilt(αx) = α·filtfilt(x)
        let (b, a) = butter(2, FilterBand::Lowpass(0.3));
        let y1 = filtfilt(&b, &a, &x);
        let scaled: Vec<f64> = x.iter().map(|v| v * 3.0).collect();
        let y3 = filtfilt(&b, &a, &scaled);
        for (u, v) in y1.iter().zip(&y3) {
            prop_assert!((3.0 * u - v).abs() < 1e-6 * (1.0 + v.abs()));
        }
    }

    #[test]
    fn resample_length_formula(len in 1usize..400, p in 1usize..6, q in 1usize..6) {
        let x = vec![1.0; len];
        let y = resample(&x, p, q);
        prop_assert_eq!(y.len(), (len * p).div_ceil(q));
    }

    #[test]
    fn interp1_between_knot_bounds(
        ys in prop::collection::vec(-100f64..100.0, 2..20),
        t in 0f64..1.0,
    ) {
        let xs: Vec<f64> = (0..ys.len()).map(|i| i as f64).collect();
        let q = t * (ys.len() - 1) as f64;
        let v = interp1(&xs, &ys, &[q])[0];
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{v} outside [{lo}, {hi}]");
    }

    #[test]
    fn butter_is_stable(n in 1usize..8, w_milli in 50usize..950) {
        // All poles of the designed filter must lie inside the unit
        // circle; verify indirectly: the impulse response must decay.
        let w = w_milli as f64 / 1000.0;
        let (b, a) = butter(n, FilterBand::Lowpass(w));
        let mut impulse = vec![0.0; 512];
        impulse[0] = 1.0;
        let h = dsp::lfilter(&b, &a, &impulse);
        let head: f64 = h[..256].iter().map(|v| v.abs()).sum();
        let tail: f64 = h[256..].iter().map(|v| v.abs()).sum();
        prop_assert!(tail < head.max(1e-12), "unstable: head={head} tail={tail}");
        prop_assert!(h.iter().all(|v| v.is_finite()));
    }
}
