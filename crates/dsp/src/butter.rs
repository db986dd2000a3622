//! Butterworth IIR filter design — the paper's `Das_butter(n, fc)`.
//!
//! Classic design chain, matching MATLAB/scipy semantics:
//! analog lowpass prototype → frequency transform (lp/hp/bp) → bilinear
//! transform → transfer-function coefficients `(b, a)`.
//! Cutoffs are normalized to the Nyquist frequency (range `0..1`), as in
//! MATLAB's `butter(n, Wn)`.

use crate::complex::{poly_from_roots, Complex};

/// The highest order a caller that takes the order from outside the
/// program (a `dasl` source line, a request, a parameter file) should
/// hand to [`butter`].
///
/// `butter` returns the transfer-function form `(b, a)` — a polynomial
/// expanded from its roots — and that form loses the roots as the order
/// grows: on a grid of bandpass designs with corners at multiples of
/// 0.05 of Nyquist, all 171 bands are stable filters through order 7, two
/// narrow ones fail at 8, a third of them by 16, half by 20, and the
/// 0.5–24 Hz band of the interferometry pipeline (0.002–0.096 of Nyquist,
/// off that grid) is gone at 5; at
/// order 512 `a[1]` is −927, and somewhere before 2048 the coefficients
/// stop being finite. Design cost grows with the square of the order as
/// well (38 ms at 512). 8 keeps every band of practical width and bounds
/// a bandpass at 17 coefficients, the state
/// [`FiltFilt`](crate::filter::FiltFilt) carries per lane.
///
/// `butter` itself does not enforce it: the MATLAB function takes any
/// order.
pub const MAX_ORDER: usize = 8;

/// Filter band specification with normalized cutoff(s) in `(0, 1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterBand {
    /// Keep frequencies below the cutoff.
    Lowpass(f64),
    /// Keep frequencies above the cutoff.
    Highpass(f64),
    /// Keep frequencies between `(low, high)`.
    Bandpass(f64, f64),
}

/// Zeros, poles, gain.
#[derive(Debug, Clone)]
struct Zpk {
    z: Vec<Complex>,
    p: Vec<Complex>,
    k: f64,
}

/// Analog Butterworth lowpass prototype of order `n`: poles evenly spaced
/// on the left half of the unit circle, unit gain, no zeros.
fn prototype(n: usize) -> Zpk {
    let p: Vec<Complex> = (0..n)
        .map(|k| {
            let theta = std::f64::consts::PI * (2.0 * k as f64 + n as f64 + 1.0) / (2.0 * n as f64);
            Complex::cis(theta)
        })
        .collect();
    Zpk {
        z: Vec::new(),
        p,
        k: 1.0,
    }
}

/// Lowpass prototype → lowpass at analog frequency `wo`.
fn lp2lp(zpk: Zpk, wo: f64) -> Zpk {
    let degree = zpk.p.len() - zpk.z.len();
    Zpk {
        z: zpk.z.into_iter().map(|z| z.scale(wo)).collect(),
        p: zpk.p.into_iter().map(|p| p.scale(wo)).collect(),
        k: zpk.k * wo.powi(degree as i32),
    }
}

/// Lowpass prototype → highpass at analog frequency `wo`.
fn lp2hp(zpk: Zpk, wo: f64) -> Zpk {
    let degree = zpk.p.len() - zpk.z.len();
    // k' = k · Re(Π(−z) / Π(−p)).
    let prod_z = zpk.z.iter().fold(Complex::ONE, |acc, &z| acc * (-z));
    let prod_p = zpk.p.iter().fold(Complex::ONE, |acc, &p| acc * (-p));
    let k = zpk.k * (prod_z / prod_p).re;
    let mut z: Vec<Complex> = zpk.z.iter().map(|&zz| Complex::real(wo) / zz).collect();
    z.extend(std::iter::repeat_n(Complex::ZERO, degree));
    let p = zpk.p.iter().map(|&pp| Complex::real(wo) / pp).collect();
    Zpk { z, p, k }
}

/// Lowpass prototype → bandpass with center `wo` and bandwidth `bw`.
fn lp2bp(zpk: Zpk, wo: f64, bw: f64) -> Zpk {
    let degree = zpk.p.len() - zpk.z.len();
    let transform = |roots: &[Complex]| -> Vec<Complex> {
        let mut out = Vec::with_capacity(roots.len() * 2);
        for &r in roots {
            let rs = r.scale(bw / 2.0);
            let disc = (rs * rs - Complex::real(wo * wo)).sqrt();
            out.push(rs + disc);
            out.push(rs - disc);
        }
        out
    };
    let mut z = transform(&zpk.z);
    z.extend(std::iter::repeat_n(Complex::ZERO, degree));
    let p = transform(&zpk.p);
    Zpk {
        z,
        p,
        k: zpk.k * bw.powi(degree as i32),
    }
}

/// Bilinear transform at sample rate `fs` (zeros at infinity → z = −1).
fn bilinear(zpk: Zpk, fs: f64) -> Zpk {
    let fs2 = Complex::real(2.0 * fs);
    let degree = zpk.p.len() - zpk.z.len();
    // Gain correction: k · Re(Π(fs2 − z) / Π(fs2 − p)).
    let prod_z = zpk.z.iter().fold(Complex::ONE, |acc, &z| acc * (fs2 - z));
    let prod_p = zpk.p.iter().fold(Complex::ONE, |acc, &p| acc * (fs2 - p));
    let k = zpk.k * (prod_z / prod_p).re;
    let mut z: Vec<Complex> = zpk.z.iter().map(|&zz| (fs2 + zz) / (fs2 - zz)).collect();
    z.extend(std::iter::repeat_n(Complex::real(-1.0), degree));
    let p = zpk.p.iter().map(|&pp| (fs2 + pp) / (fs2 - pp)).collect();
    Zpk { z, p, k }
}

/// Zeros/poles/gain → transfer-function coefficients `(b, a)`.
fn zpk2tf(zpk: &Zpk) -> (Vec<f64>, Vec<f64>) {
    let b: Vec<f64> = poly_from_roots(&zpk.z)
        .into_iter()
        .map(|c| c.re * zpk.k)
        .collect();
    let a: Vec<f64> = poly_from_roots(&zpk.p).into_iter().map(|c| c.re).collect();
    (b, a)
}

/// Design an order-`n` digital Butterworth filter.
///
/// Returns `(b, a)` coefficient vectors usable with
/// [`crate::filter::lfilter`] / [`crate::filter::filtfilt`]. Cutoffs are
/// fractions of Nyquist, e.g. `Lowpass(0.2)` on 500 Hz data cuts at
/// 50 Hz.
///
/// # Panics
/// Panics when `n == 0` or any cutoff lies outside `(0, 1)` (or
/// `low >= high` for bandpass) — invalid designs, as in MATLAB.
pub fn butter(n: usize, band: FilterBand) -> (Vec<f64>, Vec<f64>) {
    assert!(n >= 1, "filter order must be >= 1");
    let check = |w: f64| {
        assert!(
            w > 0.0 && w < 1.0,
            "normalized cutoff must lie in (0,1), got {w}"
        );
    };
    // Design at the scipy convention fs = 2 (Nyquist = 1).
    let fs = 2.0;
    let warp = |w: f64| 2.0 * fs * (std::f64::consts::PI * w / fs).tan();
    let proto = prototype(n);
    let analog = match band {
        FilterBand::Lowpass(w) => {
            check(w);
            lp2lp(proto, warp(w))
        }
        FilterBand::Highpass(w) => {
            check(w);
            lp2hp(proto, warp(w))
        }
        FilterBand::Bandpass(lo, hi) => {
            check(lo);
            check(hi);
            assert!(lo < hi, "bandpass requires low < high");
            let (w1, w2) = (warp(lo), warp(hi));
            lp2bp(proto, (w1 * w2).sqrt(), w2 - w1)
        }
    };
    let digital = bilinear(analog, fs);
    zpk2tf(&digital)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// |H(e^{jω})| from (b, a) at normalized frequency `w` (×π rad).
    fn mag_response(b: &[f64], a: &[f64], w: f64) -> f64 {
        let z = Complex::cis(-std::f64::consts::PI * w);
        let eval = |c: &[f64]| {
            let mut acc = Complex::ZERO;
            let mut zp = Complex::ONE;
            for &coeff in c {
                acc += zp.scale(coeff);
                zp *= z;
            }
            acc
        };
        (eval(b) / eval(a)).abs()
    }

    #[test]
    fn lowpass_gain_structure() {
        for n in [2usize, 4, 6] {
            let (b, a) = butter(n, FilterBand::Lowpass(0.3));
            assert_eq!(b.len(), n + 1);
            assert_eq!(a.len(), n + 1);
            assert!((mag_response(&b, &a, 0.0) - 1.0).abs() < 1e-9, "DC gain");
            let cut = mag_response(&b, &a, 0.3);
            assert!(
                (cut - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6,
                "−3 dB at cutoff, got {cut}"
            );
            assert!(mag_response(&b, &a, 0.9) < 0.01, "stopband");
        }
    }

    #[test]
    fn highpass_gain_structure() {
        let (b, a) = butter(4, FilterBand::Highpass(0.4));
        assert!(mag_response(&b, &a, 0.0) < 1e-9, "DC blocked");
        assert!(
            (mag_response(&b, &a, 1.0 - 1e-9) - 1.0).abs() < 1e-6,
            "Nyquist passed"
        );
        let cut = mag_response(&b, &a, 0.4);
        assert!((cut - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6);
    }

    #[test]
    fn bandpass_gain_structure() {
        let (b, a) = butter(3, FilterBand::Bandpass(0.2, 0.5));
        // Order doubles for bandpass.
        assert_eq!(a.len(), 7);
        assert!(mag_response(&b, &a, 0.0) < 1e-9);
        assert!(mag_response(&b, &a, 0.99) < 1e-2);
        let lo = mag_response(&b, &a, 0.2);
        let hi = mag_response(&b, &a, 0.5);
        assert!(
            (lo - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6,
            "low edge {lo}"
        );
        assert!(
            (hi - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-6,
            "high edge {hi}"
        );
        // Interior of the passband near unity.
        let mid = mag_response(&b, &a, 0.33);
        assert!(mid > 0.95, "passband sag: {mid}");
    }

    #[test]
    fn monotonic_rolloff() {
        // Butterworth is maximally flat: response decreases monotonically
        // past the cutoff.
        let (b, a) = butter(5, FilterBand::Lowpass(0.25));
        let mut prev = f64::INFINITY;
        for i in 0..20 {
            let w = 0.25 + 0.7 * i as f64 / 20.0;
            let m = mag_response(&b, &a, w);
            assert!(m <= prev + 1e-12, "non-monotonic at w={w}");
            prev = m;
        }
    }

    #[test]
    fn known_order1_lowpass_coefficients() {
        // butter(1, 0.5) in MATLAB: b = [0.5 0.5], a = [1 0].
        let (b, a) = butter(1, FilterBand::Lowpass(0.5));
        assert!((b[0] - 0.5).abs() < 1e-12);
        assert!((b[1] - 0.5).abs() < 1e-12);
        assert!((a[0] - 1.0).abs() < 1e-12);
        assert!(a[1].abs() < 1e-12);
    }

    #[test]
    fn known_order2_lowpass_coefficients() {
        // MATLAB: [b,a] = butter(2, 0.4)
        // b ≈ [0.20657  0.41314  0.20657], a ≈ [1  -0.36953  0.19582]
        let (b, a) = butter(2, FilterBand::Lowpass(0.4));
        let expect_b = [0.206572083826148, 0.413144167652296, 0.206572083826148];
        let expect_a = [1.0, -0.369527377351241, 0.195815712655833];
        for (x, e) in b.iter().zip(&expect_b) {
            assert!((x - e).abs() < 1e-9, "b: {x} vs {e}");
        }
        for (x, e) in a.iter().zip(&expect_a) {
            assert!((x - e).abs() < 1e-9, "a: {x} vs {e}");
        }
    }

    #[test]
    fn a0_is_always_one() {
        for band in [
            FilterBand::Lowpass(0.1),
            FilterBand::Highpass(0.7),
            FilterBand::Bandpass(0.1, 0.6),
        ] {
            let (_, a) = butter(4, band);
            assert!((a[0] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "normalized cutoff")]
    fn rejects_cutoff_above_nyquist() {
        butter(2, FilterBand::Lowpass(1.5));
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn rejects_inverted_band() {
        butter(2, FilterBand::Bandpass(0.6, 0.2));
    }
}
