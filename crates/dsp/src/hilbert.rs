//! Analytic signal, envelope, and instantaneous phase via the Hilbert
//! transform — used to pick arrivals on DAS channels (e.g. locating the
//! earthquake onset in the Figure 10 record).

use crate::complex::Complex;
use crate::fft::{fft, ifft};

/// The analytic signal `x + i·H(x)` computed with the FFT method
/// (MATLAB `hilbert`): zero the negative frequencies, double the
/// positive ones.
pub fn analytic(x: &[f64]) -> Vec<Complex> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let buf: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
    let mut spec = fft(&buf);
    // Weights: 1 for DC (and Nyquist when n even), 2 for positive
    // frequencies, 0 for negative frequencies.
    let half = n / 2;
    for (k, s) in spec.iter_mut().enumerate() {
        if k == 0 || (n.is_multiple_of(2) && k == half) {
            // keep
        } else if k < half || (n % 2 == 1 && k <= half) {
            *s = s.scale(2.0);
        } else {
            *s = Complex::ZERO;
        }
    }
    ifft(&spec)
}

/// The signal envelope `|x + i·H(x)|`.
pub fn envelope(x: &[f64]) -> Vec<f64> {
    analytic(x).iter().map(|z| z.abs()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_part_is_preserved() {
        let x: Vec<f64> = (0..128).map(|i| ((i as f64) * 0.23).sin() + 0.4).collect();
        let a = analytic(&x);
        for (orig, z) in x.iter().zip(&a) {
            assert!((z.re - orig).abs() < 1e-9, "{} vs {}", z.re, orig);
        }
    }

    #[test]
    fn envelope_of_pure_tone_is_flat() {
        // env(sin) == 1 away from the edges.
        let n = 512;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 16.0 * i as f64 / n as f64).sin())
            .collect();
        let env = envelope(&x);
        for &e in &env[32..n - 32] {
            assert!((e - 1.0).abs() < 0.02, "envelope {e}");
        }
    }

    #[test]
    fn envelope_tracks_amplitude_modulation() {
        // sin carrier modulated by a slow raised cosine.
        let n = 1024;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                let m = 0.6 + 0.4 * (2.0 * std::f64::consts::PI * 2.0 * t).cos();
                m * (2.0 * std::f64::consts::PI * 64.0 * t).sin()
            })
            .collect();
        let env = envelope(&x);
        for i in (64..n - 64).step_by(37) {
            let t = i as f64 / n as f64;
            let m = 0.6 + 0.4 * (2.0 * std::f64::consts::PI * 2.0 * t).cos();
            assert!((env[i] - m).abs() < 0.05, "i={i}: {} vs {m}", env[i]);
        }
    }

    #[test]
    fn hilbert_of_cos_is_sin() {
        // H(cos) = sin → analytic(cos) = cos + i·sin = e^{iωt}.
        let n = 256;
        let w = 2.0 * std::f64::consts::PI * 8.0 / n as f64;
        let x: Vec<f64> = (0..n).map(|i| (w * i as f64).cos()).collect();
        let a = analytic(&x);
        for (i, z) in a.iter().enumerate().skip(8).take(n - 16) {
            let expect_im = (w * i as f64).sin();
            assert!((z.im - expect_im).abs() < 1e-6, "i={i}");
        }
    }

    #[test]
    fn odd_length_inputs_work() {
        let x: Vec<f64> = (0..101).map(|i| ((i as f64) * 0.37).sin()).collect();
        let a = analytic(&x);
        assert_eq!(a.len(), 101);
        for (orig, z) in x.iter().zip(&a) {
            assert!((z.re - orig).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_input() {
        assert!(analytic(&[]).is_empty());
        assert!(envelope(&[]).is_empty());
    }
}
