//! Window functions used by resampling and spectral pre-processing.

use std::f64::consts::PI;

/// Periodic-symmetric Hann window of length `n` (MATLAB `hann(n)`).
pub fn hann(n: usize) -> Vec<f64> {
    symmetric_cosine(n, 0.5, 0.5)
}

fn symmetric_cosine(n: usize, a0: f64, a1: f64) -> Vec<f64> {
    match n {
        0 => Vec::new(),
        1 => vec![1.0],
        _ => (0..n)
            .map(|i| a0 - a1 * (2.0 * PI * i as f64 / (n - 1) as f64).cos())
            .collect(),
    }
}

/// Modified Bessel function of the first kind, order 0 — power series,
/// converges quickly for the β values Kaiser windows use.
fn bessel_i0(x: f64) -> f64 {
    let mut sum = 1.0;
    let mut term = 1.0;
    let half_x = x / 2.0;
    for k in 1..64 {
        term *= (half_x / k as f64) * (half_x / k as f64);
        sum += term;
        if term < sum * 1e-16 {
            break;
        }
    }
    sum
}

/// Kaiser window of length `n` with shape parameter `beta`
/// (MATLAB `kaiser(n, beta)`). Used by [`crate::resample`]'s anti-alias
/// FIR design.
pub fn kaiser(n: usize, beta: f64) -> Vec<f64> {
    match n {
        0 => Vec::new(),
        1 => vec![1.0],
        _ => {
            let denom = bessel_i0(beta);
            let m = (n - 1) as f64;
            (0..n)
                .map(|i| {
                    let r = 2.0 * i as f64 / m - 1.0;
                    bessel_i0(beta * (1.0 - r * r).max(0.0).sqrt()) / denom
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hann_endpoints_and_peak() {
        let w = hann(65);
        assert!(w[0].abs() < 1e-12);
        assert!(w[64].abs() < 1e-12);
        assert!((w[32] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windows_are_symmetric() {
        for w in [hann(32), hann(33), kaiser(40, 5.0), kaiser(25, 3.0)] {
            let n = w.len();
            for i in 0..n / 2 {
                assert!((w[i] - w[n - 1 - i]).abs() < 1e-12, "asymmetry at {i}");
            }
        }
    }

    #[test]
    fn kaiser_beta_zero_is_rectangular() {
        for v in kaiser(16, 0.0) {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn kaiser_peak_is_one() {
        let w = kaiser(21, 6.0);
        assert!((w[10] - 1.0).abs() < 1e-12);
        assert!(w[0] < 0.02);
    }

    #[test]
    fn bessel_i0_known_values() {
        assert!((bessel_i0(0.0) - 1.0).abs() < 1e-15);
        // I0(1) ≈ 1.2660658777520084
        assert!((bessel_i0(1.0) - 1.2660658777520084).abs() < 1e-12);
        // I0(5) ≈ 27.239871823604442
        assert!((bessel_i0(5.0) - 27.239871823604442).abs() < 1e-9);
    }

    #[test]
    fn degenerate_lengths() {
        assert!(hann(0).is_empty());
        assert_eq!(hann(1), vec![1.0]);
        assert_eq!(kaiser(1, 3.0), vec![1.0]);
    }
}
