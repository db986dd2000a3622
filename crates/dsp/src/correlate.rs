//! Correlation kernels.
//!
//! `Das_abscorr(c1, c2)` is the workhorse of both DASSA case studies: the
//! paper's Table II defines it as `|cos(θ(c1, c2))|` — the absolute value
//! of the normalized inner product. The cross-correlation of
//! ambient-noise interferometry is computed in the frequency domain via
//! [`xcorr_fft`].

use crate::complex::Complex;
use crate::fft::{next_fast_len, plan};

/// Absolute normalized correlation `|cos θ| = |⟨c1, c2⟩| / (‖c1‖·‖c2‖)`.
///
/// Returns 0 when either input has zero energy (instead of NaN), so
/// all-quiet DAS windows score as "no similarity" rather than poisoning
/// downstream maxima.
///
/// # Panics
/// Panics when lengths differ.
pub fn abscorr(c1: &[f64], c2: &[f64]) -> f64 {
    abscorr_with_energy(c1, energy(c1), c2)
}

/// `‖c‖² = Σ c[i]²`, summed in index order.
pub fn energy(c: &[f64]) -> f64 {
    c.iter().fold(0.0, |acc, &v| acc + v * v)
}

/// [`abscorr`] for a caller that correlates one window `c1` against many
/// and computed `n1 = energy(c1)` once; the same bits as `abscorr`.
///
/// # Panics
/// Panics when lengths differ.
pub fn abscorr_with_energy(c1: &[f64], n1: f64, c2: &[f64]) -> f64 {
    assert_eq!(c1.len(), c2.len(), "abscorr requires equal-length windows");
    let mut dot = 0.0;
    let mut n2 = 0.0;
    for (&a, &b) in c1.iter().zip(c2) {
        dot += a * b;
        n2 += b * b;
    }
    if n1 == 0.0 || n2 == 0.0 {
        return 0.0;
    }
    (dot / (n1 * n2).sqrt()).abs()
}

/// Complex-spectrum variant used by the interferometry UDF after
/// `Das_fft`: `|⟨S1, S2⟩| / (‖S1‖·‖S2‖)` with the Hermitian inner
/// product.
pub fn abscorr_complex(s1: &[Complex], s2: &[Complex]) -> f64 {
    assert_eq!(s1.len(), s2.len(), "abscorr requires equal-length spectra");
    let mut dot = Complex::ZERO;
    let mut n1 = 0.0;
    let mut n2 = 0.0;
    for (&a, &b) in s1.iter().zip(s2) {
        dot += a * b.conj();
        n1 += a.norm_sqr();
        n2 += b.norm_sqr();
    }
    if n1 == 0.0 || n2 == 0.0 {
        return 0.0;
    }
    dot.abs() / (n1 * n2).sqrt()
}

/// Lag range convention for [`xcorr_fft`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrMode {
    /// All `2·n − 1` lags, like MATLAB `xcorr`: index `k` is lag
    /// `k − (n−1)` for equal-length inputs of length `n`.
    Full,
}

/// Cross-correlation `r[k] = Σ x[i] · y[i + k]` computed via FFT.
///
/// This is the frequency-domain path DASSA uses for the ambient-noise
/// cross-correlation: `IFFT(FFT(x)* · FFT(y))`, zero-padded to a fast
/// length that avoids circular wrap-around. Both inputs and the result
/// are real, so it is two real-input transforms and one real-output
/// inverse through one plan.
pub fn xcorr_fft(x: &[f64], y: &[f64], _mode: CorrMode) -> Vec<f64> {
    if x.is_empty() || y.is_empty() {
        return Vec::new();
    }
    let full = x.len() + y.len() - 1;
    let m = next_fast_len(full);
    let plan = plan(m);
    let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
    let mut padded = vec![0.0; m];
    let mut spectrum = |signal: &[f64]| {
        padded[..signal.len()].copy_from_slice(signal);
        padded[signal.len()..].fill(0.0);
        let mut spec = vec![Complex::ZERO; m];
        plan.forward_real_into(&padded, &mut spec, &mut scratch);
        spec
    };
    let (mut sx, sy) = (spectrum(x), spectrum(y));
    for (a, &b) in sx.iter_mut().zip(&sy) {
        *a = a.conj() * b;
    }
    plan.inverse_real_into(&sx, &mut padded, &mut scratch);
    // Unwrap circular layout: negative lags live at the tail.
    let mut out = Vec::with_capacity(full);
    out.extend_from_slice(&padded[m - (x.len() - 1)..]);
    out.extend_from_slice(&padded[..y.len()]);
    out
}

/// Direct O(n²) cross-correlation; reference implementation used in
/// tests and for very short windows.
pub fn xcorr_direct(x: &[f64], y: &[f64]) -> Vec<f64> {
    if x.is_empty() || y.is_empty() {
        return Vec::new();
    }
    let n_neg = x.len() as isize - 1;
    let n_pos = y.len() as isize - 1;
    (-n_neg..=n_pos)
        .map(|lag| {
            let mut acc = 0.0;
            for i in 0..x.len() as isize {
                let j = i + lag;
                if j >= 0 && j < y.len() as isize {
                    acc += x[i as usize] * y[j as usize];
                }
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abscorr_identical_is_one() {
        let x = [1.0, -2.0, 3.0, 0.5];
        assert!((abscorr(&x, &x) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn abscorr_negated_is_one() {
        // Absolute value: anti-correlated windows score 1.
        let x = [1.0, -2.0, 3.0];
        let y = [-1.0, 2.0, -3.0];
        assert!((abscorr(&x, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn abscorr_orthogonal_is_zero() {
        let x = [1.0, 0.0, -1.0, 0.0];
        let y = [0.0, 1.0, 0.0, -1.0];
        assert!(abscorr(&x, &y).abs() < 1e-12);
    }

    #[test]
    fn abscorr_zero_energy_is_zero() {
        assert_eq!(abscorr(&[0.0; 4], &[1.0, 2.0, 3.0, 4.0]), 0.0);
        assert_eq!(abscorr(&[1.0; 4], &[0.0; 4]), 0.0);
    }

    #[test]
    fn abscorr_bounded_by_one() {
        let x = [0.3, 1.7, -0.4, 2.2, -1.1];
        let y = [1.0, 0.2, 0.9, -0.5, 0.7];
        let c = abscorr(&x, &y);
        assert!((0.0..=1.0 + 1e-12).contains(&c));
    }

    #[test]
    fn abscorr_scale_invariant() {
        let x = [1.0, 2.0, 3.0];
        let y = [0.5, -1.0, 2.0];
        let scaled: Vec<f64> = y.iter().map(|v| v * 42.0).collect();
        assert!((abscorr(&x, &y) - abscorr(&x, &scaled)).abs() < 1e-12);
    }

    #[test]
    fn complex_abscorr_matches_real_for_real_input() {
        let x = [1.0, -0.5, 2.0, 0.25];
        let y = [0.5, 1.5, -1.0, 0.75];
        let cx: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
        let cy: Vec<Complex> = y.iter().map(|&v| Complex::real(v)).collect();
        assert!((abscorr(&x, &y) - abscorr_complex(&cx, &cy)).abs() < 1e-12);
    }

    #[test]
    fn xcorr_fft_matches_direct() {
        let x = [1.0, 2.0, -1.0, 0.5, 3.0];
        let y = [0.5, -0.25, 1.0];
        let f = xcorr_fft(&x, &y, CorrMode::Full);
        let d = xcorr_direct(&x, &y);
        assert_eq!(f.len(), d.len());
        for (a, b) in f.iter().zip(&d) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn xcorr_autocorr_peak_at_zero_lag() {
        let x: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.71).sin()).collect();
        let r = xcorr_fft(&x, &x, CorrMode::Full);
        let zero_lag = x.len() - 1;
        let peak = r
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, zero_lag);
        let energy: f64 = x.iter().map(|v| v * v).sum();
        assert!((r[zero_lag] - energy).abs() < 1e-9);
    }

    #[test]
    fn xcorr_detects_known_shift() {
        // y is x delayed by 7 samples: peak at lag +7.
        let n = 128;
        let x: Vec<f64> = (0..n).map(|i| ((i * i % 37) as f64) - 18.0).collect();
        let mut y = vec![0.0; n];
        y[7..n].copy_from_slice(&x[..n - 7]);
        let r = xcorr_fft(&x, &y, CorrMode::Full);
        let peak = r
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0 as isize
            - (n as isize - 1);
        assert_eq!(peak, 7);
    }

    #[test]
    fn xcorr_empty() {
        assert!(xcorr_fft(&[], &[1.0], CorrMode::Full).is_empty());
        assert!(xcorr_direct(&[], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn abscorr_length_mismatch_panics() {
        abscorr(&[1.0], &[1.0, 2.0]);
    }
}
