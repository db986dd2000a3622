//! Correlation kernels.
//!
//! `Das_abscorr(c1, c2)` is the workhorse of both DASSA case studies: the
//! paper's Table II defines it as `|cos(θ(c1, c2))|` — the absolute value
//! of the normalized inner product. The cross-correlation of
//! ambient-noise interferometry is computed in the frequency domain via
//! [`xcorr_fft`].

use crate::complex::Complex;
use crate::fft::{next_fast_len, plan};
use crate::tier;

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
    cos_theta(dot, n1, n2)
}

/// `|dot| / √(n1·n2)`, or 0 when either window has no energy.
fn cos_theta(dot: f64, n1: f64, n2: f64) -> f64 {
    if n1 == 0.0 || n2 == 0.0 {
        return 0.0;
    }
    (dot / (n1 * n2).sqrt()).abs()
}

/// Lagged windows [`max_abscorr_lags`] sums side by side: two
/// accumulators a lag, so eight lags are the sixteen registers' worth.
const LAGS: usize = 8;

/// The lags of one accumulator array: [`LAGS`] run as two halves of
/// four, each half one 256-bit vector on the AVX2 tier.
const HALF: usize = LAGS / 2;

/// The largest [`abscorr_with_energy`]`(c1, n1, window)` over every
/// window of `c1.len()` consecutive samples of `span` — the lag search
/// of local similarity, whose `2L+1` lagged windows of a neighbouring
/// channel are one contiguous span. At least 0, the score of a window
/// with no energy; a NaN score never wins.
///
/// A window's `dot` and `n2` are each one sequential sum, but the sums of
/// different lags are independent, so eight neighbouring lags run
/// through one loop, each keeping its own pair in index order: every
/// score has the bits `abscorr_with_energy` gives it, on either
/// instruction-set tier. When the lag count is not a multiple of eight
/// the last group overlaps the one before it (a score met twice does not
/// change a maximum); fewer than eight lags are scored one at a time.
///
/// # Panics
/// Panics when `span` is shorter than `c1`.
pub fn max_abscorr_lags(c1: &[f64], n1: f64, span: &[f64]) -> f64 {
    assert!(
        span.len() >= c1.len(),
        "max_abscorr_lags requires a span at least one window long"
    );
    let lags = span.len() - c1.len() + 1;
    if lags < LAGS {
        let mut best = 0.0f64;
        for lag in 0..lags {
            best = best.max(abscorr_with_energy(c1, n1, &span[lag..lag + c1.len()]));
        }
        return best;
    }
    tier::run(LagGroups { c1, n1, span })
}

/// [`max_abscorr_lags`] over at least [`LAGS`] lags, a group of eight at
/// a time, as a [`tier::Kernel`]. Sample `i` of the window meets
/// `span[lag + i..][..8]`, whose two halves feed the two `[f64; 4]`
/// halves of the `dot` and of the `n2` accumulators, one accumulator
/// array after the other: fixed-size arrays the compiler keeps in vector
/// registers on either tier.
struct LagGroups<'a> {
    c1: &'a [f64],
    n1: f64,
    span: &'a [f64],
}

impl tier::Kernel for LagGroups<'_> {
    type Output = f64;

    #[inline(always)]
    fn run<const WIDE: bool>(self) -> f64 {
        let LagGroups { c1, n1, span } = self;
        let last = span.len() - c1.len() + 1 - LAGS;
        let mut best = 0.0f64;
        for lag in (0..last).step_by(LAGS).chain([last]) {
            let (mut dot, mut n2) = ([[0.0; HALF]; 2], [[0.0; HALF]; 2]);
            for (&a, lagged) in c1.iter().zip(span[lag..].windows(LAGS)) {
                let (halves, _) = lagged.as_chunks::<HALF>();
                for (dot, b) in dot.iter_mut().zip(halves) {
                    for lane in 0..HALF {
                        dot[lane] += a * b[lane];
                    }
                }
                for (n2, b) in n2.iter_mut().zip(halves) {
                    for lane in 0..HALF {
                        n2[lane] += b[lane] * b[lane];
                    }
                }
            }
            for (dot, n2) in dot.iter().zip(&n2) {
                for lane in 0..HALF {
                    best = best.max(cos_theta(dot[lane], n1, n2[lane]));
                }
            }
        }
        best
    }
}

/// Complex-spectrum variant used by the interferometry UDF after
/// `Das_fft`: `|⟨S1, S2⟩| / (‖S1‖·‖S2‖)` with the Hermitian inner
/// product; 0 when either spectrum has zero energy.
///
/// # Panics
/// Panics when lengths differ.
pub fn abscorr_complex(s1: &[Complex], s2: &[Complex]) -> f64 {
    abscorr_complex_with_energy(s1, s2, energy_complex(s2))
}

/// `‖S‖² = Σ |S[i]|²`, summed in index order.
pub fn energy_complex(s: &[Complex]) -> f64 {
    s.iter().fold(0.0, |acc, &v| acc + v.norm_sqr())
}

/// [`abscorr_complex`] for a caller that scores many spectra `s1`
/// against one `s2` and computed `n2 = energy_complex(s2)` once; the
/// same bits as `abscorr_complex`.
///
/// # Panics
/// Panics when lengths differ.
pub fn abscorr_complex_with_energy(s1: &[Complex], s2: &[Complex], n2: f64) -> f64 {
    assert_eq!(s1.len(), s2.len(), "abscorr requires equal-length spectra");
    let mut dot = Complex::ZERO;
    let mut n1 = 0.0;
    for (&a, &b) in s1.iter().zip(s2) {
        dot += a * b.conj();
        n1 += a.norm_sqr();
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

    /// One lag at a time, as `local_simi_udf` did it.
    fn max_abscorr_lags_reference(c1: &[f64], n1: f64, span: &[f64]) -> f64 {
        let mut best = 0.0f64;
        for lag in 0..=span.len() - c1.len() {
            best = best.max(abscorr_with_energy(c1, n1, &span[lag..lag + c1.len()]));
        }
        best
    }

    #[test]
    fn lagged_lanes_have_the_one_lag_at_a_time_bits() {
        tier::each(|tier| {
            let noise = |i: usize| ((i * 7919) % 1000) as f64 / 500.0 - 1.0;
            let series: Vec<f64> = (0..200)
                .map(|i| (i as f64 * 0.31).sin() + noise(i))
                .collect();
            let one_bit: Vec<f64> = series.iter().map(|v| v.signum()).collect();
            for data in [&series, &one_bit] {
                for len in [0usize, 1, 2, 9, 51] {
                    let w = &data[100..100 + len];
                    let n1 = energy(w);
                    // below, at and above one lane group, between two, and
                    // Algorithm 2's 21
                    for lags in [1, LAGS - 1, LAGS, LAGS + 1, 2 * LAGS - 1, 2 * LAGS, 21, 40] {
                        for start in [0, 3, 77] {
                            let span = &data[start..start + len + lags - 1];
                            let got = max_abscorr_lags(w, n1, span);
                            let want = max_abscorr_lags_reference(w, n1, span);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{tier:?}: {len} x {lags} at {start}"
                            );
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn lagged_lanes_score_silence_and_poison_like_abscorr() {
        tier::each(|tier| {
            let w = [1.0, -2.0, 0.5, 3.0];
            // a silent centre window, a silent span, silence at some lags
            assert_eq!(max_abscorr_lags(&[0.0; 4], 0.0, &[1.0; 24]), 0.0);
            assert_eq!(max_abscorr_lags(&w, energy(&w), &[0.0; 24]), 0.0);
            let mut span = vec![0.0; 30];
            span[20..24].copy_from_slice(&w);
            assert_eq!(max_abscorr_lags(&w, energy(&w), &span), 1.0);
            // a NaN or an infinity poisons the lags whose window holds it
            // and no other; a poisoned score never wins
            for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                for at in [0, 5, 11, 29] {
                    let mut span: Vec<f64> = (0..30).map(|i| (i as f64 * 0.9).cos()).collect();
                    span[at] = poison;
                    let got = max_abscorr_lags(&w, energy(&w), &span);
                    let want = max_abscorr_lags_reference(&w, energy(&w), &span);
                    assert_eq!(got.to_bits(), want.to_bits(), "{tier:?}: {poison} at {at}");
                    assert!(got.is_finite() && got > 0.0);
                }
            }
            assert_eq!(max_abscorr_lags(&w, energy(&w), &[f64::NAN; 30]), 0.0);
        });
    }

    #[test]
    #[should_panic(expected = "at least one window long")]
    fn lagged_lanes_reject_a_short_span() {
        max_abscorr_lags(&[1.0, 2.0], 5.0, &[1.0]);
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

    /// The one-loop `abscorr_complex` that summed both energies beside
    /// the inner product, kept as the bit-exact reference.
    fn abscorr_complex_reference(s1: &[Complex], s2: &[Complex]) -> f64 {
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

    #[test]
    fn complex_abscorr_with_energy_has_the_reference_bits() {
        let spectrum = |seed: usize, n: usize| -> Vec<Complex> {
            (0..n)
                .map(|i| {
                    let x = (i * 7919 + seed * 104_729) as f64;
                    Complex::new((x * 0.37).sin() * 3.0, (x * 0.11).cos() - 0.5)
                })
                .collect()
        };
        let master = spectrum(0, 301);
        let mut rows: Vec<Vec<Complex>> = (1..6).map(|seed| spectrum(seed, 301)).collect();
        rows.push(master.clone());
        rows.push(vec![Complex::ZERO; 301]);
        let mut nan = spectrum(9, 301);
        nan[17] = Complex::new(f64::NAN, 0.0);
        rows.push(nan.clone());
        let mut inf = spectrum(10, 301);
        inf[40] = Complex::new(0.0, f64::INFINITY);
        rows.push(inf);
        // a silent master, a poisoned master, and the rows against each
        for s2 in [master, vec![Complex::ZERO; 301], nan] {
            let n2 = energy_complex(&s2);
            for s1 in &rows {
                let want = abscorr_complex_reference(s1, &s2).to_bits();
                assert_eq!(abscorr_complex_with_energy(s1, &s2, n2).to_bits(), want);
                assert_eq!(abscorr_complex(s1, &s2).to_bits(), want);
            }
        }
        assert_eq!(abscorr_complex_with_energy(&[], &[], 0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal-length spectra")]
    fn complex_abscorr_with_energy_rejects_unequal_lengths() {
        abscorr_complex_with_energy(&[Complex::ZERO; 2], &[Complex::ZERO; 3], 1.0);
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
