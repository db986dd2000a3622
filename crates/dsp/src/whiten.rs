//! Spectral whitening — flattening the amplitude spectrum inside a band
//! while keeping phase, the frequency-domain normalization step of
//! ambient-noise interferometry (it stops monochromatic sources like
//! the paper's "persistent vibrating" installation from dominating the
//! noise correlations).

use crate::complex::Complex;
use crate::fft::{plan, FftPlan};
use std::sync::Arc;

fn check_band(f_lo: f64, f_hi: f64) {
    assert!(
        (0.0..1.0).contains(&f_lo) && f_lo < f_hi && f_hi <= 1.0,
        "band must satisfy 0 <= lo < hi <= 1, got {f_lo}..{f_hi}"
    );
}

/// Whitening prepared for rows of one length and one band: the FFT plan
/// and the weight of every bin, so a row is one real transform each way
/// through caller scratch.
#[derive(Debug, Clone)]
pub struct Whitener {
    plan: Arc<FftPlan>,
    weights: Vec<f64>,
}

impl Whitener {
    /// Prepare whitening of `n`-sample rows between normalized
    /// frequencies `f_lo..f_hi` (fractions of Nyquist, `0..1`): unit
    /// amplitude with original phase inside the band, smoothly tapered
    /// to zero over `taper` of normalized frequency outside it.
    ///
    /// # Panics
    /// Panics unless `0 ≤ f_lo < f_hi ≤ 1` and `n > 0`.
    pub fn new(n: usize, f_lo: f64, f_hi: f64, taper: f64) -> Whitener {
        check_band(f_lo, f_hi);
        let nyquist = n as f64 / 2.0;
        let weights = (0..n)
            .map(|k| {
                // Frequency of bin k as a fraction of Nyquist (mirrored).
                let freq_bins = if k <= n / 2 { k as f64 } else { (n - k) as f64 };
                band_weight(freq_bins / nyquist, f_lo, f_hi, taper)
            })
            .collect();
        Whitener {
            plan: plan(n),
            weights,
        }
    }

    /// Complex scratch elements [`apply_in_place`](Self::apply_in_place)
    /// needs.
    pub fn scratch_len(&self) -> usize {
        self.weights.len() + self.plan.scratch_len()
    }

    /// Whiten `x` in place.
    ///
    /// # Panics
    /// Panics when `x` is not of the prepared length or `scratch` is
    /// shorter than `scratch_len()`.
    pub fn apply_in_place(&self, x: &mut [f64], scratch: &mut [Complex]) {
        let (spec, rest) = scratch.split_at_mut(self.weights.len());
        self.plan.forward_real_into(x, spec, rest);
        // Water level: bins far below the spectral peak are numerical noise
        // with arbitrary phase; normalizing them to unit amplitude would
        // inject garbage. Divide by max(|S|, ε·max|S|) instead.
        let max_mag = spec.iter().map(|s| s.abs()).fold(0.0f64, f64::max);
        let floor = 1e-8 * max_mag;
        for (s, &weight) in spec.iter_mut().zip(&self.weights) {
            let mag = s.abs();
            *s = if mag > 0.0 && weight > 0.0 {
                s.scale(weight / mag.max(floor))
            } else {
                Complex::ZERO
            };
        }
        self.plan.inverse_real_into(spec, x, rest);
    }
}

/// Whiten `x` between normalized frequencies `f_lo..f_hi`; see
/// [`Whitener`], which row loops prepare once and reuse.
///
/// # Panics
/// Panics unless `0 ≤ f_lo < f_hi ≤ 1`.
pub fn whiten(x: &[f64], f_lo: f64, f_hi: f64, taper: f64) -> Vec<f64> {
    check_band(f_lo, f_hi);
    let mut out = x.to_vec();
    if out.is_empty() {
        return out;
    }
    let whitener = Whitener::new(out.len(), f_lo, f_hi, taper);
    whitener.apply_in_place(&mut out, &mut vec![Complex::ZERO; whitener.scratch_len()]);
    out
}

/// Cosine-tapered band weight: 1 inside `[lo, hi]`, 0 outside
/// `[lo − taper, hi + taper]`.
fn band_weight(f: f64, lo: f64, hi: f64, taper: f64) -> f64 {
    if f >= lo && f <= hi {
        1.0
    } else if taper > 0.0 && f >= lo - taper && f < lo {
        0.5 * (1.0 + (std::f64::consts::PI * (f - lo) / taper).cos())
    } else if taper > 0.0 && f > hi && f <= hi + taper {
        0.5 * (1.0 + (std::f64::consts::PI * (f - hi) / taper).cos())
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft_real;

    /// Power in bin k of the spectrum of `x`.
    fn bin_power(x: &[f64], k: usize) -> f64 {
        fft_real(x)[k].norm_sqr()
    }

    #[test]
    fn in_band_spectrum_is_flat_after_whitening() {
        // Two tones with a 100x amplitude difference, both in band:
        // after whitening their bins carry equal power.
        let n = 512;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64;
                100.0 * (2.0 * std::f64::consts::PI * 32.0 * t / n as f64).sin()
                    + 1.0 * (2.0 * std::f64::consts::PI * 96.0 * t / n as f64).sin()
            })
            .collect();
        let w = whiten(&x, 0.05, 0.6, 0.02);
        let p32 = bin_power(&w, 32);
        let p96 = bin_power(&w, 96);
        assert!(
            (p32 / p96 - 1.0).abs() < 1e-6,
            "whitened powers differ: {p32} vs {p96}"
        );
    }

    #[test]
    fn out_of_band_energy_removed() {
        let n = 512usize;
        // Tone exactly on bin 230 (≈0.9 Nyquist), band 0.05..0.5.
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 230.0 * i as f64 / n as f64).sin())
            .collect();
        let w = whiten(&x, 0.05, 0.5, 0.02);
        let energy: f64 = w.iter().map(|v| v * v).sum();
        assert!(energy < 1e-9, "stopband energy {energy}");
    }

    #[test]
    fn phase_is_preserved() {
        // A delayed in-band tone: whitening must not move its phase —
        // the cross-correlation peak of whitened vs raw stays at 0 lag.
        let n = 512;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 40.0 * i as f64 / n as f64 + 0.9).sin())
            .collect();
        let w = whiten(&x, 0.05, 0.6, 0.02);
        let r = crate::correlate::xcorr_fft(&x, &w, crate::correlate::CorrMode::Full);
        let peak = r
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("nonempty")
            .0 as isize
            - (n as isize - 1);
        assert_eq!(peak, 0, "whitening shifted the signal");
    }

    #[test]
    fn output_is_real_valued_and_same_length() {
        let x: Vec<f64> = (0..300).map(|i| ((i * i) as f64).sin()).collect();
        let w = whiten(&x, 0.1, 0.4, 0.05);
        assert_eq!(w.len(), 300);
        assert!(w.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn taper_weights_are_monotone() {
        let seq: Vec<f64> = (0..20)
            .map(|i| band_weight(0.1 - 0.05 + i as f64 * 0.0025, 0.1, 0.4, 0.05))
            .collect();
        for w in seq.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "taper not monotone: {seq:?}");
        }
        assert_eq!(band_weight(0.25, 0.1, 0.4, 0.05), 1.0);
        assert_eq!(band_weight(0.9, 0.1, 0.4, 0.05), 0.0);
    }

    #[test]
    #[should_panic(expected = "band must satisfy")]
    fn invalid_band_rejected() {
        whiten(&[1.0; 32], 0.5, 0.2, 0.01);
    }

    #[test]
    fn empty_input() {
        assert!(whiten(&[], 0.1, 0.5, 0.02).is_empty());
    }
}
