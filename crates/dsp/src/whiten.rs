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
    /// `|S|` is taken once per distinct bin. For an even length the real
    /// transform writes bin `n − k` as the exact conjugate of bin `k`, and
    /// `hypot` ignores sign, so bins `0..=n/2` hold every magnitude and
    /// bin `n − k` is scaled by the factor of bin `k`. An odd length
    /// goes through one full complex transform, which promises no exact
    /// mirror, so every bin is its own. Either way each bin gets the bits
    /// it would get from its own magnitude.
    ///
    /// # Panics
    /// Panics when `x` is not of the prepared length or `scratch` is
    /// shorter than `scratch_len()`.
    pub fn apply_in_place(&self, x: &mut [f64], scratch: &mut [Complex]) {
        let n = self.weights.len();
        let bins = if n.is_multiple_of(2) { n / 2 + 1 } else { n };
        let (spec, rest) = scratch.split_at_mut(n);
        self.plan.forward_real_into(x, spec, rest);
        // The row is read; until the inverse writes it, it holds the
        // magnitudes.
        let mags = &mut x[..bins];
        for (mag, s) in mags.iter_mut().zip(&*spec) {
            *mag = s.abs();
        }
        // Water level: bins far below the spectral peak are numerical noise
        // with arbitrary phase; normalizing them to unit amplitude would
        // inject garbage. Divide by max(|S|, ε·max|S|) instead.
        let max_mag = mags.iter().copied().fold(0.0f64, f64::max);
        let floor = 1e-8 * max_mag;
        for (k, (&mag, &weight)) in mags.iter().zip(&self.weights).enumerate() {
            let whiten = |s: Complex| {
                if mag > 0.0 && weight > 0.0 {
                    s.scale(weight / mag.max(floor))
                } else {
                    Complex::ZERO
                }
            };
            spec[k] = whiten(spec[k]);
            // bin n − k when it is not one of the distinct bins itself
            if k > 0 && n - k >= bins {
                spec[n - k] = whiten(spec[n - k]);
            }
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

    /// FNV-1a over the bits of every value.
    fn digest(values: &[f64]) -> u64 {
        values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .fold(0xCBF2_9CE4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
            })
    }

    /// The output bits of `whiten` for odd lengths (one full complex
    /// transform), even ones through a radix-2/4 half, a Bluestein half
    /// (130 = 2 · 5 · 13) and the degenerate 1, 2 and 3, over seeded
    /// noise, silence, a tone on bin `n/4` (exact-zero bins elsewhere)
    /// and noise holding one `inf`, in a tapered band and over the whole
    /// spectrum. Recorded before the half-spectrum scaling.
    #[test]
    fn whitened_bits_are_pinned() {
        let noise = |n: usize, seed: u64| -> Vec<f64> {
            (0..n as u64)
                .map(|i| {
                    let mut z = seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                })
                .collect()
        };
        let cases = [
            (1, 0x34B3_D385_CD89_BAA0),
            (2, 0x40F8_56A4_0487_C561),
            (3, 0x4DF2_212E_23AA_E849),
            (8, 0xFF6D_47AE_483F_CCF7),
            (127, 0x59AD_8BFE_8C02_6AA2),
            (130, 0x2CF8_6E5B_F801_567C),
            (512, 0x5649_498B_4710_3B97),
        ];
        let got: Vec<(usize, u64)> = cases
            .iter()
            .map(|&(n, _)| {
                let mut with_inf = noise(n, 3);
                with_inf[n / 2] = f64::INFINITY;
                let rows = [
                    noise(n, 1),
                    vec![0.0; n],
                    (0..n).map(|i| [1.0, 0.0, -1.0, 0.0][i % 4]).collect(),
                    with_inf,
                ];
                let out: Vec<f64> = rows
                    .iter()
                    .flat_map(|x| {
                        let mut both = whiten(x, 0.05, 0.6, 0.025);
                        both.extend(whiten(x, 0.0, 1.0, 0.0));
                        both
                    })
                    .collect();
                (n, digest(&out))
            })
            .collect();
        assert_eq!(got, cases);
    }
}
