//! Rational-rate resampling — the paper's `Das_resample(X, p, q)`.
//!
//! MATLAB-style: upsample by `p`, anti-alias with a Kaiser-windowed sinc
//! FIR, downsample by `q`, with gain and group-delay compensation so
//! `output[0]` aligns with `input[0]`. The implementation walks the
//! polyphase structure directly (only taps that land on kept samples are
//! evaluated), so cost is O(len·taps/p) rather than O(len·p·taps).

use crate::window::kaiser;

/// Greatest common divisor.
fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Design the anti-alias lowpass used by MATLAB `resample`: cutoff at
/// `1/max(p,q)` of the upsampled Nyquist, `2·N·max(p,q)+1` taps
/// (N = 10), Kaiser β = 5, scaled by `p`.
fn design_fir(p: usize, q: usize) -> Vec<f64> {
    let n_half = 10 * p.max(q);
    let len = 2 * n_half + 1;
    let fc = 1.0 / p.max(q) as f64; // fraction of upsampled Nyquist
    let win = kaiser(len, 5.0);
    (0..len)
        .map(|i| {
            let t = i as f64 - n_half as f64;
            let sinc = if t == 0.0 {
                fc
            } else {
                (std::f64::consts::PI * fc * t).sin() / (std::f64::consts::PI * t)
            };
            sinc * win[i] * p as f64
        })
        .collect()
}

/// A rational-rate resampler for one reduced ratio `p/q`: the anti-alias
/// FIR is designed once and stored by polyphase branch, so applying it
/// to a row is one dot product per output sample.
#[derive(Debug, Clone)]
pub struct Resampler {
    p: usize,
    q: usize,
    /// Half the FIR length (its group delay in upsampled samples).
    half: usize,
    /// Branch `φ` holds taps `φ, φ+p, φ+2p, …` of the FIR: the ones that
    /// meet input samples when the first tap under the window does.
    branches: Vec<Vec<f64>>,
}

impl Resampler {
    /// Design the resampler for rate `p/q` (reduced by their gcd first).
    ///
    /// # Panics
    /// Panics when `p` or `q` is zero.
    pub fn new(p: usize, q: usize) -> Resampler {
        assert!(p > 0 && q > 0, "resample factors must be positive");
        let g = gcd(p, q);
        let (p, q) = (p / g, q / g);
        if p == 1 && q == 1 {
            return Resampler {
                p,
                q,
                half: 0,
                branches: Vec::new(),
            };
        }
        let h = design_fir(p, q);
        Resampler {
            p,
            q,
            half: (h.len() - 1) / 2,
            branches: (0..p)
                .map(|phase| h.iter().skip(phase).step_by(p).copied().collect())
                .collect(),
        }
    }

    /// Output length for an input of `n` samples: `ceil(n·p/q)`.
    pub fn out_len(&self, n: usize) -> usize {
        (n * self.p).div_ceil(self.q)
    }

    /// Resample `x` into `out` (cleared first; no allocation once `out`
    /// has the capacity).
    pub fn apply_into(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        if self.branches.is_empty() {
            out.extend_from_slice(x);
            return;
        }
        let (p, n) = (self.p as isize, x.len() as isize);
        // Output sample k sits at upsampled index k·q; the FIR is centred
        // there (delay `half` compensated). Upsampled index u holds input
        // sample u/p when divisible and zero otherwise, so only the taps
        // of one branch — those over multiples of p — contribute, against
        // consecutive input samples; samples before the start and past
        // the end of `x` count as zero.
        out.extend((0..self.out_len(x.len())).map(|k| {
            let lo = (k * self.q) as isize - self.half as isize;
            let first = lo.div_euclid(p) + isize::from(lo.rem_euclid(p) != 0);
            let taps = &self.branches[(first * p - lo) as usize];
            let from = (-first).max(0);
            let to = (n - first).min(taps.len() as isize);
            let samples = &x[(first + from) as usize..(first + to) as usize];
            let mut acc = 0.0;
            for (&v, &t) in samples.iter().zip(&taps[from as usize..to as usize]) {
                acc += v * t;
            }
            acc
        }));
    }
}

/// Resample `x` from rate `p/q` (MATLAB `resample(x, p, q)`).
///
/// Output length is `ceil(len·p/q)`. The 6-minute DASSA interferometry
/// pipeline uses this to take 500 Hz channels down to analysis rate.
/// Row loops build one [`Resampler`] and reuse it.
///
/// # Panics
/// Panics when `p` or `q` is zero.
pub fn resample(x: &[f64], p: usize, q: usize) -> Vec<f64> {
    let mut out = Vec::new();
    Resampler::new(p, q).apply_into(x, &mut out);
    out
}

/// Integer-factor decimation with anti-alias filtering:
/// `decimate(x, q) == resample(x, 1, q)`.
pub fn decimate(x: &[f64], q: usize) -> Vec<f64> {
    resample(x, 1, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(n: usize, cycles_per_sample: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * cycles_per_sample * i as f64).sin())
            .collect()
    }

    /// The per-call, branch-per-tap implementation `Resampler` replaced,
    /// kept as the bit-exact reference.
    fn resample_reference(x: &[f64], p: usize, q: usize) -> Vec<f64> {
        assert!(p > 0 && q > 0, "resample factors must be positive");
        let g = gcd(p, q);
        let (p, q) = (p / g, q / g);
        if p == 1 && q == 1 {
            return x.to_vec();
        }
        if x.is_empty() {
            return Vec::new();
        }
        let h = design_fir(p, q);
        let half = (h.len() - 1) / 2;
        let n_out = (x.len() * p).div_ceil(q);

        // Output sample k sits at upsampled index k·q; the FIR is centred
        // there (delay `half` compensated). Upsampled index u maps to input
        // sample u/p when divisible, zero otherwise — skip the zeros by
        // stepping through taps whose upsampled position is ≡ 0 (mod p).
        let mut out = Vec::with_capacity(n_out);
        for k in 0..n_out {
            let centre = (k * q) as isize; // upsampled position of output k
            let lo = centre - half as isize;
            let hi = centre + half as isize;
            let mut acc = 0.0;
            // First upsampled position ≥ lo that is a multiple of p.
            let mut u = lo.div_euclid(p as isize) * p as isize;
            if u < lo {
                u += p as isize;
            }
            while u <= hi {
                let xi = u / p as isize;
                if xi >= 0 && (xi as usize) < x.len() {
                    let tap = (u - lo) as usize;
                    acc += x[xi as usize] * h[tap];
                }
                u += p as isize;
            }
            out.push(acc);
        }
        out
    }

    #[test]
    fn resampler_has_the_reference_bits() {
        let x: Vec<f64> = (0..1100)
            .map(|i| (i as f64 * 0.37).sin() + ((i * 7919) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        for (p, q) in [
            (1usize, 2usize),
            (2, 1),
            (2, 3),
            (3, 2),
            (1, 50),
            (4, 6),
            (7, 7),
        ] {
            let resampler = Resampler::new(p, q);
            // around one and two FIR half-lengths, where the window
            // leaves the signal at the start, the end, or both at once
            let half = 10 * p.max(q) / gcd(p, q);
            let lengths = [0, 1, 2, 3, half / p, half, half + 1, 2 * half, 2 * half + 1];
            let mut out = vec![f64::NAN; 5]; // stale contents must not matter
            for n in lengths
                .into_iter()
                .chain([97, 1100])
                .filter(|&n| n <= x.len())
            {
                let want = resample_reference(&x[..n], p, q);
                resampler.apply_into(&x[..n], &mut out);
                assert_eq!(out, want, "{p}/{q} over {n} samples");
                assert_eq!(resample(&x[..n], p, q), want);
                assert_eq!(resampler.out_len(n), want.len());
            }
        }
    }

    #[test]
    fn identity_rate() {
        let x = sine(100, 0.01);
        assert_eq!(resample(&x, 1, 1), x);
        assert_eq!(resample(&x, 3, 3), x);
    }

    #[test]
    fn output_length_is_ceil() {
        assert_eq!(resample(&vec![0.0; 100], 1, 2).len(), 50);
        assert_eq!(resample(&vec![0.0; 101], 1, 2).len(), 51);
        assert_eq!(resample(&vec![0.0; 100], 2, 1).len(), 200);
        assert_eq!(resample(&vec![0.0; 100], 2, 3).len(), 67);
    }

    #[test]
    fn downsample_preserves_low_frequency_tone() {
        // 0.01 cycles/sample tone, decimate by 2 → 0.02 cycles/sample.
        let x = sine(2000, 0.01);
        let y = resample(&x, 1, 2);
        let expect = sine(1000, 0.02);
        // Compare away from the edges (filter transients).
        for i in 100..900 {
            assert!(
                (y[i] - expect[i]).abs() < 1e-3,
                "i={i}: {} vs {}",
                y[i],
                expect[i]
            );
        }
    }

    #[test]
    fn upsample_preserves_tone() {
        let x = sine(500, 0.02);
        let y = resample(&x, 2, 1);
        let expect = sine(1000, 0.01);
        for i in 100..900 {
            assert!((y[i] - expect[i]).abs() < 1e-3, "i={i}");
        }
    }

    #[test]
    fn rational_rate_2_3() {
        let x = sine(1500, 0.01);
        let y = resample(&x, 2, 3);
        let expect = sine(1000, 0.015);
        for i in 100..900 {
            assert!((y[i] - expect[i]).abs() < 2e-3, "i={i}");
        }
    }

    #[test]
    fn decimation_removes_high_frequency() {
        // A tone above the post-decimation Nyquist must be attenuated,
        // not aliased: 0.4 cycles/sample, decimate by 4 → would alias.
        let x = sine(4000, 0.4);
        let y = decimate(&x, 4);
        let peak = y[100..y.len() - 100]
            .iter()
            .cloned()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(peak < 0.02, "aliased energy: {peak}");
    }

    #[test]
    fn dc_gain_preserved() {
        let x = vec![3.0; 1000];
        for (p, q) in [(1usize, 2usize), (2, 1), (3, 5), (5, 3)] {
            let y = resample(&x, p, q);
            let mid = y.len() / 2;
            assert!((y[mid] - 3.0).abs() < 1e-2, "p={p} q={q}: {}", y[mid]);
        }
    }

    #[test]
    fn alignment_sample_zero() {
        // output[0] corresponds to input[0] (delay compensated): for a
        // ramp the first output should be near x[0].
        let x: Vec<f64> = (0..1000).map(|i| i as f64 * 0.001).collect();
        let y = resample(&x, 1, 4);
        assert!(y[0].abs() < 0.05, "misaligned start: {}", y[0]);
        assert!((y[100] - x[400]).abs() < 0.01);
    }

    #[test]
    fn empty_input() {
        assert!(resample(&[], 2, 3).is_empty());
    }

    #[test]
    fn gcd_reduction() {
        assert_eq!(gcd(12, 8), 4);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(5, 0), 5);
    }
}
