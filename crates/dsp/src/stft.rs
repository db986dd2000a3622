//! Short-time Fourier transform / spectrogram — the standard first look
//! at a DAS channel (the paper's Figure 1b-style visualizations come
//! from exactly this).

use crate::complex::Complex;
use crate::fft::plan;
use crate::window::hann;

/// A magnitude spectrogram: `frames × bins` power values.
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrogram {
    /// Number of time frames.
    pub frames: usize,
    /// Frequency bins per frame (`n_fft / 2 + 1`).
    pub bins: usize,
    /// Row-major `frames × bins` power (|X|²) values.
    pub power: Vec<f64>,
    /// Hop size in samples between frames.
    pub hop: usize,
    /// FFT length used.
    pub n_fft: usize,
}

impl Spectrogram {
    /// Power at `(frame, bin)`.
    pub fn at(&self, frame: usize, bin: usize) -> f64 {
        assert!(
            frame < self.frames && bin < self.bins,
            "index out of bounds"
        );
        self.power[frame * self.bins + bin]
    }

    /// The bin index with the most total power across all frames.
    pub fn dominant_bin(&self) -> usize {
        let mut totals = vec![0.0f64; self.bins];
        for f in 0..self.frames {
            for (b, total) in totals.iter_mut().enumerate() {
                *total += self.at(f, b);
            }
        }
        totals
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Normalized frequency (fraction of Nyquist) of bin `b`.
    pub fn bin_freq(&self, b: usize) -> f64 {
        b as f64 / (self.n_fft as f64 / 2.0)
    }
}

/// Compute a Hann-windowed magnitude spectrogram with `n_fft`-sample
/// frames hopping by `hop`.
///
/// Frames that would run past the end of `x` are dropped (no padding),
/// so `frames = floor((len − n_fft) / hop) + 1` (zero when `x` is
/// shorter than one frame).
///
/// # Panics
/// Panics when `n_fft == 0` or `hop == 0`.
pub fn spectrogram(x: &[f64], n_fft: usize, hop: usize) -> Spectrogram {
    assert!(n_fft > 0 && hop > 0, "n_fft and hop must be positive");
    let bins = n_fft / 2 + 1;
    let win = hann(n_fft);
    let frames = if x.len() >= n_fft {
        (x.len() - n_fft) / hop + 1
    } else {
        0
    };
    let mut power = Vec::with_capacity(frames * bins);
    let mut buf = vec![0.0f64; n_fft];
    let plan = plan(n_fft);
    let mut spec = vec![Complex::ZERO; n_fft];
    let mut scratch = vec![Complex::ZERO; plan.scratch_len()];
    for f in 0..frames {
        let start = f * hop;
        for (i, b) in buf.iter_mut().enumerate() {
            *b = x[start + i] * win[i];
        }
        plan.forward_real_into(&buf, &mut spec, &mut scratch);
        power.extend(spec[..bins].iter().map(|z| z.norm_sqr()));
    }
    Spectrogram {
        frames,
        bins,
        power,
        hop,
        n_fft,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_count_formula() {
        let x = vec![0.0; 1000];
        let s = spectrogram(&x, 256, 128);
        assert_eq!(s.frames, (1000 - 256) / 128 + 1);
        assert_eq!(s.bins, 129);
        assert_eq!(s.power.len(), s.frames * s.bins);
    }

    #[test]
    fn short_input_gives_zero_frames() {
        let s = spectrogram(&[1.0; 10], 64, 32);
        assert_eq!(s.frames, 0);
        assert!(s.power.is_empty());
    }

    #[test]
    fn pure_tone_concentrates_in_one_bin() {
        let n = 2048;
        let bin = 24; // cycles per 256-sample frame
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * bin as f64 * i as f64 / 256.0).sin())
            .collect();
        let s = spectrogram(&x, 256, 64);
        assert_eq!(s.dominant_bin(), bin);
        // Energy in the dominant bin dwarfs a far-away bin.
        let dom: f64 = (0..s.frames).map(|f| s.at(f, bin)).sum();
        let far: f64 = (0..s.frames).map(|f| s.at(f, 100)).sum();
        assert!(dom > 1e4 * far.max(1e-12));
    }

    #[test]
    fn chirp_moves_across_bins() {
        // Linear chirp: the dominant bin of early frames is lower than
        // that of late frames.
        let n = 4096;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (2.0 * std::f64::consts::PI * (4.0 + 60.0 * t) * i as f64 / 256.0).sin()
            })
            .collect();
        let s = spectrogram(&x, 256, 128);
        let peak_of = |f: usize| {
            (0..s.bins)
                .max_by(|&a, &b| s.at(f, a).partial_cmp(&s.at(f, b)).expect("finite"))
                .expect("bins")
        };
        assert!(
            peak_of(s.frames - 1) > peak_of(0) + 10,
            "chirp must sweep upward"
        );
    }

    #[test]
    fn transient_localized_in_time() {
        // A burst in the middle third only lights up middle frames.
        let n = 3000;
        let mut x = vec![0.0f64; n];
        for (i, v) in x.iter_mut().enumerate().take(1700).skip(1300) {
            *v = (0.8 * i as f64).sin();
        }
        let s = spectrogram(&x, 200, 100);
        let frame_energy = |f: usize| -> f64 { (0..s.bins).map(|b| s.at(f, b)).sum() };
        let early = frame_energy(1);
        let mid = frame_energy(14); // samples 1400..1600
        assert!(mid > 100.0 * early.max(1e-12), "burst not localized");
    }

    #[test]
    fn bin_freq_scale() {
        let s = spectrogram(&vec![0.0; 512], 128, 64);
        assert_eq!(s.bin_freq(0), 0.0);
        assert!((s.bin_freq(64) - 1.0).abs() < 1e-12, "last bin is Nyquist");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_hop_rejected() {
        spectrogram(&[0.0; 100], 32, 0);
    }
}
