//! Time-domain normalization for ambient-noise processing.
//!
//! The traffic-noise interferometry workflow the paper reproduces
//! (Dou et al. 2017) applies temporal normalization between filtering
//! and correlation so that earthquakes and other transients do not
//! dominate the noise cross-correlations. The two standard choices are
//! **one-bit** normalization and **running-absolute-mean** (RAM)
//! normalization (Bensen et al. 2007).

/// One-bit normalization: keep only the sign of each sample.
///
/// The most aggressive temporal normalization — every transient is
/// flattened to ±1, leaving only phase information.
pub fn one_bit(x: &[f64]) -> Vec<f64> {
    let mut out = x.to_vec();
    one_bit_in_place(&mut out);
    out
}

/// [`one_bit`] overwriting its input.
pub fn one_bit_in_place(x: &mut [f64]) {
    for v in x {
        *v = if *v > 0.0 {
            1.0
        } else if *v < 0.0 {
            -1.0
        } else {
            0.0
        };
    }
}

/// Running-absolute-mean normalization: divide each sample by the
/// average of |x| over a centered window of `2·half + 1` samples
/// (edge-clamped). Windows with zero energy leave the sample at 0.
pub fn running_abs_mean(x: &[f64], half: usize) -> Vec<f64> {
    let (mut out, mut prefix) = (Vec::new(), Vec::new());
    running_abs_mean_into(x, half, &mut out, &mut prefix);
    out
}

/// [`running_abs_mean`] into `out` (cleared first), with the prefix sums
/// of `|x|` it works from in `prefix`; nothing is allocated once both
/// have the capacity.
pub fn running_abs_mean_into(x: &[f64], half: usize, out: &mut Vec<f64>, prefix: &mut Vec<f64>) {
    let n = x.len();
    // Prefix sums of |x| for O(1) window means.
    prefix.clear();
    let mut sum = 0.0;
    prefix.push(sum);
    for &v in x {
        sum += v.abs();
        prefix.push(sum);
    }
    out.clear();
    out.extend(x.iter().enumerate().map(|(i, &v)| {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        let mean = (prefix[hi] - prefix[lo]) / (hi - lo) as f64;
        if mean > 0.0 {
            v / mean
        } else {
            0.0
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_bit_is_signum() {
        assert_eq!(one_bit(&[2.5, -0.1, 0.0, 7.0]), vec![1.0, -1.0, 0.0, 1.0]);
    }

    #[test]
    fn one_bit_kills_amplitude_information() {
        let quiet: Vec<f64> = (0..64).map(|i| 0.01 * ((i as f64) * 0.3).sin()).collect();
        let loud: Vec<f64> = quiet.iter().map(|v| v * 1e6).collect();
        assert_eq!(one_bit(&quiet), one_bit(&loud));
    }

    #[test]
    fn ram_into_reuses_dirty_buffers_and_keeps_the_allocating_bits() {
        // the collect-into-fresh-vectors body `running_abs_mean` had
        let reference = |x: &[f64], half: usize| -> Vec<f64> {
            let n = x.len();
            let mut prefix = vec![0.0];
            for &v in x {
                prefix.push(prefix.last().expect("nonempty") + v.abs());
            }
            (0..n)
                .map(|i| {
                    let (lo, hi) = (i.saturating_sub(half), (i + half + 1).min(n));
                    let mean = (prefix[hi] - prefix[lo]) / (hi - lo) as f64;
                    if mean > 0.0 {
                        x[i] / mean
                    } else {
                        0.0
                    }
                })
                .collect()
        };
        let x: Vec<f64> = (0..300)
            .map(|i| (i as f64 * 0.7).sin() * if i % 50 < 5 { 0.0 } else { 1.0 + i as f64 })
            .collect();
        let (mut out, mut prefix) = (vec![f64::NAN; 400], vec![f64::NAN; 2]);
        for (n, half) in [(0, 3), (1, 0), (7, 100), (300, 20), (40, 1)] {
            running_abs_mean_into(&x[..n], half, &mut out, &mut prefix);
            assert_eq!(out, reference(&x[..n], half), "{n} samples, half {half}");
            assert_eq!(running_abs_mean(&x[..n], half), out);
        }
    }

    #[test]
    fn ram_suppresses_a_spike() {
        // A big spike on small background: after RAM the spike's
        // normalized amplitude is comparable to its neighbours'.
        let mut x: Vec<f64> = (0..200).map(|i| ((i as f64) * 0.7).sin() * 0.5).collect();
        x[100] = 100.0;
        let y = running_abs_mean(&x, 10);
        // Spike-to-background dynamic range must shrink substantially.
        let bg_peak = |v: &[f64]| v[40..60].iter().fold(0.0f64, |m, &s| m.max(s.abs()));
        let ratio_before = x[100].abs() / bg_peak(&x);
        let ratio_after = y[100].abs() / bg_peak(&y);
        assert!(
            ratio_after < ratio_before / 3.0,
            "dynamic range {ratio_before:.1} -> {ratio_after:.1}: insufficient suppression"
        );
        assert!(
            y[100].abs() < x[100].abs() / 2.0,
            "spike must be attenuated"
        );
    }

    #[test]
    fn ram_of_constant_signal_is_sign() {
        let x = vec![3.0; 50];
        let y = running_abs_mean(&x, 5);
        for v in y {
            assert!((v - 1.0).abs() < 1e-12);
        }
        let neg = vec![-2.0; 50];
        for v in running_abs_mean(&neg, 5) {
            assert!((v + 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ram_zero_window_passes_zero() {
        let x = vec![0.0; 10];
        assert_eq!(running_abs_mean(&x, 3), vec![0.0; 10]);
    }

    #[test]
    fn ram_window_edges_clamp() {
        let x = vec![1.0, 1.0, 1.0];
        // Large half-window: every window is the whole signal.
        let y = running_abs_mean(&x, 100);
        for v in y {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(one_bit(&[]).is_empty());
        assert!(running_abs_mean(&[], 4).is_empty());
    }
}
