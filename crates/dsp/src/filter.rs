//! IIR filtering: `lfilter` (direct-form II transposed) and MATLAB-style
//! zero-phase `filtfilt` — the paper's `Das_filtfilt`.

use crate::linalg::solve;

/// Apply the rational filter `b / a` to `x` (like MATLAB `filter`).
///
/// Direct-form II transposed; `a[0]` must be non-zero (coefficients are
/// normalized by it).
pub fn lfilter(b: &[f64], a: &[f64], x: &[f64]) -> Vec<f64> {
    let order = b.len().max(a.len());
    lfilter_zi(b, a, x, &vec![0.0; order.saturating_sub(1)]).0
}

/// [`lfilter`] with explicit initial conditions `zi` (length
/// `max(len(a), len(b)) − 1`). Returns `(y, zf)` with the final state.
pub fn lfilter_zi(b: &[f64], a: &[f64], x: &[f64], zi: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let (bb, aa) = normalized(b, a);
    let n = bb.len();

    let mut z = zi.to_vec();
    assert_eq!(z.len(), n - 1, "zi must have length max(len(a),len(b))-1");
    let mut y = Vec::with_capacity(x.len());
    for &xn in x {
        let yn = bb[0] * xn + z.first().copied().unwrap_or(0.0);
        for i in 0..n.saturating_sub(1) {
            let z_next = if i + 1 < z.len() { z[i + 1] } else { 0.0 };
            z[i] = bb[i + 1] * xn + z_next - aa[i + 1] * yn;
        }
        y.push(yn);
    }
    (y, z)
}

/// `b` and `a` divided by `a[0]` and zero-padded to a common length.
fn normalized(b: &[f64], a: &[f64]) -> (Vec<f64>, Vec<f64>) {
    assert!(!a.is_empty() && a[0] != 0.0, "a[0] must be non-zero");
    let n = b.len().max(a.len());
    let pad = |c: &[f64]| -> Vec<f64> {
        (0..n)
            .map(|i| c.get(i).copied().unwrap_or(0.0) / a[0])
            .collect()
    };
    (pad(b), pad(a))
}

/// Steady-state initial conditions for a unit step input, as MATLAB's
/// `filtfilt` computes them to suppress edge transients. `bb` and `aa`
/// are [`normalized`].
fn filtfilt_zi(bb: &[f64], aa: &[f64]) -> Vec<f64> {
    let n = bb.len();
    if n < 2 {
        return Vec::new();
    }
    let m = n - 1;
    // M = I − K, where K has first column −a[1..] and an identity block
    // shifted right by one on its first m−1 rows.
    let mut mat = vec![0.0; m * m];
    for i in 0..m {
        mat[i * m + i] += 1.0;
        mat[i * m] += aa[i + 1];
        if i + 1 < m {
            mat[i * m + i + 1] -= 1.0;
        }
    }
    let rhs: Vec<f64> = (0..m).map(|i| bb[i + 1] - bb[0] * aa[i + 1]).collect();
    solve(&mat, &rhs, m).unwrap_or_else(|| vec![0.0; m])
}

/// A zero-phase forward-backward filter (MATLAB `filtfilt`) prepared for
/// one `b / a`: coefficients normalized and the transient-suppressing
/// initial state solved once, so applying it to a row is two passes over
/// caller-owned scratch.
///
/// The input is extended at both ends with odd-reflected samples of
/// length `3·(order−1)`, filtered forward and backward from
/// transient-minimizing initial conditions, and trimmed back. The result
/// has zero phase distortion and the squared magnitude response of the
/// single-pass filter.
#[derive(Debug, Clone)]
pub struct FiltFilt {
    b: Vec<f64>,
    a: Vec<f64>,
    zi: Vec<f64>,
}

impl FiltFilt {
    /// Prepare the filter `b / a`.
    ///
    /// # Panics
    /// Panics when `a` is empty or `a[0]` is zero.
    pub fn new(b: &[f64], a: &[f64]) -> FiltFilt {
        let (b, a) = normalized(b, a);
        let zi = filtfilt_zi(&b, &a);
        FiltFilt { b, a, zi }
    }

    /// Samples reflected onto each end, `3·(max(len a, len b) − 1)`; a
    /// row must be longer than this.
    pub fn edge_len(&self) -> usize {
        3 * (self.b.len() - 1)
    }

    /// One direct-form II transposed pass over `samples`, in place, in
    /// iteration order, from the step-response state scaled by `first`
    /// (the first sample the pass meets). `z` is one longer than the
    /// state: its last entry stays 0.
    fn pass<'a>(&self, z: &mut [f64], first: f64, samples: impl Iterator<Item = &'a mut f64>) {
        for (state, &zi) in z.iter_mut().zip(&self.zi) {
            *state = zi * first;
        }
        let (b_rest, a_rest) = (&self.b[1..], &self.a[1..]);
        for v in samples {
            let xn = *v;
            let yn = self.b[0] * xn + z[0];
            for i in 0..b_rest.len() {
                z[i] = b_rest[i] * xn + z[i + 1] - a_rest[i] * yn;
            }
            *v = yn;
        }
    }

    /// Filter `x` into `out` (cleared first). `scratch` is resized to
    /// the extended row; nothing is allocated once both have capacity.
    ///
    /// # Panics
    /// Panics when `x` is not longer than [`edge_len`](Self::edge_len),
    /// matching MATLAB's input-length requirement.
    pub fn apply_into(&self, x: &[f64], out: &mut Vec<f64>, scratch: &mut Vec<f64>) {
        let nfact = self.edge_len();
        assert!(
            x.len() > nfact,
            "filtfilt input must be longer than 3*(order) = {nfact}, got {}",
            x.len()
        );
        out.clear();
        if nfact == 0 {
            // Pure gain; forward-backward is just gain² (b[0]/a[0])².
            let g = self.b[0];
            out.extend(x.iter().map(|&v| v * g * g));
            return;
        }
        // The filter state, then the odd-reflected extension of `x`.
        let n_state = self.b.len();
        scratch.clear();
        scratch.resize(n_state, 0.0);
        let (first, last) = (x[0], x[x.len() - 1]);
        scratch.extend(x[1..=nfact].iter().rev().map(|&v| 2.0 * first - v));
        scratch.extend_from_slice(x);
        scratch.extend(
            x[x.len() - 1 - nfact..x.len() - 1]
                .iter()
                .rev()
                .map(|&v| 2.0 * last - v),
        );
        let (z, ext) = scratch.split_at_mut(n_state);
        self.pass(z, ext[0], ext.iter_mut());
        self.pass(z, ext[ext.len() - 1], ext.iter_mut().rev());
        out.extend_from_slice(&ext[nfact..nfact + x.len()]);
    }
}

/// Zero-phase forward-backward filtering (MATLAB `filtfilt`); see
/// [`FiltFilt`], which row loops prepare once and reuse.
///
/// # Panics
/// Panics when `x` is shorter than `3·(max(len(a), len(b)) − 1) + 1`,
/// matching MATLAB's input-length requirement.
pub fn filtfilt(b: &[f64], a: &[f64], x: &[f64]) -> Vec<f64> {
    let (mut out, mut scratch) = (Vec::new(), Vec::new());
    FiltFilt::new(b, a).apply_into(x, &mut out, &mut scratch);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::butter::{butter, FilterBand};

    /// The allocate-extend-reverse implementation `FiltFilt` replaced
    /// (with its per-call initial-state solve), kept as the bit-exact
    /// reference.
    fn filtfilt_zi_reference(b: &[f64], a: &[f64]) -> Vec<f64> {
        let n = b.len().max(a.len());
        if n < 2 {
            return Vec::new();
        }
        let a0 = a[0];
        let bb: Vec<f64> = (0..n)
            .map(|i| b.get(i).copied().unwrap_or(0.0) / a0)
            .collect();
        let aa: Vec<f64> = (0..n)
            .map(|i| a.get(i).copied().unwrap_or(0.0) / a0)
            .collect();
        let m = n - 1;
        // M = I − K, where K has first column −a[1..] and an identity block
        // shifted right by one on its first m−1 rows.
        let mut mat = vec![0.0; m * m];
        for i in 0..m {
            mat[i * m + i] += 1.0;
            mat[i * m] += aa[i + 1];
            if i + 1 < m {
                mat[i * m + i + 1] -= 1.0;
            }
        }
        let rhs: Vec<f64> = (0..m).map(|i| bb[i + 1] - bb[0] * aa[i + 1]).collect();
        solve(&mat, &rhs, m).unwrap_or_else(|| vec![0.0; m])
    }

    fn filtfilt_reference(b: &[f64], a: &[f64], x: &[f64]) -> Vec<f64> {
        let nfilt = b.len().max(a.len());
        let nfact = 3 * (nfilt.saturating_sub(1));
        assert!(
            x.len() > nfact,
            "filtfilt input must be longer than 3*(order) = {nfact}, got {}",
            x.len()
        );
        if nfact == 0 {
            // Pure gain; forward-backward is just gain² (b[0]/a[0])².
            let g = b[0] / a[0];
            return x.iter().map(|&v| v * g * g).collect();
        }

        // Odd reflection padding.
        let first = x[0];
        let last = x[x.len() - 1];
        let mut ext = Vec::with_capacity(x.len() + 2 * nfact);
        for i in (1..=nfact).rev() {
            ext.push(2.0 * first - x[i]);
        }
        ext.extend_from_slice(x);
        for i in 1..=nfact {
            ext.push(2.0 * last - x[x.len() - 1 - i]);
        }

        let zi = filtfilt_zi_reference(b, a);

        // Forward pass.
        let zi_f: Vec<f64> = zi.iter().map(|&z| z * ext[0]).collect();
        let (mut y, _) = lfilter_zi(b, a, &ext, &zi_f);
        // Backward pass.
        y.reverse();
        let zi_b: Vec<f64> = zi.iter().map(|&z| z * y[0]).collect();
        let (mut y, _) = lfilter_zi(b, a, &y, &zi_b);
        y.reverse();

        y[nfact..nfact + x.len()].to_vec()
    }

    #[test]
    fn prepared_filter_has_the_reference_bits() {
        let x: Vec<f64> = (0..400)
            .map(|i| (i as f64 * 0.21).sin() + ((i * 7919) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        let filters = [
            butter(4, FilterBand::Bandpass(0.002, 0.096)),
            butter(3, FilterBand::Bandpass(0.05, 0.8)),
            butter(2, FilterBand::Lowpass(0.3)),
            butter(5, FilterBand::Highpass(0.4)),
            (vec![0.5, 0.25], vec![2.0]),
            (vec![3.0], vec![1.5]),
        ];
        for (b, a) in &filters {
            let prepared = FiltFilt::new(b, a);
            let edge = prepared.edge_len();
            assert_eq!(edge, 3 * (b.len().max(a.len()) - 1));
            let (mut out, mut scratch) = (vec![f64::NAN; 3], vec![f64::NAN; 7]);
            // from the shortest row the filter takes
            for n in [edge + 1, edge + 2, 2 * edge + 1, 97, 400] {
                let want = filtfilt_reference(b, a, &x[..n]);
                prepared.apply_into(&x[..n], &mut out, &mut scratch);
                assert_eq!(out, want, "{} coefficients over {n} samples", b.len());
                assert_eq!(filtfilt(b, a, &x[..n]), want);
            }
        }
    }

    #[test]
    fn lfilter_fir_is_convolution() {
        let b = [0.5, 0.25, 0.25];
        let a = [1.0];
        let x = [1.0, 0.0, 0.0, 0.0, 2.0];
        let y = lfilter(&b, &a, &x);
        assert_eq!(y, vec![0.5, 0.25, 0.25, 0.0, 1.0]);
    }

    #[test]
    fn lfilter_normalizes_by_a0() {
        let y1 = lfilter(&[1.0], &[2.0], &[4.0, 8.0]);
        assert_eq!(y1, vec![2.0, 4.0]);
    }

    #[test]
    fn lfilter_single_pole_impulse_response() {
        // y[n] = x[n] + 0.5 y[n−1]  →  impulse response 0.5^n
        let b = [1.0];
        let a = [1.0, -0.5];
        let mut x = vec![0.0; 8];
        x[0] = 1.0;
        let y = lfilter(&b, &a, &x);
        for (n, &v) in y.iter().enumerate() {
            assert!((v - 0.5f64.powi(n as i32)).abs() < 1e-12);
        }
    }

    #[test]
    fn lfilter_state_carries_across_chunks() {
        let b = [0.2, 0.3];
        let a = [1.0, -0.4];
        let x: Vec<f64> = (0..50).map(|i| ((i as f64) * 0.3).sin()).collect();
        let whole = lfilter(&b, &a, &x);
        let (y1, z) = lfilter_zi(&b, &a, &x[..20], &[0.0]);
        let (y2, _) = lfilter_zi(&b, &a, &x[20..], &z);
        let stitched: Vec<f64> = y1.into_iter().chain(y2).collect();
        for (a, b) in whole.iter().zip(&stitched) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn filtfilt_preserves_dc() {
        let (b, a) = butter(4, FilterBand::Lowpass(0.3));
        let x = vec![2.5; 200];
        let y = filtfilt(&b, &a, &x);
        for &v in &y {
            assert!((v - 2.5).abs() < 1e-6, "DC distorted: {v}");
        }
    }

    #[test]
    fn filtfilt_zero_phase_on_passband_tone() {
        // A slow sine passed through a lowpass must come out unshifted.
        let n = 500;
        let x: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * 0.02 * i as f64).sin())
            .collect();
        let (b, a) = butter(4, FilterBand::Lowpass(0.2));
        let y = filtfilt(&b, &a, &x);
        // Compare against the input directly (no lag): the peak of the
        // cross-correlation should be at zero lag.
        let mut best_lag = 0isize;
        let mut best = f64::MIN;
        for lag in -5isize..=5 {
            let mut acc = 0.0;
            for i in 100..n as isize - 100 {
                acc += x[i as usize] * y[(i + lag) as usize];
            }
            if acc > best {
                best = acc;
                best_lag = lag;
            }
        }
        assert_eq!(best_lag, 0, "filtfilt introduced a phase shift");
        // Amplitude preserved in the passband.
        let amp = y[100..400]
            .iter()
            .cloned()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!((amp - 1.0).abs() < 0.05, "passband amplitude {amp}");
    }

    #[test]
    fn filtfilt_attenuates_stopband() {
        let n = 600;
        // High-frequency tone at 0.9·Nyquist through a 0.2 lowpass.
        let x: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::PI * 0.9 * i as f64).sin())
            .collect();
        let (b, a) = butter(4, FilterBand::Lowpass(0.2));
        let y = filtfilt(&b, &a, &x);
        let amp = y[100..500]
            .iter()
            .cloned()
            .fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(amp < 1e-3, "stopband leak: {amp}");
    }

    #[test]
    fn filtfilt_pure_gain_path() {
        let y = filtfilt(&[2.0], &[1.0], &[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![4.0, 8.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "filtfilt input must be longer")]
    fn filtfilt_rejects_short_input() {
        let (b, a) = butter(4, FilterBand::Lowpass(0.3));
        filtfilt(&b, &a, &[1.0; 10]);
    }
}
