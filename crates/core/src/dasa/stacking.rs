//! Window-stacked ambient-noise cross-correlation.
//!
//! The paper implements "the most expensive collection of processes" of
//! the traffic-noise interferometry workflow (Dou et al. 2017) —
//! Algorithm 3 is the per-channel kernel. The *full* workflow the paper
//! cites splits each channel into short windows, normalizes each
//! (temporally and spectrally), cross-correlates window-by-window with
//! the master channel, and **stacks** the correlations: coherent
//! traveltime signal adds linearly while noise adds as √N, so the
//! empirical Green's function emerges from hours of traffic noise.
//! This module implements that stacked pipeline on top of DasLib. The
//! 3-D `channel × lag × window` intermediate the paper's §IV mentions
//! ("a 3D data array with a striping size as the third dimension may be
//! produced" during stacking) is never materialised: each channel's
//! windows are accumulated in place.

use super::haee::Haee;
use super::rows::{blocks, chain_out_len, RowFft, RowKernel, RowScratch, Sample};
use crate::{DassaError, Result};
use arrayudf::Array2;
use dasl::StackSpec;
pub use dasl::TimeNorm;
use dsp::{Complex, Whitener};

/// Parameters of the stacked cross-correlation pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackingParams {
    /// Window length in samples.
    pub window: usize,
    /// Hop between successive windows (== `window` for no overlap).
    pub hop: usize,
    /// Butterworth bandpass corners (fractions of Nyquist).
    pub band: (f64, f64),
    /// Filter order.
    pub filter_order: usize,
    /// Temporal normalization.
    pub time_norm: TimeNorm,
    /// Apply spectral whitening over `band` before correlating.
    pub whiten: bool,
    /// Master channel index.
    pub master_channel: usize,
}

/// The defaults of a `dasl` `stack` stage.
impl Default for StackingParams {
    fn default() -> Self {
        StackSpec::default().into()
    }
}

impl From<StackSpec> for StackingParams {
    fn from(s: StackSpec) -> Self {
        StackingParams {
            window: s.window as usize,
            hop: s.hop as usize,
            band: s.band,
            filter_order: s.filter_order,
            time_norm: s.time_norm,
            whiten: s.whiten,
            master_channel: s.master as usize,
        }
    }
}

impl From<StackingParams> for StackSpec {
    fn from(p: StackingParams) -> Self {
        StackSpec {
            window: p.window as u64,
            hop: p.hop as u64,
            master: p.master_channel as u64,
            band: p.band,
            filter_order: p.filter_order,
            time_norm: p.time_norm,
            whiten: p.whiten,
        }
    }
}

impl StackingParams {
    /// Number of windows a series of `len` samples yields.
    pub fn n_windows(&self, len: usize) -> usize {
        if len >= self.window {
            (len - self.window) / self.hop.max(1) + 1
        } else {
            0
        }
    }
}

impl StackingParams {
    /// A window's preparation — detrend → bandpass → temporal norm →
    /// whiten — with everything that does not depend on the window
    /// (filter design and initial state, whitening weights) done once.
    /// An order or band the engine does not prepare is a
    /// [`DassaError::BadSelection`].
    fn chain(&self) -> Result<Vec<RowKernel>> {
        let mut chain = vec![
            RowKernel::Detrend,
            RowKernel::bandpass(self.filter_order, self.band.0, self.band.1)?,
        ];
        match self.time_norm {
            TimeNorm::None => {}
            TimeNorm::OneBit => chain.push(RowKernel::OneBit),
            TimeNorm::RunningAbsMean(half) => chain.push(RowKernel::RunningAbsMean(half)),
        }
        if self.whiten {
            let taper = (self.band.0 / 2.0).max(1e-3);
            let whitener = Whitener::new(self.window, self.band.0, self.band.1, taper);
            chain.push(RowKernel::Whiten(whitener));
        }
        Ok(chain)
    }
}

/// The result of stacking one channel against the master.
#[derive(Debug, Clone, PartialEq)]
pub struct StackedCorrelation {
    /// Stacked cross-correlation, zero lag at the centre
    /// (length = window size).
    pub stack: Vec<f64>,
    /// Number of windows accumulated.
    pub n_windows: usize,
}

impl StackedCorrelation {
    /// Lag (samples, may be negative) of the strongest peak.
    pub fn peak_lag(&self) -> isize {
        let mid = self.stack.len() as isize / 2;
        self.stack
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).expect("finite"))
            .map(|(i, _)| i as isize - mid)
            .unwrap_or(0)
    }

    /// Signal-to-noise ratio: |peak| over the RMS of the outer half of
    /// the lag axis (the conventional EGF quality metric).
    pub fn snr(&self) -> f64 {
        let n = self.stack.len();
        if n < 8 {
            return 0.0;
        }
        let peak = self.stack.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let tail: Vec<f64> = self.stack[..n / 8]
            .iter()
            .chain(&self.stack[n - n / 8..])
            .cloned()
            .collect();
        let rms = (tail.iter().map(|v| v * v).sum::<f64>() / tail.len() as f64).sqrt();
        if rms > 0.0 {
            peak / rms
        } else {
            f64::INFINITY
        }
    }
}

/// Pre-computed master-channel window spectra, shared per process —
/// the same memory-sharing story as Algorithm 3's `Mfft`, but one
/// spectrum per window.
#[derive(Debug, Clone)]
struct MasterWindows {
    spectra: Vec<Vec<Complex>>,
    params: StackingParams,
    chain: Vec<RowKernel>,
}

/// One thread's buffers for correlating windows against a master.
struct WindowCorrelator {
    rows: RowScratch,
    fft: RowFft,
    corr: Vec<f64>,
}

impl WindowCorrelator {
    fn new(window: usize) -> WindowCorrelator {
        WindowCorrelator {
            rows: RowScratch::default(),
            fft: RowFft::new(window),
            corr: vec![0.0; window],
        }
    }

    /// Mean over the windows of `raw` of the circular cross-correlation
    /// `IFFT(M* · S)` with the matching master window, zero lag at the
    /// centre; the windows are prepared a block at a time.
    fn stack<T: Sample>(&mut self, raw: &[T], master: &MasterWindows) -> StackedCorrelation {
        let p = &master.params;
        let len = p.window;
        let mut stack = vec![0.0f64; len];
        let n_windows = p.n_windows(raw.len()).min(master.spectra.len());
        for block in blocks(0..n_windows) {
            let windows = block.clone().map(|w| &raw[w * p.hop..w * p.hop + len]);
            let prepared = self.rows.run_block(windows, &master.chain);
            for (w, window) in block.zip(prepared) {
                let spec = self.fft.spectrum(window);
                for (s, &m) in spec.iter_mut().zip(&master.spectra[w]) {
                    *s = m.conj() * *s;
                }
                self.fft.inverse_real_into(&mut self.corr);
                // fftshift: zero lag at the centre, then accumulate — lags
                // 0, 1, … from the centre on, the negative ones before it.
                let (lags, negative_lags) = self.corr.split_at(len - len / 2);
                let (before, from_centre) = stack.split_at_mut(len / 2);
                for (s, v) in from_centre.iter_mut().zip(lags) {
                    *s += v;
                }
                for (s, v) in before.iter_mut().zip(negative_lags) {
                    *s += v;
                }
            }
        }
        if n_windows > 0 {
            let scale = 1.0 / n_windows as f64;
            for v in &mut stack {
                *v *= scale;
            }
        }
        StackedCorrelation { stack, n_windows }
    }
}

impl MasterWindows {
    /// Prepare every window of the master channel. A window too short
    /// for the zero-phase filter, or an order or band the engine does not
    /// prepare, is an error.
    fn prepare<T: Sample>(master_raw: &[T], p: &StackingParams) -> Result<MasterWindows> {
        let chain = p.chain()?;
        chain_out_len(&chain, p.window)?;
        let (mut rows, mut fft) = (RowScratch::default(), RowFft::new(p.window));
        let spectra = (0..p.n_windows(master_raw.len()))
            .map(|w| {
                let window = &master_raw[w * p.hop..w * p.hop + p.window];
                fft.spectrum(rows.run(window, &chain)).to_vec()
            })
            .collect();
        Ok(MasterWindows {
            spectra,
            params: *p,
            chain,
        })
    }
}

/// Run the stacked pipeline over every channel of `data` with HAEE
/// threads. Returns one [`StackedCorrelation`] per channel — the 3-D
/// `channel × lag × window` array of the paper's stacking description,
/// collapsed over its striping (third) dimension as it is produced.
pub fn stacked_interferometry<T: Sample>(
    data: &Array2<T>,
    params: &StackingParams,
    haee: &Haee,
) -> Result<Vec<StackedCorrelation>> {
    if params.master_channel >= data.rows() {
        return Err(DassaError::BadSelection(format!(
            "master channel {} out of range for {} channels",
            params.master_channel,
            data.rows()
        )));
    }
    if params.window == 0 || params.hop == 0 {
        return Err(DassaError::BadSelection(
            "window and hop must be positive".into(),
        ));
    }
    if params.n_windows(data.cols()) == 0 {
        return Err(DassaError::BadSelection(format!(
            "series of {} samples is shorter than one {}-sample window",
            data.cols(),
            params.window
        )));
    }
    let _root = obs::span("stacking");
    let master = {
        let _span = obs::span("prepare_master");
        MasterWindows::prepare(data.row(params.master_channel), params)?
    };
    let _span = obs::span("apply");
    let placeholder = StackedCorrelation {
        stack: Vec::new(),
        n_windows: 0,
    };
    let mut out = vec![placeholder; data.rows()];
    omp::for_blocks(haee.threads_per_process, &mut out, 1, |mine, out| {
        let mut correlator = WindowCorrelator::new(params.window);
        for (ch, slot) in mine.zip(out) {
            *slot = correlator.stack(data.row(ch), &master);
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-noise (splitmix mixer).
    fn noise(seed: u64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let mut z = seed
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add((i as u64).wrapping_mul(0xBF58476D1CE4E5B9));
                z ^= z >> 30;
                z = z.wrapping_mul(0x94D049BB133111EB);
                z ^= z >> 27;
                (z % 2_000_000) as f64 / 1_000_000.0 - 1.0
            })
            .collect()
    }

    /// Two channels sharing a common noise source with `delay` samples
    /// of moveout, plus independent local noise.
    fn delayed_pair(n: usize, delay: usize, local_amp: f64) -> Array2<f64> {
        let common = noise(1, n + delay);
        let l0 = noise(2, n);
        let l1 = noise(3, n);
        let mut data = Vec::with_capacity(2 * n);
        for i in 0..n {
            data.push(common[i + delay] + local_amp * l0[i]);
        }
        for i in 0..n {
            data.push(common[i] + local_amp * l1[i]);
        }
        Array2::from_vec(2, n, data)
    }

    fn params(window: usize) -> StackingParams {
        StackingParams {
            window,
            hop: window,
            band: (0.05, 0.8),
            filter_order: 3,
            time_norm: TimeNorm::OneBit,
            whiten: true,
            master_channel: 0,
        }
    }

    #[test]
    fn recovers_interchannel_delay() {
        let delay = 7usize;
        let data = delayed_pair(8192, delay, 0.5);
        let out = stacked_interferometry(&data, &params(512), &Haee::builder().threads(2).build())
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].peak_lag(), 0, "master vs itself");
        assert_eq!(
            out[1].peak_lag(),
            delay as isize,
            "stacked EGF must recover the moveout"
        );
    }

    #[test]
    fn snr_grows_with_stacking() {
        // More windows → cleaner Green's function. Compare SNR using 4
        // windows vs 16 windows of the same process.
        let delay = 5usize;
        let p = params(512);
        let short = delayed_pair(512 * 4, delay, 1.0);
        let long = delayed_pair(512 * 16, delay, 1.0);
        let snr_short = stacked_interferometry(&short, &p, &Haee::builder().threads(1).build())
            .unwrap()[1]
            .snr();
        let snr_long = stacked_interferometry(&long, &p, &Haee::builder().threads(1).build())
            .unwrap()[1]
            .snr();
        assert!(
            snr_long > snr_short,
            "stacking must improve SNR: {snr_short:.2} -> {snr_long:.2}"
        );
    }

    #[test]
    fn window_counts() {
        let p = params(100);
        assert_eq!(p.n_windows(99), 0);
        assert_eq!(p.n_windows(100), 1);
        assert_eq!(p.n_windows(350), 3);
        let mut overlapping = p;
        overlapping.hop = 50;
        assert_eq!(overlapping.n_windows(200), 3);
    }

    #[test]
    fn thread_count_invariance() {
        let data = delayed_pair(4096, 3, 0.8);
        let p = params(512);
        let a = stacked_interferometry(&data, &p, &Haee::builder().threads(1).build()).unwrap();
        let b = stacked_interferometry(&data, &p, &Haee::builder().threads(4).build()).unwrap();
        assert_eq!(a, b);
    }

    /// A channel's windows are prepared four at a time. Whatever the
    /// window count leaves over, and whichever thread owns the channel,
    /// the stack is the one a window at a time gives.
    #[test]
    fn window_blocks_never_show_in_a_stack() {
        let window = 64;
        for norm in [TimeNorm::OneBit, TimeNorm::RunningAbsMean(5)] {
            let mut p = params(window);
            p.time_norm = norm;
            // as many channels as windows: every remainder of both
            for n_win in [1usize, 2, 3, 4, 5, 8, 9, 17] {
                let len = n_win * window + 10;
                let data = Array2::from_vec(
                    n_win,
                    len,
                    (0..n_win)
                        .flat_map(|ch| noise(40 + ch as u64, len))
                        .collect(),
                );
                let master = MasterWindows::prepare(data.row(0), &p).unwrap();
                let want: Vec<StackedCorrelation> = (0..data.rows())
                    .map(|ch| {
                        // one window at a time: through the chain,
                        // transformed, multiplied, inverted
                        let (mut rows, mut fft) = (RowScratch::default(), RowFft::new(window));
                        let (mut stack, mut corr) = (vec![0.0; window], vec![0.0; window]);
                        for (w, mspec) in master.spectra.iter().enumerate() {
                            let raw = &data.row(ch)[w * p.hop..w * p.hop + window];
                            let spec = fft.spectrum(rows.run(raw, &master.chain));
                            for (s, &m) in spec.iter_mut().zip(mspec) {
                                *s = m.conj() * *s;
                            }
                            fft.inverse_real_into(&mut corr);
                            for (i, v) in corr.iter().enumerate() {
                                stack[(i + window / 2) % window] += v;
                            }
                        }
                        stack.iter_mut().for_each(|v| *v *= 1.0 / n_win as f64);
                        StackedCorrelation {
                            stack,
                            n_windows: n_win,
                        }
                    })
                    .collect();
                for threads in [1, 2, 3, 5] {
                    let haee = Haee::builder().threads(threads).build();
                    let got = stacked_interferometry(&data, &p, &haee).unwrap();
                    assert_eq!(
                        got, want,
                        "{n_win} x {n_win} windows, {norm:?}, {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn normalization_modes_all_run() {
        let data = delayed_pair(2048, 4, 0.5);
        for norm in [
            TimeNorm::None,
            TimeNorm::OneBit,
            TimeNorm::RunningAbsMean(20),
        ] {
            let mut p = params(512);
            p.time_norm = norm;
            let out =
                stacked_interferometry(&data, &p, &Haee::builder().threads(1).build()).unwrap();
            assert_eq!(out[1].stack.len(), 512);
            assert!(out[1].stack.iter().all(|v| v.is_finite()), "{norm:?}");
        }
    }

    #[test]
    fn one_bit_resists_a_transient() {
        // Inject a huge spike (an "earthquake") into the master channel;
        // with one-bit normalization the recovered delay survives.
        let delay = 6usize;
        let mut data = delayed_pair(8192, delay, 0.5);
        let spike_at = 2000;
        let old = data.get(0, spike_at);
        data.set(0, spike_at, old + 500.0);
        let mut p = params(512);
        p.time_norm = TimeNorm::OneBit;
        let out = stacked_interferometry(&data, &p, &Haee::builder().threads(1).build()).unwrap();
        assert_eq!(
            out[1].peak_lag(),
            delay as isize,
            "transient must not break the stack"
        );
    }

    #[test]
    fn errors_on_bad_params() {
        let data = delayed_pair(1024, 2, 0.5);
        let mut p = params(512);
        p.master_channel = 9;
        assert!(stacked_interferometry(&data, &p, &Haee::builder().threads(1).build()).is_err());
        let mut p = params(4096); // longer than the series
        p.master_channel = 0;
        assert!(stacked_interferometry(&data, &p, &Haee::builder().threads(1).build()).is_err());
        let mut p = params(512);
        p.hop = 0;
        assert!(stacked_interferometry(&data, &p, &Haee::builder().threads(1).build()).is_err());
    }
}
