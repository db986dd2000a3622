//! Traffic-noise interferometry (paper Algorithm 3).
//!
//! Ambient-noise interferometry turns incoherent traffic noise into
//! empirical Green's functions between channel pairs. The paper's UDF
//! runs per channel:
//!
//! ```text
//! W₁ = Das_detrend(W₀)
//! W₂ = Das_filtfilt(Das_butter(n, fc), W₁)
//! W₃ = Das_resample(W₂)
//! Wfft = Das_fft(W₃)
//! return Das_abscorr(Wfft, Mfft)        // vs the master channel
//! ```
//!
//! The master channel's spectrum `Mfft` is computed once per process and
//! shared by all threads — the memory asymmetry between pure-MPI and
//! hybrid execution that Figure 8 measures.

use super::haee::Haee;
use super::rows::{blocks, chain_out_len, RowFft, RowKernel, RowScratch, Sample};
use crate::{DassaError, Result};
use arrayudf::{dist, Array2};
use dsp::{abscorr_complex_with_energy, energy_complex, fft_real, ifft, Complex};
use minimpi::Comm;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};

/// Pipeline parameters for Algorithm 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterferometryParams {
    /// Butterworth order (`n` in `Das_butter(n, fc)`).
    pub filter_order: usize,
    /// Normalized bandpass corners `(low, high)` in `(0, 1)` of Nyquist.
    pub band: (f64, f64),
    /// Resampling ratio `p/q` (paper resamples with `Das_resample(X,1,R)`).
    pub resample_p: usize,
    /// Denominator of the resampling ratio.
    pub resample_q: usize,
    /// Index of the master channel to correlate everything against.
    pub master_channel: usize,
}

impl Default for InterferometryParams {
    fn default() -> Self {
        InterferometryParams {
            filter_order: 4,
            // 0.5–24 Hz band on 500 Hz data, normalized to Nyquist=250 Hz:
            band: (0.002, 0.096),
            resample_p: 1,
            resample_q: 2,
            master_channel: 0,
        }
    }
}

/// The master channel, fully pre-processed and transformed — `Mfft`.
#[derive(Debug, Clone)]
pub struct MasterSpectrum {
    /// Complex spectrum of the pre-processed master channel.
    pub spectrum: Vec<Complex>,
}

impl MasterSpectrum {
    /// Resident size in bytes — the quantity duplicated per process in
    /// pure-MPI mode (Figure 8's memory accounting).
    pub fn bytes(&self) -> u64 {
        (self.spectrum.len() * std::mem::size_of::<Complex>()) as u64
    }
}

impl InterferometryParams {
    /// The pre-processing stages shared by master and ordinary channels
    /// — detrend → zero-phase bandpass → resample — prepared once: the
    /// Butterworth design, the filter's initial state and the resampling
    /// FIR do not depend on the row. An order, band or ratio the engine
    /// does not prepare is a [`DassaError::BadSelection`].
    fn chain(&self) -> Result<[RowKernel; 3]> {
        Ok([
            RowKernel::Detrend,
            RowKernel::bandpass(self.filter_order, self.band.0, self.band.1)?,
            RowKernel::resample(self.resample_p, self.resample_q)?,
        ])
    }
}

/// Pre-processing stages shared by master and ordinary channels:
/// detrend → zero-phase bandpass → resample.
///
/// # Panics
/// Panics on parameters [`run`](super::run) reports as an error (filter
/// order, band or resampling ratio outside what the engine prepares) and
/// on a row too short to filter.
pub fn preprocess_channel(x: &[f64], p: &InterferometryParams) -> Vec<f64> {
    let chain = p.chain().unwrap_or_else(|e| panic!("{e}"));
    RowScratch::default().run(x, &chain).to_vec()
}

/// Compute `Mfft` from the master channel's raw time series.
pub fn prepare_master(raw_master: &[f64], p: &InterferometryParams) -> MasterSpectrum {
    MasterSpectrum {
        spectrum: fft_real(&preprocess_channel(raw_master, p)),
    }
}

/// Algorithm 3's per-channel UDF — pre-process, FFT, `|cos θ|` against
/// the master spectrum — over every row of `data` with the hybrid
/// engine's threads, each holding one scratch set and one FFT plan for
/// the whole region and taking its raw rows — widened as they enter the
/// scratch — through the chain a block at a time. The rows `scored`
/// already holds (the master's block) are not taken again, and the first
/// thread to start works in the buffers that took them.
pub(super) fn score_rows<T: Sample>(
    data: &Array2<T>,
    chain: &[RowKernel],
    master: &MasterSpectrum,
    scored: Scored,
    haee: &Haee,
) -> Vec<f64> {
    let mut out = vec![0.0; data.rows()];
    // Every row meets the one master spectrum: its energy is summed once.
    let n2 = energy_complex(&master.spectrum);
    let Scored {
        rows: skip,
        scores,
        buffers,
    } = scored;
    // the master block's buffers are warm: fresh ones pay for their
    // first block's allocations again
    let buffers = Mutex::new(buffers);
    omp::for_blocks(haee.threads_per_process, &mut out, 1, |mine, out| {
        let first = mine.start;
        let warm = buffers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let (mut rows, mut fft) =
            warm.unwrap_or_else(|| (RowScratch::default(), RowFft::new(master.spectrum.len())));
        let before = mine.start..skip.start.clamp(mine.start, mine.end);
        let after = skip.end.clamp(mine.start, mine.end)..mine.end;
        for block in blocks(before).chain(blocks(after)) {
            let processed = rows.run_block(block.clone().map(|ch| data.row(ch)), chain);
            for (ch, row) in block.zip(processed) {
                out[ch - first] =
                    abscorr_complex_with_energy(fft.spectrum(row), &master.spectrum, n2);
            }
        }
    });
    out[skip].copy_from_slice(&scores);
    out
}

/// Rows of an array already taken through the chain and scored, and the
/// buffers that took them.
#[derive(Default)]
pub(super) struct Scored {
    rows: Range<usize>,
    scores: Vec<f64>,
    buffers: Option<(RowScratch, RowFft)>,
}

/// `Mfft` of row `master` of `data` through an already prepared chain,
/// with the other rows of its block in [`blocks`] beside it — so they
/// keep their lockstep pass — and those rows' scores against it.
pub(super) fn master_block<T: Sample>(
    data: &Array2<T>,
    chain: &[RowKernel],
    master: usize,
    n_out: usize,
) -> (MasterSpectrum, Scored) {
    let rows = blocks(0..data.rows())
        .find(|block| block.contains(&master))
        .expect("the master channel is a row of the array");
    let mut scratch = RowScratch::default();
    let mut fft = RowFft::new(n_out);
    let processed = scratch.run_block(rows.clone().map(|ch| data.row(ch)), chain);
    let spectrum = fft.spectrum(&processed[master - rows.start]).to_vec();
    let n2 = energy_complex(&spectrum);
    let scores = processed
        .iter()
        .map(|row| abscorr_complex_with_energy(fft.spectrum(row), &spectrum, n2))
        .collect();
    let scored = Scored {
        rows,
        scores,
        buffers: Some((scratch, fft)),
    };
    (MasterSpectrum { spectrum }, scored)
}

/// Distributed variant. The master channel lives on the rank that owns
/// it; it is broadcast once (its *spectrum*), then each rank processes
/// its channel block. In pure-MPI mode every rank holds a master copy
/// (`processes × master.bytes()` per node); hybrid holds one.
///
/// Returns this rank's per-channel scores.
pub fn interferometry_dist<T: Sample>(
    comm: &Comm,
    local: &Array2<T>,
    total_channels: usize,
    params: &InterferometryParams,
    haee: &Haee,
) -> Result<Vec<f64>> {
    let own = dist::partition(total_channels, comm.size(), comm.rank());
    // Which rank owns the master channel?
    let owner = (0..comm.size())
        .find(|&r| dist::partition(total_channels, comm.size(), r).contains(&params.master_channel))
        .ok_or_else(|| {
            DassaError::BadSelection(format!(
                "master channel {} outside the {total_channels}-channel array",
                params.master_channel
            ))
        })?;
    let chain = params.chain()?;
    let n_out = chain_out_len(&chain, local.cols())?;
    let (payload, scored) = if comm.rank() == owner {
        let (master, scored) =
            master_block(local, &chain, params.master_channel - own.start, n_out);
        (Some(master.spectrum), scored)
    } else {
        (None, Scored::default())
    };
    let master = MasterSpectrum {
        spectrum: comm.bcast(owner, payload),
    };
    Ok(score_rows(local, &chain, &master, scored, haee))
}

/// Time-domain cross-correlation of a channel with the master — the
/// empirical Green's function estimate the interferometry workflow
/// ultimately stacks. Returned with zero lag at the centre.
pub fn cross_correlation_with_master(
    raw: &[f64],
    master: &MasterSpectrum,
    p: &InterferometryParams,
) -> Vec<f64> {
    let spectrum = fft_real(&preprocess_channel(raw, p));
    let n = spectrum.len().min(master.spectrum.len());
    let prod: Vec<Complex> = (0..n)
        .map(|k| master.spectrum[k].conj() * spectrum[k])
        .collect();
    let corr = ifft(&prod);
    // fftshift so lag 0 sits in the middle.
    let mut out: Vec<f64> = corr.iter().map(|z| z.re).collect();
    out.rotate_right(n / 2);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dasa::{run, Analysis};

    /// `Analysis::Interferometry(p)`'s scores on `threads` threads.
    fn scores(data: &Array2<f64>, p: &InterferometryParams, threads: usize) -> Result<Vec<f64>> {
        let haee = Haee::builder().threads(threads).build();
        let out = run(&Analysis::Interferometry(*p), data, &haee)?;
        Ok(out
            .as_scores()
            .expect("interferometry scores channels")
            .to_vec())
    }

    /// Band-limited deterministic test signal with per-channel phase.
    fn channel_signal(ch: usize, n: usize, coherent: bool) -> Vec<f64> {
        (0..n)
            .map(|t| {
                let tt = t as f64;
                if coherent {
                    // Same waveform, small channel-dependent delay.
                    (0.05 * (tt - ch as f64 * 2.0)).sin() + 0.3 * (0.023 * tt).sin()
                } else {
                    // Channel-unique frequencies.
                    (0.05 * tt * (1.0 + ch as f64 * 0.21)).sin()
                }
            })
            .collect()
    }

    fn array(channels: usize, n: usize, coherent: bool) -> Array2<f64> {
        let mut data = Vec::with_capacity(channels * n);
        for ch in 0..channels {
            data.extend(channel_signal(ch, n, coherent));
        }
        Array2::from_vec(channels, n, data)
    }

    fn params() -> InterferometryParams {
        InterferometryParams {
            filter_order: 3,
            band: (0.005, 0.2),
            resample_p: 1,
            resample_q: 2,
            master_channel: 0,
        }
    }

    #[test]
    fn preprocess_output_length() {
        let p = params();
        let x = channel_signal(0, 400, true);
        let y = preprocess_channel(&x, &p);
        assert_eq!(y.len(), 200);
        assert!(y.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn copy_of_the_master_correlates_to_one() {
        // Row 1 goes through the whole per-row path (row 0, the master,
        // is scored from its own spectrum).
        let x = channel_signal(0, 600, true);
        let data = Array2::from_vec(2, 600, [x.clone(), x].concat());
        let scores = scores(&data, &params(), 1).unwrap();
        assert!(
            (scores[1] - 1.0).abs() < 1e-9,
            "self-correlation = {}",
            scores[1]
        );
    }

    #[test]
    fn scores_lie_in_unit_interval() {
        let p = params();
        let data = array(6, 500, false);
        let scores = scores(&data, &p, 2).unwrap();
        assert_eq!(scores.len(), 6);
        for &s in &scores {
            assert!((0.0..=1.0 + 1e-9).contains(&s), "score {s}");
        }
        assert!((scores[0] - 1.0).abs() < 1e-9, "master scores 1 vs itself");
    }

    #[test]
    fn coherent_channels_score_higher() {
        let p = params();
        let coh = scores(&array(5, 600, true), &p, 2).unwrap();
        let inc = scores(&array(5, 600, false), &p, 2).unwrap();
        let mean = |v: &[f64]| v[1..].iter().sum::<f64>() / (v.len() - 1) as f64;
        assert!(
            mean(&coh) > mean(&inc),
            "coherent {:.3} vs incoherent {:.3}",
            mean(&coh),
            mean(&inc)
        );
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let p = params();
        let data = array(7, 400, true);
        let one = scores(&data, &p, 1).unwrap();
        let four = scores(&data, &p, 4).unwrap();
        assert_eq!(one, four);
    }

    #[test]
    fn dist_matches_single_process() {
        let p = params();
        let total = 9;
        let data = array(total, 400, true);
        let expected = scores(&data, &p, 1).unwrap();
        let blocks = minimpi::run(3, |comm| {
            let own = dist::partition(total, comm.size(), comm.rank());
            let local = data.row_block(own.start, own.end);
            interferometry_dist(comm, &local, total, &p, &Haee::builder().threads(2).build())
                .unwrap()
        });
        let gathered: Vec<f64> = blocks.into_iter().flatten().collect();
        for (a, b) in gathered.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn dist_master_on_nonzero_rank() {
        let mut p = params();
        let total = 8;
        p.master_channel = 6; // owned by the last rank when size=2
        let data = array(total, 400, true);
        let expected = scores(&data, &p, 1).unwrap();
        let blocks = minimpi::run(2, |comm| {
            let own = dist::partition(total, comm.size(), comm.rank());
            let local = data.row_block(own.start, own.end);
            interferometry_dist(comm, &local, total, &p, &Haee::builder().threads(1).build())
                .unwrap()
        });
        let gathered: Vec<f64> = blocks.into_iter().flatten().collect();
        for (a, b) in gathered.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn master_out_of_range_rejected() {
        let mut p = params();
        p.master_channel = 99;
        let data = array(3, 400, true);
        assert!(matches!(
            scores(&data, &p, 1),
            Err(DassaError::BadSelection(_))
        ));
    }

    #[test]
    fn cross_correlation_peak_reflects_delay() {
        // Channel delayed vs master → correlation peak off centre, on the
        // correct side.
        let p = InterferometryParams {
            filter_order: 3,
            band: (0.01, 0.4),
            resample_p: 1,
            resample_q: 1,
            master_channel: 0,
        };
        let n = 512;
        let base: Vec<f64> = (0..n)
            .map(|t| ((t as f64) * 0.11).sin() + 0.5 * ((t as f64) * 0.053).sin())
            .collect();
        let master = prepare_master(&base, &p);
        let self_corr = cross_correlation_with_master(&base, &master, &p);
        let peak_self = self_corr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let mid = self_corr.len() / 2;
        assert_eq!(peak_self, mid, "self-correlation peaks at zero lag");

        let delayed: Vec<f64> = (0..n)
            .map(|t| if t >= 9 { base[t - 9] } else { 0.0 })
            .collect();
        let corr = cross_correlation_with_master(&delayed, &master, &p);
        let peak = corr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            (peak as isize - mid as isize - 9).abs() <= 2,
            "peak at {peak}, expected near {}",
            mid + 9
        );
    }

    #[test]
    fn master_bytes_accounting() {
        let p = params();
        let master = prepare_master(&channel_signal(0, 400, true), &p);
        assert_eq!(master.bytes(), (200 * 16) as u64);
    }
}
