//! Per-row kernel chains over per-thread scratch.
//!
//! The VM's fused `apply`, the hand-wired interferometry and the stacked
//! pipeline all do the same thing to a channel row: run a short chain of
//! [`dsp`] kernels over it, then (often) take its spectrum. The kernels
//! are prepared once per run ([`RowKernel`]: filter coefficients solved,
//! resampling FIR designed), and each thread of a parallel region owns one
//! [`RowScratch`] and one [`RowFft`], so after a thread's first row
//! nothing on the row path allocates.

use crate::{DassaError, Result};
use dsp::fft::plan;
use dsp::{
    detrend_constant_in_place, detrend_in_place, one_bit_in_place, running_abs_mean, Complex,
    FftPlan, FiltFilt, Resampler, Whitener,
};
use std::sync::Arc;

/// One element-wise stage with its prepare-once state.
#[derive(Debug, Clone)]
pub(crate) enum RowKernel {
    Detrend,
    Demean,
    OneBit,
    /// Running-absolute-mean normalization with this half-window.
    RunningAbsMean(usize),
    Filtfilt(FiltFilt),
    Resample(Resampler),
    Whiten(Whitener),
}

/// Row length after `chain` runs over `n_in`-sample rows, or a
/// [`DassaError::BadSelection`] naming the zero-phase filter stage whose
/// input is not longer than the `3·(max(len a, len b) − 1)` samples it
/// reflects onto each end ([`FiltFilt`] panics on such a row).
pub(crate) fn chain_out_len(chain: &[RowKernel], n_in: usize) -> Result<usize> {
    let mut n = n_in;
    for (i, kernel) in chain.iter().enumerate() {
        match kernel {
            RowKernel::Filtfilt(f) if n <= f.edge_len() => {
                return Err(DassaError::BadSelection(format!(
                    "stage {} of the kernel chain (zero-phase bandpass) needs rows longer than \
                     {} samples (3 x filter order), got {n}",
                    i + 1,
                    f.edge_len()
                )));
            }
            RowKernel::Resample(r) => n = r.out_len(n),
            _ => {}
        }
    }
    Ok(n)
}

/// One thread's row buffers.
#[derive(Default)]
pub(crate) struct RowScratch {
    row: Vec<f64>,
    spare: Vec<f64>,
    filt: Vec<f64>,
    whiten: Vec<Complex>,
}

impl RowScratch {
    /// Run `chain` over a copy of `raw`; the result lives in the scratch
    /// until the next call. The chain must have passed [`chain_out_len`]
    /// for rows of this length.
    pub(crate) fn run(&mut self, raw: &[f64], chain: &[RowKernel]) -> &mut [f64] {
        self.row.clear();
        self.row.extend_from_slice(raw);
        for kernel in chain {
            match kernel {
                RowKernel::Detrend => detrend_in_place(&mut self.row),
                RowKernel::Demean => detrend_constant_in_place(&mut self.row),
                RowKernel::OneBit => one_bit_in_place(&mut self.row),
                RowKernel::RunningAbsMean(half) => self.row = running_abs_mean(&self.row, *half),
                RowKernel::Filtfilt(f) => {
                    f.apply_into(&self.row, &mut self.spare, &mut self.filt);
                    std::mem::swap(&mut self.row, &mut self.spare);
                }
                RowKernel::Resample(r) => {
                    r.apply_into(&self.row, &mut self.spare);
                    std::mem::swap(&mut self.row, &mut self.spare);
                }
                RowKernel::Whiten(w) => {
                    self.whiten.resize(w.scratch_len(), Complex::ZERO);
                    w.apply_in_place(&mut self.row, &mut self.whiten);
                }
            }
        }
        &mut self.row
    }
}

/// One thread's real-input transform of rows of one length: the shared
/// plan (fetched once, here) and the buffers it works in.
pub(crate) struct RowFft {
    /// `None` for zero-length rows, whose spectrum is empty.
    plan: Option<Arc<FftPlan>>,
    spectrum: Vec<Complex>,
    scratch: Vec<Complex>,
}

impl RowFft {
    pub(crate) fn new(n: usize) -> RowFft {
        let plan = (n > 0).then(|| plan(n));
        RowFft {
            spectrum: vec![Complex::ZERO; n],
            scratch: vec![Complex::ZERO; plan.as_ref().map_or(0, |p| p.scratch_len())],
            plan,
        }
    }

    /// Full spectrum of `row`, valid until the next call.
    pub(crate) fn spectrum(&mut self, row: &[f64]) -> &mut [Complex] {
        if let Some(plan) = &self.plan {
            plan.forward_real_into(row, &mut self.spectrum, &mut self.scratch);
        }
        &mut self.spectrum
    }

    /// Real part of the inverse transform of the spectrum last returned
    /// (as the caller left it) into `out`.
    pub(crate) fn inverse_real_into(&mut self, out: &mut [f64]) {
        if let Some(plan) = &self.plan {
            plan.inverse_real_into(&self.spectrum, out, &mut self.scratch);
        }
    }
}
