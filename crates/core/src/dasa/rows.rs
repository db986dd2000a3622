//! Per-row kernel chains over per-thread scratch.
//!
//! The VM's fused `apply` and `xcorr`, the distributed interferometry and
//! the stacked pipeline all do the same thing to a channel row: run a short chain of
//! [`dsp`] kernels over it, then (often) take its spectrum. The kernels
//! are prepared once per run ([`RowKernel`]: filter coefficients solved,
//! resampling FIR designed — for an order and a ratio inside the limits
//! its constructors hold), and each thread of a parallel region owns one
//! [`RowScratch`] and one [`RowFft`], so after a thread's first block
//! nothing on the row path allocates. Rows go through a scratch in
//! [`blocks`] of up to four, which is what lets the zero-phase filter and
//! the detrend/demean sums run four of them in lockstep; a row's result
//! does not depend on the block it was in.

use crate::{DassaError, Result};
use dsp::fft::plan;
use dsp::{
    butter, detrend_block_in_place, detrend_constant_block_in_place, one_bit_in_place,
    running_abs_mean_into, Complex, FftPlan, FiltFilt, FilterBand, Resampler, Whitener,
};
use std::ops::Range;
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

// One limit, written down twice because `dasl` depends on nothing: the
// front end refuses what the engine would refuse.
const _: () = assert!(dasl::MAX_BANDPASS_ORDER == dsp::butter::MAX_ORDER as u64);
const _: () = assert!(dasl::MAX_RESAMPLE_FACTOR == dsp::resample::MAX_FACTOR as u64);

impl RowKernel {
    /// The zero-phase Butterworth bandpass of `order` over `(lo, hi)`, in
    /// fractions of Nyquist. Order and corners reach here from program
    /// text and parameter structs, and `dsp` asserts on what it cannot
    /// design, so both are checked: a [`DassaError::BadSelection`] names
    /// the order limit ([`dsp::butter::MAX_ORDER`]) or the corners.
    pub(crate) fn bandpass(order: usize, lo: f64, hi: f64) -> Result<RowKernel> {
        let max = dsp::butter::MAX_ORDER;
        if order == 0 || order > max {
            return Err(DassaError::BadSelection(format!(
                "bandpass order {order} is outside 1..={max}: a Butterworth design in \
                 transfer-function form is no longer a stable filter at high order"
            )));
        }
        if !(lo > 0.0 && lo < hi && hi < 1.0) {
            return Err(DassaError::BadSelection(format!(
                "bandpass corners ({lo}, {hi}) must satisfy 0 < low < high < 1 (fractions of \
                 the Nyquist frequency)"
            )));
        }
        let (b, a) = butter(order, FilterBand::Bandpass(lo, hi));
        Ok(RowKernel::Filtfilt(FiltFilt::new(&b, &a)))
    }

    /// The resampler for rate `p/q`, or a [`DassaError::BadSelection`]
    /// when a factor is zero or the reduced ratio asks for an anti-alias
    /// FIR beyond [`dsp::resample::MAX_FACTOR`] (20 taps per unit of
    /// `max(p, q)`: an unchecked factor is an allocation of any size).
    pub(crate) fn resample(p: usize, q: usize) -> Result<RowKernel> {
        let max = dsp::resample::MAX_FACTOR;
        let too_long = |(p, q): (usize, usize)| p.max(q) > max;
        if p == 0 || q == 0 || too_long(dsp::resample::reduce(p, q)) {
            return Err(DassaError::BadSelection(format!(
                "resample({p}, {q}): factors must be positive and, reduced, at most {max} (the \
                 anti-alias filter has 20 taps per unit of the larger one); resample in stages"
            )));
        }
        Ok(RowKernel::Resample(Resampler::new(p, q)))
    }
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

/// Rows a [`RowScratch`] takes through a chain at once: the lockstep
/// width of [`FiltFilt`] and of the detrend/demean sums, the kernels
/// whose cost per row falls when rows travel together.
const BLOCK: usize = dsp::filter::LANES;

/// `range` cut into consecutive blocks of at most [`BLOCK`] rows — how a
/// thread walks the rows a static schedule gave it.
pub(crate) fn blocks(range: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    range
        .clone()
        .step_by(BLOCK)
        .map(move |start| start..(start + BLOCK).min(range.end))
}

/// One thread's row buffers: a block of rows, the block a kernel that
/// cannot work in place writes to, and what single kernels need beside
/// them.
#[derive(Default)]
pub(crate) struct RowScratch {
    rows: [Vec<f64>; BLOCK],
    spare: [Vec<f64>; BLOCK],
    /// `FiltFilt`'s interleaved extension, `Resampler`'s phases or the
    /// running-mean prefix sums, whichever stage is running.
    work: Vec<f64>,
    whiten: Vec<Complex>,
}

impl RowScratch {
    /// Run `chain` over a copy of `raw`; the result lives in the scratch
    /// until the next call. The chain must have passed [`chain_out_len`]
    /// for rows of this length.
    pub(crate) fn run(&mut self, raw: &[f64], chain: &[RowKernel]) -> &mut [f64] {
        &mut self.run_block([raw], chain)[0]
    }

    /// [`run`](Self::run) over up to [`BLOCK`] rows of one length, stage
    /// by stage; results come back in the order the rows went in. A full
    /// block goes through the zero-phase filter and the detrend/demean
    /// sums in lockstep, a shorter one row by row — with the same bits
    /// either way, so how rows fall into blocks never shows in an output.
    pub(crate) fn run_block<'a>(
        &mut self,
        raw: impl IntoIterator<Item = &'a [f64]>,
        chain: &[RowKernel],
    ) -> &mut [Vec<f64>] {
        let mut n = 0;
        for raw in raw {
            self.rows[n].clear();
            self.rows[n].extend_from_slice(raw);
            n += 1;
        }
        for kernel in chain {
            let (rows, spare) = (&mut self.rows[..n], &mut self.spare[..n]);
            match kernel {
                RowKernel::Detrend => detrend_block_in_place(rows),
                RowKernel::Demean => detrend_constant_block_in_place(rows),
                RowKernel::OneBit => rows.iter_mut().for_each(|r| one_bit_in_place(r)),
                RowKernel::RunningAbsMean(half) => {
                    for (row, out) in rows.iter().zip(spare) {
                        running_abs_mean_into(row, *half, out, &mut self.work);
                    }
                    std::mem::swap(&mut self.rows, &mut self.spare);
                }
                RowKernel::Filtfilt(f) => {
                    f.apply_block_into(rows, spare, &mut self.work);
                    std::mem::swap(&mut self.rows, &mut self.spare);
                }
                RowKernel::Resample(r) => {
                    for (row, out) in rows.iter().zip(spare) {
                        r.apply_into(row, out, &mut self.work);
                    }
                    std::mem::swap(&mut self.rows, &mut self.spare);
                }
                RowKernel::Whiten(w) => {
                    self.whiten.resize(w.scratch_len(), Complex::ZERO);
                    for row in rows {
                        w.apply_in_place(row, &mut self.whiten);
                    }
                }
            }
        }
        &mut self.rows[..n]
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
