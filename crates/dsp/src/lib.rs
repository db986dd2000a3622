//! `dsp` — DasLib: the DAS data-analysis kernel library.
//!
//! Section V-A of the DASSA paper introduces **DasLib**, a library of
//! "sequential, thread-safe" signal-processing operations whose names and
//! semantics follow MATLAB's Signal Processing Toolbox (the paper's
//! Table II). This crate is that library, implemented from scratch:
//!
//! | Paper (Table II)              | Here                                   |
//! |-------------------------------|----------------------------------------|
//! | `Das_abscorr(c1, c2)`         | [`abscorr`]                            |
//! | `Das_detrend(X)`              | [`detrend`], [`detrend_constant`]      |
//! | `Das_butter(n, fc)`           | [`butter`] (low/high/band-pass)        |
//! | `Das_filtfilt(c1, c2, X)`     | [`filtfilt`] (zero-phase IIR)          |
//! | `Das_resample(X, p, q)`       | [`resample`] (polyphase-style rational)|
//! | `Das_interp1(X0, Y0, X)`      | [`interp1`] (linear)                   |
//! | `Das_fft(X)` / `Das_ifft(X)`  | [`fft`], [`ifft`], [`fft_real`]        |
//!
//! What callers rely on — the thread-safety contract the paper's hybrid
//! execution engine (HAEE) needs when it fans a UDF out across OpenMP
//! threads:
//!
//! * **pure results** — every kernel's output is a function of its
//!   arguments alone;
//! * **thread-safe** — any kernel may run on any number of threads at
//!   once, on shared inputs, with no caller-side locking;
//! * **independent of cache state** — the one piece of process-wide
//!   state is the FFT plan cache behind [`fft::plan`], and a plan is a
//!   deterministic function of its length: a transform returns the same
//!   bits whether its plan was cached, evicted and rebuilt, built by
//!   another thread at the same moment, or never cached at all.
//!
//! * **lockstep lanes, one value's operations unchanged** — four
//!   kernels are a single floating-point dependency chain each: the
//!   direct-form recurrence of [`FiltFilt`] (sample `t+1` needs the state
//!   sample `t` left), the sample-by-sample sums of a row's [`detrend`]
//!   fit, the tap-by-tap sum behind one [`Resampler`] output, and the
//!   `dot`/`n2` sums behind one lag of [`max_abscorr_lags`]. The work
//!   *around* each chain is independent — across rows, across outputs,
//!   across lags — so these kernels advance several chains through one
//!   loop: the four rows of a block ([`FiltFilt::apply_block_into`],
//!   [`detrend_block_in_place`]), a group of outputs that share a
//!   polyphase branch, eight neighbouring lags. The FFT's Stockham passes
//!   do the same with butterflies: those of one column share their
//!   twiddles, so four of them advance together as split real and
//!   imaginary lane arrays. Chains run *side by side*, never *combined*:
//!   no sum is split, reordered or fused, each value is produced by the
//!   operations, in the order, that produce it alone, and so it has the
//!   same bits whichever lane it rode in, whatever rode beside it (a NaN
//!   row poisons its own lane only) and however the caller cut its rows
//!   into blocks. The one-at-a-time forms the lanes replaced live on as
//!   `#[cfg(test)]` references, and the equality is asserted bit for bit,
//!   in debug and in release. What selects a path is the row count, the
//!   filter's coefficient count and the instruction-set tier, never a
//!   Cargo feature or an environment variable.
//!
//!   Every lane kernel but `detrend` runs on a tier one CPU probe picks
//!   at run time: as compiled for the baseline `x86-64` target, or on a
//!   CPU with AVX2 as the same source compiled for it, four `f64` lanes
//!   to an instruction instead of two, with FMA left off so no multiply
//!   and add are fused. Lane counts are constants of the tier, sized for
//!   its sixteen vector registers: [`FiltFilt`]'s passes take four rows
//!   and [`max_abscorr_lags`] eight lags on either tier; the
//!   [`Resampler`] sums sixteen outputs at a time on the baseline and
//!   thirty-two on AVX2 (eight registers of either); the FFT passes go
//!   one butterfly at a time on the baseline and four at a time on AVX2,
//!   wherever a column has four. Each lane runs the same operations in
//!   the same order on either tier, so one build computes one thing on
//!   every machine, and the lane suites assert it on both.
//!
//! The plan cache is bounded: at most 16 plans and 4 MiB of tables,
//! least recently used out first (a 2500-point plan is 70 KB, a
//! 6000-point one 168 KB); a plan larger than the byte cap is built,
//! used and dropped. Its lock is held for a lookup, never while a plan
//! is built.
//!
//! Kernels whose set-up does not depend on the row come in two forms: a
//! prepared object for row loops — [`FftPlan`], [`FiltFilt`],
//! [`Resampler`], [`Whitener`], each applied through caller-owned
//! scratch so a row allocates nothing — and the MATLAB-shaped function
//! ([`fft()`], [`filtfilt()`], [`resample()`], [`whiten()`]) that prepares,
//! applies once and returns a fresh `Vec`. Both give the same bits.
//!
//! The MATLAB-shaped functions take what MATLAB takes. A caller whose
//! filter order or resampling ratio comes from outside the program bounds
//! them first, by [`butter::MAX_ORDER`] and [`resample::MAX_FACTOR`]:
//! both size what preparation builds.

#![deny(unsafe_code)]

pub mod butter;
pub mod complex;
pub mod correlate;
pub mod detrend;
pub mod fft;
pub mod filter;
pub mod hilbert;
pub mod interp;
pub mod linalg;
pub mod normalize;
pub mod resample;
pub mod stft;
#[allow(unsafe_code)]
mod tier;
pub mod whiten;
pub mod window;

pub use butter::{butter, FilterBand};
pub use complex::Complex;
pub use correlate::{
    abscorr, abscorr_complex, abscorr_complex_with_energy, abscorr_with_energy, energy,
    energy_complex, max_abscorr_lags, xcorr_direct, xcorr_fft, CorrMode,
};
pub use detrend::{
    detrend, detrend_block_in_place, detrend_constant, detrend_constant_block_in_place,
    detrend_constant_in_place, detrend_in_place,
};
pub use fft::{fft, fft_real, ifft, ifft_real, FftPlan};
pub use filter::{filtfilt, lfilter, lfilter_zi, FiltFilt};
pub use hilbert::{analytic, envelope};
pub use interp::interp1;
pub use normalize::{one_bit, one_bit_in_place, running_abs_mean, running_abs_mean_into};
pub use resample::{decimate, resample, Resampler};
pub use stft::{spectrogram, Spectrogram};
pub use whiten::{whiten, Whitener};
pub use window::{hann, kaiser};
