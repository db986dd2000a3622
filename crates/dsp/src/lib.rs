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
pub mod welch;
pub mod whiten;
pub mod window;

pub use butter::{butter, FilterBand};
pub use complex::Complex;
pub use correlate::{
    abscorr, abscorr_complex, abscorr_with_energy, energy, xcorr_direct, xcorr_fft, CorrMode,
};
pub use detrend::{detrend, detrend_constant, detrend_constant_in_place, detrend_in_place};
pub use fft::{fft, fft_real, ifft, ifft_real, FftPlan};
pub use filter::{filtfilt, lfilter, lfilter_zi, FiltFilt};
pub use hilbert::{analytic, envelope, instantaneous_phase};
pub use interp::interp1;
pub use normalize::{clip_std, one_bit, one_bit_in_place, running_abs_mean};
pub use resample::{decimate, resample, Resampler};
pub use stft::{spectrogram, Spectrogram};
pub use welch::{band_power, welch_psd};
pub use whiten::{whiten, Whitener};
pub use window::{hamming, hann, kaiser, tukey};
