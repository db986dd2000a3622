//! DASA — the DAS data Analysis engine (paper §V).
//!
//! Couples DasLib kernels (the [`dsp`] crate) with the Hybrid ArrayUDF
//! Execution Engine ([`Haee`]) and ships the paper's two case-study
//! pipelines — earthquake detection by [`local_similarity`]
//! (Algorithm 2) and traffic-noise interferometry (Algorithm 3) — plus
//! window [stacking](stacked_interferometry). Each is an [`Analysis`]: a
//! named `dasl` program that the VM ([`execute`]) runs, bound at a
//! Nyquist of 1 so its band corners, fractions of Nyquist, keep their
//! bits. [`run`] is the one dispatcher.

mod haee;
mod interferometry;
mod local_similarity;
mod rows;
mod run;
mod stacking;
mod vm;

pub use haee::{Haee, HaeeBuilder};
pub use interferometry::{
    cross_correlation_with_master, interferometry_dist, prepare_master, preprocess_channel,
    InterferometryParams, MasterSpectrum,
};
pub use local_similarity::{local_similarity, LocalSimiParams};
pub use rows::Sample;
pub use run::{dataset_digest, run, Analysis, AnalysisOutput, Job};
pub use stacking::{stacked_interferometry, StackedCorrelation, StackingParams, TimeNorm};
pub use vm::{execute, BindProgram, BoundProgram};
