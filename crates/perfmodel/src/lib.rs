//! `perfmodel` — an analytic cost model of a Cori-class supercomputer.
//!
//! The DASSA paper's headline experiments run on up to 1456 Cori nodes
//! (11,648 cores) against a Lustre file system — scales unreachable
//! outside NERSC. This crate reproduces the *shape* of those results
//! (Figures 7, 8, 11) from first principles:
//!
//! * [`Machine`] — node, network (α–β), and Lustre (bandwidth + IOPS)
//!   parameters, with [`Machine::cori_haswell`] defaults taken from the
//!   published system configuration;
//! * [`Calibration`] — per-kernel rates measured on the local machine by
//!   the benchmark harness (compute throughput, file-open cost), so the
//!   model's absolute numbers are anchored to real measurements;
//! * cost functions for reads ([`Machine::read_time`]), broadcasts,
//!   and all-to-all exchanges, parameterized by the *message counts the
//!   real implementation produces* (observable via `minimpi`'s
//!   [`CommStats`](../minimpi/struct.CommStats.html));
//! * experiment models: [`experiments::model_fig7`],
//!   [`experiments::model_fig8`], [`experiments::model_fig11`].
//!
//! The model's claims are tested qualitatively (who wins, where the
//! knees are), mirroring how the paper's evaluation is read.

#![forbid(unsafe_code)]

pub mod experiments;
mod machine;
pub mod tuner;

pub use machine::{Calibration, CalibrationWorkload, Machine};
pub use tuner::{recommend, Objective, Recommendation};
