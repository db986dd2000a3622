//! `arrayudf` — user-defined functions over multidimensional arrays with
//! structural locality.
//!
//! This crate reimplements the **ArrayUDF** system (Dong et al., HPDC'17)
//! that DASSA builds on, plus the multithreaded extension the DASSA paper
//! contributes (Algorithm 1):
//!
//! * [`Array2`] — a dense row-major 2-D array. DAS data is
//!   `channel × time`: row `c` is channel `c`'s time series.
//! * [`Stencil`] — the abstraction UDFs are written against: relative
//!   access to a cell's neighbourhood, `S(dt, dc)` with a *time* offset
//!   and a *channel* offset, matching the paper's `S(-M:M, +K)` notation.
//! * [`apply`] — run a UDF over every cell (optionally strided), like
//!   `B = Apply(A, f)`.
//! * [`apply_mt`] — Algorithm 1's `ApplyMT`: OpenMP-style static
//!   worksharing, each thread writing the block of results it owns.
//! * [`dist`] — MPI-style distribution: row-block partitioning and ghost
//!   zone (halo) exchange so per-rank applies need no communication
//!   during execution.
//!
//! # Example: three-point moving average
//! ```
//! use arrayudf::{apply, Array2, Ghost, Stride, Stencil};
//! let a = Array2::from_fn(1, 8, |_, t| t as f64);
//! let b = apply(&a, Ghost::time(1), Stride::unit(), |s: &Stencil<f64>| {
//!     (s.at(-1, 0) + s.at(0, 0) + s.at(1, 0)) / 3.0
//! });
//! assert_eq!(b.get(0, 4), 4.0); // interior: exact average
//! ```

#![forbid(unsafe_code)]

mod apply;
mod array;
pub mod dist;
pub mod metrics;
mod stencil;

pub use apply::{apply, apply_mt, Ghost, Stride};
pub use array::{Array2, TileView};
pub use stencil::Stencil;
