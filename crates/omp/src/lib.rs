//! `omp` — an OpenMP-style thread-team substrate.
//!
//! The DASSA paper extends ArrayUDF with a *hybrid MPI + OpenMP* execution
//! engine (HAEE, Section V-B). Its core algorithm, `ApplyMT` (Algorithm 1),
//! is written in OpenMP pragmas:
//!
//! ```c
//! #pragma omp parallel
//! {
//!     #pragma omp for schedule(static)
//!     ...
//!     #pragma omp barrier
//!     #pragma omp single
//!     ...
//! }
//! ```
//!
//! Rust has no OpenMP, so this crate reproduces exactly the constructs
//! Algorithm 1 uses, with the same fork-join semantics, and no others:
//!
//! * [`parallel`] — a parallel region executed by a team of threads
//!   (SPMD: every thread runs the same closure),
//! * [`Ctx::for_static`] — the `schedule(static)` worksharing loop,
//! * [`Ctx::barrier`], [`Ctx::single`],
//! * [`SharedSlice`] — a disjoint-write shared output buffer, needed for
//!   the final `R[p[h-1] : p[h]] = Rp` scatter of Algorithm 1.
//!
//! # Example: a three-point moving average, OpenMP style
//! ```
//! let input: Vec<f64> = (0..100).map(|i| i as f64).collect();
//! let out = omp::SharedSlice::zeroed(input.len());
//! omp::parallel(4, |ctx| {
//!     ctx.for_static(0..input.len(), |i| {
//!         let lo = i.saturating_sub(1);
//!         let hi = (i + 1).min(input.len() - 1);
//!         let avg = (input[lo] + input[i] + input[hi]) / 3.0;
//!         // Each index is written by exactly one thread.
//!         unsafe { out.write(i, avg) };
//!     });
//! });
//! let out = out.into_vec();
//! assert!((out[50] - 50.0).abs() < 1e-12);
//! ```

mod shared;
mod team;

pub use shared::SharedSlice;
pub use team::{parallel, Ctx};

/// Returns the "number of processors" a default team would use, analogous
/// to `omp_get_num_procs()`. Honors the `OMP_NUM_THREADS` environment
/// variable when set.
pub fn num_procs() -> usize {
    if let Ok(v) = std::env::var("OMP_NUM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn num_procs_at_least_one() {
        assert!(num_procs() >= 1);
    }

    #[test]
    fn parallel_runs_every_thread_once() {
        let count = AtomicUsize::new(0);
        parallel(7, |ctx| {
            assert_eq!(ctx.num_threads(), 7);
            assert!(ctx.thread_num() < 7);
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn single_thread_team_runs_inline() {
        let hit = std::sync::atomic::AtomicBool::new(false);
        parallel(1, |ctx| {
            assert_eq!(ctx.thread_num(), 0);
            ctx.barrier();
            ctx.single(|| hit.store(true, Ordering::Relaxed));
        });
        assert!(hit.load(Ordering::Relaxed));
    }
}
