//! `omp` — the OpenMP-style static worksharing the DASSA engine runs on.
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
//! Its one rule is that each thread owns a contiguous static block of the
//! output. Rust has no OpenMP; this crate states that rule as one safe
//! construct, [`for_blocks`], which splits the output at the static
//! schedule's block boundaries and hands every thread its items together
//! with the `&mut` block it owns. Every output item of the engine's loops
//! is known before the region, so the barrier, the `single` and the
//! prefix scan that Algorithm 1 needs to place per-thread results are the
//! block split itself.
//!
//! # Example: a three-point moving average, OpenMP style
//! ```
//! let input: Vec<f64> = (0..100).map(|i| i as f64).collect();
//! let mut out = vec![0.0; input.len()];
//! omp::for_blocks(4, &mut out, 1, |items, block| {
//!     for (i, slot) in items.zip(block) {
//!         let lo = i.saturating_sub(1);
//!         let hi = (i + 1).min(input.len() - 1);
//!         *slot = (input[lo] + input[i] + input[hi]) / 3.0;
//!     }
//! });
//! assert!((out[50] - 50.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]

mod team;

pub use team::for_blocks;

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
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn num_procs_at_least_one() {
        assert!(num_procs() >= 1);
    }

    #[test]
    fn parallel_runs_every_thread_once() {
        let threads = Mutex::new(HashSet::new());
        for_blocks(7, &mut [0u8; 7], 1, |items, _| {
            assert_eq!(items.len(), 1);
            assert!(threads.lock().unwrap().insert(std::thread::current().id()));
        });
        let threads = threads.into_inner().unwrap();
        assert_eq!(threads.len(), 7);
        assert!(!threads.contains(&std::thread::current().id()));
    }

    #[test]
    fn single_thread_team_runs_inline() {
        let mut out = [0u8; 3];
        for_blocks(1, &mut out, 1, |items, block| {
            assert_eq!(items, 0..3);
            assert_eq!(block.len(), 3);
            block.fill(1);
        });
        assert_eq!(out, [1; 3]);
    }
}
