//! Shared harness for the experiment binaries (`exp_*`).
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! DASSA paper. This library provides the pieces they share: wall-clock
//! timing, local calibration of the `perfmodel` cost model, standard
//! scaled-down datasets, and tabular/CSV reporting.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod datasets;
pub mod report;

use std::time::Instant;

/// Time a closure, returning `(result, seconds)`.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Time a closure, repeating until at least `min_time_s` has elapsed,
/// and return the mean seconds per run — for an experiment that just
/// needs one stable number (measurements with spread are `das_bench`'s).
pub fn time_stable<R>(min_time_s: f64, mut f: impl FnMut() -> R) -> f64 {
    let mut runs = 0u32;
    let t0 = Instant::now();
    loop {
        let r = f();
        std::hint::black_box(&r);
        runs += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed >= min_time_s || runs >= 1000 {
            return elapsed / runs as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn time_measures_something() {
        let ((), secs) = super::time(|| std::thread::sleep(std::time::Duration::from_millis(5)));
        assert!(secs >= 0.004);
    }

    #[test]
    fn time_stable_returns_mean() {
        let t = super::time_stable(0.01, || 1 + 1);
        assert!(t > 0.0 && t < 0.01);
    }
}
