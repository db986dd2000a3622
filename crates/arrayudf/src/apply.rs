//! `Apply`: run a UDF over every (strided) cell of an array.
//!
//! [`apply`] is the sequential engine; [`apply_mt`] is the DASSA paper's
//! Algorithm 1 — the multithreaded Apply of the Hybrid ArrayUDF Execution
//! Engine, each thread writing the static block of results it owns.

use crate::array::Array2;
use crate::stencil::Stencil;

/// Declared stencil reach. Not used for bounds (the stencil clamps) but
/// for the distributed halo exchange, which must ship this many ghost
/// channels; kept on the apply signature so the serial, threaded, and
/// distributed engines take identical arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ghost {
    /// Maximum |time offset| the UDF will access.
    pub time: usize,
    /// Maximum |channel offset| the UDF will access.
    pub channel: usize,
}

impl Ghost {
    /// No neighbourhood (pointwise UDF).
    pub fn none() -> Ghost {
        Ghost::default()
    }

    /// Time-only reach (e.g. a moving average along one channel).
    pub fn time(t: usize) -> Ghost {
        Ghost {
            time: t,
            channel: 0,
        }
    }

    /// Reach in both dimensions.
    pub fn both(time: usize, channel: usize) -> Ghost {
        Ghost { time, channel }
    }
}

/// Output stride: the UDF runs on every `time`-th sample of every
/// `channel`-th channel (ArrayUDF's strip size; the paper's stacking
/// operations use a third-dimension strip the same way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stride {
    /// Step between evaluated time samples.
    pub time: usize,
    /// Step between evaluated channels.
    pub channel: usize,
}

impl Stride {
    /// Evaluate at every cell.
    pub fn unit() -> Stride {
        Stride {
            time: 1,
            channel: 1,
        }
    }

    /// Evaluate once per channel (whole-row UDFs like Algorithm 3): the
    /// stencil is pinned at `time == 0` and steps one channel at a time.
    pub fn per_channel(time_len: usize) -> Stride {
        Stride {
            time: time_len.max(1),
            channel: 1,
        }
    }
}

/// Output grid dimensions for an input of `rows × cols` under `stride`.
fn output_dims(rows: usize, cols: usize, stride: Stride) -> (usize, usize) {
    assert!(
        stride.time >= 1 && stride.channel >= 1,
        "stride must be >= 1"
    );
    (rows.div_ceil(stride.channel), cols.div_ceil(stride.time))
}

/// `B = Apply(A, f)` — sequential reference engine.
///
/// `f` sees a [`Stencil`] centred on each evaluated cell; its return
/// values form the output array (shape `ceil(rows/stride.channel) ×
/// ceil(cols/stride.time)`).
pub fn apply<T, R, F>(input: &Array2<T>, ghost: Ghost, stride: Stride, f: F) -> Array2<R>
where
    T: Copy,
    R: Copy + Default,
    F: Fn(&Stencil<T>) -> R,
{
    let _ = ghost; // reach is only needed by the distributed engine
    let (out_rows, out_cols) = output_dims(input.rows(), input.cols(), stride);
    let mut out = Vec::with_capacity(out_rows * out_cols);
    for r in (0..input.rows()).step_by(stride.channel) {
        for c in (0..input.cols()).step_by(stride.time) {
            let s = Stencil::new(input, r, c);
            out.push(f(&s));
        }
    }
    Array2::from_vec(out_rows, out_cols, out)
}

/// Algorithm 1: multithreaded Apply (`ApplyMT`).
///
/// The paper's `schedule(static)` loop appends each thread's results to
/// a private vector `Rp`, then a barrier, a `single` prefix scan over the
/// `Rp` sizes and a scatter `R[p[h-1] : p[h]] = Rp` place them. Every
/// evaluated cell yields exactly one result, so `p[h]` is the static
/// block boundary, known before the region: each thread's `Rp` *is* its
/// block of `R`, written in place ([`omp::for_blocks`]).
///
/// The result is therefore identical to [`apply`]'s — asserted by tests
/// and usable as a differential oracle.
pub fn apply_mt<T, R, F>(
    input: &Array2<T>,
    ghost: Ghost,
    stride: Stride,
    threads: usize,
    f: F,
) -> Array2<R>
where
    T: Copy + Sync,
    R: Copy + Default + Send + Sync,
    F: Fn(&Stencil<T>) -> R + Sync,
{
    let _ = ghost;
    let (out_rows, out_cols) = output_dims(input.rows(), input.cols(), stride);
    let out = apply_cells(out_rows * out_cols, threads, |i| {
        let (orow, ocol) = (i / out_cols, i % out_cols);
        f(&Stencil::new(
            input,
            orow * stride.channel,
            ocol * stride.time,
        ))
    });
    Array2::from_vec(out_rows, out_cols, out)
}

/// The body of Algorithm 1 shared by [`apply_mt`] and
/// [`crate::dist::apply_dist`]: evaluate `cell(i)` for every flattened
/// output cell `i` of `0..total`, each thread writing its static block.
pub(crate) fn apply_cells<R, F>(total: usize, threads: usize, cell: F) -> Vec<R>
where
    R: Copy + Default + Send,
    F: Fn(usize) -> R + Sync,
{
    let m = crate::metrics::metrics();
    m.apply_calls.inc();
    let mut out = vec![R::default(); total];
    // omp workers are fresh threads: forward the caller's rank tag so
    // their trace events land on the right process row of the timeline.
    let rank = obs::trace::current_rank();
    omp::for_blocks(threads, &mut out, 1, |cells, rp| {
        obs::trace::set_rank(rank);
        let _trace = obs::trace::scope("arrayudf.compute");
        let started = std::time::Instant::now();
        for (slot, i) in rp.iter_mut().zip(cells) {
            *slot = cell(i);
        }
        m.apply_thread_ns.record_duration(started.elapsed());
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(rows: usize, cols: usize) -> Array2<f64> {
        Array2::from_fn(rows, cols, |r, c| (r * 1000 + c) as f64)
    }

    #[test]
    fn pointwise_apply() {
        let a = grid(3, 4);
        let b = apply(&a, Ghost::none(), Stride::unit(), |s| s.value() * 2.0);
        assert_eq!(b.rows(), 3);
        assert_eq!(b.cols(), 4);
        assert_eq!(b.get(2, 3), 2.0 * 2003.0);
    }

    #[test]
    fn moving_average_interior_exact() {
        let a = Array2::from_fn(1, 10, |_, c| c as f64);
        let b = apply(&a, Ghost::time(1), Stride::unit(), |s| {
            (s.at(-1, 0) + s.at(0, 0) + s.at(1, 0)) / 3.0
        });
        for t in 1..9 {
            assert!((b.get(0, t) - t as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn strided_apply_dims() {
        let a = grid(10, 21);
        let b = apply(
            &a,
            Ghost::none(),
            Stride {
                time: 5,
                channel: 3,
            },
            |s| s.value(),
        );
        assert_eq!(b.rows(), 4); // ceil(10/3)
        assert_eq!(b.cols(), 5); // ceil(21/5)
        assert_eq!(b.get(1, 2), a.get(3, 10));
    }

    #[test]
    fn per_channel_stride_runs_once_per_row() {
        let a = grid(5, 32);
        let stride = Stride::per_channel(a.cols());
        let out = apply_mt(&a, Ghost::none(), stride, 2, |s| s.channel_series(0)[0]);
        assert_eq!(out.into_vec(), vec![0.0, 1000.0, 2000.0, 3000.0, 4000.0]);
    }

    #[test]
    fn apply_mt_matches_serial_all_thread_counts() {
        let a = grid(7, 13);
        let udf = |s: &Stencil<f64>| s.at(-1, 0) + 2.0 * s.at(0, 0) + s.at(0, 1);
        let serial = apply(&a, Ghost::both(1, 1), Stride::unit(), udf);
        for threads in [1usize, 2, 3, 4, 8] {
            let mt = apply_mt(&a, Ghost::both(1, 1), Stride::unit(), threads, udf);
            assert_eq!(mt, serial, "threads={threads}");
        }
    }

    #[test]
    fn apply_mt_strided_matches_serial() {
        let a = grid(9, 30);
        let stride = Stride {
            time: 7,
            channel: 2,
        };
        let udf = |s: &Stencil<f64>| s.value() + s.at(1, 0);
        let serial = apply(&a, Ghost::time(1), stride, udf);
        let mt = apply_mt(&a, Ghost::time(1), stride, 4, udf);
        assert_eq!(mt, serial);
    }

    #[test]
    fn apply_mt_more_threads_than_work() {
        let a = grid(1, 3);
        let mt = apply_mt(&a, Ghost::none(), Stride::unit(), 16, |s| s.value());
        assert_eq!(mt.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let a = Array2::<f64>::zeroed(0, 8);
        let b = apply(&a, Ghost::none(), Stride::unit(), |s| s.value());
        assert_eq!(b.rows(), 0);
        let mt = apply_mt(&a, Ghost::none(), Stride::unit(), 3, |s| s.value());
        assert_eq!(mt.rows(), 0);
    }

    #[test]
    #[should_panic(expected = "stride must be >= 1")]
    fn zero_stride_rejected() {
        let a = grid(2, 2);
        apply(
            &a,
            Ghost::none(),
            Stride {
                time: 0,
                channel: 1,
            },
            |s| s.value(),
        );
    }
}
