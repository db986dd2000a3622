//! Property tests for ArrayUDF: the threaded engine, and row blocks
//! applied per rank then gathered, must equal the serial engine for
//! arbitrary shapes, rank counts, and strides.

use arrayudf::dist::{gather_rows, partition};
use arrayudf::{apply, apply_mt, Array2, Ghost, Stencil, Stride};
use proptest::prelude::*;

fn array(rows: usize, cols: usize, seed: u64) -> Array2<f64> {
    Array2::from_fn(rows, cols, |r, c| {
        let mut z = seed
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(((r * 10_007 + c) as u64).wrapping_mul(0xBF58476D1CE4E5B9));
        z ^= z >> 30;
        z = z.wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 27;
        (z % 1000) as f64 / 100.0 - 5.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn apply_mt_equals_apply(rows in 1usize..12, cols in 1usize..24,
                             threads in 1usize..6, seed in any::<u64>()) {
        let a = array(rows, cols, seed);
        let udf = |s: &Stencil<f64>| s.at(-1, 0) + 2.0 * s.value() - s.at(1, 1);
        let serial = apply(&a, Ghost::both(1, 1), Stride::unit(), udf);
        let mt = apply_mt(&a, Ghost::both(1, 1), Stride::unit(), threads, udf);
        prop_assert_eq!(serial, mt);
    }

    #[test]
    fn dist_equals_serial_for_random_geometry(
        rows in 1usize..16,
        cols in 2usize..20,
        ranks in 1usize..6,
        reach in 1usize..4,
        seed in any::<u64>(),
    ) {
        // Ranks own whole rows (some own none when ranks > rows), so a
        // UDF that reaches along time only sees the same cells either way.
        let a = array(rows, cols, seed);
        let g = Ghost::time(reach);
        let reach = reach as isize;
        let udf = move |s: &Stencil<f64>| s.at(-reach, 0) + s.value() * 3.0 + s.at(reach, 0);
        let serial = apply(&a, g, Stride::unit(), udf);
        let gathered = minimpi::run(ranks, |comm| {
            let own = partition(rows, comm.size(), comm.rank());
            let local = a.row_block(own.start, own.end);
            gather_rows(comm, apply_mt(&local, g, Stride::unit(), 2, udf)).unwrap()
        });
        prop_assert_eq!(gathered[0].clone().expect("root"), serial);
    }

    #[test]
    fn strided_time_dims(rows in 1usize..10, cols in 1usize..40,
                         stride_t in 1usize..7, seed in any::<u64>()) {
        let a = array(rows, cols, seed);
        let st = Stride { time: stride_t, channel: 1 };
        let out = apply(&a, Ghost::none(), st, |s| s.value());
        prop_assert_eq!(out.rows(), rows);
        prop_assert_eq!(out.cols(), cols.div_ceil(stride_t));
        // Each output samples the right input cell.
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                prop_assert_eq!(out.get(r, c), a.get(r, c * stride_t));
            }
        }
    }

    #[test]
    fn partition_is_total_and_balanced(total in 0usize..300, size in 1usize..20) {
        let mut covered = 0usize;
        let mut min_len = usize::MAX;
        let mut max_len = 0usize;
        for rank in 0..size {
            let r = partition(total, size, rank);
            prop_assert_eq!(r.start, covered, "contiguous");
            covered = r.end;
            min_len = min_len.min(r.len());
            max_len = max_len.max(r.len());
        }
        prop_assert_eq!(covered, total, "complete");
        prop_assert!(max_len - min_len <= 1, "balanced within one row");
    }
}
