//! Distribution across ranks: row-block partitioning and the gather of
//! row blocks back to one rank.
//!
//! ArrayUDF's pure-MPI model (paper §II-B) extends each rank's partition
//! with a ghost zone of neighbour rows and applies the UDF per rank. The
//! hybrid engine (§V-B) keeps one rank per node and fans the array
//! across OpenMP threads instead, and that is the only engine here:
//! ranks read their channel blocks ([`partition`]), [`gather_rows`]
//! stacks them on rank 0, and the analysis runs there once, with no
//! halo exchange.

use crate::array::Array2;
use minimpi::{Comm, CommError};
use std::ops::Range;

/// Balanced contiguous row partition: the first `total % size` ranks own
/// one extra row.
pub fn partition(total: usize, size: usize, rank: usize) -> Range<usize> {
    assert!(rank < size, "rank {rank} out of range for size {size}");
    let base = total / size;
    let extra = total % size;
    let start = rank * base + rank.min(extra);
    let len = base + usize::from(rank < extra);
    start..(start + len).min(total)
}

/// Gather per-rank output blocks to rank 0, stacked in rank order:
/// `Some` there, `None` on the other ranks. Each block counts its
/// samples' bytes in `minimpi.p2p.bytes`.
pub fn gather_rows<R: Copy + Default + Send + 'static>(
    comm: &Comm,
    local_out: Array2<R>,
) -> Result<Option<Array2<R>>, CommError> {
    let cols = local_out.cols();
    let Some(blocks) = comm.try_gather(0, local_out.into_vec())? else {
        return Ok(None);
    };
    let arrays: Vec<Array2<R>> = blocks
        .into_iter()
        .map(|v| {
            let rows = v.len().checked_div(cols).unwrap_or(0);
            Array2::from_vec(rows, cols, v)
        })
        .collect();
    Ok(Some(Array2::vstack(&arrays)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apply, apply_mt, Ghost, Stencil, Stride};

    #[test]
    fn partition_covers_disjointly() {
        for total in [0usize, 1, 7, 100, 101] {
            for size in [1usize, 2, 3, 7, 13] {
                let mut next = 0;
                for rank in 0..size {
                    let r = partition(total, size, rank);
                    assert_eq!(r.start, next, "gap at rank {rank}");
                    next = r.end;
                }
                assert_eq!(next, total);
            }
        }
    }

    #[test]
    fn partition_is_balanced() {
        for rank in 0..4 {
            let len = partition(10, 4, rank).len();
            assert!(len == 2 || len == 3);
        }
    }

    /// Each rank applies `stride` to its [`partition`] block of `global`
    /// with `threads` threads; rank 0 gathers the blocks.
    fn gathered(
        global: &Array2<f64>,
        ranks: usize,
        stride: Stride,
        threads: usize,
        udf: impl Fn(&Stencil<f64>) -> f64 + Sync,
    ) -> Array2<f64> {
        let outs = minimpi::run(ranks, |comm| {
            let own = partition(global.rows(), comm.size(), comm.rank());
            let local = global.row_block(own.start, own.end);
            gather_rows(
                comm,
                apply_mt(&local, Ghost::time(1), stride, threads, &udf),
            )
            .unwrap()
        });
        assert!(
            outs[1..].iter().all(Option::is_none),
            "only the root gathers"
        );
        outs[0].clone().expect("root gathers")
    }

    #[test]
    fn dist_apply_equals_serial() {
        let total = 16;
        let global = Array2::from_fn(total, 9, |r, c| (r * 100 + c) as f64);
        let udf = |s: &Stencil<f64>| s.at(-1, 0) + 2.0 * s.value() + s.at(1, 0);
        let serial = apply(&global, Ghost::time(1), Stride::unit(), udf);
        for ranks in [1usize, 2, 3, 5] {
            let got = gathered(&global, ranks, Stride::unit(), 2, udf);
            assert_eq!(got, serial, "ranks={ranks}");
        }
    }

    #[test]
    fn dist_apply_strided_time() {
        let total = 8;
        let global = Array2::from_fn(total, 12, |r, c| (r * 12 + c) as f64);
        let udf = |s: &Stencil<f64>| s.value();
        let stride = Stride {
            time: 4,
            channel: 1,
        };
        let serial = apply(&global, Ghost::none(), stride, udf);
        assert_eq!(gathered(&global, 3, stride, 1, udf), serial);
    }

    /// Rank 1's block reaches rank 0 as its f32 samples' bytes: the
    /// gather raises `minimpi.p2p.bytes` by exactly that much.
    #[test]
    fn gather_rows_counts_the_bytes_it_moves() {
        let global = Array2::from_fn(7, 1000, |r, c| (r * 1000 + c) as f32);
        let (out, stats) = minimpi::run_with_stats(2, |comm| {
            let own = partition(global.rows(), comm.size(), comm.rank());
            let rows = own.len() as u64;
            let gathered = gather_rows(comm, global.row_block(own.start, own.end)).unwrap();
            (gathered, rows)
        });
        assert_eq!(out[0].0.as_ref(), Some(&global));
        assert_eq!(out[1].0, None);
        assert_eq!(stats.p2p_messages, 1);
        assert_eq!(stats.p2p_bytes, out[1].1 * 1000 * 4);
    }

    #[test]
    fn more_ranks_than_rows() {
        // Two of four ranks own empty blocks: they gather as no rows.
        let total = 2;
        let global = Array2::from_fn(total, 3, |r, c| (r + c) as f64);
        let udf = |s: &Stencil<f64>| s.value() + 1.0;
        let serial = apply(&global, Ghost::none(), Stride::unit(), udf);
        assert_eq!(gathered(&global, 4, Stride::unit(), 1, udf), serial);
    }
}
