//! Distributed execution: row-block partitioning, ghost-zone exchange,
//! and an MPI-parallel Apply.
//!
//! ArrayUDF's execution model (paper §II-B): the array is partitioned
//! across MPI processes, each partition is extended with a ghost zone of
//! neighbour rows, and the UDF then runs with **no communication during
//! execution**. The hybrid engine (§V-B) keeps one rank per node and
//! fans the rank's partition across OpenMP threads.

use crate::apply::{apply_cells, Ghost, Stride};
use crate::array::Array2;
use crate::stencil::Stencil;
use minimpi::Comm;
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

/// Tag space for halo messages (below minimpi's internal collective tags).
const TAG_HALO_UP: u32 = 0x7001; // data flowing to rank−1
const TAG_HALO_DOWN: u32 = 0x7002; // data flowing to rank+1

/// Exchange ghost rows with neighbouring ranks.
///
/// `local` is this rank's owned row block of a `total_rows`-row global
/// array partitioned with [`partition`]. Returns the extended block
/// (halo + owned + halo) and the offset of the first owned row within
/// it.
pub fn exchange_halo<T: Copy + Default + Send + 'static>(
    comm: &Comm,
    local: &Array2<T>,
    total_rows: usize,
    ghost_channels: usize,
) -> (Array2<T>, usize) {
    let (rank, size) = (comm.rank(), comm.size());
    let own = partition(total_rows, size, rank);
    assert_eq!(
        local.rows(),
        own.len(),
        "local block does not match partition({total_rows}, {size}, {rank})"
    );
    if ghost_channels == 0 || size == 1 {
        return (local.clone(), 0);
    }
    let m = crate::metrics::metrics();
    m.halo_exchanges.inc();
    let _trace = obs::trace::scope_in(comm.registry(), "arrayudf.halo");
    let halo_started = std::time::Instant::now();
    // Single-hop exchange: each rank's halo comes from its immediate
    // neighbours only, so the declared reach must fit inside the
    // smallest partition (the classic ghost-zone constraint; ArrayUDF
    // shares it). The smallest partition is the last rank's.
    let min_len = partition(total_rows, size, size - 1).len();
    assert!(
        ghost_channels <= min_len,
        "ghost reach {ghost_channels} exceeds the smallest rank partition ({min_len} rows); \
         use fewer ranks or a smaller stencil reach"
    );

    // How many rows each side can actually contribute.
    let up_avail = if rank > 0 {
        partition(total_rows, size, rank - 1)
            .len()
            .min(ghost_channels)
    } else {
        0
    };
    let down_avail = if rank + 1 < size {
        partition(total_rows, size, rank + 1)
            .len()
            .min(ghost_channels)
    } else {
        0
    };
    // Rows we must ship: our top rows to rank−1, bottom rows to rank+1.
    let send_up = if rank > 0 {
        local.rows().min(ghost_channels)
    } else {
        0
    };
    let send_down = if rank + 1 < size {
        local.rows().min(ghost_channels)
    } else {
        0
    };

    // Post sends first (eager buffered), then receive: no deadlock.
    if send_up > 0 {
        let block = local.row_block(0, send_up);
        comm.send_vec(rank - 1, TAG_HALO_UP, block.into_vec());
    }
    if send_down > 0 {
        let block = local.row_block(local.rows() - send_down, local.rows());
        comm.send_vec(rank + 1, TAG_HALO_DOWN, block.into_vec());
    }
    let top: Vec<T> = if up_avail > 0 {
        comm.recv(rank - 1, TAG_HALO_DOWN)
    } else {
        Vec::new()
    };
    let bottom: Vec<T> = if down_avail > 0 {
        comm.recv(rank + 1, TAG_HALO_UP)
    } else {
        Vec::new()
    };

    m.halo_bytes
        .add(((top.len() + bottom.len()) * std::mem::size_of::<T>()) as u64);
    m.halo_ns.record_duration(halo_started.elapsed());

    let cols = local.cols();
    let top_rows = top.len() / cols.max(1);
    let bottom_rows = bottom.len() / cols.max(1);
    let mut data = Vec::with_capacity((top_rows + local.rows() + bottom_rows) * cols);
    data.extend_from_slice(&top);
    data.extend_from_slice(local.as_slice());
    data.extend_from_slice(&bottom);
    (
        Array2::from_vec(top_rows + local.rows() + bottom_rows, cols, data),
        top_rows,
    )
}

/// Distributed `Apply`: each rank evaluates the UDF on its owned rows of
/// a `total_rows × cols` global array, using `threads` OpenMP-style
/// threads per rank (the hybrid engine; `threads = 1` reproduces the
/// original pure-MPI ArrayUDF).
///
/// Returns this rank's block of the output array. Results across ranks
/// concatenate (in rank order) to exactly the serial
/// [`crate::apply`] output as long as `ghost.channel` covers the UDF's
/// true channel reach and `stride.channel == 1`.
pub fn apply_dist<T, R, F>(
    comm: &Comm,
    local: &Array2<T>,
    total_rows: usize,
    ghost: Ghost,
    stride: Stride,
    threads: usize,
    f: F,
) -> Array2<R>
where
    T: Copy + Default + Send + Sync + 'static,
    R: Copy + Default + Send + Sync + 'static,
    F: Fn(&Stencil<T>) -> R + Sync,
{
    assert!(
        stride.time >= 1 && stride.channel >= 1,
        "stride must be >= 1"
    );
    let own = partition(total_rows, comm.size(), comm.rank());
    let (extended, offset) = exchange_halo(comm, local, total_rows, ghost.channel);

    // Global rows this rank evaluates (global stride grid ∩ owned range).
    let eval_rows: Vec<usize> = (own.start..own.end)
        .filter(|g| g % stride.channel == 0)
        .collect();
    let out_cols = local.cols().div_ceil(stride.time);
    let out = apply_cells(eval_rows.len() * out_cols, threads, |i| {
        let (ri, ci) = (i / out_cols, i % out_cols);
        let local_row = eval_rows[ri] - own.start + offset;
        f(&Stencil::new(&extended, local_row, ci * stride.time))
    });
    Array2::from_vec(eval_rows.len(), out_cols, out)
}

/// Gather per-rank output blocks to `root`, stacked in rank order.
pub fn gather_rows<R: Copy + Default + Send + 'static>(
    comm: &Comm,
    local_out: Array2<R>,
) -> Option<Array2<R>> {
    let cols = local_out.cols();
    let blocks = comm.gather(0, local_out.into_vec())?;
    let arrays: Vec<Array2<R>> = blocks
        .into_iter()
        .map(|v| {
            let rows = v.len().checked_div(cols).unwrap_or(0);
            Array2::from_vec(rows, cols, v)
        })
        .collect();
    Some(Array2::vstack(&arrays))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply;

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

    #[test]
    fn halo_exchange_brings_neighbour_rows() {
        let total = 12;
        let cols = 4;
        let global = Array2::from_fn(total, cols, |r, c| (r * 10 + c) as i64);
        minimpi::run(3, |comm| {
            let own = partition(total, comm.size(), comm.rank());
            let local = global.row_block(own.start, own.end);
            let (ext, offset) = exchange_halo(comm, &local, total, 2);
            // Owned rows present at the offset.
            for (i, g) in (own.start..own.end).enumerate() {
                assert_eq!(ext.row(offset + i), global.row(g));
            }
            // Halo rows are real neighbour data.
            if comm.rank() > 0 {
                assert_eq!(offset, 2);
                assert_eq!(ext.row(0), global.row(own.start - 2));
                assert_eq!(ext.row(1), global.row(own.start - 1));
            } else {
                assert_eq!(offset, 0);
            }
            if comm.rank() + 1 < comm.size() {
                assert_eq!(ext.row(ext.rows() - 1), global.row(own.end + 1));
            }
        });
    }

    #[test]
    fn halo_zero_ghost_is_identity() {
        let global = Array2::from_fn(6, 3, |r, c| (r + c) as i64);
        minimpi::run(2, |comm| {
            let own = partition(6, comm.size(), comm.rank());
            let local = global.row_block(own.start, own.end);
            let (ext, offset) = exchange_halo(comm, &local, 6, 0);
            assert_eq!(ext, local);
            assert_eq!(offset, 0);
        });
    }

    #[test]
    fn dist_apply_equals_serial() {
        let total = 16;
        let global = Array2::from_fn(total, 9, |r, c| (r * 100 + c) as f64);
        let udf = |s: &Stencil<f64>| s.at(0, -1) + 2.0 * s.value() + s.at(0, 1) + s.at(1, 0);
        let serial = apply(&global, Ghost::both(1, 1), Stride::unit(), udf);
        for ranks in [1usize, 2, 3, 5] {
            let outs = minimpi::run(ranks, |comm| {
                let own = partition(total, comm.size(), comm.rank());
                let local = global.row_block(own.start, own.end);
                let out = apply_dist(
                    comm,
                    &local,
                    total,
                    Ghost::both(1, 1),
                    Stride::unit(),
                    2,
                    udf,
                );
                gather_rows(comm, out)
            });
            let gathered = outs[0].clone().expect("root gathers");
            assert_eq!(gathered, serial, "ranks={ranks}");
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
        let outs = minimpi::run(3, |comm| {
            let own = partition(total, comm.size(), comm.rank());
            let local = global.row_block(own.start, own.end);
            let out = apply_dist(comm, &local, total, Ghost::none(), stride, 1, udf);
            gather_rows(comm, out)
        });
        assert_eq!(outs[0].clone().unwrap(), serial);
    }

    #[test]
    fn more_ranks_than_rows() {
        let total = 2;
        let global = Array2::from_fn(total, 3, |r, c| (r + c) as f64);
        let serial = apply(&global, Ghost::none(), Stride::unit(), |s| s.value() + 1.0);
        let outs = minimpi::run(4, |comm| {
            let own = partition(total, comm.size(), comm.rank());
            let local = global.row_block(own.start, own.end);
            let out = apply_dist(comm, &local, total, Ghost::none(), Stride::unit(), 1, |s| {
                s.value() + 1.0
            });
            gather_rows(comm, out)
        });
        assert_eq!(outs[0].clone().unwrap(), serial);
    }

    #[test]
    #[should_panic(expected = "does not match partition")]
    fn wrong_local_block_rejected() {
        minimpi::run(2, |comm| {
            let local = Array2::<f64>::zeroed(5, 3); // wrong size for total=6
            let _ = exchange_halo(comm, &local, 6, 1);
        });
    }
}
