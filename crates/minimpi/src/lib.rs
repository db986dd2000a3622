//! `minimpi` — an in-process MPI-style message-passing runtime.
//!
//! DASSA (IPDPS 2020) is built on MPI: ArrayUDF partitions arrays across
//! ranks, the communication-avoiding VCA reader ends in an all-to-all
//! exchange, and the collective-per-file reader issues one broadcast per
//! file. Real MPI needs a cluster and `mpirun`; this crate reproduces the
//! MPI *programming model* inside one process so the exact same rank logic
//! runs and is testable anywhere:
//!
//! * [`run`] spawns `n` ranks as OS threads and hands each a [`Comm`];
//! * the collectives DASSA sends, built on a crate-private point-to-point
//!   layer with tag matching and an unexpected-message queue, like a real
//!   MPI progress engine — the binomial-tree [`Comm::try_bcast`] (one per
//!   file for the collective-per-file reader), [`Comm::try_gather`], and
//!   the pairwise [`Comm::try_alltoallv_payload`] that ends the
//!   communication-avoiding reader — so message counts match what a
//!   classic MPI implementation would issue, and bytes are what each
//!   [`WirePayload`] would put on a wire;
//! * per-world [`CommStats`] counting messages, bytes, and collective
//!   calls. The DASSA performance model consumes these counters to price
//!   runs at supercomputer scale.
//!
//! # Example
//! ```
//! // Rank 0 broadcasts a value; every rank answers; rank 0 gathers.
//! let results = minimpi::run(4, |comm| -> Result<_, minimpi::CommError> {
//!     let base = comm.try_bcast(0, (comm.rank() == 0).then(|| vec![10u64]))?;
//!     comm.try_gather(0, vec![base[0] + comm.rank() as u64])
//! });
//! assert_eq!(results[0], Ok(Some(vec![vec![10], vec![11], vec![12], vec![13]])));
//! assert!(results[1..].iter().all(|r| r == &Ok(None)));
//! ```

#![forbid(unsafe_code)]

mod collectives;
mod comm;
mod error;
mod stats;

pub use collectives::WirePayload;
pub use comm::{run, run_chaos, run_chaos_in_registry, run_in_registry, run_with_stats, Comm};
pub use error::{CommError, RetryPolicy};
pub use stats::{names as metric_names, CommStats, StatsSnapshot};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world() {
        let out = run(1, |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            let b = comm.try_bcast(0, Some(vec![5u32])).unwrap();
            let g = comm.try_gather(0, b.clone()).unwrap();
            let a = comm.try_alltoallv_payload(vec![vec![b]]).unwrap();
            (g, a)
        });
        assert_eq!(out, vec![(Some(vec![vec![5]]), vec![vec![vec![5]]])]);
    }

    #[test]
    fn results_are_in_rank_order() {
        let out = run(8, |comm| comm.rank() * 10);
        assert_eq!(out, (0..8).map(|r| r * 10).collect::<Vec<_>>());
    }
}
