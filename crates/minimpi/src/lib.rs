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
//! * point-to-point [`Comm::send`] / [`Comm::recv`] with tag matching and
//!   an unexpected-message queue, like a real MPI progress engine;
//! * textbook collectives built on p2p — binomial-tree
//!   [`Comm::bcast`], dissemination [`Comm::barrier`], [`Comm::gather`],
//!   ring [`Comm::allgather`], [`Comm::scatter`], [`Comm::reduce`],
//!   [`Comm::allreduce`], pairwise [`Comm::alltoall`] /
//!   [`Comm::alltoallv`] — so message counts match what a classic MPI
//!   implementation would issue;
//! * per-world [`CommStats`] counting messages, bytes, and collective
//!   calls. The DASSA performance model consumes these counters to price
//!   runs at supercomputer scale.
//!
//! # Example
//! ```
//! // Sum of ranks via allreduce, on 4 ranks.
//! let results = minimpi::run(4, |comm| {
//!     comm.allreduce(comm.rank() as u64, |a, b| a + b)
//! });
//! assert_eq!(results, vec![6, 6, 6, 6]);
//! ```

#![forbid(unsafe_code)]

mod collectives;
mod comm;
mod error;
mod stats;

pub use collectives::WirePayload;
pub use comm::{
    run, run_chaos, run_chaos_in_registry, run_in_registry, run_with_stats, Comm, RecvError,
};
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
            comm.barrier();
            comm.allreduce(5u32, |a, b| a + b)
        });
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn results_are_in_rank_order() {
        let out = run(8, |comm| comm.rank() * 10);
        assert_eq!(out, (0..8).map(|r| r * 10).collect::<Vec<_>>());
    }
}
