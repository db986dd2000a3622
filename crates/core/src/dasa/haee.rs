//! HAEE — the Hybrid ArrayUDF Execution Engine (paper §V-B).
//!
//! The original ArrayUDF parallelizes purely with MPI: one process per
//! CPU core. For cross-correlation analyses that is doubly wasteful on a
//! multicore node: the master channel is replicated in every process,
//! and every core issues its own I/O requests. HAEE instead runs **one
//! MPI process per node with OpenMP threads inside**, sharing the master
//! channel and issuing one I/O request per node. [`Haee`] captures the
//! execution configuration. The master-duplication effect that makes
//! pure MPI run out of memory at 91 nodes in Figure 8 is priced by
//! `perfmodel`'s Figure 8 model, which `exp_fig8` prints.

/// Execution configuration: how many processes (ranks) per node and how
/// many threads inside each process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Haee {
    /// MPI processes per computing node.
    pub processes_per_node: usize,
    /// OpenMP threads per process.
    pub threads_per_process: usize,
}

/// Builder for [`Haee`], the one way to construct a configuration:
/// `Haee::builder().threads(8).ranks(1).build()`.
///
/// Defaults to the paper's advocated hybrid layout — 1 rank per node,
/// every available core as a thread. Zero arguments clamp to 1.
#[derive(Debug, Clone, Copy)]
pub struct HaeeBuilder {
    ranks: usize,
    threads: usize,
}

impl HaeeBuilder {
    /// MPI processes (ranks) per computing node. 1 = hybrid; one per
    /// core = the original pure-MPI ArrayUDF.
    pub fn ranks(mut self, ranks: usize) -> HaeeBuilder {
        self.ranks = ranks;
        self
    }

    /// OpenMP threads inside each rank.
    pub fn threads(mut self, threads: usize) -> HaeeBuilder {
        self.threads = threads;
        self
    }

    /// Finalize, clamping both dimensions to at least 1.
    pub fn build(self) -> Haee {
        Haee {
            processes_per_node: self.ranks.max(1),
            threads_per_process: self.threads.max(1),
        }
    }
}

impl Haee {
    /// Start building a configuration. Defaults: 1 rank per node,
    /// [`omp::num_procs`] threads (the paper's hybrid layout).
    pub fn builder() -> HaeeBuilder {
        HaeeBuilder {
            ranks: 1,
            threads: omp::num_procs(),
        }
    }

    /// CPU cores used per node.
    pub fn cores_per_node(&self) -> usize {
        self.processes_per_node * self.threads_per_process
    }

    /// Copies of any per-process shared datum (e.g. the master channel)
    /// held on one node. Hybrid = 1, pure MPI = cores.
    pub fn master_copies_per_node(&self) -> usize {
        self.processes_per_node
    }

    /// Concurrent I/O requests issued per node when every process reads
    /// its partition — the contention driver in Figures 8 and 11.
    pub fn io_requests_per_node(&self) -> usize {
        self.processes_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_shares_master() {
        let h = Haee::builder().threads(16).build();
        assert_eq!(h.cores_per_node(), 16);
        assert_eq!(h.master_copies_per_node(), 1);
        assert_eq!(h.io_requests_per_node(), 1);
    }

    #[test]
    fn pure_mpi_duplicates_master() {
        let m = Haee::builder().ranks(16).threads(1).build();
        assert_eq!(m.cores_per_node(), 16);
        assert_eq!(m.master_copies_per_node(), 16);
        assert_eq!(m.io_requests_per_node(), 16);
    }

    #[test]
    fn io_request_ratio_matches_paper() {
        // "our HAEE issues 16X less I/O calls"
        let hybrid = Haee::builder().threads(16).build();
        let mpi = Haee::builder().ranks(16).threads(1).build();
        assert_eq!(
            mpi.io_requests_per_node() / hybrid.io_requests_per_node(),
            16
        );
    }

    #[test]
    fn builder_defaults_to_hybrid() {
        let h = Haee::builder().build();
        assert_eq!(h.processes_per_node, 1);
        assert_eq!(h.threads_per_process, omp::num_procs());
    }

    #[test]
    fn zero_arguments_clamp() {
        let h = Haee::builder().ranks(0).threads(0).build();
        assert_eq!(h.cores_per_node(), 1);
    }
}
