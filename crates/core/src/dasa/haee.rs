//! HAEE — the Hybrid ArrayUDF Execution Engine (paper §V-B).
//!
//! The original ArrayUDF parallelizes purely with MPI: one process per
//! CPU core. For cross-correlation analyses that is doubly wasteful on a
//! multicore node: the master channel is replicated in every process,
//! and every core issues its own I/O requests. HAEE instead runs **one
//! MPI process per node with OpenMP threads inside**, sharing the master
//! channel and issuing one I/O request per node. The rank count is the
//! `minimpi` world's size, so [`Haee`] holds only the threads inside a
//! rank. Both layouts, and the master duplication that makes pure MPI
//! run out of memory at 91 nodes in Figure 8, are priced by
//! `perfmodel::experiments::Layout`, which `exp_fig8` prints.

/// Execution configuration: how many threads run inside each rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Haee {
    /// OpenMP threads per process.
    pub threads_per_process: usize,
}

/// Builder for [`Haee`], the one way to construct a configuration:
/// `Haee::builder().threads(8).build()`.
///
/// Defaults to every available core as a thread. Zero clamps to 1.
#[derive(Debug, Clone, Copy)]
pub struct HaeeBuilder {
    threads: usize,
}

impl HaeeBuilder {
    /// OpenMP threads inside each rank.
    pub fn threads(mut self, threads: usize) -> HaeeBuilder {
        self.threads = threads;
        self
    }

    /// Finalize, clamping the thread count to at least 1.
    pub fn build(self) -> Haee {
        Haee {
            threads_per_process: self.threads.max(1),
        }
    }
}

impl Haee {
    /// Start building a configuration. Default: [`omp::num_procs`]
    /// threads (the paper's hybrid layout).
    pub fn builder() -> HaeeBuilder {
        HaeeBuilder {
            threads: omp::num_procs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_to_hybrid() {
        let h = Haee::builder().build();
        assert_eq!(h.threads_per_process, omp::num_procs());
    }

    #[test]
    fn zero_arguments_clamp() {
        let h = Haee::builder().threads(0).build();
        assert_eq!(h.threads_per_process, 1);
    }
}
