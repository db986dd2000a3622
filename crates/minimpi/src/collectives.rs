//! Collective operations built on point-to-point messaging.
//!
//! Algorithms follow the classic MPICH implementations (binomial trees,
//! dissemination barrier, ring allgather, pairwise all-to-all) so that the
//! *message counts* observed through [`crate::CommStats`] match what the
//! DASSA paper reasons about — e.g. the "merge-read-broadcast" pattern of
//! collective I/O costing one broadcast per file.
//!
//! Every collective comes in two forms. The classic form (`bcast`,
//! `allgather`, …) keeps MPI's contract: block until done, panic on
//! misuse. The fallible `try_*` form returns [`CommError`] instead —
//! misuse is [`CommError::Protocol`], a rank killed by the world's fault
//! plan refuses with [`CommError::RankDead`], and in a bounded-policy
//! world ([`crate::run_chaos`]) a silent peer surfaces as
//! [`CommError::Timeout`] after the retry budget, never as a hang. The
//! classic forms are thin wrappers that panic on the error the `try_*`
//! core reports. The [`WirePayload`] collectives, which move the
//! storage engine's tiles, have only the fallible form.

use crate::comm::{Comm, INTERNAL_TAG_BASE};
use crate::error::CommError;

/// Heap payloads with a known wire size.
///
/// The in-process transport moves values by `clone()` (often an `Arc`
/// bump), so [`crate::CommStats`] byte counters need the payload itself
/// to report how many bytes it would occupy on a real wire.
/// [`Comm::try_bcast_payload`] and [`Comm::try_alltoallv_payload`] use
/// this to move reference-counted buffers zero-copy while keeping the
/// byte accounting identical to the equivalent `Vec<T>` transfer.
pub trait WirePayload {
    /// Bytes this value would occupy on a real wire.
    fn wire_bytes(&self) -> usize;
}

impl<T> WirePayload for Vec<T> {
    fn wire_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>()
    }
}

impl<T: WirePayload> WirePayload for Option<T> {
    fn wire_bytes(&self) -> usize {
        self.as_ref().map_or(0, WirePayload::wire_bytes)
    }
}

impl<T: WirePayload> WirePayload for std::sync::Arc<T> {
    fn wire_bytes(&self) -> usize {
        self.as_ref().wire_bytes()
    }
}

/// Collective kinds, embedded in internal tags.
#[derive(Clone, Copy)]
#[repr(u64)]
enum Kind {
    Barrier = 1,
    Bcast,
    Gather,
    Allgather,
    Scatter,
    Reduce,
    Alltoall,
    Alltoallv,
}

/// Deterministic identity of one receive edge of one collective round:
/// the internal tag (kind, per-rank sequence, round) mixed with both
/// endpoints. Fault plans key injected message drops and delays off
/// this, so a given (seed, collective, edge) always behaves the same.
fn edge_key(tag: u64, src: usize, dst: usize) -> u64 {
    tag ^ (src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (dst as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

impl Comm {
    /// Build the internal tag for round `round` of the current collective.
    /// All ranks must invoke collectives in the same order (an MPI
    /// requirement too), which keeps their per-rank sequence counters in
    /// lock-step.
    fn coll_tag(&self, kind: Kind, seq: u64, round: u64) -> u64 {
        INTERNAL_TAG_BASE + ((kind as u64) << 56) + (seq << 8) + round
    }

    fn next_seq(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        seq
    }

    /// `MPI_Barrier`: dissemination algorithm, ⌈log₂ p⌉ rounds.
    pub fn barrier(&self) {
        self.try_barrier()
            .unwrap_or_else(|e| panic!("barrier failed: {e}"))
    }

    /// Fallible [`Comm::barrier`].
    pub fn try_barrier(&self) -> Result<(), CommError> {
        self.check_alive()?;
        let _span = obs::span_in(self.registry(), "minimpi.barrier");
        let seq = self.next_seq();
        self.stats().barriers.inc();
        let (rank, size) = (self.rank(), self.size());
        let mut round = 0u64;
        let mut dist = 1usize;
        while dist < size {
            let tag = self.coll_tag(Kind::Barrier, seq, round);
            let dst = (rank + dist) % size;
            let src = (rank + size - dist) % size;
            self.send_internal(dst, tag, (), 0);
            self.recv_coll::<()>(src, tag, edge_key(tag, src, rank))?;
            dist <<= 1;
            round += 1;
        }
        Ok(())
    }

    /// `MPI_Bcast`: binomial tree from `root`. The root passes
    /// `Some(value)`, everyone else `None`; all ranks return the value.
    ///
    /// Byte accounting uses `size_of::<T>()`; for heap payloads use
    /// [`Comm::bcast_vec`] so [`crate::CommStats`] sees the true volume.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        self.try_bcast(root, value)
            .unwrap_or_else(|e| panic!("bcast failed: {e}"))
    }

    /// [`Comm::bcast`] for vectors, counting the real payload volume.
    pub fn bcast_vec<T: Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<Vec<T>>,
    ) -> Vec<T> {
        self.try_bcast_vec(root, value)
            .unwrap_or_else(|e| panic!("bcast failed: {e}"))
    }

    /// Fallible [`Comm::bcast`].
    pub fn try_bcast<T: Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<T>,
    ) -> Result<T, CommError> {
        self.try_bcast_with_size(root, value, |_| std::mem::size_of::<T>())
    }

    /// Fallible [`Comm::bcast_vec`].
    pub fn try_bcast_vec<T: Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<Vec<T>>,
    ) -> Result<Vec<T>, CommError> {
        self.try_bcast_with_size(root, value, |v| v.len() * std::mem::size_of::<T>())
    }

    /// [`Comm::try_bcast`] for [`WirePayload`] values: the transfer is a
    /// `clone()` per tree edge (an `Arc` bump for shared buffers), while
    /// byte counters record [`WirePayload::wire_bytes`] — the same volume
    /// the equivalent `bcast_vec` would report.
    pub fn try_bcast_payload<T: WirePayload + Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<T>,
    ) -> Result<T, CommError> {
        self.try_bcast_with_size(root, value, T::wire_bytes)
    }

    fn try_bcast_with_size<T, S>(
        &self,
        root: usize,
        value: Option<T>,
        sizer: S,
    ) -> Result<T, CommError>
    where
        T: Clone + Send + 'static,
        S: Fn(&T) -> usize,
    {
        self.check_alive()?;
        let seq = self.next_seq();
        self.stats().bcasts.inc();
        let _span = obs::span_in(self.registry(), "minimpi.bcast");
        let (rank, size) = (self.rank(), self.size());
        if root >= size {
            return Err(CommError::Protocol("bcast root out of range"));
        }
        let vrank = (rank + size - root) % size;
        let tag = self.coll_tag(Kind::Bcast, seq, 0);

        let value = if rank == root {
            value.ok_or(CommError::Protocol("bcast root must supply a value"))?
        } else {
            // Receive from the parent in the binomial tree.
            let mut mask = 1usize;
            loop {
                debug_assert!(mask < size);
                if vrank & mask != 0 {
                    let src = (rank + size - mask) % size;
                    break self.recv_coll::<T>(src, tag, edge_key(tag, src, rank))?;
                }
                mask <<= 1;
            }
        };
        // Forward down the tree.
        let mut mask = 1usize;
        while mask < size {
            if vrank & mask != 0 {
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vrank + mask < size {
                let dst = (rank + mask) % size;
                let bytes = sizer(&value);
                self.send_internal(dst, tag, value.clone(), bytes);
            }
            mask >>= 1;
        }
        Ok(value)
    }

    /// `MPI_Gather`: every rank contributes `value`; the root returns
    /// `Some(vec)` in rank order, others `None`.
    pub fn gather<T: Send + 'static>(&self, root: usize, value: T) -> Option<Vec<T>> {
        self.try_gather(root, value)
            .unwrap_or_else(|e| panic!("gather failed: {e}"))
    }

    /// Fallible [`Comm::gather`].
    pub fn try_gather<T: Send + 'static>(
        &self,
        root: usize,
        value: T,
    ) -> Result<Option<Vec<T>>, CommError> {
        self.check_alive()?;
        let seq = self.next_seq();
        self.stats().gathers.inc();
        let _span = obs::span_in(self.registry(), "minimpi.gather");
        let tag = self.coll_tag(Kind::Gather, seq, 0);
        if self.rank() == root {
            let mut out: Vec<Option<T>> = (0..self.size()).map(|_| None).collect();
            out[root] = Some(value);
            for (src, slot) in out.iter_mut().enumerate() {
                if src != root {
                    *slot = Some(self.recv_coll(src, tag, edge_key(tag, src, root))?);
                }
            }
            let gathered = out
                .into_iter()
                .map(|v| v.ok_or(CommError::Protocol("gather slot unfilled")))
                .collect::<Result<Vec<T>, _>>()?;
            Ok(Some(gathered))
        } else {
            self.send_internal(root, tag, value, std::mem::size_of::<T>());
            Ok(None)
        }
    }

    /// `MPI_Allgather`: ring algorithm, p−1 rounds; all ranks return the
    /// full vector in rank order.
    pub fn allgather<T: Clone + Send + 'static>(&self, value: T) -> Vec<T> {
        self.try_allgather(value)
            .unwrap_or_else(|e| panic!("allgather failed: {e}"))
    }

    /// Fallible [`Comm::allgather`].
    pub fn try_allgather<T: Clone + Send + 'static>(&self, value: T) -> Result<Vec<T>, CommError> {
        self.check_alive()?;
        let seq = self.next_seq();
        self.stats().allgathers.inc();
        let _span = obs::span_in(self.registry(), "minimpi.allgather");
        let (rank, size) = (self.rank(), self.size());
        let mut out: Vec<Option<T>> = (0..size).map(|_| None).collect();
        out[rank] = Some(value);
        let right = (rank + 1) % size;
        let left = (rank + size - 1) % size;
        for round in 0..size.saturating_sub(1) {
            let tag = self.coll_tag(Kind::Allgather, seq, round as u64);
            // In round k we forward the block that originated k hops back.
            let send_origin = (rank + size - round) % size;
            let recv_origin = (rank + size - round - 1) % size;
            let block = out[send_origin]
                .clone()
                .ok_or(CommError::Protocol("allgather ring invariant broken"))?;
            self.send_internal(right, tag, block, std::mem::size_of::<T>());
            out[recv_origin] = Some(self.recv_coll(left, tag, edge_key(tag, left, rank))?);
        }
        out.into_iter()
            .map(|v| v.ok_or(CommError::Protocol("allgather slot unfilled")))
            .collect()
    }

    /// `MPI_Scatter`: the root supplies one element per rank; each rank
    /// returns its own element.
    pub fn scatter<T: Send + 'static>(&self, root: usize, values: Option<Vec<T>>) -> T {
        self.try_scatter(root, values)
            .unwrap_or_else(|e| panic!("scatter failed: {e}"))
    }

    /// Fallible [`Comm::scatter`].
    pub fn try_scatter<T: Send + 'static>(
        &self,
        root: usize,
        values: Option<Vec<T>>,
    ) -> Result<T, CommError> {
        self.check_alive()?;
        let seq = self.next_seq();
        self.stats().scatters.inc();
        let _span = obs::span_in(self.registry(), "minimpi.scatter");
        let tag = self.coll_tag(Kind::Scatter, seq, 0);
        if self.rank() == root {
            let values = values.ok_or(CommError::Protocol("scatter root must supply values"))?;
            if values.len() != self.size() {
                return Err(CommError::Protocol("scatter needs one element per rank"));
            }
            let mut own = None;
            for (dst, v) in values.into_iter().enumerate() {
                if dst == root {
                    own = Some(v);
                } else {
                    self.send_internal(dst, tag, v, std::mem::size_of::<T>());
                }
            }
            own.ok_or(CommError::Protocol("scatter root element missing"))
        } else {
            self.recv_coll(root, tag, edge_key(tag, root, self.rank()))
        }
    }

    /// `MPI_Reduce` with operator `op`: binomial-tree reduction to `root`,
    /// which returns `Some(result)`.
    ///
    /// `op` should be associative; commutativity is also assumed, as by
    /// most MPI implementations for built-in operators.
    pub fn reduce<T, F>(&self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Send + 'static,
        F: Fn(T, T) -> T,
    {
        self.try_reduce(root, value, op)
            .unwrap_or_else(|e| panic!("reduce failed: {e}"))
    }

    /// Fallible [`Comm::reduce`].
    pub fn try_reduce<T, F>(&self, root: usize, value: T, op: F) -> Result<Option<T>, CommError>
    where
        T: Send + 'static,
        F: Fn(T, T) -> T,
    {
        self.check_alive()?;
        let seq = self.next_seq();
        self.stats().reduces.inc();
        let _span = obs::span_in(self.registry(), "minimpi.reduce");
        let (rank, size) = (self.rank(), self.size());
        if root >= size {
            return Err(CommError::Protocol("reduce root out of range"));
        }
        let vrank = (rank + size - root) % size;
        let tag = self.coll_tag(Kind::Reduce, seq, 0);
        let mut acc = value;
        let mut mask = 1usize;
        while mask < size {
            if vrank & mask == 0 {
                let peer_v = vrank | mask;
                if peer_v < size {
                    let src = (rank + mask) % size;
                    let other: T = self.recv_coll(src, tag, edge_key(tag, src, rank))?;
                    acc = op(acc, other);
                }
            } else {
                let dst = (rank + size - mask) % size;
                self.send_internal(dst, tag, acc, std::mem::size_of::<T>());
                return Ok(None);
            }
            mask <<= 1;
        }
        debug_assert_eq!(rank, root);
        Ok(Some(acc))
    }

    /// `MPI_Allreduce`: reduce to rank 0 then broadcast (MPICH's default
    /// for large payloads is fancier; the message count here is the
    /// classic 2·log₂ p).
    pub fn allreduce<T, F>(&self, value: T, op: F) -> T
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        self.try_allreduce(value, op)
            .unwrap_or_else(|e| panic!("allreduce failed: {e}"))
    }

    /// Fallible [`Comm::allreduce`].
    pub fn try_allreduce<T, F>(&self, value: T, op: F) -> Result<T, CommError>
    where
        T: Clone + Send + 'static,
        F: Fn(T, T) -> T,
    {
        self.check_alive()?;
        self.stats().allreduces.inc();
        let _span = obs::span_in(self.registry(), "minimpi.allreduce");
        let reduced = self.try_reduce(0, value, op)?;
        self.try_bcast(0, reduced)
    }

    /// `MPI_Alltoall`: `values[j]` goes to rank `j`; returns the vector
    /// whose element `i` came from rank `i`. Pairwise-exchange algorithm,
    /// p−1 rounds of concurrent disjoint transfers — exactly the
    /// "lots of concurrent transfers among node pairs" the paper's
    /// communication-avoiding method relies on.
    pub fn alltoall<T: Send + 'static>(&self, values: Vec<T>) -> Vec<T> {
        self.try_alltoall(values)
            .unwrap_or_else(|e| panic!("alltoall failed: {e}"))
    }

    /// Fallible [`Comm::alltoall`].
    pub fn try_alltoall<T: Send + 'static>(&self, values: Vec<T>) -> Result<Vec<T>, CommError> {
        self.check_alive()?;
        self.stats().alltoalls.inc();
        let _span = obs::span_in(self.registry(), "minimpi.alltoall");
        let size = self.size();
        if values.len() != size {
            return Err(CommError::Protocol("alltoall needs one element per rank"));
        }
        let mut slots: Vec<Option<T>> = values.into_iter().map(Some).collect();
        let seq = self.next_seq();
        self.try_exchange_pairwise(Kind::Alltoall, seq, &mut slots, |v| {
            std::mem::size_of_val(v)
        })
    }

    /// `MPI_Alltoallv` for variable-size blocks: `buffers[j]` goes to rank
    /// `j`; returns blocks indexed by source rank.
    pub fn alltoallv<T: Send + 'static>(&self, buffers: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.try_alltoallv(buffers)
            .unwrap_or_else(|e| panic!("alltoallv failed: {e}"))
    }

    /// Fallible [`Comm::alltoallv`].
    pub fn try_alltoallv<T: Send + 'static>(
        &self,
        buffers: Vec<Vec<T>>,
    ) -> Result<Vec<Vec<T>>, CommError> {
        self.check_alive()?;
        self.stats().alltoallvs.inc();
        let _span = obs::span_in(self.registry(), "minimpi.alltoallv");
        let size = self.size();
        if buffers.len() != size {
            return Err(CommError::Protocol("alltoallv needs one buffer per rank"));
        }
        let mut slots: Vec<Option<Vec<T>>> = buffers.into_iter().map(Some).collect();
        let seq = self.next_seq();
        self.try_exchange_pairwise(Kind::Alltoallv, seq, &mut slots, |v| {
            v.len() * std::mem::size_of::<T>()
        })
    }

    /// [`Comm::try_alltoallv`] for blocks of [`WirePayload`] values: each
    /// block moves by `clone()`-free handoff (the vectors themselves are
    /// sent), with byte counters summing [`WirePayload::wire_bytes`] over
    /// the block instead of `size_of::<T>()` — so tile handles account
    /// for the sample bytes they reference, not the handle size.
    pub fn try_alltoallv_payload<T: WirePayload + Send + 'static>(
        &self,
        buffers: Vec<Vec<T>>,
    ) -> Result<Vec<Vec<T>>, CommError> {
        self.check_alive()?;
        self.stats().alltoallvs.inc();
        let _span = obs::span_in(self.registry(), "minimpi.alltoallv");
        let size = self.size();
        if buffers.len() != size {
            return Err(CommError::Protocol("alltoallv needs one buffer per rank"));
        }
        let mut slots: Vec<Option<Vec<T>>> = buffers.into_iter().map(Some).collect();
        let seq = self.next_seq();
        self.try_exchange_pairwise(Kind::Alltoallv, seq, &mut slots, |v| {
            v.iter().map(WirePayload::wire_bytes).sum()
        })
    }

    /// Shared pairwise-exchange engine for alltoall(v).
    fn try_exchange_pairwise<T, S>(
        &self,
        kind: Kind,
        seq: u64,
        slots: &mut [Option<T>],
        sizer: S,
    ) -> Result<Vec<T>, CommError>
    where
        T: Send + 'static,
        S: Fn(&T) -> usize,
    {
        let (rank, size) = (self.rank(), self.size());
        let mut out: Vec<Option<T>> = (0..size).map(|_| None).collect();
        out[rank] = slots[rank].take();
        for step in 1..size {
            let tag = self.coll_tag(kind, seq, step as u64);
            let dst = (rank + step) % size;
            let src = (rank + size - step) % size;
            let block = slots[dst]
                .take()
                .ok_or(CommError::Protocol("pairwise block already sent"))?;
            let bytes = sizer(&block);
            self.send_internal(dst, tag, block, bytes);
            out[src] = Some(self.recv_coll(src, tag, edge_key(tag, src, rank))?);
        }
        out.into_iter()
            .map(|v| v.ok_or(CommError::Protocol("pairwise exchange incomplete")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::{run, run_chaos, run_with_stats, CommError, RetryPolicy};
    use faultline::{site, FaultPlan};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn barrier_completes_on_many_sizes() {
        for p in [1usize, 2, 3, 5, 8] {
            run(p, |comm| {
                for _ in 0..3 {
                    comm.barrier();
                }
            });
        }
    }

    #[test]
    fn bcast_from_every_root() {
        for p in [1usize, 2, 3, 4, 7] {
            for root in 0..p {
                let out = run(p, |comm| {
                    let v = if comm.rank() == root {
                        Some(format!("hello-{root}"))
                    } else {
                        None
                    };
                    comm.bcast(root, v)
                });
                assert!(out.iter().all(|s| s == &format!("hello-{root}")));
            }
        }
    }

    #[test]
    fn bcast_message_count_is_p_minus_1() {
        let (_, stats) = run_with_stats(8, |comm| {
            let v = if comm.rank() == 0 { Some(1u8) } else { None };
            comm.bcast(0, v);
        });
        assert_eq!(stats.p2p_messages, 7);
    }

    #[test]
    fn gather_in_rank_order() {
        let out = run(5, |comm| comm.gather(2, comm.rank() as u32 * 3));
        assert_eq!(out[2], Some(vec![0, 3, 6, 9, 12]));
        assert!(out.iter().enumerate().all(|(r, v)| (r == 2) == v.is_some()));
    }

    #[test]
    fn allgather_ring() {
        for p in [1usize, 2, 4, 6] {
            let out = run(p, |comm| comm.allgather(comm.rank() as u64));
            let expect: Vec<u64> = (0..p as u64).collect();
            assert!(out.iter().all(|v| v == &expect));
        }
    }

    #[test]
    fn scatter_delivers_per_rank() {
        let out = run(4, |comm| {
            let values = if comm.rank() == 1 {
                Some(vec![10, 11, 12, 13])
            } else {
                None
            };
            comm.scatter(1, values)
        });
        assert_eq!(out, vec![10, 11, 12, 13]);
    }

    #[test]
    fn reduce_sum_every_root() {
        for p in [1usize, 3, 4, 6] {
            for root in 0..p {
                let out = run(p, |comm| {
                    comm.reduce(root, comm.rank() as u64 + 1, |a, b| a + b)
                });
                let total: u64 = (1..=p as u64).sum();
                assert_eq!(out[root], Some(total));
            }
        }
    }

    #[test]
    fn allreduce_max() {
        let out = run(6, |comm| {
            comm.allreduce(comm.rank() as i64 * 7 % 5, i64::max)
        });
        assert!(out.iter().all(|&v| v == 4));
    }

    #[test]
    fn alltoall_transpose() {
        let p = 4;
        let out = run(p, |comm| {
            // values[j] = rank * 100 + j
            let values: Vec<usize> = (0..p).map(|j| comm.rank() * 100 + j).collect();
            comm.alltoall(values)
        });
        for (rank, row) in out.iter().enumerate() {
            let expect: Vec<usize> = (0..p).map(|src| src * 100 + rank).collect();
            assert_eq!(row, &expect);
        }
    }

    #[test]
    fn alltoallv_variable_blocks() {
        let p = 3;
        let out = run(p, |comm| {
            // Send `dst + 1` copies of our rank id to each dst.
            let buffers: Vec<Vec<u8>> =
                (0..p).map(|dst| vec![comm.rank() as u8; dst + 1]).collect();
            comm.alltoallv(buffers)
        });
        for (rank, blocks) in out.iter().enumerate() {
            for (src, block) in blocks.iter().enumerate() {
                assert_eq!(block, &vec![src as u8; rank + 1]);
            }
        }
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_talk() {
        let out = run(4, |comm| {
            let a = comm.allreduce(1u32, |x, y| x + y);
            let b = comm.allreduce(2u32, |x, y| x + y);
            let c = comm.allgather(comm.rank());
            (a, b, c)
        });
        for (a, b, c) in out {
            assert_eq!(a, 4);
            assert_eq!(b, 8);
            assert_eq!(c, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn alltoallv_bytes_are_counted() {
        let (_, stats) = run_with_stats(2, |comm| {
            comm.alltoallv(vec![vec![0u64; 10], vec![0u64; 20]]);
        });
        // Each rank sends one off-diagonal block.
        assert_eq!(stats.alltoallvs, 2);
        assert!(stats.p2p_bytes >= 2 * 8 * 10);
    }

    #[test]
    fn payload_collectives_match_vec_forms_and_byte_counts() {
        use crate::collectives::WirePayload;
        use std::sync::Arc;

        /// Stand-in for a zero-copy tile: a shared buffer plus a row
        /// window, reporting the referenced bytes as its wire size.
        #[derive(Clone)]
        struct Window {
            buf: Arc<Vec<f32>>,
            lo: usize,
            hi: usize,
        }
        impl WirePayload for Window {
            fn wire_bytes(&self) -> usize {
                (self.hi - self.lo) * std::mem::size_of::<f32>()
            }
        }

        let p = 3;
        let (vec_out, vec_stats) = run_with_stats(p, |comm| {
            let payload = (comm.rank() == 1).then(|| vec![comm.rank() as f32; 40]);
            comm.bcast_vec(1, payload)
        });
        let (pay_out, pay_stats) = run_with_stats(p, |comm| {
            let payload = (comm.rank() == 1).then(|| {
                Arc::new(Window {
                    buf: Arc::new(vec![comm.rank() as f32; 40]),
                    lo: 0,
                    hi: 40,
                })
            });
            comm.try_bcast_payload(1, payload).unwrap()
        });
        assert!(pay_out
            .iter()
            .all(|w| w.buf[w.lo..w.hi] == vec_out[0][..] && w.wire_bytes() == 160));
        assert_eq!(pay_stats.p2p_bytes, vec_stats.p2p_bytes);
        assert_eq!(pay_stats.p2p_messages, vec_stats.p2p_messages);
        assert_eq!(pay_stats.bcasts, vec_stats.bcasts);

        let (vec_out, vec_stats) = run_with_stats(p, |comm| {
            let buffers: Vec<Vec<f32>> = (0..p)
                .map(|dst| vec![comm.rank() as f32; (dst + 1) * 5])
                .collect();
            comm.alltoallv(buffers)
        });
        let (win_out, win_stats) = run_with_stats(p, |comm| {
            let buffers: Vec<Vec<Window>> = (0..p)
                .map(|dst| {
                    vec![Window {
                        buf: Arc::new(vec![comm.rank() as f32; (dst + 1) * 5]),
                        lo: 0,
                        hi: (dst + 1) * 5,
                    }]
                })
                .collect();
            comm.try_alltoallv_payload(buffers).unwrap()
        });
        for (rank, blocks) in win_out.iter().enumerate() {
            for (src, block) in blocks.iter().enumerate() {
                assert_eq!(block.len(), 1);
                assert_eq!(
                    block[0].buf[block[0].lo..block[0].hi],
                    vec_out[rank][src][..]
                );
            }
        }
        assert_eq!(win_stats.p2p_bytes, vec_stats.p2p_bytes);
        assert_eq!(win_stats.p2p_messages, vec_stats.p2p_messages);
        assert_eq!(win_stats.alltoallvs, vec_stats.alltoallvs);
    }

    #[test]
    fn try_collectives_match_infallible() {
        let out = run(4, |comm| {
            let a = comm
                .try_allreduce(comm.rank() as u64, |x, y| x + y)
                .unwrap();
            let b = comm.try_allgather(comm.rank()).unwrap();
            let c = comm
                .try_bcast(0, (comm.rank() == 0).then_some(9u8))
                .unwrap();
            comm.try_barrier().unwrap();
            let d = comm.try_gather(1, comm.rank() as u32).unwrap();
            (a, b, c, d)
        });
        for (rank, (a, b, c, d)) in out.into_iter().enumerate() {
            assert_eq!(a, 6);
            assert_eq!(b, vec![0, 1, 2, 3]);
            assert_eq!(c, 9);
            assert_eq!(d.is_some(), rank == 1);
        }
    }

    #[test]
    fn try_bcast_reports_misuse_as_protocol_error() {
        let out = run(1, |comm| comm.try_bcast::<u8>(0, None));
        assert!(matches!(out[0], Err(CommError::Protocol(_))));
        let out = run(1, |comm| comm.try_bcast(7, Some(1u8)));
        assert!(matches!(out[0], Err(CommError::Protocol(_))));
    }

    /// A plan under which, on a 2-rank world, rank 1 is dead and rank 0
    /// alive. Found by scanning seeds — deterministic for a fixed
    /// faultline hash function.
    fn plan_killing_rank_1() -> FaultPlan {
        (0u64..)
            .map(|seed| FaultPlan::new(seed).with(site::MINIMPI_RANK_DEAD, 0.5))
            .find(|p| !p.fires(site::MINIMPI_RANK_DEAD, 0) && p.fires(site::MINIMPI_RANK_DEAD, 1))
            .expect("some seed kills exactly rank 1")
    }

    #[test]
    fn dead_rank_turns_collectives_into_errors() {
        let plan = Arc::new(plan_killing_rank_1());
        let policy = RetryPolicy::bounded(2, Duration::from_millis(5));
        let (out, stats) = run_chaos(2, plan, policy, |comm| {
            if comm.rank() == 1 {
                // A dead rank's traffic never reaches the wire.
                comm.send(0, 42, 1u8);
            }
            comm.try_bcast(1, Some(comm.rank() as u32))
        });
        // The dead root refuses; the survivor gives up after its bounded
        // retries instead of hanging or panicking.
        assert_eq!(out[1], Err(CommError::RankDead(1)));
        assert_eq!(
            out[0],
            Err(CommError::Timeout {
                src: 1,
                attempts: 2
            })
        );
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.suppressed_sends, 1);
    }

    #[test]
    fn dead_rank_fails_every_collective_kind() {
        let plan = Arc::new(plan_killing_rank_1());
        let policy = RetryPolicy::bounded(2, Duration::from_millis(5));
        let (out, _) = run_chaos(2, plan, policy, |comm| {
            if comm.rank() == 1 {
                vec![
                    comm.try_barrier().err(),
                    comm.try_allgather(0u8).err(),
                    comm.try_scatter(0, None::<Vec<u8>>).err(),
                    comm.try_allreduce(1u8, |a, b| a | b).err(),
                    comm.try_alltoallv(vec![vec![0u8]; 2]).err(),
                ]
            } else {
                vec![]
            }
        });
        for err in &out[1] {
            assert_eq!(err.as_ref(), Some(&CommError::RankDead(1)));
        }
    }

    #[test]
    fn injected_drops_retry_then_succeed() {
        // Every edge drops at least one delivery, but drops are capped
        // below the retry budget: results are unchanged, only
        // `minimpi.retries` grows — and deterministically so.
        let plan = Arc::new(FaultPlan::new(7).with(site::MINIMPI_RECV_DROP, 1.0));
        let policy = RetryPolicy::bounded(4, Duration::from_millis(50));
        let mut retry_counts = Vec::new();
        for _ in 0..2 {
            let (out, stats) = run_chaos(2, Arc::clone(&plan), policy, |comm| {
                comm.try_allreduce(comm.rank() as u64 + 1, |a, b| a + b)
            });
            assert_eq!(out, vec![Ok(3), Ok(3)]);
            assert!(stats.retries >= 1);
            retry_counts.push(stats.retries);
        }
        assert_eq!(retry_counts[0], retry_counts[1]);
    }
}
