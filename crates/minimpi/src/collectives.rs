//! The collectives DASSA sends, built on point-to-point messaging.
//!
//! The collective-per-file reader pays one broadcast per file
//! ([`Comm::try_bcast_payload`]), the communication-avoiding reader one
//! all-to-all ([`Comm::try_alltoallv_payload`]), HAEE's master spectrum
//! travels as a [`Comm::bcast`], and distributed ArrayUDF results and
//! cluster snapshots come home through [`Comm::gather`]. The algorithms
//! follow the classic MPICH implementations (binomial-tree broadcast,
//! pairwise all-to-all) so that the *message counts* observed through
//! [`crate::CommStats`] match what the DASSA paper reasons about.
//!
//! `bcast` and `gather` come in two forms. The classic form keeps MPI's
//! contract: block until done, panic on misuse. The fallible `try_*`
//! form returns [`CommError`] instead — misuse is
//! [`CommError::Protocol`], a rank killed by the world's fault plan
//! refuses with [`CommError::RankDead`], and in a bounded-policy world
//! ([`crate::run_chaos`]) a silent peer surfaces as
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
///
/// The discriminants are fixed: [`coll_tag`] shifts them into every tag
/// and [`edge_key`] hashes the tag, so renumbering a kind would move
/// every seeded message drop and delay of a chaos world.
#[derive(Clone, Copy)]
#[repr(u64)]
enum Kind {
    Bcast = 2,
    Gather = 3,
    Alltoallv = 8,
}

/// The internal tag for round `round` of collective number `seq`. All
/// ranks must invoke collectives in the same order (an MPI requirement
/// too), which keeps their per-rank sequence counters in lock-step.
fn coll_tag(kind: Kind, seq: u64, round: u64) -> u64 {
    INTERNAL_TAG_BASE + ((kind as u64) << 56) + (seq << 8) + round
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
    fn next_seq(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        seq
    }

    /// `MPI_Bcast`: binomial tree from `root`. The root passes
    /// `Some(value)`, everyone else `None`; all ranks return the value.
    ///
    /// Byte accounting uses `size_of::<T>()`; for heap payloads use
    /// [`Comm::try_bcast_payload`] so [`crate::CommStats`] sees the true
    /// volume.
    pub fn bcast<T: Clone + Send + 'static>(&self, root: usize, value: Option<T>) -> T {
        self.try_bcast(root, value)
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

    /// [`Comm::try_bcast`] for [`WirePayload`] values: the transfer is a
    /// `clone()` per tree edge (an `Arc` bump for shared buffers), while
    /// byte counters record [`WirePayload::wire_bytes`] — the volume the
    /// equivalent `Vec<T>` broadcast would put on a wire.
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
        let tag = coll_tag(Kind::Bcast, seq, 0);

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
        let tag = coll_tag(Kind::Gather, seq, 0);
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

    /// `MPI_Alltoallv` for blocks of [`WirePayload`] values: `buffers[j]`
    /// goes to rank `j`; returns blocks indexed by source rank.
    /// Pairwise-exchange algorithm, p−1 rounds of concurrent disjoint
    /// transfers — the "lots of concurrent transfers among node pairs"
    /// the paper's communication-avoiding method relies on. Each block
    /// moves by handoff (the vectors themselves are sent), with byte
    /// counters summing [`WirePayload::wire_bytes`] over the block — so
    /// tile handles account for the sample bytes they reference, not the
    /// handle size.
    pub fn try_alltoallv_payload<T: WirePayload + Send + 'static>(
        &self,
        buffers: Vec<Vec<T>>,
    ) -> Result<Vec<Vec<T>>, CommError> {
        self.check_alive()?;
        self.stats().alltoallvs.inc();
        let _span = obs::span_in(self.registry(), "minimpi.alltoallv");
        let (rank, size) = (self.rank(), self.size());
        if buffers.len() != size {
            return Err(CommError::Protocol("alltoallv needs one buffer per rank"));
        }
        let mut slots: Vec<Option<Vec<T>>> = buffers.into_iter().map(Some).collect();
        let seq = self.next_seq();
        let mut out: Vec<Option<Vec<T>>> = (0..size).map(|_| None).collect();
        out[rank] = slots[rank].take();
        for step in 1..size {
            let tag = coll_tag(Kind::Alltoallv, seq, step as u64);
            let dst = (rank + step) % size;
            let src = (rank + size - step) % size;
            let block = slots[dst]
                .take()
                .ok_or(CommError::Protocol("pairwise block already sent"))?;
            let bytes = block.iter().map(WirePayload::wire_bytes).sum();
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
    use super::{coll_tag, edge_key, Kind, WirePayload};
    use crate::{run, run_chaos, run_with_stats, CommError, RetryPolicy};
    use faultline::{site, FaultPlan};
    use std::sync::Arc;
    use std::time::Duration;

    /// One rank's block for rank `dst` in the all-to-all tests: `dst + 1`
    /// copies of the sender's id, wrapped as the single [`WirePayload`]
    /// item of the block.
    fn blocks_from(rank: usize, p: usize) -> Vec<Vec<Vec<u8>>> {
        (0..p).map(|dst| vec![vec![rank as u8; dst + 1]]).collect()
    }

    /// What rank `rank` receives when every rank sends [`blocks_from`].
    fn blocks_to(rank: usize, p: usize) -> Vec<Vec<Vec<u8>>> {
        (0..p).map(|src| vec![vec![src as u8; rank + 1]]).collect()
    }

    #[test]
    fn tag_layout_is_pinned() {
        // Seeded drops and delays fire on `edge_key(coll_tag(..))`, so
        // these values are the chaos schedule: a renumbered `Kind` or a
        // changed mix moves every injected fault.
        let (seq, round, src, dst) = (3, 1, 2, 5);
        for (kind, tag, key) in [
            (Kind::Bcast, 0x0200_0001_0000_0301, 0xf313_9442_39bc_63a0),
            (Kind::Gather, 0x0300_0001_0000_0301, 0xf213_9442_39bc_63a0),
            (
                Kind::Alltoallv,
                0x0800_0001_0000_0301,
                0xf913_9442_39bc_63a0,
            ),
        ] {
            assert_eq!(coll_tag(kind, seq, round), tag);
            assert_eq!(edge_key(tag, src, dst), key);
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
    fn alltoallv_variable_blocks() {
        let p = 3;
        let out = run(p, |comm| {
            comm.try_alltoallv_payload(blocks_from(comm.rank(), p))
                .unwrap()
        });
        for (rank, blocks) in out.iter().enumerate() {
            assert_eq!(blocks, &blocks_to(rank, p));
        }
    }

    #[test]
    fn back_to_back_collectives_do_not_cross_talk() {
        let out = run(4, |comm| {
            let a = comm.bcast(0, (comm.rank() == 0).then_some(1u32));
            let b = comm.bcast(3, (comm.rank() == 3).then_some(2u32));
            let c = comm.gather(1, comm.rank());
            let d = comm.try_alltoallv_payload(blocks_from(comm.rank(), 4));
            let e = comm.gather(1, comm.rank() * 10);
            (a, b, c, d.unwrap(), e)
        });
        for (rank, (a, b, c, d, e)) in out.into_iter().enumerate() {
            assert_eq!(a, 1);
            assert_eq!(b, 2);
            let at_root = |v: Vec<usize>| (rank == 1).then_some(v);
            assert_eq!(c, at_root(vec![0, 1, 2, 3]));
            assert_eq!(d, blocks_to(rank, 4));
            assert_eq!(e, at_root(vec![0, 10, 20, 30]));
        }
    }

    #[test]
    fn alltoallv_bytes_are_counted() {
        let (_, stats) = run_with_stats(2, |comm| {
            comm.try_alltoallv_payload(vec![vec![vec![0u64; 10]], vec![vec![0u64; 20]]])
                .unwrap();
        });
        // Each rank sends one off-diagonal block: rank 0 the 20-element
        // one, rank 1 the 10-element one.
        assert_eq!(stats.alltoallvs, 2);
        assert_eq!(stats.p2p_messages, 2);
        assert_eq!(stats.p2p_bytes, 8 * (20 + 10));
    }

    #[test]
    fn payload_collectives_match_vec_forms_and_byte_counts() {
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
        let f32s = std::mem::size_of::<f32>() as u64;

        // A binomial broadcast of 40 f32 over 3 ranks: p − 1 messages,
        // each the 160 bytes the `Vec<f32>` itself would put on a wire.
        let p = 3;
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
            .all(|w| w.buf[w.lo..w.hi] == vec![1.0; 40][..] && w.wire_bytes() == 160));
        assert_eq!(pay_stats.p2p_messages, p as u64 - 1);
        assert_eq!(pay_stats.p2p_bytes, (p as u64 - 1) * 40 * f32s);
        assert_eq!(pay_stats.bcasts, p as u64);

        // Rank r sends (dst + 1)·5 f32 to each dst ≠ r: the bytes of every
        // off-diagonal block, as the `Vec<f32>` blocks would count them.
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
                    vec![src as f32; (rank + 1) * 5][..]
                );
            }
        }
        let off_diagonal: u64 = (0..p)
            .flat_map(|src| (0..p).filter(move |&dst| dst != src))
            .map(|dst| (dst as u64 + 1) * 5 * f32s)
            .sum();
        assert_eq!(win_stats.p2p_bytes, off_diagonal);
        assert_eq!(win_stats.p2p_messages, (p * (p - 1)) as u64);
        assert_eq!(win_stats.alltoallvs, p as u64);
    }

    #[test]
    fn try_collectives_match_infallible() {
        let out = run(4, |comm| {
            let a = comm
                .try_bcast(2, (comm.rank() == 2).then_some(9u8))
                .unwrap();
            let b = comm.bcast(2, (comm.rank() == 2).then_some(9u8));
            let c = comm.try_gather(1, comm.rank() as u32).unwrap();
            let d = comm.gather(1, comm.rank() as u32);
            let e = comm
                .try_alltoallv_payload(blocks_from(comm.rank(), 4))
                .unwrap();
            (a, b, c, d, e)
        });
        for (rank, (a, b, c, d, e)) in out.into_iter().enumerate() {
            assert_eq!((a, b), (9, 9));
            assert_eq!(c, d);
            assert_eq!(c.is_some(), rank == 1);
            assert_eq!(e, blocks_to(rank, 4));
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
                comm.send_internal(0, 42, 1u8, 1);
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
                    comm.try_bcast(0, None::<u8>).err(),
                    comm.try_gather(0, 0u8).err(),
                    comm.try_bcast_payload(0, None::<Vec<u8>>).err(),
                    comm.try_alltoallv_payload(vec![vec![vec![0u8]]; 2]).err(),
                    comm.try_cluster_snapshot().err(),
                ]
            } else {
                vec![]
            }
        });
        assert_eq!(out[1].len(), 5);
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
            let (out, stats) = run_chaos(3, Arc::clone(&plan), policy, |comm| {
                comm.try_alltoallv_payload(blocks_from(comm.rank(), 3))
            });
            for (rank, got) in out.into_iter().enumerate() {
                assert_eq!(got, Ok(blocks_to(rank, 3)));
            }
            assert!(stats.retries >= 1);
            retry_counts.push(stats.retries);
        }
        assert_eq!(retry_counts[0], retry_counts[1]);
    }
}
