//! The collectives DASSA sends, built on point-to-point messaging.
//!
//! The collective-per-file reader pays one broadcast per file and HAEE's
//! master spectrum travels as another ([`Comm::try_bcast`]), the
//! communication-avoiding reader pays one all-to-all
//! ([`Comm::try_alltoallv_payload`]), and distributed results and
//! cluster snapshots come home through [`Comm::try_gather`]. The
//! algorithms follow the classic MPICH implementations (binomial-tree
//! broadcast, pairwise all-to-all) so that the *message counts*
//! observed through [`crate::CommStats`] match what the DASSA paper
//! reasons about.
//!
//! Each collective has one form. It moves [`WirePayload`] values, so
//! the byte counters record what each message would occupy on a wire,
//! and it returns [`CommError`] rather than panicking: misuse is
//! [`CommError::Protocol`], a rank killed by the world's fault plan
//! refuses with [`CommError::RankDead`], and in a bounded-policy world
//! ([`crate::run_chaos`]) a silent peer surfaces as
//! [`CommError::Timeout`] after the retry budget, never as a hang.

use crate::comm::{Comm, INTERNAL_TAG_BASE};
use crate::error::CommError;

/// Payloads with a known wire size.
///
/// The in-process transport moves values by handoff or `clone()` (often
/// an `Arc` bump), so [`crate::CommStats`] byte counters need the
/// payload itself to report how many bytes it would occupy on a real
/// wire. Every collective sizes its messages with this, so shared
/// buffers move zero-copy while the byte accounting stays that of the
/// equivalent `Vec` transfer.
pub trait WirePayload {
    /// Bytes this value would occupy on a real wire.
    fn wire_bytes(&self) -> usize;
}

/// A `Vec` of plain values weighs its elements.
impl<T> WirePayload for Vec<T> {
    fn wire_bytes(&self) -> usize {
        std::mem::size_of_val(self.as_slice())
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

/// A metric snapshot weighs its JSON form, the text a rank would send.
impl WirePayload for obs::Snapshot {
    fn wire_bytes(&self) -> usize {
        self.to_json().len()
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
    /// The transfer is a `clone()` per tree edge (an `Arc` bump for
    /// shared buffers), while byte counters record
    /// [`WirePayload::wire_bytes`] per edge.
    pub fn try_bcast<T: WirePayload + Clone + Send + 'static>(
        &self,
        root: usize,
        value: Option<T>,
    ) -> Result<T, CommError> {
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
        let bytes = value.wire_bytes();
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
                self.send_internal(dst, tag, value.clone(), bytes);
            }
            mask >>= 1;
        }
        Ok(value)
    }

    /// `MPI_Gather`: every rank contributes `value`; the root returns
    /// `Some(vec)` in rank order, others `None`. Each non-root message
    /// counts [`WirePayload::wire_bytes`].
    pub fn try_gather<T: WirePayload + Send + 'static>(
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
            let bytes = value.wire_bytes();
            self.send_internal(root, tag, value, bytes);
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
                let hello = format!("hello-{root}").into_bytes();
                let out = run(p, |comm| {
                    let v = (comm.rank() == root).then(|| hello.clone());
                    comm.try_bcast(root, v).unwrap()
                });
                assert!(out.iter().all(|s| s == &hello));
            }
        }
    }

    #[test]
    fn bcast_message_count_is_p_minus_1() {
        let (_, stats) = run_with_stats(8, |comm| {
            let v = (comm.rank() == 0).then(|| vec![1u8]);
            comm.try_bcast(0, v).unwrap();
        });
        assert_eq!(stats.p2p_messages, 7);
    }

    #[test]
    fn gather_in_rank_order() {
        let out = run(5, |comm| {
            comm.try_gather(2, vec![comm.rank() as u32 * 3]).unwrap()
        });
        assert_eq!(
            out[2],
            Some(vec![vec![0], vec![3], vec![6], vec![9], vec![12]])
        );
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
            let a = comm.try_bcast(0, (comm.rank() == 0).then(|| vec![1u32]));
            let b = comm.try_bcast(3, (comm.rank() == 3).then(|| vec![2u32]));
            let c = comm.try_gather(1, vec![comm.rank()]);
            let d = comm.try_alltoallv_payload(blocks_from(comm.rank(), 4));
            let e = comm.try_gather(1, vec![comm.rank() * 10]);
            (a.unwrap(), b.unwrap(), c.unwrap(), d.unwrap(), e.unwrap())
        });
        for (rank, (a, b, c, d, e)) in out.into_iter().enumerate() {
            assert_eq!(a, [1]);
            assert_eq!(b, [2]);
            let at_root = |v: [usize; 4]| (rank == 1).then(|| v.map(|x| vec![x]).to_vec());
            assert_eq!(c, at_root([0, 1, 2, 3]));
            assert_eq!(d, blocks_to(rank, 4));
            assert_eq!(e, at_root([0, 10, 20, 30]));
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
            comm.try_bcast(1, payload).unwrap()
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
    fn try_collectives_deliver_vec_payloads() {
        let out = run(4, |comm| {
            let a = comm
                .try_bcast(2, (comm.rank() == 2).then(|| vec![9u8, 8]))
                .unwrap();
            let c = comm.try_gather(1, vec![comm.rank() as u32; 2]).unwrap();
            let e = comm
                .try_alltoallv_payload(blocks_from(comm.rank(), 4))
                .unwrap();
            (a, c, e)
        });
        for (rank, (a, c, e)) in out.into_iter().enumerate() {
            assert_eq!(a, [9, 8]);
            let gathered = (0..4).map(|r| vec![r; 2]).collect::<Vec<_>>();
            assert_eq!(c, (rank == 1).then_some(gathered));
            assert_eq!(e, blocks_to(rank, 4));
        }
    }

    /// A gathered block weighs its samples: `n` f32 are `4n` bytes on
    /// each non-root message, not the size of a `Vec` header.
    #[test]
    fn gather_counts_the_bytes_of_each_block() {
        let (p, n) = (3usize, 96_000usize);
        let (out, stats) = run_with_stats(p, |comm| {
            comm.try_gather(0, vec![comm.rank() as f32; n]).unwrap()
        });
        let blocks = out[0].as_ref().expect("the root gathers");
        assert!(blocks
            .iter()
            .enumerate()
            .all(|(r, b)| b == &vec![r as f32; n]));
        assert_eq!(stats.gathers, p as u64);
        assert_eq!(stats.p2p_messages, p as u64 - 1);
        assert_eq!(stats.p2p_bytes, (p as u64 - 1) * 4 * n as u64);
    }

    /// A broadcast spectrum weighs 16 bytes per complex sample on every
    /// edge of the tree.
    #[test]
    fn bcast_counts_the_bytes_of_a_spectrum() {
        /// A complex sample as `dsp` holds it: two `f64` parts.
        #[derive(Clone, Copy, Debug, PartialEq)]
        struct Complex {
            re: f64,
            im: f64,
        }
        let (p, n) = (5usize, 1_000usize);
        let spectrum = vec![Complex { re: 1.0, im: -2.0 }; n];
        let (out, stats) = run_with_stats(p, |comm| {
            comm.try_bcast(0, (comm.rank() == 0).then(|| spectrum.clone()))
                .unwrap()
        });
        assert!(out.iter().all(|s| s == &spectrum));
        assert_eq!(stats.p2p_messages, p as u64 - 1);
        assert_eq!(stats.p2p_bytes, (p as u64 - 1) * 16 * n as u64);
    }

    #[test]
    fn try_bcast_reports_misuse_as_protocol_error() {
        let out = run(1, |comm| comm.try_bcast::<Vec<u8>>(0, None));
        assert!(matches!(out[0], Err(CommError::Protocol(_))));
        let out = run(1, |comm| comm.try_bcast(7, Some(vec![1u8])));
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
            comm.try_bcast(1, Some(vec![comm.rank() as u32]))
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
                    comm.try_bcast(0, None::<Vec<u8>>).err(),
                    comm.try_gather(0, vec![0u8]).err(),
                    comm.try_alltoallv_payload(vec![vec![vec![0u8]]; 2]).err(),
                    comm.try_cluster_snapshot().err(),
                ]
            } else {
                vec![]
            }
        });
        assert_eq!(out[1].len(), 4);
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
