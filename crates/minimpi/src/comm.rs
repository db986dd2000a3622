//! World setup and the point-to-point layer under the collectives: tag
//! matching and an unexpected-message queue.

use crate::error::{CommError, RetryPolicy};
use crate::stats::CommStats;
use faultline::{site, FaultPlan};
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Internal message envelope.
pub(crate) struct Envelope {
    pub(crate) src: usize,
    pub(crate) tag: u64,
    pub(crate) payload: Box<dyn Any + Send>,
}

/// Why a point-to-point receive under a collective returned no value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RecvError {
    /// No matching message arrived within the deadline. On a real cluster
    /// this is how a dead peer manifests; tests use it for failure
    /// injection.
    Timeout,
    /// A message matched source and tag but carried an unexpected payload
    /// type — the moral equivalent of an MPI datatype mismatch.
    TypeMismatch,
}

/// The communicator handle owned by each rank, analogous to
/// `MPI_COMM_WORLD` plus the local rank id.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Arc<Vec<Sender<Envelope>>>,
    receiver: Receiver<Envelope>,
    /// Unexpected-message queue: arrived but not yet matched by a recv.
    pending: RefCell<VecDeque<Envelope>>,
    /// Per-rank collective sequence number; disambiguates the internal
    /// tags of back-to-back collectives.
    pub(crate) coll_seq: Cell<u64>,
    stats: Arc<CommStats>,
    /// This rank's own registry, a child of the world registry: the
    /// per-rank view gathered by [`Comm::try_cluster_snapshot`].
    rank_registry: Arc<obs::Registry>,
    /// Receive patience for the fallible (`try_*`) collectives.
    policy: RetryPolicy,
    /// The world's fault plan, if this is a chaos world.
    faults: Option<Arc<FaultPlan>>,
    /// Is this rank dead under the fault plan? Dead ranks send nothing
    /// and their fallible collectives return [`CommError::RankDead`].
    dead: bool,
}

/// Collectives tag above this bit (the pinned tag layout); the tags
/// below it are left to the point-to-point tests.
pub(crate) const INTERNAL_TAG_BASE: u64 = 1 << 32;

impl Comm {
    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// This rank's communication counters. Increments chain into the
    /// world registry (and [`obs::global`]), so world-level totals are
    /// unchanged while the per-rank breakdown stays queryable.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// This rank's observability registry, a child of the world's.
    /// Counters and spans recorded here are visible per rank in
    /// [`Comm::try_cluster_snapshot`], in [`run_with_stats`]'s world
    /// snapshot, and (via parent chaining) in [`obs::global`]. Rank
    /// code can use it to account work alongside the communication
    /// counters.
    pub fn registry(&self) -> &std::sync::Arc<obs::Registry> {
        &self.rank_registry
    }

    /// Gather every rank's metric snapshot to rank 0: the root returns
    /// `Some(cluster)` with one section per rank (plus per-metric
    /// min/mean/max and imbalance accessors), other ranks `None`.
    ///
    /// Costs one gather. Under a fault plan a dead rank refuses with
    /// [`CommError::RankDead`] and the root times out waiting for its
    /// snapshot, like any other collective.
    pub fn try_cluster_snapshot(&self) -> Result<Option<obs::ClusterSnapshot>, CommError> {
        let snap = self.rank_registry.snapshot();
        Ok(self
            .try_gather(0, snap)?
            .map(obs::ClusterSnapshot::from_gathered))
    }

    /// Send `value` to rank `dst` with `tag` (non-blocking, buffered —
    /// like `MPI_Isend` into an eager buffer), counting `approx_bytes`
    /// in [`CommStats`].
    pub(crate) fn send_internal<T: Send + 'static>(
        &self,
        dst: usize,
        tag: u64,
        value: T,
        approx_bytes: usize,
    ) {
        assert!(
            dst < self.size,
            "send to rank {dst} out of range 0..{}",
            self.size
        );
        if self.dead {
            // A dead rank's traffic never reaches the wire; peers see
            // it as silence and time out.
            self.stats.suppressed_sends.inc();
            return;
        }
        self.stats.count_message(approx_bytes);
        // Unbounded channel: the send only fails when the destination
        // already finished. In a bounded-policy (chaos) world ranks bail
        // out of collectives routinely, so a message to a gone rank is
        // degradation, not a crash — count it and move on, like MPI
        // after a peer abort with error handlers installed. In classic
        // blocking worlds a finished receiver means a rank panicked;
        // propagate as before so bugs stay loud.
        let result = self.senders[dst].send(Envelope {
            src: self.rank,
            tag,
            payload: Box::new(value),
        });
        if result.is_err() {
            if self.policy.base_timeout.is_some() {
                self.stats.suppressed_sends.inc();
            } else {
                panic!("destination rank has terminated");
            }
        }
    }

    /// Blocking receive of a `T` from rank `src` with matching `tag`
    /// (like `MPI_Recv`). Messages from other (src, tag) pairs are queued
    /// and stay available for later receives.
    ///
    /// # Panics
    /// Panics on payload type mismatch — that is a programming error, as
    /// it is in MPI.
    pub(crate) fn recv_internal<T: Send + 'static>(&self, src: usize, tag: u64) -> T {
        match self.recv_internal_timeout(src, tag, None) {
            Ok(v) => v,
            Err(RecvError::TypeMismatch) => panic!(
                "rank {}: type mismatch receiving tag {tag:#x} from rank {src}",
                self.rank
            ),
            Err(RecvError::Timeout) => unreachable!("no timeout configured"),
        }
    }

    /// [`Comm::recv_internal`] with a deadline (`None` waits forever).
    fn recv_internal_timeout<T: Send + 'static>(
        &self,
        src: usize,
        tag: u64,
        timeout: Option<Duration>,
    ) -> Result<T, RecvError> {
        // 1. Check the unexpected-message queue.
        {
            let mut pending = self.pending.borrow_mut();
            if let Some(pos) = pending.iter().position(|e| e.src == src && e.tag == tag) {
                let env = pending.remove(pos).expect("position just found");
                return downcast(env);
            }
        }
        // 2. Drain the channel until a match appears. Already-delivered
        //    messages are always drained first (non-blocking), so a
        //    zero-duration timeout still observes them.
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        loop {
            while let Ok(env) = self.receiver.try_recv() {
                if env.src == src && env.tag == tag {
                    return downcast(env);
                }
                self.pending.borrow_mut().push_back(env);
            }
            let env = match deadline {
                None => self
                    .receiver
                    .recv()
                    .expect("world torn down while receiving"),
                Some(d) => {
                    let now = std::time::Instant::now();
                    if now >= d {
                        return Err(RecvError::Timeout);
                    }
                    match self.receiver.recv_timeout(d - now) {
                        Ok(env) => env,
                        Err(_) => return Err(RecvError::Timeout),
                    }
                }
            };
            if env.src == src && env.tag == tag {
                return downcast(env);
            }
            self.pending.borrow_mut().push_back(env);
        }
    }
}

impl Comm {
    /// Fallible collectives refuse to run on a dead rank.
    pub(crate) fn check_alive(&self) -> Result<(), CommError> {
        if self.dead {
            Err(CommError::RankDead(self.rank))
        } else {
            Ok(())
        }
    }

    /// The receive primitive under every fallible collective: retry with
    /// the world's [`RetryPolicy`], honouring injected message drops and
    /// delays.
    ///
    /// `key` identifies this (collective, round, src→dst) edge
    /// deterministically; an injected drop at that key loses the first
    /// delivery attempt(s) — always fewer than the budget — each counted
    /// in `minimpi.retries`, and the message (which really was sent) is
    /// found by a later attempt, transparently to the caller. Drops
    /// therefore slow a collective but never fail it; [`CommError::
    /// Timeout`] is reserved for peers that genuinely sent nothing
    /// (dead or already failed).
    pub(crate) fn recv_coll<T: Send + 'static>(
        &self,
        src: usize,
        tag: u64,
        key: u64,
    ) -> Result<T, CommError> {
        let attempts = self.policy.attempts.max(1);
        let drops = match &self.faults {
            Some(plan) if attempts > 1 && plan.fires(site::MINIMPI_RECV_DROP, key) => {
                1 + plan.value_below(site::MINIMPI_RECV_DROP, key, attempts as u64 - 1) as u32
            }
            _ => 0,
        };
        if let Some(plan) = &self.faults {
            // A delayed message: stall briefly before looking. Bounded
            // well below the base timeout, so delays never become
            // timeouts — they only reorder schedules.
            if plan.fires(site::MINIMPI_RECV_DELAY, key) {
                let ns = 1 + plan.value_below(site::MINIMPI_RECV_DELAY, key, 100_000);
                std::thread::sleep(Duration::from_nanos(ns));
            }
        }
        for attempt in 0..attempts {
            if attempt < drops {
                // Simulated lost delivery: don't even look at the wire.
                self.stats.retries.inc();
                continue;
            }
            match self.policy.timeout_for(attempt) {
                None => return Ok(self.recv_internal(src, tag)),
                Some(t) => match self.recv_internal_timeout(src, tag, Some(t)) {
                    Ok(v) => return Ok(v),
                    Err(RecvError::Timeout) => self.stats.retries.inc(),
                    Err(RecvError::TypeMismatch) => {
                        return Err(CommError::Protocol("payload type mismatch"))
                    }
                },
            }
        }
        Err(CommError::Timeout { src, attempts })
    }
}

fn downcast<T: 'static>(env: Envelope) -> Result<T, RecvError> {
    env.payload
        .downcast::<T>()
        .map(|b| *b)
        .map_err(|_| RecvError::TypeMismatch)
}

/// Spawn a world of `n_ranks` and run `f` on every rank concurrently.
/// Returns each rank's result, indexed by rank.
///
/// A panic on a rank reaches the caller only once every rank has
/// returned: the world's scope joins them all first. In this blocking
/// world a peer that waits on the panicked rank in a collective never
/// returns, so the world hangs rather than propagating the panic. Rank
/// code must therefore return errors, not panic, and tell its peers
/// about a failure in the messages the collectives send anyway. (In a
/// [`run_chaos`] world the fallible collectives' bounded waits time
/// out, the peers return, and then the panic propagates.)
pub fn run<R, F>(n_ranks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    run_with_stats(n_ranks, f).0
}

/// Like [`run`], additionally returning the world's communication
/// counters.
///
/// The world gets a fresh [`obs::Registry`] parented to [`obs::global`],
/// so the snapshot reflects only this world's traffic even when other
/// worlds run concurrently (e.g. parallel tests).
pub fn run_with_stats<R, F>(n_ranks: usize, f: F) -> (Vec<R>, crate::StatsSnapshot)
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    let registry = Arc::new(obs::Registry::with_parent(Arc::clone(obs::global())));
    run_in_registry(n_ranks, registry, f)
}

/// Like [`run`], recording the world's communication counters into
/// `registry` (typically a child of [`obs::global`], but any registry
/// works — tests can pass an isolated root). Returns each rank's result
/// and the world's [`crate::StatsSnapshot`], taken after all ranks
/// joined.
pub fn run_in_registry<R, F>(
    n_ranks: usize,
    registry: Arc<obs::Registry>,
    f: F,
) -> (Vec<R>, crate::StatsSnapshot)
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    run_world(n_ranks, registry, RetryPolicy::blocking(), None, f)
}

/// Spawn a *chaos world*: like [`run`], but every rank lives under
/// `plan` (a [`faultline::FaultPlan`]) and the fallible (`try_*`)
/// collectives wait with the bounded `policy` instead of blocking
/// forever.
///
/// Under the plan, a rank for which `minimpi.rank.dead` fires is *dead*:
/// it sends nothing (counted in `minimpi.send.suppressed`) and its
/// fallible collectives return [`CommError::RankDead`] immediately;
/// surviving ranks observe it as [`CommError::Timeout`] after exhausting
/// their retries. The plan is also installed thread-locally on each rank
/// thread, so dasf I/O performed by rank code sees the same schedule.
///
/// # Panics
/// Panics if `policy` has no `base_timeout` — a chaos world with
/// infinite patience would deadlock on the first dead rank.
pub fn run_chaos<R, F>(
    n_ranks: usize,
    plan: Arc<FaultPlan>,
    policy: RetryPolicy,
    f: F,
) -> (Vec<R>, crate::StatsSnapshot)
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    let registry = Arc::new(obs::Registry::with_parent(Arc::clone(obs::global())));
    run_chaos_in_registry(n_ranks, registry, plan, policy, f)
}

/// [`run_chaos`] recording into a caller-supplied registry.
pub fn run_chaos_in_registry<R, F>(
    n_ranks: usize,
    registry: Arc<obs::Registry>,
    plan: Arc<FaultPlan>,
    policy: RetryPolicy,
    f: F,
) -> (Vec<R>, crate::StatsSnapshot)
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    assert!(
        policy.base_timeout.is_some(),
        "a chaos world needs a bounded RetryPolicy, or dead ranks deadlock it"
    );
    run_world(n_ranks, registry, policy, Some(plan), f)
}

fn run_world<R, F>(
    n_ranks: usize,
    registry: Arc<obs::Registry>,
    policy: RetryPolicy,
    plan: Option<Arc<FaultPlan>>,
    f: F,
) -> (Vec<R>, crate::StatsSnapshot)
where
    R: Send,
    F: Fn(&Comm) -> R + Sync,
{
    assert!(n_ranks >= 1, "world must have at least one rank");
    // World-level handle bundle: every rank's increments chain up into
    // `registry`, so this snapshot sees the whole world's traffic.
    let world_stats = Arc::new(CommStats::in_registry(Arc::clone(&registry)));
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..n_ranks).map(|_| channel()).unzip();
    let senders = Arc::new(senders);

    let mut results: Vec<Option<R>> = (0..n_ranks).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_ranks);
        for (rank, receiver) in receivers.into_iter().enumerate() {
            let senders = Arc::clone(&senders);
            let world_registry = Arc::clone(&registry);
            let plan = plan.clone();
            let f = &f;
            handles.push(scope.spawn(move || {
                // Trace events recorded on this thread carry the rank id.
                obs::trace::set_rank(rank as u32);
                let dead = plan
                    .as_ref()
                    .is_some_and(|p| p.fires(site::MINIMPI_RANK_DEAD, rank as u64));
                // Rank code (e.g. dasf reads) sees the world's plan via
                // the thread-local scope for the life of this rank.
                let _guard = plan
                    .as_ref()
                    .map(|p| faultline::PlanGuard::install(Arc::clone(p)));
                // Each rank records into its own child of the world
                // registry, so per-rank breakdowns survive aggregation.
                let rank_registry =
                    Arc::new(obs::Registry::with_parent(Arc::clone(&world_registry)));
                let stats = Arc::new(CommStats::in_registry(Arc::clone(&rank_registry)));
                let comm = Comm {
                    rank,
                    size: n_ranks,
                    senders,
                    receiver,
                    pending: RefCell::new(VecDeque::new()),
                    coll_seq: Cell::new(0),
                    stats,
                    rank_registry,
                    policy,
                    faults: plan,
                    dead,
                };
                let out = f(&comm);
                obs::trace::set_rank(0);
                out
            }));
        }
        for (rank, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(r) => results[rank] = Some(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    let results = results
        .into_iter()
        .map(|r| r.expect("all ranks joined"))
        .collect();
    (results, world_stats.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Send on a user tag, counted at `size_of::<T>()` bytes.
    fn send<T: Send + 'static>(comm: &Comm, dst: usize, tag: u64, value: T) {
        comm.send_internal(dst, tag, value, std::mem::size_of::<T>());
    }

    /// Send a `Vec`, counted at its payload's bytes.
    fn send_block<T: Send + 'static>(comm: &Comm, dst: usize, tag: u64, value: Vec<T>) {
        let bytes = std::mem::size_of_val(value.as_slice());
        comm.send_internal(dst, tag, value, bytes);
    }

    #[test]
    fn ping_pong() {
        let out = run(2, |comm| {
            if comm.rank() == 0 {
                send(comm, 1, 7, 123u64);
                comm.recv_internal::<u64>(1, 8)
            } else {
                let v = comm.recv_internal::<u64>(0, 7);
                send(comm, 0, 8, v * 2);
                v
            }
        });
        assert_eq!(out, vec![246, 123]);
    }

    #[test]
    fn tag_matching_reorders() {
        // Rank 0 sends tag 2 then tag 1; rank 1 receives tag 1 first.
        let out = run(2, |comm| {
            if comm.rank() == 0 {
                send(comm, 1, 2, "second".to_string());
                send(comm, 1, 1, "first".to_string());
                String::new()
            } else {
                let a = comm.recv_internal::<String>(0, 1);
                let b = comm.recv_internal::<String>(0, 2);
                format!("{a},{b}")
            }
        });
        assert_eq!(out[1], "first,second");
    }

    #[test]
    fn source_matching() {
        let out = run(3, |comm| {
            if comm.rank() == 2 {
                // Receive from rank 1 first even though rank 0 sent first.
                let a = comm.recv_internal::<u32>(1, 0);
                let b = comm.recv_internal::<u32>(0, 0);
                vec![a, b]
            } else {
                send(comm, 2, 0, comm.rank() as u32);
                vec![]
            }
        });
        assert_eq!(out[2], vec![1, 0]);
    }

    #[test]
    fn recv_internal_timeout_fires() {
        let out = run(2, |comm| {
            if comm.rank() == 0 {
                comm.recv_internal_timeout::<u8>(1, 9, Some(Duration::from_millis(20)))
            } else {
                Ok(0) // rank 1 never sends on tag 9
            }
        });
        assert_eq!(out[0], Err(RecvError::Timeout));
    }

    #[test]
    fn stats_count_p2p() {
        let (_, stats) = run_with_stats(2, |comm| {
            if comm.rank() == 0 {
                send_block(comm, 1, 0, vec![0u8; 1000]);
            } else {
                let _ = comm.recv_internal::<Vec<u8>>(0, 0);
            }
        });
        assert_eq!(stats.p2p_messages, 1);
        assert_eq!(stats.p2p_bytes, 1000);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_invalid_rank_panics() {
        run(1, |comm| send(comm, 5, 0, 1u8));
    }

    #[test]
    fn cluster_snapshot_keeps_per_rank_breakdown() {
        let registry = Arc::new(obs::Registry::new());
        let (out, _) = run_in_registry(4, Arc::clone(&registry), |comm| {
            comm.registry()
                .counter("work.items")
                .add(comm.rank() as u64 + 1);
            comm.try_cluster_snapshot().unwrap()
        });
        let cluster = out[0].clone().expect("root gets the cluster view");
        assert!(out[1..].iter().all(|c| c.is_none()));
        assert_eq!(cluster.size(), 4);
        for rank in 0..4u32 {
            assert_eq!(
                cluster.ranks[&rank].counter("work.items"),
                u64::from(rank) + 1
            );
        }
        let stats = cluster.counter_stats("work.items").expect("stats");
        assert_eq!((stats.min, stats.max, stats.sum), (1, 4, 10));
        assert!((stats.imbalance() - 1.6).abs() < 1e-12);
        // Rank increments still aggregate into the world registry.
        assert_eq!(registry.snapshot().counter("work.items"), 10);
    }

    #[test]
    fn per_rank_comm_counters_differ_while_world_totals_hold() {
        let (out, stats) = run_with_stats(2, |comm| {
            if comm.rank() == 0 {
                send_block(comm, 1, 5, vec![0u8; 100]);
            } else {
                let _ = comm.recv_internal::<Vec<u8>>(0, 5);
            }
            comm.registry()
                .snapshot()
                .counter(crate::stats::names::P2P_MESSAGES)
        });
        // Only rank 0 sent; its rank registry shows 1, rank 1's shows 0,
        // and the world total is their sum.
        assert_eq!(out, vec![1, 0]);
        assert_eq!(stats.p2p_messages, 1);
    }

    #[test]
    fn collectives_emit_rank_tagged_trace_events() {
        let registry = Arc::new(obs::Registry::new());
        registry.install_tracer(Arc::new(obs::Tracer::new()));
        run_in_registry(3, Arc::clone(&registry), |comm| {
            comm.bcast(0, (comm.rank() == 0).then_some(1u8));
        });
        let trace = registry.tracer().expect("installed").collect();
        assert_eq!(trace.dropped, 0);
        let ranks: std::collections::BTreeSet<u32> = trace.events.iter().map(|e| e.rank).collect();
        assert_eq!(ranks, (0..3).collect());
        assert!(trace
            .events
            .iter()
            .any(|e| e.name.contains("minimpi.bcast")));
    }

    #[test]
    fn large_vec_transfer() {
        let n = 1 << 16;
        let out = run(2, |comm| {
            if comm.rank() == 0 {
                send_block(comm, 1, 3, (0..n as u64).collect::<Vec<_>>());
                0
            } else {
                let v = comm.recv_internal::<Vec<u64>>(0, 3);
                v.iter().sum::<u64>()
            }
        });
        assert_eq!(out[1], (n as u64 - 1) * n as u64 / 2);
    }
}
