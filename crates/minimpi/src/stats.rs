//! Communication counters, backed by the `obs` observability registry.
//!
//! DASSA's evaluation hinges on *how many* messages each I/O strategy
//! issues (O(n) broadcasts for collective-per-file vs O(n/p) exchange
//! steps for communication-avoiding). These counters make that claim
//! testable, and feed the `perfmodel` crate's at-scale cost estimates.
//!
//! Every world owns a child of the global [`obs`] registry: counters are
//! queryable by name (`minimpi.p2p.messages`, `minimpi.coll.bcasts`, …)
//! in the world's own registry — isolated from concurrently running
//! worlds — while also aggregating into [`obs::global`] for process-wide
//! exports like `das_pipeline --metrics`.

use obs::{Counter, Histogram, Registry};
use std::sync::Arc;

/// Metric names, one per field of [`StatsSnapshot`] plus a per-message
/// size histogram.
pub mod names {
    pub const P2P_MESSAGES: &str = "minimpi.p2p.messages";
    pub const P2P_BYTES: &str = "minimpi.p2p.bytes";
    /// Histogram of per-message payload sizes in bytes.
    pub const P2P_MESSAGE_BYTES: &str = "minimpi.p2p.message_bytes";
    pub const BCASTS: &str = "minimpi.coll.bcasts";
    pub const GATHERS: &str = "minimpi.coll.gathers";
    pub const ALLTOALLVS: &str = "minimpi.coll.alltoallvs";
    /// Receive attempts that had to be repeated (timeouts waited out and
    /// injected message drops) before a fallible collective succeeded or
    /// gave up.
    pub const RETRIES: &str = "minimpi.retries";
    /// Sends swallowed because this rank is dead under a fault plan, or
    /// because the destination already left a bounded-policy world.
    pub const SUPPRESSED_SENDS: &str = "minimpi.send.suppressed";
}

/// Shared, thread-safe communication counters for one world.
///
/// A thin bundle of [`obs::Counter`] handles into the world's registry;
/// the same values are reachable there by name ([`names`]).
pub struct CommStats {
    pub(crate) p2p_messages: Counter,
    pub(crate) p2p_bytes: Counter,
    pub(crate) p2p_message_bytes: Histogram,
    pub(crate) bcasts: Counter,
    pub(crate) gathers: Counter,
    pub(crate) alltoallvs: Counter,
    pub(crate) retries: Counter,
    pub(crate) suppressed_sends: Counter,
}

impl CommStats {
    /// Bundle counter handles for `registry`.
    pub fn in_registry(registry: Arc<Registry>) -> CommStats {
        CommStats {
            p2p_messages: registry.counter(names::P2P_MESSAGES),
            p2p_bytes: registry.counter(names::P2P_BYTES),
            p2p_message_bytes: registry.histogram(names::P2P_MESSAGE_BYTES),
            bcasts: registry.counter(names::BCASTS),
            gathers: registry.counter(names::GATHERS),
            alltoallvs: registry.counter(names::ALLTOALLVS),
            retries: registry.counter(names::RETRIES),
            suppressed_sends: registry.counter(names::SUPPRESSED_SENDS),
        }
    }

    pub(crate) fn count_message(&self, bytes: usize) {
        self.p2p_messages.inc();
        self.p2p_bytes.add(bytes as u64);
        self.p2p_message_bytes.record(bytes as u64);
    }

    /// An immutable snapshot of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            p2p_messages: self.p2p_messages.get(),
            p2p_bytes: self.p2p_bytes.get(),
            bcasts: self.bcasts.get(),
            gathers: self.gathers.get(),
            alltoallvs: self.alltoallvs.get(),
            retries: self.retries.get(),
            suppressed_sends: self.suppressed_sends.get(),
        }
    }
}

impl Default for CommStats {
    /// Standalone counters in a fresh registry parented to
    /// [`obs::global`], as used by [`crate::run`] for each new world.
    fn default() -> CommStats {
        CommStats::in_registry(Arc::new(Registry::with_parent(Arc::clone(obs::global()))))
    }
}

impl std::fmt::Debug for CommStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommStats")
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

/// Plain-data snapshot of [`CommStats`].
///
/// Collective counters count *calls per rank* (a bcast on an 8-rank world
/// bumps `bcasts` by 8, once per participating rank).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub p2p_messages: u64,
    pub p2p_bytes: u64,
    pub bcasts: u64,
    pub gathers: u64,
    pub alltoallvs: u64,
    /// Repeated receive attempts in fallible collectives (see
    /// [`names::RETRIES`]).
    pub retries: u64,
    /// Sends swallowed by dead ranks or departed receivers (see
    /// [`names::SUPPRESSED_SENDS`]).
    pub suppressed_sends: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counts() {
        let s = CommStats::default();
        s.count_message(100);
        s.count_message(50);
        let snap = s.snapshot();
        assert_eq!(snap.p2p_messages, 2);
        assert_eq!(snap.p2p_bytes, 150);
    }

    #[test]
    fn counters_are_queryable_by_name() {
        let registry = Arc::new(Registry::new());
        let s = CommStats::in_registry(Arc::clone(&registry));
        s.count_message(64);
        s.bcasts.inc();
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::P2P_MESSAGES), 1);
        assert_eq!(snap.counter(names::P2P_BYTES), 64);
        assert_eq!(snap.counter(names::BCASTS), 1);
        let sizes = snap.histogram(names::P2P_MESSAGE_BYTES).expect("histogram");
        assert_eq!((sizes.count, sizes.sum), (1, 64));
    }
}
