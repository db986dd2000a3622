//! Typed communication errors and the bounded retry policy.
//!
//! MPI's classic contract is to block forever and abort on misuse.
//! Production DAS ingest can afford neither, so every collective
//! ([`crate::Comm::try_bcast`] & co.) returns [`CommError`] instead; how
//! patiently they wait is governed by a [`RetryPolicy`] fixed per world
//! at construction time ([`crate::run_chaos`]).

use std::fmt;
use std::time::Duration;

/// Why a fallible collective gave up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// No message arrived from `src` within the retry budget — how a
    /// dead or wedged peer manifests to the ranks still alive.
    Timeout {
        /// The rank we were waiting on.
        src: usize,
        /// Receive attempts made before giving up.
        attempts: u32,
    },
    /// This rank itself is dead under the active fault plan; its
    /// collectives refuse immediately rather than half-participating.
    RankDead(usize),
    /// The collective was misused (e.g. a non-root supplied no value) or
    /// a payload arrived with the wrong type.
    Protocol(&'static str),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Timeout { src, attempts } => {
                write!(f, "no message from rank {src} after {attempts} attempts")
            }
            CommError::RankDead(rank) => write!(f, "rank {rank} is dead"),
            CommError::Protocol(msg) => write!(f, "protocol error: {msg}"),
        }
    }
}

impl std::error::Error for CommError {}

/// How long a fallible receive waits and how often it retries.
///
/// Attempt `i` waits `base_timeout << i` (exponential backoff), so the
/// total patience for `attempts = 3`, `base_timeout = 25ms` is
/// 25 + 50 + 100 = 175 ms before [`CommError::Timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Receive attempts per message (≥ 1).
    pub attempts: u32,
    /// Deadline of the first attempt; `None` waits forever (the classic
    /// MPI behaviour — retries and fault drops are then meaningless).
    pub base_timeout: Option<Duration>,
}

impl RetryPolicy {
    /// Wait forever, never retry: the behaviour of [`crate::run`] worlds.
    pub fn blocking() -> RetryPolicy {
        RetryPolicy {
            attempts: 1,
            base_timeout: None,
        }
    }

    /// Bounded waiting: `attempts` tries starting at `base_timeout`,
    /// doubling each retry.
    pub fn bounded(attempts: u32, base_timeout: Duration) -> RetryPolicy {
        assert!(attempts >= 1, "a policy needs at least one attempt");
        RetryPolicy {
            attempts,
            base_timeout: Some(base_timeout),
        }
    }

    /// Largest exponent `base_timeout` is ever shifted by. Without a
    /// clamp, `1u32 << attempt` is undefined behaviour at `attempt ≥ 32`
    /// (in release builds the shift wraps, so attempt 32 would wait
    /// *less* than attempt 0); with it, every attempt past the boundary
    /// waits the same 2^16 × base — already over a minute at the default
    /// 25 ms base, i.e. effectively "patience exhausted" territory.
    pub const MAX_BACKOFF_SHIFT: u32 = 16;

    /// The deadline for 0-based attempt `i`.
    pub(crate) fn timeout_for(&self, attempt: u32) -> Option<Duration> {
        self.base_timeout
            .map(|t| t.saturating_mul(1u32 << attempt.min(Self::MAX_BACKOFF_SHIFT)))
    }
}

impl Default for RetryPolicy {
    /// Three attempts starting at 25 ms — tight enough that a chaos test
    /// over many seeds finishes quickly, patient enough that an injected
    /// sub-millisecond delay never times out.
    fn default() -> RetryPolicy {
        RetryPolicy::bounded(3, Duration::from_millis(25))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles() {
        let p = RetryPolicy::bounded(3, Duration::from_millis(10));
        assert_eq!(p.timeout_for(0), Some(Duration::from_millis(10)));
        assert_eq!(p.timeout_for(1), Some(Duration::from_millis(20)));
        assert_eq!(p.timeout_for(2), Some(Duration::from_millis(40)));
    }

    #[test]
    fn backoff_clamps_at_shift_boundary() {
        let p = RetryPolicy::bounded(u32::MAX, Duration::from_millis(10));
        let at_boundary = p.timeout_for(RetryPolicy::MAX_BACKOFF_SHIFT).unwrap();
        // The shift stops growing exactly at the boundary…
        assert_eq!(
            at_boundary,
            Duration::from_millis(10) * (1 << RetryPolicy::MAX_BACKOFF_SHIFT)
        );
        // …and every later attempt (including ones that would shift the
        // multiplier clean out of u32) waits the same clamped deadline.
        assert_eq!(
            p.timeout_for(RetryPolicy::MAX_BACKOFF_SHIFT + 1),
            Some(at_boundary)
        );
        assert_eq!(p.timeout_for(31), Some(at_boundary));
        assert_eq!(p.timeout_for(32), Some(at_boundary));
        assert_eq!(p.timeout_for(u32::MAX), Some(at_boundary));
    }

    #[test]
    fn backoff_saturates_huge_base() {
        // A base near Duration::MAX must saturate, not overflow.
        let p = RetryPolicy::bounded(4, Duration::MAX - Duration::from_secs(1));
        assert_eq!(p.timeout_for(u32::MAX), Some(Duration::MAX));
    }

    #[test]
    fn blocking_never_times_out() {
        assert_eq!(RetryPolicy::blocking().timeout_for(5), None);
    }

    #[test]
    fn errors_render() {
        let e = CommError::Timeout {
            src: 3,
            attempts: 2,
        };
        assert!(e.to_string().contains("rank 3"));
        assert!(CommError::RankDead(1).to_string().contains("dead"));
    }
}
