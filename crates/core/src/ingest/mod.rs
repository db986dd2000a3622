//! Streaming ingest: an always-on detection loop over arriving files.
//!
//! Batch DASSA answers "what happened in this corpus"; operational DAS
//! monitoring is a *stream* of one-minute files landing in a spool
//! directory, and the hard part is robustness, not throughput. This
//! module is the long-running half of the storage engine (ROADMAP
//! item 2, the `das_ingest` binary):
//!
//! ```text
//!            arrive            clean            in order
//!   spool ──────────▶ validate ──────▶ admit ────────────▶ watermark
//!     ▲  torn/corrupt:  │                │ late/duplicate      │
//!     │  retry w/       ▼                ▼                     ▼
//!     │  backoff    quarantine/    ingest.late/          window seal
//!     │  then ────▶ (damaged)      ingest.duplicate/          │
//!     └── rescan                                    evaluate ──▶ report
//!                                                       │
//!                                                  checkpoint
//!                                                (tmp+fsync+rename)
//! ```
//!
//! * **validate** — every file is scrubbed on admission
//!   ([`dasf::File::open_verified`]): torn and I/O failures retry with
//!   jittered exponential backoff, then quarantine; bit-rot and bad
//!   metadata quarantine immediately ([`spool`]).
//! * **admit** — a clean file joins the [`MinuteIndex`], the
//!   incremental VCA: a cheap metadata merge keyed by epoch minute, no
//!   array data moves ([`stream`]).
//! * **watermark** — once the spool is quiescent, the watermark
//!   advances to `max arrival − lateness`; files arriving behind the
//!   sealed frontier move to `ingest.late/` instead of mutating
//!   history ([`daemon`]).
//! * **window → report** — each complete window is read (missing
//!   minutes zero-filled and accounted, mirroring `ReadReport`),
//!   evaluated by an [`IngestJob`] (a built-in [`Analysis`] pipeline or
//!   a compiled `dasl` program), and emitted as a deterministic JSON
//!   report via tmp + fsync + atomic rename.
//! * **checkpoint** — after every emitted window the [`Checkpoint`]
//!   journal commits the next window index the same atomic way;
//!   `kill -9` + restart replays from the last committed watermark and
//!   re-emits nothing (a report already on disk is skipped, so the
//!   union of reports from an interrupted run is byte-identical to an
//!   uninterrupted one).
//!
//! Backpressure is structural: sealed windows flow through a bounded
//! queue to the evaluator thread, so when detection falls behind
//! arrival the scanner blocks instead of buffering unboundedly.
//!
//! [`Analysis`]: crate::dasa::Analysis

mod daemon;
mod journal;
mod probe;
mod spool;
mod stream;
mod watch;

pub use daemon::{run, run_once, IngestConfig, IngestJob, IngestSummary};
pub use journal::Checkpoint;
pub use probe::Probe;
pub use stream::{Admit, MinuteIndex, StreamShape, WindowData};

use obs::{Counter, Gauge, Histogram};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Metric names recorded by ingest in the global `obs` registry.
pub mod metric_names {
    /// Files validated clean and admitted into the minute index.
    pub const ADMITTED: &str = "ingest.admitted";
    /// Files arriving behind the sealed frontier, moved to `ingest.late/`.
    pub const LATE: &str = "ingest.late";
    /// Duplicate deliveries (same path twice, or a second path for an
    /// already-admitted minute).
    pub const DUPLICATE: &str = "ingest.duplicate";
    /// Files that exhausted validation retries (or failed fatally) and
    /// were moved to `ingest.quarantine/`.
    pub const QUARANTINED: &str = "ingest.quarantined";
    /// Validation retries scheduled (excludes the first attempt).
    pub const RETRIES: &str = "ingest.retries";
    /// Window reports evaluated and emitted.
    pub const WINDOWS_EMITTED: &str = "ingest.windows_emitted";
    /// Windows skipped on resume because their report already exists.
    pub const WINDOWS_SKIPPED: &str = "ingest.windows_skipped";
    /// Samples zero-filled across all emitted windows.
    pub const GAP_SAMPLES: &str = "ingest.gap_samples";
    /// Data minutes admitted but not yet sealed into a window
    /// (`max arrival − sealed frontier`).
    pub const WATERMARK_LAG: &str = "ingest.watermark_lag";
    /// Per-window latency: seal-to-report wall time in nanoseconds.
    pub const WINDOW_NS: &str = "ingest.window.ns";
    /// Sealed windows buffered between the scanner and the evaluator
    /// right now (the occupancy of the bounded queue).
    pub const QUEUE_DEPTH: &str = "ingest.queue_depth";
    /// Requests answered by the local health/metrics probe socket.
    pub const PROBE_REQUESTS: &str = "ingest.probe.requests";
}

pub(crate) struct Metrics {
    pub(crate) admitted: Counter,
    pub(crate) late: Counter,
    pub(crate) duplicate: Counter,
    pub(crate) quarantined: Counter,
    pub(crate) retries: Counter,
    pub(crate) windows_emitted: Counter,
    pub(crate) windows_skipped: Counter,
    pub(crate) gap_samples: Counter,
    watermark_lag: Gauge,
    /// Last value pushed to the gauge, so the owner thread can "set" a
    /// level through the add/sub API.
    watermark_lag_last: AtomicU64,
    pub(crate) window_ns: Histogram,
    pub(crate) queue_depth: Gauge,
    pub(crate) probe_requests: Counter,
    /// Most recent operator-facing failure (quarantine reason, probe
    /// decode error), surfaced in the probe's `Health` answer.
    last_error: Mutex<String>,
}

impl Metrics {
    /// Move the watermark-lag gauge to `lag` (single-writer: only the
    /// ingest main thread calls this).
    pub(crate) fn set_watermark_lag(&self, lag: u64) {
        let last = self.watermark_lag_last.swap(lag, Ordering::Relaxed);
        match lag.cmp(&last) {
            std::cmp::Ordering::Greater => self.watermark_lag.add(lag - last),
            std::cmp::Ordering::Less => self.watermark_lag.sub(last - lag),
            std::cmp::Ordering::Equal => {}
        }
    }

    /// Record the most recent failure for `Health.last_error`.
    pub(crate) fn note_error(&self, message: &str) {
        let mut last = match self.last_error.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        *last = message.to_string();
    }

    pub(crate) fn last_error(&self) -> String {
        match self.last_error.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        }
    }
}

pub(crate) fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global();
        Metrics {
            admitted: reg.counter(metric_names::ADMITTED),
            late: reg.counter(metric_names::LATE),
            duplicate: reg.counter(metric_names::DUPLICATE),
            quarantined: reg.counter(metric_names::QUARANTINED),
            retries: reg.counter(metric_names::RETRIES),
            windows_emitted: reg.counter(metric_names::WINDOWS_EMITTED),
            windows_skipped: reg.counter(metric_names::WINDOWS_SKIPPED),
            gap_samples: reg.counter(metric_names::GAP_SAMPLES),
            watermark_lag: reg.gauge(metric_names::WATERMARK_LAG),
            watermark_lag_last: AtomicU64::new(0),
            window_ns: reg.histogram(metric_names::WINDOW_NS),
            queue_depth: reg.gauge(metric_names::QUEUE_DEPTH),
            probe_requests: reg.counter(metric_names::PROBE_REQUESTS),
            last_error: Mutex::new(String::new()),
        }
    })
}
