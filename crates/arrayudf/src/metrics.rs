//! Instrumentation handles into the global `obs` registry.
//!
//! The hybrid engine's cost model (paper §V-B) prices Apply time as
//! per-thread compute; its prefix-scan merge costs nothing here, because
//! each thread writes its results straight into the output block it
//! owns, and no engine exchanges ghost zones. These metrics expose the
//! per-thread time of every Apply in the process, feeding
//! `das_pipeline --metrics` and perfmodel calibration.

use obs::{Counter, Histogram};
use std::sync::OnceLock;

/// Metric names exported by this crate.
pub mod names {
    /// Count of multithreaded Apply invocations (`apply_mt`).
    pub const APPLY_CALLS: &str = "arrayudf.apply.calls";
    /// Histogram of per-thread compute time (UDF evaluation loop), ns.
    pub const APPLY_THREAD_NS: &str = "arrayudf.apply.thread_ns";
}

pub(crate) struct Metrics {
    pub apply_calls: Counter,
    pub apply_thread_ns: Histogram,
}

pub(crate) fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global();
        Metrics {
            apply_calls: reg.counter(names::APPLY_CALLS),
            apply_thread_ns: reg.histogram(names::APPLY_THREAD_NS),
        }
    })
}
