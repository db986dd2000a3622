//! Instrumentation handles into the global `obs` registry.
//!
//! The hybrid engine's cost model (paper §V-B) splits Apply time into
//! per-thread compute and ghost-zone exchange; its prefix-scan merge
//! costs nothing here, because each thread writes its results straight
//! into the output block it owns. These histograms expose that breakdown
//! for every Apply in the process, feeding `das_pipeline --metrics` and
//! perfmodel calibration.

use obs::{Counter, Histogram};
use std::sync::OnceLock;

/// Metric names exported by this crate.
pub mod names {
    /// Count of multithreaded Apply invocations (`apply_mt` + `apply_dist`).
    pub const APPLY_CALLS: &str = "arrayudf.apply.calls";
    /// Histogram of per-thread compute time (UDF evaluation loop), ns.
    pub const APPLY_THREAD_NS: &str = "arrayudf.apply.thread_ns";
    /// Count of ghost-zone halo exchanges (per rank).
    pub const HALO_EXCHANGES: &str = "arrayudf.halo.exchanges";
    /// Histogram of per-exchange wall time, ns.
    pub const HALO_NS: &str = "arrayudf.halo.ns";
    /// Total halo payload bytes received across exchanges.
    pub const HALO_BYTES: &str = "arrayudf.halo.bytes";
}

pub(crate) struct Metrics {
    pub apply_calls: Counter,
    pub apply_thread_ns: Histogram,
    pub halo_exchanges: Counter,
    pub halo_ns: Histogram,
    pub halo_bytes: Counter,
}

pub(crate) fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = obs::global();
        Metrics {
            apply_calls: reg.counter(names::APPLY_CALLS),
            apply_thread_ns: reg.histogram(names::APPLY_THREAD_NS),
            halo_exchanges: reg.counter(names::HALO_EXCHANGES),
            halo_ns: reg.histogram(names::HALO_NS),
            halo_bytes: reg.counter(names::HALO_BYTES),
        }
    })
}
