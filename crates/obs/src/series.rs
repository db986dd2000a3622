//! Windowed time-series over a [`Registry`]: a background sampler that
//! snapshots the registry every N ms into a bounded ring, plus the
//! delta math that turns cumulative snapshots into per-window rates.
//!
//! The `obs` layer is cumulative by design — counters only grow, and a
//! one-shot snapshot answers "what happened since process start". An
//! operator watching a live daemon needs the derivative: requests *per
//! second*, bytes *per second*, the cache hit ratio *over the last few
//! seconds*. [`SeriesRing`] keeps the last `capacity` snapshots with
//! their sample times; [`SeriesRing::windows`] differentiates adjacent
//! pairs into [`RateWindow`]s:
//!
//! - **Counters** become integer milli-units/second
//!   (`delta * 1_000_000 / dt_ms`, saturating — a monotonic counter can
//!   never produce a negative rate). Milli-units keep the export inside
//!   the workspace's integer-only JSON dialect while preserving three
//!   decimal places.
//! - **Gauges** are level quantities; each window reports the level at
//!   the window's end (a trend sample, not a rate).
//! - **Histograms** subtract bucket-wise, yielding the sample count,
//!   sum, and quantile estimates *of that window alone* (quantiles are
//!   clamped to the cumulative `[min, max]`, the only extremes a
//!   mergeable histogram can remember).
//!
//! [`Sampler::start`] runs the loop on a background thread; the thread
//! meters itself (`obs.series.samples`, `obs.series.evicted`) into the
//! same registry it samples, so the telemetry pipeline is visible in
//! its own output.

use crate::json::JsonWriter;
use crate::snapshot::{HistogramSnapshot, Snapshot};
use crate::Registry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One sampled point: a cumulative snapshot and when it was taken
/// (milliseconds since the ring's epoch).
#[derive(Debug, Clone)]
pub struct SeriesPoint {
    pub at_ms: u64,
    pub snapshot: Snapshot,
}

/// Rates and trend samples derived from two adjacent snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RateWindow {
    /// Window bounds, ms since the ring's epoch.
    pub t0_ms: u64,
    pub t1_ms: u64,
    /// Counter rates in milli-units per second (12.345/s → 12345),
    /// zero-delta counters omitted.
    pub rates_milli: BTreeMap<String, u64>,
    /// Gauge levels at the window's end (every known gauge).
    pub gauges: BTreeMap<String, u64>,
    /// Per-window histogram deltas (zero-count windows omitted).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RateWindow {
    /// Rate for `name` in milli-units/second, 0 if absent.
    pub fn rate_milli(&self, name: &str) -> u64 {
        self.rates_milli.get(name).copied().unwrap_or(0)
    }

    /// Rate for `name` in units/second as a float.
    pub fn rate(&self, name: &str) -> f64 {
        self.rate_milli(name) as f64 / 1000.0
    }

    /// Window length in milliseconds (at least 1 once derived).
    pub fn dt_ms(&self) -> u64 {
        self.t1_ms.saturating_sub(self.t0_ms)
    }
}

/// Bounded ring of [`SeriesPoint`]s; pushing past `capacity` evicts the
/// oldest. All derivation is pure — the ring never touches a registry.
#[derive(Debug)]
pub struct SeriesRing {
    capacity: usize,
    points: VecDeque<SeriesPoint>,
    evicted: u64,
}

impl SeriesRing {
    /// Ring holding at most `capacity` points (clamped to >= 2 so at
    /// least one window is always derivable at steady state).
    pub fn new(capacity: usize) -> SeriesRing {
        SeriesRing {
            capacity: capacity.max(2),
            points: VecDeque::new(),
            evicted: 0,
        }
    }

    /// Append a sample, evicting the oldest when full. Returns true if
    /// an eviction happened.
    pub fn push(&mut self, at_ms: u64, snapshot: Snapshot) -> bool {
        let mut evicted = false;
        while self.points.len() >= self.capacity {
            self.points.pop_front();
            self.evicted += 1;
            evicted = true;
        }
        self.points.push_back(SeriesPoint { at_ms, snapshot });
        evicted
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total points evicted since creation.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Differentiate every adjacent pair of samples, oldest first.
    pub fn windows(&self) -> Vec<RateWindow> {
        self.points
            .iter()
            .zip(self.points.iter().skip(1))
            .map(|(a, b)| derive_window(a, b))
            .collect()
    }

    /// The most recent window, if two samples exist.
    pub fn latest_window(&self) -> Option<RateWindow> {
        let n = self.points.len();
        if n < 2 {
            return None;
        }
        Some(derive_window(&self.points[n - 2], &self.points[n - 1]))
    }

    /// JSON export of the windowed series:
    /// `{"points":N,"capacity":C,"evicted":E,"windows":[...]}` — each
    /// window carrying `t0_ms`/`t1_ms`, `rates_milli_per_sec`,
    /// `gauges`, and per-window histogram stats. Integer-only, so the
    /// document parses with [`crate::json::parse`].
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(1024);
        w.begin_object();
        w.key("points").uint(self.points.len() as u64);
        w.key("capacity").uint(self.capacity as u64);
        w.key("evicted").uint(self.evicted);
        w.key("windows");
        w.begin_array();
        for win in self.windows() {
            w.begin_object();
            w.key("t0_ms").uint(win.t0_ms);
            w.key("t1_ms").uint(win.t1_ms);
            w.key("rates_milli_per_sec");
            w.begin_object();
            for (k, v) in &win.rates_milli {
                w.key(k).uint(*v);
            }
            w.end_object();
            w.key("gauges");
            w.begin_object();
            for (k, v) in &win.gauges {
                w.key(k).uint(*v);
            }
            w.end_object();
            w.key("histograms");
            w.begin_object();
            for (k, h) in &win.histograms {
                w.key(k);
                w.begin_object();
                w.key("count").uint(h.count);
                w.key("sum").uint(h.sum);
                w.key("p50").uint(h.p50());
                w.key("p95").uint(h.p95());
                w.key("p99").uint(h.p99());
                w.end_object();
            }
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Differentiate two cumulative samples into one window. All counter
/// deltas saturate at zero: a restarted or reset registry can make a
/// later sample smaller, and a rate must never underflow to ~u64::MAX.
fn derive_window(a: &SeriesPoint, b: &SeriesPoint) -> RateWindow {
    let dt_ms = b.at_ms.saturating_sub(a.at_ms).max(1);
    let mut rates_milli = BTreeMap::new();
    for (name, &after) in &b.snapshot.counters {
        let before = a.snapshot.counter(name);
        let delta = after.saturating_sub(before);
        if delta > 0 {
            let milli = (delta as u128 * 1_000_000 / dt_ms as u128).min(u64::MAX as u128);
            rates_milli.insert(name.clone(), milli as u64);
        }
    }
    let mut histograms = BTreeMap::new();
    for (name, after) in &b.snapshot.histograms {
        let delta = match a.snapshot.histograms.get(name) {
            Some(before) => delta_histogram(before, after),
            None => after.clone(),
        };
        if delta.count > 0 {
            histograms.insert(name.clone(), delta);
        }
    }
    RateWindow {
        t0_ms: a.at_ms,
        t1_ms: b.at_ms,
        rates_milli,
        gauges: b.snapshot.gauges.clone(),
        histograms,
    }
}

/// Bucket-wise subtraction of cumulative histograms. The windowed
/// `min`/`max` are unrecoverable from cumulative extremes, so the
/// delta inherits the cumulative ones — quantiles stay clamped to a
/// range that certainly contains every windowed sample.
fn delta_histogram(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let prior: BTreeMap<u32, u64> = before.buckets.iter().copied().collect();
    let buckets: Vec<(u32, u64)> = after
        .buckets
        .iter()
        .filter_map(|&(i, n)| {
            let d = n.saturating_sub(prior.get(&i).copied().unwrap_or(0));
            (d > 0).then_some((i, d))
        })
        .collect();
    HistogramSnapshot {
        count: after.count.saturating_sub(before.count),
        sum: after.sum.saturating_sub(before.sum),
        min: after.min,
        max: after.max,
        buckets,
    }
}

struct SamplerInner {
    ring: Mutex<SeriesRing>,
    stop: AtomicBool,
    registry: Arc<Registry>,
    epoch: Instant,
}

impl SamplerInner {
    fn sample(&self) {
        let at_ms = u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
        let snapshot = self.registry.snapshot();
        self.registry.counter("obs.series.samples").inc();
        let evicted = match self.ring.lock() {
            Ok(mut r) => r.push(at_ms, snapshot),
            Err(mut p) => p.get_mut().push(at_ms, snapshot),
        };
        if evicted {
            self.registry.counter("obs.series.evicted").inc();
        }
    }
}

/// Background sampler: snapshots `registry` every `interval` into a
/// bounded [`SeriesRing`]. Stops when dropped or via [`Sampler::stop`].
pub struct Sampler {
    inner: Arc<SamplerInner>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Start sampling. The first sample is taken immediately, so one
    /// window exists after a single interval.
    pub fn start(registry: Arc<Registry>, interval: Duration, capacity: usize) -> Sampler {
        let inner = Arc::new(SamplerInner {
            ring: Mutex::new(SeriesRing::new(capacity)),
            stop: AtomicBool::new(false),
            registry,
            epoch: Instant::now(),
        });
        inner.sample();
        let worker = Arc::clone(&inner);
        let interval = interval.max(Duration::from_millis(1));
        let handle = std::thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || {
                // Sleep in short slices so stop() returns promptly even
                // with multi-second intervals.
                let slice = interval.min(Duration::from_millis(25));
                let mut next = Instant::now() + interval;
                while !worker.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(slice);
                    if Instant::now() >= next {
                        worker.sample();
                        next += interval;
                    }
                }
            })
            .expect("spawn obs-sampler");
        Sampler {
            inner,
            handle: Some(handle),
        }
    }

    /// Take an out-of-cadence sample right now (shutdown and flight
    /// paths use this so the final window reflects the last moments).
    pub fn sample_now(&self) {
        self.inner.sample();
    }

    /// Run `f` against the current ring.
    pub fn with_ring<T>(&self, f: impl FnOnce(&SeriesRing) -> T) -> T {
        match self.inner.ring.lock() {
            Ok(r) => f(&r),
            Err(p) => f(&p.into_inner()),
        }
    }

    /// JSON export of the current windowed series.
    pub fn to_json(&self) -> String {
        self.with_ring(|r| r.to_json())
    }

    /// The most recent derived window, if any.
    pub fn latest_window(&self) -> Option<RateWindow> {
        self.with_ring(|r| r.latest_window())
    }

    /// Stop the background thread and join it.
    pub fn stop(mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn snap_with(counter: u64, gauge: u64) -> Snapshot {
        let reg = Registry::new();
        reg.counter("req").add(counter);
        reg.gauge("depth").add(gauge);
        reg.snapshot()
    }

    #[test]
    fn rates_derive_from_deltas_not_totals() {
        let mut ring = SeriesRing::new(8);
        ring.push(0, snap_with(1000, 4));
        ring.push(500, snap_with(1250, 7));
        let w = ring.latest_window().unwrap();
        // 250 events over 0.5s = 500/s = 500_000 milli.
        assert_eq!(w.rate_milli("req"), 500_000);
        assert!((w.rate("req") - 500.0).abs() < 1e-9);
        assert_eq!(w.gauges["depth"], 7, "gauge is a trend sample");
    }

    #[test]
    fn counter_reset_yields_zero_rate_not_underflow() {
        let mut ring = SeriesRing::new(4);
        ring.push(0, snap_with(900, 0));
        ring.push(1000, snap_with(100, 0));
        let w = ring.latest_window().unwrap();
        assert_eq!(w.rate_milli("req"), 0);
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let mut ring = SeriesRing::new(3);
        for i in 0..10u64 {
            ring.push(i * 100, snap_with(i, 0));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.evicted(), 7);
        assert_eq!(ring.windows().len(), 2);
    }

    #[test]
    fn histogram_windows_subtract_bucketwise() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        h.record(10);
        h.record(10);
        let first = reg.snapshot();
        h.record(1000);
        let second = reg.snapshot();
        let mut ring = SeriesRing::new(4);
        ring.push(0, first);
        ring.push(1000, second);
        let w = ring.latest_window().unwrap();
        let d = &w.histograms["lat"];
        assert_eq!(d.count, 1);
        assert_eq!(d.sum, 1000);
        // Only the 1000-sample bucket survives the subtraction.
        assert_eq!(d.buckets.len(), 1);
        assert_eq!(d.p99(), 1000);
    }

    #[test]
    fn json_export_parses_and_carries_windows() {
        let mut ring = SeriesRing::new(4);
        ring.push(0, snap_with(0, 1));
        ring.push(250, snap_with(10, 2));
        let text = ring.to_json();
        assert!(json::parse(&text).is_ok(), "unparseable: {text}");
        assert!(text.contains("\"rates_milli_per_sec\""));
        assert!(text.contains("\"req\":40000"), "40/s expected: {text}");
    }

    #[test]
    fn sampler_collects_and_meters_itself() {
        let reg = Arc::new(Registry::new());
        reg.counter("work").add(5);
        let sampler = Sampler::start(Arc::clone(&reg), Duration::from_millis(5), 16);
        reg.counter("work").add(5);
        sampler.sample_now();
        let json_text = sampler.to_json();
        assert!(json::parse(&json_text).is_ok());
        assert!(sampler.with_ring(|r| r.len()) >= 2);
        sampler.stop();
        assert!(reg.snapshot().counter("obs.series.samples") >= 2);
    }

    #[test]
    fn zero_dt_windows_do_not_divide_by_zero() {
        let mut ring = SeriesRing::new(4);
        ring.push(100, snap_with(0, 0));
        ring.push(100, snap_with(7, 0));
        let w = ring.latest_window().unwrap();
        // dt clamps to 1ms: 7 events / 1ms = 7000/s.
        assert_eq!(w.rate_milli("req"), 7_000_000);
    }
}
