//! The ingest daemon: watermark, windowing, evaluation, checkpointing.
//!
//! Two threads, one bounded queue:
//!
//! * the **main thread** owns the spool scanner and the
//!   [`MinuteIndex`]. Each round it polls the spool, classifies
//!   arrivals (admit / late / duplicate / quarantine), and — once the
//!   scanner is quiescent (nothing mid-retry) — advances the watermark
//!   and *seals* every complete window: reads its samples (zero-filled
//!   gaps included) and pushes one task into the queue. The queue is
//!   bounded by `max_inflight`, so when detection falls behind arrival
//!   the push blocks — bounded memory by construction, not policy;
//! * the **evaluator thread** pops sealed windows in order, runs the
//!   configured [`IngestJob`], writes the window report atomically,
//!   and then — and only then — commits the [`Checkpoint`].
//!
//! Windows are anchored at a base minute pinned when the first window
//! seals (or restored from the checkpoint on resume): window `k`
//! covers `[base + k·hop, base + k·hop + window)`. The **sealed
//! frontier** `base + next_window·hop` is the line history stops
//! moving behind: a file whose minute falls entirely below it can no
//! longer contribute to any future window and is moved to
//! `ingest.late/` instead of silently dropped. In the always-on loop
//! the watermark trails the newest arrival by `lateness_minutes`, so
//! slightly out-of-order delivery lands inside open windows rather
//! than behind the frontier.

use super::journal::{write_atomic, Checkpoint};
use super::spool::{SpoolEvent, SpoolScanner, DUPLICATE_DIR, LATE_DIR, QUARANTINE_DIR};
use super::stream::{Admit, MinuteIndex, WindowData};
use super::watch::SpoolWatch;
use crate::dasa::{
    dataset_digest, execute, run as run_job, Analysis, AnalysisOutput, Haee, InterferometryParams,
};
use crate::dass::Timestamp;
use crate::{DassaError, Result};
use arrayudf::Array2;
use obs::json::JsonWriter;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// What runs over each sealed window: a `dasl` program, named by an
/// [`Analysis`] or compiled from source. Both run on the VM.
#[derive(Debug, Clone)]
pub enum IngestJob {
    /// A built-in analysis (detrend → filtfilt → resample → correlate
    /// and friends) with its parameters, lowered to the program it
    /// names.
    Analysis(Analysis),
    /// A compiled `dasl` program, bound to the stream's sampling rate
    /// at evaluation time.
    Program(dasl::Program),
}

impl IngestJob {
    /// Stable short name, recorded in every window report.
    pub fn name(&self) -> &'static str {
        match self {
            IngestJob::Analysis(a) => a.name(),
            IngestJob::Program(_) => "dasl",
        }
    }

    /// Run the job over a window as stored (`f32`).
    fn eval(&self, data: &Array2<f32>, sampling_hz: f64, haee: &Haee) -> Result<AnalysisOutput> {
        match self {
            IngestJob::Analysis(a) => run_job(a, data, haee),
            IngestJob::Program(p) => execute(p, sampling_hz, data, haee),
        }
    }
}

impl Default for IngestJob {
    /// The paper's traffic-noise interferometry pipeline — the default
    /// always-on detector.
    fn default() -> IngestJob {
        IngestJob::Analysis(Analysis::Interferometry(InterferometryParams::default()))
    }
}

/// Everything an ingest run needs to know.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Directory minute files arrive in (must exist).
    pub spool: PathBuf,
    /// Directory for window reports and the checkpoint (created).
    pub out: PathBuf,
    /// Window length in minutes (≥ 1).
    pub window_minutes: u64,
    /// Hop between window starts; `0` means tumbling (`= window`).
    pub hop_minutes: u64,
    /// How many data minutes the watermark trails the newest arrival —
    /// the grace period for out-of-order delivery.
    pub lateness_minutes: u64,
    /// Validation attempts per file before quarantine (≥ 1).
    pub max_attempts: u32,
    /// First retry backoff; doubles per attempt, jittered.
    pub base_backoff: Duration,
    /// Longest wait between spool scans in the always-on loop; each
    /// wait is drawn from `[poll/2, poll)`. A file landing in the spool
    /// ends the wait at once where the spool can be watched (Linux
    /// inotify); `poll` still bounds how late a retry, the stop flag
    /// and, without a watch, an arrival is seen.
    pub poll: Duration,
    /// Sealed windows buffered between scanner and evaluator; the
    /// memory bound and the backpressure threshold.
    pub max_inflight: usize,
    /// Evaluator engine threads.
    pub threads: usize,
    /// The detection job.
    pub job: IngestJob,
}

impl IngestConfig {
    /// Defaults: 2-minute tumbling windows, 1 minute of lateness,
    /// 3 validation attempts from 50 ms, 4 windows in flight.
    pub fn new<P: Into<PathBuf>, Q: Into<PathBuf>>(spool: P, out: Q) -> IngestConfig {
        IngestConfig {
            spool: spool.into(),
            out: out.into(),
            window_minutes: 2,
            hop_minutes: 0,
            lateness_minutes: 1,
            max_attempts: 3,
            base_backoff: Duration::from_millis(50),
            poll: Duration::from_millis(200),
            max_inflight: 4,
            threads: 2,
            job: IngestJob::default(),
        }
    }

    fn hop(&self) -> u64 {
        if self.hop_minutes == 0 {
            self.window_minutes
        } else {
            self.hop_minutes
        }
    }

    /// Where this configuration journals its checkpoint.
    pub fn checkpoint_path(&self) -> PathBuf {
        self.out.join("checkpoint.json")
    }
}

/// Per-run outcome counters (process-lifetime totals live in the
/// `obs` registry under `ingest.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestSummary {
    /// Files admitted into the minute index.
    pub admitted: u64,
    /// Files moved to `ingest.late/`.
    pub late: u64,
    /// Duplicate deliveries observed.
    pub duplicate: u64,
    /// Files moved to `ingest.quarantine/`.
    pub quarantined: u64,
    /// Window reports evaluated and written.
    pub windows_emitted: u64,
    /// Windows skipped because their report already existed (resume).
    pub windows_skipped: u64,
    /// Samples zero-filled across emitted windows.
    pub gap_samples: u64,
}

#[derive(Default)]
struct SummaryCells {
    admitted: AtomicU64,
    late: AtomicU64,
    duplicate: AtomicU64,
    quarantined: AtomicU64,
    windows_emitted: AtomicU64,
    windows_skipped: AtomicU64,
    gap_samples: AtomicU64,
}

impl SummaryCells {
    fn snapshot(&self) -> IngestSummary {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        IngestSummary {
            admitted: get(&self.admitted),
            late: get(&self.late),
            duplicate: get(&self.duplicate),
            quarantined: get(&self.quarantined),
            windows_emitted: get(&self.windows_emitted),
            windows_skipped: get(&self.windows_skipped),
            gap_samples: get(&self.gap_samples),
        }
    }
}

/// Conventional report file name for window `k` starting at `start`.
pub fn report_name(window: u64, start_minute: u64) -> String {
    format!(
        "window_{window:06}_{}.json",
        Timestamp::from_epoch_minutes(start_minute).to_compact()
    )
}

enum TaskBody {
    /// Report already on disk (resume): advance the checkpoint only.
    Skip,
    /// Evaluate this window's samples.
    Eval(WindowData),
}

struct WindowTask {
    index: u64,
    start_minute: u64,
    base_minute: u64,
    watermark: u64,
    sampling_hz: i64,
    body: TaskBody,
}

/// Bounded MPSC-ish queue: the main thread pushes (blocking at
/// capacity — that block *is* the backpressure), the evaluator pops.
struct WindowQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

struct QueueState {
    q: VecDeque<WindowTask>,
    closed: bool,
}

impl WindowQueue {
    fn new(cap: usize) -> WindowQueue {
        WindowQueue {
            state: Mutex::new(QueueState {
                q: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Blocks while full. Returns `false` if the queue closed (the
    /// evaluator died); the task is dropped.
    fn push(&self, task: WindowTask) -> bool {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        while st.q.len() >= self.cap && !st.closed {
            st = self.not_full.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        if st.closed {
            return false;
        }
        st.q.push_back(task);
        super::metrics().queue_depth.add(1);
        self.not_empty.notify_one();
        true
    }

    /// Blocks while empty; `None` once closed and drained.
    fn pop(&self) -> Option<WindowTask> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(task) = st.q.pop_front() {
                super::metrics().queue_depth.sub(1);
                self.not_full.notify_one();
                return Some(task);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn is_closed(&self) -> bool {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).closed
    }

    fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Closes its queue when dropped, unwinding included.
struct CloseOnDrop<'q>(&'q WindowQueue);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Drain the spool once and return: scan until every discovered file
/// is terminal, seal every window completed by the final watermark
/// (`max arrival`, no lateness holdback), evaluate, checkpoint. The
/// staged/CI mode — calling it again later resumes from the journal.
pub fn run_once(cfg: &IngestConfig) -> Result<IngestSummary> {
    run_loop(cfg, None)
}

/// The always-on loop: scan the spool whenever a file lands in it (and
/// at least every `cfg.poll`), admit arrivals,
/// seal windows as the watermark (newest arrival − `lateness_minutes`)
/// passes them, until `stop` becomes true. Designed to be killed hard:
/// every externally visible effect (reports, checkpoint, quarantine
/// moves) is atomic, so `kill -9` at any instant loses nothing.
pub fn run(cfg: &IngestConfig, stop: &AtomicBool) -> Result<IngestSummary> {
    run_loop(cfg, Some(stop))
}

fn run_loop(cfg: &IngestConfig, stop: Option<&AtomicBool>) -> Result<IngestSummary> {
    if cfg.window_minutes == 0 {
        return Err(DassaError::BadSelection(
            "ingest window must be at least one minute".into(),
        ));
    }
    if !cfg.spool.is_dir() {
        return Err(DassaError::BadSelection(format!(
            "spool directory {} does not exist",
            cfg.spool.display()
        )));
    }
    std::fs::create_dir_all(&cfg.out)?;
    let checkpoint_path = cfg.checkpoint_path();
    let resumed = Checkpoint::load(&checkpoint_path)?;
    if let Some(cp) = &resumed {
        if cp.window_minutes != cfg.window_minutes || cp.hop_minutes != cfg.hop() {
            return Err(DassaError::Inconsistent(format!(
                "checkpoint geometry {}m/{}m hop disagrees with configured {}m/{}m hop",
                cp.window_minutes,
                cp.hop_minutes,
                cfg.window_minutes,
                cfg.hop()
            )));
        }
    }

    let queue = WindowQueue::new(cfg.max_inflight);
    let cells = SummaryCells::default();
    // The caller's fault plan reaches the evaluator's writes too.
    let plan = faultline::current();
    let mut state = MainState {
        cfg,
        // Made before the first scan, so no arrival falls between a
        // listing and a wait. Drain mode never waits for arrivals and
        // makes none: closing an inotify instance costs milliseconds.
        watch: stop.map(|_| SpoolWatch::new(&cfg.spool)),
        scanner: SpoolScanner::new(cfg.spool.clone(), cfg.max_attempts, cfg.base_backoff),
        index: MinuteIndex::new(),
        base: resumed.map(|cp| cp.base_minute),
        next_window: resumed.map_or(0, |cp| cp.next_window),
        watermark: resumed.map_or(0, |cp| cp.watermark_minute),
        round: 0,
    };

    std::thread::scope(|s| {
        // Each side closes the queue however it exits — an error or a
        // panic included — so the other never waits on it for ever.
        let evaluator = s.spawn(|| {
            let _plan = plan.map(faultline::PlanGuard::install);
            let _close = CloseOnDrop(&queue);
            evaluator_loop(cfg, &queue, &checkpoint_path, &cells)
        });
        let main_result = {
            let _close = CloseOnDrop(&queue);
            state.main_loop(stop, &queue, &cells)
        };
        let eval_result = evaluator
            .join()
            .unwrap_or_else(|_| Err(DassaError::Inconsistent("evaluator panicked".into())));
        main_result.and(eval_result)
    })?;
    Ok(cells.snapshot())
}

struct MainState<'a> {
    cfg: &'a IngestConfig,
    /// Ends idle waits when a file lands (always-on loop only).
    watch: Option<SpoolWatch>,
    scanner: SpoolScanner,
    index: MinuteIndex,
    /// Window anchor, pinned at the first seal (or restored).
    base: Option<u64>,
    next_window: u64,
    watermark: u64,
    /// Scan rounds so far; picks each round's [`idle_sleep`].
    round: u64,
}

/// The idle sleep after scan round `round`: a deterministic draw from
/// `[poll/2, poll)`, so `poll` stays the upper bound. A fixed interval
/// phase-locks the scan tick to a producer paced by the daemon (one
/// that waits for an admission or a report before it writes again) or
/// by a clock of its own: every arrival lands at the same offset in
/// the interval, and arrival-to-report latency sits at one end of a
/// `poll`-wide range or the other, flipping when the producer's write
/// time drifts across a tick. Drawn sleeps spread the offsets; with
/// the lower edge at half the upper, "found by this scan" and "found
/// by the next" cost ranges that meet, so the typical latency moves
/// smoothly with the producer's timing. The draw hashes the round
/// number: no clock, and nothing a report's bytes depend on.
fn idle_sleep(poll: Duration, round: u64) -> Duration {
    // splitmix64 finaliser
    let mut z = round.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let half = poll / 2;
    let span = (poll - half).as_nanos();
    half + Duration::from_nanos(((span * (z >> 32) as u128) >> 32) as u64)
}

impl MainState<'_> {
    fn main_loop(
        &mut self,
        stop: Option<&AtomicBool>,
        queue: &WindowQueue,
        cells: &SummaryCells,
    ) -> Result<()> {
        loop {
            if let Some(stop) = stop {
                if stop.load(Ordering::Relaxed) {
                    return Ok(());
                }
            }
            // A failed evaluator closed the queue: nothing sealed from
            // here on could be reported, and its error is the result.
            if queue.is_closed() {
                return Ok(());
            }
            let events = self.scanner.poll()?;
            for event in events {
                self.handle(event, cells)?;
            }
            if self.scanner.is_quiescent() {
                match stop {
                    None => {
                        // Drain mode: everything that will ever arrive
                        // has; seal up to the stream's end and finish.
                        if let Some(max_end) = self.index.max_end_minute() {
                            self.seal_up_to(max_end, queue)?;
                        }
                        return Ok(());
                    }
                    Some(_) => {
                        if let Some(max_end) = self.index.max_end_minute() {
                            let target = max_end
                                .saturating_sub(self.cfg.lateness_minutes)
                                .max(self.watermark);
                            self.seal_up_to(target, queue)?;
                        }
                    }
                }
            }
            let idle = idle_sleep(self.cfg.poll, self.round);
            self.round += 1;
            let wait = self
                .scanner
                .next_ready_in(Instant::now())
                .map_or(idle, |d| d.min(idle));
            if !wait.is_zero() {
                match &self.watch {
                    Some(watch) => watch.wait(wait),
                    None => std::thread::sleep(wait),
                }
            }
        }
    }

    /// The line history stops moving behind: the start of the next
    /// window to seal. `None` until the first seal pins the base.
    fn frontier(&self) -> Option<u64> {
        self.base.map(|b| b + self.next_window * self.cfg.hop())
    }

    fn handle(&mut self, event: SpoolEvent, cells: &SummaryCells) -> Result<()> {
        let m = super::metrics();
        match event {
            SpoolEvent::Quarantined { path, reason } => {
                // The scanner already moved it and bumped the counter;
                // this is an operator-facing event, so say why.
                obs::log_warn!("ingest", "quarantined {}: {reason}", path.display());
                m.note_error(&format!("quarantined {}: {reason}", path.display()));
                cells.quarantined.fetch_add(1, Ordering::Relaxed);
            }
            SpoolEvent::Validated(entry) => {
                let minute = entry.meta.timestamp.epoch_minutes();
                // Re-delivery of the path already backing this minute:
                // count it, leave the file where it is.
                if let Some(existing) = self.index.entry_at(minute) {
                    if existing.path == entry.path {
                        m.duplicate.inc();
                        cells.duplicate.fetch_add(1, Ordering::Relaxed);
                        return Ok(());
                    }
                }
                let name = entry
                    .path
                    .file_name()
                    .ok_or_else(|| DassaError::BadSelection("spool file has no name".into()))?
                    .to_os_string();
                // Entirely behind the sealed frontier: every window it
                // could contribute to was already emitted.
                if let Some(frontier) = self.frontier() {
                    if minute < frontier {
                        self.scanner.exile(&name, LATE_DIR)?;
                        m.late.inc();
                        cells.late.fetch_add(1, Ordering::Relaxed);
                        return Ok(());
                    }
                }
                match self.index.admit(entry) {
                    Ok(Admit::Admitted) => {
                        m.admitted.inc();
                        cells.admitted.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(Admit::Duplicate) => {
                        // A *different* path claims an occupied minute:
                        // first writer wins, the challenger moves aside.
                        self.scanner.exile(&name, DUPLICATE_DIR)?;
                        m.duplicate.inc();
                        cells.duplicate.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        // Wrong shape / multi-minute file: permanent
                        // damage from the stream's point of view.
                        self.scanner.exile(&name, QUARANTINE_DIR)?;
                        m.quarantined.inc();
                        cells.quarantined.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        Ok(())
    }

    /// Seal every window completed by `watermark`: read its samples
    /// and hand it to the evaluator (blocking at `max_inflight`).
    fn seal_up_to(&mut self, watermark: u64, queue: &WindowQueue) -> Result<()> {
        let hop = self.cfg.hop();
        let window = self.cfg.window_minutes;
        if self.base.is_none() {
            // Pin the anchor only when a window actually completes, so
            // an early file arriving during the grace period can still
            // lower the base.
            let candidate = match self.index.base_minute() {
                Some(b) => b,
                None => return Ok(()),
            };
            if candidate + window <= watermark {
                self.base = Some(candidate);
            }
        }
        let Some(base) = self.base else {
            return Ok(());
        };
        self.watermark = self.watermark.max(watermark);
        let sampling_hz = self.index.shape().map_or(0, |s| s.sampling_hz);
        while base + self.next_window * hop + window <= watermark {
            let start = base + self.next_window * hop;
            let report = self.cfg.out.join(report_name(self.next_window, start));
            let body = if report.exists() {
                TaskBody::Skip
            } else {
                TaskBody::Eval(self.index.read_window(start, window))
            };
            let accepted = queue.push(WindowTask {
                index: self.next_window,
                start_minute: start,
                base_minute: base,
                watermark: self.watermark,
                sampling_hz,
                body,
            });
            if !accepted {
                // Evaluator gone; its error surfaces at join time.
                return Ok(());
            }
            self.next_window += 1;
        }
        let frontier = base + self.next_window * hop;
        let lag = self
            .index
            .max_end_minute()
            .map_or(0, |end| end.saturating_sub(frontier));
        super::metrics().set_watermark_lag(lag);
        Ok(())
    }
}

fn evaluator_loop(
    cfg: &IngestConfig,
    queue: &WindowQueue,
    checkpoint_path: &Path,
    cells: &SummaryCells,
) -> Result<()> {
    let m = super::metrics();
    let haee = Haee::builder().threads(cfg.threads.max(1)).build();
    while let Some(task) = queue.pop() {
        let started = Instant::now();
        match &task.body {
            TaskBody::Skip => {
                m.windows_skipped.inc();
                cells.windows_skipped.fetch_add(1, Ordering::Relaxed);
            }
            TaskBody::Eval(wd) => {
                let json = render_report(cfg, &task, wd, &haee);
                let path = cfg.out.join(report_name(task.index, task.start_minute));
                write_atomic(&path, json.as_bytes())?;
                m.windows_emitted.inc();
                m.gap_samples.add(wd.gap_samples);
                m.window_ns.record_duration(started.elapsed());
                cells.windows_emitted.fetch_add(1, Ordering::Relaxed);
                cells
                    .gap_samples
                    .fetch_add(wd.gap_samples, Ordering::Relaxed);
            }
        }
        // Report first, checkpoint second: a crash in between resumes
        // at this window, finds the report, and skips — never re-emits.
        Checkpoint {
            base_minute: task.base_minute,
            next_window: task.index + 1,
            watermark_minute: task.watermark,
            window_minutes: cfg.window_minutes,
            hop_minutes: cfg.hop(),
        }
        .save(checkpoint_path)?;
    }
    Ok(())
}

/// Render one window report. Deterministic by construction: no wall
/// clock, no paths, integers only — the same window with the same
/// admitted files produces the same bytes in any run, which is what
/// lets the kill-and-resume gate compare report unions byte-for-byte.
fn render_report(cfg: &IngestConfig, task: &WindowTask, wd: &WindowData, haee: &Haee) -> String {
    let outcome = cfg.job.eval(&wd.data, task.sampling_hz as f64, haee);

    let mut w = JsonWriter::with_capacity(512);
    w.begin_object();
    w.key("window").uint(task.index);
    w.key("start_minute").uint(task.start_minute);
    w.key("timestamp")
        .string(&Timestamp::from_epoch_minutes(task.start_minute).to_compact());
    w.key("job").string(cfg.job.name());
    w.key("channels").uint(wd.data.rows() as u64);
    w.key("samples").uint(wd.data.cols() as u64);
    w.key("sampling_hz").uint(task.sampling_hz.max(0) as u64);
    w.key("window_minutes").uint(cfg.window_minutes);
    w.key("present_minutes").uint(wd.present_minutes);
    w.key("gap_minutes").uint(wd.gap_minutes);
    w.key("gap_samples").uint(wd.gap_samples);
    w.key("gap_spans").begin_array();
    for span in &wd.gap_spans {
        w.begin_array();
        w.uint(span.start);
        w.uint(span.end);
        w.end_array();
    }
    w.end_array();
    match outcome {
        Ok(out) => {
            let (dims, values) = out.to_dataset();
            w.key("status").string("ok");
            w.key("dims").begin_array();
            for d in &dims {
                w.uint(*d);
            }
            w.end_array();
            w.key("digest")
                .string(&format!("{:016x}", dataset_digest(&dims, &values)));
        }
        Err(e) => {
            // A job failure is a reportable outcome, not a daemon
            // death: the loop must outlive one bad window.
            w.key("status").string("error");
            w.key("error").string(&e.to_string());
        }
    }
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dass::search::tests::make_files;

    fn fresh_out(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("dassa-ingest-out-{tag}"));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn fast_cfg(spool: PathBuf, out: PathBuf) -> IngestConfig {
        let mut cfg = IngestConfig::new(spool, out);
        cfg.base_backoff = Duration::from_millis(1);
        cfg.poll = Duration::from_millis(5);
        cfg.threads = 1;
        cfg
    }

    #[test]
    fn idle_sleeps_fill_the_upper_half_of_the_poll_interval() {
        let poll = Duration::from_millis(10);
        let draws: Vec<Duration> = (0..4096).map(|r| idle_sleep(poll, r)).collect();
        assert!(draws.iter().all(|d| poll / 2 <= *d && *d < poll));
        // spread over the whole range, not parked at one offset: every
        // tenth of it is visited, by a tenth of the draws give or take
        let mut tenths = [0u32; 10];
        for d in &draws {
            tenths[((*d - poll / 2).as_nanos() * 10 / (poll / 2).as_nanos()) as usize] += 1;
        }
        assert!(tenths.iter().all(|n| (300..520).contains(n)), "{tenths:?}");
        // neighbouring rounds do not repeat each other
        assert!(draws.windows(2).all(|w| w[0] != w[1]));
        // the same round draws the same sleep in every run
        assert_eq!(idle_sleep(poll, 7), draws[7]);
        // degenerate intervals stay in range and do not panic
        assert_eq!(idle_sleep(Duration::ZERO, 3), Duration::ZERO);
        assert_eq!(idle_sleep(Duration::from_nanos(1), 3), Duration::ZERO);
        assert!(idle_sleep(Duration::MAX, 3) < Duration::MAX);
    }

    fn reports(out: &Path) -> Vec<PathBuf> {
        // The daemon creates `out` itself; racing watchers see none.
        let Ok(entries) = std::fs::read_dir(out) else {
            return Vec::new();
        };
        let mut v: Vec<PathBuf> = entries
            .map(|e| e.unwrap().path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("window_") && n.ends_with(".json"))
            })
            .collect();
        v.sort();
        v
    }

    fn concat_reports(out: &Path) -> Vec<u8> {
        let mut bytes = Vec::new();
        for p in reports(out) {
            bytes.extend_from_slice(p.file_name().unwrap().to_str().unwrap().as_bytes());
            bytes.push(b'\n');
            bytes.extend_from_slice(&std::fs::read(&p).unwrap());
            bytes.push(b'\n');
        }
        bytes
    }

    #[test]
    fn drain_emits_expected_windows_and_checkpoints() {
        let spool = make_files("daemon-drain", "170728224510", 6, 4, 240);
        let out = fresh_out("daemon-drain");
        let cfg = fast_cfg(spool, out.clone());
        let summary = run_once(&cfg).unwrap();
        assert_eq!(summary.admitted, 6);
        assert_eq!(summary.windows_emitted, 3, "6 minutes / 2-minute windows");
        assert_eq!(summary.gap_samples, 0);
        assert_eq!(reports(&out).len(), 3);
        let cp = Checkpoint::load(&cfg.checkpoint_path()).unwrap().unwrap();
        assert_eq!(cp.next_window, 3);
        assert_eq!(cp.window_minutes, 2);
        // Report content is valid JSON with the expected outcome.
        let text = std::fs::read_to_string(&reports(&out)[0]).unwrap();
        let obs::json::JsonValue::Object(map) = obs::json::parse(&text).unwrap() else {
            panic!("report is not an object");
        };
        assert_eq!(
            map.get("status"),
            Some(&obs::json::JsonValue::String("ok".into()))
        );
        assert_eq!(
            map.get("job"),
            Some(&obs::json::JsonValue::String("interferometry".into()))
        );
    }

    #[test]
    fn rerun_skips_everything_already_emitted() {
        let spool = make_files("daemon-rerun", "170728224510", 4, 4, 240);
        let out = fresh_out("daemon-rerun");
        let cfg = fast_cfg(spool, out.clone());
        let first = run_once(&cfg).unwrap();
        assert_eq!(first.windows_emitted, 2);
        let before = concat_reports(&out);
        let second = run_once(&cfg).unwrap();
        assert_eq!(second.windows_emitted, 0, "no duplicate windows");
        assert_eq!(second.windows_skipped, 0, "frontier already past them");
        assert_eq!(concat_reports(&out), before, "reports untouched");
    }

    #[test]
    fn staged_resume_matches_uninterrupted_run() {
        // Uninterrupted reference run over all 6 minutes.
        let all = make_files("daemon-union-all", "170728224510", 6, 4, 240);
        let out_ref = fresh_out("daemon-union-ref");
        run_once(&fast_cfg(all.clone(), out_ref.clone())).unwrap();

        // Staged run: first 3 files, drain, then the rest, drain again.
        let staged = fresh_out("daemon-union-staged-spool");
        std::fs::create_dir_all(&staged).unwrap();
        let mut names: Vec<_> = std::fs::read_dir(&all)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_str().is_some_and(|s| s.ends_with(".dasf")))
            .collect();
        names.sort();
        let out_staged = fresh_out("daemon-union-staged");
        let cfg = fast_cfg(staged.clone(), out_staged.clone());
        for n in &names[..3] {
            std::fs::copy(all.join(n), staged.join(n)).unwrap();
        }
        let a = run_once(&cfg).unwrap();
        assert_eq!(a.windows_emitted, 1, "first stage completes one window");
        for n in &names[3..] {
            std::fs::copy(all.join(n), staged.join(n)).unwrap();
        }
        let b = run_once(&cfg).unwrap();
        assert_eq!(
            b.windows_emitted + b.windows_skipped + a.windows_emitted,
            3 + b.windows_skipped
        );

        // The union of both stages is byte-identical to the reference.
        assert_eq!(concat_reports(&out_staged), concat_reports(&out_ref));
    }

    #[test]
    fn missing_minute_degrades_to_gap_accounting() {
        let spool = make_files("daemon-gap", "170728224510", 4, 4, 240);
        // Remove the second file: window 0 covers minutes 0–1, so its
        // report must account one missing minute.
        let mut names: Vec<_> = std::fs::read_dir(&spool)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "dasf"))
            .collect();
        names.sort();
        std::fs::remove_file(&names[1]).unwrap();
        let out = fresh_out("daemon-gap");
        let summary = run_once(&fast_cfg(spool, out.clone())).unwrap();
        assert_eq!(summary.windows_emitted, 2);
        assert_eq!(summary.gap_samples, 4 * 240);
        let text = std::fs::read_to_string(&reports(&out)[0]).unwrap();
        assert!(text.contains("\"gap_minutes\":1"), "{text}");
        assert!(text.contains("\"status\":\"ok\""), "{text}");
    }

    #[test]
    fn late_file_is_evicted_not_rewritten() {
        let all = make_files("daemon-late-src", "170728224510", 4, 4, 240);
        let mut names: Vec<_> = std::fs::read_dir(&all)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_str().is_some_and(|s| s.ends_with(".dasf")))
            .collect();
        names.sort();
        let spool = fresh_out("daemon-late-spool");
        std::fs::create_dir_all(&spool).unwrap();
        // Stage minutes 1..4 first (minute 0 withheld).
        for n in &names[1..] {
            std::fs::copy(all.join(n), spool.join(n)).unwrap();
        }
        let out = fresh_out("daemon-late");
        let cfg = fast_cfg(spool.clone(), out.clone());
        let a = run_once(&cfg).unwrap();
        assert_eq!(a.admitted, 3);
        assert!(a.windows_emitted >= 1);
        // Now minute 0 limps in — behind the sealed frontier. The
        // resumed scan retires it to `ingest.late/` alongside the two
        // already-consumed minutes (1 and 2): everything behind the
        // frontier is history, whether it was processed or never will
        // be, and retiring it keeps restart scans from regrowing.
        std::fs::copy(all.join(&names[0]), spool.join(&names[0])).unwrap();
        let b = run_once(&cfg).unwrap();
        assert_eq!(b.late, 3);
        for n in &names[..3] {
            assert!(spool.join(LATE_DIR).join(n).exists(), "{n:?} retired");
        }
        assert!(spool.join(&names[3]).exists(), "open minute stays live");
        assert_eq!(b.windows_emitted, 0, "history did not move");
    }

    #[test]
    fn always_on_loop_seals_behind_lateness_and_stops() {
        let spool = make_files("daemon-loop", "170728224510", 5, 4, 240);
        let out = fresh_out("daemon-loop");
        let mut cfg = fast_cfg(spool, out.clone());
        cfg.lateness_minutes = 1;
        let stop = AtomicBool::new(false);
        let summary = std::thread::scope(|s| {
            let h = s.spawn(|| run(&cfg, &stop));
            // Give the loop time to drain and seal.
            let deadline = Instant::now() + Duration::from_secs(10);
            while Instant::now() < deadline && reports(&out).len() < 2 {
                std::thread::sleep(Duration::from_millis(10));
            }
            stop.store(true, Ordering::Relaxed);
            h.join().unwrap()
        })
        .unwrap();
        // 5 minutes, watermark 5−1=4 → windows [0,2) and [2,4).
        assert_eq!(summary.windows_emitted, 2);
        assert_eq!(summary.admitted, 5);
    }

    #[test]
    fn an_arrival_wakes_a_long_poll() {
        let src = make_files("daemon-wake-src", "170728224510", 4, 4, 240);
        let mut names: Vec<_> = std::fs::read_dir(&src)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        let spool = fresh_out("daemon-wake-spool");
        std::fs::create_dir_all(&spool).unwrap();
        let deliver = |names: &[std::ffi::OsString]| {
            for n in names {
                std::fs::rename(src.join(n), spool.join(n)).unwrap();
            }
        };
        deliver(&names[..2]);
        let out = fresh_out("daemon-wake");
        let mut cfg = fast_cfg(spool.clone(), out.clone());
        cfg.lateness_minutes = 0;
        cfg.poll = Duration::from_secs(30);
        let stop = AtomicBool::new(false);
        let reported_within = |n: usize, limit: Duration| {
            let t0 = Instant::now();
            while reports(&out).len() < n && t0.elapsed() < limit {
                std::thread::sleep(Duration::from_millis(5));
            }
            t0.elapsed()
        };
        let (took, summary) = std::thread::scope(|s| {
            let h = s.spawn(|| run(&cfg, &stop));
            // Window 0's report: the first scan is over, the loop waits.
            reported_within(1, Duration::from_secs(20));
            deliver(&names[2..]);
            let took = reported_within(2, Duration::from_secs(3));
            stop.store(true, Ordering::Relaxed);
            // Ring the doorbell so the loop sees the flag now.
            std::fs::write(spool.join("stop.tmp"), b"").unwrap();
            (took, h.join().unwrap())
        });
        assert!(took < Duration::from_secs(3), "window 1 after {took:?}");
        assert_eq!(summary.unwrap().windows_emitted, 2);
    }

    #[test]
    fn a_failed_report_write_is_a_typed_error_and_a_rerun_heals() {
        use faultline::{key_of, site, FaultPlan};
        let out_ref = fresh_out("daemon-enospc-ref");
        let spool_ref = make_files("daemon-enospc-ref", "170728224510", 6, 4, 240);
        run_once(&fast_cfg(spool_ref, out_ref.clone())).unwrap();

        // A plan under which window 1's report cannot be written while
        // window 0's report and the checkpoint can.
        let m0 = Timestamp::parse("170728224510").unwrap().epoch_minutes();
        let plan = (0u64..)
            .map(|seed| FaultPlan::new(seed).with(site::INGEST_REPORT_WRITE, 0.5))
            .find(|p| {
                let fires =
                    |name: &str| p.fires(site::INGEST_REPORT_WRITE, key_of(name.as_bytes()));
                !fires(&report_name(0, m0))
                    && fires(&report_name(1, m0 + 2))
                    && !fires("checkpoint.json")
            })
            .expect("some seed fails exactly window 1");
        let out = fresh_out("daemon-enospc");
        let spool = make_files("daemon-enospc", "170728224510", 6, 4, 240);
        let cfg = fast_cfg(spool, out.clone());
        let err = faultline::with_plan(std::sync::Arc::new(plan), || run_once(&cfg)).unwrap_err();
        assert!(matches!(err, DassaError::Io(_)), "{err}");
        // Window 0 published and committed, window 1 neither, no `.tmp`.
        let mut left: Vec<String> = std::fs::read_dir(&out)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(left, ["checkpoint.json".to_string(), report_name(0, m0)]);
        let cp = Checkpoint::load(&cfg.checkpoint_path()).unwrap().unwrap();
        assert_eq!(cp.next_window, 1, "no commit past the missing report");
        // A clean rerun finishes the run byte for byte.
        run_once(&cfg).unwrap();
        assert_eq!(concat_reports(&out), concat_reports(&out_ref));
    }

    #[test]
    fn the_always_on_loop_ends_when_its_evaluator_fails() {
        use faultline::{site, FaultPlan};
        let spool = make_files("daemon-enospc-loop", "170728224510", 2, 4, 240);
        let mut cfg = fast_cfg(spool, fresh_out("daemon-enospc-loop"));
        cfg.lateness_minutes = 0;
        let plan = std::sync::Arc::new(FaultPlan::new(1).with(site::INGEST_REPORT_WRITE, 1.0));
        // A detached watchdog: a loop that never ends fails the test.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let stop = AtomicBool::new(false);
            tx.send(faultline::with_plan(plan, || run(&cfg, &stop)))
                .ok();
        });
        let result = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("run returns without a stop signal");
        assert!(matches!(result, Err(DassaError::Io(_))), "{result:?}");
    }

    #[test]
    fn checkpoint_geometry_mismatch_is_loud() {
        let spool = make_files("daemon-geom", "170728224510", 2, 4, 240);
        let out = fresh_out("daemon-geom");
        let cfg = fast_cfg(spool, out.clone());
        run_once(&cfg).unwrap();
        let mut wider = cfg.clone();
        wider.window_minutes = 3;
        assert!(matches!(run_once(&wider), Err(DassaError::Inconsistent(_))));
    }

    #[test]
    fn dasl_job_reports_with_program_name() {
        let spool = make_files("daemon-dasl", "170728224510", 2, 4, 240);
        let out = fresh_out("daemon-dasl");
        let mut cfg = fast_cfg(spool, out.clone());
        cfg.job = IngestJob::Program(
            dasl::compile("load(\"spool\") | detrend | demean | xcorr(master=ch[0])").unwrap(),
        );
        let summary = run_once(&cfg).unwrap();
        assert_eq!(summary.windows_emitted, 1);
        let text = std::fs::read_to_string(&reports(&out)[0]).unwrap();
        assert!(text.contains("\"job\":\"dasl\""), "{text}");
        assert!(text.contains("\"status\":\"ok\""), "{text}");
    }

    #[test]
    fn hostile_sampling_rate_is_quarantined_not_a_hang() {
        // A checksum-valid minute whose rate overflows a minute's sample
        // count, beside a good one.
        use crate::dass::{das_file_name, write_das_file, DasFileMeta};
        let spool = make_files("daemon-hostile-hz", "170728224510", 1, 4, 240);
        let ts = Timestamp::parse("170728224610").unwrap();
        let meta = DasFileMeta {
            sampling_hz: 1 << 62,
            spatial_resolution_m: 2.0,
            timestamp: ts,
            channels: 4,
            samples: 240,
        };
        let data = Array2::from_fn(4, 240, |r, c| (r + c) as f32);
        write_das_file(&spool.join(das_file_name(&ts)), &meta, &data).unwrap();
        let cfg = fast_cfg(spool.clone(), fresh_out("daemon-hostile-hz"));
        // A detached watchdog: a hang must fail the test, not wedge it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(run_once(&cfg).unwrap()));
        let summary = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("run_once returns instead of hanging");
        assert_eq!((summary.admitted, summary.quarantined), (1, 1));
        assert!(spool.join(QUARANTINE_DIR).join(das_file_name(&ts)).exists());
    }

    #[test]
    fn a_panicking_side_still_closes_the_queue() {
        let queue = WindowQueue::new(1);
        std::thread::scope(|s| {
            let scanner = s.spawn(|| {
                let _close = CloseOnDrop(&queue);
                panic!("scanner died");
            });
            assert!(queue.pop().is_none(), "the evaluator wakes, not waits");
            assert!(scanner.join().is_err());
        });
    }
}
