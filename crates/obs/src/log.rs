//! Zero-dependency leveled structured logging for the daemons.
//!
//! One process-wide [`Logger`] replaces the ad-hoc `eprintln!` sites:
//! every record carries a nanosecond timestamp (since process start),
//! a level, a target (the emitting subsystem), the rank and logger
//! thread id, and the dotted path of the span open on the emitting
//! thread (via [`crate::span::current_path`]) — so a log line can be
//! lined up against the trace timeline without any extra plumbing.
//!
//! # Line grammar
//!
//! Text format (default), one record per line on stderr:
//!
//! ```text
//! <ts_ns>ns <LEVEL> <rank>.<thread> <target>{ span=<dotted.path>} <message>
//! ```
//!
//! JSON format (`DASSA_LOG_FORMAT=json`), one object per line:
//!
//! ```text
//! {"ts_ns":N,"level":"info","target":"dassd","rank":0,"thread":1,"span":"...","msg":"..."}
//! ```
//!
//! # Filtering
//!
//! `DASSA_LOG` selects the minimum level, optionally per target:
//! `DASSA_LOG=debug`, `DASSA_LOG=warn,dassd=debug` (longest matching
//! target prefix wins; the bare level is the default). Unset means
//! `info`.
//!
//! Emitted records also land in a bounded ring (most recent
//! [`TAIL_CAPACITY`]) that the flight recorder dumps on panic, and are
//! metered as `log.<level>` counters on the global registry
//! (`log.filtered` counts suppressions).

use crate::json::{self, JsonValue, JsonWriter, ParseError};
use std::collections::VecDeque;
use std::fmt;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// How many emitted records the in-memory tail retains for postmortems.
pub const TAIL_CAPACITY: usize = 256;

/// Severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
    Trace = 4,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Nanoseconds since the logger's epoch (first use in the process).
    pub ts_ns: u64,
    pub level: Level,
    /// Emitting subsystem, e.g. `dassd`, `das_ingest`, `ingest.spool`.
    pub target: String,
    /// Rank tag of the emitting thread ([`crate::trace::current_rank`]).
    pub rank: u32,
    /// Logger-assigned thread id, unique per thread in this process.
    pub thread: u64,
    /// Dotted span path open on the emitting thread, empty if none.
    pub span: String,
    pub msg: String,
}

impl Record {
    /// Single-line JSON object (the `DASSA_LOG_FORMAT=json` line shape).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(128);
        w.begin_object();
        w.key("ts_ns").uint(self.ts_ns);
        w.key("level").string(self.level.as_str());
        w.key("target").string(&self.target);
        w.key("rank").uint(u64::from(self.rank));
        w.key("thread").uint(self.thread);
        w.key("span").string(&self.span);
        w.key("msg").string(&self.msg);
        w.end_object();
        w.finish()
    }

    /// Parse a record previously produced by [`Record::to_json`].
    pub fn from_json(text: &str) -> Result<Record, ParseError> {
        Record::from_value(&json::parse(text)?)
    }

    pub(crate) fn from_value(root: &JsonValue) -> Result<Record, ParseError> {
        let JsonValue::Object(obj) = root else {
            return Err(ParseError::new("log record: expected object"));
        };
        let num = |key: &str| -> Result<u64, ParseError> {
            match obj.get(key) {
                Some(JsonValue::Number(n)) => Ok(*n),
                Some(_) => Err(ParseError::new(format!("log record: {key} not integer"))),
                None => Err(ParseError::missing("log record", key)),
            }
        };
        let text = |key: &str| -> Result<String, ParseError> {
            match obj.get(key) {
                Some(JsonValue::String(s)) => Ok(s.clone()),
                Some(_) => Err(ParseError::new(format!("log record: {key} not string"))),
                None => Err(ParseError::missing("log record", key)),
            }
        };
        let level = text("level")?;
        Ok(Record {
            ts_ns: num("ts_ns")?,
            level: Level::parse(&level)
                .ok_or_else(|| ParseError::new(format!("log record: bad level {level:?}")))?,
            target: text("target")?,
            rank: num("rank")? as u32,
            thread: num("thread")?,
            span: text("span")?,
            msg: text("msg")?,
        })
    }

    /// The text line shape (no trailing newline).
    pub fn render_text(&self) -> String {
        let level = self.level.as_str().to_ascii_uppercase();
        if self.span.is_empty() {
            format!(
                "{}ns {:5} {}.{} {} {}",
                self.ts_ns, level, self.rank, self.thread, self.target, self.msg
            )
        } else {
            format!(
                "{}ns {:5} {}.{} {} span={} {}",
                self.ts_ns, level, self.rank, self.thread, self.target, self.span, self.msg
            )
        }
    }
}

/// Output line shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Text,
    Json,
}

/// Minimum-level filter: a default plus per-target overrides; the
/// longest override whose name prefixes the record's target wins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    default: Level,
    overrides: Vec<(String, Level)>,
}

impl Filter {
    pub fn new(default: Level) -> Filter {
        Filter {
            default,
            overrides: Vec::new(),
        }
    }

    /// Parse a `DASSA_LOG` spec: comma-separated `level` or
    /// `target=level` clauses. Unknown clauses are ignored rather than
    /// fatal — a typo in an env var must never take the daemon down.
    pub fn parse(spec: &str) -> Filter {
        let mut filter = Filter::new(Level::Info);
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            match clause.split_once('=') {
                None => {
                    if let Some(level) = Level::parse(clause) {
                        filter.default = level;
                    }
                }
                Some((target, level)) => {
                    if let Some(level) = Level::parse(level) {
                        filter.overrides.push((target.trim().to_string(), level));
                    }
                }
            }
        }
        // Longest prefix first, so the first match below is the winner.
        filter
            .overrides
            .sort_by_key(|entry| std::cmp::Reverse(entry.0.len()));
        filter
    }

    /// Would a record at `level` from `target` pass?
    pub fn enabled(&self, level: Level, target: &str) -> bool {
        let min = self
            .overrides
            .iter()
            .find(|(prefix, _)| target.starts_with(prefix.as_str()))
            .map(|&(_, level)| level)
            .unwrap_or(self.default);
        level <= min
    }
}

enum Sink {
    Stderr,
    /// Test/chaos sink: records accumulate here instead of stderr.
    Capture(Arc<Mutex<Vec<Record>>>),
}

/// The process-wide structured logger. Obtain via [`logger`]; emit via
/// the `log_error!`/`log_warn!`/`log_info!`/`log_debug!` macros.
pub struct Logger {
    epoch: Instant,
    filter: Mutex<Filter>,
    format: AtomicU8,
    sink: Mutex<Sink>,
    tail: Mutex<VecDeque<Record>>,
}

impl Logger {
    fn from_env() -> Logger {
        let filter = std::env::var("DASSA_LOG")
            .map(|spec| Filter::parse(&spec))
            .unwrap_or_else(|_| Filter::new(Level::Info));
        let format = match std::env::var("DASSA_LOG_FORMAT").as_deref() {
            Ok("json") => Format::Json,
            _ => Format::Text,
        };
        Logger {
            epoch: Instant::now(),
            filter: Mutex::new(filter),
            format: AtomicU8::new(if format == Format::Json { 1 } else { 0 }),
            sink: Mutex::new(Sink::Stderr),
            tail: Mutex::new(VecDeque::with_capacity(TAIL_CAPACITY)),
        }
    }

    pub fn format(&self) -> Format {
        if self.format.load(Ordering::Relaxed) == 1 {
            Format::Json
        } else {
            Format::Text
        }
    }

    /// Route records into `buffer` instead of stderr (the chaos suite
    /// uses this to keep daemon noise out of deterministic output).
    pub fn capture(&self, buffer: Arc<Mutex<Vec<Record>>>) {
        *lock(&self.sink) = Sink::Capture(buffer);
    }

    /// Restore the stderr sink.
    pub fn uncapture(&self) {
        *lock(&self.sink) = Sink::Stderr;
    }

    /// Cheap pre-check for guarding expensive message construction.
    pub fn enabled(&self, level: Level, target: &str) -> bool {
        lock(&self.filter).enabled(level, target)
    }

    /// Emit one record (filtered records only bump `log.filtered`).
    pub fn log(&self, level: Level, target: &str, args: fmt::Arguments<'_>) {
        if !self.enabled(level, target) {
            crate::global().counter("log.filtered").inc();
            return;
        }
        let record = Record {
            ts_ns: u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
            level,
            target: target.to_string(),
            rank: crate::trace::current_rank(),
            thread: thread_id(),
            span: crate::span::current_path().unwrap_or_default(),
            msg: args.to_string(),
        };
        crate::global()
            .counter(&format!("log.{}", level.as_str()))
            .inc();
        {
            let mut tail = lock(&self.tail);
            while tail.len() >= TAIL_CAPACITY {
                tail.pop_front();
            }
            tail.push_back(record.clone());
        }
        let line = match self.format() {
            Format::Text => record.render_text(),
            Format::Json => record.to_json(),
        };
        match &*lock(&self.sink) {
            Sink::Stderr => {
                let stderr = std::io::stderr();
                let mut out = stderr.lock();
                let _ = writeln!(out, "{line}");
            }
            Sink::Capture(buffer) => lock(buffer).push(record),
        }
    }

    /// Most recent emitted records, oldest first (at most
    /// [`TAIL_CAPACITY`]); the flight recorder dumps these on panic.
    pub fn tail(&self) -> Vec<Record> {
        lock(&self.tail).iter().cloned().collect()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Logger-assigned id of the calling thread (stable for its lifetime).
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ID.with(|id| *id)
}

/// The process-wide logger, configured from `DASSA_LOG` /
/// `DASSA_LOG_FORMAT` on first use.
pub fn logger() -> &'static Logger {
    static LOGGER: OnceLock<Logger> = OnceLock::new();
    LOGGER.get_or_init(Logger::from_env)
}

/// Emit through the global logger (macro plumbing; prefer the macros).
pub fn log(level: Level, target: &str, args: fmt::Arguments<'_>) {
    logger().log(level, target, args);
}

/// `log_error!("dassd", "accept failed: {e}")`
#[macro_export]
macro_rules! log_error {
    ($target:expr, $($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Error, $target, format_args!($($arg)*))
    };
}

/// `log_warn!("ingest.spool", "quarantined {name}: {reason}")`
#[macro_export]
macro_rules! log_warn {
    ($target:expr, $($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Warn, $target, format_args!($($arg)*))
    };
}

/// `log_info!("dassd", "listening on {addr}")`
#[macro_export]
macro_rules! log_info {
    ($target:expr, $($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Info, $target, format_args!($($arg)*))
    };
}

/// `log_debug!("dassd", "cache miss for {path}")`
#[macro_export]
macro_rules! log_debug {
    ($target:expr, $($arg:tt)*) => {
        $crate::log::log($crate::log::Level::Debug, $target, format_args!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> Record {
        Record {
            ts_ns: 123_456_789,
            level: Level::Warn,
            target: "dassd".into(),
            rank: 2,
            thread: 7,
            span: "serve.read".into(),
            msg: "cache \"hot\"\npath".into(),
        }
    }

    #[test]
    fn record_json_round_trips() {
        let rec = sample_record();
        let back = Record::from_json(&rec.to_json()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn record_json_rejects_bad_shapes() {
        assert!(Record::from_json("[]").is_err());
        assert!(Record::from_json("{\"ts_ns\":1}").is_err());
        let bad_level = sample_record().to_json().replace("warn", "loud");
        assert!(Record::from_json(&bad_level).is_err());
    }

    #[test]
    fn filter_respects_default_and_overrides() {
        let f = Filter::parse("warn,dassd=debug,ingest.spool=error");
        assert!(f.enabled(Level::Warn, "other"));
        assert!(!f.enabled(Level::Info, "other"));
        assert!(f.enabled(Level::Debug, "dassd"));
        assert!(!f.enabled(Level::Trace, "dassd"));
        assert!(!f.enabled(Level::Warn, "ingest.spool"));
        assert!(f.enabled(Level::Error, "ingest.spool"));
    }

    #[test]
    fn filter_longest_prefix_wins() {
        let f = Filter::parse("info,ingest=warn,ingest.spool=trace");
        assert!(f.enabled(Level::Trace, "ingest.spool"));
        assert!(!f.enabled(Level::Info, "ingest.daemon"));
    }

    #[test]
    fn filter_ignores_garbage_clauses() {
        let f = Filter::parse("bogus,,dassd=louder,debug");
        assert_eq!(f, {
            let mut expect = Filter::new(Level::Debug);
            expect.overrides.clear();
            expect
        });
    }

    #[test]
    fn logger_level_filtering_and_tail() {
        let log = Logger {
            epoch: Instant::now(),
            filter: Mutex::new(Filter::parse("warn")),
            format: AtomicU8::new(0),
            sink: Mutex::new(Sink::Stderr),
            tail: Mutex::new(VecDeque::new()),
        };
        let captured = Arc::new(Mutex::new(Vec::new()));
        log.capture(Arc::clone(&captured));
        log.log(Level::Info, "t", format_args!("dropped"));
        log.log(Level::Error, "t", format_args!("kept {}", 1));
        let records = captured.lock().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].msg, "kept 1");
        assert_eq!(records[0].level, Level::Error);
        assert_eq!(log.tail().len(), 1, "filtered records stay out of the tail");
    }

    #[test]
    fn tail_is_bounded() {
        let log = Logger {
            epoch: Instant::now(),
            filter: Mutex::new(Filter::new(Level::Trace)),
            format: AtomicU8::new(0),
            sink: Mutex::new(Sink::Capture(Arc::new(Mutex::new(Vec::new())))),
            tail: Mutex::new(VecDeque::new()),
        };
        for i in 0..(TAIL_CAPACITY + 50) {
            log.log(Level::Info, "t", format_args!("{i}"));
        }
        let tail = log.tail();
        assert_eq!(tail.len(), TAIL_CAPACITY);
        assert_eq!(tail.last().unwrap().msg, format!("{}", TAIL_CAPACITY + 49));
    }

    #[test]
    fn text_rendering_includes_span_when_present() {
        let rec = sample_record();
        let line = rec.render_text();
        assert!(line.contains("WARN"));
        assert!(line.contains("span=serve.read"));
        assert!(line.contains("2.7"));
        let mut no_span = rec;
        no_span.span.clear();
        assert!(!no_span.render_text().contains("span="));
    }

    #[test]
    fn level_parse_and_display() {
        for level in [
            Level::Error,
            Level::Warn,
            Level::Info,
            Level::Debug,
            Level::Trace,
        ] {
            assert_eq!(Level::parse(level.as_str()), Some(level));
            assert_eq!(level.to_string(), level.as_str());
        }
        assert_eq!(Level::parse("WARNING"), Some(Level::Warn));
        assert_eq!(Level::parse("noisy"), None);
    }
}
