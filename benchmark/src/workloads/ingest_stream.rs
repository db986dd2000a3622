//! `ingest_stream`: a producer drops one-minute files into a spool that
//! `ingest::run` watches from its own thread. Light is the write side
//! of `dasf` (encode + write + fsync + rename); heavy is the detection
//! latency, from the window-sealing arrival's rename to the window's
//! report being visible.

use super::batch_compute::INTERFEROMETRY_DAS;
use super::{lz, meta_for, render_minute, widen, Workload, START};
use crate::harness::{Cx, Kind};
use crate::json;
use crate::util::{dir_bytes, report_digest};
use arrayudf::Array2;
use dassa::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minutes per detection window (tumbling).
const WINDOW: u64 = 2;
/// How long the driver waits for the daemon before it calls an op failed.
const PATIENCE: Duration = Duration::from_secs(20);

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub channels: u64,
    /// Acquisition rate. Lower than the read-side corpora's, with more
    /// channels for the same bytes a minute: a two-minute row then has
    /// 12 000 samples and the per-row kernels work inside a core's own
    /// cache, where a neighbour on the host cannot slow them.
    pub hz: u64,
    /// Distinct pre-rendered minutes; also the backlog the daemon
    /// catches up on during set-up. A multiple of the window.
    pub minutes: u64,
}

impl Shape {
    /// Samples per channel in a one-minute file.
    fn spm(&self) -> u64 {
        60 * self.hz
    }

    fn minute_bytes(&self) -> u64 {
        self.channels * self.spm() * 4
    }

    pub fn pick(quick: bool) -> Shape {
        if quick {
            Shape {
                channels: 8,
                hz: 100,
                minutes: 4,
            }
        } else {
            Shape {
                channels: 40,
                hz: 100,
                minutes: 16,
            }
        }
    }
}

pub struct IngestStream {
    shape: Shape,
    minutes: Vec<Array2<f32>>,
    /// Report digest every distinct window must carry, as the daemon prints it.
    window_digests: Vec<String>,
    spool: PathBuf,
    staging: PathBuf,
    out: PathBuf,
    stop: Arc<AtomicBool>,
    daemon: Option<std::thread::JoinHandle<dassa::Result<IngestSummary>>>,
    admitted: obs::Counter,
    admitted0: u64,
    /// Next minute of the stream to arrive.
    next_minute: u64,
    stored_ratio: f64,
}

fn report_path(out: &Path, window: u64) -> Result<PathBuf, String> {
    let first = Timestamp::parse(START)
        .map_err(|e| e.to_string())?
        .add_minutes(window * WINDOW);
    // `ingest`'s report naming: window index, then the window's first
    // minute (whole minutes: the seconds of the file names are dropped)
    let start = Timestamp::from_epoch_minutes(first.epoch_minutes());
    Ok(out.join(format!("window_{window:06}_{}.json", start.to_compact())))
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) -> Result<(), String> {
    let t0 = Instant::now();
    while !done() {
        if t0.elapsed() > PATIENCE {
            return Err(format!("{what}: not within {PATIENCE:?}"));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    Ok(())
}

impl IngestStream {
    pub fn setup(seed: u64, shape: Shape, dir: &Path) -> Result<IngestStream, String> {
        let io = |e: std::io::Error| e.to_string();
        let (spool, staging, out) = (dir.join("spool"), dir.join("staging"), dir.join("out"));
        for d in [&spool, &staging, &out] {
            std::fs::create_dir_all(d).map_err(io)?;
        }
        let minutes: Vec<Array2<f32>> = (0..shape.minutes)
            .map(|m| render_minute(seed, shape.channels, shape.hz, m))
            .collect();

        // Oracles: each distinct window through the hand-wired
        // interferometry on the renders — no file, no daemon, no VM.
        let haee = Haee::builder().threads(1).build();
        // interferometry.das writes its band in Hz; the hand-wired
        // parameters take it as a share of this stream's Nyquist rate
        let nyquist = shape.hz as f64 / 2.0;
        let hand_wired = InterferometryParams {
            band: (0.5 / nyquist, 24.0 / nyquist),
            ..InterferometryParams::default()
        };
        let mut window_digests = Vec::new();
        for pair in minutes.chunks_exact(WINDOW as usize) {
            let mut both =
                Array2::<f32>::zeroed(shape.channels as usize, (WINDOW * shape.spm()) as usize);
            for (i, m) in pair.iter().enumerate() {
                both.paste(
                    0,
                    i * shape.spm() as usize,
                    arrayudf::TileView::new(m.rows(), m.cols(), m.as_slice()),
                );
            }
            let out = dasa::run(&Analysis::Interferometry(hand_wired), &widen(&both), &haee)
                .map_err(|e| e.to_string())?;
            let (dims, values) = out.to_dataset();
            window_digests.push(format!("{:016x}", report_digest(&dims, &values)));
        }

        let program =
            dasl::compile(INTERFEROMETRY_DAS).map_err(|e| e.render(INTERFEROMETRY_DAS))?;
        let mut cfg = IngestConfig::new(&spool, &out);
        cfg.window_minutes = WINDOW;
        cfg.lateness_minutes = 0;
        cfg.poll = Duration::from_millis(10);
        cfg.threads = 1;
        cfg.job = IngestJob::Program(program);

        let admitted = obs::global().counter("ingest.admitted");
        let mut w = IngestStream {
            shape,
            minutes,
            window_digests,
            spool,
            staging,
            out,
            stop: Arc::new(AtomicBool::new(false)),
            daemon: None,
            admitted0: admitted.get(),
            admitted,
            next_minute: 0,
            stored_ratio: 0.0,
        };

        // A backlog the daemon finds at start: one of every minute.
        for _ in 0..shape.minutes {
            w.arrive()?;
        }
        w.stored_ratio = dir_bytes(&w.spool) as f64 / (shape.minutes * shape.minute_bytes()) as f64;
        let stop = Arc::clone(&w.stop);
        w.daemon = Some(
            std::thread::Builder::new()
                .name("ingest-daemon".into())
                .spawn(move || ingest::run(&cfg, &stop))
                .map_err(io)?,
        );
        // Set-up ends when the daemon has caught up with the backlog.
        for window in 0..shape.minutes / WINDOW {
            let report = w.await_report(window)?;
            w.check_report(window, &report)?;
            w.retire(window);
        }
        Ok(w)
    }

    /// The producer's write: encode and write the next minute beside
    /// the spool (tmp + fsync + rename inside `dasf`), then rename it in.
    fn arrive(&mut self) -> Result<(), String> {
        let m = self.next_minute;
        let data = &self.minutes[(m % self.shape.minutes) as usize];
        let meta = meta_for(m, self.shape.channels, self.shape.hz)?;
        let name = das_file_name(&meta.timestamp);
        let staged = self.staging.join(&name);
        write_das_file_with_codec(&staged, &meta, data, None, lz()).map_err(|e| e.to_string())?;
        std::fs::rename(&staged, self.spool.join(&name)).map_err(|e| e.to_string())?;
        self.next_minute += 1;
        Ok(())
    }

    fn await_report(&self, window: u64) -> Result<String, String> {
        let path = report_path(&self.out, window)?;
        wait_until("window report", || path.exists())?;
        std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn check_report(&self, window: u64, report: &str) -> Result<(), String> {
        let v = json::parse(report)?;
        let field = |k: &str| v.get(k).and_then(json::Value::as_str).unwrap_or("");
        let want = &self.window_digests[(window % self.window_digests.len() as u64) as usize];
        if field("status") != "ok" {
            Err(format!("window {window}: status {:?}", field("status")))
        } else if field("digest") != want {
            Err(format!(
                "window {window}: report digest {}, hand-wired {want}",
                field("digest")
            ))
        } else if v.get("gap_minutes").and_then(json::Value::as_f64) != Some(0.0) {
            Err(format!("window {window}: has gaps"))
        } else {
            Ok(())
        }
    }

    /// Retention: a reported window's member files leave the spool, so
    /// the directory the daemon scans stays the same size all run long.
    fn retire(&self, window: u64) {
        for m in window * WINDOW..(window + 1) * WINDOW {
            if let Ok(meta) = meta_for(m, self.shape.channels, self.shape.hz) {
                let _ = std::fs::remove_file(self.spool.join(das_file_name(&meta.timestamp)));
            }
        }
    }

    fn stop_daemon(&mut self) -> Option<dassa::Result<IngestSummary>> {
        self.stop.store(true, Ordering::SeqCst);
        self.daemon.take()?.join().ok()
    }

    /// Windows sealed so far (every arrival pair seals one).
    fn sealed(&self) -> u64 {
        self.next_minute / WINDOW
    }
}

impl Workload for IngestStream {
    fn cycle(&mut self, cx: &mut Cx) {
        let window = self.sealed();
        for i in 0..WINDOW {
            cx.op(
                Kind::Light,
                "op.light",
                |tr| tr.span("ingest.write", || self.arrive()),
                |()| Ok(()),
            );
            if i + 1 < WINDOW {
                // let the daemon admit this minute before the next one
                // is written, so every write runs beside an idle daemon
                let want = self.admitted0 + self.next_minute;
                if let Err(e) = wait_until("admission", || self.admitted.get() >= want) {
                    cx.fail(e);
                }
            }
        }
        cx.op(
            Kind::Heavy,
            "op.heavy",
            |tr| tr.span("ingest.wait_report", || self.await_report(window)),
            |report| self.check_report(window, report),
        );
        self.retire(window);
    }

    fn cycle_bytes(&self) -> u64 {
        WINDOW * self.shape.minute_bytes()
    }

    fn stored_ratio(&self) -> f64 {
        self.stored_ratio
    }

    fn describe(&self) -> String {
        format!(
            "{} distinct shuffle-lz minutes x {} ch x {} Hz ({:.2} MB each), also the set-up backlog; \
             ingest::run: {WINDOW}-minute tumbling windows, lateness 0, poll 10 ms, 1 thread, job interferometry.das; \
             pass = {WINDOW} arrivals + 1 report; reported windows leave the spool",
            self.shape.minutes,
            self.shape.channels,
            self.shape.hz,
            self.shape.minute_bytes() as f64 / 1e6
        )
    }

    fn finish(mut self: Box<Self>, cx: &mut Cx) {
        let sealed = self.sealed();
        match self.stop_daemon() {
            Some(Ok(s)) => {
                if s.windows_emitted != sealed || s.quarantined + s.late + s.duplicate != 0 {
                    cx.fail(format!(
                        "ingest summary: {} windows emitted of {sealed} sealed, {} quarantined, {} late, {} duplicate",
                        s.windows_emitted, s.quarantined, s.late, s.duplicate
                    ));
                }
            }
            Some(Err(e)) => cx.fail(format!("ingest daemon: {e}")),
            None => cx.fail("ingest daemon panicked".into()),
        }
    }
}

impl Drop for IngestStream {
    fn drop(&mut self) {
        self.stop_daemon();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_names_follow_the_stream() {
        let out = Path::new("o");
        assert_eq!(
            report_path(out, 0).unwrap(),
            out.join("window_000000_170728224500.json")
        );
        // window 3 starts six minutes in
        assert_eq!(
            report_path(out, 3).unwrap(),
            out.join("window_000003_170728225100.json")
        );
    }
}
