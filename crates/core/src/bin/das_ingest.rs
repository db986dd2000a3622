//! `das_ingest` — the streaming ingest daemon.
//!
//! ```text
//! das_ingest --spool /data/spool --out /data/windows            # always-on
//! das_ingest --spool stage --out win --once                     # drain & exit
//! das_ingest --spool s --out w --window 4 --hop 2 --job stacking
//! das_ingest --spool s --out w --eval 'load("live") | detrend | demean'
//! ```
//!
//! Watches the spool for arriving minute files, validates each
//! (checksum scrub), admits it into the incremental minute index, and
//! runs the detection job over every completed window, emitting one
//! deterministic JSON report per window. Progress is journaled
//! crash-consistently: `kill -9` at any instant and a restart resumes
//! from the last committed window without re-emitting anything.
//!
//! `--once` drains the spool and exits (the staged/CI mode); without
//! it the loop runs until SIGTERM/SIGINT (handled: the loop finishes
//! the current round, then exits cleanly, emitting `--metrics` if
//! asked) or a hard kill. Exit status: 0 success, 1 runtime failure,
//! 2 usage errors.
//!
//! Telemetry: `--probe-addr 127.0.0.1:0` opens a local diagnostics
//! socket answering the `dassd` protocol's `Ping`/`Health`/`Metrics`/
//! `MetricsSeries` probes (so `das_query --health` and `das_top` work
//! against ingest too), `--flight <file>` installs the panic flight
//! recorder, and structured log records go to stderr (`DASSA_LOG`
//! filters, `DASSA_LOG_FORMAT=json` switches format).

use dassa::ingest::{run, run_once, IngestConfig, IngestJob, Probe};
use dassa::prelude::*;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Set by the signal handler; checked by the always-on loop each round.
static STOP: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    /// Install SIGINT/SIGTERM handlers that flip [`super::STOP`]. Raw
    /// `signal(2)` through the already-linked libc — no new crates.
    /// The handler body is a single atomic store, which is
    /// async-signal-safe.
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_signal(_sig: i32) {
            super::STOP.store(true, std::sync::atomic::Ordering::Relaxed);
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is libc's, declared with a signature of the
        // same ABI (the handler's address passes as a pointer-sized int);
        // the handler is an `extern "C"` fn that lives for the whole
        // process and makes one async-signal-safe atomic store.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

struct Args {
    cfg: IngestConfig,
    once: bool,
    metrics: Option<Option<String>>,
    fault_plan: Option<faultline::FaultPlan>,
    probe_addr: Option<String>,
    flight: Option<String>,
    sample_ms: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: das_ingest --spool <dir> --out <dir> [options]\n\
         \n\
         options:\n\
         \x20 --once                 drain the spool, emit every complete window, exit\n\
         \x20 --window <minutes>     window length (default 2)\n\
         \x20 --hop <minutes>        hop between windows (default = window; tumbling)\n\
         \x20 --lateness <minutes>   watermark grace for out-of-order arrival (default 1)\n\
         \x20 --max-attempts <n>     validation attempts before quarantine (default 3)\n\
         \x20 --backoff-ms <ms>      first retry backoff, doubles per attempt (default 50)\n\
         \x20 --poll-ms <ms>         longest wait between spool scans; an arrival ends\n\
         \x20                        it early where the spool can be watched (default 200)\n\
         \x20 --inflight <n>         sealed windows buffered ahead of detection (default 4)\n\
         \x20 --threads <n>          evaluator engine threads (default 2)\n\
         \x20 --job <name>           built-in analysis: interferometry (default),\n\
         \x20                        local_similarity|localsim, stacking|stack\n\
         \x20 --eval '<program>'     run a dasl program per window instead of --job\n\
         \x20 --metrics[=<file>]     dump the obs registry on exit (stderr or file)\n\
         \x20 --probe-addr <addr>    serve Ping/Health/Metrics/MetricsSeries probes locally\n\
         \x20                        (e.g. 127.0.0.1:0; the bound address is printed)\n\
         \x20 --flight <file>        install the panic flight recorder, dumping here\n\
         \x20 --sample-ms <ms>       metrics sampler cadence for MetricsSeries (default 500)\n\
         \x20 --fault-plan <spec>    seeded fault injection, e.g. 'seed=7,ingest.spool.torn=0.3'\n\
         \n\
         Exits 0 success / 1 failure / 2 usage."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut spool: Option<String> = None;
    let mut out: Option<String> = None;
    let mut once = false;
    let mut metrics: Option<Option<String>> = None;
    let mut fault_plan = None;
    let mut window = 2u64;
    let mut hop = 0u64;
    let mut lateness = 1u64;
    let mut max_attempts = 3u32;
    let mut backoff_ms = 50u64;
    let mut poll_ms = 200u64;
    let mut inflight = 4usize;
    let mut threads = 2usize;
    let mut job: Option<IngestJob> = None;
    let mut probe_addr: Option<String> = None;
    let mut flight: Option<String> = None;
    let mut sample_ms = 500u64;

    fn numeric<T: std::str::FromStr>(flag: &str, v: &str) -> T {
        v.parse().unwrap_or_else(|_| {
            eprintln!("{flag} expects a number, got {v:?}");
            usage()
        })
    }

    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--spool" => spool = Some(value("--spool")),
            "--out" => out = Some(value("--out")),
            "--once" => once = true,
            "--window" => window = numeric("--window", &value("--window")),
            "--hop" => hop = numeric("--hop", &value("--hop")),
            "--lateness" => lateness = numeric("--lateness", &value("--lateness")),
            "--max-attempts" => max_attempts = numeric("--max-attempts", &value("--max-attempts")),
            "--backoff-ms" => backoff_ms = numeric("--backoff-ms", &value("--backoff-ms")),
            "--poll-ms" => poll_ms = numeric("--poll-ms", &value("--poll-ms")),
            "--inflight" => inflight = numeric("--inflight", &value("--inflight")),
            "--threads" => threads = numeric("--threads", &value("--threads")),
            "--job" => match Analysis::from_name(&value("--job")) {
                Ok(analysis) => job = Some(IngestJob::Analysis(analysis)),
                Err(e) => {
                    eprintln!("das_ingest: {e}");
                    usage()
                }
            },
            "--eval" => {
                let src = value("--eval");
                match dasl::compile(&src) {
                    Ok(p) => job = Some(IngestJob::Program(p)),
                    Err(e) => {
                        eprintln!("das_ingest: --eval does not compile:\n{}", e.render(&src));
                        std::process::exit(2);
                    }
                }
            }
            "--metrics" => metrics = Some(None),
            "--probe-addr" => probe_addr = Some(value("--probe-addr")),
            "--flight" => flight = Some(value("--flight")),
            "--sample-ms" => sample_ms = numeric("--sample-ms", &value("--sample-ms")),
            "--fault-plan" => {
                let spec = value("--fault-plan");
                match faultline::FaultPlan::parse(&spec) {
                    Ok(p) => fault_plan = Some(p),
                    Err(e) => {
                        eprintln!("bad --fault-plan: {e}");
                        usage()
                    }
                }
            }
            "-h" | "--help" => usage(),
            other => {
                if let Some(path) = other.strip_prefix("--metrics=") {
                    if path.is_empty() {
                        eprintln!("--metrics= wants a file path (or use bare --metrics)");
                        usage();
                    }
                    metrics = Some(Some(path.to_string()));
                } else {
                    eprintln!("unknown argument {other:?}");
                    usage()
                }
            }
        }
    }

    let (Some(spool), Some(out)) = (spool, out) else {
        eprintln!("--spool and --out are both required");
        usage()
    };
    if window == 0 {
        eprintln!("--window must be at least 1");
        usage();
    }
    let mut cfg = IngestConfig::new(spool, out);
    cfg.window_minutes = window;
    cfg.hop_minutes = hop;
    cfg.lateness_minutes = lateness;
    cfg.max_attempts = max_attempts.max(1);
    cfg.base_backoff = Duration::from_millis(backoff_ms);
    cfg.poll = Duration::from_millis(poll_ms.max(1));
    cfg.max_inflight = inflight.max(1);
    cfg.threads = threads.max(1);
    if let Some(job) = job {
        cfg.job = job;
    }
    Args {
        cfg,
        once,
        metrics,
        fault_plan,
        probe_addr,
        flight,
        sample_ms,
    }
}

fn emit_metrics(dest: &Option<String>) -> std::io::Result<()> {
    let snap = obs::global().snapshot();
    match dest {
        None => eprint!("{}", snap.render_text()),
        Some(path) => {
            let json = snap.to_json_tagged(
                &[
                    ("component", "das_ingest"),
                    ("version", env!("CARGO_PKG_VERSION")),
                ],
                &[],
            );
            std::fs::write(path, json)?;
            obs::log_info!("ingest", "metrics written to {path}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(plan) = &args.fault_plan {
        // Process-wide, so validation and window reads both feel it.
        faultline::install_global(std::sync::Arc::new(plan.clone()));
    }
    if let Some(path) = &args.flight {
        obs::flight::install(obs::flight::FlightConfig::new(
            path,
            Arc::clone(obs::global()),
            "das_ingest",
        ));
        obs::log_info!("ingest", "flight recorder armed, dumps to {path}");
    }
    // The sampler feeds `MetricsSeries` on the probe socket; it also
    // runs without one so a final `--metrics` snapshot has rate
    // context in the flight record.
    let sampler = Arc::new(obs::Sampler::start(
        Arc::clone(obs::global()),
        Duration::from_millis(args.sample_ms.max(1)),
        120,
    ));
    let _probe = match &args.probe_addr {
        Some(addr) => match Probe::start(
            addr,
            Arc::clone(&sampler),
            args.cfg.threads as u64,
            args.cfg.max_inflight as u64,
        ) {
            Ok(probe) => {
                // Scripts wait for this stdout line to learn the port.
                println!("das_ingest probe listening on {}", probe.addr());
                use std::io::Write;
                std::io::stdout().flush().ok();
                Some(probe)
            }
            Err(e) => {
                eprintln!("das_ingest: binding probe {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let result = if args.once {
        run_once(&args.cfg)
    } else {
        // The always-on loop: SIGINT/SIGTERM set STOP, the loop
        // finishes its round and returns. Every externally visible
        // effect is atomic, so a hard kill is also always safe.
        #[cfg(unix)]
        sig::install();
        run(&args.cfg, &STOP)
    };
    let code = match &result {
        Ok(summary) => {
            if STOP.load(Ordering::Relaxed) {
                obs::log_info!("ingest", "stop signal received; shutting down cleanly");
            }
            obs::log_info!(
                "ingest",
                "{} admitted, {} late, {} duplicate, {} quarantined, \
                 {} window(s) emitted, {} skipped, {} gap sample(s)",
                summary.admitted,
                summary.late,
                summary.duplicate,
                summary.quarantined,
                summary.windows_emitted,
                summary.windows_skipped,
                summary.gap_samples
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            obs::log_error!("ingest", "fatal: {e}");
            // A fatal error is flight-record worthy even without a
            // panic: same postmortem file, same layout.
            if obs::flight::installed() {
                match obs::flight::dump(&format!("fatal error: {e}")) {
                    Ok(p) => obs::log_info!("ingest", "flight record at {}", p.display()),
                    Err(de) => obs::log_warn!("ingest", "flight dump failed: {de}"),
                }
            }
            ExitCode::FAILURE
        }
    };
    sampler.sample_now();
    if let Some(dest) = &args.metrics {
        if let Err(e) = emit_metrics(dest) {
            obs::log_error!("ingest", "writing metrics failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    code
}
