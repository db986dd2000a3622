//! The `dassd` server: a [`Handler`] on the connection core
//! ([`super::conn`]) serving the data plane — windowed reads through
//! the chunk cache, `dasl` evals — and `Shutdown`.
//!
//! Each worker serves one connection at a time but many requests per
//! connection. A request that fails — bad frame, compile error,
//! corrupt chunk — produces an `Error` response and the connection
//! keeps serving; only transport errors drop it.

use super::cache::{Chunk, ChunkCache};
use super::conn::{Conn, Core, Daemon, Handler, PoolMetrics, IDLE_LIMIT};
use super::protocol::{
    chunk_frame, eval_chunk_frame, ErrorKind, HealthInfo, Request, Response, MAX_DATA_ELEMS,
};
use crate::dasa::{self, BindProgram, Haee};
use crate::dass::{FileCatalog, IoPlan, ReadOp, Vca, DATASET_PATH};
use crate::{DassaError, Result};
use std::io;
use std::net::SocketAddr;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Metric names recorded by the server (in addition to the
/// `cache.*` family from [`ChunkCache`]).
pub mod metric_names {
    /// Per-endpoint request counts: `dassd.<endpoint>.requests` for
    /// `read`, `eval`, `metrics`, `ping`, `shutdown`.
    pub const REQUESTS_PREFIX: &str = "dassd.";
    /// Connections rejected at admission.
    pub const BUSY: &str = "dassd.busy";
    /// Requests answered with a typed error.
    pub const ERRORS: &str = "dassd.errors";
    /// Payload bytes streamed to clients.
    pub const BYTES_SERVED: &str = "dassd.bytes_served";
    /// Read-request latency histogram (ns).
    pub const READ_NS: &str = "dassd.read.ns";
    /// Eval-request latency histogram (ns).
    pub const EVAL_NS: &str = "dassd.eval.ns";
    /// Gauge: workers currently inside a request.
    pub const WORKERS_BUSY: &str = "dassd.workers_busy";
    /// Gauge: connections waiting in the accept queue.
    pub const QUEUE_DEPTH: &str = "dassd.queue_depth";
    /// Gauge: milliseconds since the server started (refreshed whenever
    /// `Metrics`/`Health` is served).
    pub const UPTIME_MS: &str = "dassd.uptime_ms";
}

/// Server tunables. `Default` suits tests: an OS-assigned port, a
/// small pool, a 64 MiB cache.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 asks the OS for a free port.
    pub addr: String,
    /// Worker threads (concurrent connections being served).
    pub workers: usize,
    /// Accepted connections that may wait beyond the in-service set.
    pub queue_depth: usize,
    /// Chunk-cache capacity in bytes.
    pub cache_bytes: u64,
    /// Haee threads per eval request.
    pub eval_threads: usize,
    /// Optional fault plan installed thread-locally in every worker
    /// (chaos tests; `None` in production).
    pub fault_plan: Option<Arc<faultline::FaultPlan>>,
    /// Cadence of the background metrics sampler feeding
    /// `MetricsSeries` windows.
    pub sample_interval: Duration,
    /// Samples retained by the series ring (windows = samples - 1).
    pub series_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 8,
            cache_bytes: 64 << 20,
            eval_threads: 1,
            fault_plan: None,
            sample_interval: Duration::from_millis(500),
            series_capacity: 120,
        }
    }
}

/// Endpoints with a `dassd.<endpoint>.requests` counter, in
/// [`endpoint`] order.
const ENDPOINTS: [&str; 7] = [
    "ping", "read", "eval", "metrics", "health", "series", "shutdown",
];

fn endpoint(req: &Request) -> usize {
    match req {
        Request::Ping => 0,
        Request::ReadAll | Request::ReadRegion { .. } => 1,
        Request::Eval { .. } => 2,
        Request::Metrics => 3,
        Request::Health => 4,
        Request::MetricsSeries => 5,
        Request::Shutdown => 6,
    }
}

struct Metrics {
    requests: Vec<obs::Counter>,
    errors: obs::Counter,
    bytes_served: obs::Counter,
    read_ns: obs::Histogram,
    eval_ns: obs::Histogram,
}

impl Metrics {
    fn new(reg: &obs::Registry) -> Metrics {
        let prefix = metric_names::REQUESTS_PREFIX;
        Metrics {
            requests: (ENDPOINTS.iter())
                .map(|ep| reg.counter(&format!("{prefix}{ep}.requests")))
                .collect(),
            errors: reg.counter(metric_names::ERRORS),
            bytes_served: reg.counter(metric_names::BYTES_SERVED),
            read_ns: reg.histogram(metric_names::READ_NS),
            eval_ns: reg.histogram(metric_names::EVAL_NS),
        }
    }
}

struct State {
    registry: Arc<obs::Registry>,
    vca: Vca,
    cache: ChunkCache,
    metrics: Metrics,
    eval_threads: usize,
    /// Most recent typed error served, for `Health`.
    last_error: Mutex<String>,
}

impl Handler for State {
    fn count(&self, req: &Request) {
        self.metrics.requests[endpoint(req)].inc();
    }

    fn note_error(&self, kind: ErrorKind, message: &str) {
        self.metrics.errors.inc();
        let mut last = self
            .last_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *last = format!("{}: {message}", kind.name());
    }

    fn health(&self, info: &mut HealthInfo) {
        info.cache_resident_bytes = self.cache.resident_bytes();
        info.cache_capacity_bytes = self.cache.capacity();
        info.requests_total = self.metrics.requests.iter().map(obs::Counter::get).sum();
        let last = self
            .last_error
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        info.last_error = last.clone();
    }

    /// The data plane and `Shutdown`. Request-level failures become
    /// `Error` responses.
    fn serve(&self, w: &mut Conn, req: Request) -> io::Result<bool> {
        match req {
            Request::ReadAll => {
                self.read(w, 0..self.vca.channels(), 0..self.vca.total_samples())?
            }
            Request::ReadRegion { ch0, ch1, t0, t1 } => self.read(w, ch0..ch1, t0..t1)?,
            Request::Eval { src } => {
                let t = Instant::now();
                let _trace = obs::trace::scope_in(&self.registry, "dassd.eval");
                serve_eval(self, w, &src)?;
                self.metrics.eval_ns.record_duration(t.elapsed());
            }
            Request::Shutdown => {
                obs::log_info!("dassd", "shutdown requested by client");
                w.send(&Response::ShuttingDown)?;
                return Ok(true);
            }
            _ => unreachable!("the connection core answers the control plane"),
        }
        Ok(false)
    }
}

impl State {
    fn read(&self, w: &mut Conn, ch: Range<u64>, t: Range<u64>) -> io::Result<()> {
        let start = Instant::now();
        let _trace = obs::trace::scope_in(&self.registry, "dassd.read");
        match IoPlan::for_region(&self.vca, ch, t) {
            Ok(plan) => serve_read(self, w, &plan)?,
            Err(e) => self.fail(w, kind_of(&e), e.to_string())?,
        }
        self.metrics.read_ns.record_duration(start.elapsed());
        Ok(())
    }

    /// Answer a request-level failure with a typed `Error`; the
    /// connection stays.
    fn fail(&self, w: &mut Conn, kind: ErrorKind, message: String) -> io::Result<()> {
        self.note_error(kind, &message);
        obs::log_warn!("dassd", "request failed ({}): {message}", kind.name());
        w.send(&Response::Error { kind, message })
    }

    /// The cached member behind `op`, checked against the op's
    /// selection: a member replaced by a narrower file since the
    /// corpus was scanned is a typed error, not an out-of-bounds slice.
    fn chunk(&self, op: &ReadOp) -> Result<Arc<Chunk>> {
        let chunk = self.cache.get_or_read(&op.path)?;
        let (rows, cols) = (chunk.rows() as u64, chunk.cols() as u64);
        let fits = match op.selection {
            None => (rows, cols) == (op.rows as u64, op.cols as u64),
            Some([(r0, nr), (c0, nc)]) => r0 + nr <= rows && c0 + nc <= cols,
        };
        if fits {
            Ok(chunk)
        } else {
            Err(DassaError::Inconsistent(format!(
                "{}: now {rows} x {cols}, which does not hold the {} x {} selection planned \
                 when the corpus was scanned",
                op.path.display(),
                op.rows,
                op.cols
            )))
        }
    }
}

/// A running `dassd` instance. Dropping without [`Server::stop`] or
/// [`Server::wait`] detaches the threads (tests should call `stop`).
pub struct Server {
    core: Core<State>,
}

impl Server {
    /// Scan `dir` into a [`Vca`] and start serving it per `cfg`.
    /// Returns once the listener is bound and the pool is running.
    pub fn start(dir: &Path, cfg: ServerConfig) -> Result<Server> {
        Server::start_with(dir, cfg, IDLE_LIMIT)
    }

    /// [`Server::start`] with a connection idle limit other than
    /// [`IDLE_LIMIT`].
    pub(crate) fn start_with(
        dir: &Path,
        cfg: ServerConfig,
        idle_limit: Duration,
    ) -> Result<Server> {
        let catalog = FileCatalog::scan(dir)?;
        let vca = Vca::from_entries(catalog.entries())?;

        let registry = Arc::new(obs::Registry::with_parent(Arc::clone(obs::global())));
        // The rate sampler watches the *global* registry, like the
        // probe's: the series carries the server's own rates plus the
        // `dasf.*` traffic they cause (`das_top`'s codec ratio column).
        let sampler = obs::Sampler::start(
            Arc::clone(obs::global()),
            cfg.sample_interval,
            cfg.series_capacity,
        );
        let daemon = Daemon {
            component: "dassd",
            name: "dassd",
            uptime: Some(registry.gauge(metric_names::UPTIME_MS)),
            registry: Arc::clone(&registry),
            sampler: Arc::new(sampler),
            workers: cfg.workers,
            queue_cap: cfg.workers + cfg.queue_depth,
            fault_plan: cfg.fault_plan,
            admission: PoolMetrics::new(&registry, "dassd"),
            idle_limit,
        };
        let state = State {
            cache: ChunkCache::new(cfg.cache_bytes, DATASET_PATH, &registry),
            metrics: Metrics::new(&registry),
            registry,
            vca,
            eval_threads: cfg.eval_threads.max(1),
            last_error: Mutex::new(String::new()),
        };
        let core = Core::start(&cfg.addr, daemon, state).map_err(DassaError::Io)?;
        Ok(Server { core })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.core.addr()
    }

    /// The server's metrics registry (a child of [`obs::global`]).
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.core.handler().registry
    }

    /// Current chunk-cache resident bytes (test hook).
    pub fn cache_resident_bytes(&self) -> u64 {
        self.core.handler().cache.resident_bytes()
    }

    /// Block until a client sends [`Request::Shutdown`], then join the
    /// pool and return the final metrics snapshot.
    pub fn wait(mut self) -> obs::Snapshot {
        self.core.join();
        self.registry().snapshot()
    }

    /// Initiate shutdown locally, join the pool, and return the final
    /// metrics snapshot.
    pub fn stop(mut self) -> obs::Snapshot {
        self.core.stop();
        self.registry().snapshot()
    }
}

/// Stream a read plan: `Start`, one or more `Chunk` frames per op
/// (tiled so no frame exceeds [`MAX_DATA_ELEMS`] samples), `End`. Each
/// frame is gathered straight from the cached chunk's rows. A failing
/// op aborts the stream with an `Error` frame; the connection survives.
fn serve_read(state: &State, w: &mut Conn, plan: &IoPlan) -> io::Result<()> {
    w.send(&Response::Start {
        rows: plan.rows as u64,
        cols: plan.cols as u64,
    })?;
    let mut frames = 0u64;
    for op in &plan.ops {
        let chunk = match state.chunk(op) {
            Ok(c) => c,
            Err(e) => return state.fail(w, kind_of(&e), e.to_string()),
        };
        // Every op's tile lands at response row 0 (member files are
        // channel-complete; a channel window is already folded into
        // the op's selection), column `op.t0`. It goes out as bands of
        // whole rows, or — when one row alone is past the frame bound
        // — as pieces of single rows.
        let tile_cols = op.cols.clamp(1, MAX_DATA_ELEMS);
        let tile_rows = MAX_DATA_ELEMS / tile_cols;
        for r in (0..op.rows).step_by(tile_rows) {
            let nr = tile_rows.min(op.rows - r);
            for c in (0..op.cols).step_by(tile_cols) {
                let nc = tile_cols.min(op.cols - c);
                let band = chunk.slab_rows(op.selection).skip(r).take(nr);
                let (row0, col0) = (r as u64, (op.t0 + c) as u64);
                w.send_built(|buf| {
                    chunk_frame(buf, row0, col0, nr, nc, band.map(|row| &row[c..c + nc]))
                })?;
                state.metrics.bytes_served.add((nr * nc * 4) as u64);
                frames += 1;
            }
        }
    }
    w.send(&Response::End { frames })
}

/// Compile and run a `dasl` program: assemble the input through the
/// cache, execute on a per-request [`Haee`], stream the output
/// dataset.
fn serve_eval(state: &State, w: &mut Conn, src: &str) -> io::Result<()> {
    let program = match dasl::compile(src) {
        Ok(p) => p,
        Err(e) => return state.fail(w, ErrorKind::Compile, e.render(src)),
    };
    let output = IoPlan::for_load(&state.vca, program.load_spec(), 1)
        .and_then(|plan| run_plan_cached(state, &plan))
        .and_then(|data| {
            let haee = Haee::builder().threads(state.eval_threads).build();
            dasa::run(&program.bind(state.vca.sampling_hz() as f64), &data, &haee)
        });
    let (dims, flat) = match output {
        Ok(o) => o.to_dataset(),
        Err(e) => return state.fail(w, kind_of(&e), e.to_string()),
    };
    w.send(&Response::EvalStart { dims })?;
    let mut frames = 0u64;
    for (i, run) in flat.chunks(MAX_DATA_ELEMS).enumerate() {
        w.send_built(|buf| eval_chunk_frame(buf, (i * MAX_DATA_ELEMS) as u64, run))?;
        let bytes = std::mem::size_of_val(run) as u64;
        state.metrics.bytes_served.add(bytes);
        frames += 1;
    }
    w.send(&Response::End { frames })
}

/// Execute a serial plan through the chunk cache instead of
/// [`IoExecutor`]'s direct reads: same ops, same assembly, widened from
/// the cached rows straight into the `f64` block `dasa::run` takes.
fn run_plan_cached(state: &State, plan: &IoPlan) -> Result<arrayudf::Array2<f64>> {
    let mut out = arrayudf::Array2::zeroed(plan.rows, plan.cols);
    for op in &plan.ops {
        let chunk = state.chunk(op)?;
        for (r, row) in chunk.slab_rows(op.selection).enumerate() {
            let at = r * plan.cols + op.t0;
            for (wide, &v) in out.as_mut_slice()[at..at + row.len()].iter_mut().zip(row) {
                *wide = v as f64;
            }
        }
    }
    Ok(out)
}

/// The `DassaError` → wire [`ErrorKind`] mapping.
fn kind_of(e: &DassaError) -> ErrorKind {
    match e {
        DassaError::Dasf(
            dasf::DasfError::ChecksumMismatch { .. }
            | dasf::DasfError::Corrupt(_)
            | dasf::DasfError::Truncated
            | dasf::DasfError::BadMagic,
        ) => ErrorKind::Corrupt,
        DassaError::Dasf(_) | DassaError::Io(_) => ErrorKind::Io,
        DassaError::BadSelection(_)
        | DassaError::Inconsistent(_)
        | DassaError::BadTimestamp(_)
        | DassaError::MissingMetadata { .. }
        | DassaError::Regex(_) => ErrorKind::BadRequest,
        DassaError::Comm(_) => ErrorKind::Internal,
    }
}
