//! The `dassd` server: accept loop, bounded admission queue, worker
//! pool, and per-request dispatch.
//!
//! ```text
//!             ┌──────────── acceptor thread ────────────┐
//!  clients ──▶ accept() ─▶ try_push ──▶ [bounded queue] ─▶ workers (N)
//!                             │                              │
//!                             ▼ full                         ▼
//!                     Error{Busy} + close            handle_conn loop:
//!                                                    frame → dispatch →
//!                                                    stream response
//! ```
//!
//! Admission control is two-stage: at most `workers` connections are
//! being served and at most `queue_depth` more are waiting. Anything
//! beyond that is answered immediately with a typed `Busy` error and
//! closed — the server never queues unboundedly, so a client burst
//! degrades into fast rejections instead of collapse.
//!
//! Each worker serves one connection at a time but many requests per
//! connection (frames are read in a loop until EOF). A request that
//! fails — bad frame, compile error, corrupt chunk — produces an
//! `Error` response and the connection keeps serving; only transport
//! errors drop it.

use super::cache::ChunkCache;
use super::protocol::{
    chunk_frame, eval_chunk_frame, read_frame, write_frame, ErrorKind, HealthInfo, Request,
    Response, MAX_DATA_ELEMS,
};
use crate::dasa::{self, BindProgram, Haee};
use crate::dass::{FileCatalog, IoPlan, Vca, DATASET_PATH};
use crate::{DassaError, Result};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
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

/// Bounded MPMC connection queue: `Mutex<VecDeque>` + `Condvar` (the
/// vendored crossbeam-channel is unbounded-only, and admission control
/// is the point here).
struct ConnQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    cap: usize,
}

struct QueueInner {
    deque: std::collections::VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> ConnQueue {
        ConnQueue {
            inner: Mutex::new(QueueInner {
                deque: std::collections::VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Non-blocking push; hands the stream back when full or closed.
    fn try_push(&self, stream: TcpStream) -> std::result::Result<(), TcpStream> {
        let mut q = self.inner.lock().unwrap();
        if q.closed || q.deque.len() >= self.cap {
            return Err(stream);
        }
        q.deque.push_back(stream);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once closed and drained.
    fn pop(&self) -> Option<TcpStream> {
        let mut q = self.inner.lock().unwrap();
        loop {
            if let Some(s) = q.deque.pop_front() {
                return Some(s);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap();
        }
    }

    fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

struct Metrics {
    req_read: obs::Counter,
    req_eval: obs::Counter,
    req_metrics: obs::Counter,
    req_ping: obs::Counter,
    req_shutdown: obs::Counter,
    req_health: obs::Counter,
    req_series: obs::Counter,
    busy: obs::Counter,
    errors: obs::Counter,
    bytes_served: obs::Counter,
    read_ns: obs::Histogram,
    eval_ns: obs::Histogram,
    workers_busy: obs::Gauge,
    queue_depth: obs::Gauge,
    uptime_ms: obs::Gauge,
}

impl Metrics {
    fn new(reg: &obs::Registry) -> Metrics {
        let req =
            |ep: &str| reg.counter(&format!("{}{ep}.requests", metric_names::REQUESTS_PREFIX));
        Metrics {
            req_read: req("read"),
            req_eval: req("eval"),
            req_metrics: req("metrics"),
            req_ping: req("ping"),
            req_shutdown: req("shutdown"),
            req_health: req("health"),
            req_series: req("series"),
            busy: reg.counter(metric_names::BUSY),
            errors: reg.counter(metric_names::ERRORS),
            bytes_served: reg.counter(metric_names::BYTES_SERVED),
            read_ns: reg.histogram(metric_names::READ_NS),
            eval_ns: reg.histogram(metric_names::EVAL_NS),
            workers_busy: reg.gauge(metric_names::WORKERS_BUSY),
            queue_depth: reg.gauge(metric_names::QUEUE_DEPTH),
            uptime_ms: reg.gauge(metric_names::UPTIME_MS),
        }
    }

    fn requests_total(&self) -> u64 {
        self.req_read.get()
            + self.req_eval.get()
            + self.req_metrics.get()
            + self.req_ping.get()
            + self.req_shutdown.get()
            + self.req_health.get()
            + self.req_series.get()
    }
}

struct State {
    vca: Vca,
    cache: ChunkCache,
    registry: Arc<obs::Registry>,
    metrics: Metrics,
    eval_threads: usize,
    shutdown: AtomicBool,
    queue: ConnQueue,
    /// Our own bound address, used to poke the blocking `accept()`
    /// when a remote `Shutdown` request arrives.
    poke_addr: SocketAddr,
    started: Instant,
    workers_total: usize,
    queue_cap: usize,
    cache_capacity: u64,
    /// Windowed rate sampler answering `MetricsSeries`.
    sampler: obs::Sampler,
    /// Most recent typed error served, for `Health`.
    last_error: Mutex<String>,
}

impl State {
    /// Refresh the `dassd.uptime_ms` gauge to the current uptime. A
    /// gauge set is emulated as a delta against the last published
    /// value so ancestor aggregation (child levels sum into parents)
    /// stays correct.
    fn refresh_uptime(&self) {
        let now = u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX);
        let prev = self.metrics.uptime_ms.get();
        if now >= prev {
            self.metrics.uptime_ms.add(now - prev);
        }
    }

    fn note_error(&self, kind: ErrorKind, message: &str) {
        self.metrics.errors.inc();
        let mut last = match self.last_error.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        *last = format!("{}: {message}", kind.name());
    }

    fn health(&self) -> HealthInfo {
        self.refresh_uptime();
        HealthInfo {
            component: "dassd".into(),
            version: env!("CARGO_PKG_VERSION").into(),
            uptime_ms: self.metrics.uptime_ms.get(),
            workers: self.workers_total as u64,
            workers_busy: self.metrics.workers_busy.get(),
            queue_len: self.metrics.queue_depth.get(),
            queue_cap: self.queue_cap as u64,
            cache_resident_bytes: self.cache.resident_bytes(),
            cache_capacity_bytes: self.cache_capacity,
            requests_total: self.metrics.requests_total(),
            last_error: match self.last_error.lock() {
                Ok(g) => g.clone(),
                Err(p) => p.into_inner().clone(),
            },
        }
    }
}

/// A running `dassd` instance. Dropping without [`Server::stop`] or
/// [`Server::wait`] detaches the threads (tests should call `stop`).
pub struct Server {
    addr: SocketAddr,
    state: Arc<State>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Scan `dir` into a [`Vca`] and start serving it per `cfg`.
    /// Returns once the listener is bound and the pool is running.
    pub fn start(dir: &Path, cfg: ServerConfig) -> Result<Server> {
        let catalog = FileCatalog::scan(dir)?;
        let vca = Vca::from_entries(catalog.entries())?;

        let registry = Arc::new(obs::Registry::with_parent(Arc::clone(obs::global())));
        let cache = ChunkCache::new(cfg.cache_bytes, DATASET_PATH, &registry);
        let metrics = Metrics::new(&registry);

        let listener = TcpListener::bind(&cfg.addr).map_err(DassaError::Io)?;
        let addr = listener.local_addr().map_err(DassaError::Io)?;

        // The rate sampler watches the *global* registry (like the
        // ingest probe does): child increments aggregate up into it, so
        // the series carries the server's own `dassd.*`/`cache.*` rates
        // plus the storage-layer `dasf.*` traffic they cause — e.g. the
        // `dasf.codec.bytes_{raw,stored}` deltas behind the `das_top`
        // compression-ratio column.
        let sampler = obs::Sampler::start(
            Arc::clone(obs::global()),
            cfg.sample_interval,
            cfg.series_capacity,
        );
        let state = Arc::new(State {
            vca,
            cache,
            registry,
            metrics,
            eval_threads: cfg.eval_threads.max(1),
            shutdown: AtomicBool::new(false),
            queue: ConnQueue::new(cfg.workers + cfg.queue_depth),
            poke_addr: addr,
            started: Instant::now(),
            workers_total: cfg.workers.max(1),
            queue_cap: cfg.workers + cfg.queue_depth,
            cache_capacity: cfg.cache_bytes,
            sampler,
            last_error: Mutex::new(String::new()),
        });

        let workers = (0..cfg.workers.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                let plan = cfg.fault_plan.clone();
                std::thread::Builder::new()
                    .name(format!("dassd-worker-{i}"))
                    .spawn(move || match plan {
                        Some(p) => faultline::with_plan(p, || worker_loop(&state)),
                        None => worker_loop(&state),
                    })
                    .expect("spawn dassd worker")
            })
            .collect();

        let acceptor = {
            let state = Arc::clone(&state);
            std::thread::Builder::new()
                .name("dassd-accept".into())
                .spawn(move || accept_loop(&state, listener))
                .expect("spawn dassd acceptor")
        };

        Ok(Server {
            addr,
            state,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry (a child of [`obs::global`]).
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.state.registry
    }

    /// Current chunk-cache resident bytes (test hook).
    pub fn cache_resident_bytes(&self) -> u64 {
        self.state.cache.resident_bytes()
    }

    /// Block until a client sends [`Request::Shutdown`], then join the
    /// pool and return the final metrics snapshot.
    pub fn wait(mut self) -> obs::Snapshot {
        self.join_threads();
        self.state.registry.snapshot()
    }

    /// Initiate shutdown locally, join the pool, and return the final
    /// metrics snapshot.
    pub fn stop(mut self) -> obs::Snapshot {
        initiate_shutdown(&self.state, self.addr);
        self.join_threads();
        self.state.registry.snapshot()
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Flip the flag and poke the blocking `accept()` with a throwaway
/// connection so the acceptor observes it.
fn initiate_shutdown(state: &State, addr: SocketAddr) {
    if state.shutdown.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    let _ = TcpStream::connect(addr);
}

fn accept_loop(state: &State, listener: TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if let Err(stream) = state.queue.try_push(stream) {
                    state.metrics.busy.inc();
                    obs::log_debug!("dassd", "rejecting connection: queue full");
                    reject_busy(stream);
                } else {
                    state.metrics.queue_depth.add(1);
                }
            }
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept failure; keep listening.
            }
        }
    }
    state.queue.close();
}

/// Answer an over-capacity connection with `Busy` and close it. Bounded
/// by a short write timeout so a stalled client cannot wedge the
/// acceptor.
fn reject_busy(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(1)));
    let mut w = BufWriter::new(stream);
    let rsp = Response::Error {
        kind: ErrorKind::Busy,
        message: "server at capacity; retry later".into(),
    };
    let _ = write_frame(&mut w, &rsp.encode());
    let _ = w.flush();
}

fn worker_loop(state: &State) {
    while let Some(stream) = state.queue.pop() {
        state.metrics.queue_depth.sub(1);
        state.metrics.workers_busy.add(1);
        if let Err(e) = handle_conn(state, stream) {
            obs::log_debug!("dassd", "connection dropped: {e}");
        }
        state.metrics.workers_busy.sub(1);
    }
}

/// Serve one connection: frames in, responses out, until EOF, a
/// transport error, or shutdown observed while idle (the read timeout
/// bounds how long an idle connection can outlive a shutdown request).
fn handle_conn(state: &State, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(200)))
        .ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = Conn {
        stream,
        buf: Vec::new(),
    };
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => break,
            Err(e) if super::protocol::is_timeout(&e) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        let req = match Request::decode(&payload) {
            Ok(req) => req,
            Err(e) => {
                // The framing survived but the payload didn't parse;
                // answer and keep the connection.
                state.note_error(ErrorKind::BadRequest, &e.to_string());
                writer.send(&Response::Error {
                    kind: ErrorKind::BadRequest,
                    message: e.to_string(),
                })?;
                continue;
            }
        };
        if dispatch(state, &mut writer, req)? {
            break; // Shutdown
        }
    }
    Ok(())
}

/// A connection's send side. Every frame is built whole — length
/// prefix, header, samples — in `buf` and leaves in one `write_all`;
/// `buf` is reused from frame to frame, so it holds at most one frame
/// (a data frame is ≤ [`MAX_DATA_ELEMS`] × 8 bytes + header) and is
/// freed with the connection.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn send(&mut self, rsp: &Response) -> io::Result<()> {
        self.send_built(|buf| rsp.encode_frame(buf))
    }

    /// Send the frame `build` leaves in the connection's buffer.
    fn send_built(&mut self, build: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> io::Result<()> {
        build(&mut self.buf)?;
        self.stream.write_all(&self.buf)
    }
}

/// Handle one request. `Ok(true)` means the connection (and server)
/// should wind down. `Err` is transport-level only; request-level
/// failures become `Error` responses.
fn dispatch(state: &State, w: &mut Conn, req: Request) -> io::Result<bool> {
    match req {
        Request::Ping => {
            state.metrics.req_ping.inc();
            w.send(&Response::Pong)?;
        }
        Request::ReadAll => {
            state.metrics.req_read.inc();
            let t = Instant::now();
            let _trace = obs::trace::scope_in(&state.registry, "dassd.read");
            match IoPlan::for_region(
                &state.vca,
                0..state.vca.channels(),
                0..state.vca.total_samples(),
            ) {
                Ok(plan) => serve_read(state, w, &plan)?,
                Err(e) => send_error(state, w, &e)?,
            }
            state.metrics.read_ns.record_duration(t.elapsed());
        }
        Request::ReadRegion { ch0, ch1, t0, t1 } => {
            state.metrics.req_read.inc();
            let t = Instant::now();
            let _trace = obs::trace::scope_in(&state.registry, "dassd.read");
            match IoPlan::for_region(&state.vca, ch0..ch1, t0..t1) {
                Ok(plan) => serve_read(state, w, &plan)?,
                Err(e) => send_error(state, w, &e)?,
            }
            state.metrics.read_ns.record_duration(t.elapsed());
        }
        Request::Eval { src } => {
            state.metrics.req_eval.inc();
            let t = Instant::now();
            let _trace = obs::trace::scope_in(&state.registry, "dassd.eval");
            serve_eval(state, w, &src)?;
            state.metrics.eval_ns.record_duration(t.elapsed());
        }
        Request::Metrics => {
            state.metrics.req_metrics.inc();
            state.refresh_uptime();
            let json = state.registry.snapshot().to_json_tagged(
                &[
                    ("component", "dassd"),
                    ("version", env!("CARGO_PKG_VERSION")),
                ],
                &[(
                    "uptime_ms",
                    u64::try_from(state.started.elapsed().as_millis()).unwrap_or(u64::MAX),
                )],
            );
            w.send(&Response::MetricsJson { json })?;
        }
        Request::Health => {
            state.metrics.req_health.inc();
            w.send(&Response::Health {
                info: state.health(),
            })?;
        }
        Request::MetricsSeries => {
            state.metrics.req_series.inc();
            // An out-of-cadence sample first, so the newest window
            // reflects activity right up to this probe.
            state.sampler.sample_now();
            let json = state.sampler.to_json();
            w.send(&Response::SeriesJson { json })?;
        }
        Request::Shutdown => {
            state.metrics.req_shutdown.inc();
            obs::log_info!("dassd", "shutdown requested by client");
            w.send(&Response::ShuttingDown)?;
            initiate_shutdown(state, state.poke_addr);
            return Ok(true);
        }
    }
    Ok(false)
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
        let chunk = match state.cache.get_or_read(&op.path) {
            Ok(c) => c,
            Err(e) => return send_error(state, w, &e),
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
        Err(e) => {
            let message = e.render(src);
            state.note_error(ErrorKind::Compile, &message);
            return w.send(&Response::Error {
                kind: ErrorKind::Compile,
                message,
            });
        }
    };
    let spec = program.load_spec();
    let plan = match IoPlan::for_load(&state.vca, spec, 1) {
        Ok(p) => p,
        Err(e) => return send_error(state, w, &e),
    };
    let data = match run_plan_cached(state, &plan) {
        Ok(b) => b,
        Err(e) => return send_error(state, w, &e),
    };

    let haee = Haee::builder().threads(state.eval_threads).build();
    let bound = program.bind(state.vca.sampling_hz() as f64);
    let output = match dasa::run(&bound, &data, &haee) {
        Ok(o) => o,
        Err(e) => return send_error(state, w, &e),
    };
    let (dims, flat) = output.to_dataset();

    w.send(&Response::EvalStart { dims })?;
    let mut frames = 0u64;
    for (i, run) in flat.chunks(MAX_DATA_ELEMS).enumerate() {
        w.send_built(|buf| eval_chunk_frame(buf, (i * MAX_DATA_ELEMS) as u64, run))?;
        state
            .metrics
            .bytes_served
            .add(std::mem::size_of_val(run) as u64);
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
        let chunk = state.cache.get_or_read(&op.path)?;
        for (r, row) in chunk.slab_rows(op.selection).enumerate() {
            let at = r * plan.cols + op.t0;
            for (wide, &v) in out.as_mut_slice()[at..at + row.len()].iter_mut().zip(row) {
                *wide = v as f64;
            }
        }
    }
    Ok(out)
}

/// Map a request-level failure onto a typed `Error` response and keep
/// the connection.
fn send_error(state: &State, w: &mut Conn, e: &DassaError) -> io::Result<()> {
    let kind = kind_of(e);
    let message = e.to_string();
    state.note_error(kind, &message);
    obs::log_warn!("dassd", "request failed ({}): {message}", kind.name());
    w.send(&Response::Error { kind, message })
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
