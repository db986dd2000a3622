//! The connection core both daemons are built on: bind, accept, admit,
//! frame, dispatch — written once. `dassd`'s server and the
//! `das_ingest` probe are each a [`Handler`] holding only what differs
//! between them: per-request counters, `Health` facts, the data plane.
//!
//! ```text
//!  clients ──▶ acceptor ─▶ try_send ──▶ [bounded queue] ─▶ workers (N)
//!                             │ full                         │
//!                             ▼                              ▼
//!                     Error{Busy} + close        frame → control plane
//!                                                      or Handler
//! ```
//!
//! One connection policy: a connection is closed once it has waited
//! [`IDLE_LIMIT`] with no frame in progress, or for a started frame to
//! complete; a shutdown is observed within one [`POLL_TICK`], even
//! mid-frame; a framed payload that does not parse is a `BadRequest`
//! and the connection stays; a request that panics is an `Internal`
//! error, its connection is closed and its worker serves the next one.

use super::protocol::{is_timeout, read_frame, ErrorKind, HealthInfo, Request, Response};
use std::any::Any;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection may wait with no frame in progress, how long
/// a started frame may take, and the write timeout. Checked only when a
/// read times out, from the phase's first expired tick.
pub(crate) const IDLE_LIMIT: Duration = Duration::from_secs(30);

/// The read timeout: how often a blocked read looks at the shutdown
/// flag and the deadline.
const POLL_TICK: Duration = Duration::from_millis(200);

/// What a daemon tells the core about itself.
pub(crate) struct Daemon {
    /// `component` in `Health` and the metrics JSON.
    pub(crate) component: &'static str,
    /// Thread-name prefix and log target.
    pub(crate) name: &'static str,
    /// Its snapshot answers `Metrics`.
    pub(crate) registry: Arc<obs::Registry>,
    pub(crate) sampler: Arc<obs::Sampler>,
    /// A gauge brought up to the uptime before each `Health`/`Metrics`.
    pub(crate) uptime: Option<obs::Gauge>,
    pub(crate) workers: usize,
    /// Connections that may wait for a worker.
    pub(crate) queue_cap: usize,
    /// Installed thread-locally in every worker (chaos tests).
    pub(crate) fault_plan: Option<Arc<faultline::FaultPlan>>,
    pub(crate) admission: PoolMetrics,
    /// [`IDLE_LIMIT`] outside tests.
    pub(crate) idle_limit: Duration,
}

/// A daemon's own requests, on the core.
pub(crate) trait Handler: Send + Sync + 'static {
    /// Count one decoded request, before it is answered.
    fn count(&self, req: &Request);
    /// Record a failed request for `Health.last_error`: a payload that
    /// did not parse (`BadRequest`) or one that panicked (`Internal`).
    fn note_error(&self, kind: ErrorKind, message: &str);
    /// Add to `Health` past identity, uptime and pool occupancy.
    fn health(&self, info: &mut HealthInfo);
    /// Answer anything but `Ping`, `Health`, `Metrics`, `MetricsSeries`.
    /// `Ok(true)` shuts the server down; `Err` is transport-level only.
    fn serve(&self, w: &mut Conn, req: Request) -> io::Result<bool>;
}

/// Admission metrics: `<prefix>.{busy,queue_depth,workers_busy}`.
pub(crate) struct PoolMetrics {
    busy: obs::Counter,
    queue_depth: obs::Gauge,
    workers_busy: obs::Gauge,
}

impl PoolMetrics {
    pub(crate) fn new(reg: &obs::Registry, prefix: &str) -> PoolMetrics {
        PoolMetrics {
            busy: reg.counter(&format!("{prefix}.busy")),
            queue_depth: reg.gauge(&format!("{prefix}.queue_depth")),
            workers_busy: reg.gauge(&format!("{prefix}.workers_busy")),
        }
    }
}

/// A running server: the acceptor and the worker pool around one
/// [`Handler`]. Dropped without [`Core::stop`] or [`Core::join`], its
/// threads are detached.
pub(crate) struct Core<H> {
    shared: Arc<Shared<H>>,
    threads: Vec<JoinHandle<()>>,
}

struct Shared<H> {
    handler: H,
    daemon: Daemon,
    started: Instant,
    /// Our own address, poked to wake the blocking `accept()`.
    addr: SocketAddr,
    stop: AtomicBool,
    queue: Mutex<Receiver<TcpStream>>,
}

impl<H: Handler> Core<H> {
    /// Bind `bind`, then start the workers and the acceptor.
    pub(crate) fn start(bind: &str, daemon: Daemon, handler: H) -> io::Result<Core<H>> {
        let listener = TcpListener::bind(bind)?;
        let (admit, queue) = sync_channel(daemon.queue_cap);
        let shared = Arc::new(Shared {
            handler,
            daemon,
            started: Instant::now(),
            addr: listener.local_addr()?,
            stop: AtomicBool::new(false),
            queue: Mutex::new(queue),
        });
        let name = shared.daemon.name;
        let mut threads = Vec::new();
        for i in 0..shared.daemon.workers.max(1) {
            let s = Arc::clone(&shared);
            threads.push(spawn(format!("{name}-worker-{i}"), move || {
                match s.daemon.fault_plan.clone() {
                    Some(p) => faultline::with_plan(p, || worker_loop(&s)),
                    None => worker_loop(&s),
                }
            })?);
        }
        let s = Arc::clone(&shared);
        threads.push(spawn(format!("{name}-accept"), move || {
            accept_loop(&s, &listener, admit)
        })?);
        Ok(Core { shared, threads })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    pub(crate) fn handler(&self) -> &H {
        &self.shared.handler
    }

    /// Wait for the threads to exit (after a client's `Shutdown`).
    pub(crate) fn join(&mut self) {
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }

    /// Shut down and join.
    pub(crate) fn stop(&mut self) {
        self.shared.initiate_shutdown();
        self.join();
    }
}

fn spawn(name: String, run: impl FnOnce() + Send + 'static) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name(name).spawn(run)
}

impl<H: Handler> Shared<H> {
    /// Flip the flag and poke the blocking `accept()` with a throwaway
    /// connection so the acceptor observes it.
    fn initiate_shutdown(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr);
        }
    }

    /// Milliseconds since start, with the uptime gauge moved there (by
    /// a delta against its last value, so ancestor aggregation stays
    /// correct).
    fn uptime_ms(&self) -> u64 {
        let now = u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX);
        if let Some(g) = &self.daemon.uptime {
            g.add(now.saturating_sub(g.get()));
        }
        now
    }

    /// Answer one request: the control plane here, the rest through the
    /// handler. `Ok(true)` shuts the server down.
    fn answer(&self, w: &mut Conn, req: Request) -> io::Result<bool> {
        let d = &self.daemon;
        let version = env!("CARGO_PKG_VERSION");
        let rsp = match req {
            Request::Ping => Response::Pong,
            Request::Health => {
                let mut info = HealthInfo {
                    component: d.component.into(),
                    version: version.into(),
                    uptime_ms: self.uptime_ms(),
                    workers: d.workers.max(1) as u64,
                    workers_busy: d.admission.workers_busy.get(),
                    queue_len: d.admission.queue_depth.get(),
                    queue_cap: d.queue_cap as u64,
                    ..HealthInfo::default()
                };
                self.handler.health(&mut info);
                Response::Health { info }
            }
            Request::Metrics => {
                let uptime_ms = self.uptime_ms();
                let json = d.registry.snapshot().to_json_tagged(
                    &[("component", d.component), ("version", version)],
                    &[("uptime_ms", uptime_ms)],
                );
                Response::MetricsJson { json }
            }
            Request::MetricsSeries => {
                // An out-of-cadence sample first, so the newest window
                // reflects activity right up to this probe.
                d.sampler.sample_now();
                Response::SeriesJson {
                    json: d.sampler.to_json(),
                }
            }
            other => return self.handler.serve(w, other),
        };
        w.send(&rsp).map(|()| false)
    }
}

/// Dropping `admit` on return closes the queue behind the last
/// connection in it.
fn accept_loop<H: Handler>(
    shared: &Shared<H>,
    listener: &TcpListener,
    admit: SyncSender<TcpStream>,
) {
    let m = &shared.daemon.admission;
    loop {
        let accepted = listener.accept();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // An accept failure is transient; keep listening.
        let Ok((stream, _)) = accepted else { continue };
        match admit.try_send(stream) {
            Ok(()) => m.queue_depth.add(1),
            Err(TrySendError::Full(stream) | TrySendError::Disconnected(stream)) => {
                m.busy.inc();
                obs::log_debug!(shared.daemon.name, "rejecting connection: queue full");
                reject_busy(stream);
            }
        }
    }
}

/// Answer an over-capacity connection with `Busy` and close it, under a
/// short write timeout so a stalled client cannot wedge the acceptor.
fn reject_busy(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = Conn::new(stream).send(&Response::Error {
        kind: ErrorKind::Busy,
        message: "server at capacity; retry later".into(),
    });
}

fn worker_loop<H: Handler>(shared: &Shared<H>) {
    let m = &shared.daemon.admission;
    loop {
        // A receiver is valid whatever a panicking holder left behind.
        let queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let Ok(stream) = queue.recv() else {
            return;
        };
        drop(queue);
        m.queue_depth.sub(1);
        // Connections still queued at shutdown are let go unserved.
        if shared.stop.load(Ordering::SeqCst) {
            continue;
        }
        m.workers_busy.add(1);
        if let Err(e) = serve_conn(shared, stream) {
            obs::log_debug!(shared.daemon.name, "connection dropped: {e}");
        }
        m.workers_busy.sub(1);
    }
}

/// Serve one connection: frames in, responses out, until EOF, a
/// transport error, the idle limit, or shutdown.
fn serve_conn<H: Handler>(shared: &Shared<H>, stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(POLL_TICK))?;
    stream.set_write_timeout(Some(shared.daemon.idle_limit))?;
    let mut reader = BufReader::new(Watch {
        stream: stream.try_clone()?,
        stop: &shared.stop,
        limit: shared.daemon.idle_limit,
        waiting_since: None,
    });
    let mut conn = Conn::new(stream);
    loop {
        // Idle until the next frame's first byte, then inside the
        // frame: each phase gets the whole limit.
        reader.get_mut().waiting_since = None;
        if !await_frame(&mut reader)? {
            return Ok(());
        }
        reader.get_mut().waiting_since = None;
        let Some(payload) = read_frame(&mut reader)? else {
            return Ok(());
        };
        let req = match Request::decode(&payload) {
            Ok(req) => req,
            Err(e) => {
                let message = e.to_string();
                shared.handler.note_error(ErrorKind::BadRequest, &message);
                let kind = ErrorKind::BadRequest;
                conn.send(&Response::Error { kind, message })?;
                continue;
            }
        };
        shared.handler.count(&req);
        let answered = panic::catch_unwind(AssertUnwindSafe(|| shared.answer(&mut conn, req)));
        let shutdown = match answered {
            Ok(answered) => answered?,
            // The panic unwound out of the handler between two frames
            // (a frame leaves in one `write_all`), so the peer can still
            // be told; the connection is then closed, the worker kept.
            Err(payload) => {
                let message = format!("request panicked: {}", panic_message(&*payload));
                shared.handler.note_error(ErrorKind::Internal, &message);
                let kind = ErrorKind::Internal;
                let _ = conn.send(&Response::Error { kind, message });
                return Ok(());
            }
        };
        if shutdown {
            shared.initiate_shutdown();
            return Ok(());
        }
    }
}

/// The text a panic was raised with.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    match payload.downcast_ref::<&str>() {
        Some(s) => s,
        None => payload
            .downcast_ref::<String>()
            .map_or("non-string panic payload", String::as_str),
    }
}

/// Wait, tick by tick, for the first byte of the next frame; `false`
/// on a clean EOF.
fn await_frame(r: &mut impl BufRead) -> io::Result<bool> {
    loop {
        match r.fill_buf() {
            Ok(buf) => return Ok(!buf.is_empty()),
            Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// A connection's read side. A read-timeout expiry is passed on as a
/// poll tick, which the frame reader waits out, unless the server is
/// stopping or the current phase has waited past the limit: those end
/// the connection with an error no reader retries.
struct Watch<'a> {
    stream: TcpStream,
    stop: &'a AtomicBool,
    limit: Duration,
    /// The first expired tick of the current phase.
    waiting_since: Option<Instant>,
}

impl Read for Watch<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let tick = match self.stream.read(buf) {
            Err(e) if is_timeout(&e) => e,
            other => return other,
        };
        let since = *self.waiting_since.get_or_insert_with(Instant::now);
        let why = if self.stop.load(Ordering::SeqCst) {
            "server shutting down"
        } else if since.elapsed() >= self.limit {
            "peer silent past the idle limit"
        } else {
            return Err(tick);
        };
        Err(io::Error::new(io::ErrorKind::ConnectionAborted, why))
    }
}

/// A connection's send side. Every frame is built whole — length
/// prefix, header, samples — in `buf`, reused from frame to frame (so it
/// holds at most one frame and is freed with the connection), and
/// leaves in one `write_all`.
pub(crate) struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        let buf = Vec::new();
        Conn { stream, buf }
    }

    pub(crate) fn send(&mut self, rsp: &Response) -> io::Result<()> {
        self.send_built(|buf| rsp.encode_frame(buf))
    }

    /// Send the frame `build` leaves in the connection's buffer.
    pub(crate) fn send_built(
        &mut self,
        build: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
    ) -> io::Result<()> {
        build(&mut self.buf)?;
        self.stream.write_all(&self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::{Conn, Core, Daemon, Handler, PoolMetrics};
    use crate::dass::{das_file_name, write_das_file, DasFileMeta, Timestamp};
    use crate::dassd::protocol::{ErrorKind, HealthInfo, Request};
    use crate::dassd::{Client, ClientError, Server, ServerConfig};
    use std::io::{self, Read};
    use std::net::TcpStream;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    /// Panics on every data-plane request; remembers what the core told
    /// it.
    #[derive(Default)]
    struct Panicky {
        errors: Mutex<Vec<(ErrorKind, String)>>,
    }

    impl Handler for Panicky {
        fn count(&self, _: &Request) {}
        fn note_error(&self, kind: ErrorKind, message: &str) {
            self.errors.lock().unwrap().push((kind, message.into()));
        }
        fn health(&self, _: &mut HealthInfo) {}
        fn serve(&self, _: &mut Conn, req: Request) -> io::Result<bool> {
            panic!("handler bug on {req:?}");
        }
    }

    /// Three panicking requests on fresh connections, more than the two
    /// workers: each gets `Internal` and is recorded, and a `Ping` after
    /// them is still answered — no worker was lost.
    #[test]
    fn a_panicking_request_is_an_internal_error_and_the_worker_stays() {
        let registry = Arc::new(obs::Registry::new());
        let daemon = Daemon {
            component: "conn-test",
            name: "conn-test",
            registry: Arc::clone(&registry),
            sampler: Arc::new(obs::Sampler::start(registry, Duration::from_secs(3600), 2)),
            uptime: None,
            workers: 2,
            queue_cap: 4,
            fault_plan: None,
            admission: PoolMetrics::new(&obs::Registry::new(), "conn-test"),
            idle_limit: Duration::from_secs(30),
        };
        let mut core = Core::start("127.0.0.1:0", daemon, Panicky::default()).unwrap();
        let addr = core.addr();
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let panics: Vec<_> = (0..3)
                .map(|_| Client::connect(addr).unwrap().read_all().unwrap_err())
                .collect();
            let pong = Client::connect(addr).unwrap().ping();
            done.send((panics, pong)).unwrap();
        });
        let (panics, pong) = outcome
            .recv_timeout(Duration::from_secs(60))
            .expect("a ping after three panicking requests was never answered");
        for e in panics {
            assert!(
                matches!(&e, ClientError::Server { kind: ErrorKind::Internal, message }
                    if message.contains("handler bug on ReadAll")),
                "{e:?}"
            );
        }
        pong.unwrap();
        let errors = core.handler().errors.lock().unwrap().clone();
        assert_eq!(errors.len(), 3, "{errors:?}");
        assert!(errors.iter().all(|(kind, _)| *kind == ErrorKind::Internal));
        core.stop();
    }

    /// With one worker, a peer that connects and says nothing holds it
    /// only until the idle limit; the client queued behind it is then
    /// served, and the silent peer sees its connection closed.
    #[test]
    fn a_silent_peer_is_dropped_at_the_idle_limit_and_the_queue_moves() {
        let dir = std::env::temp_dir().join(format!("dassa-conn-idle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ts = Timestamp::parse("170728224510").unwrap();
        let meta = DasFileMeta {
            sampling_hz: 2,
            spatial_resolution_m: 2.0,
            timestamp: ts,
            channels: 2,
            samples: 120,
        };
        let data = arrayudf::Array2::from_fn(2, 120, |r, c| (r * 120 + c) as f32);
        write_das_file(&dir.join(das_file_name(&ts)), &meta, &data).unwrap();

        let limit = Duration::from_millis(500);
        let cfg = ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        };
        let server = Server::start_with(&dir, cfg, limit).unwrap();
        let t0 = Instant::now();
        // Accepted, queued and taken first: the accept queue is FIFO.
        let mut silent = TcpStream::connect(server.addr()).unwrap();
        let addr = server.addr();
        let (done, served) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut queued = Client::connect(addr).unwrap();
            queued.ping().unwrap();
            done.send(Instant::now()).unwrap();
        });
        let at = served
            .recv_timeout(Duration::from_secs(5))
            .expect("the queued client was never served");
        assert!(at - t0 >= limit, "served after {:?}", at - t0);
        silent
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(
            silent.read(&mut [0u8; 1]).unwrap(),
            0,
            "closed, not left open"
        );
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
