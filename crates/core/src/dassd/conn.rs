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
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError,
};
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

/// The acceptor's pause after a failed `accept`, doubling with each
/// failure in a row up to [`ACCEPT_BACKOFF_MAX`]; an accepted connection
/// resets it. At `EMFILE` the pending connection stays in the backlog,
/// so an acceptor that retried at once would spin a core.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(5);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

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

/// Admission metrics:
/// `<prefix>.{busy,queue_depth,workers_busy,accept.errors}`.
pub(crate) struct PoolMetrics {
    busy: obs::Counter,
    queue_depth: obs::Gauge,
    workers_busy: obs::Gauge,
    accept_errors: obs::Counter,
}

impl PoolMetrics {
    pub(crate) fn new(reg: &obs::Registry, prefix: &str) -> PoolMetrics {
        PoolMetrics {
            accept_errors: reg.counter(&format!("{prefix}.accept.errors")),
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
    /// Disconnected once the acceptor has returned.
    acceptor_gone: Receiver<()>,
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
        let (gone, acceptor_gone) = channel::<()>();
        threads.push(spawn(format!("{name}-accept"), move || {
            let _gone = gone;
            accept_loop(&s, &listener, admit)
        })?);
        Ok(Core {
            shared,
            threads,
            acceptor_gone,
        })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    pub(crate) fn handler(&self) -> &H {
        &self.shared.handler
    }

    /// Wait for the threads to exit (after a client's `Shutdown`). Once
    /// the flag is up, the blocking `accept()` is poked again every
    /// [`POLL_TICK`] until the acceptor has returned: the first poke can
    /// fail (`EMFILE` under a full descriptor table), and the acceptor
    /// sees the flag only when a connection or an error wakes it.
    pub(crate) fn join(&mut self) {
        while let Err(RecvTimeoutError::Timeout) = self.acceptor_gone.recv_timeout(POLL_TICK) {
            if self.shared.stop.load(Ordering::SeqCst) {
                self.shared.poke();
            }
        }
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
    /// Flip the flag and poke the blocking `accept()` so the acceptor
    /// observes it.
    fn initiate_shutdown(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            self.poke();
        }
    }

    /// Wake the blocking `accept()` with a throwaway connection.
    fn poke(&self) {
        let _ = TcpStream::connect(self.addr);
    }

    /// Sleep `pause` in slices of at most one [`POLL_TICK`], looking at
    /// the shutdown flag before and after each; false once it is set.
    fn pause_unless_stopped(&self, pause: Duration) -> bool {
        let until = Instant::now() + pause;
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return false;
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return true;
            }
            std::thread::sleep(left.min(POLL_TICK));
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
    let mut injected = shared
        .daemon
        .fault_plan
        .as_deref()
        .map_or(0, injected_accept_failures);
    let mut backoff = ACCEPT_BACKOFF_MIN;
    loop {
        let accepted = if injected > 0 {
            injected -= 1;
            Err(io::Error::other("injected accept failure"))
        } else {
            listener.accept()
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // An accept failure is transient (a full descriptor table, an
        // aborted handshake): count it, pause, keep listening.
        let stream = match accepted {
            Ok((stream, _)) => stream,
            Err(e) => {
                m.accept_errors.inc();
                obs::log_debug!(
                    shared.daemon.name,
                    "accept failed ({e}); retrying in {backoff:?}"
                );
                if !shared.pause_unless_stopped(backoff) {
                    return;
                }
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                continue;
            }
        };
        backoff = ACCEPT_BACKOFF_MIN;
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

/// How many of its first attempts the acceptor fails under `plan`
/// ([`faultline::site::DASSD_ACCEPT_ERR`]): none unless the site fires,
/// else 1 to 8, drawn from the seed.
fn injected_accept_failures(plan: &faultline::FaultPlan) -> u32 {
    let site = faultline::site::DASSD_ACCEPT_ERR;
    if plan.fires(site, 0) {
        1 + plan.value_below(site, 0, 8) as u32
    } else {
        0
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
    use super::{injected_accept_failures, Conn, Core, Daemon, Handler, PoolMetrics};
    use crate::dass::{das_file_name, write_das_file, DasFileMeta, Timestamp};
    use crate::dassd::protocol::{ErrorKind, HealthInfo, Request};
    use crate::dassd::{Client, ClientError, Server, ServerConfig};
    use faultline::FaultPlan;
    use std::io::{self, Read};
    use std::net::TcpStream;
    use std::sync::atomic::Ordering;
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

    /// Two workers, four queue slots, admission counted in `admission`.
    fn daemon(fault_plan: Option<Arc<FaultPlan>>, admission: &obs::Registry) -> Daemon {
        let registry = Arc::new(obs::Registry::new());
        Daemon {
            component: "conn-test",
            name: "conn-test",
            registry: Arc::clone(&registry),
            sampler: Arc::new(obs::Sampler::start(registry, Duration::from_secs(3600), 2)),
            uptime: None,
            workers: 2,
            queue_cap: 4,
            fault_plan,
            admission: PoolMetrics::new(admission, "conn-test"),
            idle_limit: Duration::from_secs(30),
        }
    }

    /// Three panicking requests on fresh connections, more than the two
    /// workers: each gets `Internal` and is recorded, and a `Ping` after
    /// them is still answered — no worker was lost.
    #[test]
    fn a_panicking_request_is_an_internal_error_and_the_worker_stays() {
        let daemon = daemon(None, &obs::Registry::new());
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

    /// A stop whose poke never reached the acceptor (as when `connect`
    /// fails at `EMFILE`): `join` pokes again on its own and returns.
    #[test]
    fn join_returns_when_the_shutdown_poke_was_lost() {
        let daemon = daemon(None, &obs::Registry::new());
        let mut core = Core::start("127.0.0.1:0", daemon, Panicky::default()).unwrap();
        core.shared.stop.store(true, Ordering::SeqCst);
        let (done, joined) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            core.join();
            done.send(()).unwrap();
        });
        joined
            .recv_timeout(Duration::from_secs(2))
            .expect("join still blocked 2 s after the stop flag went up");
    }

    /// `accept` failing as at `EMFILE`, eight times in a row: the
    /// acceptor pauses 5 ms, doubling, between attempts instead of
    /// spinning, counts every failure, and serves the client that waited
    /// in the backlog once the fault clears.
    #[test]
    fn a_failing_accept_backs_off_then_serves_the_waiting_client() {
        let site = faultline::site::DASSD_ACCEPT_ERR;
        let plan = (0..)
            .map(|seed| FaultPlan::new(seed).with(site, 1.0))
            .find(|plan| injected_accept_failures(plan) == 8)
            .expect("some seed draws the longest run");
        let admission = obs::Registry::new();
        let errors = admission.counter("conn-test.accept.errors");
        let t0 = Instant::now();
        let daemon = daemon(Some(Arc::new(plan)), &admission);
        let mut core = Core::start("127.0.0.1:0", daemon, Panicky::default()).unwrap();
        let addr = core.addr();
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pong = Client::connect(addr).map(|mut c| c.ping());
            done.send((pong, t0.elapsed())).unwrap();
        });
        // Attempts at ≈ 0, 5, 15, 35, 75 and 155 ms: a spinning acceptor
        // makes thousands.
        std::thread::sleep(Duration::from_millis(200));
        let early = errors.get();
        assert!(early <= 7, "{early} accept attempts in the first 200 ms");
        let (pong, at) = outcome
            .recv_timeout(Duration::from_secs(30))
            .expect("the waiting client was never served");
        pong.unwrap().unwrap();
        // the eight pauses: 5 + 10 + … + 640 ms
        assert!(at >= Duration::from_millis(1275), "served after {at:?}");
        assert_eq!(errors.get(), 8);
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
