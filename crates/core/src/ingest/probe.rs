//! The ingest health probe: a tiny local socket speaking the `dassd`
//! wire protocol, answering `Ping` / `Health` / `Metrics` /
//! `MetricsSeries` so the same tools (`das_query --health`, `das_top`)
//! work against both daemons. Data-plane requests (`ReadAll`, `Eval`,
//! …) and `Shutdown` are refused with a typed error — the probe is
//! diagnostics only. It is a handler on `dassd`'s connection core, so a
//! stuck client cannot wedge it: a peer silent or stalled mid-frame is
//! dropped at the core's idle limit, [`Probe::stop`] lets every
//! connection go within one poll tick, and clients past the small
//! fixed pool get a typed `Busy`.

use super::metrics;
use crate::dassd::conn::{Conn, Core, Daemon, Handler, PoolMetrics, IDLE_LIMIT};
use crate::dassd::protocol::{ErrorKind, HealthInfo, Request, Response};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

/// A running probe listener; stops (and joins its threads) on drop.
pub struct Probe {
    core: Core<ProbeHandler>,
}

/// The ingest run's evaluator threads and `max_inflight`, echoed in
/// `Health`: they belong to the ingest configuration.
struct ProbeHandler {
    workers: u64,
    queue_cap: u64,
}

impl Probe {
    /// Bind `bind` (e.g. `127.0.0.1:0`) and start answering probes.
    /// `workers` / `queue_cap` are the ingest run's evaluator thread
    /// count and `max_inflight` bound, echoed in `Health`.
    pub fn start(
        bind: &str,
        sampler: Arc<obs::Sampler>,
        workers: u64,
        queue_cap: u64,
    ) -> io::Result<Probe> {
        let daemon = Daemon {
            component: "das_ingest",
            name: "ingest.probe",
            registry: Arc::clone(obs::global()),
            sampler,
            uptime: None,
            // A fixed pool: `das_top` and `das_query` at once, six waiting.
            workers: 2,
            queue_cap: 6,
            fault_plan: None,
            // Not published: the probe's only metric is its requests.
            admission: PoolMetrics::new(&obs::Registry::new(), "ingest.probe"),
            idle_limit: IDLE_LIMIT,
        };
        let core = Core::start(bind, daemon, ProbeHandler { workers, queue_cap })?;
        obs::log_info!("ingest.probe", "probe listening on {}", core.addr());
        Ok(Probe { core })
    }

    /// The bound address (port resolved when `bind` asked for `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.core.addr()
    }

    /// Stop the listener and workers and wait for them to exit.
    pub fn stop(&mut self) {
        self.core.stop();
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.stop();
    }
}

impl Handler for ProbeHandler {
    fn count(&self, _: &Request) {
        metrics().probe_requests.inc();
    }

    fn note_error(&self, kind: ErrorKind, message: &str) {
        let label = if kind == ErrorKind::BadRequest {
            "malformed"
        } else {
            kind.name()
        };
        obs::log_warn!("ingest.probe", "{label} probe request: {message}");
        metrics().note_error(&format!("{label}: {message}"));
    }

    fn health(&self, info: &mut HealthInfo) {
        let m = metrics();
        info.workers = self.workers;
        info.workers_busy = 0;
        info.queue_len = m.queue_depth.get();
        info.queue_cap = self.queue_cap;
        info.requests_total = m.probe_requests.get();
        info.last_error = m.last_error();
    }

    fn serve(&self, w: &mut Conn, req: Request) -> io::Result<bool> {
        w.send(&Response::Error {
            kind: ErrorKind::BadRequest,
            message: format!("{req:?} is not served by the ingest probe"),
        })?;
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dassd::protocol::{read_frame, write_frame};
    use crate::dassd::{Client, ClientError};
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Duration;

    /// Probe tests run one at a time: `ingest.probe.requests` is a
    /// process-wide counter, and one of them counts it exactly.
    static ONE_PROBE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn one_probe() -> std::sync::MutexGuard<'static, ()> {
        ONE_PROBE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn sampler() -> Arc<obs::Sampler> {
        Arc::new(obs::Sampler::start(
            Arc::clone(obs::global()),
            Duration::from_secs(3600),
            8,
        ))
    }

    #[test]
    fn probe_answers_ping_health_metrics_and_series() {
        let _one = one_probe();
        let sampler = sampler();
        let mut probe = Probe::start("127.0.0.1:0", Arc::clone(&sampler), 2, 4).unwrap();
        let requests = || metrics().probe_requests.get();
        let before = requests();
        let mut client = Client::connect(probe.addr()).unwrap();
        client.ping().unwrap();

        let info = client.health().unwrap();
        assert_eq!(info.component, "das_ingest");
        assert_eq!(info.version, env!("CARGO_PKG_VERSION"));
        assert_eq!(info.workers, 2);
        assert_eq!(info.queue_cap, 4);
        assert_eq!(info.cache_capacity_bytes, 0);
        assert!(info.requests_total >= 1, "health itself is counted");

        let metrics_json = client.metrics_json().unwrap();
        let obs::json::JsonValue::Object(map) = obs::json::parse(&metrics_json).unwrap() else {
            panic!("metrics is not an object");
        };
        assert_eq!(
            map.get("component"),
            Some(&obs::json::JsonValue::String("das_ingest".into()))
        );
        assert!(map.contains_key("uptime_ms"));

        let series = client.metrics_series_json().unwrap();
        assert!(obs::json::parse(&series).is_ok(), "{series}");

        // Data-plane requests are refused, and the refusal is recorded.
        assert!(client.read_all().is_err());
        assert!(client.ping().is_ok(), "connection survives the refusal");

        // `Shutdown` is refused too: the probe is not the daemon's
        // off switch, and it keeps answering.
        match client.shutdown_server() {
            Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::BadRequest),
            other => panic!("expected a typed refusal, got {other:?}"),
        }
        client
            .ping()
            .expect("probe still answers after refusing Shutdown");

        // A framed payload that does not parse is a typed `BadRequest`,
        // and the same connection then answers `Ping`.
        let mut raw = TcpStream::connect(probe.addr()).unwrap();
        write_frame(&mut raw, &[0xEE, 1, 2]).unwrap();
        match Response::decode(&read_frame(&mut raw).unwrap().unwrap()).unwrap() {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
            other => panic!("expected BadRequest, got {other:?}"),
        }
        write_frame(&mut raw, &Request::Ping.encode()).unwrap();
        let pong = Response::decode(&read_frame(&mut raw).unwrap().unwrap()).unwrap();
        assert_eq!(
            pong,
            Response::Pong,
            "connection kept after a malformed frame"
        );

        // Every decoded request counted once: ping, health, metrics,
        // series, read_all, ping, shutdown, ping on the client, then
        // the raw ping (the malformed frame is not a request).
        assert_eq!(requests() - before, 9);
        drop((client, raw));
        probe.stop();
    }

    /// `stop()` on a helper thread must return within a second while
    /// a peer sits on the first `sent` bytes of a frame — the parent
    /// waited out the peer's whole lifetime.
    fn stop_returns_while_a_peer_stalls(sent: &[u8]) {
        let _one = one_probe();
        let probe = Probe::start("127.0.0.1:0", sampler(), 1, 1).unwrap();
        let mut peer = TcpStream::connect(probe.addr()).unwrap();
        // A ping first: its pong shows a worker holds the connection, and
        // the stalled frame is next.
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Request::Ping.encode()).unwrap();
        bytes.extend_from_slice(sent);
        peer.write_all(&bytes).unwrap();
        read_frame(&mut peer).unwrap();
        let (done, stopped) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut probe = probe;
            probe.stop();
            done.send(()).unwrap();
        });
        assert!(
            stopped.recv_timeout(Duration::from_secs(1)).is_ok(),
            "Probe::stop blocked behind a peer holding {} byte(s)",
            sent.len()
        );
        drop(peer);
    }

    #[test]
    fn stop_returns_while_a_peer_holds_part_of_a_prefix() {
        stop_returns_while_a_peer_stalls(&[5, 0]);
    }

    #[test]
    fn stop_returns_while_a_peer_holds_part_of_a_frame() {
        // 5 bytes of an 8-byte frame: a 4-byte payload announced, 1 sent
        stop_returns_while_a_peer_stalls(&[4, 0, 0, 0, 0x01]);
    }
}
