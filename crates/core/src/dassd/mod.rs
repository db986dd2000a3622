//! `dassd` — a concurrent DAS data server.
//!
//! The batch pipelines answer "run this analysis once"; `dassd`
//! answers the ROADMAP's service question: many simultaneous clients
//! reading windows of one corpus and running `dasl` programs against
//! it, over plain TCP with zero new dependencies. The subsystem has
//! five layers, one module each:
//!
//! * [`protocol`] — length-prefixed frames; requests carry `dasl`
//!   source, responses stream data in bounded chunks so a multi-GB
//!   read never materialises in one buffer.
//! * [`cache`] — a corpus-wide, capacity-bounded chunk cache
//!   ([`ChunkCache`]) with CLOCK eviction, layered on [`dasf::pool`];
//!   only checksum-verified chunks are ever resident.
//! * `conn` — the connection core `dassd` and the `das_ingest` probe
//!   share: bind, accept loop, bounded admission queue (over-capacity
//!   clients get a typed [`protocol::ErrorKind::Busy`] rejection instead
//!   of unbounded queueing), worker pool, per-connection frame loop
//!   with one idle/stalled-peer limit, and the `Ping`/`Health`/
//!   `Metrics`/`MetricsSeries` answers; each daemon is a handler on it.
//! * [`server`] — the `dassd` handler: reads through the cache, `dasl`
//!   evals, `Shutdown`.
//! * [`client`] — the blocking [`Client`] used by tests and
//!   `das_query`.
//!
//! Binaries: `das_serve` (the daemon) and `das_query` (one-shot
//! client + burst tool). Every request is traced and counted; see
//! [`server::metric_names`] and [`cache::metric_names`].
//!
//! ```no_run
//! use dassa::dassd::{Client, Server, ServerConfig};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::start("/data/das".as_ref(), ServerConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! let window = client.read_region(0..8, 0..3000)?;
//! let (dims, scores) = client.eval("load(\"corpus\") | detrend | xcorr(master=ch[0])")?;
//! # let _ = (window, dims, scores);
//! server.stop();
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod client;
pub(crate) mod conn;
pub mod protocol;
pub mod server;

pub use cache::{Chunk, ChunkCache};
pub use client::{BusyRetry, Client, ClientError};
pub use protocol::{ErrorKind, HealthInfo, Request, Response};
pub use server::{Server, ServerConfig};
