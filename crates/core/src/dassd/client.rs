//! A small blocking client for `dassd`, used by the test suite and
//! the `das_query` CLI.
//!
//! One [`Client`] wraps one TCP connection and may issue many
//! requests sequentially. Server-side failures surface as typed
//! [`ClientError`] variants; in particular an admission rejection is
//! [`ClientError::Busy`] and a `dasl` compile failure carries the
//! rendered caret diagnostic in [`ClientError::Compile`]. The client
//! never retries on its own — backoff policy belongs to the caller,
//! and [`BusyRetry`] is the packaged, still opt-in version of it.

use super::protocol::{
    read_frame, read_head, read_samples, write_frame, ErrorKind, Head, HealthInfo, RecvError,
    Request, Response,
};
use arrayudf::Array2;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What a request can fail with, from the client's point of view.
#[derive(Debug)]
pub enum ClientError {
    /// The server rejected the connection or request at admission.
    Busy,
    /// The `dasl` program failed to compile; the string is the
    /// server-rendered caret diagnostic.
    Compile(String),
    /// Any other typed server failure.
    Server {
        /// Failure class from the wire.
        kind: ErrorKind,
        /// Server-provided detail.
        message: String,
    },
    /// The server broke the protocol (unexpected frame, bad payload).
    Protocol(String),
    /// Transport-level failure.
    Io(io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Busy => write!(f, "server busy"),
            ClientError::Compile(d) => write!(f, "compile error:\n{d}"),
            ClientError::Server { kind, message } => {
                write!(f, "server error ({}): {message}", kind.name())
            }
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ClientError::Io(e) => write!(f, "connection error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<super::protocol::ProtoError> for ClientError {
    fn from(e: super::protocol::ProtoError) -> ClientError {
        ClientError::Protocol(e.0)
    }
}

impl From<RecvError> for ClientError {
    fn from(e: RecvError) -> ClientError {
        match e {
            RecvError::Io(e) => e.into(),
            RecvError::Proto(e) => e.into(),
        }
    }
}

/// Bytes of sample payload taken off the socket per read on the way
/// into the caller's array.
const STAGE_BYTES: usize = 64 << 10;

/// One connection to a `dassd` server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Staging for [`read_samples`]: the only buffer a sample crosses
    /// between the socket and the array handed back.
    stage: Box<[u8]>,
}

impl Client {
    /// Connect to a server.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            stage: vec![0; STAGE_BYTES].into_boxed_slice(),
        })
    }

    fn request(&mut self, req: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.writer, &req.encode())?;
        self.writer.flush()?;
        Ok(())
    }

    fn next_response(&mut self) -> Result<Response, ClientError> {
        next_response(&mut self.reader)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Ping)?;
        match self.next_response()? {
            Response::Pong => Ok(()),
            Response::Error { kind, message } => Err(server_error(kind, message)),
            other => Err(ClientError::Protocol(format!(
                "expected Pong, got {other:?}"
            ))),
        }
    }

    /// Read the whole corpus as `channel × sample` `f32`s.
    pub fn read_all(&mut self) -> Result<Array2<f32>, ClientError> {
        self.request(&Request::ReadAll)?;
        collect_read(&mut self.reader, &mut self.stage, None)
    }

    /// Read a rectangular window: channels `ch0..ch1`, samples
    /// `t0..t1`.
    pub fn read_region(
        &mut self,
        ch: std::ops::Range<u64>,
        t: std::ops::Range<u64>,
    ) -> Result<Array2<f32>, ClientError> {
        self.request(&Request::ReadRegion {
            ch0: ch.start,
            ch1: ch.end,
            t0: t.start,
            t1: t.end,
        })?;
        let asked = (ch.end.wrapping_sub(ch.start), t.end.wrapping_sub(t.start));
        collect_read(&mut self.reader, &mut self.stage, Some(asked))
    }

    /// Compile and run a `dasl` program server-side; returns the
    /// output dataset as `(dims, flat f64 samples)` — the same shape
    /// `AnalysisOutput::to_dataset` produces locally.
    pub fn eval(&mut self, src: &str) -> Result<(Vec<u64>, Vec<f64>), ClientError> {
        self.request(&Request::Eval { src: src.into() })?;
        collect_eval(&mut self.reader, &mut self.stage)
    }

    /// Fetch the server's metrics snapshot as JSON.
    pub fn metrics_json(&mut self) -> Result<String, ClientError> {
        self.request(&Request::Metrics)?;
        match self.next_response()? {
            Response::MetricsJson { json } => Ok(json),
            Response::Error { kind, message } => Err(server_error(kind, message)),
            other => Err(ClientError::Protocol(format!(
                "expected MetricsJson, got {other:?}"
            ))),
        }
    }

    /// Fetch the daemon's liveness/occupancy summary.
    pub fn health(&mut self) -> Result<HealthInfo, ClientError> {
        self.request(&Request::Health)?;
        match self.next_response()? {
            Response::Health { info } => Ok(info),
            Response::Error { kind, message } => Err(server_error(kind, message)),
            other => Err(ClientError::Protocol(format!(
                "expected Health, got {other:?}"
            ))),
        }
    }

    /// Fetch the windowed rate series (`obs::series` JSON export).
    pub fn metrics_series_json(&mut self) -> Result<String, ClientError> {
        self.request(&Request::MetricsSeries)?;
        match self.next_response()? {
            Response::SeriesJson { json } => Ok(json),
            Response::Error { kind, message } => Err(server_error(kind, message)),
            other => Err(ClientError::Protocol(format!(
                "expected SeriesJson, got {other:?}"
            ))),
        }
    }

    /// Ask the server to shut down; returns once acknowledged.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.request(&Request::Shutdown)?;
        match self.next_response()? {
            Response::ShuttingDown => Ok(()),
            Response::Error { kind, message } => Err(server_error(kind, message)),
            other => Err(ClientError::Protocol(format!(
                "expected ShuttingDown, got {other:?}"
            ))),
        }
    }
}

/// Translate an `Error` frame into the matching variant.
fn server_error(kind: ErrorKind, message: String) -> ClientError {
    match kind {
        ErrorKind::Busy => ClientError::Busy,
        ErrorKind::Compile => ClientError::Compile(message),
        _ => ClientError::Server { kind, message },
    }
}

fn closed() -> ClientError {
    ClientError::Protocol("server closed the connection mid-request".into())
}

fn next_response(r: &mut impl Read) -> Result<Response, ClientError> {
    let payload = read_frame(r)?.ok_or_else(closed)?;
    Ok(Response::decode(&payload)?)
}

/// `n` zeroed elements, or a protocol error when a peer's numbers ask
/// for more memory than there is.
fn zeroed<T: Clone + Default>(n: usize) -> Result<Vec<T>, ClientError> {
    let mut v = Vec::new();
    v.try_reserve_exact(n)
        .map_err(|e| ClientError::Protocol(format!("cannot hold {n} announced samples: {e}")))?;
    v.resize(n, T::default());
    Ok(v)
}

/// Elements in a grid of `dims`, when each extent and their product
/// are numbers this machine can index with.
fn volume(dims: &[u64]) -> Option<usize> {
    dims.iter()
        .try_fold(1usize, |n, &d| n.checked_mul(usize::try_from(d).ok()?))
}

/// The range `at .. at + n`, when it lies inside `0 .. bound`.
fn span(at: u64, n: u64, bound: usize) -> Option<std::ops::Range<usize>> {
    let end = usize::try_from(at.checked_add(n)?).ok()?;
    (end <= bound).then_some(at as usize..end)
}

/// What every stream ends with: `End` carrying the number of data
/// frames seen, a server error, or a protocol violation.
fn stream_end(other: Response, frames: u64, what: &str) -> Result<(), ClientError> {
    match other {
        Response::End { frames: n } if n == frames => Ok(()),
        Response::End { frames: n } => Err(ClientError::Protocol(format!(
            "End claims {n} frames, saw {frames}"
        ))),
        Response::Error { kind, message } => Err(server_error(kind, message)),
        other => Err(ClientError::Protocol(format!(
            "expected {what}/End, got {other:?}"
        ))),
    }
}

/// Assemble a `Start`/`Chunk`*/`End` stream into an array, each
/// frame's samples decoded from the socket straight into their rows.
/// `asked`, when given, is the `(rows, cols)` grid `Start` must
/// announce. Nothing a peer sends is trusted to size or index memory.
fn collect_read(
    r: &mut impl Read,
    stage: &mut [u8],
    asked: Option<(u64, u64)>,
) -> Result<Array2<f32>, ClientError> {
    let grid = match next_response(r)? {
        Response::Start { rows, cols } => (rows, cols),
        Response::Error { kind, message } => return Err(server_error(kind, message)),
        other => {
            return Err(ClientError::Protocol(format!(
                "expected Start, got {other:?}"
            )))
        }
    };
    if asked.is_some_and(|asked| asked != grid) {
        return Err(ClientError::Protocol(format!(
            "asked for a {asked:?} grid, Start announces {grid:?}"
        )));
    }
    let Some(len) = volume(&[grid.0, grid.1]) else {
        return Err(ClientError::Protocol(format!(
            "announced grid {grid:?} overflows"
        )));
    };
    let (rows, cols) = (grid.0 as usize, grid.1 as usize);
    let mut out = zeroed::<f32>(len)?;
    let mut frames = 0u64;
    loop {
        let head = read_head(r)?.ok_or_else(closed)?;
        let placed = match head {
            Head::Chunk {
                row0,
                col0,
                rows: tr,
                cols: tc,
            } => span(row0, tr, rows).zip(span(col0, tc, cols)),
            _ => None,
        };
        match (head, placed) {
            (Head::Chunk { .. }, Some((rs, cs))) => {
                for row in rs {
                    let dst = &mut out[row * cols..][cs.clone()];
                    read_samples(r, stage, dst, f32::from_le_bytes)?;
                }
                frames += 1;
            }
            (Head::Other(other), _) => {
                stream_end(other, frames, "Chunk")?;
                return Ok(Array2::from_vec(rows, cols, out));
            }
            (head, _) => {
                head.skip(r)?;
                return Err(ClientError::Protocol(format!(
                    "{head:?} has no place in a {rows}x{cols} read stream"
                )));
            }
        }
    }
}

/// Assemble an `EvalStart`/`EvalChunk`*/`End` stream, under the same
/// rules as [`collect_read`].
fn collect_eval(r: &mut impl Read, stage: &mut [u8]) -> Result<(Vec<u64>, Vec<f64>), ClientError> {
    let dims = match next_response(r)? {
        Response::EvalStart { dims } => dims,
        Response::Error { kind, message } => return Err(server_error(kind, message)),
        other => {
            return Err(ClientError::Protocol(format!(
                "expected EvalStart, got {other:?}"
            )))
        }
    };
    let total = volume(&dims)
        .ok_or_else(|| ClientError::Protocol(format!("announced dims {dims:?} overflow")))?;
    let mut flat = zeroed::<f64>(total)?;
    let mut frames = 0u64;
    loop {
        let head = read_head(r)?.ok_or_else(closed)?;
        let placed = match head {
            Head::EvalChunk { offset, count } => span(offset, count, total),
            _ => None,
        };
        match (head, placed) {
            (Head::EvalChunk { .. }, Some(at)) => {
                read_samples(r, stage, &mut flat[at], f64::from_le_bytes)?;
                frames += 1;
            }
            (Head::Other(other), _) => {
                stream_end(other, frames, "EvalChunk")?;
                return Ok((dims, flat));
            }
            (head, _) => {
                head.skip(r)?;
                return Err(ClientError::Protocol(format!(
                    "{head:?} has no place in a {total}-sample eval stream"
                )));
            }
        }
    }
}

/// Opt-in jittered backoff around [`ClientError::Busy`] rejections.
///
/// The server sheds load by rejecting at *admission* and closing the
/// connection, so a retry is a whole new connection: the closure owns
/// connect + request and receives the 0-based attempt number. Only
/// `Busy` retries — every other failure propagates immediately, and so
/// does the `Busy` from the final attempt.
///
/// Waits double per attempt (shift clamped) with a deterministic
/// jitter factor in `[0.75, 1.25)` drawn from an FNV hash of
/// `(key, attempt)`: replays are byte-identical for the same key, yet
/// parallel callers with distinct keys spread out instead of
/// re-stampeding the admission queue in lockstep.
///
/// ```no_run
/// use dassa::dassd::{BusyRetry, Client};
/// let policy = BusyRetry::new(5);
/// let digest = policy.run("probe", |_attempt| {
///     let mut client = Client::connect("127.0.0.1:3557")?;
///     client.read_all()
/// })?;
/// # Ok::<(), dassa::dassd::ClientError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BusyRetry {
    /// Total attempts, including the first (≥ 1).
    pub attempts: u32,
    /// Wait before the first retry; doubles per attempt.
    pub base: Duration,
}

impl Default for BusyRetry {
    /// Four attempts from 25 ms: worst case ~½ s of patience.
    fn default() -> BusyRetry {
        BusyRetry {
            attempts: 4,
            base: Duration::from_millis(25),
        }
    }
}

impl BusyRetry {
    /// A policy with `attempts` total tries and the default base wait.
    pub fn new(attempts: u32) -> BusyRetry {
        BusyRetry {
            attempts,
            ..BusyRetry::default()
        }
    }

    /// Run `op` until it returns anything other than `Busy`, or the
    /// attempt budget is spent.
    pub fn run<T>(
        &self,
        key: &str,
        mut op: impl FnMut(u32) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let attempts = self.attempts.max(1);
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Err(ClientError::Busy) if attempt + 1 < attempts => {
                    std::thread::sleep(self.wait(key, attempt));
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// The wait after attempt `attempt` (0-based) failed busy.
    fn wait(&self, key: &str, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(10));
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in key.bytes().chain(attempt.to_le_bytes()) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        let jitter_ppm = 750_000 + h % 500_000; // [0.75, 1.25) in millionths
        let nanos = exp.as_nanos().saturating_mul(jitter_ppm as u128) / 1_000_000;
        Duration::from_nanos(nanos.min(u64::MAX as u128) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(attempts: u32) -> BusyRetry {
        BusyRetry {
            attempts,
            base: Duration::from_micros(10),
        }
    }

    #[test]
    fn busy_then_success_retries_through() {
        let mut calls = 0u32;
        let out = tiny(4).run("k", |attempt| {
            calls += 1;
            if attempt < 2 {
                Err(ClientError::Busy)
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out.unwrap(), 2);
        assert_eq!(calls, 3);
    }

    #[test]
    fn persistent_busy_spends_the_budget_then_surfaces() {
        let mut calls = 0u32;
        let out = tiny(3).run("k", |_| {
            calls += 1;
            Err::<(), _>(ClientError::Busy)
        });
        assert!(matches!(out, Err(ClientError::Busy)));
        assert_eq!(calls, 3, "exactly the attempt budget");
    }

    #[test]
    fn non_busy_errors_do_not_retry() {
        let mut calls = 0u32;
        let out = tiny(5).run("k", |_| {
            calls += 1;
            Err::<(), _>(ClientError::Protocol("boom".into()))
        });
        assert!(matches!(out, Err(ClientError::Protocol(_))));
        assert_eq!(calls, 1);
    }

    #[test]
    fn waits_are_deterministic_and_grow() {
        let p = BusyRetry::default();
        let w0 = p.wait("key", 0);
        let w1 = p.wait("key", 1);
        assert_eq!(w0, p.wait("key", 0));
        assert!(w1 > w0, "{w1:?} should exceed {w0:?}");
        assert_ne!(p.wait("other", 0), w0, "keys decorrelate");
    }
    // ------------------------------------------------ streamed decode

    use arrayudf::TileView;
    use std::net::TcpListener;

    fn wire(frames: &[Response]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            write_frame(&mut out, &f.encode()).unwrap();
        }
        out
    }

    /// Hands out at most `step` bytes per `read`, and at most up to
    /// the next multiple of `split` — so a frame header, a sample and
    /// a stage refill all get torn somewhere.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
        step: usize,
        split: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let to_split = self.split - self.pos % self.split;
            let n = buf
                .len()
                .min(self.step)
                .min(to_split)
                .min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// A 3 x 10 grid sent as two column tiles, so every row of every
    /// frame is placed on its own.
    fn two_frame_read() -> Vec<Response> {
        let tile = |col0: u64, cols: u64| Response::Chunk {
            row0: 0,
            col0,
            rows: 3,
            cols,
            data: (0..3 * cols)
                .map(|i| (col0 * 100 + i) as f32 * 0.5)
                .collect(),
        };
        vec![
            Response::Start { rows: 3, cols: 10 },
            tile(0, 4),
            tile(4, 6),
            Response::End { frames: 2 },
        ]
    }

    /// The owned path the streamed one replaced: whole frames,
    /// `Response::decode`, `paste`.
    fn decode_and_paste(frames: &[u8]) -> Array2<f32> {
        let mut r = frames;
        let mut out = Array2::zeroed(0, 0);
        while let Some(payload) = read_frame(&mut r).unwrap() {
            match Response::decode(&payload).unwrap() {
                Response::Start { rows, cols } => {
                    out = Array2::zeroed(rows as usize, cols as usize)
                }
                Response::Chunk {
                    row0,
                    col0,
                    rows,
                    cols,
                    data,
                } => out.paste(
                    row0 as usize,
                    col0 as usize,
                    TileView::new(rows as usize, cols as usize, &data),
                ),
                Response::End { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        out
    }

    #[test]
    fn streamed_decode_equals_decode_and_paste_at_every_split_point() {
        let bytes = wire(&two_frame_read());
        let want = decode_and_paste(&bytes);
        assert_eq!(want.get(2, 9), (400 + 17) as f32 * 0.5);
        // a 10-byte stage: two samples per refill, so it refills mid-row
        let mut stage = [0u8; 10];
        for step in 1..=9 {
            let mut r = Trickle {
                data: &bytes,
                pos: 0,
                step,
                split: usize::MAX,
            };
            assert_eq!(
                collect_read(&mut r, &mut stage, Some((3, 10))).unwrap(),
                want
            );
        }
        for split in 1..bytes.len() {
            let mut r = Trickle {
                data: &bytes,
                pos: 0,
                step: usize::MAX,
                split,
            };
            assert_eq!(collect_read(&mut r, &mut stage, None).unwrap(), want);
            assert_eq!(r.pos, bytes.len(), "split {split}: bytes left unread");
        }
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error() {
        let read = wire(&two_frame_read());
        let eval = wire(&[
            Response::EvalStart { dims: vec![2, 3] },
            Response::EvalChunk {
                offset: 0,
                data: vec![0.25, -1.0],
            },
            Response::EvalChunk {
                offset: 2,
                data: vec![f64::MAX, 0.0, 1e-300, 7.0],
            },
            Response::End { frames: 2 },
        ]);
        let mut stage = [0u8; 16];
        for cut in 0..read.len() {
            let got = collect_read(&mut &read[..cut], &mut stage, None);
            assert!(
                matches!(got, Err(ClientError::Io(_) | ClientError::Protocol(_))),
                "read stream cut at {cut}: {got:?}"
            );
        }
        for cut in 0..eval.len() {
            let got = collect_eval(&mut &eval[..cut], &mut stage);
            assert!(
                matches!(got, Err(ClientError::Io(_) | ClientError::Protocol(_))),
                "eval stream cut at {cut}: {got:?}"
            );
        }
        let (dims, flat) = collect_eval(&mut &eval[..], &mut stage).unwrap();
        assert_eq!(dims, [2, 3]);
        assert_eq!(flat, [0.25, -1.0, f64::MAX, 0.0, 1e-300, 7.0]);
    }

    // ------------------------------------------- a peer that misbehaves

    /// A loopback "server" that answers the first request with
    /// `script` and any later one with `Pong`; returns a connected
    /// client.
    fn scripted(script: Vec<u8>) -> Client {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut reply = script;
            while let Ok(Some(_request)) = read_frame(&mut conn) {
                if conn.write_all(&reply).is_err() {
                    break;
                }
                reply = wire(&[Response::Pong]);
            }
        });
        Client::connect(addr).unwrap()
    }

    fn chunk(row0: u64, col0: u64, rows: u64, cols: u64, n: usize) -> Response {
        Response::Chunk {
            row0,
            col0,
            rows,
            cols,
            data: vec![1.5; n],
        }
    }

    /// Every script ends in a protocol violation: the call must say
    /// so, and the connection must still be framed for the next
    /// request.
    fn assert_refused(what: &str, script: &[Response], call: impl Fn(&mut Client) -> bool) {
        let mut client = scripted(wire(script));
        assert!(call(&mut client), "{what}: not a ClientError::Protocol");
        client
            .ping()
            .unwrap_or_else(|e| panic!("{what}: connection lost its framing: {e}"));
    }

    fn read_all_refused(c: &mut Client) -> bool {
        matches!(c.read_all(), Err(ClientError::Protocol(_)))
    }

    #[test]
    fn a_peers_numbers_never_size_or_index_memory() {
        let start = Response::Start { rows: 2, cols: 4 };
        let end = |frames| Response::End { frames };
        assert_refused(
            "origins at u64::MAX",
            &[start.clone(), chunk(u64::MAX, u64::MAX, 1, 1, 1)],
            read_all_refused,
        );
        assert_refused(
            "origin + extent wraps",
            &[start.clone(), chunk(u64::MAX - 1, 0, 2, 1, 2)],
            read_all_refused,
        );
        assert_refused(
            "chunk below the grid",
            &[start.clone(), chunk(1, 0, 2, 4, 8)],
            read_all_refused,
        );
        assert_refused(
            "chunk right of the grid",
            &[start.clone(), chunk(0, 3, 1, 2, 2)],
            read_all_refused,
        );
        assert_refused(
            "tile that overflows",
            &[start.clone(), chunk(0, 0, 1 << 32, 1 << 32, 0)],
            read_all_refused,
        );
        assert_refused(
            "count that is not the tile",
            &[start.clone(), chunk(0, 0, 2, 4, 7)],
            read_all_refused,
        );
        assert_refused(
            "End with the wrong count",
            &[start.clone(), chunk(0, 0, 2, 4, 8), end(2)],
            read_all_refused,
        );
        assert_refused(
            "an eval frame in a read stream",
            &[
                start.clone(),
                Response::EvalChunk {
                    offset: 0,
                    data: vec![0.0; 3],
                },
            ],
            read_all_refused,
        );
        for (rows, cols) in [(u64::MAX, 2), (1 << 40, 1 << 40), (1 << 30, 1 << 30)] {
            assert_refused(
                "a grid no memory holds",
                &[Response::Start { rows, cols }],
                read_all_refused,
            );
        }
        assert_refused(
            "a grid that was not asked for",
            std::slice::from_ref(&start),
            |c| matches!(c.read_region(0..2, 0..5), Err(ClientError::Protocol(_))),
        );

        let eval_refused = |c: &mut Client| matches!(c.eval("x"), Err(ClientError::Protocol(_)));
        let eval_start = Response::EvalStart { dims: vec![2, 3] };
        let run = |offset, n| Response::EvalChunk {
            offset,
            data: vec![0.5; n],
        };
        assert_refused(
            "dims that overflow",
            &[Response::EvalStart {
                dims: vec![u64::MAX, 2],
            }],
            eval_refused,
        );
        assert_refused(
            "dims no memory holds",
            &[Response::EvalStart {
                dims: vec![1 << 30, 1 << 29],
            }],
            eval_refused,
        );
        assert_refused(
            "offset at u64::MAX",
            &[eval_start.clone(), run(u64::MAX, 2)],
            eval_refused,
        );
        assert_refused(
            "run past the dataset",
            &[eval_start.clone(), run(4, 3)],
            eval_refused,
        );
        assert_refused(
            "a read frame in an eval stream",
            &[eval_start.clone(), chunk(0, 0, 1, 2, 2)],
            eval_refused,
        );
        assert_refused(
            "End with the wrong count",
            &[eval_start, run(0, 6), end(0)],
            eval_refused,
        );

        // and the well-formed stream still lands, whole
        let mut client = scripted(wire(&[start, chunk(0, 0, 2, 4, 8), end(1)]));
        let got = client.read_region(3..5, 10..14).unwrap();
        assert_eq!(got, Array2::filled(2, 4, 1.5));
    }
}
