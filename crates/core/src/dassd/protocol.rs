//! The `dassd` wire protocol: length-prefixed frames over a byte
//! stream.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by that many payload bytes. The first payload byte is a
//! tag selecting the message variant; the rest is a fixed field layout
//! per variant (little-endian integers, length-prefixed strings,
//! packed `f32`/`f64` sample runs). Frames larger than
//! [`MAX_FRAME_BYTES`] are rejected before allocation, so a corrupt or
//! hostile length prefix cannot balloon memory.
//!
//! Bulk data never travels as one frame. The server streams a read as
//! `Start` → many `Chunk` frames (each at most [`MAX_DATA_ELEMS`]
//! samples) → `End`, and an eval as `EvalStart` → `EvalChunk`* →
//! `End`, so a multi-GB response is pipelined through a bounded buffer
//! rather than materialised.

use std::io::{self, Read, Write};

/// Hard cap on a single frame's payload (64 MiB).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Maximum samples per `Chunk`/`EvalChunk` frame (1 Mi elements, so a
/// data frame stays ≤ 8 MiB).
pub const MAX_DATA_ELEMS: usize = 1 << 20;

/// A decode failure: the frame was well-delimited but its payload did
/// not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

/// Typed failure classes a server can return. The client maps these
/// onto [`super::ClientError`] variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The server is at capacity; the request was rejected, not queued.
    Busy,
    /// The `dasl` source failed to compile; the message carries the
    /// rendered caret diagnostic.
    Compile,
    /// The request itself is invalid (bad selection, unknown tag...).
    BadRequest,
    /// Stored data failed integrity verification (checksum mismatch,
    /// torn file).
    Corrupt,
    /// An I/O error reading the corpus.
    Io,
    /// Anything else; a server-side bug or comm failure.
    Internal,
}

impl ErrorKind {
    fn to_u8(self) -> u8 {
        match self {
            ErrorKind::Busy => 0,
            ErrorKind::Compile => 1,
            ErrorKind::BadRequest => 2,
            ErrorKind::Corrupt => 3,
            ErrorKind::Io => 4,
            ErrorKind::Internal => 5,
        }
    }

    fn from_u8(b: u8) -> Result<ErrorKind, ProtoError> {
        Ok(match b {
            0 => ErrorKind::Busy,
            1 => ErrorKind::Compile,
            2 => ErrorKind::BadRequest,
            3 => ErrorKind::Corrupt,
            4 => ErrorKind::Io,
            5 => ErrorKind::Internal,
            other => return Err(ProtoError(format!("unknown error kind {other}"))),
        })
    }

    /// Stable lowercase name (used in metrics and CLI output).
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Busy => "busy",
            ErrorKind::Compile => "compile",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Corrupt => "corrupt",
            ErrorKind::Io => "io",
            ErrorKind::Internal => "internal",
        }
    }
}

/// Liveness/occupancy summary answered to [`Request::Health`]. Both
/// daemons speak it: `dassd` fills every field; the `das_ingest` probe
/// reports zero cache capacity (it has no chunk cache).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthInfo {
    /// Reporting daemon, `dassd` or `das_ingest`.
    pub component: String,
    /// Workspace version string.
    pub version: String,
    /// Milliseconds since the daemon started serving.
    pub uptime_ms: u64,
    /// Configured worker threads.
    pub workers: u64,
    /// Workers currently inside a request.
    pub workers_busy: u64,
    /// Connections waiting in the accept queue.
    pub queue_len: u64,
    /// Accept queue capacity.
    pub queue_cap: u64,
    /// Bytes resident in the chunk cache (0 for ingest).
    pub cache_resident_bytes: u64,
    /// Chunk cache capacity (0 for ingest).
    pub cache_capacity_bytes: u64,
    /// Total requests dispatched since start.
    pub requests_total: u64,
    /// Most recent error message served, empty if none yet.
    pub last_error: String,
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Stream the whole corpus as `channel × sample` `f32`s.
    ReadAll,
    /// Stream a rectangular window: channels `ch0..ch1`, samples
    /// `t0..t1` (half-open).
    ReadRegion {
        /// First channel (inclusive).
        ch0: u64,
        /// One past the last channel.
        ch1: u64,
        /// First sample (inclusive).
        t0: u64,
        /// One past the last sample.
        t1: u64,
    },
    /// Compile and run a `dasl` program against the server's corpus.
    Eval {
        /// `dasl` source text.
        src: String,
    },
    /// Return the server's metrics registry as a JSON snapshot.
    Metrics,
    /// Ask the server to stop accepting and exit its serve loop.
    Shutdown,
    /// Liveness/occupancy probe; answered with [`Response::Health`].
    Health,
    /// Return the windowed rate series ([`obs::series`] JSON export);
    /// answered with [`Response::SeriesJson`].
    MetricsSeries,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Head of a read stream: the full response grid shape.
    Start {
        /// Total channels in the response.
        rows: u64,
        /// Total samples in the response.
        cols: u64,
    },
    /// One tile of a read stream, pasted at `(row0, col0)` of the grid
    /// announced by `Start`. `data.len() == rows * cols`, row-major.
    Chunk {
        /// Destination row of the tile's first row.
        row0: u64,
        /// Destination column of the tile's first column.
        col0: u64,
        /// Tile height.
        rows: u64,
        /// Tile width.
        cols: u64,
        /// Row-major samples.
        data: Vec<f32>,
    },
    /// Head of an eval stream: the output dataset's dimensions.
    EvalStart {
        /// Dataset dims, as written by `AnalysisOutput::to_dataset`.
        dims: Vec<u64>,
    },
    /// One run of an eval stream's flat `f64` payload.
    EvalChunk {
        /// Flat element offset of `data[0]`.
        offset: u64,
        /// Flat samples.
        data: Vec<f64>,
    },
    /// Tail of a read/eval stream.
    End {
        /// Number of data frames that preceded this.
        frames: u64,
    },
    /// Answer to [`Request::Metrics`].
    MetricsJson {
        /// `obs::Snapshot` JSON.
        json: String,
    },
    /// Answer to [`Request::Shutdown`]; the connection closes after.
    ShuttingDown,
    /// Answer to [`Request::Health`].
    Health {
        /// Current liveness/occupancy summary.
        info: HealthInfo,
    },
    /// Answer to [`Request::MetricsSeries`].
    SeriesJson {
        /// `obs::series::SeriesRing` windowed-rates JSON.
        json: String,
    },
    /// Typed failure. May replace any response, including mid-stream
    /// (after which the stream is abandoned but the connection stays
    /// usable for the next request).
    Error {
        /// Failure class.
        kind: ErrorKind,
        /// Human-readable detail (rendered caret diagnostic for
        /// [`ErrorKind::Compile`]).
        message: String,
    },
}

// ---------------------------------------------------------------- frame I/O

fn too_large(kind: io::ErrorKind, n: usize) -> io::Error {
    io::Error::new(
        kind,
        format!("frame of {n} bytes exceeds cap of {MAX_FRAME_BYTES}"),
    )
}

/// Write one frame: `u32` LE length, then the payload. A payload past
/// [`MAX_FRAME_BYTES`] is refused (`InvalidInput`) with nothing written
/// — the peer would reject its length and drop the connection.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(too_large(io::ErrorKind::InvalidInput, payload.len()));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Build one whole frame in `buf` (cleared first): a length slot,
/// whatever `payload` appends, then the slot patched — so the frame
/// leaves in a single `write_all` and `buf` keeps its capacity for the
/// next one.
fn frame_into(buf: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) -> io::Result<()> {
    buf.clear();
    buf.extend_from_slice(&[0; 4]);
    payload(buf);
    let n = buf.len() - 4;
    if n > MAX_FRAME_BYTES {
        return Err(too_large(io::ErrorKind::InvalidInput, n));
    }
    buf[..4].copy_from_slice(&(n as u32).to_le_bytes());
    Ok(())
}

/// Replace `buf` with a whole `Chunk` frame whose samples are gathered
/// from borrowed `data` rows (`rows * cols` samples in all) — the same
/// bytes as [`write_frame`] of the owned [`Response::Chunk`]'s
/// `encode()`, without the owned copy.
pub fn chunk_frame<'a>(
    buf: &mut Vec<u8>,
    row0: u64,
    col0: u64,
    rows: usize,
    cols: usize,
    data: impl Iterator<Item = &'a [f32]>,
) -> io::Result<()> {
    frame_into(buf, |out| {
        chunk_payload(
            out,
            [row0, col0, rows as u64, cols as u64],
            rows * cols,
            data,
        )
    })
}

/// Replace `buf` with a whole `EvalChunk` frame over borrowed `data`.
pub fn eval_chunk_frame(buf: &mut Vec<u8>, offset: u64, data: &[f64]) -> io::Result<()> {
    frame_into(buf, |out| eval_chunk_payload(out, offset, data))
}

/// True for the error kinds a `set_read_timeout` expiry produces.
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read a frame's length prefix. Returns `Ok(None)` on clean EOF at a
/// frame boundary; mid-prefix EOF and lengths past [`MAX_FRAME_BYTES`]
/// are errors.
///
/// With a read timeout set on the underlying stream, an expiry while
/// *idle* (no prefix byte seen yet) surfaces as a [`is_timeout`]
/// error so a server loop can poll its shutdown flag and resume;
/// expiries *inside* a frame keep waiting, so a slow writer cannot
/// desynchronise the framing.
pub fn read_frame_len(r: &mut impl Read) -> io::Result<Option<usize>> {
    let mut len = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) && got > 0 => continue,
            Err(e) => return Err(e),
        }
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME_BYTES {
        return Err(too_large(io::ErrorKind::InvalidData, n));
    }
    Ok(Some(n))
}

/// Fill `buf` with the next bytes of the frame being read; EOF before
/// it is full is an error, a read-timeout expiry is waited out.
pub fn read_body(r: &mut impl Read, buf: &mut [u8]) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame payload",
                ))
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted || is_timeout(&e) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one whole frame: [`read_frame_len`], then its payload.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let Some(n) = read_frame_len(r)? else {
        return Ok(None);
    };
    let mut payload = vec![0u8; n];
    read_body(r, &mut payload)?;
    Ok(Some(payload))
}

/// Why [`read_head`] could not produce a frame.
#[derive(Debug)]
pub enum RecvError {
    /// The transport failed or ended inside a frame.
    Io(io::Error),
    /// The frame was well-delimited but did not parse.
    Proto(ProtoError),
}

impl From<io::Error> for RecvError {
    fn from(e: io::Error) -> RecvError {
        RecvError::Io(e)
    }
}

impl From<ProtoError> for RecvError {
    fn from(e: ProtoError) -> RecvError {
        RecvError::Proto(e)
    }
}

/// One frame of a response stream with its samples still on the wire,
/// so the receiver can place them where they belong instead of in a
/// frame-sized buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Head {
    /// A `Chunk`: exactly `rows * cols` `f32`s follow (at most a
    /// frame's worth) — take them with [`read_samples`] or
    /// [`Head::skip`].
    Chunk {
        /// Destination row of the tile's first row.
        row0: u64,
        /// Destination column of the tile's first column.
        col0: u64,
        /// Tile height.
        rows: u64,
        /// Tile width.
        cols: u64,
    },
    /// An `EvalChunk`: exactly `count` `f64`s follow.
    EvalChunk {
        /// Flat element offset of the first sample.
        offset: u64,
        /// Samples in the frame.
        count: u64,
    },
    /// Any other frame, read whole and decoded.
    Other(Response),
}

impl Head {
    /// Read and discard the samples this head left on the wire, so a
    /// frame the receiver cannot place still leaves the stream framed.
    pub fn skip(&self, r: &mut impl Read) -> io::Result<()> {
        // read_head checked these products against the frame's length
        match *self {
            Head::Chunk { rows, cols, .. } => skip_body(r, (rows * cols * 4) as usize),
            Head::EvalChunk { count, .. } => skip_body(r, (count * 8) as usize),
            Head::Other(_) => Ok(()),
        }
    }
}

/// Read the next frame up to where its samples start. `Ok(None)` is a
/// clean EOF at a frame boundary. A sample frame whose count disagrees
/// with its own length or tile is a [`RecvError::Proto`] *after* its
/// body has been skipped, so the stream stays framed.
pub fn read_head(r: &mut impl Read) -> Result<Option<Head>, RecvError> {
    let Some(len) = read_frame_len(r)? else {
        return Ok(None);
    };
    let mut fixed = [0u8; 1 + 5 * 8];
    let have = len.min(1);
    read_body(r, &mut fixed[..have])?;
    // Fixed bytes after the tag, and bytes per sample.
    let (fixed_len, width) = match fixed[0] {
        RSP_CHUNK => (5 * 8, 4),
        RSP_EVAL_CHUNK => (2 * 8, 8),
        _ => (0, 0),
    };
    if width == 0 || len < 1 + fixed_len {
        // Not a sample frame (or one too short to be): the owned path,
        // whose decoder names what is wrong with it.
        let mut payload = vec![0u8; len];
        payload[..have].copy_from_slice(&fixed[..have]);
        read_body(r, &mut payload[have..])?;
        return Ok(Some(Head::Other(Response::decode(&payload)?)));
    }
    read_body(r, &mut fixed[1..1 + fixed_len])?;
    let body = len - 1 - fixed_len;
    let mut d = Dec::new(&fixed[1..1 + fixed_len]);
    let (head, count, tile) = if fixed[0] == RSP_CHUNK {
        let (row0, col0, rows, cols) = (d.u64()?, d.u64()?, d.u64()?, d.u64()?);
        let head = Head::Chunk {
            row0,
            col0,
            rows,
            cols,
        };
        (head, d.u64()?, rows.checked_mul(cols))
    } else {
        let (offset, count) = (d.u64()?, d.u64()?);
        (Head::EvalChunk { offset, count }, count, Some(count))
    };
    if count.checked_mul(width) != Some(body as u64) || tile != Some(count) {
        skip_body(r, body)?;
        return Err(ProtoError(format!(
            "sample frame announces {count} samples, carries {body} bytes: {head:?}"
        ))
        .into());
    }
    Ok(Some(head))
}

/// Read `dst.len()` little-endian samples of `W` bytes each into `dst`
/// through `stage` (at least `W` bytes; larger means fewer reads).
pub fn read_samples<T, const W: usize>(
    r: &mut impl Read,
    stage: &mut [u8],
    dst: &mut [T],
    le: impl Fn([u8; W]) -> T + Copy,
) -> io::Result<()> {
    for part in dst.chunks_mut(stage.len() / W) {
        let raw = &mut stage[..part.len() * W];
        read_body(r, raw)?;
        get_le(raw, part, le);
    }
    Ok(())
}

/// Read and discard `n` bytes of the frame being read.
fn skip_body(r: &mut impl Read, n: usize) -> io::Result<()> {
    let mut sink = [0u8; 4096];
    let mut left = n;
    while left > 0 {
        let take = left.min(sink.len());
        read_body(r, &mut sink[..take])?;
        left -= take;
    }
    Ok(())
}

// ------------------------------------------------------------- enc / dec

/// `src` as little-endian bytes over `dst`, which must be exactly
/// `src.len() * W` long. A pass over whole slices, which compiles to a
/// block move on little-endian targets.
fn put_le<T: Copy, const W: usize>(dst: &mut [u8], src: &[T], le: impl Fn(T) -> [u8; W]) {
    assert_eq!(dst.len(), src.len() * W, "sample run length");
    for (b, &x) in dst.chunks_exact_mut(W).zip(src) {
        b.copy_from_slice(&le(x));
    }
}

/// The inverse of [`put_le`]: `src.len() == dst.len() * W`.
fn get_le<T, const W: usize>(src: &[u8], dst: &mut [T], le: impl Fn([u8; W]) -> T) {
    assert_eq!(src.len(), dst.len() * W, "sample run length");
    for (x, b) in dst.iter_mut().zip(src.chunks_exact(W)) {
        *x = le(b.try_into().expect("chunks_exact yields W bytes"));
    }
}

/// Appends one payload to a buffer the caller owns.
struct Enc<'a>(&'a mut Vec<u8>);

impl<'a> Enc<'a> {
    fn new(out: &'a mut Vec<u8>, tag: u8) -> Enc<'a> {
        out.push(tag);
        Enc(out)
    }
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }
    /// A run of `count` samples gathered from `rows`, which must hold
    /// exactly that many between them.
    fn f32_rows<'r>(&mut self, count: usize, rows: impl Iterator<Item = &'r [f32]>) {
        self.u64(count as u64);
        let start = self.0.len();
        self.0.resize(start + count * 4, 0);
        let mut rest = &mut self.0[start..];
        for row in rows {
            let (dst, tail) = rest.split_at_mut(row.len() * 4);
            put_le(dst, row, f32::to_le_bytes);
            rest = tail;
        }
        assert!(rest.is_empty(), "rows hold fewer than {count} samples");
    }
    fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        let start = self.0.len();
        self.0.resize(start + v.len() * 8, 0);
        put_le(&mut self.0[start..], v, f64::to_le_bytes);
    }
    fn u64s(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for x in v {
            self.u64(*x);
        }
    }
}

/// The one `Chunk` encoder: `grid` is `[row0, col0, rows, cols]`.
fn chunk_payload<'r>(
    out: &mut Vec<u8>,
    grid: [u64; 4],
    count: usize,
    data: impl Iterator<Item = &'r [f32]>,
) {
    let mut e = Enc::new(out, RSP_CHUNK);
    for v in grid {
        e.u64(v);
    }
    e.f32_rows(count, data);
}

/// The one `EvalChunk` encoder.
fn eval_chunk_payload(out: &mut Vec<u8>, offset: u64, data: &[f64]) {
    let mut e = Enc::new(out, RSP_EVAL_CHUNK);
    e.u64(offset);
    e.f64s(data);
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtoError(format!(
                "payload truncated: wanted {n} bytes at offset {}",
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.bytes(1)?[0])
    }
    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }
    fn len(&mut self) -> Result<usize, ProtoError> {
        let n = self.u64()? as usize;
        if n > MAX_FRAME_BYTES {
            return Err(ProtoError(format!("length {n} exceeds frame cap")));
        }
        Ok(n)
    }
    fn str(&mut self) -> Result<String, ProtoError> {
        let n = self.len()?;
        String::from_utf8(self.bytes(n)?.to_vec())
            .map_err(|_| ProtoError("string is not UTF-8".into()))
    }
    fn f32s(&mut self) -> Result<Vec<f32>, ProtoError> {
        let n = self.len()?;
        let raw = self.bytes(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
    fn f64s(&mut self) -> Result<Vec<f64>, ProtoError> {
        let n = self.len()?;
        let raw = self.bytes(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
    fn u64s(&mut self) -> Result<Vec<u64>, ProtoError> {
        let n = self.len()?;
        (0..n).map(|_| self.u64()).collect()
    }
    fn done(&self) -> Result<(), ProtoError> {
        if self.pos != self.buf.len() {
            return Err(ProtoError(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

const REQ_PING: u8 = 0x01;
const REQ_READ_ALL: u8 = 0x02;
const REQ_READ_REGION: u8 = 0x03;
const REQ_EVAL: u8 = 0x04;
const REQ_METRICS: u8 = 0x05;
const REQ_SHUTDOWN: u8 = 0x06;
const REQ_HEALTH: u8 = 0x07;
const REQ_METRICS_SERIES: u8 = 0x08;

const RSP_PONG: u8 = 0x81;
const RSP_START: u8 = 0x82;
const RSP_CHUNK: u8 = 0x83;
const RSP_EVAL_START: u8 = 0x84;
const RSP_EVAL_CHUNK: u8 = 0x85;
const RSP_END: u8 = 0x86;
const RSP_METRICS_JSON: u8 = 0x87;
const RSP_SHUTTING_DOWN: u8 = 0x88;
const RSP_HEALTH: u8 = 0x89;
const RSP_SERIES_JSON: u8 = 0x8A;
const RSP_ERROR: u8 = 0x90;

impl Request {
    /// Serialize into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(REQ_PING),
            Request::ReadAll => out.push(REQ_READ_ALL),
            Request::ReadRegion { ch0, ch1, t0, t1 } => {
                let mut e = Enc::new(&mut out, REQ_READ_REGION);
                e.u64(*ch0);
                e.u64(*ch1);
                e.u64(*t0);
                e.u64(*t1);
            }
            Request::Eval { src } => {
                let mut e = Enc::new(&mut out, REQ_EVAL);
                e.str(src);
            }
            Request::Metrics => out.push(REQ_METRICS),
            Request::Shutdown => out.push(REQ_SHUTDOWN),
            Request::Health => out.push(REQ_HEALTH),
            Request::MetricsSeries => out.push(REQ_METRICS_SERIES),
        }
        out
    }

    /// Parse a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Request, ProtoError> {
        let mut d = Dec::new(payload);
        let req = match d.u8()? {
            REQ_PING => Request::Ping,
            REQ_READ_ALL => Request::ReadAll,
            REQ_READ_REGION => Request::ReadRegion {
                ch0: d.u64()?,
                ch1: d.u64()?,
                t0: d.u64()?,
                t1: d.u64()?,
            },
            REQ_EVAL => Request::Eval { src: d.str()? },
            REQ_METRICS => Request::Metrics,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_HEALTH => Request::Health,
            REQ_METRICS_SERIES => Request::MetricsSeries,
            tag => return Err(ProtoError(format!("unknown request tag {tag:#x}"))),
        };
        d.done()?;
        Ok(req)
    }
}

impl Response {
    /// Serialize into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Replace `buf` with this response as one whole frame, length
    /// prefix included.
    pub fn encode_frame(&self, buf: &mut Vec<u8>) -> io::Result<()> {
        frame_into(buf, |out| self.encode_into(out))
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong => out.push(RSP_PONG),
            Response::Start { rows, cols } => {
                let mut e = Enc::new(out, RSP_START);
                e.u64(*rows);
                e.u64(*cols);
            }
            Response::Chunk {
                row0,
                col0,
                rows,
                cols,
                data,
            } => chunk_payload(
                out,
                [*row0, *col0, *rows, *cols],
                data.len(),
                std::iter::once(&data[..]),
            ),
            Response::EvalStart { dims } => {
                let mut e = Enc::new(out, RSP_EVAL_START);
                e.u64s(dims);
            }
            Response::EvalChunk { offset, data } => eval_chunk_payload(out, *offset, data),
            Response::End { frames } => {
                let mut e = Enc::new(out, RSP_END);
                e.u64(*frames);
            }
            Response::MetricsJson { json } => {
                let mut e = Enc::new(out, RSP_METRICS_JSON);
                e.str(json);
            }
            Response::ShuttingDown => out.push(RSP_SHUTTING_DOWN),
            Response::Health { info } => {
                let mut e = Enc::new(out, RSP_HEALTH);
                e.str(&info.component);
                e.str(&info.version);
                e.u64(info.uptime_ms);
                e.u64(info.workers);
                e.u64(info.workers_busy);
                e.u64(info.queue_len);
                e.u64(info.queue_cap);
                e.u64(info.cache_resident_bytes);
                e.u64(info.cache_capacity_bytes);
                e.u64(info.requests_total);
                e.str(&info.last_error);
            }
            Response::SeriesJson { json } => {
                let mut e = Enc::new(out, RSP_SERIES_JSON);
                e.str(json);
            }
            Response::Error { kind, message } => {
                let mut e = Enc::new(out, RSP_ERROR);
                e.u8(kind.to_u8());
                e.str(message);
            }
        }
    }

    /// Parse a frame payload.
    pub fn decode(payload: &[u8]) -> Result<Response, ProtoError> {
        let mut d = Dec::new(payload);
        let rsp = match d.u8()? {
            RSP_PONG => Response::Pong,
            RSP_START => Response::Start {
                rows: d.u64()?,
                cols: d.u64()?,
            },
            RSP_CHUNK => Response::Chunk {
                row0: d.u64()?,
                col0: d.u64()?,
                rows: d.u64()?,
                cols: d.u64()?,
                data: d.f32s()?,
            },
            RSP_EVAL_START => Response::EvalStart { dims: d.u64s()? },
            RSP_EVAL_CHUNK => Response::EvalChunk {
                offset: d.u64()?,
                data: d.f64s()?,
            },
            RSP_END => Response::End { frames: d.u64()? },
            RSP_METRICS_JSON => Response::MetricsJson { json: d.str()? },
            RSP_SHUTTING_DOWN => Response::ShuttingDown,
            RSP_HEALTH => Response::Health {
                info: HealthInfo {
                    component: d.str()?,
                    version: d.str()?,
                    uptime_ms: d.u64()?,
                    workers: d.u64()?,
                    workers_busy: d.u64()?,
                    queue_len: d.u64()?,
                    queue_cap: d.u64()?,
                    cache_resident_bytes: d.u64()?,
                    cache_capacity_bytes: d.u64()?,
                    requests_total: d.u64()?,
                    last_error: d.str()?,
                },
            },
            RSP_SERIES_JSON => Response::SeriesJson { json: d.str()? },
            RSP_ERROR => Response::Error {
                kind: ErrorKind::from_u8(d.u8()?)?,
                message: d.str()?,
            },
            tag => return Err(ProtoError(format!("unknown response tag {tag:#x}"))),
        };
        d.done()?;
        Ok(rsp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt_req(r: Request) {
        let back = Request::decode(&r.encode()).unwrap();
        assert_eq!(back, r);
    }

    fn rt_rsp(r: Response) {
        let back = Response::decode(&r.encode()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn requests_round_trip() {
        rt_req(Request::Ping);
        rt_req(Request::ReadAll);
        rt_req(Request::ReadRegion {
            ch0: 2,
            ch1: 17,
            t0: 0,
            t1: u64::MAX,
        });
        rt_req(Request::Eval {
            src: "load(\"corpus\") | detrend".into(),
        });
        rt_req(Request::Metrics);
        rt_req(Request::Shutdown);
        rt_req(Request::Health);
        rt_req(Request::MetricsSeries);
    }

    #[test]
    fn health_and_series_round_trip() {
        rt_rsp(Response::Health {
            info: HealthInfo {
                component: "dassd".into(),
                version: "0.1.0".into(),
                uptime_ms: 123_456,
                workers: 4,
                workers_busy: 2,
                queue_len: 1,
                queue_cap: 8,
                cache_resident_bytes: 64 << 20,
                cache_capacity_bytes: 256 << 20,
                requests_total: 9_999,
                last_error: "busy: server at capacity".into(),
            },
        });
        rt_rsp(Response::Health {
            info: HealthInfo::default(),
        });
        rt_rsp(Response::SeriesJson {
            json: "{\"points\":0,\"capacity\":2,\"evicted\":0,\"windows\":[]}".into(),
        });
    }

    #[test]
    fn responses_round_trip() {
        rt_rsp(Response::Pong);
        rt_rsp(Response::Start {
            rows: 32,
            cols: 9000,
        });
        rt_rsp(Response::Chunk {
            row0: 4,
            col0: 3000,
            rows: 2,
            cols: 3,
            data: vec![1.0, -2.5, f32::MIN_POSITIVE, 0.0, 3.25, -0.0],
        });
        rt_rsp(Response::EvalStart {
            dims: vec![32, 9000],
        });
        rt_rsp(Response::EvalChunk {
            offset: 7,
            data: vec![0.125, -9.75, 1e300],
        });
        rt_rsp(Response::End { frames: 12 });
        rt_rsp(Response::MetricsJson {
            json: "{\"counters\":{}}".into(),
        });
        rt_rsp(Response::ShuttingDown);
        rt_rsp(Response::Error {
            kind: ErrorKind::Busy,
            message: "server at capacity".into(),
        });
    }

    #[test]
    fn frame_io_round_trips_and_detects_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[1, 2, 3]).unwrap();
        write_frame(&mut buf, &[]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), Some(vec![1, 2, 3]));
        assert_eq!(read_frame(&mut r).unwrap(), Some(vec![]));
        assert_eq!(read_frame(&mut r).unwrap(), None);

        // Mid-header EOF is an error, not a clean end.
        let mut torn = &buf[..2];
        assert!(read_frame(&mut torn).is_err());

        // Oversized length prefix is rejected before allocation.
        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());

        // ... and is never written: the error comes back, not a frame
        // the peer would drop the connection over.
        let mut sent = Vec::new();
        let e = write_frame(&mut sent, &vec![0u8; MAX_FRAME_BYTES + 1]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        assert!(sent.is_empty());
    }

    #[test]
    fn bad_payloads_are_typed_errors() {
        assert!(Request::decode(&[0xEE]).is_err());
        assert!(Request::decode(&[]).is_err());
        // Trailing garbage after a valid body is rejected.
        let mut p = Request::Ping.encode();
        p.push(0);
        assert!(Request::decode(&p).is_err());
        // String length pointing past the payload is rejected.
        let mut e = Vec::new();
        e.push(super::REQ_EVAL);
        e.extend_from_slice(&1000u64.to_le_bytes());
        e.extend_from_slice(b"short");
        assert!(Request::decode(&e).is_err());
    }
    #[test]
    fn read_head_leaves_samples_on_the_wire_and_a_lying_count_leaves_it_framed() {
        let chunk = Response::Chunk {
            row0: 1,
            col0: 2,
            rows: 2,
            cols: 3,
            data: vec![1.0, -2.5, f32::NAN, 0.0, 3.25, -0.0],
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &chunk.encode()).unwrap();
        // the same frame announcing one sample more than it carries ...
        let mut lying = chunk.encode();
        lying[33..41].copy_from_slice(&7u64.to_le_bytes());
        write_frame(&mut wire, &lying).unwrap();
        // ... and one whose tile is not its count, or overflows
        for (rows, cols) in [(3, 3), (1 << 32, 1 << 32)] {
            let rsp = Response::Chunk {
                row0: 0,
                col0: 0,
                rows,
                cols,
                data: vec![0.5; 6],
            };
            write_frame(&mut wire, &rsp.encode()).unwrap();
        }
        write_frame(&mut wire, &Response::End { frames: 1 }.encode()).unwrap();

        let mut r = &wire[..];
        let head = read_head(&mut r).unwrap().unwrap();
        assert_eq!(
            head,
            Head::Chunk {
                row0: 1,
                col0: 2,
                rows: 2,
                cols: 3
            }
        );
        let mut got = [0f32; 6];
        // a stage of one sample and a half: the smallest that works
        read_samples(&mut r, &mut [0u8; 6], &mut got, f32::from_le_bytes).unwrap();
        assert_eq!(got.map(f32::to_bits)[..2], [1.0f32, -2.5].map(f32::to_bits));
        assert!(got[2].is_nan());
        for _ in 0..3 {
            assert!(matches!(read_head(&mut r), Err(RecvError::Proto(_))));
        }
        let end = read_head(&mut r).unwrap().unwrap();
        assert_eq!(end, Head::Other(Response::End { frames: 1 }));
        assert!(read_head(&mut r).unwrap().is_none());
    }

    /// `frame` must be exactly `u32 length ‖ rsp.encode()`.
    fn assert_is_frame_of(frame: &[u8], rsp: &Response) {
        let mut want = Vec::new();
        write_frame(&mut want, &rsp.encode()).unwrap();
        assert!(frame == want, "frame differs from the owned encoding");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The borrowed-row writer and the owned encoder are one
        /// encoder: any sub-selection of any tile, gathered from row
        /// slices into a reused buffer, is byte for byte the frame of
        /// the owned `Chunk` — NaN payloads and all.
        #[test]
        fn chunk_frame_equals_the_owned_encoding(
            tile_rows in 1usize..7,
            tile_cols in 1usize..40,
            pick in proptest::prelude::any::<u64>(),
            at in (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()),
            bits in proptest::collection::vec(proptest::prelude::any::<u32>(), 7 * 40),
        ) {
            let tile: Vec<f32> = bits[..tile_rows * tile_cols]
                .iter()
                // every fourth sample a NaN with the drawn payload bits
                .map(|&b| f32::from_bits(if b % 4 == 0 { b | 0x7FC0_0000 } else { b }))
                .collect();
            let r0 = pick as usize % tile_rows;
            let nr = 1 + (pick >> 8) as usize % (tile_rows - r0);
            let c0 = (pick >> 16) as usize % tile_cols;
            let nc = 1 + (pick >> 24) as usize % (tile_cols - c0);
            let rows = tile[r0 * tile_cols..(r0 + nr) * tile_cols]
                .chunks_exact(tile_cols)
                .map(|row| &row[c0..c0 + nc]);
            let owned = Response::Chunk {
                row0: at.0,
                col0: at.1,
                rows: nr as u64,
                cols: nc as u64,
                data: rows.clone().flatten().copied().collect(),
            };
            // a dirty, longer buffer: nothing of the last frame survives
            let mut buf = vec![0xAA; 4096];
            chunk_frame(&mut buf, at.0, at.1, nr, nc, rows).unwrap();
            assert_is_frame_of(&buf, &owned);
        }

        #[test]
        fn eval_chunk_frame_equals_the_owned_encoding(
            offset in proptest::prelude::any::<u64>(),
            bits in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..200),
        ) {
            let data: Vec<f64> = bits
                .iter()
                .map(|&b| f64::from_bits(if b % 4 == 0 { b | 0x7FF8_0000_0000_0000 } else { b }))
                .collect();
            let mut buf = vec![0xAA; 4096];
            eval_chunk_frame(&mut buf, offset, &data).unwrap();
            assert_is_frame_of(&buf, &Response::EvalChunk { offset, data });
        }
    }
}
