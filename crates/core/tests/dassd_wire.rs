//! What `dassd` puts on the socket, byte for byte. The server builds
//! its sample frames from borrowed cache rows; these tests capture the
//! raw stream and compare it with the stream the *owned* encoder
//! (`Response::encode`) produces from a serial [`IoExecutor`] read —
//! which shares neither the cache nor the frame writer with the server
//! — and hold every frame to the documented [`MAX_DATA_ELEMS`] bound.

use arrayudf::Array2;
use dassa::dassd::protocol::{read_frame, write_frame, MAX_DATA_ELEMS};
use dassa::dassd::{Client, Request, Response, Server, ServerConfig};
use dassa::prelude::*;
use std::io::Read;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// `files` members of `channels × samples` deterministic, compressible
/// samples (a few NaNs among them) stored through `codec`.
fn build_corpus(files: u64, channels: u64, samples: u64, codec: dasf::Codec) -> PathBuf {
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dassa-dassd-wire-{}-{id}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("dir");
    let t0 = Timestamp::parse("170728224510").expect("ts");
    for f in 0..files {
        let ts = t0.add_minutes(f);
        let data = Array2::from_fn(channels as usize, samples as usize, |r, c| {
            match (f as usize * 31 + r * 7 + c) % 1009 {
                0 => f32::NAN,
                v => (v / 4) as f32 * 0.25 - r as f32,
            }
        });
        let meta = DasFileMeta {
            sampling_hz: (samples / 60).max(1) as i64,
            spatial_resolution_m: 2.0,
            timestamp: ts,
            channels,
            samples,
        };
        write_das_file_with_codec(&dir.join(das_file_name(&ts)), &meta, &data, None, codec)
            .expect("write");
    }
    dir
}

/// Copies everything read through it.
struct Tee {
    inner: TcpStream,
    seen: Vec<u8>,
}

impl Read for Tee {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.seen.extend_from_slice(&buf[..n]);
        Ok(n)
    }
}

/// Send `req` on a fresh connection; return every byte the server
/// answered with up to and including the `End` frame, and the decoded
/// frames.
fn capture(addr: std::net::SocketAddr, req: &Request) -> (Vec<u8>, Vec<Response>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, &req.encode()).expect("request");
    let mut tee = Tee {
        inner: stream,
        seen: Vec::new(),
    };
    let mut frames = Vec::new();
    loop {
        let payload = read_frame(&mut tee)
            .expect("frame")
            .expect("stream ended early");
        let rsp = Response::decode(&payload).expect("decode");
        let last = matches!(rsp, Response::End { .. } | Response::Error { .. });
        frames.push(rsp);
        if last {
            return (tee.seen, frames);
        }
    }
}

/// The response stream for `plan` as the owned encoder writes it from
/// `block`: per member op, bands of whole rows of at most
/// `MAX_DATA_ELEMS` samples.
fn owned_stream(plan: &IoPlan, block: &Array2<f32>) -> Vec<u8> {
    let mut frames = vec![Response::Start {
        rows: plan.rows as u64,
        cols: plan.cols as u64,
    }];
    for op in &plan.ops {
        assert!(op.cols <= MAX_DATA_ELEMS, "owned_stream tiles by row only");
        let band = MAX_DATA_ELEMS / op.cols;
        for r in (0..op.rows).step_by(band) {
            let n = band.min(op.rows - r);
            frames.push(Response::Chunk {
                row0: r as u64,
                col0: op.t0 as u64,
                rows: n as u64,
                cols: op.cols as u64,
                data: (r..r + n)
                    .flat_map(|row| &block.row(row)[op.t0..op.t0 + op.cols])
                    .copied()
                    .collect(),
            });
        }
    }
    let data_frames = frames.len() as u64 - 1;
    frames.push(Response::End {
        frames: data_frames,
    });
    let mut wire = Vec::new();
    for f in &frames {
        write_frame(&mut wire, &f.encode()).expect("encode");
    }
    wire
}

/// A `ReadRegion` that straddles a file boundary and a `ReadAll` whose
/// members (40 ch × 30 000) each need two frames, over a `raw` and a
/// `shuffle-lz` corpus, cold and then from the cache.
#[test]
fn served_bytes_equal_the_owned_encoding_of_the_serial_read() {
    let (files, channels, samples) = (2u64, 40u64, 30_000u64);
    for codec in [dasf::Codec::Raw, dasf::Codec::ShuffleLz] {
        let dir = build_corpus(files, channels, samples, codec);
        let cat = FileCatalog::scan(&dir).expect("scan");
        let vca = Vca::from_entries(cat.entries()).expect("vca");
        let server = Server::start(&dir, ServerConfig::default()).expect("server");

        let (ch, t) = (3..29u64, samples - 1_234..samples + 4_321);
        let region = IoPlan::for_region(&vca, ch.clone(), t.clone()).expect("plan");
        assert_eq!(region.ops.len(), 2, "the region must straddle a boundary");
        let all = IoPlan::for_region(&vca, 0..channels, 0..files * samples).expect("plan");
        let requests = [
            (
                Request::ReadRegion {
                    ch0: ch.start,
                    ch1: ch.end,
                    t0: t.start,
                    t1: t.end,
                },
                region,
            ),
            (Request::ReadAll, all),
        ];
        for (req, plan) in &requests {
            let (block, _) = IoExecutor::serial().run(plan).expect("serial");
            let want = owned_stream(plan, &block);
            for pass in ["cold", "cached"] {
                let (got, _) = capture(server.addr(), req);
                assert!(
                    got == want,
                    "{codec:?} {req:?} ({pass}): {} bytes served, {} expected",
                    got.len(),
                    want.len()
                );
            }
        }
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A member wider than `MAX_DATA_ELEMS` samples per row used to go out
/// as one frame past the documented bound (and, wide enough, past
/// `MAX_FRAME_BYTES`, which costs the connection). It is tiled by
/// column now: every frame holds the bound, and the answer is the
/// serial executor's.
#[test]
fn a_row_wider_than_a_frame_is_served_in_pieces() {
    let samples = MAX_DATA_ELEMS as u64 + 7;
    let dir = build_corpus(1, 1, samples, dasf::Codec::Raw);
    let cat = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(cat.entries()).expect("vca");
    let server = Server::start(&dir, ServerConfig::default()).expect("server");
    let mut client = Client::connect(server.addr()).expect("connect");

    let requests = [
        (Request::ReadAll, 0..samples),
        (
            Request::ReadRegion {
                ch0: 0,
                ch1: 1,
                t0: 3,
                t1: samples - 1,
            },
            3..samples - 1,
        ),
    ];
    for (req, t) in requests {
        let plan = IoPlan::for_region(&vca, 0..1, t.clone()).expect("plan");
        let (serial, _) = IoExecutor::serial().run(&plan).expect("serial");

        let (_, frames) = capture(server.addr(), &req);
        let mut sizes = Vec::new();
        for f in &frames {
            if let Response::Chunk { data, .. } = f {
                sizes.push(data.len());
            }
        }
        assert!(
            sizes.iter().all(|&n| n <= MAX_DATA_ELEMS),
            "{req:?}: frames of {sizes:?} samples, bound is {MAX_DATA_ELEMS}"
        );
        assert_eq!(sizes.iter().sum::<usize>(), serial.len());
        assert_eq!(
            frames.last(),
            Some(&Response::End {
                frames: sizes.len() as u64
            })
        );

        let got = match req {
            Request::ReadAll => client.read_all(),
            _ => client.read_region(0..1, t),
        }
        .expect("read");
        let bits = |a: &Array2<f32>| a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert!(bits(&got) == bits(&serial), "{req:?} drifted from serial");
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
