//! Client-hammering tests for `dassd`: many concurrent connections
//! issuing overlapping windowed reads must each get bytes identical to
//! a serial [`IoExecutor`] read of the same region, while the shared
//! chunk cache takes hits and never grows past its capacity; overload
//! must produce typed `Busy` rejections, not queue growth; and a
//! request-level failure — a bad program, rows too short to filter, a
//! member file whose table lies about its units — must not take the
//! connection or its worker down.

use arrayudf::Array2;
use dassa::dassd::{Client, ClientError, Server, ServerConfig};
use dassa::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// Build a corpus with per-file deterministic contents; returns
/// `(dir, full expected array)`. Same construction as
/// `plan_equivalence.rs` so goldens are assembled independently of
/// every read path under test.
fn build_dataset(files: usize, channels: u64, samples: u64, seed: u64) -> (PathBuf, Array2<f32>) {
    let id = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dassa-dassd-stress-{id}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("dir");
    let t0 = Timestamp::parse("170728224510").expect("ts");
    let mut per_file: Vec<Array2<f32>> = Vec::new();
    for f in 0..files {
        let ts = t0.add_minutes(f as u64);
        let data = Array2::from_fn(channels as usize, samples as usize, |r, c| {
            let mut z = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(
                ((f * 1_000_003 + r * 1_009 + c) as u64).wrapping_mul(0xBF58476D1CE4E5B9),
            );
            z ^= z >> 31;
            (z % 100_000) as f32 / 100.0
        });
        let meta = DasFileMeta {
            sampling_hz: (samples / 60).max(1) as i64,
            spatial_resolution_m: 2.0,
            timestamp: ts,
            channels,
            samples,
        };
        write_das_file(&dir.join(das_file_name(&ts)), &meta, &data).expect("write");
        per_file.push(data);
    }
    let total = (samples as usize) * files;
    let expected = Array2::from_fn(channels as usize, total, |r, c| {
        per_file[c / samples as usize].get(r, c % samples as usize)
    });
    (dir, expected)
}

const FILES: usize = 6;
const CHANNELS: u64 = 8;
const SAMPLES: u64 = 1200;

/// ≥8 client threads, each issuing several overlapping windowed
/// queries over one shared server. Every response is compared against
/// a serial `IoExecutor` read of the same region (and the
/// independently assembled golden array); afterwards the metrics must
/// show cache hits and a resident high-water mark within capacity.
#[test]
fn eight_clients_overlapping_windows_byte_identical() {
    let (dir, expected) = build_dataset(FILES, CHANNELS, SAMPLES, 0xC0FFEE);
    // Capacity fits ~3 of 6 member files, so the run both hits (the
    // windows overlap) and evicts (the working set does not fit).
    let file_bytes = CHANNELS * SAMPLES * 4;
    let capacity = file_bytes * 3 + file_bytes / 2;
    let server = Server::start(
        &dir,
        ServerConfig {
            workers: 8,
            queue_depth: 64,
            cache_bytes: capacity,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let addr = server.addr();
    let total = SAMPLES * FILES as u64;

    let threads: Vec<_> = (0..8)
        .map(|tid| {
            let expected = expected.clone();
            let dir = dir.clone();
            std::thread::spawn(move || {
                let cat = FileCatalog::scan(&dir).expect("scan");
                let vca = Vca::from_entries(cat.entries()).expect("vca");
                let mut client = Client::connect(addr).expect("connect");
                for q in 0..6u64 {
                    // Overlapping by construction: windows from
                    // different threads and rounds share member files.
                    let t0 = ((tid as u64 * 997 + q * 641) % (total - SAMPLES)).min(total - 2);
                    let t1 = (t0 + SAMPLES + q * 13).min(total);
                    let ch0 = (tid as u64) % (CHANNELS - 1);
                    let ch1 = (ch0 + 2 + q % 3).min(CHANNELS);
                    let got = client.read_region(ch0..ch1, t0..t1).expect("windowed read");
                    let plan = IoPlan::for_region(&vca, ch0..ch1, t0..t1).expect("plan");
                    let (serial, _) = IoExecutor::serial().run(&plan).expect("serial");
                    assert_eq!(got, serial, "thread {tid} query {q} drifted from serial");
                    let golden =
                        Array2::from_fn((ch1 - ch0) as usize, (t1 - t0) as usize, |r, c| {
                            expected.get(ch0 as usize + r, t0 as usize + c)
                        });
                    assert_eq!(got, golden, "thread {tid} query {q} drifted from golden");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    let mut client = Client::connect(addr).expect("metrics conn");
    let snap = obs::Snapshot::from_json(&client.metrics_json().expect("metrics")).expect("parse");
    drop(client);
    let snap2 = server.stop();

    assert!(
        snap.counter("cache.hit") > 0,
        "overlapping windows must hit the cache: {snap:?}"
    );
    // The capacity bound holds at every insert: the resident-bytes
    // histogram's max is the high-water mark.
    let resident = snap
        .histogram("cache.resident_bytes")
        .expect("resident histogram");
    assert!(resident.count > 0, "cache must have admitted entries");
    assert!(
        resident.max <= capacity,
        "resident high-water {} exceeds capacity {capacity}",
        resident.max
    );
    assert!(snap.gauge("cache.bytes") <= capacity);
    assert_eq!(
        snap.counter("cache.hit") + snap.counter("cache.miss"),
        snap2.counter("cache.hit") + snap2.counter("cache.miss"),
        "no traffic between metrics fetch and stop"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Admission control: with one worker and a zero-depth queue, a third
/// concurrent connection is rejected with a typed `Busy` — and once
/// the occupying client leaves, new connections are served again.
#[test]
fn overload_rejects_busy_then_recovers() {
    let (dir, _) = build_dataset(2, 4, 120, 7);
    let server = Server::start(
        &dir,
        ServerConfig {
            workers: 1,
            queue_depth: 0,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let addr = server.addr();

    // A occupies the single worker (its connection stays open after
    // the ping; the worker blocks reading A's next frame).
    let mut a = Client::connect(addr).expect("connect A");
    a.ping().expect("ping A");
    // B fills the one queue slot.
    let b = Client::connect(addr).expect("connect B");
    // Give the acceptor a moment to enqueue B before C arrives.
    std::thread::sleep(std::time::Duration::from_millis(100));
    // C is over capacity: typed rejection, not a hang.
    let mut c = Client::connect(addr).expect("connect C");
    match c.ping() {
        Err(ClientError::Busy) => {}
        other => panic!("expected Busy, got {other:?}"),
    }

    // A leaves; the worker picks up B and serves it.
    drop(a);
    let mut b = {
        let mut b = b;
        b.ping().expect("B served after A departs");
        b
    };
    b.ping().expect("B still served");

    let snap = server.stop();
    assert!(
        snap.counter("dassd.busy") >= 1,
        "rejection must be counted: {snap:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Request-level failures leave the connection serving: a compile
/// error returns the rendered caret diagnostic, a bad selection
/// returns a typed error, and the same connection then completes a
/// valid eval whose result matches local execution.
#[test]
fn errors_are_typed_and_connection_survives() {
    let (dir, _) = build_dataset(3, 6, 600, 21);
    let server = Server::start(&dir, ServerConfig::default()).expect("server");
    let mut client = Client::connect(server.addr()).expect("connect");

    match client.eval("load(\"corpus\") | detrnd") {
        Err(ClientError::Compile(diag)) => {
            assert!(diag.contains('^'), "caret diagnostic expected: {diag}");
            assert!(diag.contains("detrend"), "did-you-mean expected: {diag}");
        }
        other => panic!("expected Compile, got {other:?}"),
    }

    match client.read_region(0..100, 0..10) {
        Err(ClientError::Server { .. }) => {}
        other => panic!("expected typed server error, got {other:?}"),
    }

    // Same connection still works, and the server-side program matches
    // a local run of the same source.
    let src = "load(\"corpus\") | detrend | xcorr(master=ch[0])";
    let (dims, flat) = client.eval(src).expect("valid eval");
    let cat = FileCatalog::scan(&dir).expect("scan");
    let vca = Vca::from_entries(cat.entries()).expect("vca");
    let block = vca.read_all_f32().expect("read");
    let program = dasl::compile(src).expect("compile");
    let haee = Haee::builder().threads(1).build();
    let local = dasa::run(&program.bind(vca.sampling_hz() as f64), &block, &haee).expect("run");
    let (ldims, lflat) = local.to_dataset();
    assert_eq!(dims, ldims);
    assert_eq!(
        flat, lflat,
        "served eval must match local execution bit-for-bit"
    );

    let snap = server.stop();
    assert!(snap.counter("dassd.errors") >= 2);
    assert_eq!(snap.counter("dassd.eval.requests"), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A program whose rows are too short for its `bandpass` (or whose
/// `stack` window is too short for the stacking filter) used to panic
/// the pool worker inside `filtfilt`. It must come back as a typed
/// `bad_request` on the same connection, and every worker must still
/// serve afterwards.
#[test]
fn unfilterable_rows_are_a_typed_error_and_every_worker_survives() {
    // 1200 samples a minute = 20 Hz: one second is 20 samples, fewer
    // than the 24 an order-4 bandpass reflects onto each end.
    let (dir, expected) = build_dataset(2, 4, SAMPLES, 33);
    let server = Server::start(
        &dir,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    // one connection per worker, both held open while they fail
    let mut clients: Vec<Client> = (0..2)
        .map(|_| Client::connect(server.addr()).expect("connect"))
        .collect();
    let hostile = [
        "load(\"corpus\", t=0..1) | bandpass(1, 4)",
        "load(\"corpus\") | stack(window=8, hop=8)",
    ];
    for client in &mut clients {
        for src in hostile {
            match client.eval(src) {
                Err(ClientError::Server { kind, message }) => {
                    assert_eq!(kind, dassa::dassd::ErrorKind::BadRequest, "{message}");
                    assert!(message.contains("24"), "{message}");
                }
                other => panic!("expected a typed bad_request for `{src}`, got {other:?}"),
            }
        }
    }
    let golden = Array2::from_fn(2, 100, |r, c| expected.get(1 + r, 50 + c));
    for client in &mut clients {
        assert_eq!(client.read_region(1..3, 50..150).expect("read"), golden);
    }
    // …and once those two hang up, two new connections, open at the
    // same time, each find a worker
    drop(clients);
    let mut late: Vec<Client> = (0..2)
        .map(|_| Client::connect(server.addr()).expect("connect"))
        .collect();
    for client in &mut late {
        assert_eq!(client.read_region(1..3, 50..150).expect("read"), golden);
    }
    drop(late);
    let snap = server.stop();
    assert_eq!(snap.counter("dassd.errors"), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One `Eval` line could take the daemon down: `resample(1000000007)`
/// asked `design_fir` for 20 taps per unit of the factor — a 160 GB
/// allocation, `handle_alloc_error`, the whole process aborted — and
/// `bandpass(.., order=2048)` panicked the pool worker in the filter's
/// linear solve after half a second of design work. Both are bounded
/// where the program is checked, so each is a typed `compile` error with
/// its diagnostic on the same connection, and every worker still serves.
#[test]
fn oversized_kernel_arguments_are_a_typed_error_and_every_worker_survives() {
    let (dir, expected) = build_dataset(2, 4, SAMPLES, 35);
    let server = Server::start(
        &dir,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    // one connection per worker, both held open while they fail
    let mut clients: Vec<Client> = (0..2)
        .map(|_| Client::connect(server.addr()).expect("connect"))
        .collect();
    let hostile = [
        (
            "load(\"corpus\") | detrend | resample(1000000007) | xcorr(master=ch[0])",
            "limit of 4096",
        ),
        (
            "load(\"corpus\") | detrend | bandpass(0.5, 4, order=2048) | xcorr(master=ch[0])",
            "limit of 8",
        ),
    ];
    for client in &mut clients {
        for (src, limit) in hostile {
            match client.eval(src) {
                // the server's `compile` error frame, diagnostic and all
                Err(ClientError::Compile(diagnostic)) => {
                    assert!(
                        diagnostic.contains(limit) && diagnostic.contains('^'),
                        "{diagnostic}"
                    );
                }
                other => panic!("expected a typed compile error for `{src}`, got {other:?}"),
            }
        }
    }
    let golden = Array2::from_fn(2, 100, |r, c| expected.get(1 + r, 50 + c));
    for client in &mut clients {
        assert_eq!(client.read_region(1..3, 50..150).expect("read"), golden);
    }
    // …and once those two hang up, two new connections, open at the
    // same time, each find a worker
    drop(clients);
    let mut late: Vec<Client> = (0..2)
        .map(|_| Client::connect(server.addr()).expect("connect"))
        .collect();
    for client in &mut late {
        assert_eq!(client.read_region(1..3, 50..150).expect("read"), golden);
    }
    drop(late);
    let snap = server.stop();
    assert_eq!(snap.counter("dassd.errors"), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 256-stage program used to panic the worker that decoded it (a
/// byte-sized kernel count wrapped), and two such `Eval`s stopped a
/// two-worker server for good: the next `ping` hung. A program is its
/// typed plan now, with no byte-sized count in it, so each `Eval` of
/// the long chain returns what its one-stage program does, and the
/// server still answers. Bounded by a timeout, since the failure was a
/// hang.
#[test]
fn long_programs_run_and_every_worker_survives() {
    let (dir, _) = build_dataset(2, 4, SAMPLES, 37);
    let server = Server::start(
        &dir,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let addr = server.addr();
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let bits = |(dims, values): (Vec<u64>, Vec<f64>)| {
            (dims, values.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        let eval = |src: &str| {
            let mut client = Client::connect(addr).expect("connect");
            bits(client.eval(src).unwrap_or_else(|e| panic!("{e:?}")))
        };
        let want = eval("load(\"corpus\") | onebit | xcorr(master=ch[0])");
        let long = format!(
            "load(\"corpus\"){} | xcorr(master=ch[0])",
            " | onebit".repeat(256)
        );
        // one connection each, so every worker sees the long program
        for _ in 0..3 {
            assert_eq!(eval(&long), want);
        }
        Client::connect(addr)
            .expect("connect")
            .ping()
            .expect("ping");
        done.send(()).expect("report");
    });
    assert!(
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .is_ok(),
        "a long program failed or the server stopped answering"
    );
    let snap = server.stop();
    assert_eq!(snap.counter("dassd.errors"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A member whose object table carries valid CRCs and a unit header
/// that contradicts the dataset's geometry (one raw unit of 100 bytes
/// for a 19 200-byte payload) opens and scrubs clean at the parent of
/// this test, and then `ReadRegion` panicked the pool worker inside the
/// element decoder. It must be a typed `corrupt` on the same
/// connection, for every worker, and every worker must still serve the
/// sound members afterwards.
#[test]
fn hostile_unit_header_is_a_typed_error_and_every_worker_survives() {
    let (dir, expected) = build_dataset(3, 4, SAMPLES, 77);
    let mut members: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("dir")
        .map(|e| e.expect("entry").path())
        .collect();
    members.sort();
    // Rewrite member 1's table, recomputing the table and commit-record
    // CRCs so the file opens.
    let mut bytes = std::fs::read(&members[1]).expect("read member");
    let footer = bytes.len() - 32;
    let t_off = u64::from_le_bytes(bytes[footer..footer + 8].try_into().unwrap()) as usize;
    let mut table =
        dasf::ObjectTable::decode(&bytes[t_off..footer], dasf::Version::V4).expect("table");
    let d = table.dataset_mut(DATASET_PATH).expect("dataset");
    let at = d.data_offset as usize;
    d.stored_units = vec![dasf::UnitHeader {
        codec: dasf::Codec::Raw,
        raw_len: 100,
        stored_len: 100,
    }];
    d.checksums = vec![dasf::crc::crc32c(&bytes[at..at + 100])];
    let table = table.encode();
    bytes.truncate(t_off);
    bytes.extend_from_slice(&table);
    let mut record = (t_off as u64).to_le_bytes().to_vec();
    record.extend_from_slice(&(table.len() as u64).to_le_bytes());
    record.extend_from_slice(&dasf::crc::crc32c(&table).to_le_bytes());
    let covered = [&b"DASF0004"[..], &record[..8], &record[..20]].concat();
    record.extend_from_slice(&dasf::crc::crc32c(&covered).to_le_bytes());
    record.extend_from_slice(b"DASF4END");
    bytes.extend_from_slice(&record);
    std::fs::write(&members[1], bytes).expect("write member");
    dasf::File::open(&members[1]).expect("valid CRCs: the hostile member opens");

    let server = Server::start(
        &dir,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    // one connection per worker, both held open while they fail
    let mut clients: Vec<Client> = (0..2)
        .map(|_| Client::connect(server.addr()).expect("connect"))
        .collect();
    let golden = Array2::from_fn(2, 100, |r, c| expected.get(1 + r, 50 + c));
    for client in &mut clients {
        // member 1 covers samples 1200..2400
        match client.read_region(0..4, 1000..1500) {
            Err(ClientError::Server { kind, message }) => {
                assert_eq!(kind, dassa::dassd::ErrorKind::Corrupt, "{message}");
                assert!(message.contains("unit 0"), "{message}");
            }
            other => panic!("expected a typed corrupt error, got {other:?}"),
        }
        assert_eq!(client.read_region(1..3, 50..150).expect("read"), golden);
    }
    // …and once those two hang up, two new connections, open at the
    // same time, each find a worker
    drop(clients);
    let mut late: Vec<Client> = (0..2)
        .map(|_| Client::connect(server.addr()).expect("connect"))
        .collect();
    for client in &mut late {
        assert_eq!(client.read_region(1..3, 50..150).expect("read"), golden);
    }
    drop(late);
    let snap = server.stop();
    assert_eq!(snap.counter("dassd.errors"), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Server::stop()` on a helper thread must return within a second
/// while a peer sits on the first `sent` bytes of a frame: the worker
/// serving it observes the shutdown at its next poll tick instead of
/// waiting out the peer's lifetime.
fn stop_returns_while_a_peer_stalls(sent: &[u8]) {
    use dassa::dassd::protocol::{read_frame, write_frame};
    use std::io::Write;
    let (dir, _) = build_dataset(1, 2, 120, 3);
    let server = Server::start(&dir, ServerConfig::default()).expect("server");
    let mut peer = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &dassa::dassd::Request::Ping.encode()).expect("frame");
    bytes.extend_from_slice(sent);
    peer.write_all(&bytes).expect("send");
    // The pong shows a worker holds the connection; the stalled frame
    // is next.
    read_frame(&mut peer).expect("pong");
    let (done, stopped) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.stop();
        done.send(()).expect("report");
    });
    assert!(
        stopped
            .recv_timeout(std::time::Duration::from_secs(1))
            .is_ok(),
        "Server::stop blocked behind a peer holding {} byte(s)",
        sent.len()
    );
    drop(peer);
    let _ = std::fs::remove_dir_all(&dir);
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

/// A member replaced by a narrower file after the server scanned the
/// corpus panicked the worker slicing the cached tile, and the pool
/// lost that thread. With one worker: the read is a typed error, the
/// same connection still answers, and a new connection is served.
#[test]
fn narrower_replacement_member_is_a_typed_error_and_the_worker_survives() {
    let (dir, expected) = build_dataset(3, 4, SAMPLES, 91);
    let server = Server::start(
        &dir,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    // Member 1 (samples 1200..2400) becomes 2 channels x 600 samples.
    let ts = Timestamp::parse("170728224510").expect("ts").add_minutes(1);
    let meta = DasFileMeta {
        sampling_hz: 20,
        spatial_resolution_m: 2.0,
        timestamp: ts,
        channels: 2,
        samples: 600,
    };
    let narrow = Array2::from_fn(2, 600, |r, c| (r * 600 + c) as f32);
    write_das_file(&dir.join(das_file_name(&ts)), &meta, &narrow).expect("replace member");

    let mut client = Client::connect(server.addr()).expect("connect");
    match client.read_region(0..4, 1000..1500) {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, dassa::dassd::ErrorKind::BadRequest, "{message}");
            assert!(message.contains("inconsistent"), "{message}");
        }
        other => panic!("expected a typed error, got {other:?}"),
    }
    client.ping().expect("same connection still answers");
    drop(client);

    let mut late = Client::connect(server.addr()).expect("connect");
    let golden = Array2::from_fn(2, 100, |r, c| expected.get(1 + r, 50 + c));
    assert_eq!(late.read_region(1..3, 50..150).expect("read"), golden);
    drop(late);
    let snap = server.stop();
    assert_eq!(snap.counter("dassd.errors"), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
