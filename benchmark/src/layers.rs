//! The per-layer metrics of the traced run.
//!
//! Every number here is measured from outside the product: a span
//! around a call into a layer's public function at a fixed shape, or a
//! before/after difference of an `obs` counter the layer already keeps.
//! The shapes do not depend on the workload the run was started for, so
//! a layer metric means the same thing in every traced run.

use crate::harness::{run_for, Args, Cx, Metric};
use crate::stats;
use crate::trace::Tracer;
use crate::util::Rng;
use crate::workloads::batch_compute::{DETECT_DAS, INTERFEROMETRY_DAS};
use crate::workloads::{
    generate, ingest_stream, lz, meta_for, render_minute, serve_query, slab, widen, Workload, HZ,
    SPM,
};
use arrayudf::{Ghost, Stencil, Stride};
use dassa::dassd::protocol::Response;
use dassa::prelude::*;
use std::path::Path;
use std::time::Instant;

/// What the suite hands back to the harness.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// Channels of the suite's own corpus; one-minute files as everywhere.
const CHANNELS: u64 = 16;
const FILES: u64 = 4;
/// Samples per row the `dsp` kernels are timed on.
const ROW: usize = 10_000;
const FFT_N: usize = 16_384;

struct Suite<'a> {
    tr: &'a Tracer,
    /// Seconds a single measurement may repeat for.
    box_s: f64,
    metrics: Vec<Metric>,
}

impl Suite<'_> {
    /// Repeat `f` inside spans called `name` until the time box is
    /// used up (three times at least); the median span, in ms.
    fn time<R>(&self, name: &'static str, mut f: impl FnMut() -> R) -> f64 {
        let t0 = Instant::now();
        let mut n = 0;
        while n < 3 || (t0.elapsed().as_secs_f64() < self.box_s && n < 5_000) {
            std::hint::black_box(self.tr.span(name, &mut f));
            n += 1;
        }
        stats::median(&self.tr.durations_ms(name))
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Time `f` in spans named after the metric and record the median
    /// in ms. Every timing helper returns that median, in ms.
    fn ms<R>(&mut self, name: &'static str, f: impl FnMut() -> R) -> f64 {
        let ms = self.time(name, f);
        self.put(name, ms, "ms");
        ms
    }

    fn us<R>(&mut self, name: &'static str, f: impl FnMut() -> R) -> f64 {
        let ms = self.time(name, f);
        self.put(name, ms * 1e3, "us");
        ms
    }

    /// `bytes` moved by one call of `f`, as MB/s.
    fn mbps<R>(&mut self, name: &'static str, bytes: u64, f: impl FnMut() -> R) -> f64 {
        let ms = self.time(name, f);
        self.put_mbps(name, bytes, ms);
        ms
    }

    /// `bytes` moved in `ms`, as MB/s.
    fn put_mbps(&mut self, name: &'static str, bytes: u64, ms: f64) {
        self.put(name, bytes as f64 / 1e6 / (ms / 1e3), "MB/s");
    }
}

fn counter(name: &str) -> u64 {
    obs::global().counter(name).get()
}

fn hist_sum(name: &str) -> u64 {
    obs::global().histogram(name).sum()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The 99th percentile by nearest rank (the maximum under 100 samples).
fn p99(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n => s[((n * 99).div_ceil(100)).clamp(1, n) - 1],
    }
}

/// Algorithm 2's stencil shape — a centre window against `2L+1` lagged
/// windows on both neighbours — through the sequential `apply`.
fn localsim_shaped(s: &Stencil<f64>) -> f64 {
    let (m, l_half) = (25isize, 10isize);
    let w = s.window(-m, m, 0);
    let (mut up, mut down) = (0.0f64, 0.0f64);
    for l in -l_half..=l_half {
        up = up.max(dsp::abscorr(&w, &s.window(l - m, l + m, 1)));
        down = down.max(dsp::abscorr(&w, &s.window(l - m, l + m, -1)));
    }
    0.5 * (up + down)
}

pub fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let tr = Tracer::new(true);
    let mut s = Suite {
        tr: &tr,
        box_s: args.seconds / 150.0,
        metrics: Vec::new(),
    };
    let mut report = Report {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    let err = |e: dassa::DassaError| e.to_string();
    let derr = |e: dasf::DasfError| e.to_string();

    // ---------------------------------------------------------------- dsp
    let mut rng = Rng::new(args.seed);
    let mut noise = |n: usize| -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.05).sin() + rng.below(2001) as f64 / 1000.0 - 1.0)
            .collect()
    };
    let (x, y, x_fft) = (noise(ROW), noise(ROW), noise(FFT_N));
    let row_bytes = (ROW * 8) as u64;
    let (b, a) = dsp::butter(4, dsp::FilterBand::Bandpass(0.002, 0.096));
    s.us("dsp.fft_us", || dsp::fft_real(&x_fft));
    s.mbps("dsp.detrend_mbps", row_bytes, || dsp::detrend(&x));
    s.mbps("dsp.filtfilt_mbps", row_bytes, || dsp::filtfilt(&b, &a, &x));
    s.mbps("dsp.resample_mbps", row_bytes, || dsp::resample(&x, 1, 2));
    s.us("dsp.xcorr_fft_us", || {
        dsp::xcorr_fft(&x, &y, dsp::CorrMode::Full)
    });

    // ------------------------------------------------- the suite's corpus
    let raw = generate(
        &dir.join("raw"),
        args.seed,
        CHANNELS,
        FILES,
        dasf::Codec::Raw,
        |_, _| Ok(()),
    )?;
    let packed = generate(&dir.join("lz"), args.seed, CHANNELS, FILES, lz(), |_, _| {
        Ok(())
    })?;
    let minute = render_minute(args.seed, CHANNELS, HZ, 0);
    let minute_bytes = CHANNELS * SPM * 4;

    // --------------------------------------------------------------- dasf
    let pool0 = (counter("pool.hit"), counter("pool.miss"));
    let mb4 = vec![0xA5u8; 4 << 20];
    s.mbps("dasf.crc32c_mbps", mb4.len() as u64, || {
        dasf::crc::crc32c(&mb4)
    });
    s.us("dasf.open_us", || {
        dasf::File::open(&packed.paths[0]).map(drop)
    });

    let mut buf: Vec<f32> = Vec::new();
    let f_raw = dasf::File::open(&raw.paths[0]).map_err(derr)?;
    let f_lz = dasf::File::open(&packed.paths[0]).map_err(derr)?;
    let raw_ms = s.mbps("dasf.read_raw_mbps", minute_bytes, || {
        f_raw.read_into(DATASET_PATH, &mut buf).map(drop)
    });
    let (verify0, read0) = (hist_sum("dasf.verify.ns"), hist_sum("dasf.read.ns"));
    let lz_ms = s.mbps("dasf.read_lz_mbps", minute_bytes, || {
        f_lz.read_into(DATASET_PATH, &mut buf).map(drop)
    });
    s.put(
        "dasf.verify_share",
        ratio(
            hist_sum("dasf.verify.ns") - verify0,
            hist_sum("dasf.read.ns") - read0,
        ),
        "ratio",
    );
    // derived: what reading the compressed twin costs beyond the raw one
    s.put_mbps("dasf.decode_mbps", minute_bytes, (lz_ms - raw_ms).max(1e-6));
    let selection = [(4u64, 8u64), (10_000u64, 5_000u64)];
    s.us("dasf.hyperslab_us", || {
        f_lz.read_hyperslab_into(DATASET_PATH, &selection, &mut buf)
            .map(drop)
    });
    let stored = f_lz.dataset(DATASET_PATH).map_err(derr)?.stored_byte_len();
    s.mbps("dasf.verify_all_mbps", stored, || {
        f_lz.verify_all().map(drop)
    });

    let meta = meta_for(0, CHANNELS, HZ)?;
    let scratch_file = dir.join("written.dasf");
    for (metric, codec) in [
        ("dasf.write_raw_mbps", dasf::Codec::Raw),
        ("dasf.write_lz_mbps", lz()),
    ] {
        s.mbps(metric, minute_bytes, || {
            write_das_file_with_codec(&scratch_file, &meta, &minute, None, codec).map(drop)
        });
    }
    // the last write was the compressed one: the ingest scrub's input
    s.ms("ingest.scrub_ms", || {
        dasf::File::open_verified(&scratch_file).map(drop)
    });
    let (hit, miss) = (
        counter("pool.hit") - pool0.0,
        counter("pool.miss") - pool0.1,
    );
    s.put("dasf.pool_hit_ratio", ratio(hit, hit + miss), "ratio");

    // --------------------------------------------------------------- dass
    s.ms("dass.catalog_scan_ms", || {
        FileCatalog::scan(&packed.dir).map(drop)
    });
    let catalog = FileCatalog::scan(&packed.dir).map_err(err)?;
    s.us("dass.vca_build_us", || {
        Vca::from_entries(catalog.entries()).map(drop)
    });
    let vca = packed.vca()?;
    let (ch, t) = (4..12u64, SPM - 2_500..SPM + 2_500);
    s.us("dass.plan_us", || {
        IoPlan::for_region(&vca, ch.clone(), t.clone()).map(drop)
    });
    let plan = IoPlan::for_region(&vca, ch, t).map_err(err)?;
    s.ms("dass.exec_region_ms", || {
        IoExecutor::serial().run(&plan).map(drop)
    });
    let whole = IoPlan::for_region(&vca, 0..CHANNELS, 0..vca.total_samples()).map_err(err)?;
    s.mbps("dass.exec_scan_mbps", packed.raw_bytes, || {
        IoExecutor::serial().run(&whole).map(drop)
    });
    s.mbps("dass.scrub_mbps", packed.stored_bytes, || {
        scrub_paths(&packed.paths, 1)
    });
    let two = IoPlan::for_vca(&vca, ReadStrategy::CommAvoiding, 2);
    s.mbps("dass.exec_ranks2_mbps", packed.raw_bytes, || {
        minimpi::run(2, |comm| IoExecutor::new(comm).run(&two).map(drop))
    });

    // ------------------------------------------- dasl, dasa, arrayudf
    s.us("dasl.compile_us", || {
        dasl::compile(INTERFEROMETRY_DAS).map(drop)
    });
    let interferometry =
        dasl::compile(INTERFEROMETRY_DAS).map_err(|e| e.render(INTERFEROMETRY_DAS))?;
    let detect = dasl::compile(DETECT_DAS).map_err(|e| e.render(DETECT_DAS))?;
    let haee = Haee::builder().threads(1).build();
    // an in-memory window, so nothing below does I/O
    let data = widen(&slab(&minute, 0..CHANNELS, 2_500..2_500 + ROW as u64 / 2));
    let vm_ms = s.ms("dasa.vm_interf_ms", || {
        dasa::run(&interferometry.bind(HZ as f64), &data, &haee).map(drop)
    });
    s.ms("dasa.vm_detect_ms", || {
        dasa::run(&detect.bind(HZ as f64), &data, &haee).map(drop)
    });
    let hand = Analysis::Interferometry(InterferometryParams::default());
    s.ms("dasa.handwired_interf_ms", || {
        dasa::run(&hand, &data, &haee).map(drop)
    });
    // the dsp calls the VM issues for interferometry.das, with no VM
    let replay_ms = s.time("dsp.replay", || {
        let (b, a) = dsp::butter(4, dsp::FilterBand::Bandpass(0.002, 0.096));
        let rows: Vec<Vec<f64>> = (0..data.rows())
            .map(|r| dsp::resample(&dsp::filtfilt(&b, &a, &dsp::detrend(data.row(r))), 1, 2))
            .collect();
        let master = dsp::fft_real(&rows[0]);
        rows.iter()
            .map(|r| dsp::abscorr_complex(&dsp::fft_real(r), &master))
            .collect::<Vec<f64>>()
    });
    s.put("dasa.vm_self_share", 1.0 - replay_ms / vm_ms, "ratio");
    let stride = Stride {
        time: 25,
        channel: 1,
    };
    let cells = (data.rows() * data.cols().div_ceil(stride.time)) as f64;
    let ms = s.time("arrayudf.apply", || {
        arrayudf::apply(&data, Ghost::both(35, 1), stride, localsim_shaped)
    });
    s.put("arrayudf.apply_ns_per_cell", ms * 1e6 / cells, "ns");

    // -------------------------------------------------------------- dassd
    let chunk_cache = ChunkCache::new(64 << 20, DATASET_PATH, &obs::Registry::new());
    let chunk = chunk_cache.get_or_read(&packed.paths[0]).map_err(err)?;
    s.us("dassd.cache_get_hit_us", || {
        chunk_cache.get_or_read(&packed.paths[0]).map(drop)
    });
    // room for one member file: alternating between two always misses
    let one = ChunkCache::new(minute_bytes, DATASET_PATH, &obs::Registry::new());
    let mut turn = 0usize;
    s.ms("dassd.cache_get_miss_ms", || {
        turn += 1;
        one.get_or_read(&packed.paths[turn % 2]).map(drop)
    });
    let sel = Some([(0u64, CHANNELS), (1_000u64, 15_000u64)]);
    s.us("dassd.hyperslab_us", || chunk.hyperslab(sel));
    let frame = Response::Chunk {
        row0: 0,
        col0: 0,
        rows: CHANNELS,
        cols: 15_000,
        data: chunk.hyperslab(sel),
    };
    let frame_bytes = CHANNELS * 15_000 * 4;
    s.mbps("dassd.frame_encode_mbps", frame_bytes, || frame.encode());
    let wire = frame.encode();
    s.mbps("dassd.frame_decode_mbps", frame_bytes, || {
        Response::decode(&wire).map(drop)
    });
    drop((chunk, chunk_cache, one));

    for _ in 0..3 {
        // the span covers the start alone; stopping is not measured
        let server = tr
            .span("dassd.start", || {
                Server::start(&packed.dir, ServerConfig::default())
            })
            .map_err(err)?;
        server.stop();
    }
    s.put(
        "dassd.start_ms",
        stats::median(&tr.durations_ms("dassd.start")),
        "ms",
    );

    let serve_shape = serve_query::Shape {
        files: 6,
        channels: CHANNELS,
        hot_files: 1,
        cache_granules: 3,
        req_ch: CHANNELS,
        req_s: 30,
        hot_regions: 4,
        lights: 4,
        eval_ch: 8,
        eval_s: 10,
    };
    let serve_dir = dir.join("serve");
    let mut serve = serve_query::ServeQuery::setup(args.seed, serve_shape, &serve_dir)?;
    {
        let mut probe = Client::connect(serve.addr()).map_err(|e| e.to_string())?;
        s.us("dassd.ping_us", || probe.ping().map_err(|e| e.to_string()));
    }
    let serve_tr = Tracer::new(true);
    let mut cx = Cx::new(&serve_tr);
    cx.set_recording(true);
    let before = serve.counters();
    run_for(&mut cx, &mut serve, 12.0 * s.box_s, false);
    let after = serve.counters();
    let reads: Vec<f64> = cx.light().iter().chain(cx.heavy()).copied().collect();
    let evals = serve_tr.durations_ms("op.eval");
    if reads.is_empty() || evals.is_empty() {
        return Err(format!("layer suite: dassd pass failed: {:?}", cx.errors()));
    }
    s.put("dassd.hot_region_ms", stats::median(cx.light()), "ms");
    s.put("dassd.cold_region_ms", stats::median(cx.heavy()), "ms");
    s.put("dassd.eval_ms", stats::median(&evals), "ms");
    let (hits, misses) = (after.hit - before.hit, after.miss - before.miss);
    s.put("dassd.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
    s.put(
        "dassd.decoded_per_served",
        ratio(
            after.codec_bytes_raw - before.codec_bytes_raw,
            after.bytes_served - before.bytes_served,
        ),
        "ratio",
    );
    // server-side handler time against what the client waited for reads
    let client_ns = reads.iter().sum::<f64>() * 1e6;
    s.put(
        "dassd.unattributed_share",
        1.0 - (after.read_ns - before.read_ns) as f64 / client_ns,
        "ratio",
    );
    let all: Vec<f64> = reads.iter().chain(&evals).copied().collect();
    s.put("dassd.p99_ms", p99(&all), "ms");
    // two clients at once, each on its own connection: recorded only
    let (addr, box_s) = (serve.addr(), 3.0 * s.box_s);
    let t0 = Instant::now();
    let served: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let (ch, t) = serve.hot_region(i);
                scope.spawn(move || {
                    let Ok(mut c) = Client::connect(addr) else {
                        return 0;
                    };
                    let mut n = 0;
                    while t0.elapsed().as_secs_f64() < box_s {
                        if c.read_region(ch.clone(), t.clone()).is_ok() {
                            n += 1;
                        }
                    }
                    n
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
    });
    s.put(
        "dassd.rps_2c",
        served as f64 / t0.elapsed().as_secs_f64(),
        "1/s",
    );
    Box::new(serve).finish(&mut cx);
    report.attempted += cx.attempted;
    report.failed += cx.failed;
    report.errors.extend_from_slice(cx.errors());

    // ------------------------------------------------------------- ingest
    let ingest_tr = Tracer::new(true);
    let mut cx = Cx::new(&ingest_tr);
    let ingest_shape = ingest_stream::Shape::pick(true);
    let mut stream =
        ingest_stream::IngestStream::setup(args.seed, ingest_shape, &dir.join("ingest"))?;
    cx.set_recording(true);
    let (n0, ns0) = (
        obs::global().histogram("ingest.window.ns").count(),
        hist_sum("ingest.window.ns"),
    );
    run_for(&mut cx, &mut stream, 12.0 * s.box_s, false);
    if cx.light().is_empty() || cx.heavy().is_empty() {
        return Err(format!(
            "layer suite: ingest pass failed: {:?}",
            cx.errors()
        ));
    }
    let windows = obs::global().histogram("ingest.window.ns").count() - n0;
    let eval_ms = ratio(hist_sum("ingest.window.ns") - ns0, windows) / 1e6;
    let detect_ms = stats::median(cx.heavy());
    s.put("ingest.write_ms", stats::median(cx.light()), "ms");
    s.put("ingest.window_eval_ms", eval_ms, "ms");
    s.put("ingest.overhead_ms", detect_ms - eval_ms, "ms");
    s.put("ingest.p99_ms", p99(cx.heavy()), "ms");
    Box::new(stream).finish(&mut cx);
    report.attempted += cx.attempted;
    report.failed += cx.failed;
    report.errors.extend_from_slice(cx.errors());

    // drain a pre-filled spool, then run again over the reported one:
    // the journal makes that a resume, which retires the spool's files
    for i in 0..3 {
        let spool = dir.join(format!("drain-{i}/spool"));
        std::fs::create_dir_all(&spool).map_err(|e| e.to_string())?;
        for p in &packed.paths {
            let name = p.file_name().ok_or("corpus file without a name")?;
            std::fs::copy(p, spool.join(name)).map_err(|e| e.to_string())?;
        }
        let mut cfg = IngestConfig::new(&spool, dir.join(format!("drain-{i}/out")));
        cfg.threads = 1;
        let first = tr
            .span("ingest.drain", || ingest::run_once(&cfg))
            .map_err(err)?;
        let again = tr
            .span("ingest.resume", || ingest::run_once(&cfg))
            .map_err(err)?;
        report.attempted += 2;
        if first.windows_emitted != FILES / 2 || again.windows_emitted != 0 || again.late != FILES {
            report.failed += 1;
            report
                .errors
                .push(format!("ingest drain: {first:?}; resume: {again:?}"));
        }
    }
    s.put_mbps(
        "ingest.drain_mbps",
        packed.raw_bytes,
        stats::median(&tr.durations_ms("ingest.drain")),
    );
    s.put(
        "ingest.resume_ms",
        stats::median(&tr.durations_ms("ingest.resume")),
        "ms",
    );

    report.metrics = s.metrics;
    Ok(report)
}
