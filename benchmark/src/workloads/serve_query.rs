//! `serve_query`: one client on one connection to an in-process
//! `dassd`, asking for regions that are in its `ChunkCache` (light),
//! regions that cannot be (heavy), and a server-side `eval`.

use super::{generate, lz, widen, Corpus, Workload, HZ, SPM};
use crate::harness::{Cx, Kind};
use crate::util::{Digest, Rng};
use arrayudf::Array2;
use dassa::prelude::*;
use std::ops::Range;
use std::path::Path;

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub files: u64,
    pub channels: u64,
    /// Files the light ops and the eval stay inside.
    pub hot_files: u64,
    /// Member files the cache has room for.
    pub cache_granules: u64,
    /// `read_region` shape: channels × seconds, inside one file.
    pub req_ch: u64,
    pub req_s: u64,
    /// Distinct hot regions the light ops rotate through.
    pub hot_regions: usize,
    /// Light ops per pass.
    pub lights: usize,
    /// `eval` window: channels × seconds of the hot set.
    pub eval_ch: u64,
    pub eval_s: u64,
}

impl Shape {
    pub fn pick(quick: bool) -> Shape {
        if quick {
            Shape {
                files: 5,
                channels: 8,
                hot_files: 1,
                cache_granules: 3,
                req_ch: 8,
                req_s: 10,
                hot_regions: 3,
                lights: 2,
                eval_ch: 4,
                eval_s: 4,
            }
        } else {
            Shape {
                files: 16,
                channels: 32,
                hot_files: 2,
                cache_granules: 8,
                req_ch: 32,
                req_s: 30,
                hot_regions: 8,
                lights: 4,
                eval_ch: 8,
                eval_s: 10,
            }
        }
    }

    fn granule_bytes(&self) -> u64 {
        self.channels * SPM * 4
    }

    /// Room for `cache_granules` decoded member files and half of one more.
    pub fn cache_bytes(&self) -> u64 {
        self.cache_granules * self.granule_bytes() + self.granule_bytes() / 2
    }
}

/// A request region and the digest its answer must have.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    pub ch: Range<u64>,
    pub t: Range<u64>,
    digest: Digest,
}

/// Server-side counters the oracles and the layer metrics read as
/// before/after differences.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub hit: u64,
    pub miss: u64,
    pub bytes_served: u64,
    pub read_ns: u64,
    /// Raw bytes that went through a `dasf` codec, process-wide.
    pub codec_bytes_raw: u64,
}

pub struct ServeQuery {
    shape: Shape,
    corpus: Corpus,
    server: Option<Server>,
    client: Option<Client>,
    hot: Vec<Region>,
    cold: Vec<Region>,
    eval_src: String,
    eval_digest: Digest,
    next_hot: usize,
    next_cold: usize,
    hit: obs::Counter,
    miss: obs::Counter,
}

/// A channel range × a global sample range.
pub type Rect = (Range<u64>, Range<u64>);

/// Regions inside single files: `hot_regions` in the hot files (by
/// rotation), then one per cold file.
pub fn regions_for(seed: u64, shape: &Shape) -> (Vec<Rect>, Vec<Rect>) {
    let mut rng = Rng::new(seed);
    let len = shape.req_s * HZ;
    let mut inside = |file: u64| {
        let t0 = file * SPM + rng.below(SPM - len + 1);
        let c0 = rng.below(shape.channels - shape.req_ch + 1);
        (c0..c0 + shape.req_ch, t0..t0 + len)
    };
    let hot = (0..shape.hot_regions as u64)
        .map(|i| inside(i % shape.hot_files))
        .collect();
    let cold = (shape.hot_files..shape.files).map(&mut inside).collect();
    (hot, cold)
}

impl ServeQuery {
    pub fn setup(seed: u64, shape: Shape, dir: &Path) -> Result<ServeQuery, String> {
        let corpus = generate(dir, seed, shape.channels, shape.files, lz(), |_, _| Ok(()))?;

        // Oracles from the serial executor, which shares neither the
        // cache nor the wire with the server.
        let vca = corpus.vca()?;
        let oracle = |(ch, t): Rect| -> Result<Region, String> {
            let plan =
                IoPlan::for_region(&vca, ch.clone(), t.clone()).map_err(|e| e.to_string())?;
            let (block, _) = IoExecutor::serial().run(&plan).map_err(|e| e.to_string())?;
            Ok(Region {
                ch,
                t,
                digest: Digest::of_f32(block.as_slice()),
            })
        };
        let (hot, cold) = regions_for(seed, &shape);
        let hot = hot.into_iter().map(oracle).collect::<Result<Vec<_>, _>>()?;
        let cold = cold
            .into_iter()
            .map(oracle)
            .collect::<Result<Vec<_>, _>>()?;

        let mut rng = Rng::new(seed ^ 0xE7A1);
        let t0 = rng.below(60 - shape.eval_s + 1);
        let c0 = rng.below(shape.channels - shape.eval_ch + 1);
        let eval_src = format!(
            "load(\"corpus\", t={t0}..{}, ch={c0}..{}) | detrend | bandpass(0.5, 24) | resample(2) | xcorr(master=ch[0])",
            t0 + shape.eval_s,
            c0 + shape.eval_ch
        );
        let program = dasl::compile(&eval_src).map_err(|e| e.render(&eval_src))?;
        let plan = IoPlan::for_load(&vca, program.load_spec(), 1).map_err(|e| e.to_string())?;
        let (block, _) = IoExecutor::serial().run(&plan).map_err(|e| e.to_string())?;
        let out = dasa::run(
            &program.bind(HZ as f64),
            &widen(&block),
            &Haee::builder().threads(1).build(),
        )
        .map_err(|e| e.to_string())?;
        let (dims, values) = out.to_dataset();
        let eval_digest = Digest::of_dataset(&dims, &values);

        let server = Server::start(
            dir,
            ServerConfig {
                workers: 2,
                eval_threads: 1,
                cache_bytes: shape.cache_bytes(),
                ..ServerConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        client.ping().map_err(|e| e.to_string())?;
        // bring the hot set into the cache, checking the answers on the way
        for r in &hot {
            let block = client
                .read_region(r.ch.clone(), r.t.clone())
                .map_err(|e| e.to_string())?;
            Digest::of_f32(block.as_slice()).expect(r.digest)?;
        }
        let hit = server.registry().counter("cache.hit");
        let miss = server.registry().counter("cache.miss");
        Ok(ServeQuery {
            shape,
            corpus,
            client: Some(client),
            hot,
            cold,
            eval_src,
            eval_digest,
            next_hot: 0,
            next_cold: 0,
            hit,
            miss,
            server: Some(server),
        })
    }

    pub fn counters(&self) -> Counters {
        let reg = self.server.as_ref().expect("server runs").registry();
        Counters {
            hit: self.hit.get(),
            miss: self.miss.get(),
            bytes_served: reg.counter("dassd.bytes_served").get(),
            read_ns: reg.histogram("dassd.read.ns").sum(),
            codec_bytes_raw: obs::global().counter("dasf.codec.bytes_raw").get(),
        }
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("server runs").addr()
    }

    /// A hot region, for callers outside the pass schedule.
    pub fn hot_region(&self, i: usize) -> Rect {
        let r = &self.hot[i % self.hot.len()];
        (r.ch.clone(), r.t.clone())
    }

    /// One `read_region` and its oracle: the answer's digest, and the
    /// cache counters moving by exactly `(hits, misses)`.
    fn region_op(
        &mut self,
        cx: &mut Cx,
        kind: Kind,
        name: &'static str,
        region: &Region,
        delta: (u64, u64),
    ) {
        let (hit0, miss0) = (self.hit.get(), self.miss.get());
        let client = self.client.as_mut().expect("client connected");
        let (hit, miss) = (&self.hit, &self.miss);
        cx.op(
            kind,
            name,
            |tr| {
                tr.span("dassd.request", || {
                    client.read_region(region.ch.clone(), region.t.clone())
                })
                .map_err(|e| e.to_string())
            },
            |block: &Array2<f32>| {
                let got = (hit.get() - hit0, miss.get() - miss0);
                if got != delta {
                    return Err(format!(
                        "cache moved by {got:?} (hits, misses), expected {delta:?}"
                    ));
                }
                // the oracle is the serial executor's read of the region
                Digest::of_f32(block.as_slice()).expect(region.digest)
            },
        );
    }
}

impl Workload for ServeQuery {
    fn cycle(&mut self, cx: &mut Cx) {
        for _ in 0..self.shape.lights {
            let r = self.hot[self.next_hot % self.hot.len()].clone();
            self.next_hot += 1;
            self.region_op(cx, Kind::Light, "op.light", &r, (1, 0));
        }
        let r = self.cold[self.next_cold % self.cold.len()].clone();
        self.next_cold += 1;
        self.region_op(cx, Kind::Heavy, "op.heavy", &r, (0, 1));

        let miss0 = self.miss.get();
        let client = self.client.as_mut().expect("client connected");
        let (src, want, miss) = (&self.eval_src, self.eval_digest, &self.miss);
        cx.op(
            Kind::Other,
            "op.eval",
            |tr| {
                tr.span("dassd.request", || client.eval(src))
                    .map_err(|e| e.to_string())
            },
            |(dims, values)| {
                if miss.get() != miss0 {
                    return Err("eval over the hot set missed the cache".into());
                }
                // the oracle is a local plan + read + run of the program
                Digest::of_dataset(dims, values).expect(want)
            },
        );
    }

    fn cycle_bytes(&self) -> u64 {
        let s = &self.shape;
        ((s.lights as u64 + 1) * s.req_ch * s.req_s + s.eval_ch * s.eval_s) * HZ * 4
    }

    fn stored_ratio(&self) -> f64 {
        self.corpus.stored_ratio()
    }

    fn describe(&self) -> String {
        let s = &self.shape;
        format!(
            "{} shuffle-lz files x {} ch x {HZ} Hz ({:.1} MB raw); dassd workers 2, eval threads 1, cache {:.1} MB \
             ({} member files of {:.2} MB); hot set {} files ({} regions), cold sweep {} files; \
             read_region {} ch x {} s ({:.2} MB); pass = {} hot + 1 cold + 1 eval over {} ch x {} s",
            s.files,
            s.channels,
            self.corpus.raw_bytes as f64 / 1e6,
            s.cache_bytes() as f64 / 1e6,
            s.cache_granules,
            s.granule_bytes() as f64 / 1e6,
            s.hot_files,
            s.hot_regions,
            s.files - s.hot_files,
            s.req_ch,
            s.req_s,
            (s.req_ch * s.req_s * HZ * 4) as f64 / 1e6,
            s.lights,
            s.eval_ch,
            s.eval_s
        )
    }
}

impl Drop for ServeQuery {
    fn drop(&mut self) {
        drop(self.client.take());
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_repeat_for_a_seed_and_stay_inside_one_file() {
        let shape = Shape::pick(false);
        let (hot, cold) = regions_for(3, &shape);
        assert_eq!((hot.clone(), cold.clone()), regions_for(3, &shape));
        assert_ne!(hot, regions_for(4, &shape).0);
        assert_eq!(hot.len(), shape.hot_regions);
        assert_eq!(cold.len() as u64, shape.files - shape.hot_files);
        for (i, (_, t)) in hot.iter().enumerate() {
            assert_eq!(t.start / SPM, i as u64 % shape.hot_files);
            assert_eq!((t.end - 1) / SPM, t.start / SPM);
        }
        for (i, (ch, t)) in cold.iter().enumerate() {
            assert_eq!(t.start / SPM, shape.hot_files + i as u64);
            assert_eq!((t.end - 1) / SPM, t.start / SPM);
            assert_eq!(ch.end - ch.start, shape.req_ch);
        }
        // the cold sweep cannot fit beside the hot set
        assert!(shape.files - shape.hot_files > shape.cache_granules - shape.hot_files);
    }
}
