//! `batch_compute`: the dasl programs in `examples/` over a rotating
//! window of a raw corpus. `dsp`, `arrayudf` and the `dasa` VM do the
//! work; `dasf` reads a megabyte, uncompressed.

use super::{generate, slab, widen, Corpus, Workload, HZ};
use crate::harness::{Cx, Kind};
use crate::trace::Tracer;
use crate::util::{Digest, Rng};
use arrayudf::Array2;
use dassa::prelude::*;
use std::path::Path;

pub const INTERFEROMETRY_DAS: &str = include_str!("../../../examples/interferometry.das");
pub const DETECT_DAS: &str = include_str!("../../../examples/detect.das");

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub files: u64,
    pub channels: u64,
    /// Window the programs run over: channels × seconds.
    pub win_ch: u64,
    pub win_s: u64,
    /// Distinct windows the passes rotate through.
    pub windows: usize,
}

impl Shape {
    pub fn pick(quick: bool) -> Shape {
        if quick {
            Shape {
                files: 2,
                channels: 8,
                win_ch: 4,
                win_s: 4,
                windows: 3,
            }
        } else {
            Shape {
                files: 12,
                channels: 32,
                win_ch: 16,
                win_s: 10,
                windows: 16,
            }
        }
    }
}

/// One window and the digests its three outputs must have.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    pub spec: dasl::LoadSpec,
    interferometry: Digest,
    detect: Digest,
    stacking: Digest,
}

pub struct BatchCompute {
    shape: Shape,
    corpus: Corpus,
    vca: Vca,
    interferometry: Program,
    detect: Program,
    haee: Haee,
    windows: Vec<Window>,
    pass: usize,
}

fn output_digest(out: &AnalysisOutput) -> Digest {
    let (dims, values) = out.to_dataset();
    Digest::of_dataset(&dims, &values)
}

/// The windows a seed gives: file by rotation, offsets from the seed.
pub fn windows_for(seed: u64, shape: &Shape) -> Vec<dasl::LoadSpec> {
    let mut rng = Rng::new(seed);
    (0..shape.windows as u64)
        .map(|i| {
            let t0 = (i % shape.files) * 60 + rng.below(60 - shape.win_s + 1);
            let c0 = rng.below(shape.channels - shape.win_ch + 1);
            dasl::LoadSpec {
                corpus: "corpus".into(),
                time: Some((t0, t0 + shape.win_s)),
                channels: Some((c0, c0 + shape.win_ch)),
                strategy: dasl::Strategy::Auto,
            }
        })
        .collect()
}

impl BatchCompute {
    pub fn setup(seed: u64, shape: Shape, dir: &Path) -> Result<BatchCompute, String> {
        let interferometry =
            dasl::compile(INTERFEROMETRY_DAS).map_err(|e| e.render(INTERFEROMETRY_DAS))?;
        let detect = dasl::compile(DETECT_DAS).map_err(|e| e.render(DETECT_DAS))?;
        let haee = Haee::builder().threads(1).build();

        // Oracles by a path that shares nothing with the timed one: the
        // window is cut from the rendered minute (no file, no plan, no
        // executor) and run through the hand-wired analyses (no VM).
        let specs = windows_for(seed, &shape);
        let mut windows: Vec<Option<Window>> = vec![None; specs.len()];
        let corpus = generate(
            dir,
            seed,
            shape.channels,
            shape.files,
            dasf::Codec::Raw,
            |m, minute| {
                for (slot, spec) in windows.iter_mut().zip(&specs) {
                    let (t0, t1) = spec.time.expect("windowed");
                    let (c0, c1) = spec.channels.expect("windowed");
                    if t0 / 60 != m {
                        continue;
                    }
                    let data = widen(&slab(
                        minute,
                        c0..c1,
                        (t0 - m * 60) * HZ..(t1 - m * 60) * HZ,
                    ));
                    let run = |a: Analysis, d: &Array2<f64>| {
                        dasa::run(&a, d, &haee)
                            .map(|o| output_digest(&o))
                            .map_err(|e| e.to_string())
                    };
                    let normalised: Vec<f64> = (0..data.rows())
                        .flat_map(|r| dsp::one_bit(&dsp::detrend_constant(data.row(r))))
                        .collect();
                    let normalised = Array2::from_vec(data.rows(), data.cols(), normalised);
                    *slot = Some(Window {
                        interferometry: run(
                            Analysis::Interferometry(InterferometryParams::default()),
                            &data,
                        )?,
                        detect: run(
                            Analysis::LocalSimilarity(LocalSimiParams::default()),
                            &normalised,
                        )?,
                        stacking: run(Analysis::Stacking(StackingParams::default()), &data)?,
                        spec: spec.clone(),
                    });
                }
                Ok(())
            },
        )?;
        let windows = windows
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or("a window fell outside the corpus")?;
        let vca = corpus.vca()?;
        Ok(BatchCompute {
            shape,
            corpus,
            vca,
            interferometry,
            detect,
            haee,
            windows,
            pass: 0,
        })
    }

    /// Plan, read and widen one window — `das_pipeline`'s front half.
    fn load(&self, tr: &Tracer, spec: &dasl::LoadSpec) -> Result<Array2<f64>, String> {
        let plan = tr
            .span("dass.plan", || IoPlan::for_load(&self.vca, spec, 1))
            .map_err(|e| e.to_string())?;
        let (block, _) = tr
            .span("dass.exec_read", || IoExecutor::serial().run(&plan))
            .map_err(|e| e.to_string())?;
        Ok(tr.span("pipeline.widen", || widen(&block)))
    }

    fn run_job<J: Job>(
        &self,
        tr: &Tracer,
        spec: &dasl::LoadSpec,
        job: &J,
    ) -> Result<Digest, String> {
        let data = self.load(tr, spec)?;
        let out = tr
            .span("dasa.run", || dasa::run(job, &data, &self.haee))
            .map_err(|e| e.to_string())?;
        Ok(output_digest(&out))
    }
}

impl Workload for BatchCompute {
    fn cycle(&mut self, cx: &mut Cx) {
        let w = &self.windows[self.pass % self.windows.len()];
        let hz = self.vca.sampling_hz() as f64;
        cx.op(
            Kind::Light,
            "op.light",
            |tr| self.run_job(tr, &w.spec, &self.interferometry.bind(hz)),
            |got| got.expect(w.interferometry),
        );
        cx.op(
            Kind::Heavy,
            "op.heavy",
            |tr| self.run_job(tr, &w.spec, &self.detect.bind(hz)),
            |got| got.expect(w.detect),
        );
        cx.op(
            Kind::Other,
            "op.stacking",
            |tr| self.run_job(tr, &w.spec, &Analysis::Stacking(StackingParams::default())),
            |got| got.expect(w.stacking),
        );
        self.pass += 1;
    }

    fn cycle_bytes(&self) -> u64 {
        3 * self.shape.win_ch * self.shape.win_s * HZ * 4
    }

    fn stored_ratio(&self) -> f64 {
        self.corpus.stored_ratio()
    }

    fn describe(&self) -> String {
        let s = &self.shape;
        format!(
            "{} raw files x {} ch x {HZ} Hz ({:.1} MB raw); window {} ch x {} s, {} windows; \
             pass = interferometry.das + detect.das + hand-wired stacking",
            s.files,
            s.channels,
            self.corpus.raw_bytes as f64 / 1e6,
            s.win_ch,
            s.win_s,
            s.windows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_repeat_for_a_seed_and_fit_the_corpus() {
        let shape = Shape::pick(false);
        let a = windows_for(11, &shape);
        assert_eq!(a, windows_for(11, &shape));
        assert_ne!(a, windows_for(12, &shape));
        assert_eq!(a.len(), shape.windows);
        for (i, w) in a.iter().enumerate() {
            let (t0, t1) = w.time.unwrap();
            let (c0, c1) = w.channels.unwrap();
            assert_eq!(t1 - t0, shape.win_s);
            assert_eq!(c1 - c0, shape.win_ch);
            assert!(c1 <= shape.channels);
            // inside the file the rotation assigns, never across two
            assert_eq!(t0 / 60, i as u64 % shape.files);
            assert_eq!((t1 - 1) / 60, t0 / 60);
        }
    }
}
