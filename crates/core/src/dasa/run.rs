//! One entry point for every DASA analysis.
//!
//! DASA runs an analysis one way: the `dasl` VM ([`execute`]) applies
//! DasLib kernels over the merged `channel × time` array (the paper's
//! ArrayUDF `Apply`), in the type it was stored in ([`Sample`]). An
//! [`Analysis`] is a *named* `dasl` program: [`Analysis::program`]
//! lowers its parameters to a `dasl` plan, and [`run`] executes that
//! program like any other, so `das_pipeline -a`, `--program` and
//! `--eval`, the ingest daemon and the MATLAB bridge all reach the
//! kernels through the same code.
//!
//! The parameter structs give bandpass corners as fractions of Nyquist,
//! and `dasl`'s `bandpass` takes Hz that the VM divides by the corpus
//! Nyquist. A lowered program is therefore bound at [`ANALYSIS_HZ`], a
//! Nyquist of exactly 1: the corner reaches the filter design with the
//! bits it was given, whatever rate the corpus has. (Scaling to Hz and
//! back would not keep them: `(b·250)/250 ≠ b` for ≈ 3 % of corners.)

use super::haee::Haee;
use super::interferometry::InterferometryParams;
use super::local_similarity::LocalSimiParams;
use super::rows::Sample;
use super::stacking::{StackedCorrelation, StackingParams};
use super::vm::execute;
use crate::{DassaError, Result};
use arrayudf::Array2;
use dasl::{Dim, Kernel, LoadSpec, Op, Strategy, Ty};

/// The sampling rate a lowered [`Analysis`] is bound at: Nyquist 1, so a
/// `bandpass` corner written in "Hz" is the fraction of Nyquist the
/// parameter struct holds, bit for bit.
const ANALYSIS_HZ: f64 = 2.0;

/// A DASA analysis and its parameters — a named `dasl` program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Analysis {
    /// Earthquake detection via local similarity (Algorithm 2).
    LocalSimilarity(LocalSimiParams),
    /// Traffic-noise interferometry vs a master channel (Algorithm 3).
    Interferometry(InterferometryParams),
    /// Window-stacked cross-correlation (the full Dou et al. workflow).
    Stacking(StackingParams),
}

impl Analysis {
    /// Stable short name, used for span names and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Analysis::LocalSimilarity(_) => "local_similarity",
            Analysis::Interferometry(_) => "interferometry",
            Analysis::Stacking(_) => "stacking",
        }
    }

    /// The analysis a command line names, with default parameters. One
    /// table for every binary: `interferometry`, `localsim` or
    /// `local_similarity`, `stack` or `stacking`.
    pub fn from_name(name: &str) -> Result<Analysis> {
        Ok(match name {
            "interferometry" => Analysis::Interferometry(InterferometryParams::default()),
            "localsim" | "local_similarity" => {
                Analysis::LocalSimilarity(LocalSimiParams::default())
            }
            "stack" | "stacking" => Analysis::Stacking(StackingParams::default()),
            other => {
                return Err(DassaError::BadSelection(format!(
                    "unknown analysis {other:?} (want interferometry, localsim|local_similarity \
                     or stack|stacking)"
                )))
            }
        })
    }

    /// The `dasl` program this analysis names, built as a plan (never
    /// from source text) and meant to run at [`ANALYSIS_HZ`]:
    ///
    /// * interferometry — `load | detrend | bandpass | resample(p, q) |
    ///   xcorr(master)`, the corners in fractions of Nyquist;
    /// * local similarity — `load | localsim(..)`;
    /// * stacking — `load | stack(..)`, with the window normalization the
    ///   source syntax does not spell carried in the [`dasl::StackSpec`].
    pub fn program(&self) -> dasl::Program {
        let channels = Dim::Unknown;
        let (kernels, op, result) = match *self {
            Analysis::Interferometry(p) => (
                vec![
                    Kernel::Detrend,
                    // at ANALYSIS_HZ a fraction of Nyquist is its own Hz
                    Kernel::Bandpass {
                        lo_hz: p.band.0,
                        hi_hz: p.band.1,
                        order: p.filter_order,
                    },
                    Kernel::Resample {
                        p: p.resample_p,
                        q: p.resample_q,
                    },
                ],
                Op::Xcorr {
                    master: p.master_channel as u64,
                },
                Ty::Scores { channels },
            ),
            Analysis::LocalSimilarity(p) => (
                Vec::new(),
                Op::LocalSim(p.into()),
                Ty::Map {
                    channels,
                    samples: Dim::Unknown,
                },
            ),
            Analysis::Stacking(p) => (Vec::new(), Op::Stack(p.into()), Ty::Stacks { channels }),
        };
        dasl::Program {
            load: LoadSpec {
                corpus: "corpus".to_string(),
                time: None,
                channels: None,
                strategy: Strategy::Auto,
            },
            kernels,
            op: Some(op),
            result,
        }
    }
}

/// What an [`Analysis`] produces.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisOutput {
    /// `channels × time` similarity map (local similarity).
    Map(Array2<f64>),
    /// One score per channel (interferometry).
    Scores(Vec<f64>),
    /// One stacked correlation per channel (stacking).
    Stacks(Vec<StackedCorrelation>),
}

impl AnalysisOutput {
    /// Flatten to `(dims, values)` for writing as a dasf dataset.
    pub fn to_dataset(&self) -> (Vec<u64>, Vec<f64>) {
        match self {
            AnalysisOutput::Map(m) => (
                vec![m.rows() as u64, m.cols() as u64],
                m.as_slice().to_vec(),
            ),
            AnalysisOutput::Scores(s) => (vec![s.len() as u64], s.clone()),
            AnalysisOutput::Stacks(stacks) => {
                let lag = stacks.first().map_or(0, |s| s.stack.len());
                let flat: Vec<f64> = stacks.iter().flat_map(|s| s.stack.clone()).collect();
                (vec![stacks.len() as u64, lag as u64], flat)
            }
        }
    }

    /// FNV-1a over the dataset form ([`dataset_digest`]): the digest an
    /// ingest window report carries, and the one answer every entry
    /// point must agree on.
    pub fn digest(&self) -> u64 {
        let (dims, values) = self.to_dataset();
        dataset_digest(&dims, &values)
    }

    /// The map, if this is a [`AnalysisOutput::Map`].
    pub fn as_map(&self) -> Option<&Array2<f64>> {
        match self {
            AnalysisOutput::Map(m) => Some(m),
            _ => None,
        }
    }

    /// The per-channel scores, if this is a [`AnalysisOutput::Scores`].
    pub fn as_scores(&self) -> Option<&[f64]> {
        match self {
            AnalysisOutput::Scores(s) => Some(s),
            _ => None,
        }
    }

    /// The stacked correlations, if this is a [`AnalysisOutput::Stacks`].
    pub fn as_stacks(&self) -> Option<&[StackedCorrelation]> {
        match self {
            AnalysisOutput::Stacks(s) => Some(s),
            _ => None,
        }
    }
}

/// FNV-1a over an output dataset `(dims, values)`: each dim, then the
/// bits of each value, every word little-endian. Files written by
/// `das_pipeline -o` and `dassd` `Eval` streams carry this form, so they
/// digest like the [`AnalysisOutput`] they came from.
pub fn dataset_digest(dims: &[u64], values: &[f64]) -> u64 {
    dims.iter()
        .copied()
        .chain(values.iter().map(|v| v.to_bits()))
        .flat_map(u64::to_le_bytes)
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
        })
}

/// Anything [`run`] can execute over a merged `channel × time` array:
/// an [`Analysis`] (a named program) or a
/// [`BoundProgram`](super::vm::BoundProgram) (a compiled program bound
/// to its corpus' sampling rate). Both run on the VM.
pub trait Job {
    /// Stable short name, used for span names and logging.
    fn name(&self) -> &'static str;

    /// Execute over `data` — `f32` as stored, or `f64` — with the hybrid
    /// engine.
    fn run<T: Sample>(&self, data: &Array2<T>, haee: &Haee) -> Result<AnalysisOutput>;
}

impl Job for Analysis {
    fn name(&self) -> &'static str {
        Analysis::name(self)
    }

    fn run<T: Sample>(&self, data: &Array2<T>, haee: &Haee) -> Result<AnalysisOutput> {
        let _root = obs::span(self.name());
        execute(&self.program(), ANALYSIS_HZ, data, haee)
    }
}

/// Run a [`Job`] — an [`Analysis`] or a bound `dasl` program — over a
/// merged `channel × time` array with the hybrid engine. The single
/// dispatcher every caller goes through. Pass the block as it was read
/// (`f32`): the engine widens one row at a time, and an `f64` block
/// gives the same bits as the `f32` block it was widened from.
///
/// The VM times itself as `span.dasl`, with a child span for the fused
/// pass (`apply`) and one for the op (`xcorr`, `localsim`, `stack`); an
/// [`Analysis`] opens `span.<name>` around it. Ahead of `xcorr`, which
/// takes each row through the chain itself, `apply` times only the
/// chain's preparation. The paths nest under whatever span the caller
/// has open, so `das_pipeline -a interferometry` produces e.g.
/// `span.pipeline.analyze.interferometry.dasl.apply`.
pub fn run<J: Job, T: Sample>(job: &J, data: &Array2<T>, haee: &Haee) -> Result<AnalysisOutput> {
    job.run(data, haee)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dasa::{BindProgram, TimeNorm};

    fn signal(channels: usize, n: usize) -> Array2<f64> {
        Array2::from_fn(channels, n, |c, t| {
            ((t as f64 - c as f64 * 2.0) * 0.07).sin() + 0.2 * ((t * 7 + c * 3) % 13) as f64 / 13.0
        })
    }

    /// A seeded `channels × samples` array: a wave that moves across the
    /// channels plus splitmix64 noise in `[-0.5, 0.5)`.
    fn seeded(channels: usize, samples: usize, seed: u64) -> Array2<f64> {
        Array2::from_fn(channels, samples, |c, t| {
            let mut z = seed
                .wrapping_add((c * samples + t) as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((t as f64 - 3.0 * c as f64) * 0.05).sin() + (z >> 11) as f64 / (1u64 << 53) as f64
                - 0.5
        })
    }

    /// The output bits of every `Analysis` shape `das_pipeline -a`,
    /// `das_ingest --job` and the library reach, and of both checked-in
    /// programs, pinned by digest. The `f64` constants were recorded from
    /// the hand-wired dispatch (one function per analysis) before
    /// analyses became `dasl` programs; the lowered programs must
    /// reproduce them bit for bit. The `f32` constants were recorded from
    /// the whole-array widening the engine's callers used to make: an
    /// `f32` block, widened one row at a time, and its widened `f64`
    /// copy must both reproduce them.
    #[test]
    fn analyses_keep_their_pinned_output_bits() {
        // a corner whose trip through a 500 Hz corpus' Nyquist is not
        // exact: (0.0131 · 250) / 250 != 0.0131
        let band = (0.0131, 0.0954);
        assert_ne!((band.0 * 250.0) / 250.0, band.0);
        let cases = [
            (
                "default localsim",
                Analysis::LocalSimilarity(LocalSimiParams::default()),
                0xDA22_5D53_EA63_A775,
                0x8F81_7619_BB53_4F48,
            ),
            (
                "default interferometry",
                Analysis::Interferometry(InterferometryParams::default()),
                0x5527_8D5C_A1F8_C0AA,
                0xD857_12DF_A97C_5349,
            ),
            (
                "default stacking",
                Analysis::Stacking(StackingParams::default()),
                0xD740_7FAD_2E28_CC3A,
                0xD740_7FAD_2E28_CC3A,
            ),
            (
                "interferometry: master 4, order 2, resample 2/5, inexact band",
                Analysis::Interferometry(InterferometryParams {
                    filter_order: 2,
                    band,
                    resample_p: 2,
                    resample_q: 5,
                    master_channel: 4,
                }),
                0xE6C6_0DB4_B3E8_4054,
                0x4565_61D2_C540_2F9F,
            ),
            (
                "localsim 4/2/3/1",
                Analysis::LocalSimilarity(LocalSimiParams {
                    half_window: 4,
                    channel_offset: 2,
                    search_half: 3,
                    time_stride: 1,
                }),
                0x4C43_64E3_9B51_4ACA,
                0x9E1D_C9CA_D57C_BEAC,
            ),
            (
                "stacking: every field set",
                Analysis::Stacking(StackingParams {
                    window: 128,
                    hop: 48,
                    band: (0.05, 0.8),
                    filter_order: 3,
                    time_norm: TimeNorm::RunningAbsMean(8),
                    whiten: false,
                    master_channel: 2,
                }),
                0x578C_1F49_CF56_804F,
                0xE2B5_F69C_A5D1_3623,
            ),
            (
                "whitened stacking, odd window 127",
                Analysis::Stacking(StackingParams {
                    window: 127,
                    hop: 127,
                    ..Default::default()
                }),
                0xAAAC_D555_8B8E_15C1,
                0xAAAC_D555_8B8E_15C1,
            ),
            (
                "whitened stacking, window 130 (Bluestein half)",
                Analysis::Stacking(StackingParams {
                    window: 130,
                    hop: 130,
                    ..Default::default()
                }),
                0xF7BC_002F_6E12_9B01,
                0xF7BC_002F_6E12_9B01,
            ),
        ];
        // the checked-in programs at 500 Hz: interferometry.das on the
        // f32 block is `-a interferometry`'s bits, as `ci.sh` asserts
        let programs = [
            (
                "examples/interferometry.das",
                include_str!("../../../../examples/interferometry.das"),
                0x5527_8D5C_A1F8_C0AA,
                0xD857_12DF_A97C_5349,
            ),
            (
                "examples/detect.das",
                include_str!("../../../../examples/detect.das"),
                0x9923_696B_4717_04A9,
                0x9923_696B_4717_04A9,
            ),
        ]
        .map(|(what, src, d64, d32)| (what, dasl::compile(src).unwrap(), d64, d32));
        let data = seeded(6, 1536, 0x5EED);
        let block = Array2::from_fn(6, 1536, |c, t| data.get(c, t) as f32);
        let widened = Array2::from_fn(6, 1536, |c, t| f64::from(block.get(c, t)));
        // a job's digests over `data`, the f32 block and its widened copy
        fn three<J: Job>(
            job: &J,
            inputs: (&Array2<f64>, &Array2<f32>, &Array2<f64>),
            haee: &Haee,
        ) -> [u64; 3] {
            let (data, block, widened) = inputs;
            [
                run(job, data, haee).unwrap().digest(),
                run(job, block, haee).unwrap().digest(),
                run(job, widened, haee).unwrap().digest(),
            ]
        }
        let want: Vec<(&str, [u64; 3])> = cases
            .iter()
            .map(|&(what, _, d64, d32)| (what, [d64, d32, d32]))
            .chain(
                programs
                    .iter()
                    .map(|&(what, _, d64, d32)| (what, [d64, d32, d32])),
            )
            .collect();
        for threads in [1, 3] {
            let haee = Haee::builder().threads(threads).build();
            let inputs = (&data, &block, &widened);
            let got: Vec<(&str, [u64; 3])> =
                cases
                    .iter()
                    .map(|(what, analysis, ..)| (*what, three(analysis, inputs, &haee)))
                    .chain(programs.iter().map(|(what, program, ..)| {
                        (*what, three(&program.bind(500.0), inputs, &haee))
                    }))
                    .collect();
            assert_eq!(got, want, "{threads} threads");
        }
    }

    /// `examples/interferometry.das` at the shape `das_ingest` evaluates:
    /// 100 Hz, an `f32` block of 12 000-sample rows. Its resample runs the
    /// lane loop over thousands of outputs a row and its transforms have
    /// every pass of a 6000-point plan; the digest was recorded before
    /// either kernel ran on an instruction-set tier.
    #[test]
    fn interferometry_at_the_ingest_shape_keeps_its_pinned_output_bits() {
        let program = dasl::compile(include_str!("../../../../examples/interferometry.das"));
        let program = program.unwrap();
        let data = seeded(6, 12_000, 0x1_2000);
        let block = Array2::from_fn(6, 12_000, |c, t| data.get(c, t) as f32);
        for threads in [1, 3] {
            let haee = Haee::builder().threads(threads).build();
            let got = run(&program.bind(100.0), &block, &haee).unwrap().digest();
            assert_eq!(got, 0x3B03_A02C_06AC_AC4A, "{threads} threads");
        }
    }

    /// Every `Analysis` and both checked-in programs give the same output
    /// bits at 1, 2 and 3 threads: the team size only decides which
    /// thread computes a row, never what the row holds.
    #[test]
    fn outputs_do_not_depend_on_the_thread_count() {
        let data = signal(7, 1500);
        let analyses = [
            Analysis::LocalSimilarity(LocalSimiParams {
                half_window: 4,
                channel_offset: 1,
                search_half: 2,
                time_stride: 8,
            }),
            Analysis::Interferometry(InterferometryParams::default()),
            Analysis::Stacking(StackingParams {
                window: 128,
                hop: 128,
                ..Default::default()
            }),
        ];
        let programs = [
            include_str!("../../../../examples/interferometry.das"),
            include_str!("../../../../examples/detect.das"),
        ]
        .map(|src| dasl::compile(src).unwrap());
        let bits = |threads: usize| -> Vec<(Vec<u64>, Vec<u64>)> {
            let haee = Haee::builder().threads(threads).build();
            let outputs = analyses.iter().map(|a| run(a, &data, &haee).unwrap());
            let programs = programs
                .iter()
                .map(|p| crate::dasa::execute(p, 500.0, &data, &haee).unwrap());
            outputs
                .chain(programs)
                .map(|out| {
                    let (dims, values) = out.to_dataset();
                    (dims, values.iter().map(|v| v.to_bits()).collect())
                })
                .collect()
        };
        let one = bits(1);
        assert!(one.iter().all(|(_, values)| !values.is_empty()));
        for threads in [2, 3] {
            assert_eq!(bits(threads), one, "{threads} threads");
        }
    }

    #[test]
    fn run_records_analysis_span() {
        let data = signal(4, 400);
        let haee = Haee::builder().threads(1).build();
        let p = InterferometryParams::default();
        run(&Analysis::Interferometry(p), &data, &haee).unwrap();
        let snap = obs::global().snapshot();
        for name in [
            "span.interferometry",
            "span.interferometry.dasl.apply",
            "span.interferometry.dasl.xcorr",
        ] {
            let h = snap
                .histogram(name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert!(h.count >= 1);
        }
    }

    /// `-a localsim`, `-a stack` and `-a interferometry` name the
    /// programs their `dasl` spellings compile to: the source defaults
    /// of `localsim` and `stack` are the parameter structs' defaults,
    /// and interferometry's corners in Hz at Nyquist 1 are its fractions.
    #[test]
    fn default_analyses_are_their_dasl_spellings() {
        for (analysis, src) in [
            (
                Analysis::LocalSimilarity(LocalSimiParams::default()),
                "load(\"corpus\") | localsim",
            ),
            (
                Analysis::Stacking(StackingParams::default()),
                "load(\"corpus\") | stack(master=ch[0])",
            ),
            (
                Analysis::Interferometry(InterferometryParams::default()),
                "load(\"corpus\") | detrend | bandpass(0.002, 0.096) | resample(2) \
                 | xcorr(master=ch[0])",
            ),
        ] {
            assert_eq!(analysis.program(), dasl::compile(src).unwrap(), "{src}");
        }
    }

    #[test]
    fn every_spelling_names_one_analysis() {
        for (names, want) in [
            (&["interferometry"][..], "interferometry"),
            (&["localsim", "local_similarity"], "local_similarity"),
            (&["stack", "stacking"], "stacking"),
        ] {
            for name in names {
                assert_eq!(Analysis::from_name(name).unwrap().name(), want);
            }
        }
        let err = Analysis::from_name("bogus").unwrap_err().to_string();
        assert!(err.contains("unknown analysis \"bogus\""), "{err}");
    }

    #[test]
    fn output_to_dataset_shapes() {
        let data = signal(4, 600);
        let haee = Haee::builder().threads(1).build();
        let out = run(
            &Analysis::Interferometry(InterferometryParams::default()),
            &data,
            &haee,
        )
        .unwrap();
        let (dims, values) = out.to_dataset();
        assert_eq!(dims, vec![4]);
        assert_eq!(values.len(), 4);

        let p = StackingParams {
            window: 128,
            hop: 128,
            ..Default::default()
        };
        let (dims, values) = run(&Analysis::Stacking(p), &data, &haee)
            .unwrap()
            .to_dataset();
        assert_eq!(dims, vec![4, 128]);
        assert_eq!(values.len(), 4 * 128);
    }

    #[test]
    fn bad_params_surface_as_errors() {
        let data = signal(3, 200);
        let haee = Haee::builder().threads(1).build();
        let p = InterferometryParams {
            master_channel: 99,
            ..Default::default()
        };
        assert!(run(&Analysis::Interferometry(p), &data, &haee).is_err());
    }
}
