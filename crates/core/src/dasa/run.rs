//! One entry point for every DASA analysis.
//!
//! The paper's pipelines share a shape — merged `channel × time` array
//! in, per-channel (or per-cell) result out, hybrid engine underneath —
//! but the seed grew three differently-shaped functions. [`run`] unifies
//! them behind [`Analysis`] so callers (the `das_pipeline` tool, the
//! MATLAB bridge, benchmarks) dispatch on data, not on code, and every
//! pipeline gets the same observability: each one times itself as a
//! `span.<name>` root with named child spans for its stages.

use super::haee::Haee;
use super::interferometry::{interferometry, InterferometryParams};
use super::local_similarity::{local_similarity, LocalSimiParams};
use super::stacking::{stacked_interferometry, StackedCorrelation, StackingParams};
use crate::Result;
use arrayudf::Array2;

/// A DASA analysis and its parameters — the unit [`run`] dispatches on.
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
    /// Stable short name, used for span names and CLI matching.
    pub fn name(&self) -> &'static str {
        match self {
            Analysis::LocalSimilarity(_) => "local_similarity",
            Analysis::Interferometry(_) => "interferometry",
            Analysis::Stacking(_) => "stacking",
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

/// Anything [`run`] can execute over a merged `channel × time` array:
/// a parameterized [`Analysis`], a compiled [`dasl::Program`], or a
/// [`BoundProgram`](super::vm::BoundProgram) (a program bound to its
/// corpus' sampling rate). One execution API for both the builder-
/// assembled and the compiled form.
pub trait Job {
    /// Stable short name, used for span names and logging.
    fn name(&self) -> &'static str;

    /// Execute over `data` with the hybrid engine.
    fn run(&self, data: &Array2<f64>, haee: &Haee) -> Result<AnalysisOutput>;
}

impl Job for Analysis {
    fn name(&self) -> &'static str {
        Analysis::name(self)
    }

    fn run(&self, data: &Array2<f64>, haee: &Haee) -> Result<AnalysisOutput> {
        match self {
            Analysis::LocalSimilarity(p) => {
                Ok(AnalysisOutput::Map(local_similarity(data, p, haee)))
            }
            Analysis::Interferometry(p) => {
                Ok(AnalysisOutput::Scores(interferometry(data, p, haee)?))
            }
            Analysis::Stacking(p) => Ok(AnalysisOutput::Stacks(stacked_interferometry(
                data, p, haee,
            )?)),
        }
    }
}

/// A bare compiled program runs at the acquisition default of 500 Hz;
/// bind it to the real rate with
/// [`BindProgram::bind`](super::vm::BindProgram::bind) when the corpus
/// is known.
impl Job for dasl::Program {
    fn name(&self) -> &'static str {
        "dasl"
    }

    fn run(&self, data: &Array2<f64>, haee: &Haee) -> Result<AnalysisOutput> {
        super::vm::execute(self, 500.0, data, haee)
    }
}

/// Run a [`Job`] — an [`Analysis`] or a compiled `dasl` program — over a
/// merged `channel × time` array with the hybrid engine. The single
/// dispatcher every caller goes through.
///
/// Each pipeline times itself as `span.<name>` in the global [`obs`]
/// registry, with child spans per stage (`prepare_master`, `apply`); the
/// paths nest under whatever span the caller has open, so `das_pipeline`
/// produces e.g. `span.pipeline.analyze.interferometry.apply`.
pub fn run<J: Job + ?Sized>(job: &J, data: &Array2<f64>, haee: &Haee) -> Result<AnalysisOutput> {
    job.run(data, haee)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(channels: usize, n: usize) -> Array2<f64> {
        Array2::from_fn(channels, n, |c, t| {
            ((t as f64 - c as f64 * 2.0) * 0.07).sin() + 0.2 * ((t * 7 + c * 3) % 13) as f64 / 13.0
        })
    }

    #[test]
    fn dispatcher_matches_direct_calls() {
        let data = signal(5, 600);
        let haee = Haee::builder().threads(2).build();

        let p = LocalSimiParams {
            half_window: 4,
            channel_offset: 1,
            search_half: 2,
            time_stride: 8,
        };
        let out = run(&Analysis::LocalSimilarity(p), &data, &haee).unwrap();
        assert_eq!(out.as_map().unwrap(), &local_similarity(&data, &p, &haee));

        let p = InterferometryParams::default();
        let out = run(&Analysis::Interferometry(p), &data, &haee).unwrap();
        assert_eq!(
            out.as_scores().unwrap(),
            interferometry(&data, &p, &haee).unwrap().as_slice()
        );

        let p = StackingParams {
            window: 128,
            hop: 128,
            ..Default::default()
        };
        let out = run(&Analysis::Stacking(p), &data, &haee).unwrap();
        assert_eq!(
            out.as_stacks().unwrap(),
            stacked_interferometry(&data, &p, &haee).unwrap().as_slice()
        );
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
            "span.interferometry.prepare_master",
            "span.interferometry.apply",
        ] {
            let h = snap
                .histogram(name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert!(h.count >= 1);
        }
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
