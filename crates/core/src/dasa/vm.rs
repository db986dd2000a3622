//! The VM that executes typechecked `dasl` programs.
//!
//! The [`dasl`] crate is a pure front end — lexer, parser, typechecker —
//! with no I/O and no kernels; what it hands over is the typed plan
//! `load | kernel* | op?`. This module is its back end, and the only
//! code that dispatches an analysis to its kernels. A source program and
//! an [`Analysis`](super::Analysis) (a named program) run the same code:
//!
//! * `load` is the caller-provided `channel × time` array (the I/O
//!   already happened through the lowered `IoPlan`, same planner and
//!   executor as every other read path), in the type it was stored in:
//!   a row is widened to `f64` as it enters a thread's scratch;
//! * `apply` runs the plan's kernel list over every channel row in one
//!   thread-parallel pass — `detrend | bandpass(..) | resample(..)`
//!   touches each row once, through the prepared kernels and per-thread
//!   scratch of [`rows`](super::rows);
//! * the op — `xcorr` / `localsim` / `stack` — calls a flagship kernel.
//!   `xcorr` is fused with the `apply` before it: each row goes through
//!   the chain and straight into its score, so the chain's output array
//!   is never built.
//!
//! An `apply` of `k > 1` kernels bumps the `dasl.fused_stages` counter
//! by `k - 1` — the whole-array passes fusion eliminated — which CI
//! gates on.

use super::haee::Haee;
use super::interferometry::{master_block, score_rows};
use super::local_similarity::{local_similarity, LocalSimiParams};
use super::rows::{blocks, chain_out_len, RowKernel, RowScratch, Sample};
use super::run::{AnalysisOutput, Job};
use super::stacking::{stacked_interferometry, StackingParams};
use crate::{DassaError, Result};
use arrayudf::Array2;
use dasl::{Kernel, Op, Program};

/// A [`Program`] bound to the sampling rate of the corpus it will run
/// over — needed to normalize `bandpass` corners (written in Hz) by the
/// Nyquist frequency. Construct one with [`Program::bind`] via the
/// [`BindProgram`] extension, or directly.
#[derive(Debug, Clone, Copy)]
pub struct BoundProgram<'a> {
    /// The compiled program.
    pub program: &'a Program,
    /// Sampling rate of the data, in Hz.
    pub sampling_hz: f64,
}

/// Extension trait adding [`bind`](BindProgram::bind) to
/// [`dasl::Program`].
pub trait BindProgram {
    /// Bind this program to a corpus sampling rate.
    fn bind(&self, sampling_hz: f64) -> BoundProgram<'_>;
}

impl BindProgram for Program {
    fn bind(&self, sampling_hz: f64) -> BoundProgram<'_> {
        BoundProgram {
            program: self,
            sampling_hz,
        }
    }
}

impl Job for BoundProgram<'_> {
    fn name(&self) -> &'static str {
        "dasl"
    }

    fn run<T: Sample>(&self, data: &Array2<T>, haee: &Haee) -> Result<AnalysisOutput> {
        execute(self.program, self.sampling_hz, data, haee)
    }
}

/// Normalize and validate a kernel against the sampling rate: bandpass
/// corners, written in Hz, become fractions of Nyquist; the Butterworth
/// design, the filter's initial state and the resampling FIR are
/// computed once per `apply`, not once per row — and only for an order
/// and a ratio inside the limits [`RowKernel::bandpass`] and
/// [`RowKernel::resample`] hold (the typechecker applies the same ones;
/// a `Program` need not have come through it).
fn prepare_kernel(k: &Kernel, sampling_hz: f64) -> Result<RowKernel> {
    match k {
        Kernel::Detrend => Ok(RowKernel::Detrend),
        Kernel::Demean => Ok(RowKernel::Demean),
        Kernel::OneBit => Ok(RowKernel::OneBit),
        Kernel::Bandpass {
            lo_hz,
            hi_hz,
            order,
        } => {
            let nyquist = sampling_hz / 2.0;
            let (lo, hi) = (lo_hz / nyquist, hi_hz / nyquist);
            if !(lo > 0.0 && lo < hi && hi < 1.0) {
                return Err(DassaError::BadSelection(format!(
                    "bandpass({lo_hz}, {hi_hz}) Hz does not fit inside (0, {nyquist}) Hz \
                     (the corpus Nyquist frequency)"
                )));
            }
            RowKernel::bandpass(*order, lo, hi)
        }
        Kernel::Resample { p, q } => RowKernel::resample(*p, *q),
    }
}

/// Execute a typechecked program over a merged `channel × time` array,
/// `f32` as stored or `f64`: the kernels as one fused pass, if there are
/// any, then the op, if there is one — `xcorr` takes the kernels into
/// its own pass.
///
/// `sampling_hz` must be the corpus' sampling rate (it normalizes
/// `bandpass` corners). The array is whatever the lowered `IoPlan`
/// produced — full extent or the `load` clause's window.
pub fn execute<T: Sample>(
    program: &Program,
    sampling_hz: f64,
    data: &Array2<T>,
    haee: &Haee,
) -> Result<AnalysisOutput> {
    let _root = obs::span("dasl");
    let apply = (!program.kernels.is_empty()).then(|| obs::span("apply"));
    let chain: Vec<RowKernel> = program
        .kernels
        .iter()
        .map(|k| prepare_kernel(k, sampling_hz))
        .collect::<Result<_>>()?;
    if chain.len() > 1 {
        obs::global()
            .counter("dasl.fused_stages")
            .add(chain.len() as u64 - 1);
    }
    let op = match &program.op {
        Some(Op::Xcorr { master }) => {
            drop(apply);
            let _span = obs::span("xcorr");
            return xcorr(data, &chain, *master as usize, haee).map(AnalysisOutput::Scores);
        }
        Some(op) if chain.is_empty() => return grid_op(op, data, haee),
        op => op,
    };
    let wave = fused_pass(data, &chain, haee)?;
    drop(apply);
    match op {
        None => Ok(AnalysisOutput::Map(wave)),
        Some(op) => grid_op(op, &wave, haee),
    }
}

/// `localsim` or `stack` over the whole array: the ops that need more
/// than one row of their input at a time (neighbouring channels, the
/// master's windows).
fn grid_op<T: Sample>(op: &Op, data: &Array2<T>, haee: &Haee) -> Result<AnalysisOutput> {
    Ok(match op {
        Op::Xcorr { .. } => unreachable!("xcorr runs fused with the kernel chain"),
        Op::LocalSim(p) => {
            let _span = obs::span("localsim");
            AnalysisOutput::Map(local_similarity(data, &LocalSimiParams::from(*p), haee))
        }
        Op::Stack(p) => {
            let _span = obs::span("stack");
            AnalysisOutput::Stacks(stacked_interferometry(
                data,
                &StackingParams::from(*p),
                haee,
            )?)
        }
    })
}

/// Run the fused kernel chain over every channel row in one
/// thread-parallel pass. The output row length — and whether every
/// `bandpass` stage gets rows long enough to filter — is known from the
/// chain before any row runs, so the output array is allocated once and
/// each thread's rows go through one [`RowScratch`], a block at a time.
fn fused_pass<T: Sample>(
    data: &Array2<T>,
    chain: &[RowKernel],
    haee: &Haee,
) -> Result<Array2<f64>> {
    let n_out = chain_out_len(chain, data.cols())?;
    let rows = data.rows();
    let mut flat = vec![0.0; rows * n_out];
    // rows of no samples leave `flat` empty, and then no thread runs
    omp::for_blocks(
        haee.threads_per_process,
        &mut flat,
        n_out.max(1),
        |mine, flat| {
            let first = mine.start;
            let mut scratch = RowScratch::default();
            for block in blocks(mine) {
                let outs = scratch.run_block(block.clone().map(|ch| data.row(ch)), chain);
                for (ch, out) in block.zip(outs) {
                    flat[(ch - first) * n_out..][..n_out].copy_from_slice(out);
                }
            }
        },
    );
    Ok(Array2::from_vec(rows, n_out, flat))
}

/// Per-channel spectral correlation against the master channel — the
/// back half of Algorithm 3, fused with the kernel chain before it: the
/// master's block of raw rows goes through the chain first, for the
/// master spectrum and those rows' scores, then every other raw row goes
/// through the chain and into its score, so the chain's output array is
/// never built.
fn xcorr<T: Sample>(
    data: &Array2<T>,
    chain: &[RowKernel],
    master: usize,
    haee: &Haee,
) -> Result<Vec<f64>> {
    let n_out = chain_out_len(chain, data.cols())?;
    if master >= data.rows() {
        return Err(DassaError::BadSelection(format!(
            "master channel {master} out of range for {} channels",
            data.rows()
        )));
    }
    let (spectrum, scored) = master_block(data, chain, master, n_out);
    Ok(score_rows(data, chain, &spectrum, scored, haee))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dasa::interferometry::InterferometryParams;
    use crate::dasa::{run, Analysis};
    use std::sync::{Mutex, MutexGuard, PoisonError};
    use std::time::Duration;

    /// Taken by the tests here that count `dasl.fused_stages` and by the
    /// ones that run many fused programs, which would bump the
    /// process-wide counter in the middle of a count.
    fn fusion_counted() -> MutexGuard<'static, ()> {
        static COUNTING: Mutex<()> = Mutex::new(());
        COUNTING.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn signal(channels: usize, n: usize) -> Array2<f64> {
        Array2::from_fn(channels, n, |c, t| {
            ((t as f64 - c as f64 * 2.0) * 0.07).sin() + 0.2 * ((t * 7 + c * 3) % 13) as f64 / 13.0
        })
    }

    /// A program written in Hz and run at 500 Hz computes bit-identical
    /// results to the interferometry `Analysis`, which lowers the same
    /// stages with corners in fractions of Nyquist and runs at Nyquist 1.
    #[test]
    fn program_matches_hand_wired_interferometry() {
        let hz = 500.0;
        let data = signal(6, 2000);
        let haee = Haee::builder().threads(2).build();

        // 0.5–24 Hz on 500 Hz data == the Analysis defaults
        // (0.002, 0.096) of Nyquist; resample(2) == resample_q 2.
        let program = dasl::compile(
            "load(\"corpus\") | detrend | bandpass(0.5, 24) | resample(2) \
             | xcorr(master=ch[0])",
        )
        .unwrap();
        let out = execute(&program, hz, &data, &haee).unwrap();

        let expected = Analysis::Interferometry(InterferometryParams::default());
        let expected = run(&expected, &data, &haee).unwrap();
        assert_eq!(out.as_scores().unwrap(), expected.as_scores().unwrap());
    }

    /// Rows travel through a thread's scratch in blocks of four, and
    /// which rows share a block depends on the thread count. None of it
    /// may show: for every remainder of rows a thread can be left with,
    /// `fused_pass` and `score_rows` return what one row at a time does.
    #[test]
    fn row_blocks_never_show_in_an_output() {
        let _counting = fusion_counted();
        use crate::dasa::interferometry::{prepare_master, preprocess_channel};
        let p = InterferometryParams::default();
        let chain = [
            RowKernel::Detrend,
            RowKernel::bandpass(p.filter_order, p.band.0, p.band.1).unwrap(),
            RowKernel::resample(p.resample_p, p.resample_q).unwrap(),
        ];
        for rows in [1usize, 2, 3, 4, 5, 8, 9, 17] {
            let data = signal(rows, 601);
            let mut one_by_one = RowScratch::default();
            let want: Vec<f64> = (0..rows)
                .flat_map(|r| one_by_one.run(data.row(r), &chain).to_vec())
                .collect();
            let master_row = rows / 2;
            let params = InterferometryParams {
                master_channel: master_row,
                ..p
            };
            let master = prepare_master(data.row(master_row), &params);
            let want_scores: Vec<f64> = (0..rows)
                .map(|r| {
                    let spectrum = if r == master_row {
                        master.spectrum.clone()
                    } else {
                        dsp::fft_real(&preprocess_channel(data.row(r), &params))
                    };
                    dsp::abscorr_complex(&spectrum, &master.spectrum)
                })
                .collect();
            for threads in [1, 2, 3, 5] {
                let haee = Haee::builder().threads(threads).build();
                let out = fused_pass(&data, &chain, &haee).unwrap();
                assert_eq!((out.rows(), out.cols()), (rows, 301));
                assert_eq!(out.as_slice(), want, "{rows} rows on {threads} threads");
                let out = run(&Analysis::Interferometry(params), &data, &haee).unwrap();
                assert_eq!(
                    out.as_scores().unwrap(),
                    want_scores,
                    "{rows} rows on {threads} threads"
                );
            }
        }
    }

    /// `kernels | xcorr` takes each raw row through the chain and into
    /// its score without building the chain's output array. It must
    /// score what the materialised two steps do — `apply`, then `xcorr`
    /// over its output — for every remainder of rows a thread can hold,
    /// with the master first, in the middle and last; and it still
    /// counts the `k - 1` passes its `k` kernels fused.
    #[test]
    fn fused_xcorr_equals_apply_then_xcorr() {
        let _counting = fusion_counted();
        let kernels = "load(\"c\") | detrend | bandpass(0.5, 24) | resample(2)";
        let apply = dasl::compile(kernels).unwrap();
        // the scores of `fused`, and of `apply` then `xcorr`, over `data`
        fn both<T: Sample>(
            programs: [&Program; 3],
            data: &Array2<T>,
            haee: &Haee,
        ) -> (Vec<u64>, Vec<u64>) {
            let [fused, apply, xcorr] = programs;
            let bits = |out: AnalysisOutput| -> Vec<u64> {
                out.as_scores()
                    .unwrap()
                    .iter()
                    .map(|s| s.to_bits())
                    .collect()
            };
            let wave = execute(apply, 500.0, data, haee).unwrap();
            let materialised = execute(xcorr, 500.0, wave.as_map().unwrap(), haee).unwrap();
            (
                bits(execute(fused, 500.0, data, haee).unwrap()),
                bits(materialised),
            )
        }
        for rows in [1usize, 2, 3, 4, 5, 8, 9, 17] {
            let data = signal(rows, 601);
            let block = Array2::from_fn(rows, 601, |c, t| data.get(c, t) as f32);
            for master in [0, rows / 2, rows - 1] {
                let fused =
                    dasl::compile(&format!("{kernels} | xcorr(master=ch[{master}])")).unwrap();
                let xcorr =
                    dasl::compile(&format!("load(\"c\") | xcorr(master=ch[{master}])")).unwrap();
                let programs = [&fused, &apply, &xcorr];
                for threads in [1, 2, 3] {
                    let haee = Haee::builder().threads(threads).build();
                    let what = format!("{rows} rows, master {master}, {threads} threads");
                    let (got, want) = both(programs, &data, &haee);
                    assert_eq!(got, want, "f64, {what}");
                    let (got, want) = both(programs, &block, &haee);
                    assert_eq!(got, want, "f32, {what}");
                }
            }
        }
        let fused = dasl::compile(&format!("{kernels} | xcorr(master=ch[1])")).unwrap();
        let (data, haee) = (signal(3, 601), Haee::builder().threads(2).build());
        let added = fused_stages_added_by(|| {
            execute(&fused, 500.0, &data, &haee).unwrap();
        });
        assert_eq!(added, 2);
    }

    /// What one call of `run` adds to the `dasl.fused_stages` counter.
    /// The counter is process-wide, and tests in other modules that run
    /// fused programs bump it too, which only ever adds: the count is
    /// the smallest increase over calls spread out in time.
    fn fused_stages_added_by(run: impl Fn()) -> u64 {
        let count = || obs::global().snapshot().counter("dasl.fused_stages");
        (0..50)
            .map(|_| {
                std::thread::sleep(Duration::from_micros(100));
                let before = count();
                run();
                count() - before
            })
            .min()
            .unwrap()
    }

    /// `bandpass` order and `resample` factors size what a kernel's
    /// preparation builds — a design whose cost grows with order² and
    /// whose coefficients stop being finite (`FiltFilt::new` then panics
    /// in its linear solve), a FIR of 20 taps per unit of the factor
    /// (160 GB for `resample(1000000007)`: the process aborts). The
    /// typechecker bounds both; so does the VM, for a program that did
    /// not come through it — such as an `Analysis` lowered from its
    /// parameter struct.
    #[test]
    fn kernel_sizes_from_outside_are_a_typed_error_before_anything_is_built() {
        let haee = Haee::builder().threads(2).build();
        let data = signal(4, 2000);
        let exec = |kernel: Kernel| {
            let program = Program {
                load: dasl::LoadSpec {
                    corpus: "c".into(),
                    time: None,
                    channels: None,
                    strategy: dasl::Strategy::Auto,
                },
                kernels: vec![kernel],
                op: None,
                result: dasl::Ty::Waveforms {
                    channels: dasl::Dim::Unknown,
                    samples: dasl::Dim::Unknown,
                },
            };
            execute(&program, 500.0, &data, &haee)
        };
        let bandpass = |order| Kernel::Bandpass {
            lo_hz: 0.5,
            hi_hz: 24.0,
            order,
        };
        for order in [0, 9, 512, 2048, usize::MAX] {
            let err = exec(bandpass(order)).unwrap_err();
            assert!(matches!(err, DassaError::BadSelection(_)), "{err:?}");
            let msg = err.to_string();
            assert!(
                msg.contains("bandpass order") && msg.contains("1..=8"),
                "{msg}"
            );
        }
        assert!(exec(bandpass(8)).is_ok());
        for (p, q) in [
            (1, 1_000_000_007),
            (4097, 1),
            (0, 3),
            (3, 0),
            (usize::MAX, 2),
        ] {
            let err = exec(Kernel::Resample { p, q }).unwrap_err();
            assert!(matches!(err, DassaError::BadSelection(_)), "{err:?}");
            let msg = err.to_string();
            assert!(
                msg.contains("resample(") && msg.contains("at most 4096"),
                "{msg}"
            );
        }
        // the limit is on the reduced ratio
        assert!(exec(Kernel::Resample { p: 8194, q: 16388 }).is_ok());
        assert!(exec(Kernel::Resample { p: 1, q: 4096 }).is_ok());

        // the source-text path stops at the typechecker, with a span
        for src in [
            "load(\"corpus\") | detrend | resample(1000000007) | xcorr(master=ch[0])",
            "load(\"corpus\") | detrend | bandpass(0.5, 24, order=2048) | xcorr(master=ch[0])",
        ] {
            let err = dasl::compile(src).unwrap_err();
            assert!(err.render(src).contains('^'), "{}", err.render(src));
        }

        // the named analyses lower to the same kernels
        let p = InterferometryParams::default();
        for bad in [
            InterferometryParams {
                filter_order: 2048,
                ..p
            },
            InterferometryParams {
                resample_q: 1_000_000_007,
                ..p
            },
            InterferometryParams {
                band: (0.5, 0.2),
                ..p
            },
            InterferometryParams {
                band: (0.1, 1.5),
                ..p
            },
        ] {
            let err = run(&Analysis::Interferometry(bad), &data, &haee).unwrap_err();
            assert!(
                matches!(err, DassaError::BadSelection(_)),
                "{bad:?}: {err:?}"
            );
        }
        let bad = StackingParams {
            filter_order: 512,
            ..Default::default()
        };
        let err = stacked_interferometry(&data, &bad, &haee).unwrap_err();
        assert!(err.to_string().contains("1..=8"), "{err}");
    }

    #[test]
    fn fused_pass_length_matches_kernel_out_len() {
        let data = signal(3, 999);
        let haee = Haee::builder().threads(2).build();
        let program =
            dasl::compile("load(\"c\") | detrend | bandpass(1, 8) | resample(4) | demean").unwrap();
        let out = execute(&program, 100.0, &data, &haee).unwrap();
        // Waveform-typed result comes back as a map: 999 → ceil(999/4).
        let map = out.as_map().unwrap();
        assert_eq!((map.rows(), map.cols()), (3, 250));
    }

    #[test]
    fn fusion_counter_accumulates() {
        let _counting = fusion_counted();
        let data = signal(2, 400);
        let haee = Haee::builder().threads(1).build();
        let program =
            dasl::compile("load(\"c\") | detrend | demean | onebit | xcorr(master=ch[0])").unwrap();
        let added = fused_stages_added_by(|| {
            execute(&program, 100.0, &data, &haee).unwrap();
        });
        assert_eq!(added, 2);
    }

    #[test]
    fn bandpass_outside_nyquist_rejected() {
        let data = signal(2, 200);
        let haee = Haee::builder().threads(1).build();
        let program = dasl::compile("load(\"c\") | bandpass(0.5, 80)").unwrap();
        // 80 Hz corner on 100 Hz data (Nyquist 50) must fail.
        let err = execute(&program, 100.0, &data, &haee).unwrap_err();
        assert!(err.to_string().contains("Nyquist"), "{err}");
    }

    /// `filtfilt` reflects 3·(max(len a, len b) − 1) samples onto each
    /// end and panics on a row that is not longer; the VM knows every
    /// intermediate row length before the first row runs.
    #[test]
    fn bandpass_over_rows_too_short_to_filter_is_a_typed_error() {
        let haee = Haee::builder().threads(2).build();
        // 500 samples at 500 Hz, 50:1 → 10 samples into an order-4
        // bandpass (9 coefficients → 24 reflected samples)
        let program = dasl::compile("load(\"c\") | resample(50) | bandpass(1, 4)").unwrap();
        let err = execute(&program, 500.0, &signal(4, 500), &haee).unwrap_err();
        assert!(matches!(err, DassaError::BadSelection(_)), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains("stage 2") && msg.contains("24") && msg.contains("got 10"),
            "{msg}"
        );
        // the boundary: 24 samples is too short, 25 filters
        let program = dasl::compile("load(\"c\") | bandpass(1, 4)").unwrap();
        assert!(execute(&program, 500.0, &signal(2, 24), &haee).is_err());
        let out = execute(&program, 500.0, &signal(2, 25), &haee).unwrap();
        assert_eq!(out.as_map().unwrap().cols(), 25);
        // the named analyses share the check
        let p = Analysis::Interferometry(InterferometryParams::default());
        assert!(matches!(
            run(&p, &signal(2, 24), &haee),
            Err(DassaError::BadSelection(_))
        ));
        let program = dasl::compile("load(\"c\") | stack(window=8, hop=8)").unwrap();
        assert!(matches!(
            execute(&program, 500.0, &signal(2, 64), &haee),
            Err(DassaError::BadSelection(_))
        ));
    }

    #[test]
    fn xcorr_scores_the_master_row_like_any_other() {
        // the master's row reuses the master spectrum; a copy of the
        // master elsewhere goes through the per-row transform — same score
        let row: Vec<f64> = (0..300).map(|t| (t as f64 * 0.07).sin()).collect();
        let data = Array2::from_vec(
            3,
            300,
            [row.clone(), signal(1, 300).into_vec(), row].concat(),
        );
        let haee = Haee::builder().threads(2).build();
        let program = dasl::compile("load(\"c\") | xcorr(master=ch[0])").unwrap();
        let out = execute(&program, 100.0, &data, &haee).unwrap();
        let scores = out.as_scores().unwrap();
        assert_eq!(scores[0].to_bits(), scores[2].to_bits());
        assert!((scores[0] - 1.0).abs() < 1e-12 && scores[1] < 0.99);
        // no columns: no energy, every score 0
        let empty = Array2::<f32>::from_vec(2, 0, Vec::new());
        assert_eq!(
            execute(&program, 100.0, &empty, &haee)
                .unwrap()
                .as_scores()
                .unwrap(),
            [0.0, 0.0]
        );
    }

    #[test]
    fn localsim_and_stack_delegate_to_the_flagship_analyses() {
        let data = signal(5, 600);
        let haee = Haee::builder().threads(2).build();

        let program = dasl::compile(
            "load(\"c\") | localsim(half_window=4, channel_offset=1, search_half=2, \
             time_stride=8)",
        )
        .unwrap();
        let out = execute(&program, 100.0, &data, &haee).unwrap();
        let p = LocalSimiParams {
            half_window: 4,
            channel_offset: 1,
            search_half: 2,
            time_stride: 8,
        };
        assert_eq!(out.as_map().unwrap(), &local_similarity(&data, &p, &haee));

        let program = dasl::compile("load(\"c\") | stack(window=128, hop=128)").unwrap();
        let out = execute(&program, 100.0, &data, &haee).unwrap();
        let p = StackingParams {
            window: 128,
            hop: 128,
            ..Default::default()
        };
        assert_eq!(
            out.as_stacks().unwrap(),
            stacked_interferometry(&data, &p, &haee).unwrap().as_slice()
        );
    }

    /// `onebit` is idempotent bit for bit (a sign becomes ±1 or 0), so a
    /// chain of N of them is one. Chains of 255 and more stages used to
    /// fail: a byte-sized constant index wrapped into the wrong constant,
    /// and a byte-sized kernel count wrapped into a stream that did not
    /// decode.
    #[test]
    fn long_kernel_chains_run_and_equal_their_one_stage_program() {
        let _counting = fusion_counted();
        let data = signal(5, 400);
        let one = dasl::compile("load(\"c\") | onebit | xcorr(master=ch[0])").unwrap();
        for n in [255, 256, 300] {
            let src = format!("load(\"c\"){} | xcorr(master=ch[0])", " | onebit".repeat(n));
            let program = dasl::compile(&src).unwrap();
            assert_eq!(program.kernels.len(), n);
            for threads in [1, 3] {
                let haee = Haee::builder().threads(threads).build();
                let want = execute(&one, 100.0, &data, &haee).unwrap();
                let got = execute(&program, 100.0, &data, &haee)
                    .unwrap_or_else(|e| panic!("{n} stages on {threads} threads: {e}"));
                let bits = |out: &AnalysisOutput| -> Vec<u64> {
                    out.as_scores()
                        .unwrap()
                        .iter()
                        .map(|s| s.to_bits())
                        .collect()
                };
                assert_eq!(bits(&got), bits(&want), "{n} stages on {threads} threads");
            }
        }
    }

    #[test]
    fn master_out_of_range_fails_at_runtime() {
        let data = signal(3, 200);
        let haee = Haee::builder().threads(1).build();
        let program = dasl::compile("load(\"c\") | xcorr(master=ch[7])").unwrap();
        assert!(execute(&program, 100.0, &data, &haee).is_err());
    }
}
