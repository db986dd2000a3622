//! The typed plan of a `dasl` program.
//!
//! Under the type rules every well-typed program has one shape —
//! `load | kernel* | (xcorr | localsim | stack)?` — because every stage
//! after `load` wants waveforms and the three ops produce something
//! else. A [`Program`] is that shape and nothing more: the [`LoadSpec`],
//! the element-wise [`Kernel`]s in pipe order (the one fused pass), the
//! optional terminal [`Op`] and the result [`Ty`]. The typechecker builds
//! it directly; the engine's VM (`dassa::dasa::vm`) walks it, and
//! [`Program::disassemble`] lists it for `das_pipeline`.

use crate::types::Ty;
use std::fmt;

/// Which §IV-B strategy a parallel read uses — the one enum for it,
/// spelled `strategy="..."` in a `load(...)` clause and re-exported by
/// the engine as `dass::ReadStrategy`. `IoPlan::for_vca` resolves every
/// value to an exchange. Both concrete strategies deliver to each rank
/// its contiguous channel block of the full time extent and return
/// bit-identical arrays, so the choice is purely one of performance:
/// Figure 7 measures ~37× in favour of communication-avoiding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Communication-avoiding when it can spread whole files across
    /// ranks (`ranks > 1 && files >= ranks`), else collective-per-file
    /// (single rank, or ranks that would sit idle in the round-robin
    /// deal).
    #[default]
    Auto,
    /// Collective-per-file (Figure 5a): one broadcast per member file.
    CollectivePerFile,
    /// The paper's communication-avoiding method (Figure 5b): one
    /// all-to-all.
    CommAvoiding,
    /// Price both strategies on a Cori-class performance model and
    /// take the cheaper (`choose_strategy_modeled`).
    Modeled,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Auto => write!(f, "auto"),
            Strategy::CollectivePerFile => write!(f, "collective"),
            Strategy::CommAvoiding => write!(f, "comm_avoiding"),
            Strategy::Modeled => write!(f, "modeled"),
        }
    }
}

/// The checked form of a `load(...)` clause: everything the engine
/// needs to lower it into a chunk-granular `IoPlan`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSpec {
    /// Corpus directory (the CLI's `-d` overrides it).
    pub corpus: String,
    /// Global time-sample window `[t0, t1)`, or the full extent.
    pub time: Option<(u64, u64)>,
    /// Channel window `[c0, c1)`, or all channels.
    pub channels: Option<(u64, u64)>,
    /// Read-strategy choice for distributed execution.
    pub strategy: Strategy,
}

impl fmt::Display for LoadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "load \"{}\"", self.corpus)?;
        match self.time {
            Some((a, b)) => write!(f, " t={a}..{b}")?,
            None => write!(f, " t=*")?,
        }
        match self.channels {
            Some((a, b)) => write!(f, " ch={a}..{b}")?,
            None => write!(f, " ch=*")?,
        }
        write!(f, " strategy={}", self.strategy)
    }
}

/// One element-wise (per-channel row) kernel. A program's kernels run
/// as one fused pass, so the VM traverses each tile once however long
/// the chain is.
///
/// A program is text from outside the engine, and two kernel arguments
/// size what the engine builds before it sees a sample, so the
/// typechecker bounds them: [`MAX_BANDPASS_ORDER`] and
/// [`MAX_RESAMPLE_FACTOR`].
#[derive(Debug, Clone, PartialEq)]
pub enum Kernel {
    /// Remove the per-row linear trend (`Das_detrend`).
    Detrend,
    /// Remove the per-row mean.
    Demean,
    /// Sign-only (one-bit) amplitude normalization.
    OneBit,
    /// Zero-phase Butterworth bandpass; corners in Hz, normalized by
    /// the corpus Nyquist at execution time.
    Bandpass {
        /// Low corner in Hz.
        lo_hz: f64,
        /// High corner in Hz.
        hi_hz: f64,
        /// Filter order.
        order: usize,
    },
    /// Rational-rate resampling by `p/q` (`Das_resample`).
    Resample {
        /// Upsampling factor.
        p: usize,
        /// Downsampling factor.
        q: usize,
    },
}

/// The highest `bandpass` order a program may ask for. The engine designs
/// the filter in transfer-function form, which stops being a stable
/// filter as the order grows (narrow bands first; the engine's `dsp`
/// crate has the numbers) and whose design cost grows with the square of
/// the order; the engine checks that this equals its own limit.
pub const MAX_BANDPASS_ORDER: u64 = 8;

/// The largest `resample` factor a program may ask for, after `p/q` is
/// reduced: the anti-alias FIR has `20·max(p, q) + 1` taps, so this is a
/// filter of at most 81 921 taps (640 KiB). The engine checks that this
/// equals its own limit.
pub const MAX_RESAMPLE_FACTOR: u64 = 4096;

impl Kernel {
    /// Output row length for an input row of `n` samples. Mirrors the
    /// kernels' own length rules (`dsp::resample` yields
    /// `ceil(n·p/q)` after reducing `p/q`).
    pub fn out_len(&self, n: usize) -> usize {
        match self {
            Kernel::Detrend | Kernel::Demean | Kernel::OneBit | Kernel::Bandpass { .. } => n,
            Kernel::Resample { p, q } => {
                let g = gcd(*p, *q);
                let (p, q) = (p / g, q / g);
                if p == 1 && q == 1 {
                    n
                } else {
                    (n * p).div_ceil(q)
                }
            }
        }
    }
}

pub(crate) fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Kernel::Detrend => write!(f, "detrend"),
            Kernel::Demean => write!(f, "demean"),
            Kernel::OneBit => write!(f, "onebit"),
            Kernel::Bandpass {
                lo_hz,
                hi_hz,
                order,
            } => {
                write!(f, "bandpass({lo_hz}..{hi_hz} Hz, order {order})")
            }
            Kernel::Resample { p, q } => write!(f, "resample({p}:{q})"),
        }
    }
}

/// Parameters of a `localsim` terminal stage (mirrors the engine's
/// `LocalSimiParams`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalSimSpec {
    /// `M`: half the comparison window, in samples.
    pub half_window: u64,
    /// `K`: channel offset of the two neighbours.
    pub channel_offset: u64,
    /// `L`: half the lag-search range, in samples.
    pub search_half: u64,
    /// Output decimation along time.
    pub time_stride: u64,
}

impl Default for LocalSimSpec {
    fn default() -> Self {
        LocalSimSpec {
            half_window: 25,
            channel_offset: 1,
            search_half: 10,
            time_stride: 25,
        }
    }
}

impl fmt::Display for LocalSimSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "localsim half_window={} channel_offset={} search_half={} time_stride={}",
            self.half_window, self.channel_offset, self.search_half, self.time_stride
        )
    }
}

/// Temporal normalization applied to each `stack` window before
/// correlation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeNorm {
    /// No temporal normalization.
    None,
    /// One-bit (sign only).
    OneBit,
    /// Running absolute mean with the given half-window in samples.
    RunningAbsMean(usize),
}

/// Parameters of a `stack` terminal stage (mirrors the engine's
/// `StackingParams`). The source syntax spells `window`, `hop` and
/// `master`; the window normalization — `band`, `filter_order`,
/// `time_norm`, `whiten` — lives only here, in the plan, so a program
/// built directly (not from text) can set it. The engine's
/// `StackingParams` take their defaults from [`StackSpec::default`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackSpec {
    /// Window length in samples.
    pub window: u64,
    /// Hop between successive windows.
    pub hop: u64,
    /// Master channel index.
    pub master: u64,
    /// Bandpass corners as fractions of Nyquist (not Hz).
    pub band: (f64, f64),
    /// Bandpass filter order.
    pub filter_order: usize,
    /// Temporal normalization of each window.
    pub time_norm: TimeNorm,
    /// Whiten each window's spectrum over `band`.
    pub whiten: bool,
}

impl Default for StackSpec {
    fn default() -> Self {
        StackSpec {
            window: 512,
            hop: 512,
            master: 0,
            band: (0.02, 0.5),
            filter_order: 4,
            time_norm: TimeNorm::OneBit,
            whiten: true,
        }
    }
}

impl fmt::Display for StackSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stack window={} hop={} master=ch[{}] band={:?} order={} norm={:?} whiten={}",
            self.window,
            self.hop,
            self.master,
            self.band,
            self.filter_order,
            self.time_norm,
            self.whiten
        )
    }
}

/// What ends a program: the op the waveforms are handed to.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `xcorr(master=ch[k])`: per-channel correlation vs the master.
    Xcorr {
        /// Master channel index.
        master: u64,
    },
    /// `localsim(...)`: local-similarity event map.
    LocalSim(LocalSimSpec),
    /// `stack(...)`: window-stacked cross-correlation.
    Stack(StackSpec),
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Xcorr { master } => write!(f, "xcorr master=ch[{master}]"),
            Op::LocalSim(p) => write!(f, "{p}"),
            Op::Stack(p) => write!(f, "{p}"),
        }
    }
}

/// A typechecked `dasl` program: `load | kernel* | op?`.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The leading `load(...)` clause.
    pub load: LoadSpec,
    /// The element-wise kernels in pipe order: one fused pass over the
    /// rows, or none when empty.
    pub kernels: Vec<Kernel>,
    /// The op that ends the program; without one the result is the
    /// waveforms the kernels leave.
    pub op: Option<Op>,
    /// The typechecked result type.
    pub result: Ty,
}

impl Program {
    /// The program's load clause.
    pub fn load_spec(&self) -> &LoadSpec {
        &self.load
    }

    /// Element-wise passes eliminated by fusion: `k` kernels run as one
    /// pass, saving `k - 1`.
    pub fn fused_stages(&self) -> u64 {
        self.kernels.len().saturating_sub(1) as u64
    }

    /// A human-readable listing of the plan — what `das_pipeline` logs
    /// before executing a program.
    pub fn disassemble(&self) -> String {
        let mut out = format!(
            "; dasl program: {} stages fused, result {}\n  {}\n",
            self.fused_stages(),
            self.result,
            self.load
        );
        if !self.kernels.is_empty() {
            let ks: Vec<String> = self.kernels.iter().map(Kernel::to_string).collect();
            out.push_str(&format!("  apply {}", ks.join(" | ")));
            if ks.len() > 1 {
                out.push_str(&format!("   ; {} kernels, one pass", ks.len()));
            }
            out.push('\n');
        }
        if let Some(op) = &self.op {
            out.push_str(&format!("  {op}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(src: &str) -> Program {
        crate::compile(src).unwrap()
    }

    #[test]
    fn example_fuses_three_kernels_into_one_apply() {
        let p = plan(
            "load(\"corpus\", 0..60) | detrend | bandpass(0.5, 16) | resample(4) \
             | xcorr(master=ch[0])",
        );
        assert_eq!(p.load.time, Some((0, 60)));
        assert_eq!(p.kernels.len(), 3, "{p:?}");
        assert_eq!(p.op, Some(Op::Xcorr { master: 0 }));
        assert!(matches!(p.result, Ty::Scores { .. }));
        // Three fused element-wise stages eliminate two passes.
        assert_eq!(p.fused_stages(), 2);
    }

    #[test]
    fn lone_kernel_fuses_nothing() {
        let p = plan("load(\"c\") | detrend");
        assert_eq!(p.kernels, [Kernel::Detrend]);
        assert_eq!((&p.op, p.fused_stages()), (&None, 0));
        let p = plan("load(\"c\") | localsim");
        assert!(p.kernels.is_empty());
        assert_eq!(p.fused_stages(), 0);
    }

    #[test]
    fn kernel_order_is_preserved_in_the_plan() {
        let p = plan("load(\"c\") | onebit | bandpass(1, 8) | demean | stack(window=64)");
        assert!(
            matches!(
                p.kernels[..],
                [Kernel::OneBit, Kernel::Bandpass { .. }, Kernel::Demean]
            ),
            "{p:?}"
        );
        assert!(matches!(
            p.op,
            Some(Op::Stack(StackSpec { window: 64, .. }))
        ));
    }

    #[test]
    fn disassembly_mentions_fusion() {
        let p = plan("load(\"c\") | detrend | demean | xcorr(master=ch[0])");
        let dis = p.disassemble();
        assert!(dis.contains("2 kernels, one pass"), "{dis}");
        assert!(dis.contains("1 stages fused"), "{dis}");
        assert!(dis.contains("load \"c\""), "{dis}");
        assert!(dis.contains("apply detrend | demean"), "{dis}");
        assert!(dis.contains("xcorr master=ch[0]"), "{dis}");
    }

    #[test]
    fn resample_out_len_matches_ceil_rule() {
        let k = Kernel::Resample { p: 1, q: 4 };
        assert_eq!(k.out_len(2400), 600);
        assert_eq!(k.out_len(2401), 601);
        assert_eq!(k.out_len(0), 0);
        // Reduction: 2/4 == 1/2.
        let k = Kernel::Resample { p: 2, q: 4 };
        assert_eq!(k.out_len(5), 3);
        // Identity after reduction.
        let k = Kernel::Resample { p: 3, q: 3 };
        assert_eq!(k.out_len(7), 7);
    }

    #[test]
    fn filters_preserve_length() {
        for k in [Kernel::Detrend, Kernel::Demean, Kernel::OneBit] {
            assert_eq!(k.out_len(123), 123);
        }
        let k = Kernel::Bandpass {
            lo_hz: 0.5,
            hi_hz: 16.0,
            order: 4,
        };
        assert_eq!(k.out_len(123), 123);
    }
}
