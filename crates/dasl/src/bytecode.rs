//! Compact bytecode for compiled `dasl` programs.
//!
//! A [`Program`] is a flat byte stream of register-style instructions
//! plus a constant pool holding the structured operands (load clauses,
//! prepared kernels, stage parameter blocks). The encoding is one
//! opcode byte followed by one-byte operands — registers and constant
//! indices — except `apply`, whose kernel list is length-prefixed:
//!
//! | opcode | encoding                        | meaning                            |
//! |--------|---------------------------------|------------------------------------|
//! | `01`   | `load dst, c`                   | bind the lowered I/O plan's array  |
//! | `02`   | `apply dst, src, n, k₀…kₙ₋₁`    | one fused pass of `n` kernels      |
//! | `03`   | `xcorr dst, src, c`             | correlate rows vs master `ch[k]`   |
//! | `04`   | `localsim dst, src, c`          | local-similarity event map         |
//! | `05`   | `stack dst, src, c`             | window-stacked cross-correlation   |
//! | `06`   | `ret src`                       | program result                     |
//!
//! The interpreter lives in the engine crate (`dassa::dasa::vm`); this
//! module owns the format, the [`decode`](Program::decode) helper both
//! the VM and the disassembler share, and the [`Program::disassemble`]
//! listing `das_pipeline` logs before running a program.

use crate::types::Ty;
use std::fmt;

/// Opcode bytes.
pub mod op {
    /// `load dst, c` — bind the array produced by lowering the load
    /// clause at const `c` into an `IoPlan`.
    pub const LOAD: u8 = 0x01;
    /// `apply dst, src, n, k…` — run `n` fused kernels in one pass.
    pub const APPLY: u8 = 0x02;
    /// `xcorr dst, src, c` — per-channel spectral correlation vs the
    /// master channel at const `c`.
    pub const XCORR: u8 = 0x03;
    /// `localsim dst, src, c` — local-similarity map with the params at
    /// const `c`.
    pub const LOCALSIM: u8 = 0x04;
    /// `stack dst, src, c` — stacked cross-correlation with the params
    /// at const `c`.
    pub const STACK: u8 = 0x05;
    /// `ret src` — the program's result register.
    pub const RET: u8 = 0x06;
}

/// How the lowered `IoPlan` should pick its §IV-B read strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Heuristic resolution (`ReadStrategy::Auto`).
    #[default]
    Auto,
    /// Force collective-per-file (Figure 5a).
    Collective,
    /// Force communication-avoiding (Figure 5b).
    CommAvoiding,
    /// Price both strategies on the performance model and take the
    /// cheaper (`choose_strategy_modeled`).
    Modeled,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Strategy::Auto => write!(f, "auto"),
            Strategy::Collective => write!(f, "collective"),
            Strategy::CommAvoiding => write!(f, "comm_avoiding"),
            Strategy::Modeled => write!(f, "modeled"),
        }
    }
}

/// The compiled form of a `load(...)` clause: everything the engine
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

/// One element-wise (per-channel row) kernel. Adjacent kernels are
/// fused by the compiler into a single `apply` instruction, so the VM
/// traverses each tile once however long the chain is.
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
            Kernel::Detrend => write!(f, "kernel detrend"),
            Kernel::Demean => write!(f, "kernel demean"),
            Kernel::OneBit => write!(f, "kernel onebit"),
            Kernel::Bandpass {
                lo_hz,
                hi_hz,
                order,
            } => {
                write!(f, "kernel bandpass({lo_hz}..{hi_hz} Hz, order {order})")
            }
            Kernel::Resample { p, q } => write!(f, "kernel resample({p}:{q})"),
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
/// `time_norm`, `whiten` — lives only here, in the constant pool, so a
/// program built from stages (not text) can set it. The engine's
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

/// One constant-pool entry.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// A compiled load clause.
    Load(LoadSpec),
    /// A fused-pass kernel.
    Kernel(Kernel),
    /// A channel reference `ch[k]`.
    Chan(u64),
    /// `localsim` parameters.
    LocalSim(LocalSimSpec),
    /// `stack` parameters.
    Stack(StackSpec),
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Load(l) => write!(f, "{l}"),
            Const::Kernel(k) => write!(f, "{k}"),
            Const::Chan(k) => write!(f, "ch[{k}]"),
            Const::LocalSim(p) => write!(f, "{p}"),
            Const::Stack(p) => write!(f, "{p}"),
        }
    }
}

/// A decoded instruction — what the VM's dispatch loop and the
/// disassembler both iterate over. Fields named `dst`/`src` are
/// register indices; the rest are constant-pool indices.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Instr {
    /// `load dst, c`.
    Load { dst: u8, spec: u8 },
    /// `apply dst, src, [kernels…]`.
    Apply { dst: u8, src: u8, kernels: Vec<u8> },
    /// `xcorr dst, src, master`.
    Xcorr { dst: u8, src: u8, master: u8 },
    /// `localsim dst, src, params`.
    LocalSim { dst: u8, src: u8, params: u8 },
    /// `stack dst, src, params`.
    Stack { dst: u8, src: u8, params: u8 },
    /// `ret src`.
    Ret { src: u8 },
}

/// A compiled `dasl` program: constant pool + bytecode + register
/// budget, plus the compile-time facts the engine reports
/// (`fused_stages`, the result type).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The constant pool.
    pub consts: Vec<Const>,
    /// The instruction stream (see the module table for the encoding).
    pub code: Vec<u8>,
    /// Registers the VM must allocate.
    pub n_regs: u8,
    /// Element-wise passes eliminated by fusion: a chain of `k` adjacent
    /// element-wise stages compiles to one `apply`, contributing `k-1`.
    pub fused_stages: u64,
    /// The typechecked result type.
    pub result: Ty,
}

impl Program {
    /// The program's load clause (every well-typed program starts with
    /// exactly one).
    pub fn load_spec(&self) -> &LoadSpec {
        self.consts
            .iter()
            .find_map(|c| match c {
                Const::Load(l) => Some(l),
                _ => None,
            })
            .expect("a well-typed program has a load clause")
    }

    /// Decode the byte stream into structured instructions, with the
    /// byte offset of each.
    ///
    /// # Panics
    /// Panics on a malformed stream — programs only come from
    /// [`crate::compile`], so a truncated stream is a compiler bug.
    pub fn decode(&self) -> Vec<(usize, Instr)> {
        let mut out = Vec::new();
        let c = &self.code;
        let mut pc = 0;
        while pc < c.len() {
            let at = pc;
            let instr = match c[pc] {
                op::LOAD => {
                    pc += 3;
                    Instr::Load {
                        dst: c[at + 1],
                        spec: c[at + 2],
                    }
                }
                op::APPLY => {
                    let n = c[at + 3] as usize;
                    pc += 4 + n;
                    Instr::Apply {
                        dst: c[at + 1],
                        src: c[at + 2],
                        kernels: c[at + 4..at + 4 + n].to_vec(),
                    }
                }
                op::XCORR => {
                    pc += 4;
                    Instr::Xcorr {
                        dst: c[at + 1],
                        src: c[at + 2],
                        master: c[at + 3],
                    }
                }
                op::LOCALSIM => {
                    pc += 4;
                    Instr::LocalSim {
                        dst: c[at + 1],
                        src: c[at + 2],
                        params: c[at + 3],
                    }
                }
                op::STACK => {
                    pc += 4;
                    Instr::Stack {
                        dst: c[at + 1],
                        src: c[at + 2],
                        params: c[at + 3],
                    }
                }
                op::RET => {
                    pc += 2;
                    Instr::Ret { src: c[at + 1] }
                }
                other => panic!("bad opcode {other:#04x} at {at}"),
            };
            out.push((at, instr));
        }
        out
    }

    /// A human-readable listing of the constant pool and instruction
    /// stream — what `das_pipeline` logs before executing a program.
    pub fn disassemble(&self) -> String {
        let mut out = format!(
            "; dasl program: {} bytes, {} consts, {} regs, {} stages fused, result {}\n",
            self.code.len(),
            self.consts.len(),
            self.n_regs,
            self.fused_stages,
            self.result
        );
        out.push_str("consts:\n");
        for (i, c) in self.consts.iter().enumerate() {
            out.push_str(&format!("  c{i} = {c}\n"));
        }
        out.push_str("code:\n");
        for (at, instr) in self.decode() {
            let line = match instr {
                Instr::Load { dst, spec } => format!("load     r{dst}, c{spec}"),
                Instr::Apply { dst, src, kernels } => {
                    let ks: Vec<String> = kernels.iter().map(|k| format!("c{k}")).collect();
                    let fused = if kernels.len() > 1 {
                        format!("   ; {} kernels, one pass", kernels.len())
                    } else {
                        String::new()
                    };
                    format!("apply    r{dst}, r{src}, [{}]{fused}", ks.join(", "))
                }
                Instr::Xcorr { dst, src, master } => {
                    format!("xcorr    r{dst}, r{src}, c{master}")
                }
                Instr::LocalSim { dst, src, params } => {
                    format!("localsim r{dst}, r{src}, c{params}")
                }
                Instr::Stack { dst, src, params } => {
                    format!("stack    r{dst}, r{src}, c{params}")
                }
                Instr::Ret { src } => format!("ret      r{src}"),
            };
            out.push_str(&format!("  {at:04x}  {line}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
