//! The `dasl` typechecker.
//!
//! Pipelines are checked stage by stage against a signature table:
//! every stage declares its parameters (name, kind, required) and a
//! shape rule mapping the incoming [`Ty`] to the outgoing one. Shapes
//! track what is knowable statically — a `load` with a `ch=a..b` clause
//! pins the channel count, which lets the checker reject an `xcorr`
//! master outside it before any I/O happens. Sample counts stay
//! [`Dim::Unknown`] until the corpus' sampling rate is known (the time
//! window is in seconds), so the checker never guesses.
//!
//! On success the pipeline is its typed plan, a [`Program`]: every stage
//! after `load` wants waveforms and only the element-wise kernels make
//! them, so a well-typed pipeline is `load | kernel* | op?` and checking
//! a kernel appends it to the plan's one fused pass.

use crate::ast::{Arg, Expr, Pipeline, Stage};
use crate::program::{
    gcd, Kernel, LoadSpec, LocalSimSpec, Op, Program, StackSpec, Strategy, MAX_BANDPASS_ORDER,
    MAX_RESAMPLE_FACTOR,
};
use crate::span::{Error, Span};
use std::fmt;

/// A dimension that may or may not be statically known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dim {
    /// Known at typecheck time.
    Known(u64),
    /// Only known once the corpus is scanned.
    Unknown,
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dim::Known(n) => write!(f, "{n}"),
            Dim::Unknown => write!(f, "?"),
        }
    }
}

/// The type of the value flowing between stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// A `channels × samples` waveform block.
    Waveforms {
        /// Channel count.
        channels: Dim,
        /// Samples per channel.
        samples: Dim,
    },
    /// One scalar score per channel (master-channel correlation).
    Scores {
        /// Channel count.
        channels: Dim,
    },
    /// A dense 2-D result map (similarity maps).
    Map {
        /// Row count.
        channels: Dim,
        /// Columns per row.
        samples: Dim,
    },
    /// A list of stacked windowed cross-correlations.
    Stacks {
        /// Channel count.
        channels: Dim,
    },
}

impl Ty {
    /// The channel dimension, whatever the variant.
    pub fn channels(&self) -> Dim {
        match self {
            Ty::Waveforms { channels, .. }
            | Ty::Scores { channels }
            | Ty::Map { channels, .. }
            | Ty::Stacks { channels } => *channels,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Waveforms { channels, samples } => {
                write!(f, "waveforms[{channels} x {samples}]")
            }
            Ty::Scores { channels } => write!(f, "scores[{channels}]"),
            Ty::Map { channels, samples } => write!(f, "map[{channels} x {samples}]"),
            Ty::Stacks { channels } => write!(f, "stacks[{channels}]"),
        }
    }
}

/// Every stage the language knows, for `did you mean` suggestions.
pub const STAGE_NAMES: &[&str] = &[
    "load", "detrend", "demean", "onebit", "bandpass", "resample", "xcorr", "localsim", "stack",
];

/// Typecheck a parsed pipeline into its [`Program`].
pub fn check(p: &Pipeline) -> Result<Program, Error> {
    let (first, rest) = p
        .stages
        .split_first()
        .expect("parser guarantees at least one stage");
    if first.name != "load" {
        return Err(Error::new(
            format!(
                "the pipeline must start with `load(...)`, not `{}`",
                first.name
            ),
            first.name_span,
        ));
    }
    let mut program = check_load(first)?;
    for stage in rest {
        if stage.name == "load" {
            return Err(Error::new(
                "`load` must be the first stage of the pipeline",
                stage.name_span,
            ));
        }
        check_stage(stage, &mut program)?;
    }
    Ok(program)
}

/// What waveform input a non-`load` stage sees, or an error if the
/// previous stage already ended the pipeline.
fn want_waveforms(stage: &Stage, input: Ty) -> Result<(Dim, Dim), Error> {
    match input {
        Ty::Waveforms { channels, samples } => Ok((channels, samples)),
        other => Err(Error::new(
            format!(
                "`{}` expects waveforms, but the previous stage produced {other}",
                stage.name
            ),
            stage.name_span,
        )),
    }
}

/// Check one stage after `load` against the plan so far, and append it:
/// a kernel to the fused pass, an op as the plan's end.
fn check_stage(stage: &Stage, program: &mut Program) -> Result<(), Error> {
    let input = program.result;
    program.result = match stage.name.as_str() {
        "detrend" | "demean" | "onebit" => {
            bind(stage, &[])?;
            let (channels, samples) = want_waveforms(stage, input)?;
            let kernel = match stage.name.as_str() {
                "detrend" => Kernel::Detrend,
                "demean" => Kernel::Demean,
                _ => Kernel::OneBit,
            };
            program.kernels.push(kernel);
            Ty::Waveforms { channels, samples }
        }
        "bandpass" => {
            let bound = bind(
                stage,
                &[
                    Param::req("lo", Kind::Num),
                    Param::req("hi", Kind::Num),
                    Param::opt("order", Kind::Int),
                ],
            )?;
            let (channels, samples) = want_waveforms(stage, input)?;
            let lo = num(&bound[0]);
            let hi = num(&bound[1]);
            if !(lo.0 > 0.0 && hi.0 > lo.0) {
                return Err(Error::new(
                    format!(
                        "bandpass corners must satisfy 0 < lo < hi (got {} and {})",
                        lo.0, hi.0
                    ),
                    lo.1.to(hi.1),
                ));
            }
            let order = bound[2].as_ref().map_or(Ok(4), |a| {
                let (v, s) = int(a);
                if v == 0 {
                    Err(Error::new("bandpass order must be at least 1", s))
                } else if v > MAX_BANDPASS_ORDER {
                    Err(Error::new(
                        format!(
                            "bandpass order {v} is above the limit of {MAX_BANDPASS_ORDER}: \
                             a Butterworth design in transfer-function form is no longer a \
                             stable filter at high order"
                        ),
                        s,
                    ))
                } else {
                    Ok(v as usize)
                }
            })?;
            program.kernels.push(Kernel::Bandpass {
                lo_hz: lo.0,
                hi_hz: hi.0,
                order,
            });
            Ty::Waveforms { channels, samples }
        }
        "resample" => {
            // `resample(q)` decimates by q; `resample(p, q)` is the full
            // rational form. Bind by hand since one positional arg means
            // the *second* parameter.
            let bound = if stage.args.len() == 1 && stage.args[0].name.is_none() {
                let q = expect_kind(stage, &stage.args[0], "q", Kind::Int)?;
                [None, Some(q)]
            } else {
                let b = bind(
                    stage,
                    &[Param::req("p", Kind::Int), Param::req("q", Kind::Int)],
                )?;
                [b[0].clone(), b[1].clone()]
            };
            let (channels, samples) = want_waveforms(stage, input)?;
            let p = bound[0].as_ref().map_or((1, stage.span), int);
            let q = int(bound[1].as_ref().expect("q is required"));
            if p.0 == 0 || q.0 == 0 {
                return Err(Error::new(
                    "resample factors must be positive integers",
                    p.1.to(q.1),
                ));
            }
            let (rate_p, rate_q) = (p.0 as usize, q.0 as usize);
            let factor = (rate_p.max(rate_q) / gcd(rate_p, rate_q)) as u64;
            if factor > MAX_RESAMPLE_FACTOR {
                return Err(Error::new(
                    format!(
                        "resample factor {factor} is above the limit of {MAX_RESAMPLE_FACTOR} \
                         (the anti-alias filter has 20 taps per unit of the factor); \
                         resample in stages"
                    ),
                    bound[0].as_ref().map_or(q.1, |_| p.1.to(q.1)),
                ));
            }
            let kernel = Kernel::Resample {
                p: rate_p,
                q: rate_q,
            };
            let samples = match samples {
                Dim::Known(n) => Dim::Known(kernel.out_len(n as usize) as u64),
                Dim::Unknown => Dim::Unknown,
            };
            program.kernels.push(kernel);
            Ty::Waveforms { channels, samples }
        }
        "xcorr" => {
            let bound = bind(stage, &[Param::req("master", Kind::Chan)])?;
            let (channels, _) = want_waveforms(stage, input)?;
            let (master, mspan) = chan(bound[0].as_ref().expect("master is required"));
            if let Dim::Known(c) = channels {
                if master >= c {
                    return Err(Error::new(
                        format!(
                            "master channel {master} is out of range: the pipeline carries \
                             {c} channels"
                        ),
                        mspan,
                    ));
                }
            }
            program.op = Some(Op::Xcorr { master });
            Ty::Scores { channels }
        }
        "localsim" => {
            let bound = bind(
                stage,
                &[
                    Param::opt("half_window", Kind::Int),
                    Param::opt("channel_offset", Kind::Int),
                    Param::opt("search_half", Kind::Int),
                    Param::opt("time_stride", Kind::Int),
                ],
            )?;
            let (channels, _) = want_waveforms(stage, input)?;
            let d = LocalSimSpec::default();
            let spec = LocalSimSpec {
                half_window: positive(stage, "half_window", &bound[0], d.half_window)?,
                channel_offset: positive(stage, "channel_offset", &bound[1], d.channel_offset)?,
                search_half: bound[2].as_ref().map_or(d.search_half, |a| int(a).0),
                time_stride: positive(stage, "time_stride", &bound[3], d.time_stride)?,
            };
            program.op = Some(Op::LocalSim(spec));
            Ty::Map {
                channels,
                samples: Dim::Unknown,
            }
        }
        "stack" => {
            let bound = bind(
                stage,
                &[
                    Param::opt("window", Kind::Int),
                    Param::opt("hop", Kind::Int),
                    Param::opt("master", Kind::Chan),
                ],
            )?;
            let (channels, samples) = want_waveforms(stage, input)?;
            let d = StackSpec::default();
            let window = positive(stage, "window", &bound[0], d.window)?;
            let hop = positive(stage, "hop", &bound[1], window)?;
            let (master, mspan) = bound[2].as_ref().map_or((0, stage.name_span), chan);
            if let Dim::Known(c) = channels {
                if master >= c {
                    return Err(Error::new(
                        format!(
                            "master channel {master} is out of range: the pipeline carries \
                             {c} channels"
                        ),
                        mspan,
                    ));
                }
            }
            if let Dim::Known(n) = samples {
                if window > n {
                    return Err(Error::new(
                        format!(
                            "stack window {window} exceeds the {n} samples the pipeline carries"
                        ),
                        stage.span,
                    ));
                }
            }
            program.op = Some(Op::Stack(StackSpec {
                window,
                hop,
                master,
                ..d
            }));
            Ty::Stacks { channels }
        }
        other => {
            let mut msg = format!("unknown stage `{other}`");
            if let Some(s) = suggest(other) {
                msg.push_str(&format!(" (did you mean `{s}`?)"));
            }
            return Err(Error::new(msg, stage.name_span));
        }
    };
    Ok(())
}

fn check_load(stage: &Stage) -> Result<Program, Error> {
    let bound = bind(
        stage,
        &[
            Param::req("corpus", Kind::Str),
            Param::opt("t", Kind::Range),
            Param::opt("ch", Kind::Range),
            Param::opt("strategy", Kind::Str),
        ],
    )?;
    let corpus = match &bound[0].as_ref().expect("corpus is required").value {
        Expr::Str(s, _) => s.clone(),
        _ => unreachable!("kind-checked"),
    };
    let time = bound[1].as_ref().map(range);
    let channels = bound[2].as_ref().map(range);
    let strategy = match &bound[3] {
        None => Strategy::Auto,
        Some(a) => match &a.value {
            Expr::Str(s, span) => match s.as_str() {
                "auto" => Strategy::Auto,
                "collective" => Strategy::CollectivePerFile,
                "comm_avoiding" => Strategy::CommAvoiding,
                "modeled" => Strategy::Modeled,
                other => {
                    return Err(Error::new(
                        format!(
                            "unknown strategy `{other}` (expected `auto`, `collective`, \
                             `comm_avoiding`, or `modeled`)"
                        ),
                        *span,
                    ));
                }
            },
            _ => unreachable!("kind-checked"),
        },
    };
    let ch_dim = channels.map_or(Dim::Unknown, |(a, b)| Dim::Known(b - a));
    Ok(Program {
        load: LoadSpec {
            corpus,
            time,
            channels,
            strategy,
        },
        kernels: Vec::new(),
        op: None,
        result: Ty::Waveforms {
            channels: ch_dim,
            // The time window is in seconds; the sample count needs the
            // corpus' sampling rate, which the engine learns at scan
            // time.
            samples: Dim::Unknown,
        },
    })
}

// ---------------------------------------------------------------------------
// Argument binding
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Kind {
    Num,
    Int,
    Str,
    Range,
    Chan,
}

impl Kind {
    fn describe(self) -> &'static str {
        match self {
            Kind::Num => "a number",
            Kind::Int => "a non-negative integer",
            Kind::Str => "a string",
            Kind::Range => "a range like `0..60`",
            Kind::Chan => "a channel reference like `ch[0]`",
        }
    }

    fn admits(self, e: &Expr) -> bool {
        match (self, e) {
            (Kind::Num, Expr::Num(..)) => true,
            (Kind::Int, Expr::Num(n, _)) => *n >= 0.0 && n.fract() == 0.0,
            (Kind::Str, Expr::Str(..)) => true,
            (Kind::Range, Expr::Range(..)) => true,
            (Kind::Chan, Expr::Chan(..)) => true,
            _ => false,
        }
    }
}

struct Param {
    name: &'static str,
    kind: Kind,
    required: bool,
}

impl Param {
    fn req(name: &'static str, kind: Kind) -> Param {
        Param {
            name,
            kind,
            required: true,
        }
    }

    fn opt(name: &'static str, kind: Kind) -> Param {
        Param {
            name,
            kind,
            required: false,
        }
    }
}

fn expect_kind(stage: &Stage, arg: &Arg, pname: &str, kind: Kind) -> Result<Arg, Error> {
    if kind.admits(&arg.value) {
        Ok(arg.clone())
    } else {
        let got = match (&kind, &arg.value) {
            (Kind::Int, Expr::Num(n, _)) => format!("`{n}`"),
            (_, v) => v.kind_name().to_string(),
        };
        Err(Error::new(
            format!(
                "`{}` argument `{pname}` wants {}, got {got}",
                stage.name,
                kind.describe()
            ),
            arg.value.span(),
        ))
    }
}

/// Match a stage's written arguments against its parameter list:
/// positionals fill parameters left to right, named arguments match by
/// name, and each value must admit its parameter's kind.
fn bind(stage: &Stage, params: &[Param]) -> Result<Vec<Option<Arg>>, Error> {
    let mut bound: Vec<Option<Arg>> = vec![None; params.len()];
    let mut seen_named = false;
    for (i, arg) in stage.args.iter().enumerate() {
        match &arg.name {
            None => {
                if seen_named {
                    return Err(Error::new(
                        "positional argument after a named argument",
                        arg.span,
                    ));
                }
                if i >= params.len() {
                    let msg = if params.is_empty() {
                        format!("`{}` takes no arguments", stage.name)
                    } else {
                        format!(
                            "`{}` takes at most {} argument{}",
                            stage.name,
                            params.len(),
                            if params.len() == 1 { "" } else { "s" }
                        )
                    };
                    return Err(Error::new(msg, arg.span));
                }
                bound[i] = Some(expect_kind(stage, arg, params[i].name, params[i].kind)?);
            }
            Some((name, name_span)) => {
                seen_named = true;
                let Some(j) = params.iter().position(|p| p.name == name.as_str()) else {
                    let expected: Vec<String> =
                        params.iter().map(|p| format!("`{}`", p.name)).collect();
                    let msg = if params.is_empty() {
                        format!("`{}` takes no arguments", stage.name)
                    } else {
                        format!(
                            "unknown argument `{name}` to `{}` (expected {})",
                            stage.name,
                            expected.join(", ")
                        )
                    };
                    return Err(Error::new(msg, *name_span));
                };
                if bound[j].is_some() {
                    return Err(Error::new(
                        format!("duplicate argument `{name}`"),
                        *name_span,
                    ));
                }
                bound[j] = Some(expect_kind(stage, arg, params[j].name, params[j].kind)?);
            }
        }
    }
    for (p, b) in params.iter().zip(&bound) {
        if p.required && b.is_none() {
            return Err(Error::new(
                format!("`{}` is missing its `{}` argument", stage.name, p.name),
                stage.span,
            ));
        }
    }
    Ok(bound)
}

fn num(a: &Option<Arg>) -> (f64, Span) {
    match &a.as_ref().expect("required").value {
        Expr::Num(n, s) => (*n, *s),
        _ => unreachable!("kind-checked"),
    }
}

fn int(a: &Arg) -> (u64, Span) {
    match &a.value {
        Expr::Num(n, s) => (*n as u64, *s),
        _ => unreachable!("kind-checked"),
    }
}

fn chan(a: &Arg) -> (u64, Span) {
    match &a.value {
        Expr::Chan(k, s) => (*k, *s),
        _ => unreachable!("kind-checked"),
    }
}

fn range(a: &Arg) -> (u64, u64) {
    match &a.value {
        Expr::Range(x, y, _) => (*x, *y),
        _ => unreachable!("kind-checked"),
    }
}

fn positive(stage: &Stage, pname: &str, a: &Option<Arg>, default: u64) -> Result<u64, Error> {
    match a {
        None => Ok(default),
        Some(arg) => {
            let (v, s) = int(arg);
            if v == 0 {
                Err(Error::new(
                    format!("`{}` argument `{pname}` must be at least 1", stage.name),
                    s,
                ))
            } else {
                Ok(v)
            }
        }
    }
}

/// Nearest known stage name within an edit distance of 2, for
/// `did you mean` hints.
fn suggest(name: &str) -> Option<&'static str> {
    STAGE_NAMES
        .iter()
        .map(|s| (*s, levenshtein(name, s)))
        .filter(|(_, d)| *d <= 2)
        .min_by_key(|(_, d)| *d)
        .map(|(s, _)| s)
}

fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check_src(src: &str) -> Result<Program, Error> {
        check(&parse(src).unwrap())
    }

    #[test]
    fn example_pipeline_checks() {
        let c = check_src(
            "load(\"corpus\", 0..60) | detrend | bandpass(0.5, 16) | resample(4) \
             | xcorr(master=ch[0])",
        )
        .unwrap();
        assert_eq!(c.load.corpus, "corpus");
        assert_eq!(c.kernels.len(), 3);
        assert!(matches!(c.kernels[2], Kernel::Resample { p: 1, q: 4 }));
        assert_eq!(c.op, Some(Op::Xcorr { master: 0 }));
        assert!(matches!(c.result, Ty::Scores { .. }));
    }

    #[test]
    fn channel_window_pins_the_channel_dim() {
        let c = check_src("load(\"c\", ch=2..6) | detrend").unwrap();
        assert_eq!(
            c.result,
            Ty::Waveforms {
                channels: Dim::Known(4),
                samples: Dim::Unknown
            }
        );
        let e = check_src("load(\"c\", ch=2..6) | xcorr(master=ch[4])").unwrap_err();
        assert_eq!(
            e.message,
            "master channel 4 is out of range: the pipeline carries 4 channels"
        );
    }

    #[test]
    fn unknown_stage_suggests() {
        let e = check_src("load(\"c\") | bandpas(0.5, 16)").unwrap_err();
        assert_eq!(
            e.message,
            "unknown stage `bandpas` (did you mean `bandpass`?)"
        );
        let e = check_src("load(\"c\") | frobnicate").unwrap_err();
        assert_eq!(e.message, "unknown stage `frobnicate`");
    }

    #[test]
    fn load_must_come_first_and_only_first() {
        let e = check_src("detrend | demean").unwrap_err();
        assert_eq!(
            e.message,
            "the pipeline must start with `load(...)`, not `detrend`"
        );
        let e = check_src("load(\"c\") | load(\"d\")").unwrap_err();
        assert_eq!(e.message, "`load` must be the first stage of the pipeline");
    }

    #[test]
    fn terminal_stages_end_the_pipeline() {
        let e = check_src("load(\"c\") | xcorr(master=ch[0]) | detrend").unwrap_err();
        assert_eq!(
            e.message,
            "`detrend` expects waveforms, but the previous stage produced scores[?]"
        );
    }

    #[test]
    fn arity_and_kind_errors() {
        let e = check_src("load(\"c\") | bandpass(0.5)").unwrap_err();
        assert_eq!(e.message, "`bandpass` is missing its `hi` argument");
        let e = check_src("load(\"c\") | detrend(1)").unwrap_err();
        assert_eq!(e.message, "`detrend` takes no arguments");
        let e = check_src("load(\"c\") | bandpass(\"lo\", 16)").unwrap_err();
        assert_eq!(
            e.message,
            "`bandpass` argument `lo` wants a number, got a string"
        );
        let e = check_src("load(\"c\") | bandpass(0.5, 16, order=2.5)").unwrap_err();
        assert_eq!(
            e.message,
            "`bandpass` argument `order` wants a non-negative integer, got `2.5`"
        );
        let e = check_src("load(\"c\") | bandpass(16, 0.5)").unwrap_err();
        assert_eq!(
            e.message,
            "bandpass corners must satisfy 0 < lo < hi (got 16 and 0.5)"
        );
        let e = check_src("load(\"c\") | bandpass(lo=0.5, 16)").unwrap_err();
        assert_eq!(e.message, "positional argument after a named argument");
        let e = check_src("load(\"c\") | xcorr(banana=ch[0])").unwrap_err();
        assert_eq!(
            e.message,
            "unknown argument `banana` to `xcorr` (expected `master`)"
        );
        let e = check_src("load(\"c\") | xcorr").unwrap_err();
        assert_eq!(e.message, "`xcorr` is missing its `master` argument");
    }

    #[test]
    fn resample_forms() {
        let c = check_src("load(\"c\") | resample(3)").unwrap();
        assert!(matches!(c.kernels[..], [Kernel::Resample { p: 1, q: 3 }]));
        let c = check_src("load(\"c\") | resample(2, 5)").unwrap();
        assert!(matches!(c.kernels[..], [Kernel::Resample { p: 2, q: 5 }]));
        assert!(check_src("load(\"c\") | resample(0)").is_err());
    }

    /// `order` and the resample factors size what the engine builds from
    /// one source line (a filter design whose cost grows with order², a
    /// FIR of 20 taps per unit of the factor), so both are bounded here,
    /// with the span of the offending argument.
    #[test]
    fn kernel_arguments_that_size_the_engines_work_are_bounded() {
        let src = "load(\"c\") | detrend | bandpass(0.5, 24, order=2048) | xcorr(master=ch[0])";
        let e = check_src(src).unwrap_err();
        assert!(
            e.message.contains("order 2048") && e.message.contains("limit of 8"),
            "{e}"
        );
        assert_eq!(&src[e.span.start..e.span.end], "2048");
        assert!(check_src("load(\"c\") | bandpass(0.5, 24, order=9)").is_err());
        let c = check_src("load(\"c\") | bandpass(0.5, 24, order=8)").unwrap();
        assert!(matches!(c.kernels[..], [Kernel::Bandpass { order: 8, .. }]));

        let src = "load(\"c\") | detrend | resample(1000000007) | xcorr(master=ch[0])";
        let e = check_src(src).unwrap_err();
        assert!(
            e.message.contains("factor 1000000007") && e.message.contains("limit of 4096"),
            "{e}"
        );
        assert_eq!(&src[e.span.start..e.span.end], "1000000007");
        let src = "load(\"c\") | resample(4097, 2)";
        let e = check_src(src).unwrap_err();
        assert_eq!(&src[e.span.start..e.span.end], "4097, 2");
        assert!(check_src("load(\"c\") | resample(3, 4097)").is_err());
        // the limit is on the reduced ratio, and is itself allowed
        assert!(check_src("load(\"c\") | resample(4096)").is_ok());
        assert!(check_src("load(\"c\") | resample(4097, 8194)").is_ok());
        assert!(check_src("load(\"c\") | resample(1000000007, 1000000007)").is_ok());
    }

    #[test]
    fn strategy_values_validated() {
        let c = check_src("load(\"c\", strategy=\"modeled\") | detrend").unwrap();
        assert_eq!(c.load.strategy, Strategy::Modeled);
        let e = check_src("load(\"c\", strategy=\"fastest\") | detrend").unwrap_err();
        assert!(e.message.contains("unknown strategy `fastest`"), "{e}");
    }
}
