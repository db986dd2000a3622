//! `dasl` — a small typed pipeline language for DAS analysis.
//!
//! A program is a single pipeline of stages joined by `|`:
//!
//! ```text
//! load("corpus", 0..60) | detrend | bandpass(0.5, 16) | resample(4)
//!     | xcorr(master=ch[0])
//! ```
//!
//! The crate is a pure front end with no I/O and no dependencies: it
//! lexes ([`lexer`]), parses into a spanned AST ([`parser`], [`ast`]),
//! and typechecks array shapes and element kinds ([`types`]) straight
//! into the typed plan the `dassa` engine's VM walks ([`program`]). The
//! type rules give every program one shape, `load | kernel* | op?`, so
//! the plan keeps two promises by construction:
//!
//! * the leading `load(...)` clause survives as a structured
//!   [`LoadSpec`] the engine lowers into a chunk-granular `IoPlan`
//!   (the same planner every read path uses), and
//! * the element-wise stages form one kernel list that runs as a single
//!   fused pass, so however long the preprocessing chain is, the
//!   waveform block is traversed once ([`Program::fused_stages`] counts
//!   the passes eliminated).
//!
//! Every compile-time failure is a [`span::Error`] that renders as a
//! caret diagnostic pointing into the source:
//!
//! ```text
//! error: unknown stage `bandpas` (did you mean `bandpass`?)
//!   --> line 1, column 26
//!    |
//!  1 | load("corpus") | detrend | bandpas(0.5, 16)
//!    |                            ^^^^^^^
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod program;
pub mod span;
pub mod types;

pub use program::{
    Kernel, LoadSpec, LocalSimSpec, Op, Program, StackSpec, Strategy, TimeNorm, MAX_BANDPASS_ORDER,
    MAX_RESAMPLE_FACTOR,
};
pub use span::{Error, Span};
pub use types::{Dim, Ty};

/// Front-to-back: lex, parse and typecheck `src` into its [`Program`].
///
/// On failure the [`Error`] carries a span; render it against `src`
/// with [`Error::render`] for a caret diagnostic.
pub fn compile(src: &str) -> Result<Program, Error> {
    types::check(&parser::parse(src)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_compile() {
        let p = compile(
            "load(\"corpus\", 0..60) | detrend | bandpass(0.5, 16) | resample(4) \
             | xcorr(master=ch[0])",
        )
        .unwrap();
        assert_eq!(p.fused_stages(), 2);
        assert_eq!(p.load_spec().corpus, "corpus");
        assert_eq!(p.load_spec().time, Some((0, 60)));
    }

    #[test]
    fn errors_render_against_source() {
        let src = "load(\"corpus\") | detrend | bandpas(0.5, 16)";
        let err = compile(src).unwrap_err();
        let rendered = err.render(src);
        assert!(rendered.contains("did you mean `bandpass`?"), "{rendered}");
        assert!(rendered.contains("^^^^^^^"), "{rendered}");
    }
}
