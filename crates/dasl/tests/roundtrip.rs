//! Round-trip properties for the `dasl` front end.
//!
//! * Any AST the grammar can express survives pretty-print → parse
//!   unchanged (spans aside — `PartialEq` ignores them, and numbers
//!   compare by bit pattern, so the trip is exact).
//! * Pretty-printing is a fixed point: printing the re-parsed tree
//!   reproduces the same text.
//! * Randomly assembled *well-typed* programs compile — chains long
//!   enough to cross any byte-sized count included — into a plan that
//!   holds every kernel in source order, and the fusion counter equals
//!   the one-pass saving the kernel chain promises.

use dasl::ast::{Arg, Expr, Pipeline, Stage};
use dasl::parser::parse;
use dasl::span::Span;
use dasl::Kernel;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use proptest::strategy::Union;

fn sp() -> Span {
    Span::new(0, 0)
}

/// A lexer-valid identifier (also used for stage and argument names).
fn ident() -> BoxedStrategy<String> {
    "[a-z_][a-z0-9_]{0,7}".boxed()
}

/// Finite `f64`s, mixing everyday magnitudes with raw bit patterns.
/// Rust's `{}` float formatting never uses exponent notation, so every
/// finite value lexes back, and shortest-round-trip printing guarantees
/// the re-parse is bit-exact.
fn num() -> BoxedStrategy<f64> {
    prop_oneof![
        -1_000_000.0..1_000_000.0f64,
        any::<u64>().prop_map(|bits| {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                v
            } else {
                0.0
            }
        }),
        Just(0.0),
        Just(-0.0),
        Just(0.5),
    ]
    .boxed()
}

/// String literal contents, including every escape the lexer knows.
fn string() -> BoxedStrategy<String> {
    prop_oneof![
        "[a-zA-Z0-9_ ./-]{0,12}".boxed(),
        select(vec![
            String::new(),
            "quo\"te".to_string(),
            "back\\slash".to_string(),
            "new\nline".to_string(),
            "tab\tstop".to_string(),
            "mixed \"\\\n\t all".to_string(),
        ])
        .boxed(),
    ]
    .boxed()
}

fn expr() -> BoxedStrategy<Expr> {
    prop_oneof![
        num().prop_map(|n| Expr::Num(n, sp())),
        string().prop_map(|s| Expr::Str(s, sp())),
        (0u64..1_000_000, 1u64..1_000_000).prop_map(|(a, d)| Expr::Range(a, a + d, sp())),
        (0u64..100_000).prop_map(|k| Expr::Chan(k, sp())),
    ]
    .boxed()
}

fn arg() -> BoxedStrategy<Arg> {
    let name = Union::new(vec![Just(None).boxed(), ident().prop_map(Some).boxed()]);
    (name, expr())
        .prop_map(|(name, value)| Arg {
            name: name.map(|n| (n, sp())),
            value,
            span: sp(),
        })
        .boxed()
}

fn stage() -> BoxedStrategy<Stage> {
    (ident(), vec(arg(), 0..5))
        .prop_map(|(name, args)| Stage {
            name,
            name_span: sp(),
            args,
            span: sp(),
        })
        .boxed()
}

fn pipeline() -> BoxedStrategy<Pipeline> {
    vec(stage(), 1..8)
        .prop_map(|stages| Pipeline { stages, span: sp() })
        .boxed()
}

/// One source-level element-wise stage and the kernel it checks to, for
/// the well-typed generator.
fn kernel_stage() -> BoxedStrategy<(String, Kernel)> {
    prop_oneof![
        Just(("detrend".to_string(), Kernel::Detrend)),
        Just(("demean".to_string(), Kernel::Demean)),
        Just(("onebit".to_string(), Kernel::OneBit)),
        (1u32..100, 1u32..100).prop_map(|(lo, hi)| {
            // 0 < lo < hi, both with one decimal place.
            let (lo_hz, hi_hz) = (f64::from(lo) / 10.0, f64::from(lo + hi) / 10.0);
            let kernel = Kernel::Bandpass {
                lo_hz,
                hi_hz,
                order: 4,
            };
            (format!("bandpass({lo_hz}, {hi_hz})"), kernel)
        }),
        (1usize..8).prop_map(|q| (format!("resample({q})"), Kernel::Resample { p: 1, q })),
        (1usize..8, 1usize..8)
            .prop_map(|(p, q)| (format!("resample({p}, {q})"), Kernel::Resample { p, q })),
    ]
    .boxed()
}

/// A whole well-typed program: `load` + kernel chain + optional
/// terminal. Returns `(source, kernels)`.
fn well_typed_program() -> BoxedStrategy<(String, Vec<Kernel>)> {
    let load = prop_oneof![
        Just("load(\"corpus\")".to_string()),
        (0u64..100, 1u64..100).prop_map(|(a, d)| format!("load(\"corpus\", {a}..{})", a + d)),
        (1u64..64).prop_map(|n| format!("load(\"corpus\", ch=0..{n})")),
        select(vec!["auto", "collective", "comm_avoiding", "modeled"])
            .prop_map(|s| format!("load(\"corpus\", strategy=\"{s}\")")),
    ];
    let terminal = select(vec![
        String::new(),
        " | xcorr(master=ch[0])".to_string(),
        " | localsim".to_string(),
        " | stack(window=256)".to_string(),
    ]);
    (load, vec(kernel_stage(), 0..300), terminal)
        .prop_map(|(load, stages, terminal)| {
            let mut src = load;
            let mut kernels = Vec::with_capacity(stages.len());
            for (stage, kernel) in stages {
                src.push_str(" | ");
                src.push_str(&stage);
                kernels.push(kernel);
            }
            src.push_str(&terminal);
            (src, kernels)
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pretty_print_then_parse_is_identity(p in pipeline()) {
        let printed = p.to_string();
        let reparsed = parse(&printed);
        prop_assert!(
            reparsed.is_ok(),
            "pretty-printed program failed to re-parse\n source: {:?}\n error: {}",
            printed,
            reparsed.unwrap_err().render(&printed)
        );
        let reparsed = reparsed.unwrap();
        prop_assert_eq!(&reparsed, &p);
        // Printing is a fixed point: the second trip changes nothing.
        prop_assert_eq!(reparsed.to_string(), printed);
    }

    #[test]
    fn well_typed_programs_compile_and_fuse(src_kernels in well_typed_program()) {
        let (src, kernels) = src_kernels;
        let program = dasl::compile(&src);
        prop_assert!(
            program.is_ok(),
            "well-typed program failed to compile\n source: {:?}\n error: {}",
            src,
            program.unwrap_err().render(&src)
        );
        let program = program.unwrap();
        // The plan holds every kernel, in source order, and a chain of k
        // element-wise kernels runs as one pass, eliminating k-1
        // traversals.
        prop_assert_eq!(&program.kernels, &kernels);
        prop_assert_eq!(program.fused_stages(), kernels.len().saturating_sub(1) as u64);
        prop_assert_eq!(program.load_spec().corpus.as_str(), "corpus");
    }
}
