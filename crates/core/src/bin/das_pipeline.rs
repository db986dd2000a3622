//! `das_pipeline` — run a DASSA analysis from the command line.
//!
//! ```text
//! das_pipeline -d <dir> -a localsim        [-t <threads>] [-o out.dasf] [--metrics[=out.json]]
//! das_pipeline -d <dir> -a interferometry  [-t <threads>] [--master <ch>] [-o out.dasf]
//! das_pipeline -d <dir> -a stack           [-t <threads>] [--window <n>] [-o out.dasf]
//! das_pipeline -d <dir> -a <any> --ranks 4 --trace=trace.json --metrics=m.json
//! das_pipeline --program pipeline.das      [-d <dir>] [-t <threads>] [-o out.dasf]
//! das_pipeline --eval 'load("corpus") | detrend | xcorr(master=ch[0])'
//! ```
//!
//! Scans `dir`, merges every file into a VCA, runs one `dasl` program
//! through the [`dasa::run`] dispatcher, prints a summary, and
//! optionally writes the result as a dasf dataset.
//!
//! The program comes from one of three places, and everything after
//! that is one path:
//! * `-a <analysis>` names an [`Analysis`], which lowers to the program
//!   it stands for (`--master` and `--window` set its parameters, and
//!   are rejected where the analysis has no such parameter);
//! * `--program <file.das>` or `--eval <expr>` is source text, compiled
//!   — lexed and typechecked into its plan, the element-wise stages one
//!   fused pass — with the plan's listing logged to stderr.
//!
//! The program's `load(...)` clause lowers into the chunk-granular
//! [`IoPlan`] every read path uses (`-d` overrides the corpus it names;
//! `-a` loads the full extent), the serial, resilient or distributed
//! [`IoExecutor`] reads it, the block is widened once, and the VM
//! executes the plan. Compile errors render as caret diagnostics
//! and exit with status 2, as does a program or analysis the selected
//! data cannot satisfy (a `bandpass` over rows too short to filter, a
//! master channel out of range).
//!
//! With `--metrics` the full observability snapshot (stage spans,
//! `dasf.*` I/O counters, `minimpi.*` message counters) is rendered to
//! stderr after the run; `--metrics=<out.json>` writes it as JSON
//! instead. Stage timings appear as `span.pipeline.{scan,read,analyze,
//! write}`, with the VM's stage spans nested underneath (e.g.
//! `span.pipeline.analyze.interferometry.dasl.apply` for `-a`,
//! `span.pipeline.analyze.dasl.apply` for a program).
//!
//! With `--ranks <n>` (n > 1) the read stage runs under an in-process
//! `minimpi` world of n ranks, and the metrics output gains a
//! per-rank `cluster` section (min/mean/max/imbalance per metric in
//! text mode, exact per-rank values in JSON).
//!
//! With `--trace` the run records begin/end events from every
//! instrumented span into per-thread ring buffers; bare `--trace`
//! prints a summary (top spans, per-thread utilisation, critical-path
//! estimate) to stderr, `--trace=<out.json>` writes the full timeline
//! as Chrome trace-event JSON — load it in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`, or inspect it
//! with `das_trace`.
//!
//! With `--fault-plan <spec>` (e.g. `seed=42,dasf.read.err=0.05`) a
//! deterministic `faultline` plan is installed for the whole run and the
//! read stage switches to the retry/quarantine executor: unreadable
//! member files are retried, then quarantined and zero-filled, and the
//! quarantine report is printed instead of aborting the pipeline.

use dassa::prelude::*;
use std::process::ExitCode;

struct Args {
    dir: String,
    /// The `-a` analysis, with `--master`/`--window` applied.
    analysis: Option<Analysis>,
    /// Path to a `.das` program file (`--program`).
    program: Option<String>,
    /// Inline `dasl` source (`--eval`).
    eval: Option<String>,
    threads: usize,
    ranks: usize,
    out: Option<String>,
    /// `None` = off, `Some(None)` = text to stderr, `Some(Some(p))` = JSON to `p`.
    metrics: Option<Option<String>>,
    /// `None` = off, `Some(None)` = summary to stderr, `Some(Some(p))` = Chrome JSON to `p`.
    trace: Option<Option<String>>,
    fault_plan: Option<faultline::FaultPlan>,
}

fn usage() -> ! {
    eprintln!(
        "usage: das_pipeline -d <dir> -a <localsim|interferometry|stack>\n\
         \u{20}                     [-t <threads>] [--master <channel>=0]\n\
         \u{20}                     [--window <samples>=512] [-o <out.dasf>]\n\
         \u{20}                     [--ranks <n>=1] [--metrics[=<out.json>]]\n\
         \u{20}                     [--trace[=<out.json>]]\n\
         \u{20}                     [--fault-plan <seed=N,site=rate,...>]\n\
         \u{20}  or:  das_pipeline --program <file.das> [-d <dir>] [common flags]\n\
         \u{20}  or:  das_pipeline --eval '<pipeline>'  [-d <dir>] [common flags]"
    );
    std::process::exit(2);
}

/// Reject a bad argument with a clear message and exit code 2 — bad
/// invocations must fail at parse time, not panic mid-pipeline.
fn invalid(msg: &str) -> ! {
    eprintln!("das_pipeline: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        dir: String::new(),
        analysis: None,
        program: None,
        eval: None,
        threads: omp::num_procs(),
        ranks: 1,
        out: None,
        metrics: None,
        trace: None,
        fault_plan: None,
    };
    let parse_plan = |spec: &str| -> faultline::FaultPlan {
        faultline::FaultPlan::parse(spec)
            .unwrap_or_else(|e| invalid(&format!("--fault-plan {spec:?}: {e}")))
    };
    let (mut analysis, mut master, mut window) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| invalid(&format!("missing value for {name}")))
        };
        let parse = |name: &str, raw: String| -> usize {
            raw.parse().unwrap_or_else(|_| {
                invalid(&format!("{name} wants a non-negative integer, got {raw:?}"))
            })
        };
        match flag.as_str() {
            "-d" | "--dir" => args.dir = value("-d"),
            "-a" | "--analysis" => analysis = Some(value("-a")),
            "-t" | "--threads" => args.threads = parse("-t", value("-t")),
            "--master" => master = Some(parse("--master", value("--master"))),
            "--window" => window = Some(parse("--window", value("--window"))),
            "--program" => args.program = Some(value("--program")),
            "--eval" => args.eval = Some(value("--eval")),
            "--ranks" => args.ranks = parse("--ranks", value("--ranks")),
            "-o" | "--out" => args.out = Some(value("-o")),
            "--metrics" => args.metrics = Some(None),
            "--trace" => args.trace = Some(None),
            "--fault-plan" => args.fault_plan = Some(parse_plan(&value("--fault-plan"))),
            "-h" | "--help" => usage(),
            other => {
                if let Some(path) = other.strip_prefix("--metrics=") {
                    if path.is_empty() {
                        invalid("--metrics= wants a file path (or use bare --metrics)");
                    }
                    args.metrics = Some(Some(path.to_string()));
                } else if let Some(path) = other.strip_prefix("--trace=") {
                    if path.is_empty() {
                        invalid("--trace= wants a file path (or use bare --trace)");
                    }
                    args.trace = Some(Some(path.to_string()));
                } else if let Some(spec) = other.strip_prefix("--fault-plan=") {
                    args.fault_plan = Some(parse_plan(spec));
                } else if let Some(path) = other.strip_prefix("--program=") {
                    if path.is_empty() {
                        invalid("--program= wants a .das file path");
                    }
                    args.program = Some(path.to_string());
                } else if let Some(src) = other.strip_prefix("--eval=") {
                    if src.is_empty() {
                        invalid("--eval= wants a pipeline expression");
                    }
                    args.eval = Some(src.to_string());
                } else {
                    eprintln!("unknown flag {other:?}");
                    usage()
                }
            }
        }
    }
    let modes = usize::from(analysis.is_some())
        + usize::from(args.program.is_some())
        + usize::from(args.eval.is_some());
    if modes == 0 {
        usage();
    }
    if modes > 1 {
        invalid("choose exactly one of -a, --program, or --eval");
    }
    match &analysis {
        None => {
            if master.is_some() {
                invalid("--master only applies to -a; set it in the program: xcorr(master=ch[k])");
            }
            if window.is_some() {
                invalid("--window only applies to -a; set it in the program: stack(window=n)");
            }
        }
        Some(_) if args.dir.is_empty() => usage(),
        Some(name) => args.analysis = Some(select_analysis(name, master, window)),
    }
    if args.threads == 0 {
        invalid("-t 0: the engine needs at least one thread");
    }
    if window == Some(0) {
        invalid("--window 0: stacking windows must hold at least one sample");
    }
    if args.ranks == 0 {
        invalid("--ranks 0: the comm world needs at least one rank");
    }
    args
}

/// The [`Analysis`] `-a <name>` names, with `--master` and `--window`
/// applied. A flag the analysis has no parameter for is a bad
/// invocation, not something to drop silently.
fn select_analysis(name: &str, master: Option<usize>, window: Option<usize>) -> Analysis {
    let analysis = Analysis::from_name(name).unwrap_or_else(|e| {
        eprintln!("das_pipeline: {e}");
        usage()
    });
    let reject = |flag: &str| -> ! {
        invalid(&format!("{flag} does not apply to -a {name}"));
    };
    match analysis {
        Analysis::LocalSimilarity(_) => {
            if master.is_some() {
                reject("--master");
            }
            if window.is_some() {
                reject("--window");
            }
            analysis
        }
        Analysis::Interferometry(p) => {
            if window.is_some() {
                reject("--window");
            }
            Analysis::Interferometry(InterferometryParams {
                master_channel: master.unwrap_or(p.master_channel),
                ..p
            })
        }
        Analysis::Stacking(p) => {
            let window = window.unwrap_or(p.window);
            Analysis::Stacking(StackingParams {
                window,
                hop: window,
                master_channel: master.unwrap_or(p.master_channel),
                ..p
            })
        }
    }
}

fn summarize(output: &AnalysisOutput) {
    match output {
        AnalysisOutput::Map(map) => {
            let peak = map.as_slice().iter().cloned().fold(f64::MIN, f64::max);
            let mean = map.as_slice().iter().sum::<f64>() / map.len() as f64;
            println!("similarity: mean {mean:.4}, peak {peak:.4}");
        }
        AnalysisOutput::Scores(scores) => {
            for (ch, s) in scores
                .iter()
                .enumerate()
                .step_by((scores.len() / 16).max(1))
            {
                println!("channel {ch:5}: |cos| = {s:.4}");
            }
        }
        AnalysisOutput::Stacks(stacks) => {
            for (ch, s) in stacks
                .iter()
                .enumerate()
                .step_by((stacks.len() / 16).max(1))
            {
                println!(
                    "channel {ch:5}: peak lag {:+5} samples, SNR {:.1} ({} windows)",
                    s.peak_lag(),
                    s.snr(),
                    s.n_windows
                );
            }
        }
    }
}

/// Load the `dasl` source for `--program`/`--eval` and compile it.
/// Compile errors render as caret diagnostics and exit 2 — same
/// contract as any other bad invocation.
fn compile_program(args: &Args) -> (String, Program) {
    let (origin, src) = match (&args.program, &args.eval) {
        (Some(path), _) => {
            let src = std::fs::read_to_string(path)
                .unwrap_or_else(|e| invalid(&format!("--program {path}: {e}")));
            (path.clone(), src)
        }
        (None, Some(src)) => ("<eval>".to_string(), src.clone()),
        (None, None) => unreachable!("parse_args enforces one mode"),
    };
    match dasl::compile(&src) {
        Ok(program) => (origin, program),
        Err(e) => {
            eprintln!("das_pipeline: {origin}:");
            eprintln!("{}", e.render(&src));
            std::process::exit(2);
        }
    }
}

/// Run the program `-a`, `--program` or `--eval` gives: its `load(...)`
/// clause lowers into an [`IoPlan`] (the corpus it names is the dataset
/// directory unless `-d` overrides it), the plan runs through the
/// serial, resilient or distributed executor, and the VM executes the
/// plan — an [`Analysis`] at the rate it is lowered
/// for, source text at the corpus sampling rate.
fn run(args: &Args) -> dassa::Result<Option<obs::ClusterSnapshot>> {
    let program = match &args.analysis {
        Some(analysis) => analysis.program(),
        None => {
            let (origin, program) = compile_program(args);
            eprintln!("compiled {origin}:");
            eprint!("{}", program.disassemble());
            program
        }
    };
    let spec = program.load_spec();
    let dir = if args.dir.is_empty() {
        spec.corpus.clone()
    } else {
        args.dir.clone()
    };

    let _root = obs::span("pipeline");
    let t0 = std::time::Instant::now();
    let vca = {
        let _s = obs::span("scan");
        let catalog = FileCatalog::scan(&dir)?;
        Vca::from_entries(catalog.entries())?
    };
    eprintln!(
        "merged {} files: {} channels x {} samples @ {} Hz (scan {:.1} ms)",
        vca.n_files(),
        vca.channels(),
        vca.total_samples(),
        vca.sampling_hz(),
        t0.elapsed().as_secs_f64() * 1e3
    );

    let io_plan = IoPlan::for_load(&vca, spec, args.ranks)?;
    let t1 = std::time::Instant::now();
    let (data, cluster) = {
        let _s = obs::span("read");
        read(&vca, &io_plan, args.ranks, args.fault_plan.as_ref())?
    };
    eprintln!("read {:.1} ms", t1.elapsed().as_secs_f64() * 1e3);

    let haee = Haee::builder().threads(args.threads).build();
    let t2 = std::time::Instant::now();
    let output = {
        let _s = obs::span("analyze");
        match &args.analysis {
            Some(analysis) => dasa::run(analysis, &data, &haee)?,
            None => dasa::run(&program.bind(vca.sampling_hz() as f64), &data, &haee)?,
        }
    };
    let name = args.analysis.as_ref().map_or("dasl", Analysis::name);
    eprintln!("{name} {:.1} ms", t2.elapsed().as_secs_f64() * 1e3);
    summarize(&output);

    write_output(args, &output)?;
    Ok(cluster)
}

/// Write the result as a dasf dataset when `-o` was given.
fn write_output(args: &Args, output: &AnalysisOutput) -> dassa::Result<()> {
    if let Some(out) = &args.out {
        let _s = obs::span("write");
        let (dims, values) = output.to_dataset();
        let mut w = dasf::Writer::create(out)?;
        w.write_dataset_f64("/result", &dims, &values)?;
        w.finish()?;
        eprintln!("wrote {out}");
    }
    Ok(())
}

/// Read a prepared [`IoPlan`] as the f32 storage block: serially, or
/// under a fault plan through the resilient executor in a one-rank chaos
/// world (retry, then quarantine and zero-fill), or under a world of
/// `ranks` ranks.
fn read(
    vca: &Vca,
    io_plan: &IoPlan,
    ranks: usize,
    plan: Option<&faultline::FaultPlan>,
) -> dassa::Result<(arrayudf::Array2<f32>, Option<obs::ClusterSnapshot>)> {
    if ranks > 1 {
        return read_distributed(vca, io_plan, ranks, plan);
    }
    let Some(plan) = plan else {
        return Ok((IoExecutor::serial().run(io_plan)?.0, None));
    };
    let plan = std::sync::Arc::new(plan.clone());
    let (mut results, _) = minimpi::run_chaos(1, plan, minimpi::RetryPolicy::default(), |comm| {
        IoExecutor::resilient(comm).run(io_plan)
    });
    let (block, report) = results.remove(0)?;
    if report.is_clean() {
        eprintln!("fault plan active: clean read, no faults struck");
    } else {
        report_quarantine(vca, &report);
    }
    Ok((block, None))
}

/// Print what a resilient read quarantined, retried and zero-filled.
fn report_quarantine(vca: &Vca, report: &ReadReport) {
    eprintln!(
        "fault plan active: quarantined {}/{} files {:?}, {} read retries, {} samples zero-filled",
        report.quarantined.len(),
        vca.n_files(),
        report.quarantined,
        report.io_retries,
        report.zero_samples
    );
}

/// Read a prepared [`IoPlan`] under an in-process comm world of `ranks`
/// ranks: the plan is summarized to stderr, then every rank runs it
/// through the [`IoExecutor`] (resilient when a fault plan is active).
/// Rank 0 gathers the channel blocks back into the full array and the
/// per-rank observability registries into a [`obs::ClusterSnapshot`]
/// for `--metrics`.
fn read_distributed(
    vca: &Vca,
    io_plan: &IoPlan,
    ranks: usize,
    plan: Option<&faultline::FaultPlan>,
) -> dassa::Result<(arrayudf::Array2<f32>, Option<obs::ClusterSnapshot>)> {
    let comm_err = |e: minimpi::CommError| dassa::DassaError::Io(std::io::Error::other(e));
    eprintln!(
        "planned {} chunk reads ({} KiB) with {:?} exchange over {ranks} ranks",
        io_plan.ops.len(),
        io_plan.total_bytes() / 1024,
        io_plan.exchange
    );
    let body = |comm: &minimpi::Comm| -> dassa::Result<_> {
        let block = match plan {
            None => IoExecutor::new(comm).run(io_plan)?.0,
            Some(_) => {
                let (block, report) = IoExecutor::resilient(comm).run(io_plan)?;
                if comm.rank() == 0 && !report.is_clean() {
                    report_quarantine(vca, &report);
                }
                block
            }
        };
        let cluster = comm.try_cluster_snapshot().map_err(comm_err)?;
        Ok((arrayudf::dist::gather_rows(comm, block), cluster))
    };
    let mut results = match plan {
        None => minimpi::run(ranks, body),
        Some(p) => {
            let plan = std::sync::Arc::new(p.clone());
            minimpi::run_chaos(ranks, plan, minimpi::RetryPolicy::default(), body).0
        }
    };
    let (full, cluster) = results.remove(0)?;
    for r in results {
        r?;
    }
    Ok((full.expect("rank 0 gathers the full array"), cluster))
}

/// Emit the observability snapshot per `--metrics` (after every span
/// guard has dropped, so the full `span.pipeline.*` tree is recorded).
/// With a cluster snapshot from a `--ranks` world the JSON gains a
/// `cluster` key and the text report appends the per-rank breakdown.
fn emit_metrics(
    dest: &Option<String>,
    cluster: Option<&obs::ClusterSnapshot>,
) -> std::io::Result<()> {
    let snap = obs::global().snapshot();
    match dest {
        None => {
            eprint!("{}", snap.render_text());
            if let Some(c) = cluster {
                eprint!("{}", c.render_text());
            }
        }
        Some(path) => {
            let json = match cluster {
                Some(c) => snap.to_json_with_cluster(c),
                None => snap.to_json(),
            };
            std::fs::write(path, json)?;
            eprintln!("metrics written to {path}");
        }
    }
    Ok(())
}

/// Emit the recorded timeline per `--trace`: a text summary to stderr,
/// or Chrome trace-event JSON to a file.
fn emit_trace(dest: &Option<String>, tracer: &obs::Tracer) -> std::io::Result<()> {
    let trace = tracer.collect();
    match dest {
        None => eprint!("{}", trace.summary().render_text()),
        Some(path) => {
            std::fs::write(path, trace.to_chrome_json())?;
            eprintln!(
                "trace written to {path} ({} events, {} dropped)",
                trace.events.len(),
                trace.dropped
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = parse_args();
    if let Some(plan) = &args.fault_plan {
        // Process-wide, so dasf faults also strike scan and write stages.
        faultline::install_global(std::sync::Arc::new(plan.clone()));
    }
    // Install the tracer before any span opens so the whole run lands
    // on the timeline.
    let tracer = args
        .trace
        .as_ref()
        .map(|_| obs::trace::enable_global(obs::trace::DEFAULT_CAPACITY));
    let result = run(&args);
    if let Some(dest) = &args.trace {
        let tracer = tracer.expect("tracer installed when --trace given");
        if let Err(e) = emit_trace(dest, &tracer) {
            eprintln!("das_pipeline: writing trace failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    match &result {
        Ok(cluster) => {
            if let Some(dest) = &args.metrics {
                if let Err(e) = emit_metrics(dest, cluster.as_ref()) {
                    eprintln!("das_pipeline: writing metrics failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            if let Some(dest) = &args.metrics {
                let _ = emit_metrics(dest, None);
            }
            eprintln!("das_pipeline: {e}");
            match e {
                // the request itself is wrong (a window the pipeline
                // cannot filter, a master channel out of range, …): the
                // same status as a bad flag or a compile error
                dassa::DassaError::BadSelection(_) => ExitCode::from(2),
                _ => ExitCode::FAILURE,
            }
        }
    }
}
