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
//! Scans `dir`, merges every file into a VCA, runs the chosen analysis
//! through the [`dasa::run`] dispatcher, prints a summary, and
//! optionally writes the result as a dasf dataset.
//!
//! With `--program <file.das>` (or `--eval <expr>`) the pipeline comes
//! from a `dasl` program instead of `-a`: the source is compiled —
//! lexed, typechecked, lowered to bytecode with adjacent element-wise
//! stages fused — the disassembly is logged to stderr, the `load(...)`
//! clause lowers into the same chunk-granular [`IoPlan`] every other
//! read path uses (`-d` overrides the corpus it names), and the
//! register VM executes the result through the same engine. Compile
//! errors render as caret diagnostics and exit with status 2, as does
//! a program or analysis the selected data cannot satisfy (a `bandpass`
//! over rows too short to filter, a master channel out of range).
//!
//! With `--metrics` the full observability snapshot (stage spans,
//! `dasf.*` I/O counters, `minimpi.*` message counters) is rendered to
//! stderr after the run; `--metrics=<out.json>` writes it as JSON
//! instead. Stage timings appear as `span.pipeline.{scan,read,analyze,
//! write}`, with the analysis's own spans nested underneath (e.g.
//! `span.pipeline.analyze.interferometry.apply`).
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
    analysis: String,
    /// Path to a `.das` program file (`--program`).
    program: Option<String>,
    /// Inline `dasl` source (`--eval`).
    eval: Option<String>,
    threads: usize,
    master: Option<usize>,
    window: Option<usize>,
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
        analysis: String::new(),
        program: None,
        eval: None,
        threads: omp::num_procs(),
        master: None,
        window: None,
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
            "-a" | "--analysis" => args.analysis = value("-a"),
            "-t" | "--threads" => args.threads = parse("-t", value("-t")),
            "--master" => args.master = Some(parse("--master", value("--master"))),
            "--window" => args.window = Some(parse("--window", value("--window"))),
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
    let modes = usize::from(!args.analysis.is_empty())
        + usize::from(args.program.is_some())
        + usize::from(args.eval.is_some());
    if modes == 0 {
        usage();
    }
    if modes > 1 {
        invalid("choose exactly one of -a, --program, or --eval");
    }
    if args.analysis.is_empty() {
        if args.master.is_some() {
            invalid("--master only applies to -a; set it in the program: xcorr(master=ch[k])");
        }
        if args.window.is_some() {
            invalid("--window only applies to -a; set it in the program: stack(window=n)");
        }
    } else if args.dir.is_empty() {
        usage();
    }
    if args.threads == 0 {
        invalid("-t 0: the engine needs at least one thread");
    }
    if args.window == Some(0) {
        invalid("--window 0: stacking windows must hold at least one sample");
    }
    if args.ranks == 0 {
        invalid("--ranks 0: the comm world needs at least one rank");
    }
    args
}

/// Map the CLI analysis name to an [`Analysis`] (exits on unknown names).
fn select_analysis(args: &Args) -> Analysis {
    match args.analysis.as_str() {
        "localsim" | "local_similarity" => Analysis::LocalSimilarity(LocalSimiParams::default()),
        "interferometry" => Analysis::Interferometry(InterferometryParams {
            master_channel: args.master.unwrap_or(0),
            ..Default::default()
        }),
        "stack" | "stacking" => Analysis::Stacking(StackingParams {
            window: args.window.unwrap_or(512),
            hop: args.window.unwrap_or(512),
            master_channel: args.master.unwrap_or(0),
            ..Default::default()
        }),
        other => {
            eprintln!("unknown analysis {other:?} (want localsim|interferometry|stack)");
            usage();
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

/// Run a compiled `dasl` program: the `load(...)` clause lowers into an
/// [`IoPlan`] (the corpus it names is the dataset directory unless `-d`
/// overrides it), the plan runs through the same serial / resilient /
/// distributed executors as `-a` mode, and the register VM executes the
/// bytecode at the corpus sampling rate.
fn run_program(args: &Args) -> dassa::Result<Option<obs::ClusterSnapshot>> {
    let (origin, program) = compile_program(args);
    eprintln!("compiled {origin}:");
    eprint!("{}", program.disassemble());
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
        if args.ranks > 1 {
            read_distributed_f64(&vca, &io_plan, args.ranks, args.fault_plan.as_ref())?
        } else {
            let block = match &args.fault_plan {
                None => IoExecutor::serial().run(&io_plan)?.0,
                Some(plan) => {
                    let plan = std::sync::Arc::new(plan.clone());
                    let (mut results, _) =
                        minimpi::run_chaos(1, plan, minimpi::RetryPolicy::default(), |comm| {
                            IoExecutor::resilient(comm).run(&io_plan)
                        });
                    let (block, report) = results.remove(0)?;
                    if report.is_clean() {
                        eprintln!("fault plan active: clean read, no faults struck");
                    } else {
                        eprintln!(
                            "fault plan active: quarantined {}/{} files {:?}, {} read retries, {} samples zero-filled",
                            report.quarantined.len(),
                            vca.n_files(),
                            report.quarantined,
                            report.io_retries,
                            report.zero_samples
                        );
                    }
                    block
                }
            };
            let wide: Vec<f64> = block.as_slice().iter().map(|&v| v as f64).collect();
            (
                arrayudf::Array2::from_vec(block.rows(), block.cols(), wide),
                None,
            )
        }
    };
    eprintln!("read {:.1} ms", t1.elapsed().as_secs_f64() * 1e3);

    let haee = Haee::builder().threads(args.threads).build();
    let bound = program.bind(vca.sampling_hz() as f64);
    let t2 = std::time::Instant::now();
    let output = {
        let _s = obs::span("analyze");
        dasa::run(&bound, &data, &haee)?
    };
    eprintln!("dasl {:.1} ms", t2.elapsed().as_secs_f64() * 1e3);
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

fn run(args: &Args) -> dassa::Result<Option<obs::ClusterSnapshot>> {
    if args.analysis.is_empty() {
        return run_program(args);
    }
    let analysis = select_analysis(args);
    let _root = obs::span("pipeline");

    let t0 = std::time::Instant::now();
    let vca = {
        let _s = obs::span("scan");
        let catalog = FileCatalog::scan(&args.dir)?;
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

    let t1 = std::time::Instant::now();
    let (data, cluster) = {
        let _s = obs::span("read");
        if args.ranks > 1 {
            let io_plan = IoPlan::for_vca(&vca, ReadStrategy::Auto, args.ranks);
            read_distributed_f64(&vca, &io_plan, args.ranks, args.fault_plan.as_ref())?
        } else {
            let data = match &args.fault_plan {
                None => vca.read_all_f64()?,
                Some(plan) => read_resilient_f64(&vca, plan)?,
            };
            (data, None)
        }
    };
    eprintln!("read {:.1} ms", t1.elapsed().as_secs_f64() * 1e3);

    let haee = Haee::builder().threads(args.threads).build();
    let t2 = std::time::Instant::now();
    let output = {
        let _s = obs::span("analyze");
        dasa::run(&analysis, &data, &haee)?
    };
    eprintln!(
        "{} {:.1} ms",
        analysis.name(),
        t2.elapsed().as_secs_f64() * 1e3
    );
    summarize(&output);

    write_output(args, &output)?;
    Ok(cluster)
}

/// Read a prepared [`IoPlan`] under an in-process comm world of `ranks`
/// ranks: the plan is summarized to stderr, then every rank runs it
/// through the [`IoExecutor`] (resilient when a fault plan is active).
/// Rank 0 gathers the channel blocks back into the full array and the
/// per-rank observability registries into a [`obs::ClusterSnapshot`]
/// for `--metrics`.
fn read_distributed_f64(
    vca: &Vca,
    io_plan: &IoPlan,
    ranks: usize,
    plan: Option<&faultline::FaultPlan>,
) -> dassa::Result<(arrayudf::Array2<f64>, Option<obs::ClusterSnapshot>)> {
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
                    eprintln!(
                        "fault plan active: quarantined {}/{} files {:?}, {} read retries, {} samples zero-filled",
                        report.quarantined.len(),
                        vca.n_files(),
                        report.quarantined,
                        report.io_retries,
                        report.zero_samples
                    );
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
    let block = full.expect("rank 0 gathers the full array");
    let data: Vec<f64> = block.as_slice().iter().map(|&v| v as f64).collect();
    Ok((
        arrayudf::Array2::from_vec(block.rows(), block.cols(), data),
        cluster,
    ))
}

/// Read the VCA under a fault plan: a single-rank chaos world drives the
/// resilient executor (retry, then quarantine + zero-fill), the quarantine
/// report goes to stderr, and the f32 block widens to the f64 array the
/// analyses consume.
fn read_resilient_f64(
    vca: &Vca,
    plan: &faultline::FaultPlan,
) -> dassa::Result<arrayudf::Array2<f64>> {
    let plan = std::sync::Arc::new(plan.clone());
    let (mut results, _) = minimpi::run_chaos(1, plan, minimpi::RetryPolicy::default(), |comm| {
        IoExecutor::resilient(comm).run(&IoPlan::for_vca(vca, ReadStrategy::Auto, comm.size()))
    });
    let (block, report) = results.remove(0)?;
    if report.is_clean() {
        eprintln!("fault plan active: clean read, no faults struck");
    } else {
        eprintln!(
            "fault plan active: quarantined {}/{} files {:?}, {} read retries, {} samples zero-filled",
            report.quarantined.len(),
            vca.n_files(),
            report.quarantined,
            report.io_retries,
            report.zero_samples
        );
    }
    let data: Vec<f64> = block.as_slice().iter().map(|&v| v as f64).collect();
    Ok(arrayudf::Array2::from_vec(block.rows(), block.cols(), data))
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
