//! The closed-loop driver: set-up, warm-up, measured phase, result.
//!
//! One driver thread runs a workload's fixed op schedule pass after
//! pass. Every op is timed on the wall clock and checked against its
//! oracle *after* the clock stops; a pass's time is the sum of its ops'
//! times, so oracle checks and bookkeeping are in no timing.

use crate::stats::{self, Summary, BLOCKS};
use crate::trace::{self, Tracer};
use crate::util::{self, Scratch};
use crate::workloads::{self, Workload};
use crate::{json, layers};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes per traced/untraced stretch of the traced run.
const TRACE_STRETCH: u64 = 5;

/// Parsed command line of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: small shapes, one set-up.
    pub quick: bool,
}

/// Which gated metric an op feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Light,
    Heavy,
    /// Part of the pass, not gated on its own.
    Other,
}

/// What a workload's `cycle` talks to: times ops, runs oracles, keeps
/// the samples and the failure count.
pub struct Cx<'t> {
    pub tracer: &'t Tracer,
    recording: bool,
    light: Vec<f64>,
    heavy: Vec<f64>,
    cycle: Vec<f64>,
    /// Whether each recorded pass ran with the tracer on.
    cycle_traced: Vec<bool>,
    pass_ms: f64,
    pass_ok: bool,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
}

impl<'t> Cx<'t> {
    pub fn new(tracer: &'t Tracer) -> Cx<'t> {
        Cx {
            tracer,
            recording: false,
            light: Vec::new(),
            heavy: Vec::new(),
            cycle: Vec::new(),
            cycle_traced: Vec::new(),
            pass_ms: 0.0,
            pass_ok: true,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Run one op: `f` is timed (inside a root span `name`), `check` is
    /// the oracle and runs off the clock. A typed error from `f` or a
    /// violated oracle is a failed op and contributes no sample.
    pub fn op<T>(
        &mut self,
        kind: Kind,
        name: &'static str,
        f: impl FnOnce(&Tracer) -> Result<T, String>,
        check: impl FnOnce(&T) -> Result<(), String>,
    ) {
        self.attempted += 1;
        self.tracer.next_op();
        let tracer = self.tracer;
        let t0 = Instant::now();
        let out = tracer.span(name, || f(tracer));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match out.and_then(|v| check(&v)) {
            Ok(()) => {
                self.pass_ms += ms;
                if self.recording {
                    match kind {
                        Kind::Light => self.light.push(ms),
                        Kind::Heavy => self.heavy.push(ms),
                        Kind::Other => {}
                    }
                }
            }
            Err(e) => self.fail(format!("{name}: {e}")),
        }
    }

    /// Record a failure that is not tied to a timed op (end-of-run
    /// oracles).
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        self.pass_ok = false;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// Failure messages kept for the log (the first few).
    pub fn errors(&self) -> &[String] {
        &self.errors
    }

    /// Light-op samples recorded so far, in ms.
    pub fn light(&self) -> &[f64] {
        &self.light
    }

    /// Heavy-op samples recorded so far, in ms.
    pub fn heavy(&self) -> &[f64] {
        &self.heavy
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    fn pass(&mut self, w: &mut dyn Workload) {
        self.pass_ms = 0.0;
        self.pass_ok = true;
        w.cycle(self);
        if self.recording && self.pass_ok {
            self.cycle.push(self.pass_ms);
            self.cycle_traced.push(self.tracer.is_enabled());
        }
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The result of a run.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The contract's result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A number as measured, with all its digits; never NaN or infinite.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// `/BENCHMARK.json`, as built into this binary.
pub fn spec() -> json::Value {
    json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
pub fn declared(key: &str) -> Vec<(String, String)> {
    spec()
        .get(key)
        .map(|v| {
            v.as_arr()
                .iter()
                .filter_map(|m| {
                    Some((
                        m.get("name")?.as_str()?.to_string(),
                        m.get("unit")?.as_str()?.to_string(),
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// The result must carry exactly the metrics `BENCHMARK.json` declares.
fn check_declared(key: &str, metrics: &[Metric]) -> Result<(), String> {
    let want = declared(key);
    for (name, unit) in &want {
        match metrics.iter().find(|m| m.name == name) {
            None => {
                return Err(format!(
                    "BENCHMARK.json {key} metric {name} was not measured"
                ))
            }
            Some(m) if m.unit != unit => {
                return Err(format!(
                    "{name}: measured in {} but declared in {unit}",
                    m.unit
                ))
            }
            Some(_) => {}
        }
    }
    match metrics
        .iter()
        .find(|m| !want.iter().any(|(n, _)| n == m.name))
    {
        Some(m) => Err(format!(
            "metric {} is not declared in BENCHMARK.json {key}",
            m.name
        )),
        None => Ok(()),
    }
}

fn print_summary(name: &str, samples: &[f64], s: &Summary) {
    let blocks: Vec<String> = stats::block_medians(samples, BLOCKS)
        .iter()
        .map(|b| format!("{b:.3}"))
        .collect();
    println!(
        "  {name:<9} {:>10.4} ms   q1 {:.4}  q3 {:.4}  n {}  halves {:.4} / {:.4}  drift {:.4}  block-iqr {:.4}",
        s.value,
        s.q1,
        s.q3,
        s.n,
        s.first_half,
        s.second_half,
        s.drift_ratio(),
        s.block_iqr_ratio
    );
    println!("            block medians: {}", blocks.join(" "));
}

/// Run passes until `seconds` have elapsed (always whole passes).
pub fn run_for(cx: &mut Cx, w: &mut dyn Workload, seconds: f64, traced_stretches: bool) {
    let t0 = Instant::now();
    let mut passes = 0u64;
    while t0.elapsed().as_secs_f64() < seconds {
        if traced_stretches {
            cx.tracer.set_enabled((passes / TRACE_STRETCH) % 2 == 1);
        }
        cx.pass(w);
        passes += 1;
    }
}

/// One run of one workload: the whole contract.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let scratch = Scratch::new(&args.workload).map_err(|e| format!("scratch: {e}"))?;
    println!(
        "das_bench {} seed={} seconds={} trace={} quick={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.quick
    );
    println!(
        "  scratch {} ({}), {} cores",
        scratch.path().display(),
        scratch.fs_type(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let tracer = Tracer::new(false);
    let mut cx = Cx::new(&tracer);

    // Set-up, several times over; the last one is measured on.
    let setups = if args.trace || args.quick { 1 } else { SETUPS };
    let mut setup_s = Vec::with_capacity(setups);
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..setups {
        if let Some(w) = workload.take() {
            w.finish(&mut cx);
        }
        let dir = scratch.fresh("w").map_err(|e| format!("scratch: {e}"))?;
        let t = Instant::now();
        workload = Some(workloads::setup(
            &args.workload,
            args.seed,
            args.quick,
            &dir,
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");
    println!("  shape: {}", w.describe());
    println!("  set-up times: {setup_s:?} s");

    // Untimed warm-up: fills caches and pools, faults pages in.
    let warm = if args.quick {
        0.05
    } else {
        (args.seconds * 0.15).clamp(0.2, 3.0)
    };
    run_for(&mut cx, w.as_mut(), warm, false);

    // Measured phase. The traced run spends part of its time here and
    // the rest in the layer suite.
    let measure = if args.trace {
        args.seconds * 0.4
    } else {
        args.seconds
    };
    cx.set_recording(true);
    let cpu0 = util::cpu_seconds();
    let t0 = Instant::now();
    run_for(&mut cx, w.as_mut(), measure, args.trace);
    let wall = t0.elapsed().as_secs_f64();
    let cpu = util::cpu_seconds() - cpu0;
    cx.set_recording(false);
    tracer.set_enabled(false);
    let peak_rss_mb = util::peak_rss_mb();

    let light = stats::summarize(&cx.light, BLOCKS);
    let heavy = stats::summarize(&cx.heavy, BLOCKS);
    let cycle = stats::summarize(&cx.cycle, BLOCKS);
    let stored_ratio = w.stored_ratio();
    let cycle_bytes = w.cycle_bytes();
    w.finish(&mut cx);

    let (Some(light), Some(heavy), Some(cycle)) = (light, heavy, cycle) else {
        for e in &cx.errors {
            eprintln!("  failed: {e}");
        }
        return Err(format!(
            "no complete pass was measured ({} of {} ops failed)",
            cx.failed, cx.attempted
        ));
    };
    print_summary("light_ms", &cx.light, &light);
    print_summary("heavy_ms", &cx.heavy, &heavy);
    print_summary("cycle_ms", &cx.cycle, &cycle);
    println!(
        "  cycle moves {} raw sample bytes: {:.1} MB/s; stored_ratio {stored_ratio:.6}; peak rss {peak_rss_mb:.1} MB; cpu share {:.3}",
        cycle_bytes,
        cycle_bytes as f64 / 1e6 / (cycle.value / 1e3),
        cpu / wall
    );
    println!("  ops attempted {} failed {}", cx.attempted, cx.failed);
    for e in &cx.errors {
        eprintln!("  failed: {e}");
    }

    let metrics = if args.trace {
        let spans = tracer.spans();
        // Stretches of passes ran with the tracer on and off in turn;
        // the ratio of their medians is what tracing costs.
        let median_where = |traced: bool| {
            let v: Vec<f64> = cx
                .cycle
                .iter()
                .zip(&cx.cycle_traced)
                .filter(|(_, on)| **on == traced)
                .map(|(ms, _)| *ms)
                .collect();
            if v.is_empty() {
                cycle.value
            } else {
                stats::median(&v)
            }
        };
        let mut metrics = vec![
            Metric::new(
                "bench.trace_overhead_ratio",
                median_where(true) / median_where(false),
                "ratio",
            ),
            Metric::new("bench.span_coverage", trace::coverage(&spans), "ratio"),
            Metric::new("bench.cpu_share", cpu / wall, "ratio"),
            Metric::new("bench.drift_ratio", cycle.drift_ratio(), "ratio"),
            Metric::new("bench.block_iqr_ratio", cycle.block_iqr_ratio, "ratio"),
        ];
        println!("  spans by self time ({} recorded):", spans.len());
        for (name, count, total, own) in trace::by_name(&spans) {
            println!(
                "    {name:<22} n {count:<6} total {:>10.3} ms  self {:>10.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let out = util::out_dir();
        let path = out.join(format!("trace-{}.json", args.workload));
        std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, trace::to_json(&args.workload, &spans)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("  trace written to {}", path.display());

        let dir = scratch
            .fresh("layers")
            .map_err(|e| format!("scratch: {e}"))?;
        let suite = layers::run(args, &dir)?;
        metrics.extend(suite.metrics);
        cx.attempted += suite.attempted;
        cx.failed += suite.failed;
        for e in &suite.errors {
            eprintln!("  failed: {e}");
        }
        check_declared("per_layer", &metrics)?;
        metrics
    } else {
        let metrics = vec![
            Metric::new("light_ms", light.value, "ms"),
            Metric::new("heavy_ms", heavy.value, "ms"),
            Metric::new("cycle_ms", cycle.value, "ms"),
            Metric::new("stored_ratio", stored_ratio, "ratio"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
            Metric::new("setup_s", stats::median(&setup_s), "s"),
        ];
        check_declared("end_to_end", &metrics)?;
        metrics
    };
    for m in &metrics {
        println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        correct: cx.failed == 0,
        attempted: cx.attempted,
        failed: cx.failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    /// The `--quick` smoke: every workload, untraced and traced, is
    /// correct and prints exactly the metrics `BENCHMARK.json` declares,
    /// each with its unit. One test, so the runs do not share a core.
    #[test]
    fn quick_runs_print_every_declared_metric_with_its_unit() {
        for workload in workloads::NAMES {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.to_string(),
                    seed: 7,
                    seconds: 0.3,
                    trace,
                    quick: true,
                };
                let outcome =
                    run(&args).unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
                assert!(
                    outcome.correct,
                    "{workload} trace={trace}: an oracle failed"
                );
                assert!(outcome.attempted >= 1);
                assert_eq!(outcome.failed, 0);

                let line = json::parse(&outcome.to_json()).expect("the result line is JSON");
                let Value::Obj(fields) = &line else {
                    panic!("the result line is not an object");
                };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

                let want = declared(if trace { "per_layer" } else { "end_to_end" });
                assert!(!want.is_empty());
                let Some(Value::Obj(printed)) = line.get("metrics") else {
                    panic!("no metrics object");
                };
                assert_eq!(printed.len(), want.len(), "{workload} trace={trace}");
                for (name, unit) in &want {
                    let m = line.get("metrics").and_then(|m| m.get(name));
                    let m =
                        m.unwrap_or_else(|| panic!("{workload} trace={trace}: {name} not printed"));
                    assert_eq!(
                        m.get("unit").and_then(Value::as_str),
                        Some(unit.as_str()),
                        "{name}"
                    );
                    let v = m.get("value").and_then(Value::as_f64).expect("a number");
                    assert!(v.is_finite(), "{name} = {v}");
                    if !trace {
                        assert!(v > 0.0, "end-to-end metric {name} = {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn an_unknown_workload_is_an_error_not_a_result() {
        let args = Args {
            workload: "nope".into(),
            seed: 1,
            seconds: 0.1,
            trace: false,
            quick: true,
        };
        assert!(run(&args).is_err());
    }

    #[test]
    fn benchmark_json_declares_what_the_contract_needs() {
        let e2e = declared("end_to_end");
        assert_eq!(e2e.len(), 6);
        assert!(e2e.contains(&("setup_s".to_string(), "s".to_string())));
        let layers = declared("per_layer");
        assert!(!layers.is_empty() && layers.len() <= 128);
    }
}
