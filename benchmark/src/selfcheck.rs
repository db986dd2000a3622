//! `all` and `selfcheck`: every workload, each run in a process of its
//! own (peak memory is a per-process number), and the repeatability
//! table that compares two interleaved sets of runs of the same code.

use crate::harness::spec;
use crate::json::{self, Value};
use crate::stats;
use crate::workloads::NAMES;
use std::process::Command;

/// `run_seconds` of `BENCHMARK.json`: the default `--seconds`.
pub fn run_seconds() -> f64 {
    spec()
        .get("run_seconds")
        .and_then(Value::as_f64)
        .unwrap_or(10.0)
}

/// `(name, bound)` of every end-to-end metric.
fn bounds() -> Vec<(String, f64)> {
    spec()
        .get("end_to_end")
        .map(|v| {
            v.as_arr()
                .iter()
                .filter_map(|m| {
                    Some((
                        m.get("name")?.as_str()?.to_string(),
                        m.get("bound")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default()
}

/// One child run; its log goes to our standard output, its result line
/// comes back parsed.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed}: exit {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let last = stdout.lines().last().ok_or("no result line")?;
    let v = json::parse(last)?;
    if v.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{workload} seed {seed}: not correct: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(v)
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Every workload once untraced and once traced: every metric by name.
pub fn all(seed: u64, seconds: f64, quick: bool) -> Result<bool, String> {
    let mut ok = true;
    for w in NAMES {
        for trace in [false, true] {
            if let Err(e) = child(w, seed, seconds, trace, quick) {
                eprintln!("das_bench all: {e}");
                ok = false;
            }
        }
    }
    Ok(ok)
}

/// `sets` interleaved sets of `runs` untraced runs of every workload,
/// run `i` of every set on seed `i + 1`. Per `workload/metric`: each
/// set's median, the worst gap between two sets relative to the first,
/// each set's quartile spread, the bound, a verdict. `stored_ratio`
/// must be the same number, run for run.
pub fn selfcheck(sets: usize, runs: usize, seconds: f64, quick: bool) -> Result<bool, String> {
    if sets < 2 || runs < 1 {
        return Err("selfcheck needs --sets 2 or more and --runs 1 or more".into());
    }
    let bounds = bounds();
    // results[workload][set][run]
    let mut results: Vec<Vec<Vec<Value>>> = vec![vec![Vec::new(); sets]; NAMES.len()];
    for run in 0..runs {
        for set in 0..sets {
            for (of_workload, w) in results.iter_mut().zip(NAMES) {
                of_workload[set].push(child(w, run as u64 + 1, seconds, false, quick)?);
            }
        }
    }

    println!("\nselfcheck: {sets} sets x {runs} runs x {seconds} s, same code");
    println!(
        "{:<28} {:>12} {:>12} {:>9} {:>9} {:>7}  verdict",
        "workload/metric", "set 1", "set 2", "gap", "spread", "bound"
    );
    let mut ok = true;
    for (wi, w) in NAMES.iter().enumerate() {
        for (name, bound) in &bounds {
            let values = |set: usize| -> Vec<f64> {
                results[wi][set]
                    .iter()
                    .filter_map(|r| metric(r, name))
                    .collect()
            };
            let medians: Vec<f64> = (0..sets).map(|s| stats::median(&values(s))).collect();
            // all metrics are lower-is-better: a later set reading higher is "worse"
            let gap = medians[1..]
                .iter()
                .map(|m| (m - medians[0]) / medians[0])
                .fold(f64::MIN, f64::max);
            let spread = (0..sets)
                .map(|s| {
                    let v = values(s);
                    if v.len() < 2 {
                        return 0.0;
                    }
                    let (q1, q2, q3) = stats::quartiles(&v);
                    (q3 - q1) / q2
                })
                .fold(0.0, f64::max);
            let identical = (1..sets).all(|s| values(s) == values(0));
            let pass = if name == "stored_ratio" {
                identical
            } else {
                // the spread of set-up time is reported, not judged
                gap.abs() <= *bound && (name == "setup_s" || spread <= *bound)
            };
            ok &= pass;
            println!(
                "{:<28} {:>12.5} {:>12.5} {:>8.2}% {:>8.2}% {:>6.1}%  {}",
                format!("{w}/{name}"),
                medians[0],
                medians[1],
                gap * 100.0,
                spread * 100.0,
                bound * 100.0,
                match (pass, name == "stored_ratio") {
                    (true, true) => "identical",
                    (true, false) => "ok",
                    (false, true) => "DIFFERS",
                    (false, false) => "OUTSIDE",
                }
            );
        }
    }
    println!(
        "selfcheck: {}",
        if ok {
            "every workload/metric repeats"
        } else {
            "FAILED"
        }
    );
    Ok(ok)
}
