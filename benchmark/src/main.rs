//! `das_bench` — the DASSA benchmark.
//!
//! ```text
//! das_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! das_bench all       [--seed <n>] [--seconds <s>] [--quick]
//! das_bench selfcheck [--sets 2] [--runs <n>] [--seconds <s>] [--quick]
//! ```
//!
//! The first form is one run of one workload and ends with the result
//! line: one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` measures the end-to-end metrics, `--trace 1`
//! the per-layer metrics. See `README.md` beside this crate.

mod harness;
mod json;
mod layers;
mod selfcheck;
mod stats;
mod trace;
mod util;
mod workloads;

use harness::Args;
use std::process::ExitCode;

const USAGE: &str =
    "usage: das_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
       das_bench all       [--seed <n>] [--seconds <s>] [--quick]
       das_bench selfcheck [--sets 2] [--runs <n>] [--seconds <s>] [--quick]";

/// `--flag value` pairs and bare `--quick`, in any order.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => out.push(("quick".to_string(), "1".to_string())),
                flag if flag.starts_with("--") => {
                    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                    out.push((flag[2..].to_string(), v.clone()));
                }
                other => return Err(format!("unexpected argument {other:?}")),
            }
        }
        Ok(Flags(out))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
        }
    }

    fn quick(&self) -> bool {
        self.get("quick").is_some()
    }
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some("all") => ("all", &argv[1..]),
        Some("selfcheck") => ("selfcheck", &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let flags = Flags::parse(rest)?;
    let quick = flags.quick();
    let seconds = flags.num(
        "seconds",
        if quick { 0.5 } else { selfcheck::run_seconds() },
    )?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    match command {
        "all" => selfcheck::all(flags.num("seed", 1)?, seconds, quick),
        "selfcheck" => {
            selfcheck::selfcheck(flags.num("sets", 2)?, flags.num("runs", 3)?, seconds, quick)
        }
        _ => {
            let workload = flags.get("workload").ok_or("--workload is required")?;
            let args = Args {
                workload: workload.to_string(),
                seed: flags.num("seed", 1)?,
                seconds,
                trace: match flags.get("trace").unwrap_or("0") {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other:?} is neither 0 nor 1")),
                },
                quick,
            };
            let outcome = harness::run(&args)?;
            // the result line, last on standard output
            println!("{}", outcome.to_json());
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("das_bench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
