//! DASSA builtins for the mlab language — the paper's future work
//! realized: *"Future work on DASSA includes an API in Python or even
//! in MATLAB to enable interactive DAS data analysis."*
//!
//! These builtins expose the full DASSA workflow (scan → search → merge
//! → read → analyse) to interactive scripts, so a geophysicist can
//! write MATLAB-style one-liners against real DAS file sets:
//!
//! ```matlab
//! data = das_read('/data/das', '170728224510', 5);   % 6 files as a matrix
//! simi = das_local_similarity(data, 25, 1, 12, 50);  % Algorithm 2
//! scores = das_interferometry(data, 0.01, 0.4, 1);   % Algorithm 3
//! ```

use crate::value::Value;
use dasgen::{write_minute_files, Scene};
use dassa::prelude::*;

/// Dispatch a `das_*` builtin. Returns `None` when `name` is not a
/// bridge builtin (the caller falls through to the core library).
pub fn call(name: &str, argv: &[Value]) -> Option<Result<Vec<Value>, String>> {
    Some(match name {
        "das_read" => das_read(argv),
        "das_search" => das_search(argv),
        "das_generate" => das_generate(argv),
        "das_local_similarity" => das_local_similarity(argv),
        "das_interferometry" => das_interferometry(argv),
        _ => return None,
    })
}

fn arg(argv: &[Value], i: usize) -> Result<&Value, String> {
    argv.get(i)
        .ok_or_else(|| format!("missing argument {}", i + 1))
}

fn str_arg(argv: &[Value], i: usize) -> Result<String, String> {
    match arg(argv, i)? {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!(
            "argument {} must be a string, got {}x{}",
            i + 1,
            other.shape().0,
            other.shape().1
        )),
    }
}

fn usize_arg(argv: &[Value], i: usize) -> Result<usize, String> {
    Ok(arg(argv, i)?.as_scalar()? as usize)
}

/// `data = das_read(dir, start_ts, count)` — scan a directory, run the
/// type-1 timestamp query, merge hits into a VCA, and return the full
/// `channel × time` matrix.
fn das_read(argv: &[Value]) -> Result<Vec<Value>, String> {
    let dir = str_arg(argv, 0)?;
    let start: u64 = str_arg(argv, 1)?
        .parse()
        .map_err(|_| "start timestamp must be a yymmddhhmmss string".to_string())?;
    let count = usize_arg(argv, 2)?;
    let catalog = FileCatalog::scan(&dir).map_err(|e| e.to_string())?;
    let hits = catalog
        .search_range(start, count)
        .map_err(|e| e.to_string())?;
    let vca = Vca::from_entries(&hits).map_err(|e| e.to_string())?;
    let data = vca.read_all_f64().map_err(|e| e.to_string())?;
    Ok(vec![Value::Matrix {
        rows: data.rows(),
        cols: data.cols(),
        data: data.into_vec(),
    }])
}

/// `names = das_search(dir, regex)` — type-2 regex query; returns hit
/// count and prints matches to the interpreter output... kept simple:
/// returns the number of hits (scripts branch on it).
fn das_search(argv: &[Value]) -> Result<Vec<Value>, String> {
    let dir = str_arg(argv, 0)?;
    let pattern = str_arg(argv, 1)?;
    let catalog = FileCatalog::scan(&dir).map_err(|e| e.to_string())?;
    let hits = catalog.search_regex(&pattern).map_err(|e| e.to_string())?;
    Ok(vec![Value::Num(hits.len() as f64)])
}

/// `data = das_generate(channels, hz, seconds, seed)` — render a
/// synthetic demo scene (vehicles + earthquake + persistent source) as
/// a matrix; `das_generate(dir, channels, hz, minutes, seed)` writes
/// one-minute files instead and returns the file count.
fn das_generate(argv: &[Value]) -> Result<Vec<Value>, String> {
    if let Ok(dir) = str_arg(argv, 0) {
        let channels = usize_arg(argv, 1)?;
        let hz = arg(argv, 2)?.as_scalar()?;
        let minutes = usize_arg(argv, 3)?;
        let seed = usize_arg(argv, 4)? as u64;
        let scene = Scene::demo(channels, hz, minutes as f64 * 60.0, seed);
        let paths = write_minute_files(&scene, std::path::Path::new(&dir), "170728224510", minutes)
            .map_err(|e| e.to_string())?;
        return Ok(vec![Value::Num(paths.len() as f64)]);
    }
    let channels = usize_arg(argv, 0)?;
    let hz = arg(argv, 1)?.as_scalar()?;
    let seconds = arg(argv, 2)?.as_scalar()?;
    let seed = usize_arg(argv, 3)? as u64;
    let scene = Scene::demo(channels, hz, seconds, seed);
    let rendered = scene.render(0.0, scene.samples_for(seconds));
    Ok(vec![Value::Matrix {
        rows: rendered.rows(),
        cols: rendered.cols(),
        data: rendered.as_slice().iter().map(|&v| v as f64).collect(),
    }])
}

fn matrix_arg(argv: &[Value], i: usize) -> Result<arrayudf::Array2<f64>, String> {
    match arg(argv, i)? {
        Value::Matrix { rows, cols, data } => {
            Ok(arrayudf::Array2::from_vec(*rows, *cols, data.clone()))
        }
        other => Err(format!(
            "argument {} must be a matrix, got {:?}",
            i + 1,
            other.shape()
        )),
    }
}

/// `simi = das_local_similarity(data, M, K, L, stride)` — Algorithm 2
/// over every channel, multithreaded under the hood.
fn das_local_similarity(argv: &[Value]) -> Result<Vec<Value>, String> {
    let data = matrix_arg(argv, 0)?;
    let params = LocalSimiParams {
        half_window: usize_arg(argv, 1)?,
        channel_offset: usize_arg(argv, 2)?,
        search_half: usize_arg(argv, 3)?,
        time_stride: usize_arg(argv, 4)?.max(1),
    };
    let haee = Haee::builder().threads(omp::num_procs()).build();
    match dasa::run(&Analysis::LocalSimilarity(params), &data, &haee) {
        Ok(AnalysisOutput::Map(out)) => Ok(vec![Value::Matrix {
            rows: out.rows(),
            cols: out.cols(),
            data: out.into_vec(),
        }]),
        Ok(_) => unreachable!("local similarity yields a channel × time map"),
        Err(e) => Err(e.to_string()),
    }
}

/// `scores = das_interferometry(data, f_lo, f_hi, master)` — Algorithm 3
/// against the 1-based master channel.
fn das_interferometry(argv: &[Value]) -> Result<Vec<Value>, String> {
    let data = matrix_arg(argv, 0)?;
    let lo = arg(argv, 1)?.as_scalar()?;
    let hi = arg(argv, 2)?.as_scalar()?;
    let master1 = usize_arg(argv, 3)?;
    if master1 == 0 {
        return Err("master channel is 1-based".into());
    }
    let params = InterferometryParams {
        band: (lo, hi),
        master_channel: master1 - 1,
        ..Default::default()
    };
    let haee = Haee::builder().threads(omp::num_procs()).build();
    match dasa::run(&Analysis::Interferometry(params), &data, &haee) {
        Ok(AnalysisOutput::Scores(scores)) => Ok(vec![Value::row(scores)]),
        Ok(_) => unreachable!("interferometry yields one score per channel"),
        Err(e) => Err(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use crate::Interp;

    fn dataset_dir(tag: &str) -> String {
        let dir = std::env::temp_dir().join(format!("mlab-bridge-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir.display().to_string()
    }

    #[test]
    fn generate_write_then_read_back() {
        let dir = dataset_dir("rw");
        let mut i = Interp::new();
        i.run(&format!(
            "n = das_generate('{dir}', 8, 20, 2, 5);\n\
             data = das_read('{dir}', '170728224510', 1);\n\
             r = size(data, 1); c = size(data, 2);"
        ))
        .unwrap();
        assert_eq!(i.get_scalar("n"), Some(2.0));
        assert_eq!(i.get_scalar("r"), Some(8.0));
        assert_eq!(i.get_scalar("c"), Some(2.0 * 20.0 * 60.0));
    }

    #[test]
    fn regex_search_from_script() {
        let dir = dataset_dir("regex");
        let mut i = Interp::new();
        i.run(&format!(
            "das_generate('{dir}', 4, 20, 3, 1);\n\
             hits = das_search('{dir}', '1707282245.0');\n\
             all = das_search('{dir}', 'westSac');"
        ))
        .unwrap();
        assert_eq!(i.get_scalar("hits"), Some(1.0));
        assert_eq!(i.get_scalar("all"), Some(3.0));
    }

    #[test]
    fn interactive_local_similarity() {
        let mut i = Interp::new();
        i.run(
            "data = das_generate(12, 25, 60, 9);\n\
             simi = das_local_similarity(data, 10, 1, 4, 25);\n\
             peak = max(simi(:)); rows = size(simi, 1);",
        )
        .unwrap();
        assert_eq!(i.get_scalar("rows"), Some(12.0));
        let peak = i.get_scalar("peak").unwrap();
        assert!((0.0..=1.0).contains(&peak) && peak > 0.3, "peak {peak}");
    }

    #[test]
    fn interactive_interferometry_master_is_one_based() {
        let mut i = Interp::new();
        i.run(
            "data = das_generate(6, 25, 40, 2);\n\
             s = das_interferometry(data, 0.02, 0.4, 1);\n\
             self = s(1); n = length(s);",
        )
        .unwrap();
        assert_eq!(i.get_scalar("n"), Some(6.0));
        assert!((i.get_scalar("self").unwrap() - 1.0).abs() < 1e-9);
        // 0 must be rejected (MATLAB users think 1-based).
        let mut j = Interp::new();
        assert!(j
            .run("data = das_generate(4, 25, 40, 2); s = das_interferometry(data, 0.02, 0.4, 0);")
            .is_err());
    }

    #[test]
    fn bad_arguments_error_cleanly() {
        let mut i = Interp::new();
        assert!(i.run("x = das_read(42, '170728224510', 1);").is_err());
        assert!(i.run("x = das_local_similarity(7, 1, 1, 1, 1);").is_err());
    }
}
