//! Tabular stdout reporting, CSV output, and (with `--json`) a
//! machine-readable result file per experiment run.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// A simple column-aligned table, printed like the paper's result rows.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Write as CSV into the results directory; returns the path.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

/// Wall-clock + obs-counter capture for one experiment run, emitted as
/// JSON when the binary was invoked with `--json`.
///
/// Start one at the top of an experiment's `main`, finish it with the
/// result tables at the end:
///
/// ```no_run
/// let run = bench::report::JsonRun::start("fig6");
/// let t = bench::report::Table::new("demo", &["a"]);
/// // ... experiment ...
/// run.finish(&[&t]);
/// ```
///
/// The file lands at `<results_dir>/<name>.json` as
/// `{"experiment":...,"wall_ms":N,"counters":{...},"tables":[...]}`,
/// written through the workspace-shared [`obs::json::JsonWriter`].
/// `wall_ms` covers start-to-finish; `counters` is the full integer
/// counter set of the global obs registry (`dasf.*` I/O, `minimpi.*`
/// traffic, `arrayudf.*` kernel work), so a run records work done, not
/// just time taken.
pub struct JsonRun {
    name: &'static str,
    started: Instant,
    enabled: bool,
}

impl JsonRun {
    /// Begin timing; emission is armed only if `--json` is among the
    /// process arguments.
    pub fn start(name: &'static str) -> JsonRun {
        JsonRun {
            name,
            started: Instant::now(),
            enabled: std::env::args().any(|a| a == "--json"),
        }
    }

    /// Write the JSON result file (no-op without `--json`); returns the
    /// path when one was written.
    pub fn finish(self, tables: &[&Table]) -> Option<PathBuf> {
        if !self.enabled {
            return None;
        }
        let wall_ms = self.started.elapsed().as_millis() as u64;
        let snap = obs::global().snapshot();
        let mut w = obs::json::JsonWriter::with_capacity(1024);
        w.begin_object();
        w.key("experiment").string(self.name);
        w.key("wall_ms").uint(wall_ms);
        w.key("counters").begin_object();
        for (name, value) in &snap.counters {
            w.key(name).uint(*value);
        }
        w.end_object();
        w.key("tables").begin_array();
        for t in tables {
            w.begin_object();
            w.key("title").string(&t.title);
            w.key("headers").begin_array();
            for h in &t.headers {
                w.string(h);
            }
            w.end_array();
            w.key("rows").begin_array();
            for row in &t.rows {
                w.begin_array();
                for cell in row {
                    w.string(cell);
                }
                w.end_array();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        let dir = results_dir();
        std::fs::create_dir_all(&dir).expect("create results dir");
        let path = dir.join(format!("{}.json", self.name));
        std::fs::write(&path, w.finish()).expect("write json result");
        println!("json: {}", path.display());
        Some(path)
    }
}

/// Where experiment CSVs land: `$DASSA_RESULTS` or `./results`.
pub fn results_dir() -> PathBuf {
    std::env::var("DASSA_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| Path::new("results").to_path_buf())
}

/// Format seconds human-readably.
pub fn secs(s: f64) -> String {
    if s.is_infinite() {
        "OOM".to_string()
    } else if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else if s < 120.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}min", s / 60.0)
    }
}

/// Format bytes human-readably.
pub fn bytes(b: u64) -> String {
    const K: f64 = 1024.0;
    let b = b as f64;
    if b < K {
        format!("{b:.0}B")
    } else if b < K * K {
        format!("{:.1}KiB", b / K)
    } else if b < K * K * K {
        format!("{:.1}MiB", b / K / K)
    } else {
        format!("{:.2}GiB", b / K / K / K)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("longer"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn wrong_column_count_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(0.0000005), "0.5us");
        assert_eq!(secs(0.5), "500.00ms");
        assert_eq!(secs(5.0), "5.00s");
        assert_eq!(secs(600.0), "10.0min");
        assert_eq!(secs(f64::INFINITY), "OOM");
        assert_eq!(bytes(512), "512B");
        assert_eq!(bytes(2048), "2.0KiB");
        assert_eq!(bytes(3 << 30), "3.00GiB");
    }
}
