//! In-memory span recorder for the traced run.
//!
//! The driver thread wraps every call it makes into a product layer in
//! [`Tracer::span`]. Spans nest by call structure (a span opened while
//! another is open is its child), share the `op_id` of the operation
//! they belong to, stay in memory for the whole run and are written out
//! once at exit. A span's *self time* is its duration minus the time
//! its direct children cover. When the tracer is disabled a span is one
//! branch and a call.

use std::cell::{Cell, RefCell};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to (see [`Tracer::next_op`]).
    pub op_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread.
pub struct Tracer {
    origin: Instant,
    enabled: Cell<bool>,
    op_id: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: Cell::new(enabled),
            op_id: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Start a new operation: spans recorded from now on carry its id.
    pub fn next_op(&self) -> u64 {
        self.op_id.set(self.op_id.get() + 1);
        self.op_id.get()
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: open.last().copied(),
                op_id: self.op_id.get(),
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.spans.borrow_mut()[idx].end_ns = end;
        self.open.borrow_mut().pop();
        out
    }

    /// Durations (ms) of every span called `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Share of root-span wall time that spans *below* the roots account
/// for: `Σ self time of non-root spans ÷ Σ root durations`. Roots are
/// the per-operation envelopes the harness opens, so this is "how much
/// of an operation the layer spans explain".
pub fn coverage(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let mut root = 0u64;
    let mut below = 0u64;
    for (s, o) in spans.iter().zip(&own) {
        match s.parent {
            None => root += s.duration_ns(),
            Some(_) => below += o,
        }
    }
    if root == 0 {
        0.0
    } else {
        below as f64 / root as f64
    }
}

/// Per-name totals: `(name, count, total ns, self ns)`, by self time.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let own = self_times(spans);
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, o) in spans.iter().zip(&own) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.duration_ns();
                r.3 += o;
            }
            None => rows.push((s.name, 1, s.duration_ns(), *o)),
        }
    }
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    rows
}

/// The trace file: a per-name summary, then every span.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str(&format!(
        "{{\"workload\":\"{workload}\",\"coverage\":{:.6},\"summary\":[",
        coverage(spans)
    ));
    for (i, (name, count, total, selfns)) in by_name(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{selfns}}}"
        ));
    }
    out.push_str("],\"spans\":[");
    for (i, (s, o)) in spans.iter().zip(&own).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{},\"self_ns\":{o}}}",
            s.name, s.start_ns, s.end_ns, s.op_id
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, a: u64, b: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            sp("op", 0, 100, None),
            sp("read", 10, 60, Some(0)),
            sp("decode", 20, 50, Some(1)),
            sp("run", 60, 95, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![15, 20, 30, 35]);
        // 85 of the op's 100 ns sit in spans below the root
        assert!((coverage(&spans) - 0.85).abs() < 1e-12);
        let rows = by_name(&spans);
        assert_eq!(rows[0], ("run", 1, 35, 35));
        assert_eq!(rows[3], ("op", 1, 100, 15));
    }

    #[test]
    fn tracer_nests_by_call_structure_and_tags_ops() {
        let t = Tracer::new(true);
        let op = t.next_op();
        let v = t.span("op", || {
            t.span("a", || 1) + t.span("b", || t.span("c", || 2))
        });
        assert_eq!(v, 3);
        let spans = t.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("op", None), ("a", Some(0)), ("b", Some(0)), ("c", Some(2))]
        );
        assert!(spans
            .iter()
            .all(|s| s.op_id == op && s.end_ns >= s.start_ns));
        assert!(spans[0].duration_ns() >= spans[1].duration_ns() + spans[2].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 5), 5);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.span("y", || ());
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.durations_ms("y").len(), 1);
        assert!(to_json("w", &t.spans()).contains("\"name\":\"y\""));
    }
}
