//! In-memory spans for the traced run, recorded around the benchmark's own
//! calls into each layer. Nothing is written until the run ends.

use std::time::Instant;

use nexsort_server::json::{n, obj, s, Value};

/// One timed call: its name, the span that caused it, and the trace it
/// belongs to (`workload/iteration` or a daemon job id).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub trace: String,
    pub start_us: u64,
    pub end_us: u64,
}

impl Span {
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// A span recorder. Every tracer of one run shares an origin, so the spans
/// of several client threads can be merged onto one time line.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, trace: &str) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            name,
            parent,
            trace: trace.to_string(),
            start_us: now,
            end_us: now,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Record a span whose interval was measured elsewhere.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        trace: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_micros() as u64;
        let (start_us, end_us) = (us(start), us(end));
        self.spans.push(Span { name, parent, trace: trace.to_string(), start_us, end_us });
        self.spans.len() - 1
    }

    /// Time `f` as a child of `parent`, in the parent's trace.
    pub fn span<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let trace = self.spans[parent].trace.clone();
        let id = self.begin(name, Some(parent), &trace);
        let out = f();
        self.end(id);
        out
    }

    /// Append another tracer's spans, renumbering their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut sp| {
            sp.parent = sp.parent.map(|p| p + base);
            sp
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            children[p].push((sp.start_us, sp.end_us));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(sp, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, sp.start_us);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(sp.end_us));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            sp.dur_us() - covered
        })
        .collect()
}

/// The share of the time of root spans called `root` that their child
/// spans account for.
pub fn coverage_of(spans: &[Span], root: &str) -> f64 {
    let selfs = self_times_us(spans);
    let (mut total, mut own) = (0u64, 0u64);
    for (sp, self_us) in spans.iter().zip(selfs) {
        if sp.parent.is_none() && sp.name == root {
            total += sp.dur_us();
            own += self_us;
        }
    }
    if total == 0 {
        return 0.0;
    }
    (total - own) as f64 / total as f64
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|sp| sp.name == name).map(|sp| sp.dur_us() as f64 / 1000.0).collect()
}

/// One row of the span table.
#[derive(Debug, PartialEq)]
pub struct Row {
    pub name: &'static str,
    pub calls: usize,
    pub total_us: u64,
    pub self_us: u64,
    /// `total_us` over the summed duration of all root spans.
    pub share: f64,
}

/// Calls, total, self time and share per span name, in first-seen order.
pub fn table(spans: &[Span]) -> Vec<Row> {
    let selfs = self_times_us(spans);
    let roots: u64 = spans.iter().filter(|sp| sp.parent.is_none()).map(Span::dur_us).sum();
    let mut rows: Vec<Row> = Vec::new();
    for (sp, self_us) in spans.iter().zip(selfs) {
        let i = match rows.iter().position(|r| r.name == sp.name) {
            Some(i) => i,
            None => {
                rows.push(Row { name: sp.name, calls: 0, total_us: 0, self_us: 0, share: 0.0 });
                rows.len() - 1
            }
        };
        rows[i].calls += 1;
        rows[i].total_us += sp.dur_us();
        rows[i].self_us += self_us;
    }
    for r in &mut rows {
        r.share = if roots == 0 { 0.0 } else { r.total_us as f64 / roots as f64 };
    }
    rows
}

/// The spans as JSON lines, one object per span; `id` is the line index.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, sp) in spans.iter().enumerate() {
        let parent = sp.parent.map_or(Value::Null, |p| n(p as u64));
        let line = obj(vec![
            ("id", n(id as u64)),
            ("name", s(sp.name)),
            ("parent", parent),
            ("trace", s(sp.trace.clone())),
            ("start_us", n(sp.start_us)),
            ("end_us", n(sp.end_us)),
        ]);
        out.push_str(&line.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<usize>, start_us: u64, end_us: u64) -> Span {
        Span { name, parent, trace: "w/0".into(), start_us, end_us }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp("root", None, 0, 100),
            sp("a", Some(0), 10, 40),
            sp("b", Some(0), 30, 60),  // overlaps a: 10..60 counted once
            sp("c", Some(0), 90, 120), // clipped to the parent's end
            sp("leaf", Some(1), 10, 20),
        ];
        assert_eq!(self_times_us(&spans), vec![100 - 50 - 10, 20, 30, 30, 10]);
    }

    #[test]
    fn coverage_is_child_time_over_root_time() {
        let spans = vec![
            sp("root", None, 0, 100),
            sp("a", Some(0), 0, 95),
            sp("root", None, 200, 300),
            sp("a", Some(2), 200, 300),
            sp("other", None, 400, 500), // another root: not counted
        ];
        assert!((coverage_of(&spans, "root") - 0.975).abs() < 1e-12);
        assert_eq!(coverage_of(&spans, "other"), 0.0);
        assert_eq!(coverage_of(&[], "root"), 0.0);
    }

    #[test]
    fn table_aggregates_by_name_in_first_seen_order() {
        let spans = vec![
            sp("root", None, 0, 100),
            sp("a", Some(0), 0, 40),
            sp("b", Some(0), 40, 90),
            sp("a", Some(0), 90, 100),
        ];
        let rows = table(&spans);
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        assert_eq!(names, ["root", "a", "b"]);
        assert_eq!((rows[1].calls, rows[1].total_us, rows[1].self_us), (2, 50, 50));
        assert_eq!(rows[0].self_us, 0);
        assert!((rows[2].share - 0.5).abs() < 1e-12);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let r = a.begin("root", None, "x");
        a.span("child", r, || ());
        a.end(r);
        let mut b = Tracer::new(origin);
        let r = b.begin("root", None, "y");
        b.span("child", r, || ());
        b.end(r);
        a.absorb(b);
        let parents: Vec<Option<usize>> = a.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), None, Some(2)]);
        assert_eq!(a.spans()[3].trace, "y");
        let lines = to_json_lines(a.spans());
        assert_eq!(lines.lines().count(), 4);
        assert!(lines.lines().nth(3).unwrap().contains("\"parent\":2"));
    }
}
