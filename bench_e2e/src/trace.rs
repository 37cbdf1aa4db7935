//! In-memory spans recorded around calls into the engine's layers, and the
//! self-time arithmetic that turns them into a per-layer breakdown.
//!
//! A span is `{name, start, end, parent, request}`. Spans live in memory
//! while the benchmark runs and are written out once at the end. A span's
//! self time is its duration minus the union of its children's intervals,
//! so children that overlap (parallel scatter tasks) are counted once.
//! When siblings run in parallel their self times can add up to more than
//! the wall time they cover; [`attribute`] therefore also splits each
//! instant of a request's wall time evenly among the spans running their
//! own code at that instant. Attributed times of one request add up to its
//! root span's duration exactly, which is what the layer table sums.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`"append"`, `"collect"`, ...).
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the parent span in the same buffer; `None` for a root.
    pub parent: Option<usize>,
    /// The request (root span) this span belongs to.
    pub request: u64,
}

/// A per-thread span recorder. Spans nest by call structure: a span's
/// parent is the span open when it began.
pub struct Tracer {
    origin: Instant,
    request_base: u64,
    next_request: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose clock starts at `origin`. `thread` keeps request
    /// ids of different threads apart.
    pub fn new(origin: Instant, thread: u64) -> Self {
        Tracer {
            origin,
            request_base: thread << 40,
            next_request: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant the tracer's clock counts from; work timed on other
    /// threads and handed to [`Tracer::record`] must count from it too.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// The tracer's clock: ns since its origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a new root span: one request.
    pub fn request<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        assert!(self.open.is_empty(), "a request span must be a root");
        self.next_request += 1;
        self.span(name, f)
    }

    /// Runs `f` inside a span that is a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request_base + self.next_request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = self.now();
        out
    }

    /// Records a finished child of the innermost open span, for work whose
    /// interval was measured elsewhere (a scatter task on a pool thread, or
    /// the modelled OSS sleep inside an upload).
    pub fn record(&mut self, name: &'static str, start: u64, end: u64) {
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            request: self.request_base + self.next_request,
        });
    }

    /// Hands the spans over, leaving the tracer empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Children of each span, by index.
fn children(spans: &[Span]) -> Vec<Vec<usize>> {
    let mut kids = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            kids[p].push(i);
        }
    }
    kids
}

/// Self time of every span: its duration minus the union of its children's
/// intervals.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let kids = children(spans);
    spans
        .iter()
        .zip(&kids)
        .map(|(s, ks)| {
            let iv = ks.iter().map(|&k| (spans[k].start, spans[k].end)).collect();
            (s.end - s.start) - union_len(iv, s.start, s.end)
        })
        .collect()
}

/// The pieces of a span's interval that no child covers.
fn self_pieces(span: &Span, kids: &[usize], spans: &[Span]) -> Vec<(u64, u64)> {
    let mut iv: Vec<(u64, u64)> = kids.iter().map(|&k| (spans[k].start, spans[k].end)).collect();
    iv.sort_unstable();
    let mut pieces = Vec::new();
    let mut cursor = span.start;
    for (s, e) in iv {
        if s > cursor {
            pieces.push((cursor, s.min(span.end)));
        }
        cursor = cursor.max(e);
    }
    if span.end > cursor {
        pieces.push((cursor, span.end));
    }
    pieces.retain(|(s, e)| e > s);
    pieces
}

/// Wall time attributed to every span: each instant of a request is split
/// evenly among the spans whose own code (not a child's) runs then. For
/// nested, non-overlapping spans this equals the self time.
pub fn attribute(spans: &[Span]) -> Vec<f64> {
    let kids = children(spans);
    // Boundary events of every self piece, swept in time order.
    let mut events: Vec<(u64, bool, usize)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        for (a, b) in self_pieces(s, &kids[i], spans) {
            events.push((a, true, i));
            events.push((b, false, i));
        }
    }
    // Ends sort before starts at the same instant.
    events.sort_unstable_by_key(|&(t, is_start, i)| (t, is_start, i));
    let mut out = vec![0.0; spans.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut last = 0u64;
    for (t, is_start, i) in events {
        if !active.is_empty() && t > last {
            let share = (t - last) as f64 / active.len() as f64;
            for &a in &active {
                out[a] += share;
            }
        }
        last = t;
        if is_start {
            active.push(i);
        } else if let Some(pos) = active.iter().position(|&a| a == i) {
            active.swap_remove(pos);
        }
    }
    out
}

/// One row of the layer table.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerRow {
    /// Spans recorded under this name.
    pub count: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed attributed wall time, ns.
    pub attributed_ns: f64,
}

/// Per-name totals plus the summed duration of root spans.
pub struct Breakdown {
    /// Rows by span name (root names included: their time is the part of
    /// each request that no layer span covers).
    pub rows: BTreeMap<&'static str, LayerRow>,
    /// Summed root-span durations, ns (the traced end-to-end time).
    pub root_ns: u64,
    /// Summed attributed time of root spans themselves, ns.
    pub root_self_ns: f64,
}

impl Breakdown {
    /// Builds the table from one thread's spans.
    pub fn of(spans: &[Span]) -> Breakdown {
        let selfs = self_times(spans);
        let attr = attribute(spans);
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        let mut root_ns = 0;
        let mut root_self_ns = 0.0;
        for (i, s) in spans.iter().enumerate() {
            let row = rows.entry(s.name).or_default();
            row.count += 1;
            row.self_ns += selfs[i];
            row.attributed_ns += attr[i];
            if s.parent.is_none() {
                root_ns += s.end - s.start;
                root_self_ns += attr[i];
            }
        }
        Breakdown { rows, root_ns, root_self_ns }
    }

    /// Merges another thread's table.
    pub fn merge(&mut self, other: &Breakdown) {
        for (name, row) in &other.rows {
            let mine = self.rows.entry(name).or_default();
            mine.count += row.count;
            mine.self_ns += row.self_ns;
            mine.attributed_ns += row.attributed_ns;
        }
        self.root_ns += other.root_ns;
        self.root_self_ns += other.root_self_ns;
    }

    /// Share of the traced end-to-end time that layer spans account for.
    pub fn coverage(&self) -> f64 {
        if self.root_ns == 0 {
            return 0.0;
        }
        1.0 - self.root_self_ns / self.root_ns as f64
    }

    /// A layer's row (zero when it recorded nothing).
    pub fn row(&self, name: &str) -> LayerRow {
        self.rows.get(name).copied().unwrap_or_default()
    }
}

/// Writes spans as JSON lines: one object per span, tagged with its thread.
pub fn write_spans(out: &mut impl Write, thread: usize, spans: &[Span]) -> std::io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"thread\":{thread},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            s.name, s.start, s.end, s.request
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, request: 1 }
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("query", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
        ];
        // The children cover [10, 70): 60 ns, not 40 + 40.
        assert_eq!(self_times(&spans), vec![40, 40, 40]);
        // [30, 50) ran both children at once: each gets half of it.
        assert_eq!(attribute(&spans), vec![40.0, 30.0, 30.0]);
        let b = Breakdown::of(&spans);
        assert_eq!(b.root_ns, 100);
        assert!((b.coverage() - 0.6).abs() < 1e-12);
        let layers: f64 = b.rows.values().map(|r| r.attributed_ns).sum();
        assert_eq!(layers, 100.0, "attributed times add up to the root's duration");
    }

    #[test]
    fn nested_spans_subtract_only_their_direct_children() {
        let spans = vec![
            span("ingest", 0, 100, None),
            span("append", 0, 60, Some(0)),
            span("archive.build", 60, 95, Some(0)),
            span("archive.upload", 80, 95, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![5, 60, 20, 15]);
        assert_eq!(attribute(&spans), vec![5.0, 60.0, 20.0, 15.0]);
        assert!((Breakdown::of(&spans).coverage() - 0.95).abs() < 1e-12);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn tracer_nests_spans_by_call_structure() {
        let mut t = Tracer::new(Instant::now(), 1);
        t.request("ingest", |t| {
            t.span("route", |_| ());
            t.span("append", |t| t.span("inner", |_| ()));
        });
        t.request("ingest", |_| ());
        let s = t.take();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[4].parent, None);
        assert_ne!(s[0].request, s[4].request);
        assert!(s.iter().all(|x| x.end >= x.start));
    }

    #[test]
    fn spans_serialize_one_per_line() {
        let mut buf = Vec::new();
        write_spans(&mut buf, 2, &[span("root", 1, 5, None), span("kid", 2, 3, Some(0))]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"kid\",\"start_ns\":2,\"end_ns\":3,\"parent\":0"));
    }
}
