//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent)` on one monotonic clock; every span
//! of one request carries that request's id. Spans stay in memory until the
//! run ends and are then written once as Chrome trace-event JSON. Self time
//! (a span's duration minus the part of it its children cover) is derived
//! from the spans alone.

use chatgraph_support::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// `"request"` for spans on a request's blocking path, `"probe"` for
    /// re-measurements of that request's layers made after it, off the
    /// clock.
    pub cat: &'static str,
    /// The request the span belongs to or re-measures.
    pub req: u64,
    /// Index of the parent span in the same [`SpanBuf`], if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Worker that recorded the span (Chrome `tid`).
    pub worker: usize,
    /// Free-form annotation, e.g. the API name of a step span.
    pub note: String,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans one worker recorded for one request, with an open-span stack
/// so nested `enter`/`exit` calls link parents automatically.
#[derive(Debug)]
pub struct SpanBuf {
    origin: Instant,
    req: u64,
    worker: usize,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanBuf {
    pub fn new(origin: Instant, req: u64, worker: usize) -> Self {
        SpanBuf {
            origin,
            req,
            worker,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start = self.now_ns();
        let id = self.push(name, "request", start, start, String::new());
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Records a closed span with explicit bounds under `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        start_ns: u64,
        end_ns: u64,
        note: String,
    ) {
        let id = self.push(name, "request", start_ns, end_ns, note);
        self.spans[id].parent = Some(parent);
    }

    /// Times `f` as a root-level probe span: a re-measurement of one of
    /// this request's layers, made after the request, off the clock.
    pub fn probe<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let id = self.push(name, "probe", start, end, String::new());
        self.spans[id].parent = None;
        out
    }

    fn push(
        &mut self,
        name: &'static str,
        cat: &'static str,
        start_ns: u64,
        end_ns: u64,
        note: String,
    ) -> usize {
        self.spans.push(Span {
            name,
            cat,
            req: self.req,
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
            worker: self.worker,
            note,
        });
        self.spans.len() - 1
    }
}

/// Duration and self time per span name, over many buffers.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span in `buf`: duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(buf: &SpanBuf) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); buf.spans.len()];
    for s in &buf.spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    buf.spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.dur_ns().saturating_sub(covered(s, &mut kids)))
        .collect()
}

fn covered(span: &Span, kids: &mut [(u64, u64)]) -> u64 {
    kids.sort_unstable();
    let mut total = 0;
    let mut cursor = span.start_ns;
    for &(a, b) in kids.iter() {
        let a = a.max(cursor);
        let b = b.min(span.end_ns);
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Adds every span of `buf` into per-name totals.
pub fn accumulate(buf: &SpanBuf, totals: &mut BTreeMap<&'static str, NameTotals>) {
    for (s, self_ns) in buf.spans.iter().zip(self_times(buf)) {
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.dur_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
}

/// Chrome trace-event JSON (`ph: "X"` complete events, microseconds) for
/// every span. `args` carry the span's run-wide `id`, its `parent` id and
/// its request id.
pub fn chrome_json(bufs: &[SpanBuf]) -> Json {
    let mut events = Vec::new();
    let mut base = 0;
    for buf in bufs {
        for (i, s) in buf.spans.iter().enumerate() {
            let mut args = vec![
                ("id".to_owned(), Json::UInt((base + i) as u64)),
                (
                    "parent".to_owned(),
                    s.parent
                        .map_or(Json::Null, |p| Json::UInt((base + p) as u64)),
                ),
                ("req".to_owned(), Json::UInt(s.req)),
            ];
            if !s.note.is_empty() {
                args.push(("note".to_owned(), Json::Str(s.note.clone())));
            }
            events.push(Json::Object(vec![
                ("name".to_owned(), Json::Str(s.name.to_owned())),
                ("cat".to_owned(), Json::Str(s.cat.to_owned())),
                ("ph".to_owned(), Json::Str("X".to_owned())),
                ("ts".to_owned(), Json::Float(s.start_ns as f64 / 1e3)),
                ("dur".to_owned(), Json::Float(s.dur_ns() as f64 / 1e3)),
                ("pid".to_owned(), Json::UInt(1)),
                ("tid".to_owned(), Json::UInt(s.worker as u64)),
                ("args".to_owned(), Json::Object(args)),
            ]));
        }
        base += buf.spans.len();
    }
    Json::Object(vec![
        ("traceEvents".to_owned(), Json::Array(events)),
        ("displayTimeUnit".to_owned(), Json::Str("ms".to_owned())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_clipped_children_once() {
        let mut buf = SpanBuf::new(Instant::now(), 7, 0);
        let root = buf.enter("request");
        buf.exit(root);
        buf.spans[root].start_ns = 0;
        buf.spans[root].end_ns = 100;
        buf.record("a", root, 10, 40, String::new());
        buf.record("b", root, 30, 60, String::new()); // overlaps a
        buf.record("c", root, 90, 130, String::new()); // runs past the end
        let selfs = self_times(&buf);
        assert_eq!(selfs[root], 100 - 50 - 10);
        assert_eq!(selfs[1], 30);
    }

    #[test]
    fn chrome_export_has_one_event_per_span() {
        let mut buf = SpanBuf::new(Instant::now(), 1, 0);
        let outer = buf.enter("outer");
        buf.exit(outer);
        buf.probe("p", || ());
        let doc = chrome_json(&[buf]);
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
    }
}
