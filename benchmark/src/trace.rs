//! In-memory span recorder for the traced run (phase C).
//!
//! Spans are recorded by the benchmark's own code around its calls into each
//! layer — nothing inside the program is instrumented. They stay in memory
//! while the replay runs and are written out once at the end. A layer's
//! number is its spans' *self* time (duration minus the part its direct
//! children cover) divided by the items the spans processed.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer. Spans of one window share `trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// The window (punctuation) id the call belongs to.
    pub trace: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// Work units (documents, pairs, …) the call processed.
    pub items: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time and item count summed over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Total {
    pub self_ns: u64,
    pub items: u64,
}

impl Total {
    /// Self nanoseconds per item; 0 when no items were recorded.
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.items as f64
        }
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, trace: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        // Read the clock last so recorder bookkeeping stays outside the span.
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            layer,
            trace,
            start_ns,
            end_ns: start_ns,
            parent,
            items: 0,
        });
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: u32, items: u64) {
        let end_ns = self.now();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.items = items;
    }

    /// Time `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        trace: u64,
        items: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, layer, trace);
        let r = f();
        self.end(id, items);
        r
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals of self time and items.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        totals(&self.spans)
    }

    /// One JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","layer":"{}","trace":{},"start_ns":{},"end_ns":{},"parent":{parent},"items":{}}}"#,
                s.name, s.layer, s.trace, s.start_ns, s.end_ns, s.items
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children (children never overlap — the recorder is single-threaded and
/// spans close innermost first).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration());
        }
    }
    own
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.self_ns += own;
        t.items += s.items;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, items: u64) -> Span {
        Span {
            name,
            layer: "test",
            trace: 0,
            start_ns: start,
            end_ns: end,
            parent,
            items,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // window [0,100) ─ parse [10,40) ─ lex [15,25)
        //                └ join  [50,90)
        let spans = vec![
            span("window", 0, 100, None, 1),
            span("parse", 10, 40, Some(0), 5),
            span("lex", 15, 25, Some(1), 5),
            span("join", 50, 90, Some(0), 5),
        ];
        // The grandchild is charged to `parse`, not to `window`.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let t = totals(&spans);
        assert_eq!(t["parse"].ns_per_item(), 4.0);
        assert_eq!(t["window"].self_ns, 30);
    }

    #[test]
    fn totals_pool_spans_of_one_name() {
        let spans = vec![
            span("route", 0, 10, None, 2),
            span("route", 20, 50, None, 8),
            span("idle", 60, 70, None, 0),
        ];
        let t = totals(&spans);
        assert_eq!(
            t["route"],
            Total {
                self_ns: 40,
                items: 10
            }
        );
        assert_eq!(t["route"].ns_per_item(), 4.0);
        assert_eq!(t["idle"].ns_per_item(), 0.0);
    }

    #[test]
    fn recorder_nests_and_links_parents() {
        let mut t = Tracer::new();
        let w = t.begin("window", "bench", 7);
        t.span("parse", "json", 7, 3, || std::hint::black_box(1 + 1));
        t.end(w, 1);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].trace, 7);
        assert_eq!(spans[1].items, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
