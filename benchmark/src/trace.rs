//! In-memory spans recorded from the harness's side of each layer
//! boundary (spans *inside* the simulator are a later change). A span has
//! a name, a start and end on one monotonic clock, the span that caused
//! it, and the counts measured at that boundary; the whole run shares one
//! trace. Nothing is written until the run ends.

use crate::json::{obj, Value};
use std::time::Instant;

/// Handle of an open or closed span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: Option<u64>,
    counts: Vec<(&'static str, f64)>,
}

/// The span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Currently open spans, innermost last: a new span's parent.
    stack: Vec<usize>,
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: None,
            counts: Vec::new(),
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `span` (which must be the innermost open one).
    pub fn close(&mut self, span: SpanId) {
        let end = self.now_ns();
        assert_eq!(self.stack.pop(), Some(span.0), "spans close innermost first");
        self.spans[span.0].end_ns = Some(end);
    }

    /// Attaches a count measured at `span`'s boundary.
    pub fn count(&mut self, span: SpanId, key: &'static str, value: f64) {
        self.spans[span.0].counts.push((key, value));
    }

    /// Nanoseconds `span` lasted.
    pub fn duration_ns(&self, span: SpanId) -> u64 {
        let s = &self.spans[span.0];
        s.end_ns.expect("span is closed") - s.start_ns
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Span names in the order the spans were opened.
    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.spans.iter().map(|s| s.name)
    }

    /// The trace as JSON: one object per span, ids are array positions.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    obj([
                        ("id", id.into()),
                        ("parent", s.parent.map_or(Value::Null, Value::from)),
                        ("name", s.name.into()),
                        ("start_ns", s.start_ns.into()),
                        ("end_ns", s.end_ns.map_or(Value::Null, Value::from)),
                        (
                            "counts",
                            Value::Obj(
                                s.counts.iter().map(|&(k, v)| (k.to_string(), v.into())).collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::new();
        let root = t.open("workload");
        let a = t.open("core.step_round");
        t.close(a);
        t.count(a, "events", 12.0);
        let b = t.open("replay");
        let c = t.open("replay.batch");
        t.close(c);
        t.close(b);
        t.close(root);
        assert_eq!(t.len(), 4);
        let json = t.to_json();
        let parents: Vec<Value> =
            json.items().iter().map(|s| s.get("parent").unwrap().clone()).collect();
        assert_eq!(parents, vec![Value::Null, Value::Int(0), Value::Int(0), Value::Int(2)]);
        assert_eq!(json.items()[1].get("counts").unwrap().compact(), r#"{"events":12}"#);
        assert!(t.duration_ns(root) >= t.duration_ns(b));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_harness_bug() {
        let mut t = Tracer::new();
        let outer = t.open("outer");
        let _inner = t.open("inner");
        t.close(outer);
    }
}
