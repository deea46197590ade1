//! Spans recorded around the benchmark's calls into each layer, kept in
//! memory and written out once when the run ends.

use dvm_bench::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: a layer boundary crossed by the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The simulation unit the span belongs to (`None` for set-up).
    pub unit: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// In-memory span recorder with a stack of open spans: a span entered
/// while another is open becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, unit: Option<usize>) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            unit,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id` and return its duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span.
    pub fn exit(&mut self, id: SpanId) -> f64 {
        assert_eq!(self.open.pop(), Some(id.0), "spans must nest");
        self.spans[id.0].end_ns = self.now_ns();
        self.spans[id.0].seconds()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name: each span's duration minus the
    /// part of it its direct children cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_s = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_s[p] += span.seconds();
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_s) {
            *totals.entry(span.name).or_insert(0.0) += span.seconds() - children;
        }
        totals
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::UInt(s.start_ns)),
                        ("end_ns", Json::UInt(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                        ("unit", s.unit.map_or(Json::Null, |u| Json::UInt(u as u64))),
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
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", Some(0));
        let inner = t.enter("inner", Some(0));
        std::thread::sleep(std::time::Duration::from_millis(5));
        let inner_s = t.exit(inner);
        let outer_s = t.exit(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        let self_s = t.self_seconds();
        assert!((self_s["outer"] - (outer_s - inner_s)).abs() < 1e-9);
        assert!((self_s["inner"] - inner_s).abs() < 1e-9);
        assert!(inner_s >= 0.005);
    }
}
