//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program's public API: name, start, end, the span that caused it, and
//! a request id shared by every span of one request. They stay in memory
//! until the run ends and are then written out as one JSON document.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span with one name, summed over the spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub self_ns: u64,
}

/// Collects spans against a common time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id for [`end`](Tracer::end) and as
    /// the parent of nested spans.
    pub fn begin(&mut self, name: impl Into<String>, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now;
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<T>(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Moves `other`'s spans (recorded against the same origin, e.g. on
    /// a client thread) into this tracer, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn root_of(&self, mut id: usize) -> usize {
        while let Some(parent) = self.spans[id].parent {
            id = parent;
        }
        id
    }

    /// Self time per span name over the trees rooted at spans named
    /// `root`: each span's duration minus the part its children cover.
    /// Children never overlap (they run one after another on the
    /// thread that opened the parent), so that part is their sum.
    pub fn self_times(&self, root: &str) -> BTreeMap<String, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if self.spans[self.root_of(id)].name != root {
                continue;
            }
            let entry = out.entry(span.name.clone()).or_default();
            entry.count += 1;
            entry.self_ns += span.duration_ns().saturating_sub(child_ns[id]);
        }
        out
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("\n]");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_subtracts_children_within_the_named_root() {
        let mut t = Tracer::new(Instant::now());
        t.spans = vec![
            span("request", 0, 100, None),
            span("nn.forward", 10, 90, Some(0)),
            span("nn.conv1", 10, 40, Some(1)),
            span("nn.conv2", 40, 80, Some(1)),
            span("other", 0, 1_000, None),
        ];
        let times = t.self_times("request");
        assert_eq!(times["request"].self_ns, 20);
        assert_eq!(times["nn.forward"].self_ns, 10);
        assert_eq!(times["nn.conv1"].self_ns, 30);
        assert_eq!(times["nn.conv2"].self_ns, 40);
        assert!(!times.contains_key("other"));
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.leaf("x", None, 1, || ());
        let mut b = Tracer::new(origin);
        let root = b.begin("request", None, 2);
        b.leaf("child", Some(root), 2, || ());
        b.end(root);
        a.absorb(b);
        assert_eq!(a.spans().len(), 3);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.self_times("request")["child"].count, 1);
        assert!(a.to_json().contains("\"parent\":1"));
    }
}
