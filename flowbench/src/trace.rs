//! In-memory spans around the calls a replayed flow makes into each layer.
//!
//! A span has a name, a start and an end (ns since the tracer was made),
//! the span that was open when it began (its parent) and the id of the
//! flow it belongs to. Spans are only appended while a run is measured;
//! [`Tracer::write_json`] writes them out once the run is over.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sta.query`.
    pub name: &'static str,
    /// Flow id shared by every span of one replayed flow.
    pub flow: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start (ns since the tracer's origin).
    pub start_ns: u64,
    /// End (ns since the tracer's origin); `start_ns` while still open.
    pub end_ns: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records properly nested spans.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    flow: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            flow: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Start attributing spans to a new flow; returns its id.
    pub fn next_flow(&mut self) -> u32 {
        self.flow += 1;
        self.flow
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            flow: self.flow,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span.
    pub fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Close every span still open (after an error unwound a replay).
    pub fn close_all(&mut self) {
        while let Some(&id) = self.open.last() {
            self.end(id);
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as one JSON document: `{"spans": [{"id", "name", "flow",
    /// "parent", "start_ns", "end_ns"}, ...]}`, one span per line.
    pub fn write_json(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let mut buf = String::with_capacity(96 * self.spans.len() + 16);
        buf.push_str("{\"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                buf,
                "{{\"id\": {id}, \"name\": \"{}\", \"flow\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
                s.name, s.flow, s.start_ns, s.end_ns
            );
        }
        buf.push_str("]}\n");
        out.write_all(buf.as_bytes())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may overlap one another (the union
/// is subtracted once) and are clipped to their parent's interval.
///
/// # Panics
///
/// Panics if a parent index does not precede its child.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (id, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            assert!(p < id, "a parent span begins before its children");
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            flow: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_on_a_hand_built_tree() {
        // flow [0, 100): round [10, 90) holds query [20, 30) and
        // optimize [40, 80), which holds a resolve [50, 60).
        let spans = [
            span("flow", None, 0, 100),
            span("flow.round", Some(0), 10, 90),
            span("sta.query", Some(1), 20, 30),
            span("core.optimize", Some(1), 40, 80),
            span("core.resolve", Some(3), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 10, 30, 10]);
        // Self times partition the root's interval.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_the_parent() {
        let spans = [
            span("flow", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 30, 70),
            span("c", Some(0), 90, 120),
        ];
        // Covered: [10, 70) and [90, 100) → 70 of 100.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn the_tracer_nests_spans_and_tags_flows() {
        let mut t = Tracer::new();
        let flow = t.next_flow();
        let root = t.begin("flow");
        let inner = t.span("sta.query", || 7);
        assert_eq!(inner, 7);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.flow == flow));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut out = Vec::new();
        t.write_json(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"name\": \"sta.query\", \"flow\": 1, \"parent\": 0"));
    }

    #[test]
    #[should_panic(expected = "innermost")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let outer = t.begin("outer");
        let _inner = t.begin("inner");
        t.end(outer);
    }
}
