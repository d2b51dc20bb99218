//! The benchmark's own in-memory span recorder, used only by the traced
//! run. Spans nest workload -> round -> arm -> step; the program's own
//! `gist_obs::Event::Span`s of a traced step hang below the step as
//! children. Everything is kept in memory and written out once, as a
//! chrome-tracing file, when the run ends.

use gist::obs::json::escape;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// The layer the span belongs to (`workload`, `round`, `arm`, `step`,
    /// `tensor`, `net`, `serve`, `replay`).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one step (0 above step level).
    pub step_id: u64,
}

/// Total length covered by `intervals` at or after `from` (they may
/// overlap: spans that ran on different threads).
pub fn union_ns(mut intervals: Vec<(u64, u64)>, from: u64) -> u64 {
    intervals.sort_unstable();
    let (mut cover, mut edge) = (0, from);
    for (a, b) in intervals {
        let a = a.max(edge);
        if b > a {
            cover += b - a;
            edge = b;
        }
    }
    cover
}

/// Runs `f` inside a span when tracing, plainly otherwise. For the coarse
/// levels only (a round, an arm, a serve cycle): the name is built either
/// way.
pub fn in_span<R>(
    tracer: Option<&mut Tracer>,
    name: impl Into<String>,
    layer: &'static str,
    f: impl FnOnce(Option<&mut Tracer>) -> R,
) -> R {
    match tracer {
        None => f(None),
        Some(t) => {
            let span = t.begin(name, layer);
            let r = f(Some(&mut *t));
            t.end(span);
            r
        }
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_step_id: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), next_step_id: 1 }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span below the innermost open one. A `step` span starts a
    /// new step id; every other span inherits its parent's.
    pub fn begin(&mut self, name: impl Into<String>, layer: &'static str) -> usize {
        let parent = self.open.last().copied();
        let step_id = if layer == "step" {
            self.next_step_id += 1;
            self.next_step_id - 1
        } else {
            parent.map_or(0, |p| self.spans[p].step_id)
        };
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_ns: now,
            end_ns: now,
            parent,
            step_id,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn end(&mut self, idx: usize) {
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Records an already-finished child of the innermost open span, from
    /// a start offset (relative to that span's start) and a duration — the
    /// shape the program's own span events have.
    pub fn child(&mut self, name: &str, layer: &'static str, offset_ns: u64, dur_ns: u64) {
        let parent = *self.open.last().expect("child needs an open parent");
        let start_ns = self.spans[parent].start_ns + offset_ns;
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            step_id: self.spans[parent].step_id,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus the part of it that
    /// its child spans cover (children may overlap one another when they
    /// ran on different threads, so the cover is the union of their
    /// intervals).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for c in &self.spans {
            if let Some(p) = c.parent {
                let s = &self.spans[p];
                let (a, b) = (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns));
                if b > a {
                    kids[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(kids)
            .map(|(s, kids)| (s.end_ns - s.start_ns) - union_ns(kids, s.start_ns))
            .collect()
    }

    /// Total self time per layer, in nanoseconds, over all spans.
    pub fn self_ns_by_layer(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            match out.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, total)) => *total += ns,
                None => out.push((s.layer, ns)),
            }
        }
        out
    }

    /// Renders the spans as a chrome-tracing JSON array (`ts`/`dur` in
    /// microseconds, one track per layer).
    pub fn to_chrome(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": \"{}\", \"args\": {{\"span\": {i}, \
                 \"parent\": {}, \"step\": {}}}}}{sep}\n",
                escape(&s.name),
                s.layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.layer,
                s.parent.map_or(-1, |p| p as i64),
                s.step_id,
            ));
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(spans: Vec<Span>) -> Tracer {
        Tracer { epoch: Instant::now(), spans, open: Vec::new(), next_step_id: 1 }
    }

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: "s".into(), layer: "step", start_ns: start, end_ns: end, parent, step_id: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..30, 20..50 (overlapping), 70..80.
        let t = fixed(vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)),
            span(70, 80, Some(0)),
        ]);
        assert_eq!(t.self_ns(), [100 - 40 - 10, 20, 30, 10]);
        assert_eq!(t.self_ns_by_layer(), [("step", 110)]);
    }

    #[test]
    fn steps_get_fresh_ids_and_children_inherit() {
        let mut t = Tracer::new();
        let w = t.begin("w", "workload");
        let s1 = t.begin("s1", "step");
        t.child("conv", "tensor", 5, 10);
        t.end(s1);
        let s2 = t.begin("s2", "step");
        t.end(s2);
        t.end(w);
        let ids: Vec<u64> = t.spans().iter().map(|s| s.step_id).collect();
        assert_eq!(ids, [0, 1, 1, 2]);
        assert_eq!(t.spans()[2].parent, Some(s1));
        let doc = gist::obs::json::parse(&t.to_chrome()).expect("chrome trace parses");
        assert_eq!(doc.as_array().map(<[_]>::len), Some(4));
    }
}
