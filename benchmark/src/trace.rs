//! In-memory span recorder for the traced run.
//!
//! The benchmark records the spans itself, around each call it makes into
//! a crate's public API; no program code is instrumented. Spans are kept
//! in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Spans of one root (one traced compile) share this identifier.
    pub trace_id: usize,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records nested spans. Not thread-safe by design: every traced call is
/// made from the benchmark's main thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_trace: usize,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), next_trace: 0 }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one (or as a new root).
    pub fn begin(&mut self, name: &'static str) {
        let parent = self.open.last().copied();
        let trace_id = match parent {
            Some(p) => self.spans[p].trace_id,
            None => {
                self.next_trace += 1;
                self.next_trace
            }
        };
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, trace_id });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span, returning its duration in seconds.
    pub fn end(&mut self) -> f64 {
        let id = self.open.pop().expect("end() matches a begin()");
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        self.spans[id].duration_s()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover, summed over spans of that name whose root is named
    /// `root` (children of one parent never overlap, since every traced
    /// call runs on one thread).
    pub fn self_time_by_name(&self, root: &str) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration_s();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_some() && self.root_name(i) == root {
                *out.entry(s.name).or_insert(0.0) += s.duration_s() - child_time[i];
            }
        }
        out
    }

    /// Total duration of the root spans named `root`.
    pub fn root_time(&self, root: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(Span::duration_s)
            .sum()
    }

    fn root_name(&self, mut i: usize) -> &'static str {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        self.spans[i].name
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.trace_id, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
