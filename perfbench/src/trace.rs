//! In-memory spans for the traced run: each records its name, start, end,
//! parent span and the operation it belongs to, and the whole set is written
//! out as JSON when the run ends. A tracer that is off records nothing, so
//! the same code can run untraced to measure what tracing costs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    /// Counts recorded at span boundaries: name, operation, value.
    counts: Vec<(&'static str, u64, f64)>,
}

impl Tracer {
    /// A tracer that records.
    pub fn new() -> Self {
        Tracer::with(true)
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::with(false)
    }

    fn with(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new operation: later spans belong to it.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span and returns its duration in ms (0
    /// when off).
    pub fn exit(&mut self) -> f64 {
        if !self.on {
            return 0.0;
        }
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].ms()
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Records a count for the current operation.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.push((name, self.op, value));
        }
    }

    /// Every value recorded under count `name`.
    pub fn counts(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| c.0 == name)
            .map(|c| c.2)
            .collect()
    }

    /// Durations (ms) of every span named `name`, keyed by operation.
    pub fn by_op(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_insert(0.0) += s.ms();
        }
        out
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per operation, `total(minuend) − Σ total(subtrahends)`, over the
    /// operations that hold every one of the spans.
    pub fn differences(&self, minuend: &str, subtrahends: &[&str]) -> Vec<f64> {
        let parts: Vec<BTreeMap<u64, f64>> = subtrahends.iter().map(|n| self.by_op(n)).collect();
        self.by_op(minuend)
            .into_iter()
            .filter_map(|(op, total)| {
                let mut rest = total;
                for part in &parts {
                    rest -= part.get(&op)?;
                }
                Some(rest)
            })
            .collect()
    }

    /// The spans and counts as one JSON document.
    pub fn to_json(&self) -> String {
        let mut lines = Vec::with_capacity(self.spans.len() + self.counts.len());
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            lines.push(format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            ));
        }
        let spans = lines.join(",\n");
        lines.clear();
        for (name, op, value) in &self.counts {
            lines.push(format!(
                "{{\"name\":\"{name}\",\"op\":{op},\"value\":{value}}}"
            ));
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"spans\":[\n{spans}\n],\n\"counts\":[\n{}\n]}}\n",
            lines.join(",\n")
        );
        out
    }
}
