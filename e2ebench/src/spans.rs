//! Host-time spans recorded around the public calls the traced run makes.
//!
//! Spans live in memory and are written out once, at exit, as a Chrome
//! trace-event JSON file that Perfetto loads. A span's layer is the prefix
//! of its name before the first `.` (`middleware.run_slice` belongs to
//! `middleware`); the layers are the workspace crates plus `bench` for the
//! benchmark's own glue.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`.
    name: &'static str,
    /// Cell index, target index or another id the span belongs to.
    id: u64,
    /// Nanoseconds since the tracer was created.
    start_ns: u64,
    /// Nanoseconds since the tracer was created (0 while open).
    end_ns: u64,
    /// Index of the enclosing span.
    parent: Option<usize>,
}

impl Span {
    /// The layer: the name's prefix before the first `.`.
    fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// An in-memory span recorder with an explicit open-span stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        index
    }

    /// Closes `index`, which must be the innermost open span.
    pub fn end(&mut self, index: usize) {
        let end_ns = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans close innermost first");
        self.spans[index].end_ns = end_ns;
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, id);
        let value = f();
        self.end(span);
        value
    }

    /// Records a leaf span covering `[start_ns, end_ns)` under the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, id: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            id,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The span at `index`.
    pub fn span(&self, index: usize) -> &Span {
        &self.spans[index]
    }

    /// Σ durations of the root spans, in seconds: the traced wall time.
    pub fn root_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum()
    }

    /// Σ durations of spans named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Per-layer self time in seconds: each span's duration minus the part
    /// its children cover (children are sequential, so that is the sum of
    /// their durations).
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut layers = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let own = span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(covered);
            *layers.entry(span.layer()).or_insert(0.0) += own as f64 / 1e9;
        }
        layers
    }

    /// The trace as Chrome trace-event JSON (`ph: "X"` complete events),
    /// loadable in Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}",
                span.name,
                span.layer(),
                span.start_ns as f64 / 1e3,
                span.end_ns.saturating_sub(span.start_ns) as f64 / 1e3,
                i,
                parent,
                span.id
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}
