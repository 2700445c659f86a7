//! The benchmark's own span recorder.
//!
//! Layers are measured from outside: the benchmark wraps each call into a
//! layer's public function in a span (name, start, end, parent, request id),
//! keeps the spans in memory and writes them once when the pass ends. A
//! layer's self time is its span minus the part its children cover; the
//! per-layer metrics are medians of self times. End-to-end numbers never
//! come from a traced pass.

use std::time::Instant;

use waco_serve::Json;

use crate::util::{median, Outcome};

#[derive(Debug, Clone)]
struct Span {
    name: String,
    request: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Single-threaded span recorder. When disabled every call still runs its
/// closure but records nothing, which is how tracing overhead is measured.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with [`Self::end`].
    pub fn begin(&mut self, name: &str, request: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            request,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let id = self
            .open
            .pop()
            .expect("Tracer::end without a matching begin");
        self.spans[id].end_ns = now;
    }

    /// Runs `f` inside a leaf span and returns its result.
    pub fn time<T>(&mut self, name: &str, request: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, request);
        let out = f();
        self.end();
        out
    }

    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Self times, in seconds, of every span called `name`, in record order.
    pub fn self_seconds(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 * 1e-9)
            .collect()
    }

    /// Summed full duration, in seconds, of every span called `name`.
    pub fn total_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Median self time in seconds and sample count of spans called `name`;
    /// `(0.0, 0)` when the layer was never entered on this workload.
    pub fn median_self(&self, name: &str) -> (f64, usize) {
        let mut xs = self.self_seconds(name);
        if xs.is_empty() {
            (0.0, 0)
        } else {
            (median(&mut xs), xs.len())
        }
    }

    /// Reports the median self time of spans called `span` as `metric`, in
    /// `unit` (`per_second` units to the second).
    pub fn report(
        &self,
        out: &mut Outcome,
        span: &str,
        metric: impl Into<String>,
        unit: &'static str,
        per_second: f64,
    ) {
        let (s, n) = self.median_self(span);
        out.metric(metric, s * per_second, unit, n);
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self) -> Json {
        let own = self.self_ns();
        Json::Arr(
            self.spans
                .iter()
                .zip(own)
                .enumerate()
                .map(|(id, (s, self_ns))| {
                    Json::obj([
                        ("id", Json::num(id as f64)),
                        ("name", Json::str(&s.name)),
                        ("request", Json::num(s.request as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                        ),
                        ("start_ns", Json::num(s.start_ns as f64)),
                        ("end_ns", Json::num(s.end_ns as f64)),
                        ("self_ns", Json::num(self_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}
