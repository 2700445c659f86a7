//! Structured observability for the WACO pipeline — std-only, zero
//! dependencies.
//!
//! The tuning pipeline (train → embed → search → execute) is instrumented
//! with three primitives, all aggregated into one process-wide registry:
//!
//! * **Spans** ([`span`] / [`span_owned`]): RAII guards over monotonic
//!   [`std::time::Instant`] timing. Spans nest through a thread-local
//!   stack; a span's registry key is the `/`-joined path of every span
//!   open on its thread (`"tune/feature_extraction/conv0"`), so the
//!   hierarchy survives aggregation.
//! * **Counters** ([`counter`]): named monotonic `u64` sums — predictor
//!   calls, chunks stolen, simulator events.
//! * **Histograms** ([`record`]): named `f64` distributions with
//!   count/sum/min/max plus power-of-two buckets ([`HistStat`], also usable
//!   on its own) — per-epoch losses, per-tune overhead seconds.
//!
//! **Disabled cost.** Nothing is recorded until a subscriber is installed
//! ([`install`]). Every entry point first performs a single relaxed atomic
//! load ([`enabled`]) and returns immediately when tracing is off, so
//! instrumentation on hot paths (the SpMV interpreter loop, the pool's
//! chunk claims) costs one predictable branch. The `substrates` microbench
//! records this as `obs/disabled_span` and asserts < 2% overhead on SpMV.
//!
//! **Thread safety.** The registry is a global `Mutex`; pool workers from
//! `waco-runtime` record into the same registry, so counter totals are
//! deterministic regardless of how many workers split the work (the 1-vs-8
//! worker aggregation tests live in `waco-runtime`).
//!
//! **Sinks.** [`Snapshot::render_tree`] is the human-readable sink
//! (indented span tree + counters + histograms, conventionally printed to
//! stderr via [`print_tree`]); [`Snapshot::to_json`] is the machine sink, a
//! [`json::Json`] document (`waco-cli --trace FILE` writes it with
//! [`json::Json::write_file`]; a server's `stats` frame carries the same
//! document as its `obs` section).
//!
//! **JSON.** [`json`] is the workspace's one JSON codec. It sits here, at
//! the bottom of the crate graph, so every crate that emits JSON — this
//! one's trace included — writes through it.

pub mod json;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use json::Json;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether a subscriber is installed. One relaxed atomic load — this is
/// the entire cost of any instrumentation point while tracing is off, and
/// the guard callers may use to skip building dynamic span names.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs the global subscriber: clears the registry and enables
/// recording. Idempotent.
pub fn install() {
    registry().clear();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Disables recording and drains the registry, returning everything
/// recorded since [`install`] (or the last [`reset`]).
pub fn uninstall() -> Snapshot {
    ENABLED.store(false, Ordering::SeqCst);
    let mut reg = registry();
    let snap = reg.snapshot();
    reg.clear();
    snap
}

/// Clears all recorded data without changing the enabled state. Spans
/// currently open keep their nesting and record into the fresh registry
/// when they close.
pub fn reset() {
    registry().clear();
}

/// A copy of everything recorded so far.
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

/// Prints the human-readable tree sink to stderr.
pub fn print_tree() {
    eprint!("{}", snapshot().render_tree());
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

thread_local! {
    /// The names of the spans currently open on this thread, outermost
    /// first. Only touched while a subscriber is installed.
    static STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// An open span. Created by [`span`] / [`span_owned`]; records its wall
/// time under its full nesting path when dropped. Spans must close in the
/// reverse order they opened on a given thread (the natural order of scope
/// guards).
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    start: Option<Instant>,
}

impl Span {
    /// A span that records nothing — what the constructors return while no
    /// subscriber is installed.
    pub fn disabled() -> Self {
        Span { start: None }
    }
}

/// Opens a span named `name`. Zero-cost (one atomic load) when no
/// subscriber is installed.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span::disabled();
    }
    open_span(name.to_string())
}

/// Opens a span with a dynamically built name. Prefer
/// `if obs::enabled() { obs::span_owned(format!(..)) } else { Span::disabled() }`
/// on hot paths so the `format!` is also skipped when tracing is off.
#[inline]
pub fn span_owned(name: String) -> Span {
    if !enabled() {
        return Span::disabled();
    }
    open_span(name)
}

fn open_span(name: String) -> Span {
    STACK.with(|s| s.borrow_mut().push(name));
    Span {
        start: Some(Instant::now()),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = start.elapsed().as_nanos() as u64;
        let path = STACK.with(|s| {
            let mut st = s.borrow_mut();
            let path = st.join("/");
            st.pop();
            path
        });
        registry().record_span(&path, ns);
    }
}

/// Increments the named counter by `delta`. No-op when disabled.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    registry().add_counter(name, delta);
}

/// Records one observation into the named histogram. No-op when disabled.
#[inline]
pub fn record(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    registry().record_value(name, value);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of times the span closed.
    pub count: u64,
    /// Total nanoseconds across all closures.
    pub total_ns: u64,
    /// Fastest single closure.
    pub min_ns: u64,
    /// Slowest single closure.
    pub max_ns: u64,
}

impl SpanStat {
    /// Total time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Mean time per closure in seconds.
    pub fn mean_seconds(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_seconds() / self.count as f64
        }
    }
}

/// Power-of-two buckets: `buckets[i]` counts observations with
/// `2^(i - 48) <= |v| < 2^(i - 47)`; index 0 also absorbs zero, non-finite
/// values and anything smaller (below ≈ 3.6e-15), the last index anything
/// larger (from ≈ 1.4e14).
pub const HIST_BUCKETS: usize = 96;

/// Exponent of bucket 0's lower edge.
const HIST_MIN_EXP: i32 = -48;

/// A histogram: count/sum/min/max plus power-of-two magnitude buckets, so
/// any quantile estimate is within 2× of a real observation. The registry
/// keeps one per [`record`] name; a component that needs an always-on
/// distribution (the server's request latency) owns one directly.
#[derive(Debug, Clone, PartialEq)]
pub struct HistStat {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (`+∞` while empty).
    pub min: f64,
    /// Largest observation (`-∞` while empty).
    pub max: f64,
    /// Power-of-two magnitude buckets (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistStat {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistStat {
    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// Mean observation.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the buckets: within
    /// the bucket that holds the target rank the estimate interpolates
    /// geometrically, then it is clamped to the observed `[min, max]` — so
    /// it is within a factor of 2 of the exact sample quantile and exact at
    /// the extremes. 0 while empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank in [1, count]; ceil so q = 1.0 lands on the last observation.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if seen + n >= rank {
                // Bucket i spans [2^(i-48), 2^(i-47)); place the bucket's
                // k-th of n observations at (k - ½)/n of its log-width.
                let frac = ((rank - seen) as f64 - 0.5) / n as f64;
                let est = 2f64.powf(f64::from(i as i32 + HIST_MIN_EXP) + frac);
                return est.clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }
}

fn bucket_of(v: f64) -> usize {
    let a = v.abs();
    if a <= 0.0 || !a.is_finite() {
        return 0;
    }
    // floor(log2(a)) is the biased exponent field (subnormals read as the
    // smallest exponent and land in bucket 0 anyway).
    let exp = (a.to_bits() >> 52) as i32 - 1023;
    (exp - HIST_MIN_EXP).clamp(0, HIST_BUCKETS as i32 - 1) as usize
}

#[derive(Default)]
struct Registry {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistStat>,
}

impl Registry {
    fn clear(&mut self) {
        self.spans.clear();
        self.counters.clear();
        self.hists.clear();
    }

    fn record_span(&mut self, path: &str, ns: u64) {
        match self.spans.get_mut(path) {
            Some(s) => {
                s.count += 1;
                s.total_ns += ns;
                s.min_ns = s.min_ns.min(ns);
                s.max_ns = s.max_ns.max(ns);
            }
            None => {
                self.spans.insert(
                    path.to_string(),
                    SpanStat {
                        count: 1,
                        total_ns: ns,
                        min_ns: ns,
                        max_ns: ns,
                    },
                );
            }
        }
    }

    fn add_counter(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    fn record_value(&mut self, name: &str, v: f64) {
        self.hists.entry(name.to_string()).or_default().observe(v);
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            spans: self.spans.clone(),
            counters: self.counters.clone(),
            hists: self.hists.clone(),
        }
    }
}

fn registry() -> MutexGuard<'static, Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(Registry::default()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Snapshot + sinks
// ---------------------------------------------------------------------------

/// An immutable copy of the registry, with both sinks attached.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Span statistics keyed by full nesting path.
    pub spans: BTreeMap<String, SpanStat>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub hists: BTreeMap<String, HistStat>,
}

impl Snapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.hists.is_empty()
    }

    /// Span stats by exact path.
    pub fn span(&self, path: &str) -> Option<&SpanStat> {
        self.spans.get(path)
    }

    /// Summed stats of every span whose path equals `name` or ends in
    /// `/name` (a span recorded under several parents, e.g. per-layer conv
    /// spans reached from both training and tuning).
    pub fn span_total(&self, name: &str) -> SpanStat {
        let suffix = format!("/{name}");
        let mut total = SpanStat {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        };
        for (p, s) in &self.spans {
            if p == name || p.ends_with(&suffix) {
                total.count += s.count;
                total.total_ns += s.total_ns;
                total.min_ns = total.min_ns.min(s.min_ns);
                total.max_ns = total.max_ns.max(s.max_ns);
            }
        }
        if total.count == 0 {
            total.min_ns = 0;
        }
        total
    }

    /// Counter total by name (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistStat> {
        self.hists.get(name)
    }

    /// The machine-readable sink: `trace` (`"waco-obs"`),
    /// `spans[{path,count,total_ns,min_ns,max_ns}]`, `counters[{name,value}]`
    /// and `histograms[{name,count,sum,min,max,mean,buckets[{log2,count}]}]`
    /// (non-empty buckets only; an empty histogram's `±∞` bounds are `null`).
    /// Counts and nanoseconds are exact below 2^53.
    pub fn to_json(&self) -> Json {
        let int = |v: u64| Json::num(v as f64);
        let spans = self.spans.iter().map(|(path, s)| {
            Json::obj([
                ("path", Json::str(path)),
                ("count", int(s.count)),
                ("total_ns", int(s.total_ns)),
                ("min_ns", int(s.min_ns)),
                ("max_ns", int(s.max_ns)),
            ])
        });
        let counters = self
            .counters
            .iter()
            .map(|(name, &v)| Json::obj([("name", Json::str(name)), ("value", int(v))]));
        let hists = self.hists.iter().map(|(name, h)| {
            let buckets = (h.buckets.iter().enumerate())
                .filter(|(_, &c)| c > 0)
                .map(|(b, &c)| {
                    let log2 = b as i32 + HIST_MIN_EXP;
                    Json::obj([("log2", Json::num(log2)), ("count", int(c))])
                });
            Json::obj([
                ("name", Json::str(name)),
                ("count", int(h.count)),
                ("sum", Json::num(h.sum)),
                ("min", Json::num(h.min)),
                ("max", Json::num(h.max)),
                ("mean", Json::num(h.mean())),
                ("buckets", Json::Arr(buckets.collect())),
            ])
        });
        Json::obj([
            ("trace", Json::str("waco-obs")),
            ("spans", Json::Arr(spans.collect())),
            ("counters", Json::Arr(counters.collect())),
            ("histograms", Json::Arr(hists.collect())),
        ])
    }

    /// The human-readable sink: an indented span tree followed by counters
    /// and histograms.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        out.push_str("── trace ──\n");
        if self.spans.is_empty() {
            out.push_str("  (no spans)\n");
        }
        for (path, s) in &self.spans {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let label = format!("{}{}", "  ".repeat(depth + 1), name);
            out.push_str(&format!(
                "{label:<38} {:>8}x {:>12} total {:>12} mean\n",
                s.count,
                fmt_ns(s.total_ns),
                fmt_ns(s.total_ns / s.count.max(1)),
            ));
        }
        if !self.counters.is_empty() {
            out.push_str("── counters ──\n");
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<36} {v:>12}\n"));
            }
        }
        if !self.hists.is_empty() {
            out.push_str("── histograms ──\n");
            for (name, h) in &self.hists {
                out.push_str(&format!(
                    "  {name:<36} {:>8}x mean {:.4e} min {:.4e} max {:.4e}\n",
                    h.count,
                    h.mean(),
                    h.min,
                    h.max
                ));
            }
        }
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 * 1e-9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 * 1e-6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 * 1e-3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is process-global; tests in this binary serialize on
    /// this lock so concurrent test threads don't see each other's data.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _x = exclusive();
        let _ = uninstall();
        assert!(!enabled());
        {
            let _s = span("never");
            counter("never.count", 3);
            record("never.hist", 1.0);
        }
        assert!(snapshot().is_empty());
    }

    #[test]
    fn spans_nest_into_paths() {
        let _x = exclusive();
        install();
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
            }
            {
                let _inner = span_owned(format!("inner{}", 2));
            }
        }
        let snap = uninstall();
        assert_eq!(snap.span("outer").unwrap().count, 1);
        assert_eq!(snap.span("outer/inner").unwrap().count, 1);
        assert_eq!(snap.span("outer/inner2").unwrap().count, 1);
        assert!(snap.span("inner").is_none(), "inner only exists nested");
        // Suffix lookup finds the nested span.
        assert_eq!(snap.span_total("inner").count, 1);
    }

    #[test]
    fn span_stats_aggregate() {
        let _x = exclusive();
        install();
        for _ in 0..5 {
            let _s = span("repeat");
        }
        let snap = uninstall();
        let s = snap.span("repeat").unwrap();
        assert_eq!(s.count, 5);
        assert!(s.min_ns <= s.max_ns);
        assert!(s.total_ns >= s.max_ns);
        assert!(s.mean_seconds() >= 0.0);
    }

    #[test]
    fn counters_and_histograms() {
        let _x = exclusive();
        install();
        counter("c.a", 2);
        counter("c.a", 3);
        record("h.x", 0.5);
        record("h.x", 1.5);
        record("h.x", 0.0);
        let snap = uninstall();
        assert_eq!(snap.counter("c.a"), 5);
        assert_eq!(snap.counter("c.missing"), 0);
        let h = snap.hist("h.x").unwrap();
        assert_eq!(h.count, 3);
        assert!((h.sum - 2.0).abs() < 1e-12);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 1.5);
        assert!((h.mean() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn power_of_two_buckets_land_where_expected() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(1.0), 48);
        assert_eq!(bucket_of(1.99), 48);
        assert_eq!(bucket_of(-2.0), 49);
        assert_eq!(bucket_of(0.3), 46);
        assert_eq!(bucket_of(f64::INFINITY), 0);
        assert_eq!(bucket_of(f64::MIN_POSITIVE / 4.0), 0, "subnormal");
        assert_eq!(bucket_of(1e300), HIST_BUCKETS - 1);
    }

    #[test]
    fn quantile_estimates_track_the_sample() {
        let mut h = HistStat::default();
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram");

        // 90 fast observations (~2 ms) and 10 slow ones (~2 s).
        for _ in 0..90 {
            h.observe(2e-3);
        }
        for _ in 0..10 {
            h.observe(2.0);
        }
        let p50 = h.quantile(0.5);
        assert!((2e-3..4e-3).contains(&p50), "within 2x of 2 ms, got {p50}");
        assert_eq!(h.quantile(0.99), 2.0, "clamped to the observed max");
        // Extremes are clamped to observed values.
        assert_eq!(h.quantile(0.0), h.min);
        assert_eq!(h.quantile(1.0), h.max);
    }

    #[test]
    fn quantiles_of_a_log_uniform_sample_are_within_2x() {
        // 1 µs .. 10 s, log-uniform: the spread of a latency distribution,
        // where decade buckets could be off by up to 10×.
        let n = 4000;
        let mut sample: Vec<f64> = (0..n)
            .map(|i| 1e-6 * 1e7f64.powf((i * 7919 % n) as f64 / n as f64))
            .collect();
        let mut h = HistStat::default();
        sample.iter().for_each(|&v| h.observe(v));
        sample.sort_by(f64::total_cmp);
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let exact = sample[((q * n as f64).ceil() as usize).max(1) - 1];
            let ratio = h.quantile(q) / exact;
            assert!((0.5..=2.0).contains(&ratio), "q{q}: {ratio}x off");
        }
    }

    #[test]
    fn reset_clears_but_keeps_enabled() {
        let _x = exclusive();
        install();
        counter("gone", 1);
        reset();
        assert!(enabled());
        counter("kept", 1);
        let snap = uninstall();
        assert_eq!(snap.counter("gone"), 0);
        assert_eq!(snap.counter("kept"), 1);
    }

    #[test]
    fn json_sink_is_parseable_shape() {
        let _x = exclusive();
        install();
        {
            let _s = span("a");
            let _t = span_owned("say \"hi\"\nthen go".to_string());
        }
        counter("c\"quoted\"", 3);
        record("h", 2.5);
        let snap = uninstall();
        let doc = Json::parse(&snap.to_json().to_string()).expect("trace parses");
        let section = |k: &str| doc.get(k).and_then(Json::as_arr).unwrap();
        let field = |v: &Json, k: &str| v.get(k).cloned().unwrap_or(Json::Null);
        assert_eq!(field(&doc, "trace").as_str(), Some("waco-obs"));
        let spans = section("spans");
        let paths: Vec<_> = spans.iter().map(|s| field(s, "path")).collect();
        let want = ["a", "a/say \"hi\"\nthen go"].map(Json::str);
        assert_eq!(paths, want, "paths round-trip");
        assert_eq!(field(&spans[0], "count").as_u64(), Some(1));
        let counter = &section("counters")[0];
        assert_eq!(field(counter, "name").as_str(), Some("c\"quoted\""));
        assert_eq!(field(counter, "value").as_u64(), Some(3));
        let hist = &section("histograms")[0];
        assert_eq!(field(hist, "mean").as_f64(), Some(2.5));
        let buckets = field(hist, "buckets");
        let bucket = &buckets.as_arr().unwrap()[0];
        assert_eq!(
            field(bucket, "log2").as_f64(),
            Some(1.0),
            "2.5 is in [2, 4)"
        );
    }

    #[test]
    fn tree_sink_mentions_everything() {
        let _x = exclusive();
        install();
        {
            let _a = span("root");
            let _b = span("leaf");
        }
        counter("n.events", 7);
        record("loss", 0.25);
        let snap = uninstall();
        let tree = snap.render_tree();
        assert!(tree.contains("root"));
        assert!(tree.contains("leaf"));
        assert!(tree.contains("n.events"));
        assert!(tree.contains("loss"));
    }

    #[test]
    fn spans_from_many_threads_aggregate() {
        let _x = exclusive();
        install();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10 {
                        let _sp = span("threaded");
                        counter("threaded.work", 1);
                    }
                });
            }
        });
        let snap = uninstall();
        assert_eq!(snap.span("threaded").unwrap().count, 40);
        assert_eq!(snap.counter("threaded.work"), 40);
    }
}
