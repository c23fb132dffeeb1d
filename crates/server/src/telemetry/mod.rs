//! The metrics core of the service: no crates.io access, so this
//! module hand-rolls exactly the subset of a metrics library the server
//! needs — atomic counters, gauges, fixed-bucket histograms — behind a
//! `Registry` that renders the Prometheus **text exposition format
//! version 0.0.4**.
//!
//! ## Design
//!
//! * Every metric handle (`Counter`, `Gauge`, `Histogram`) is a cheap
//!   `Clone` around `Arc<Atomic…>` state: recording is lock-free
//!   (`Relaxed` atomics — each cell is an independent statistical
//!   counter, no cross-cell ordering is promised), so instrumentation
//!   never blocks or reorders the code it observes.
//! * Histograms use **fixed, log-scaled bucket bounds**
//!   (`LATENCY_BUCKETS`: ×2 per bucket from 10 µs to ~5.2 s) with one
//!   `AtomicU64` bin per bucket plus an overflow bin; the observation
//!   count is *derived* as the bin sum, so a scrape racing writers can
//!   never see a count that disagrees with its bins (no torn read
//!   between a count cell and the bins). The sum is an `f64`, so it
//!   never wraps and never moves backwards.
//! * Registration is get-or-create by `(name, labels)`: handles for the
//!   same series share state. Re-registering a name with a different
//!   kind, help text, or bucket layout panics — that is a programming
//!   error, caught at startup, never a runtime surprise.
//!
//! ## Exposition format and escaping
//!
//! `Registry::render` emits, per metric family, in registration order:
//!
//! ```text
//! # HELP <name> <help>
//! # TYPE <name> counter|gauge|histogram
//! <name>{<label>="<value>",…} <number>
//! ```
//!
//! Histograms expand to cumulative `<name>_bucket{…,le="<bound>"}`
//! rows (always ending with `le="+Inf"`), `<name>_sum` (seconds, as a
//! shortest-round-trip float) and `<name>_count`. Escaping rules, like
//! [`crate::json`]'s, are part of the contract:
//!
//! * **HELP text**: `\` → `\\` and newline → `\n` (one line per
//!   comment, always).
//! * **Label values**: `\` → `\\`, `"` → `\"`, newline → `\n`.
//! * Metric names must match `[a-zA-Z_:][a-zA-Z0-9_:]*` and label
//!   names `[a-zA-Z_][a-zA-Z0-9_]*` — enforced at registration, so a
//!   rendered page never needs name escaping.
//!
//! The [`expo`] module is the read side: a parser for this format plus
//! the lint used by CI (`scripts/metrics_check.sh`) — duplicate
//! families, type mismatches, and counters that move backwards between
//! two scrapes all fail by name.
//!
//! The `trace` module is the per-request twin of the aggregate
//! registry: request-scoped span trees retained in a bounded ring and
//! served as JSON on `/debug/traces`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

pub mod expo;
pub(crate) mod trace;

/// The `Content-Type` for a rendered exposition page.
pub(crate) const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Default latency histogram bounds in seconds: 20 log-scaled buckets,
/// doubling from 10 µs to ~5.24 s (plus the implicit `+Inf` overflow
/// bin). Covers a WAL fsync (~10 µs–10 ms) and a worst-case O(n³)
/// verification pass (~seconds) in the same layout, so every latency
/// histogram in the stack is compare-able.
pub(crate) const LATENCY_BUCKETS: [f64; 20] = {
    let mut b = [0.0; 20];
    let mut i = 0;
    while i < 20 {
        // 1e-5 * 2^i, spelled out because float arithmetic in const
        // position cannot use powi.
        b[i] = 0.00001 * (1u64 << i) as f64;
        i += 1;
    }
    b
};

/// What kind of metric a family holds (its `# TYPE` line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKind {
    /// Monotonically non-decreasing `u64`.
    Counter,
    /// Arbitrary signed value.
    Gauge,
    /// Fixed-bucket latency distribution.
    Histogram,
}

impl MetricKind {
    /// The `# TYPE` keyword.
    fn as_str(self) -> &'static str {
        match self {
            Self::Counter => "counter",
            Self::Gauge => "gauge",
            Self::Histogram => "histogram",
        }
    }
}

/// A monotonically non-decreasing counter. Cloning shares the cell.
#[derive(Debug, Clone)]
pub(crate) struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Records an externally maintained cumulative total (e.g. a
    /// connect count polled from another subsystem at scrape time).
    /// Uses `fetch_max`, so the rendered value stays monotonic even if
    /// the poll observes an older total.
    pub(crate) fn record_total(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }

    /// The current value.
    pub(crate) fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways. Cloning shares the
/// cell.
#[derive(Debug, Clone)]
pub(crate) struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub(crate) fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (e.g. entering an in-flight section).
    pub(crate) fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` (e.g. leaving an in-flight section).
    pub(crate) fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    pub(crate) fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The shared state of one histogram series: `bounds.len() + 1` bins
/// (the last is the `+Inf` overflow) and a nanosecond sum. The
/// observation count is the bin sum — there is deliberately no separate
/// count cell to tear against the bins.
#[derive(Debug)]
struct HistogramCore {
    /// Ascending upper bounds in seconds (`le` values).
    bounds: Arc<[f64]>,
    bins: Vec<AtomicU64>,
    /// The bits of an `f64` nanosecond sum. Adding a non-negative
    /// number to an `f64` never wraps and never makes it smaller, where
    /// a `u64` wraps once a count histogram's values pass ≈ 1.8·10¹⁰
    /// in total; whole-nanosecond sums below 2⁵³ are exact.
    sum_nanos: AtomicU64,
}

impl HistogramCore {
    fn new(bounds: Arc<[f64]>) -> Self {
        let bins = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            bins,
            sum_nanos: AtomicU64::new(0f64.to_bits()),
        }
    }
}

/// A fixed-bucket latency histogram. Cloning shares the bins.
#[derive(Debug, Clone)]
pub(crate) struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one duration.
    pub(crate) fn observe(&self, d: Duration) {
        self.observe_nanos(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one observation given in seconds (negative clamps to 0).
    pub(crate) fn observe_secs(&self, secs: f64) {
        let nanos = (secs.max(0.0) * 1e9).min(u64::MAX as f64) as u64;
        self.observe_nanos(nanos);
    }

    fn observe_nanos(&self, nanos: u64) {
        let secs = nanos as f64 / 1e9;
        let core = &*self.0;
        let bin = core.bounds.partition_point(|&b| b < secs);
        core.bins[bin].fetch_add(1, Ordering::Relaxed);
        let _ = core
            .sum_nanos
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + nanos as f64).to_bits())
            });
    }

    /// The per-bucket (non-cumulative) counts, overflow bin last, and
    /// the sum in seconds. Each bin is individually monotonic, so a
    /// read racing writers sees, per bin, some value ≤ the final one —
    /// never a torn or overcounted bin. (The sum may lag the bins by
    /// in-flight observations; both converge once writers stop.)
    fn snapshot(&self) -> (Vec<u64>, f64) {
        let core = &*self.0;
        let bins = core
            .bins
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        (
            bins,
            f64::from_bits(core.sum_nanos.load(Ordering::Relaxed)) / 1e9,
        )
    }
}

/// One registered series' data cell; cloning shares it.
#[derive(Debug, Clone)]
enum SeriesData {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Series {
    labels: Vec<(String, String)>,
    data: SeriesData,
}

/// One metric family: a name, its help text and kind, and every label
/// combination registered under it.
#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    kind: MetricKind,
    /// Histogram families pin their bucket layout at first registration.
    bounds: Option<Arc<[f64]>>,
    series: Vec<Series>,
}

/// The namespace all metrics live in: get-or-create registration of
/// namespaced handles plus [`render`](Registry::render) for the
/// `/metrics` page. Registration takes a mutex — get-or-create of an
/// existing series is one short lock, cheap enough for per-request
/// lookups of dynamic label sets; recording through the returned
/// handles is lock-free.
#[derive(Debug, Default)]
pub(crate) struct Registry {
    families: Mutex<Vec<Family>>,
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Escapes a HELP line: `\` → `\\`, newline → `\n`.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
fn escape_label_value(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// The family `name`, appended if new. A family that exists must agree
/// on kind, help text and (histograms) bucket layout — a mismatch is a
/// programming error and panics.
fn family<'a>(
    families: &'a mut Vec<Family>,
    name: &str,
    help: &str,
    kind: MetricKind,
    bounds: Option<&[f64]>,
) -> &'a mut Family {
    assert!(valid_metric_name(name), "invalid metric name {name:?}");
    if let Some(b) = bounds {
        assert!(
            b.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
    }
    let at = match families.iter().position(|f| f.name == name) {
        Some(at) => {
            let f = &families[at];
            assert_eq!(
                f.kind, kind,
                "metric {name} re-registered as a different kind"
            );
            assert_eq!(
                f.help, help,
                "metric {name} re-registered with different help"
            );
            if let (Some(have), Some(want)) = (&f.bounds, bounds) {
                assert_eq!(
                    &have[..],
                    want,
                    "histogram {name} re-registered with a different bucket layout"
                );
            }
            at
        }
        None => {
            families.push(Family {
                name: name.to_owned(),
                help: help.to_owned(),
                kind,
                bounds: bounds.map(Arc::from),
                series: Vec::new(),
            });
            families.len() - 1
        }
    };
    &mut families[at]
}

impl Registry {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter `name{labels}`. Panics if `name` is
    /// already registered as a different kind or with different help.
    pub(crate) fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, MetricKind::Counter, labels, None) {
            SeriesData::Counter(c) => c,
            _ => unreachable!("kind checked in family()"),
        }
    }

    /// Gets or creates the gauge `name{labels}`.
    pub(crate) fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, MetricKind::Gauge, labels, None) {
            SeriesData::Gauge(g) => g,
            _ => unreachable!("kind checked in family()"),
        }
    }

    /// Gets or creates the histogram `name{labels}` with the given
    /// bucket bounds (ascending, in seconds). Panics if the family
    /// already exists with a different layout.
    pub(crate) fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        match self.series(name, help, MetricKind::Histogram, labels, Some(bounds)) {
            SeriesData::Histogram(h) => h,
            _ => unreachable!("kind checked in family()"),
        }
    }

    /// Declares a family without creating any series, pinning its place
    /// in the exposition order. Use for families whose label sets only
    /// appear at runtime (e.g. per-route request counters): declaring
    /// them at startup keeps `render` output deterministic regardless of
    /// which routes have been hit. Get-or-create like the handle
    /// constructors — re-declaring with a different kind, help, or
    /// bucket layout panics.
    pub(crate) fn declare(&self, name: &str, help: &str, kind: MetricKind, bounds: Option<&[f64]>) {
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        family(&mut families, name, help, kind, bounds);
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        bounds: Option<&[f64]>,
    ) -> SeriesData {
        for (k, _) in labels {
            assert!(valid_label_name(k), "invalid label name {k:?} on {name}");
        }
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        let mut families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let family = family(&mut families, name, help, kind, bounds);
        if let Some(series) = family.series.iter().find(|s| s.labels == labels) {
            return series.data.clone();
        }
        let data = match kind {
            MetricKind::Counter => SeriesData::Counter(Counter(Arc::new(AtomicU64::new(0)))),
            MetricKind::Gauge => SeriesData::Gauge(Gauge(Arc::new(AtomicI64::new(0)))),
            MetricKind::Histogram => {
                let bounds = family.bounds.clone().expect("histogram family has bounds");
                SeriesData::Histogram(Histogram(Arc::new(HistogramCore::new(bounds))))
            }
        };
        family.series.push(Series {
            labels,
            data: data.clone(),
        });
        data
    }

    /// Renders the whole registry in the text exposition format (see
    /// the module docs for the exact layout and escaping rules).
    /// Families appear in registration order, series in per-family
    /// registration order — deterministic, which the golden-format test
    /// pins.
    pub(crate) fn render(&self) -> String {
        let families = self.families.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for family in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.as_str());
            for series in &family.series {
                match &series.data {
                    SeriesData::Counter(c) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            label_block(&series.labels, None),
                            c.get()
                        );
                    }
                    SeriesData::Gauge(g) => {
                        let _ = writeln!(
                            out,
                            "{}{} {}",
                            family.name,
                            label_block(&series.labels, None),
                            g.get()
                        );
                    }
                    SeriesData::Histogram(h) => {
                        let (bins, sum_secs) = h.snapshot();
                        let mut cum = 0u64;
                        for (bound, &bin) in h.0.bounds.iter().zip(&bins) {
                            cum += bin;
                            let _ = writeln!(
                                out,
                                "{}_bucket{} {}",
                                family.name,
                                label_block(&series.labels, Some(&fmt_f64(*bound))),
                                cum
                            );
                        }
                        cum += bins.last().copied().unwrap_or(0);
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            family.name,
                            label_block(&series.labels, Some("+Inf")),
                            cum
                        );
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            family.name,
                            label_block(&series.labels, None),
                            fmt_f64(sum_secs)
                        );
                        let _ = writeln!(
                            out,
                            "{}_count{} {}",
                            family.name,
                            label_block(&series.labels, None),
                            cum
                        );
                    }
                }
            }
        }
        out
    }
}

/// `{a="x",b="y"}` (or `{}`-less when empty), with an optional trailing
/// `le` label for histogram bucket rows.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Shortest-round-trip float rendering (Rust's `{}` for `f64`): bucket
/// bounds and sums render without an exponent for the magnitudes the
/// stack uses (`0.00001` … `5.24288`), which the format linter and
/// golden test rely on being stable.
fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn counters_and_gauges_render_in_registration_order() {
        let reg = Registry::new();
        let c = reg.counter("test_total", "Total things.", &[("route", "/a")]);
        c.add(3);
        let c2 = reg.counter("test_total", "Total things.", &[("route", "/b")]);
        c2.inc();
        let g = reg.gauge("test_inflight", "In-flight things.", &[]);
        g.add(5);
        g.sub(2);
        assert_eq!(
            reg.render(),
            "# HELP test_total Total things.\n\
             # TYPE test_total counter\n\
             test_total{route=\"/a\"} 3\n\
             test_total{route=\"/b\"} 1\n\
             # HELP test_inflight In-flight things.\n\
             # TYPE test_inflight gauge\n\
             test_inflight 3\n"
        );
    }

    #[test]
    fn declared_families_render_headers_and_pin_order() {
        let reg = Registry::new();
        reg.declare(
            "later_total",
            "Lazily populated.",
            MetricKind::Counter,
            None,
        );
        let g = reg.gauge("now_inflight", "Immediate.", &[]);
        g.set(1);
        // The declared family renders (header-only) ahead of the gauge
        // even though its first series arrives after the gauge's.
        reg.counter("later_total", "Lazily populated.", &[("route", "/a")])
            .inc();
        assert_eq!(
            reg.render(),
            "# HELP later_total Lazily populated.\n\
             # TYPE later_total counter\n\
             later_total{route=\"/a\"} 1\n\
             # HELP now_inflight Immediate.\n\
             # TYPE now_inflight gauge\n\
             now_inflight 1\n"
        );
    }

    #[test]
    fn same_series_shares_the_cell() {
        let reg = Registry::new();
        let a = reg.counter("shared_total", "h", &[("x", "1")]);
        let b = reg.counter("shared_total", "h", &[("x", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
    }

    #[test]
    fn record_total_is_monotonic() {
        let reg = Registry::new();
        let c = reg.counter("polled_total", "h", &[]);
        c.record_total(7);
        c.record_total(3); // stale poll — must not move backwards
        assert_eq!(c.get(), 7);
        c.record_total(9);
        assert_eq!(c.get(), 9);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("twice", "h", &[]);
        reg.gauge("twice", "h", &[]);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_sum_in_seconds() {
        let reg = Registry::new();
        let h = reg.histogram("lat_seconds", "Latency.", &[], &[0.001, 0.01, 0.1]);
        h.observe(Duration::from_micros(500)); // ≤ 0.001
        h.observe(Duration::from_millis(5)); // ≤ 0.01
        h.observe(Duration::from_millis(5)); // ≤ 0.01
        h.observe(Duration::from_secs(1)); // overflow
        let (bins, sum_secs) = h.snapshot();
        assert_eq!(bins, [1, 2, 0, 1]);
        assert!((sum_secs - 1.0105).abs() < 1e-9);
        let text = reg.render();
        assert!(
            text.contains("lat_seconds_bucket{le=\"0.001\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("lat_seconds_bucket{le=\"0.01\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("lat_seconds_bucket{le=\"0.1\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("lat_seconds_bucket{le=\"+Inf\"} 4\n"),
            "{text}"
        );
        assert!(text.contains("lat_seconds_count 4\n"), "{text}");
    }

    #[test]
    fn boundary_observation_lands_in_its_bucket() {
        // le is inclusive: an observation exactly at a bound counts in
        // that bucket, per the Prometheus convention.
        let reg = Registry::new();
        let h = reg.histogram("edge_seconds", "h", &[], &[0.001]);
        h.observe(Duration::from_millis(1));
        assert_eq!(h.snapshot().0, [1, 0]);
    }

    /// A count histogram's values reach far past what a `u64`
    /// nanosecond sum holds: 200 signature costs of 10⁸ sum to 2·10¹⁰
    /// "seconds", 2·10¹⁹ ns. The sum must render exactly and never move
    /// backwards between scrapes.
    #[test]
    fn count_histogram_sum_never_wraps() {
        let reg = Registry::new();
        let h = reg.histogram("cost", "h", &[], &[1.0, 1e8]);
        let mut pages = Vec::new();
        for _ in 0..2 {
            for _ in 0..100 {
                h.observe_secs(1e8);
            }
            pages.push(reg.render());
        }
        assert!(
            pages[0].contains("\ncost_sum 10000000000\n"),
            "{}",
            pages[0]
        );
        assert!(
            pages[1].contains("\ncost_sum 20000000000\n"),
            "{}",
            pages[1]
        );
        assert!(pages[1].contains("\ncost_count 200\n"), "{}", pages[1]);
        let prev = expo::parse_text(&pages[0]).unwrap();
        let cur = expo::parse_text(&pages[1]).unwrap();
        assert_eq!(expo::lint(Some(&prev), &cur), Vec::<String>::new());
    }

    #[test]
    fn duration_sums_are_exact_whole_nanoseconds() {
        let reg = Registry::new();
        let h = reg.histogram("lat_seconds", "h", &[], &LATENCY_BUCKETS);
        h.observe(Duration::from_nanos(1));
        h.observe(Duration::from_nanos(123_456_789));
        let text = reg.render();
        assert!(text.contains("\nlat_seconds_sum 0.12345679\n"), "{text}");
    }

    #[test]
    fn label_values_escape_quotes_backslashes_newlines() {
        let reg = Registry::new();
        reg.counter(
            "esc_total",
            "Help with \\ and\nnewline.",
            &[("v", "a\"b\\c\nd")],
        );
        let text = reg.render();
        assert!(
            text.contains("# HELP esc_total Help with \\\\ and\\nnewline.\n"),
            "{text}"
        );
        assert!(
            text.contains("esc_total{v=\"a\\\"b\\\\c\\nd\"} 0\n"),
            "{text}"
        );
        // Every rendered line is one line — newline-safe like server::json.
        assert!(text.lines().count() == 3);
    }

    #[test]
    fn latency_buckets_are_log_scaled_and_ascending() {
        assert_eq!(LATENCY_BUCKETS.len(), 20);
        assert!((LATENCY_BUCKETS[0] - 1e-5).abs() < 1e-12);
        for w in LATENCY_BUCKETS.windows(2) {
            assert!((w[1] / w[0] - 2.0).abs() < 1e-9);
        }
    }

    /// The torn-bucket test: 8 writer threads hammer one
    /// histogram while a reader snapshots continuously. Totals must be
    /// conserved at the end, and every mid-flight snapshot must be
    /// bin-wise ≤ the final state with a count equal to its own bin sum
    /// (impossible to violate by construction — the count *is* the bin
    /// sum — but pinned here against regressions that add a separate
    /// count cell).
    #[test]
    fn concurrent_observes_conserve_totals_and_never_tear() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 20_000;
        let reg = Registry::new();
        let h = reg.histogram("hammer_seconds", "h", &[], &LATENCY_BUCKETS);
        let done = AtomicBool::new(false);
        // Each writer stops halfway until the reader has taken a
        // snapshot, so at least one snapshot overlaps pending writes
        // however the threads are scheduled.
        let snapped = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let h = h.clone();
                let snapped = &snapped;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        if i == PER_THREAD / 2 {
                            while !snapped.load(Ordering::Acquire) {
                                std::thread::yield_now();
                            }
                        }
                        // Deterministic spread across all bins incl. overflow.
                        let nanos = 1u64 << ((i + t as u64) % 34);
                        h.observe(Duration::from_nanos(nanos));
                    }
                });
            }
            let reader = {
                let h = h.clone();
                let (done, snapped) = (&done, &snapped);
                scope.spawn(move || {
                    let mut snaps = 0usize;
                    let mut last_count = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        let count: u64 = h.snapshot().0.iter().sum();
                        assert!(count <= THREADS as u64 * PER_THREAD, "overcounted bins");
                        assert!(count >= last_count, "bin sum went backwards");
                        last_count = count;
                        snaps += 1;
                        snapped.store(true, Ordering::Release);
                    }
                    snaps
                })
            };
            // Writers finish first; then release the reader.
            // (Scope joins writers only when the closure returns, so
            // park until the totals are all in.)
            while h.snapshot().0.iter().sum::<u64>() < THREADS as u64 * PER_THREAD {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Relaxed);
            let snaps = reader.join().expect("reader panicked");
            assert!(snaps > 0);
        });
        let (bins, sum_secs) = h.snapshot();
        assert_eq!(
            bins.iter().sum::<u64>(),
            THREADS as u64 * PER_THREAD,
            "observations lost"
        );
        // With writers quiesced the nanosecond sum is exact too.
        let expected: u64 = (0..THREADS as u64)
            .flat_map(|t| (0..PER_THREAD).map(move |i| 1u64 << ((i + t) % 34)))
            .sum();
        assert!((sum_secs - expected as f64 / 1e9).abs() < 1e-6);
    }
}
