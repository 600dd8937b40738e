//! The sharded counter/histogram registry and the [`Obs`] handle.
//!
//! Mirrors the `GopCache` design: metric keys hash to one of a fixed
//! set of shards, each behind its own `std::sync::Mutex`, so cohort
//! worker threads registering different metrics never contend on one
//! lock — and a resolved [`Counter`]/[`Histogram`] handle never takes a
//! lock at all (its hot path is one atomic op).
//!
//! Everything a metric accumulates is **commutative** (adds, bucket
//! increments, min/max), so the exported numbers are independent of
//! worker scheduling: two runs of the same seeded cohort snapshot to
//! byte-identical exports no matter how the OS interleaved the threads.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::hash::{fnv1a_extend, FNV_OFFSET};
use crate::span::{SpanRecorder, Trace};
use crate::timeseries::{Series, SeriesRegistry, SeriesRow, SeriesSpec};

/// Number of registry shards (fixed; the registry holds metric *keys*,
/// not per-session state, so a small constant is plenty).
const SHARDS: usize = 16;

/// Number of power-of-two histogram buckets: bucket `i` counts values
/// whose bit length is `i` (bucket 0 holds the value 0).
const BUCKETS: usize = 65;

/// A metric key: a static name plus static key/value labels.
///
/// Labels are `&'static str` on both sides by design — per-session
/// identity belongs in span [`Trace`] labels, not in metric
/// cardinality, so the registry can never grow without bound.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Key {
    name: &'static str,
    labels: Vec<(&'static str, &'static str)>,
}

impl Key {
    /// FNV-1a over name and labels; selects the shard.
    fn shard_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        let mut eat = |s: &str| h = fnv1a_extend(fnv1a_extend(h, s.as_bytes()), &[0xff]);
        eat(self.name);
        for (k, v) in &self.labels {
            eat(k);
            eat(v);
        }
        h
    }
}

/// Lock-free accumulation cell of one histogram.
#[derive(Debug)]
struct HistCell {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl HistCell {
    fn new() -> HistCell {
        HistCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        let bucket = (64 - value.leading_zeros()) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let min = if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) };
        let max = self.max.load(Ordering::Relaxed);
        // Percentile = upper bound of the bucket holding the p-th value,
        // clamped into the observed [min, max]: a power-of-two bucket
        // bound can exceed every recorded value (a histogram holding
        // only 1000s sits in the [512, 1023] bucket, and 1023 was never
        // observed), and on a single-value histogram the clamp collapses
        // every percentile to that exact value.
        let pct = |p: u64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = (count * p).div_ceil(100).max(1);
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    let upper = match i {
                        0 => 0,
                        64 => u64::MAX,
                        _ => (1u64 << i) - 1,
                    };
                    return upper.clamp(min, max);
                }
            }
            max
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: pct(50),
            p90: pct(90),
            p99: pct(99),
        }
    }
}

/// A registered metric cell.
#[derive(Debug, Clone)]
enum Cell {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<HistCell>),
}

#[derive(Debug)]
struct Registry {
    shards: Vec<Mutex<HashMap<Key, Cell>>>,
}

impl Registry {
    fn new() -> Registry {
        Registry { shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    fn shard(&self, key: &Key) -> &Mutex<HashMap<Key, Cell>> {
        &self.shards[(key.shard_hash() % SHARDS as u64) as usize]
    }

    /// Resolves (registering on first use) the counter under `key`. A
    /// name already registered as a histogram yields a *detached* cell —
    /// it accumulates but never exports — instead of panicking, so an
    /// instrumentation name clash can't take a cohort down.
    fn counter(&self, key: Key) -> Arc<AtomicU64> {
        let mut shard = self.shard(&key).lock().expect("registry shard poisoned");
        match shard.entry(key).or_insert_with(|| Cell::Counter(Arc::new(AtomicU64::new(0)))) {
            Cell::Counter(c) => c.clone(),
            Cell::Gauge(_) | Cell::Histogram(_) => {
                debug_assert!(false, "metric registered under both kinds");
                Arc::new(AtomicU64::new(0))
            }
        }
    }

    fn histogram(&self, key: Key) -> Arc<HistCell> {
        let mut shard = self.shard(&key).lock().expect("registry shard poisoned");
        match shard.entry(key).or_insert_with(|| Cell::Histogram(Arc::new(HistCell::new()))) {
            Cell::Histogram(h) => h.clone(),
            Cell::Counter(_) | Cell::Gauge(_) => {
                debug_assert!(false, "metric registered under both kinds");
                Arc::new(HistCell::new())
            }
        }
    }

    /// Resolves (registering on first use) the high-water gauge under
    /// `key`, with the same kind-clash policy as [`Registry::counter`].
    fn gauge(&self, key: Key) -> Arc<AtomicU64> {
        let mut shard = self.shard(&key).lock().expect("registry shard poisoned");
        match shard.entry(key).or_insert_with(|| Cell::Gauge(Arc::new(AtomicU64::new(0)))) {
            Cell::Gauge(g) => g.clone(),
            Cell::Counter(_) | Cell::Histogram(_) => {
                debug_assert!(false, "metric registered under both kinds");
                Arc::new(AtomicU64::new(0))
            }
        }
    }

    fn rows(&self) -> Vec<MetricRow> {
        let mut rows = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("registry shard poisoned");
            for (key, cell) in shard.iter() {
                let value = match cell {
                    Cell::Counter(c) => MetricValue::Counter(c.load(Ordering::Relaxed)),
                    Cell::Gauge(g) => MetricValue::Gauge(g.load(Ordering::Relaxed)),
                    Cell::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                rows.push(MetricRow { name: key.name, labels: key.labels.clone(), value });
            }
        }
        // HashMap order is nondeterministic; the export order is not.
        rows.sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
        rows
    }
}

/// A counter handle. Cloning is cheap; the disabled (`Noop`) handle
/// costs one `Option` check per operation.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A detached no-op counter (what [`Obs::noop`] hands out).
    pub fn noop() -> Counter {
        Counter(None)
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a noop handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A high-water gauge handle: [`Gauge::observe`] keeps the maximum of
/// everything observed, which is commutative, so concurrent observers
/// still snapshot to a scheduling-independent value.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// A detached no-op gauge.
    pub fn noop() -> Gauge {
        Gauge(None)
    }

    /// Raises the gauge to `value` if it is above the current high water.
    pub fn observe(&self, value: u64) {
        if let Some(g) = &self.0 {
            g.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Current high-water value (0 for a noop handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A histogram handle recording `u64` observations (simulated
/// microseconds, frame counts, bytes — integral by convention, so
/// parallel accumulation stays exact).
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistCell>>);

impl Histogram {
    /// A detached no-op histogram.
    pub fn noop() -> Histogram {
        Histogram(None)
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.0 {
            h.record(value);
        }
    }
}

/// Exported state of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Upper bound of the bucket holding the median observation.
    pub p50: u64,
    /// Upper bound of the bucket holding the 90th-percentile observation.
    pub p90: u64,
    /// Upper bound of the bucket holding the 99th-percentile observation.
    pub p99: u64,
}

/// One exported metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRow {
    /// Metric name.
    pub name: &'static str,
    /// Static labels, in registration order.
    pub labels: Vec<(&'static str, &'static str)>,
    /// The metric's value.
    pub value: MetricValue,
}

/// A counter value, a gauge high water, or a histogram snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotonic counter.
    Counter(u64),
    /// High-water gauge.
    Gauge(u64),
    /// Histogram summary.
    Histogram(HistogramSnapshot),
}

/// A deterministic snapshot of everything recorded so far: metrics
/// sorted by `(name, labels)`, traces sorted by label. See [`crate::export`]
/// for the table/CSV/JSONL serialisations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// All registered metrics.
    pub metrics: Vec<MetricRow>,
    /// All attached session traces.
    pub traces: Vec<Trace>,
}

impl Snapshot {
    /// The value of the counter `name`, summed over every label set it
    /// was registered with (0 if absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|r| r.name == name)
            .map(|r| match &r.value {
                MetricValue::Counter(v) => *v,
                MetricValue::Gauge(_) | MetricValue::Histogram(_) => 0,
            })
            .sum()
    }

    /// The high water of the gauge `name`, maxed over every label set it
    /// was registered with (0 if absent).
    pub fn gauge_max(&self, name: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|r| r.name == name)
            .map(|r| match &r.value {
                MetricValue::Gauge(v) => *v,
                MetricValue::Counter(_) | MetricValue::Histogram(_) => 0,
            })
            .max()
            .unwrap_or(0)
    }

    /// The snapshot of the histogram `name` (first matching label set).
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.metrics.iter().find_map(|r| match (&r.value, r.name == name) {
            (MetricValue::Histogram(h), true) => Some(*h),
            _ => None,
        })
    }

    /// Total spans recorded under `name` across every trace.
    pub fn span_count(&self, name: &str) -> usize {
        self.traces
            .iter()
            .map(|t| t.spans.iter().filter(|s| s.name == name).count())
            .sum()
    }

    /// Summed simulated duration of every span named `name`, in µs.
    pub fn span_duration_us(&self, name: &str) -> u64 {
        self.traces
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|s| s.name == name)
            .map(|s| s.duration_us())
            .sum()
    }
}

struct Inner {
    registry: Registry,
    series: SeriesRegistry,
    traces: Mutex<Vec<Trace>>,
}

/// The observability handle threaded through the platform's hot paths.
///
/// Cloning shares the backend. [`Obs::noop`] (the [`Default`]) is the
/// disabled backend: it hands out detached [`Counter`]/[`Histogram`]
/// handles and [`SpanRecorder::disabled`] recorders, so instrumented
/// code pays one branch per operation and allocates nothing.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs").field("enabled", &self.enabled()).finish()
    }
}

impl Obs {
    /// The disabled backend: every handle is detached, nothing is kept.
    pub fn noop() -> Obs {
        Obs { inner: None }
    }

    /// A live recording backend with an empty registry.
    pub fn recording() -> Obs {
        Obs {
            inner: Some(Arc::new(Inner {
                registry: Registry::new(),
                series: SeriesRegistry::new(),
                traces: Mutex::new(Vec::new()),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (registering on first use) a counter. Resolve once and
    /// keep the handle — resolution takes a shard lock, increments do not.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &'static str)]) -> Counter {
        match &self.inner {
            None => Counter::noop(),
            Some(inner) => Counter(Some(
                inner.registry.counter(Key { name, labels: labels.to_vec() }),
            )),
        }
    }

    /// Resolves (registering on first use) a high-water gauge.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &'static str)]) -> Gauge {
        match &self.inner {
            None => Gauge::noop(),
            Some(inner) => {
                Gauge(Some(inner.registry.gauge(Key { name, labels: labels.to_vec() })))
            }
        }
    }

    /// Resolves (registering on first use) a histogram.
    pub fn histogram(
        &self,
        name: &'static str,
        labels: &[(&'static str, &'static str)],
    ) -> Histogram {
        match &self.inner {
            None => Histogram::noop(),
            Some(inner) => Histogram(Some(
                inner.registry.histogram(Key { name, labels: labels.to_vec() }),
            )),
        }
    }

    /// Resolves (registering on first use) a ring-buffer time series.
    /// Like metric handles: resolve once, keep the handle, and a noop
    /// backend hands out a detached [`Series`] whose ingest is one
    /// `Option` check.
    pub fn series(&self, spec: SeriesSpec) -> Series {
        match &self.inner {
            None => Series::noop(),
            Some(inner) => inner.series.series(spec),
        }
    }

    /// All non-empty time-series bins, sorted by `(name, bin_start_us)`
    /// (empty on a noop backend).
    pub fn series_rows(&self) -> Vec<SeriesRow> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| inner.series.rows())
    }

    /// Deterministic CSV of every registered time series (header only on
    /// a noop backend).
    pub fn series_csv(&self) -> String {
        match &self.inner {
            None => SeriesRegistry::new().to_csv(),
            Some(inner) => inner.series.to_csv(),
        }
    }

    /// Deterministic JSON-lines of every registered time series (empty
    /// on a noop backend).
    pub fn series_jsonl(&self) -> String {
        self.inner.as_ref().map_or_else(String::new, |inner| inner.series.to_jsonl())
    }

    /// A span recorder for the session labelled `label` (disabled when
    /// this handle is the noop backend).
    pub fn recorder(&self, label: String) -> SpanRecorder {
        if self.enabled() {
            SpanRecorder::new(label)
        } else {
            SpanRecorder::disabled()
        }
    }

    /// Attaches a finished recorder's trace to the snapshot set. Spans
    /// still open are closed at the trace's latest recorded moment —
    /// combined with creating the recorder *outside* any `catch_unwind`,
    /// this is the panic-safe flush path.
    pub fn attach(&self, rec: SpanRecorder) {
        if let (Some(inner), true) = (&self.inner, rec.is_enabled()) {
            inner.traces.lock().expect("trace store poisoned").push(rec.into_trace());
        }
    }

    /// A deterministic snapshot: metrics sorted by `(name, labels)`,
    /// traces sorted by label. Two identical seeded runs produce equal
    /// snapshots — and byte-identical exports — regardless of thread
    /// scheduling.
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            None => Snapshot { metrics: Vec::new(), traces: Vec::new() },
            Some(inner) => {
                let metrics = inner.registry.rows();
                let mut traces = inner.traces.lock().expect("trace store poisoned").clone();
                traces.sort_by(|a, b| a.label.cmp(&b.label));
                Snapshot { metrics, traces }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_counters_and_histograms_register_once() {
        let obs = Obs::recording();
        let a = obs.counter("x.hits", &[("pillar", "media")]);
        let b = obs.counter("x.hits", &[("pillar", "media")]);
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3, "same key resolves to the same cell");
        let h = obs.histogram("x.lat", &[]);
        for v in [0u64, 1, 1, 7, 1000] {
            h.record(v);
        }
        let snap = obs.snapshot();
        assert_eq!(snap.counter_total("x.hits"), 3);
        let hs = snap.histogram("x.lat").unwrap();
        assert_eq!(hs.count, 5);
        assert_eq!(hs.sum, 1009);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 1000);
        assert_eq!(hs.p50, 1, "median bucket is [1,1]");
        assert_eq!(hs.p99, 1000, "p99 bucket bound 1023 clamps to the observed max");
    }

    #[test]
    fn obs_series_register_once_and_noop_is_free() {
        let obs = Obs::recording();
        let a = obs.series(SeriesSpec::counter("s.ev", 1_000, 8));
        let b = obs.series(SeriesSpec::counter("s.ev", 1_000, 8));
        a.record(500, 1);
        b.record(700, 2);
        assert_eq!(a.window(999, 1_000).sum, 3, "same name resolves to the same ring");
        assert_eq!(obs.series_rows().len(), 1);
        assert!(obs.series_csv().contains("s.ev,counter,0,1000,2,3,1,2\r\n"));
        assert_eq!(obs.series_jsonl().lines().count(), 1);
        let noop = Obs::noop();
        let s = noop.series(SeriesSpec::counter("s.ev", 1_000, 8));
        s.record(500, 1);
        assert!(!s.enabled());
        assert!(noop.series_rows().is_empty());
        assert_eq!(noop.series_csv(), "name,kind,bin_start_us,bin_width_us,count,sum,min,max\r\n");
        assert_eq!(noop.series_jsonl(), "");
    }

    #[test]
    fn obs_noop_handles_cost_nothing_and_export_nothing() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        let c = obs.counter("n", &[]);
        c.add(10);
        assert_eq!(c.get(), 0);
        let h = obs.histogram("h", &[]);
        h.record(5);
        let mut rec = obs.recorder("s".into());
        rec.enter("root", 0);
        obs.attach(rec);
        let snap = obs.snapshot();
        assert!(snap.metrics.is_empty());
        assert!(snap.traces.is_empty());
        assert_eq!(snap.counter_total("n"), 0);
    }

    #[test]
    fn obs_distinct_labels_are_distinct_series() {
        let obs = Obs::recording();
        obs.counter("y", &[("pillar", "media")]).add(1);
        obs.counter("y", &[("pillar", "stream")]).add(2);
        let snap = obs.snapshot();
        assert_eq!(snap.metrics.len(), 2);
        assert_eq!(snap.counter_total("y"), 3);
    }

    #[test]
    fn obs_snapshot_is_deterministic_across_threads() {
        let run = || {
            let obs = Obs::recording();
            std::thread::scope(|s| {
                for t in 0..8u64 {
                    let obs = obs.clone();
                    s.spawn(move || {
                        let c = obs.counter("work.items", &[]);
                        let h = obs.histogram("work.cost", &[]);
                        for i in 0..100u64 {
                            c.inc();
                            h.record(t * 100 + i);
                        }
                        let mut rec = obs.recorder(format!("worker-{t:02}"));
                        rec.enter("session", 0);
                        rec.exit(1000 + t);
                        obs.attach(rec);
                    });
                }
            });
            obs.snapshot()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "scheduling must not leak into the snapshot");
        assert_eq!(a.counter_total("work.items"), 800);
        assert_eq!(a.traces.len(), 8);
        assert!(a.traces.windows(2).all(|w| w[0].label < w[1].label));
    }

    #[test]
    fn obs_span_totals_are_queryable() {
        let obs = Obs::recording();
        let mut rec = obs.recorder("s-0".into());
        rec.enter("session", 0);
        rec.enter_with("dwell", 1, 0);
        rec.exit(50);
        rec.enter_with("dwell", 2, 50);
        rec.exit(80);
        rec.exit(80);
        obs.attach(rec);
        let snap = obs.snapshot();
        assert_eq!(snap.span_count("dwell"), 2);
        assert_eq!(snap.span_duration_us("dwell"), 80);
        assert_eq!(snap.span_duration_us("session"), 80);
        assert_eq!(snap.span_count("missing"), 0);
    }

    #[test]
    fn obs_gauge_keeps_high_water() {
        let obs = Obs::recording();
        let g = obs.gauge("queue.depth.max", &[("pillar", "runtime")]);
        g.observe(5);
        g.observe(3);
        assert_eq!(g.get(), 5, "lower observations never pull the gauge down");
        g.observe(9);
        let snap = obs.snapshot();
        assert_eq!(snap.gauge_max("queue.depth.max"), 9);
        assert_eq!(snap.counter_total("queue.depth.max"), 0, "gauges are not counters");
        let noop = Gauge::noop();
        noop.observe(100);
        assert_eq!(noop.get(), 0);
        assert_eq!(Obs::noop().gauge("g", &[]).get(), 0);
    }

    #[test]
    fn obs_histogram_empty_snapshot_is_zeroed() {
        let obs = Obs::recording();
        let _ = obs.histogram("empty", &[]);
        let hs = obs.snapshot().histogram("empty").unwrap();
        assert_eq!(hs, HistogramSnapshot::default());
    }
}
