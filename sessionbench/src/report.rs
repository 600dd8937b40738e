//! Metric definitions, the per-run tally, and the result line.

use std::fmt::Write as _;

/// A metric the benchmark prints: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("sessions_per_s", "1/s"),
    def("frames_per_s", "1/s"),
    def("first_frame_p50_ms", "ms"),
    def("peak_rss_mb", "MB"),
];

/// Span names recorded by the benchmark and the per-layer metric (in ms)
/// that carries each one's self time. Together they partition the traced
/// wall time: `other` is the root, every other span nests under it.
pub const SPANS: &[(&str, &str)] = &[
    ("other", "other.self_ms"),
    ("executor", "executor.self_ms"),
    ("task", "task.self_ms"),
    ("engine.setup", "engine.setup_ms"),
    ("engine.handle", "engine.handle_ms"),
    ("bot", "bot.ms"),
    ("playback.setup", "playback.setup_ms"),
    ("playback.serve", "playback.serve_ms"),
    ("playback.switch", "playback.switch_ms"),
    ("render.compose", "render.compose_ms"),
    ("check", "check.ms"),
    ("batch", "batch.plan_ms"),
    ("decode", "decode.wall_ms"),
    ("stream.simulate", "stream.simulate_ms"),
    ("shot.detect", "shot.detect_ms"),
    ("encode", "encode.ms"),
    ("author.import", "author.import_ms"),
    ("author.edit", "author.edit_ms"),
    ("publish", "publish.ms"),
    ("vgp.save", "vgp.save_ms"),
    ("vgp.load", "vgp.load_ms"),
    ("vgv.write", "vgv.write_ms"),
    ("vgv.read", "vgv.read_ms"),
    ("fleet", "fleet.self_ms"),
];

/// Per-layer metrics beyond the self times of [`SPANS`].
const LAYER_FIGURES: &[MetricDef] = &[
    // The traced pass as a whole.
    def("trace.wall_ms", "ms"),
    def("trace.overhead_ratio", "ratio"),
    // runtime.engine
    def("engine.inputs", "count"),
    // runtime.playback
    def("playback.decoded_per_served", "ratio"),
    // runtime.executor
    def("executor.ticks", "count"),
    def("executor.polls", "count"),
    def("executor.peak_in_flight", "count"),
    // stream.batch
    def("batch.rounds", "count"),
    def("batch.keys", "count"),
    def("batch.coalesced_ratio", "ratio"),
    def("batch.resolve_ms", "ms"),
    // media.cache
    def("cache.hits", "count"),
    def("cache.misses", "count"),
    def("cache.evictions", "count"),
    def("cache.hit_rate", "ratio"),
    // media.codec, decode side
    def("decode.ms", "ms"),
    def("decode.gops", "count"),
    def("decode.frames", "count"),
    // stream.client
    def("stream.startup_ms", "ms"),
    def("stream.rebuffer_ratio", "ratio"),
    // media.codec encode side, author, core.publish, media.container
    def("encode.frames", "count"),
    def("encode.bytes_per_frame", "B"),
    def("vgp.bytes", "B"),
    def("vgv.bytes", "B"),
    def("author.roundtrip_ms", "ms"),
    // runtime.fleet, runtime.supervisor, vgbl-store, obs.journey
    def("fleet.migrations", "count"),
    def("fleet.migrations_verified", "count"),
    def("supervisor.shed", "count"),
    def("supervisor.restarts", "count"),
    def("supervisor.queue_wait_p99_ms", "ms"),
    def("store.appended", "count"),
    def("store.acked_flushes", "count"),
    def("store.snapshots", "count"),
    def("store.cold_resumed", "count"),
    def("journey.cost_ms", "ms"),
    def("journey.cost_iqr_ms", "ms"),
    def("store.cost_ms", "ms"),
    def("store.cost_iqr_ms", "ms"),
    // Session figures that not every workload has, from the untraced pass.
    def("learner.first_frame_p99_ms", "ms"),
    def("learner.first_frame_samples", "count"),
    def("learner.branch_p50_ms", "ms"),
    def("learner.branch_p99_ms", "ms"),
    def("learner.branch_samples", "count"),
    def("run.fail_ratio", "ratio"),
];

/// Per-layer metrics, printed by every traced run of every workload: the
/// self time of each of [`SPANS`], then [`LAYER_FIGURES`]. A layer that
/// did no work in a workload reports 0.
pub fn per_layer() -> Vec<MetricDef> {
    SPANS
        .iter()
        .map(|&(_, metric)| def(metric, "ms"))
        .chain(LAYER_FIGURES.iter().copied())
        .collect()
}

/// Everything one measured pass accumulates. Counters that a workload's
/// layers never touch stay 0.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Sessions (or author steps) attempted.
    pub attempted: u64,
    /// Sessions (or author steps) that failed, gave up or were lost.
    pub failed: u64,
    /// Outputs that did not match their reference.
    pub mismatches: u64,
    /// Sessions finished (learner, author or fleet sessions).
    pub sessions: u64,
    /// Frames through the workload's video path (served, or imported).
    pub frames: u64,
    /// Seconds spent producing `frames` when that is narrower than the
    /// round (the author's import to publish); 0 means the whole round.
    pub frame_s: f64,
    /// Per session: first poll to first composited frame, ms.
    pub first_frame_ms: Vec<f64>,
    /// Per branch: scenario-changing input to the new segment's first
    /// composited frame, ms.
    pub branch_ms: Vec<f64>,
    /// Decision inputs handled by the engine.
    pub inputs: u64,
    /// Frames served by players.
    pub served: u64,
    /// Frames players decoded themselves (cache misses at serve time).
    pub player_decoded: u64,
    /// Executor ticks, polls, and the largest in-flight count.
    pub ticks: u64,
    /// Executor task polls.
    pub polls: u64,
    /// Most sessions in flight at once.
    pub peak_in_flight: u64,
    /// Batch fetch rounds.
    pub batches: u64,
    /// Unique keys over all batch rounds.
    pub batch_keys: u64,
    /// Requests over all batch rounds (one per waiting session).
    pub batch_waiters: u64,
    /// Frames decoded by the benchmark's prewarm.
    pub prewarm_frames: u64,
    /// Time inside the prewarm's decode closure, summed over threads, ns.
    pub prewarm_decode_ns: u64,
    /// Shared-cache counters over the pass.
    pub cache_hits: u64,
    /// Shared-cache misses over the pass.
    pub cache_misses: u64,
    /// Shared-cache evictions over the pass.
    pub cache_evictions: u64,
    /// Simulated stream start-up per replayed session, ms.
    pub stream_startup_ms: Vec<f64>,
    /// Simulated rebuffer ratio per replayed session.
    pub stream_rebuffer: Vec<f64>,
    /// Frames encoded and their encoded bytes.
    pub encode_frames: u64,
    /// Encoded payload bytes.
    pub encode_bytes: u64,
    /// `.vgp` text bytes written.
    pub vgp_bytes: u64,
    /// VGV container bytes written.
    pub vgv_bytes: u64,
    /// Save plus load time per author session, ms.
    pub roundtrip_ms: Vec<f64>,
    /// Fleet migrations, and those replay-verified.
    pub migrations: u64,
    /// Migrations whose replay verification passed.
    pub migrations_verified: u64,
    /// Sessions shed by admission control.
    pub shed: u64,
    /// Supervisor restarts.
    pub restarts: u64,
    /// Simulated queue-wait p99 per fleet run, ms.
    pub queue_wait_p99_ms: Vec<f64>,
    /// Durable-store counters.
    pub store_appended: u64,
    /// Acknowledged flushes.
    pub store_acked_flushes: u64,
    /// Snapshots written.
    pub store_snapshots: u64,
    /// Sessions resumed from the store after a power loss.
    pub store_cold_resumed: u64,
    /// Broken invariants of the correctness gate, one line each.
    pub violations: Vec<String>,
}

impl Tally {
    /// Folds executor counters of one cohort run.
    pub fn add_executor(&mut self, stats: &vgbl::runtime::ExecutorStats) {
        self.ticks += stats.ticks;
        self.polls += stats.polls;
        self.peak_in_flight = self.peak_in_flight.max(stats.peak_in_flight as u64);
        self.batches += stats.batches;
        self.batch_keys += stats.batched_keys;
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile `q` in `(0, 1]` of `v` (0 when empty).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Mean of `v` (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named metric values of one run, checked against a definition list.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Orders the values as `defs` lists them.
    ///
    /// # Panics
    /// When a defined metric is missing, recorded twice, not finite, or
    /// a recorded metric is not defined: each is a bug in the benchmark.
    pub fn ordered(&self, defs: &[MetricDef]) -> Vec<(MetricDef, f64)> {
        for (name, _) in &self.0 {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "metric {name} is not defined"
            );
        }
        defs.iter()
            .map(|d| {
                let mut hits = self.0.iter().filter(|(n, _)| *n == d.name);
                let (_, v) = *hits
                    .next()
                    .unwrap_or_else(|| panic!("metric {} missing", d.name));
                assert!(hits.next().is_none(), "metric {} recorded twice", d.name);
                assert!(v.is_finite(), "metric {} is not finite: {v}", d.name);
                (*d, v)
            })
            .collect()
    }
}

/// One run's result: the benchmark's last line of standard output.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every output matched its reference and every gate held.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values in definition order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// Gate violations, for the error stream.
    pub violations: Vec<String>,
}

impl Outcome {
    /// The result as one JSON line. Values keep every digit (`{}` on an
    /// `f64` prints the shortest exact round-trip form).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (d, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&per_layer())
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
    }

    #[test]
    fn json_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.123_456_789_012_345);
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: m.ordered(&[def("setup_s", "s")]),
            violations: Vec::new(),
        };
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.123456789012345, \"unit\": \"s\"}}}"
        );
    }
}
