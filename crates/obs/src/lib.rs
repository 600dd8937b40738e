//! # vgbl-obs — deterministic, headless tracing and metrics
//!
//! Every pillar of the platform simulates time instead of measuring it
//! (stream sessions run on a simulated millisecond clock, playback on the
//! media timeline), so its observability layer can be — and is — fully
//! deterministic: **two identical runs produce byte-identical traces and
//! metric exports**. That determinism is what lets EXP-13 cross-check
//! span totals against the analytics counters exactly, turning silent
//! metric drift into a hard failure.
//!
//! The crate has three parts:
//!
//! * [`span`] — hierarchical spans recorded per session by a
//!   [`SpanRecorder`]. Timestamps are caller-supplied microseconds of
//!   *simulated* time (never wall time); each recorder is single-owner,
//!   so span order inside a trace is deterministic, and traces are
//!   sorted by label at snapshot time, so multi-threaded cohorts export
//!   identically regardless of scheduling.
//! * [`metrics`] — a sharded, thread-safe registry of counters and
//!   histograms with static labels, mirroring the sharded `GopCache`
//!   design: keys hash to one of a fixed set of shards, each behind its
//!   own `std::sync::Mutex`; after handle resolution the hot path is a
//!   single lock-free atomic op. All metric state is commutative
//!   (counter adds, bucket increments, min/max), so concurrent workers
//!   cannot perturb the exported numbers.
//! * [`export`] — exporters for a [`Snapshot`]: an aligned text table,
//!   RFC-4180 CSV, and JSON-lines, alongside `SessionLog::to_csv`.
//! * [`timeseries`] — fixed-width ring-buffer time series on the
//!   simulated clock: O(1) ingest, windowed sum/avg/max/quantile
//!   queries, deterministic CSV/JSONL export. The *when* to the metric
//!   registry's *how much in total*.
//! * [`slo`] — declarative objectives over those series, evaluated with
//!   multi-window multi-burn-rate rules into a deterministic
//!   [`slo::AlertTimeline`] and an exact error-budget ledger.
//! * [`profile`] — folds recorded spans into inferno-compatible
//!   flamegraph text, top-k hotspot tables, and run-to-run diffs.
//! * [`hash`] — the workspace's one FNV-1a 64 and splitmix64
//!   implementation, shared by every checksum and seeded draw.
//! * [`journey`] — causal session journeys: pure-hash [`TraceCtx`]
//!   identities propagated across every fleet boundary, per-shard
//!   [`JourneyLog`]s of typed events, cross-shard [`stitch`]ing into
//!   per-session timelines, and a query/exemplar layer on top.
//!
//! The disabled backend ([`Obs::noop`]) hands out detached handles whose
//! operations are a single `Option` check — instrumented hot paths cost
//! near-zero when observability is off, so benches are unaffected.
//!
//! ```
//! use vgbl_obs::Obs;
//!
//! let obs = Obs::recording();
//! let hits = obs.counter("cache.hits", &[("pillar", "media")]);
//! hits.inc();
//! let mut rec = obs.recorder("session-0000".to_owned());
//! rec.enter("session", 0);
//! rec.enter("dwell", 0);
//! rec.exit(33_333);
//! rec.exit(33_333);
//! obs.attach(rec);
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter_total("cache.hits"), 1);
//! assert_eq!(snap.traces[0].spans.len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod hash;
pub mod journey;
pub mod metrics;
pub mod profile;
pub mod slo;
pub mod span;
pub mod timeseries;

pub use journey::{
    aggregate, aggregate_by, bucket_of, export_journeys, journeys_where, stitch, tail_exemplars,
    CriticalPath, Exemplar, JourneyAggregate, JourneyEvent, JourneyEventKind, JourneyLog,
    JourneyRecorder, SessionJourney, TerminalState, TraceCtx,
};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricRow, MetricValue, Obs, Snapshot,
};
pub use profile::{folded_stacks, hotspot_table, hotspots, profile_diff, Hotspot, ProfileDiff};
pub use slo::{
    AlertEvent, AlertPhase, AlertTimeline, BudgetLedger, BurnRule, Objective, SloEvaluator,
};
pub use span::{SpanRec, SpanRecorder, Trace};
pub use timeseries::{
    Series, SeriesKind, SeriesRegistry, SeriesRow, SeriesSpec, SeriesTotals, WindowStats,
};

/// Converts simulated milliseconds (the stream clock's unit) to the
/// microsecond ticks spans and time counters use. Negative or
/// non-finite inputs clamp to 0 so fault paths can never poison a
/// trace; finite inputs too large for `u64` microseconds saturate to
/// `u64::MAX` (the float-to-int cast is defined to saturate, including
/// when `ms * 1000.0` overflows to `+inf`), so a runaway simulated
/// clock pins at the end of time instead of wrapping.
pub fn us_from_ms(ms: f64) -> u64 {
    if ms.is_finite() && ms > 0.0 {
        (ms * 1000.0).round() as u64
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_us_from_ms_is_total() {
        assert_eq!(us_from_ms(1.5), 1500);
        assert_eq!(us_from_ms(0.0), 0);
        assert_eq!(us_from_ms(-3.0), 0);
        assert_eq!(us_from_ms(f64::NAN), 0);
        assert_eq!(us_from_ms(f64::INFINITY), 0);
        assert_eq!(us_from_ms(0.0004), 0);
        assert_eq!(us_from_ms(0.0006), 1);
    }

    #[test]
    fn obs_us_from_ms_saturates_at_large_simulated_timestamps() {
        // Finite ms too large for u64 µs must saturate, not wrap: both
        // the in-range-f64-but-out-of-u64-range case and the case where
        // `ms * 1000.0` itself overflows to +inf (the cast saturates by
        // definition). A wrapped timestamp would sort a span's end
        // *before* its start and corrupt every export downstream.
        assert_eq!(us_from_ms(f64::MAX), u64::MAX);
        assert_eq!(us_from_ms(1e300), u64::MAX);
        // Largest u64 is ~1.8e19 µs ≈ 1.8e16 ms; just above saturates.
        assert_eq!(us_from_ms(2e16), u64::MAX);
        // Comfortably inside range still converts exactly.
        assert_eq!(us_from_ms(1e12), 1_000_000_000_000_000);
        // Monotone across the boundary: no value maps above MAX.
        assert!(us_from_ms(1.8e16) <= us_from_ms(1.9e16));
    }
}
