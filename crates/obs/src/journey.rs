//! Causal session journeys: deterministic trace contexts, per-shard
//! journey logs, and cross-shard stitching into per-session timelines.
//!
//! The fleet can crash shards, migrate sessions, lose power and cold
//! restart; counters and spans see each component locally but nothing
//! answers *"what happened to session 4711, end to end?"*. This module
//! is that layer:
//!
//! * [`TraceCtx`] — a trace/span identity minted as a **pure hash** of
//!   `(seed, session, generation)`. Because it is a pure function, any
//!   component on any shard (or a cold restart that lost all state) can
//!   re-derive the same identity and the chain stays intact across
//!   every boundary a session crosses.
//! * [`JourneyRecorder`] — collects typed [`JourneyEvent`]s into
//!   per-shard [`JourneyLog`]s. Like
//!   [`SpanRecorder`](crate::span::SpanRecorder) it has a disabled mode
//!   whose operations are a single branch, so un-traced runs pay ~0.
//! * [`stitch`] — merges shard-local logs into per-session
//!   [`SessionJourney`] timelines ordered by exact simulated time,
//!   byte-identical across reruns.
//! * Query layer — [`journeys_where`], [`aggregate`], [`aggregate_by`],
//!   [`SessionJourney::critical_path`] (time-in-queue vs time-streaming
//!   vs time-migrating vs blackout), and deterministic top-K
//!   [`tail_exemplars`] linking histogram tail buckets to the trace ids
//!   that landed there.
//!
//! Timestamps are simulated milliseconds (the fleet clock); nothing in
//! here reads wall time, so the whole layer inherits the platform's
//! byte-identical-rerun guarantee.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hash::mix;

/// Domain-separation salt for trace ids (one per session).
const SALT_TRACE: u64 = 0x10AD_0001;
/// Domain-separation salt for span ids (one per session generation).
const SALT_SPAN: u64 = 0x10AD_0002;


/// The causal identity a session carries across every boundary.
///
/// Minted by [`TraceCtx::mint`] as a pure hash of
/// `(seed, session, generation)`: the `trace_id` is generation-agnostic
/// (one per session lifetime), the `span_id` names this generation, and
/// `parent` is the previous generation's span id — so a journey forms a
/// parent-linked chain of generations even when the links were minted
/// on different shards, after a migration, or after a cold restart that
/// recovered nothing but `(session, generation)` from the durable WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// One id for the session's whole lifetime.
    pub trace_id: u64,
    /// This generation's span id.
    pub span_id: u64,
    /// The previous generation's span id (`None` for generation 0).
    pub parent: Option<u64>,
}

impl TraceCtx {
    /// Mints the context for `session`'s `generation` under `seed`.
    ///
    /// Pure and stateless: every component that knows the triple mints
    /// the *same* context, which is what lets a cold-restarted shard
    /// verify the identity recovered from a persisted checkpoint
    /// against a fresh mint.
    pub fn mint(seed: u64, session: u64, generation: u32) -> TraceCtx {
        let trace_id = mix(seed ^ SALT_TRACE ^ mix(session));
        let span = |g: u32| mix(trace_id ^ SALT_SPAN ^ mix(u64::from(g).wrapping_add(1)));
        TraceCtx {
            trace_id,
            span_id: span(generation),
            parent: generation.checked_sub(1).map(span),
        }
    }
}

/// What happened at one moment of a session's journey.
///
/// Terminal kinds ([`JourneyEventKind::is_terminal`]) end the journey;
/// everything else is an intermediate hop.
#[derive(Debug, Clone, PartialEq)]
pub enum JourneyEventKind {
    /// Entered a shard's admission queue.
    Enqueued,
    /// Admitted to a serving slot (`generation` starts streaming).
    Admitted {
        /// The generation that started serving.
        generation: u32,
    },
    /// Admitted in a degraded serve mode.
    DegradedTo {
        /// Debug rendering of the degraded mode.
        mode: String,
    },
    /// A checkpoint was persisted (durably when `durable_seq` is set).
    CheckpointPersisted {
        /// Session step the checkpoint covers.
        step: u64,
        /// Digest of the persisted save.
        digest: u64,
        /// WAL sequence number if acknowledged durable.
        durable_seq: Option<u64>,
    },
    /// Handed off to another shard.
    MigratedOut {
        /// Destination shard.
        to: u32,
        /// Step the destination will resume from.
        resumed_at_step: u64,
    },
    /// Arrived from another shard.
    MigratedIn {
        /// Source shard.
        from: u32,
    },
    /// The serving shard crashed under the session.
    Crashed,
    /// Resumed serving after a crash or panic restart.
    Recovered {
        /// Step serving resumed from.
        resumed_at_step: u64,
        /// Restarts so far.
        restarts: u32,
    },
    /// Whole-fleet power loss hit while the session was live.
    PowerLoss,
    /// Re-admitted from the durable store after a cold restart.
    ColdResume {
        /// Step recovered from the store.
        from_step: u64,
        /// Whether the recovered checkpoint was stale.
        stale: bool,
    },
    /// Terminal: finished cleanly.
    Completed {
        /// Steps served in total.
        steps: u64,
    },
    /// Terminal: finished after one or more restarts.
    RecoveredEnd {
        /// Step the final incarnation resumed from.
        resumed_at_step: u64,
        /// Total restarts.
        restarts: u32,
    },
    /// Terminal: failed.
    Failed {
        /// Failure reason.
        reason: String,
    },
    /// Terminal: shed.
    Shed {
        /// Shed reason (exact-match invariant material).
        reason: String,
    },
    /// Terminal: gave up after exhausting restarts.
    GaveUp {
        /// Restarts burned before giving up.
        restarts: u32,
        /// Final failure reason.
        reason: String,
    },
}

impl JourneyEventKind {
    /// Whether this kind ends a journey.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JourneyEventKind::Completed { .. }
                | JourneyEventKind::RecoveredEnd { .. }
                | JourneyEventKind::Failed { .. }
                | JourneyEventKind::Shed { .. }
                | JourneyEventKind::GaveUp { .. }
        )
    }
}

/// One timestamped, trace-attributed event in a shard's journey log.
#[derive(Debug, Clone, PartialEq)]
pub struct JourneyEvent {
    /// Simulated milliseconds on the fleet clock.
    pub at_ms: f64,
    /// Shard that emitted the event.
    pub shard: u32,
    /// Session the event belongs to.
    pub session: u64,
    /// The causal identity active when the event fired.
    pub ctx: TraceCtx,
    /// What happened.
    pub kind: JourneyEventKind,
}

/// One shard's local journey log, in emission order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JourneyLog {
    /// The emitting shard.
    pub shard: u32,
    /// Events in the order the shard emitted them.
    pub events: Vec<JourneyEvent>,
}

/// Collects [`JourneyEvent`]s into per-shard [`JourneyLog`]s.
///
/// Mirrors [`SpanRecorder`](crate::span::SpanRecorder): a disabled
/// recorder ([`JourneyRecorder::disabled`]) makes every call a single
/// branch, so journey-off runs (the default, and every bench baseline)
/// pay nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct JourneyRecorder {
    enabled: bool,
    logs: BTreeMap<u32, Vec<JourneyEvent>>,
}

impl Default for JourneyRecorder {
    fn default() -> JourneyRecorder {
        JourneyRecorder::new()
    }
}

impl JourneyRecorder {
    /// An enabled recorder with no events yet.
    pub fn new() -> JourneyRecorder {
        JourneyRecorder { enabled: true, logs: BTreeMap::new() }
    }

    /// A disabled recorder; every [`JourneyRecorder::record`] is a
    /// single branch and nothing is kept.
    pub fn disabled() -> JourneyRecorder {
        JourneyRecorder { enabled: false, logs: BTreeMap::new() }
    }

    /// Whether events are kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event on `shard`'s local log.
    pub fn record(
        &mut self,
        shard: u32,
        at_ms: f64,
        session: u64,
        ctx: TraceCtx,
        kind: JourneyEventKind,
    ) {
        if self.enabled {
            self.logs
                .entry(shard)
                .or_default()
                .push(JourneyEvent { at_ms, shard, session, ctx, kind });
        }
    }

    /// Total events recorded so far.
    pub fn len(&self) -> usize {
        self.logs.values().map(Vec::len).sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the recorder into per-shard logs, sorted by shard id.
    pub fn into_logs(self) -> Vec<JourneyLog> {
        self.logs
            .into_iter()
            .map(|(shard, events)| JourneyLog { shard, events })
            .collect()
    }
}

/// Where a stitched journey ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TerminalState {
    /// Finished cleanly.
    Completed,
    /// Finished after restarts.
    Recovered,
    /// Failed.
    Failed,
    /// Shed.
    Shed,
    /// Gave up after exhausting restarts.
    GaveUp,
    /// No terminal event in any log — an attribution hole (the EXP-20
    /// invariant requires zero of these).
    Unresolved,
}

impl TerminalState {
    /// Stable lower-case name used in exports and aggregates.
    pub fn name(self) -> &'static str {
        match self {
            TerminalState::Completed => "completed",
            TerminalState::Recovered => "recovered",
            TerminalState::Failed => "failed",
            TerminalState::Shed => "shed",
            TerminalState::GaveUp => "gave_up",
            TerminalState::Unresolved => "unresolved",
        }
    }
}

/// Per-phase wall-clock (simulated) decomposition of one journey.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CriticalPath {
    /// Waiting in admission queues.
    pub queued_ms: f64,
    /// Actively streaming on a shard slot.
    pub streaming_ms: f64,
    /// In flight between shards (migration handoffs).
    pub migrating_ms: f64,
    /// Dark time: between a crash/power loss and the next sign of life.
    pub blackout_ms: f64,
}

impl CriticalPath {
    /// Sum of every phase.
    pub fn total_ms(&self) -> f64 {
        self.queued_ms + self.streaming_ms + self.migrating_ms + self.blackout_ms
    }
}

/// One session's stitched, time-ordered journey across every shard it
/// touched.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionJourney {
    /// The session.
    pub session: u64,
    /// The session's trace id (shared by every event).
    pub trace_id: u64,
    /// Events merged across shards, ordered by simulated time.
    pub events: Vec<JourneyEvent>,
    /// Where the journey ended.
    pub terminal: TerminalState,
}

impl SessionJourney {
    /// Distinct shards visited, in first-touch order.
    pub fn shards(&self) -> Vec<u32> {
        let mut out = Vec::new();
        for e in &self.events {
            if !out.contains(&e.shard) {
                out.push(e.shard);
            }
        }
        out
    }

    /// Highest generation observed.
    pub fn generations(&self) -> u32 {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                JourneyEventKind::Admitted { generation } => Some(generation),
                _ => None,
            })
            .max()
            .map_or(0, |g| g + 1)
    }

    /// First event's timestamp (0 for an empty journey).
    pub fn started_ms(&self) -> f64 {
        self.events.first().map_or(0.0, |e| e.at_ms)
    }

    /// Last event's timestamp (0 for an empty journey).
    pub fn ended_ms(&self) -> f64 {
        self.events.last().map_or(0.0, |e| e.at_ms)
    }

    /// End-to-end simulated duration.
    pub fn duration_ms(&self) -> f64 {
        self.ended_ms() - self.started_ms()
    }

    /// Checks causal-chain integrity: every event carries this
    /// journey's trace id, and every `parent` span id links to a span
    /// id some event actually carried (generation N was preceded by
    /// generation N-1 somewhere in the stitched log).
    pub fn chain_ok(&self) -> bool {
        let mut seen_spans: Vec<u64> = Vec::new();
        for e in &self.events {
            if e.ctx.trace_id != self.trace_id {
                return false;
            }
            if let Some(parent) = e.ctx.parent {
                if !seen_spans.contains(&parent) && parent != e.ctx.span_id {
                    // A parent we never saw as a span: broken chain,
                    // unless the log simply starts mid-journey (first
                    // event of a resumed generation) — only tolerate
                    // that at the very beginning.
                    if !seen_spans.is_empty() && !seen_spans.contains(&e.ctx.span_id) {
                        return false;
                    }
                }
            }
            if !seen_spans.contains(&e.ctx.span_id) {
                seen_spans.push(e.ctx.span_id);
            }
        }
        true
    }

    /// Decomposes the journey into queue / streaming / migrating /
    /// blackout phases.
    ///
    /// The phase machine follows the event semantics: `Enqueued` opens
    /// queue time, `Admitted` opens streaming, `MigratedOut` opens
    /// migration, `MigratedIn` re-opens queue time on the destination,
    /// `Crashed` / `PowerLoss` open blackout, `ColdResume` re-opens
    /// queue time, and any terminal event closes the open phase.
    pub fn critical_path(&self) -> CriticalPath {
        #[derive(Clone, Copy, PartialEq)]
        enum Phase {
            Queued,
            Streaming,
            Migrating,
            Blackout,
            Done,
        }
        let mut cp = CriticalPath::default();
        let mut phase = Phase::Done;
        let mut since = self.started_ms();
        for e in &self.events {
            let dt = (e.at_ms - since).max(0.0);
            let close = |cp: &mut CriticalPath, phase: Phase, dt: f64| match phase {
                Phase::Queued => cp.queued_ms += dt,
                Phase::Streaming => cp.streaming_ms += dt,
                Phase::Migrating => cp.migrating_ms += dt,
                Phase::Blackout => cp.blackout_ms += dt,
                Phase::Done => {}
            };
            let next = match &e.kind {
                JourneyEventKind::Enqueued => Some(Phase::Queued),
                JourneyEventKind::Admitted { .. } | JourneyEventKind::Recovered { .. } => {
                    Some(Phase::Streaming)
                }
                JourneyEventKind::MigratedOut { .. } => Some(Phase::Migrating),
                JourneyEventKind::MigratedIn { .. } | JourneyEventKind::ColdResume { .. } => {
                    Some(Phase::Queued)
                }
                JourneyEventKind::Crashed | JourneyEventKind::PowerLoss => Some(Phase::Blackout),
                k if k.is_terminal() => Some(Phase::Done),
                _ => None, // DegradedTo / CheckpointPersisted: no phase change
            };
            if let Some(next) = next {
                close(&mut cp, phase, dt);
                phase = next;
                since = e.at_ms;
            }
        }
        cp
    }
}

/// Merges per-shard logs into per-session journeys.
///
/// Events are ordered by `(at_ms, shard, local index)` — simulated time
/// first, with the shard id and each log's local emission order as
/// deterministic tie-breakers — so two runs of the same seed stitch to
/// byte-identical journeys no matter how many shards contributed.
/// Sessions come out sorted by session id.
pub fn stitch(logs: &[JourneyLog]) -> Vec<SessionJourney> {
    let mut by_session: BTreeMap<u64, Vec<(f64, u32, usize, JourneyEvent)>> = BTreeMap::new();
    for log in logs {
        for (i, e) in log.events.iter().enumerate() {
            by_session
                .entry(e.session)
                .or_default()
                .push((e.at_ms, log.shard, i, e.clone()));
        }
    }
    by_session
        .into_iter()
        .map(|(session, mut keyed)| {
            keyed.sort_by(|a, b| {
                a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
            });
            let events: Vec<JourneyEvent> = keyed.into_iter().map(|(_, _, _, e)| e).collect();
            let trace_id = events.first().map_or(0, |e| e.ctx.trace_id);
            let terminal = events
                .iter()
                .rev()
                .find_map(|e| match &e.kind {
                    JourneyEventKind::Completed { .. } => Some(TerminalState::Completed),
                    JourneyEventKind::RecoveredEnd { .. } => Some(TerminalState::Recovered),
                    JourneyEventKind::Failed { .. } => Some(TerminalState::Failed),
                    JourneyEventKind::Shed { .. } => Some(TerminalState::Shed),
                    JourneyEventKind::GaveUp { .. } => Some(TerminalState::GaveUp),
                    _ => None,
                })
                .unwrap_or(TerminalState::Unresolved);
            SessionJourney { session, trace_id, events, terminal }
        })
        .collect()
}

/// Filters journeys by an arbitrary predicate, preserving order.
pub fn journeys_where<F>(journeys: &[SessionJourney], mut pred: F) -> Vec<&SessionJourney>
where
    F: FnMut(&SessionJourney) -> bool,
{
    journeys.iter().filter(|j| pred(j)).collect()
}

/// Whole-population aggregate over stitched journeys.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JourneyAggregate {
    /// Journeys aggregated.
    pub total: usize,
    /// Count per terminal state, keyed by [`TerminalState::name`].
    pub by_terminal: BTreeMap<&'static str, usize>,
    /// Total migration handoffs observed.
    pub migrations: usize,
    /// Total cold resumes observed.
    pub cold_resumes: usize,
    /// Sum of per-journey critical paths.
    pub critical: CriticalPath,
}

/// Aggregates terminal states, migrations, cold resumes and summed
/// critical paths over `journeys`.
pub fn aggregate(journeys: &[SessionJourney]) -> JourneyAggregate {
    let mut agg = JourneyAggregate { total: journeys.len(), ..JourneyAggregate::default() };
    for j in journeys {
        *agg.by_terminal.entry(j.terminal.name()).or_insert(0) += 1;
        for e in &j.events {
            match e.kind {
                JourneyEventKind::MigratedOut { .. } => agg.migrations += 1,
                JourneyEventKind::ColdResume { .. } => agg.cold_resumes += 1,
                _ => {}
            }
        }
        let cp = j.critical_path();
        agg.critical.queued_ms += cp.queued_ms;
        agg.critical.streaming_ms += cp.streaming_ms;
        agg.critical.migrating_ms += cp.migrating_ms;
        agg.critical.blackout_ms += cp.blackout_ms;
    }
    agg
}

/// Aggregates per key (an "archetype": shed reason, shard count, serve
/// mode — whatever `key` extracts), keys sorted.
pub fn aggregate_by<F>(journeys: &[SessionJourney], mut key: F) -> BTreeMap<String, JourneyAggregate>
where
    F: FnMut(&SessionJourney) -> String,
{
    let mut groups: BTreeMap<String, Vec<SessionJourney>> = BTreeMap::new();
    for j in journeys {
        groups.entry(key(j)).or_default().push(j.clone());
    }
    groups.into_iter().map(|(k, v)| (k, aggregate(&v))).collect()
}

/// The power-of-two bucket a value lands in — **the same bucketing as
/// [`Histogram`](crate::metrics::Histogram)** (bucket `i` counts values
/// of bit length `i`; bucket 0 holds the value 0), so an exemplar's
/// bucket index lines up with the metric registry's histogram export.
pub fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// One tail exemplar: a concrete trace id behind a histogram tail
/// bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exemplar {
    /// The trace to pull up.
    pub trace_id: u64,
    /// The session behind it.
    pub session: u64,
    /// The metric value that landed in the tail.
    pub value: u64,
    /// The histogram bucket (see [`bucket_of`]) the value landed in.
    pub bucket: usize,
}

/// Deterministic top-K exemplars of `metric` over `journeys`: the K
/// largest values, ties broken by session id ascending, each linked to
/// the histogram bucket it landed in. This is the artifact that turns
/// "p99 is 2ⁿ µs" into "…and here are the trace ids that put it there".
pub fn tail_exemplars<F>(journeys: &[SessionJourney], k: usize, mut metric: F) -> Vec<Exemplar>
where
    F: FnMut(&SessionJourney) -> u64,
{
    let mut all: Vec<Exemplar> = journeys
        .iter()
        .map(|j| {
            let value = metric(j);
            Exemplar { trace_id: j.trace_id, session: j.session, value, bucket: bucket_of(value) }
        })
        .collect();
    all.sort_by(|a, b| b.value.cmp(&a.value).then(a.session.cmp(&b.session)));
    all.truncate(k);
    all
}

/// Renders journeys as a deterministic line-oriented text export —
/// the byte-identity artifact EXP-20 compares across reruns.
pub fn export_journeys(journeys: &[SessionJourney]) -> String {
    let mut out = String::new();
    for j in journeys {
        let _ = writeln!(
            out,
            "journey session={} trace={:016x} terminal={} events={} span_ms={:.3}",
            j.session,
            j.trace_id,
            j.terminal.name(),
            j.events.len(),
            j.duration_ms()
        );
        for e in &j.events {
            let parent = e.ctx.parent.map_or_else(|| "-".to_string(), |p| format!("{p:016x}"));
            let _ = writeln!(
                out,
                "  {:>10.3} shard={} span={:016x} parent={} {:?}",
                e.at_ms, e.shard, e.ctx.span_id, parent, e.kind
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ms: f64, shard: u32, session: u64, generation: u32, kind: JourneyEventKind) -> JourneyEvent {
        JourneyEvent { at_ms, shard, session, ctx: TraceCtx::mint(7, session, generation), kind }
    }

    #[test]
    fn journey_mint_is_pure_and_chains_generations() {
        let a = TraceCtx::mint(42, 4711, 0);
        let b = TraceCtx::mint(42, 4711, 0);
        assert_eq!(a, b, "minting is a pure function");
        assert_eq!(a.parent, None, "generation 0 has no parent");

        let g1 = TraceCtx::mint(42, 4711, 1);
        assert_eq!(g1.trace_id, a.trace_id, "trace id spans generations");
        assert_eq!(g1.parent, Some(a.span_id), "parent links to the previous generation");
        assert_ne!(g1.span_id, a.span_id);

        let other = TraceCtx::mint(42, 4712, 0);
        assert_ne!(other.trace_id, a.trace_id, "sessions get distinct traces");
        let other_seed = TraceCtx::mint(43, 4711, 0);
        assert_ne!(other_seed.trace_id, a.trace_id, "seeds get distinct traces");
    }

    #[test]
    fn journey_recorder_disabled_keeps_nothing() {
        let mut rec = JourneyRecorder::disabled();
        assert!(!rec.is_enabled());
        rec.record(0, 1.0, 1, TraceCtx::mint(0, 1, 0), JourneyEventKind::Enqueued);
        assert!(rec.is_empty());
        assert!(rec.into_logs().is_empty());

        let mut rec = JourneyRecorder::new();
        rec.record(1, 1.0, 1, TraceCtx::mint(0, 1, 0), JourneyEventKind::Enqueued);
        rec.record(0, 2.0, 1, TraceCtx::mint(0, 1, 0), JourneyEventKind::Admitted { generation: 0 });
        assert_eq!(rec.len(), 2);
        let logs = rec.into_logs();
        assert_eq!(logs.len(), 2);
        assert!(logs[0].shard < logs[1].shard, "logs come out sorted by shard");
    }

    #[test]
    fn journey_stitch_orders_cross_shard_events_by_time() {
        // Session 9 visits shard 0 then migrates to shard 1; logs are
        // handed to stitch() in reverse shard order on purpose.
        let log1 = JourneyLog {
            shard: 1,
            events: vec![
                ev(30.0, 1, 9, 1, JourneyEventKind::MigratedIn { from: 0 }),
                ev(35.0, 1, 9, 1, JourneyEventKind::Admitted { generation: 1 }),
                ev(50.0, 1, 9, 1, JourneyEventKind::Completed { steps: 8 }),
            ],
        };
        let log0 = JourneyLog {
            shard: 0,
            events: vec![
                ev(10.0, 0, 9, 0, JourneyEventKind::Enqueued),
                ev(12.0, 0, 9, 0, JourneyEventKind::Admitted { generation: 0 }),
                ev(30.0, 0, 9, 0, JourneyEventKind::MigratedOut { to: 1, resumed_at_step: 4 }),
            ],
        };
        let journeys = stitch(&[log1, log0]);
        assert_eq!(journeys.len(), 1);
        let j = &journeys[0];
        assert_eq!(j.session, 9);
        assert_eq!(j.terminal, TerminalState::Completed);
        assert_eq!(j.events.len(), 6);
        assert!(j.events.windows(2).all(|w| w[0].at_ms <= w[1].at_ms), "time-ordered");
        assert_eq!(j.shards(), vec![0, 1]);
        assert_eq!(j.generations(), 2);
        assert!(j.chain_ok(), "generation 1's parent span was seen on shard 0");

        // Same-timestamp cross-shard tie (the handoff at 30.0) breaks by
        // shard id: the MigratedOut on shard 0 precedes the MigratedIn.
        let at_30: Vec<u32> = j.events.iter().filter(|e| e.at_ms == 30.0).map(|e| e.shard).collect();
        assert_eq!(at_30, vec![0, 1]);
    }

    #[test]
    fn journey_critical_path_decomposes_phases() {
        let events = vec![
            ev(0.0, 0, 3, 0, JourneyEventKind::Enqueued),
            ev(5.0, 0, 3, 0, JourneyEventKind::Admitted { generation: 0 }),
            ev(20.0, 0, 3, 0, JourneyEventKind::MigratedOut { to: 1, resumed_at_step: 2 }),
            ev(24.0, 1, 3, 1, JourneyEventKind::MigratedIn { from: 0 }),
            ev(26.0, 1, 3, 1, JourneyEventKind::Admitted { generation: 1 }),
            ev(40.0, 1, 3, 1, JourneyEventKind::Completed { steps: 9 }),
        ];
        let j = &stitch(&[JourneyLog { shard: 0, events }])[0];
        let cp = j.critical_path();
        assert_eq!(cp.queued_ms, 5.0 + 2.0);
        assert_eq!(cp.streaming_ms, 15.0 + 14.0);
        assert_eq!(cp.migrating_ms, 4.0);
        assert_eq!(cp.blackout_ms, 0.0);
        assert_eq!(cp.total_ms(), j.duration_ms());
    }

    #[test]
    fn journey_unresolved_and_aggregates() {
        let done = JourneyLog {
            shard: 0,
            events: vec![
                ev(0.0, 0, 1, 0, JourneyEventKind::Enqueued),
                ev(1.0, 0, 1, 0, JourneyEventKind::Admitted { generation: 0 }),
                ev(9.0, 0, 1, 0, JourneyEventKind::Completed { steps: 4 }),
            ],
        };
        let hole = JourneyLog {
            shard: 0,
            events: vec![ev(2.0, 0, 2, 0, JourneyEventKind::Enqueued)],
        };
        let journeys = stitch(&[done, hole]);
        assert_eq!(journeys[0].terminal, TerminalState::Completed);
        assert_eq!(journeys[1].terminal, TerminalState::Unresolved);

        let agg = aggregate(&journeys);
        assert_eq!(agg.total, 2);
        assert_eq!(agg.by_terminal["completed"], 1);
        assert_eq!(agg.by_terminal["unresolved"], 1);

        let by = aggregate_by(&journeys, |j| j.terminal.name().to_string());
        assert_eq!(by.len(), 2);
        assert_eq!(by["completed"].total, 1);

        let unresolved = journeys_where(&journeys, |j| j.terminal == TerminalState::Unresolved);
        assert_eq!(unresolved.len(), 1);
        assert_eq!(unresolved[0].session, 2);
    }

    #[test]
    fn journey_exemplars_are_deterministic_and_bucket_aligned() {
        let mk = |session: u64, end: f64| JourneyLog {
            shard: 0,
            events: vec![
                ev(0.0, 0, session, 0, JourneyEventKind::Enqueued),
                ev(end, 0, session, 0, JourneyEventKind::Completed { steps: 1 }),
            ],
        };
        let journeys = stitch(&[mk(1, 100.0), mk(2, 900.0), mk(3, 900.0), mk(4, 50.0)]);
        let metric = |j: &SessionJourney| crate::us_from_ms(j.duration_ms());
        let top = tail_exemplars(&journeys, 2, metric);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].session, 2, "value ties break by session id");
        assert_eq!(top[1].session, 3);
        assert_eq!(top[0].bucket, bucket_of(900_000));
        assert_eq!(bucket_of(0), 0, "bucketing matches the metric registry");
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(tail_exemplars(&journeys, 2, metric), top, "repeat call is identical");
    }

    #[test]
    fn journey_export_is_byte_identical_across_reruns() {
        let build = || {
            let mut rec = JourneyRecorder::new();
            for s in 0..4u64 {
                let c0 = TraceCtx::mint(11, s, 0);
                rec.record(0, s as f64, s, c0, JourneyEventKind::Enqueued);
                rec.record(0, s as f64 + 1.0, s, c0, JourneyEventKind::Admitted { generation: 0 });
                rec.record(
                    0,
                    s as f64 + 2.0,
                    s,
                    c0,
                    JourneyEventKind::CheckpointPersisted { step: 5, digest: 0xD1, durable_seq: Some(s + 1) },
                );
                rec.record(0, s as f64 + 9.0, s, c0, JourneyEventKind::Completed { steps: 9 });
            }
            export_journeys(&stitch(&rec.into_logs()))
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("terminal=completed"));
        assert!(a.contains("parent=-"));
    }
}
