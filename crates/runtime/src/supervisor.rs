//! Supervised session hosting: admission control, load shedding,
//! circuit breaking and checkpoint-based crash recovery.
//!
//! The plain cohort servers in [`crate::server`] accept every session and
//! let failures stand. A distance-learning deployment cannot: when a
//! lecture ends and a whole class logs in at once, the server must *shed*
//! load it cannot serve in time rather than queue unboundedly, *degrade*
//! service gracefully before that point, stop hammering a sick stream
//! link (circuit breaking), and bring crashed sessions back from their
//! last checkpoint instead of throwing the student's progress away.
//!
//! Everything here is a deterministic discrete-event simulation on
//! simulated millisecond clocks — no wall time, no OS threads — so two
//! identical runs produce byte-identical [`SupervisorReport`]s and obs
//! exports, which is what the EXP-14 replay cross-check asserts.
//!
//! The moving parts:
//!
//! * [`ArrivalPlan`] — a seeded exponential arrival process, optionally
//!   modulated by a [`LoadSpike`] (the after-lecture rush).
//! * Admission control — a bounded queue ([`SupervisorConfig::queue_capacity`]);
//!   arrivals beyond capacity are shed immediately, and queued sessions
//!   whose wait exceeds [`SupervisorConfig::queue_deadline_ms`] are shed
//!   when a slot would finally pick them up.
//! * Degradation ladder — a [`LadderPolicy`] picks a [`ServiceMode`] at
//!   admission: full service, skip prefetch warming, or concealment-only
//!   playback at half the per-step cost. [`LadderPolicy::Occupancy`]
//!   thresholds instantaneous queue occupancy;
//!   [`LadderPolicy::SloDriven`] thresholds the *burn rate* of the
//!   shed-rate and admission-wait objectives over ring-buffer time
//!   series, so degradation starts when user-visible health slips
//!   (waits blowing past target) rather than when the queue is already
//!   nearly full — and stays on while the long window still remembers
//!   the incident, instead of flapping back to expensive full service
//!   the moment the queue momentarily drains.
//! * SLO telemetry — every run (whatever the ladder) feeds arrival,
//!   shed, and wait series into an [`SloEvaluator`] and reports a
//!   deterministic [`AlertTimeline`] plus exact [`BudgetLedger`]s,
//!   which EXP-15 cross-checks against the report's own accounting.
//! * Circuit breaker — prefetch warming runs through one shared
//!   [`CircuitBreaker`] over the session's [`FaultPlan`]; an open breaker
//!   fails fast instead of burning the [`RetryPolicy`] budget.
//! * Checkpoint recovery — sessions checkpoint every
//!   [`SupervisorConfig::checkpoint_every`] decisions via
//!   [`GameSession::checkpoint`]; a panicking session restarts from its
//!   last checkpoint with exponential backoff until
//!   [`SupervisorConfig::restart_budget`] runs out.
//! * Durable checkpoints — with [`SupervisorConfig::store`] set, every
//!   checkpoint is also appended to a [`DurableStore`] (canonical
//!   save-game text, checksummed, flushed through the simulated WAL),
//!   so progress survives losing the whole *process*, not just one
//!   session's slot. [`run_supervised_cohort`] hands the store back
//!   for cold-restart recovery via [`DurableStore::recover`] +
//!   [`resume_session`].

use std::collections::VecDeque;
use std::sync::Arc;

use vgbl_obs::hash::{mix, unit};
use vgbl_obs::{
    us_from_ms, AlertTimeline, BudgetLedger, BurnRule, Counter, Gauge, Histogram, Objective, Obs,
    Series, SeriesSpec, SloEvaluator, SpanRecorder,
};
use vgbl_scene::SceneGraph;
use vgbl_stream::{
    BreakerConfig, BreakerStats, ChunkId, CircuitBreaker, FaultPlan, LoadSpike, RetryPolicy,
};
use vgbl_store::{CheckpointRecord, DurableStore, StoreConfig, StoreStats};

use crate::analytics::{LatencySummary, LearningReport, LogEvent, SessionLog};
use crate::bot::{drive, Bot, BotRun};
use crate::engine::{GameSession, SessionConfig};
use crate::error::RuntimeError;
use crate::executor::EventQueue;
use crate::fleet::{advance_segment, make_commit, FleetWorkload, Running, SegEnd};
use crate::save::SaveGame;
use crate::server::{outcome_counts, SessionOutcome};
use crate::Result;

/// Event-type salts keeping the arrival and warm-jitter streams of one
/// seed statistically independent (same scheme as `vgbl_stream::fault`).
const SALT_ARRIVAL: u64 = 0x5000_0005;
const SALT_WARM_JITTER: u64 = 0x6000_0006;

/// Ceiling on any single restart backoff, ms (~31 simulated years).
/// Doubling backoff overflows `f64` past ~2^1024; an INF backoff would
/// poison every later timestamp on the simulated clock (INF - INF =
/// NaN), so the doubling saturates here instead — the same overflow
/// class PR 8 fixed in the clock conversions.
pub(crate) const MAX_BACKOFF_MS: f64 = 1e15;

/// The doubling restart backoff for restart number `restarts` (1-based),
/// saturated at [`MAX_BACKOFF_MS`]. The exponent is clamped before
/// `powi` so even a `u32::MAX` restart budget stays finite.
pub(crate) fn restart_backoff(base_ms: f64, restarts: u32) -> f64 {
    // 2^1023 is the largest finite power of two; keeping powi itself
    // finite means a zero base stays exactly zero (0 × INF is NaN).
    let exp = restarts.saturating_sub(1).min(1_023) as i32;
    (base_ms * 2f64.powi(exp)).min(MAX_BACKOFF_MS)
}

/// A deterministic session-arrival process: exponential inter-arrival
/// gaps around a mean, hashed from a seed, optionally compressed inside
/// a [`LoadSpike`] window (a spike factor of 4 quadruples the arrival
/// rate while the window is open).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalPlan {
    seed: u64,
    mean_gap_ms: f64,
    spike: Option<LoadSpike>,
}

impl ArrivalPlan {
    /// A plan with exponential gaps averaging `mean_gap_ms`.
    ///
    /// # Errors
    /// [`RuntimeError::InvalidSupervisor`] when `mean_gap_ms` is not a
    /// positive finite number.
    pub fn new(seed: u64, mean_gap_ms: f64) -> Result<ArrivalPlan> {
        if !mean_gap_ms.is_finite() || mean_gap_ms <= 0.0 {
            return Err(RuntimeError::InvalidSupervisor(
                "mean arrival gap must be positive and finite".into(),
            ));
        }
        Ok(ArrivalPlan { seed, mean_gap_ms, spike: None })
    }

    /// Compresses arrivals inside the spike window by its factor.
    #[must_use]
    pub fn with_spike(mut self, spike: LoadSpike) -> ArrivalPlan {
        self.spike = Some(spike);
        self
    }

    /// The first `n` arrival times in ms, strictly non-decreasing.
    /// Deterministic in `(seed, mean_gap_ms, spike, n)`.
    pub fn arrival_times(&self, n: usize) -> Vec<f64> {
        let mut t = 0.0f64;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let u = unit(mix(self.seed ^ SALT_ARRIVAL ^ mix(i as u64)));
            // Inverse-CDF exponential draw; u < 1 keeps it finite.
            let gap = self.mean_gap_ms * -(1.0 - u).ln();
            let factor = self.spike.as_ref().map_or(1.0, |s| s.factor_at(t));
            t += gap / factor;
            out.push(t);
        }
        out
    }
}

/// The degradation ladder: what level of service an admitted session
/// gets, chosen from queue occupancy at admission time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceMode {
    /// Full service: prefetch warming plus full-quality playback.
    Full,
    /// Skip prefetch warming; playback still runs at full quality.
    SkipWarm,
    /// Concealment-only playback at half the per-step service cost —
    /// the cheapest way to keep serving rather than shedding.
    ConcealOnly,
}

impl ServiceMode {
    /// Simulated service cost of one decision step in this mode:
    /// concealment serves at half of `step_ms`.
    pub(crate) fn step_cost(self, step_ms: f64) -> f64 {
        if self == ServiceMode::ConcealOnly {
            step_ms * 0.5
        } else {
            step_ms
        }
    }
}

/// How the degradation ladder picks a [`ServiceMode`] at admission.
#[derive(Debug, Clone, PartialEq)]
pub enum LadderPolicy {
    /// Threshold instantaneous queue occupancy against
    /// [`SupervisorConfig::degrade_at`] / [`SupervisorConfig::conceal_at`]
    /// (the PR-4 behaviour, and the default).
    Occupancy,
    /// Threshold the worst current SLO burn rate: degrade at
    /// [`SloLadderConfig::degrade_burn`], conceal at
    /// [`SloLadderConfig::conceal_burn`]. Reacts to user-visible health
    /// (waits over target, sheds) instead of raw queue depth, and the
    /// burn windows give it memory: service stays cheap while the long
    /// window still sees the incident, so slots drain faster and fewer
    /// arrivals meet a full queue.
    SloDriven(SloLadderConfig),
}

/// Tuning of [`LadderPolicy::SloDriven`] — and of the SLO telemetry
/// every run produces regardless of policy. All clocks simulated ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloLadderConfig {
    /// Error budget for the shed-rate objective (fraction of arrivals
    /// that may be shed; the ISSUE's `shed_rate < 0.5%` is 0.005).
    pub shed_budget: f64,
    /// Queue waits above this are bad events for the admission-wait
    /// objective.
    pub wait_target_ms: f64,
    /// Error budget for the admission-wait objective (fraction of served
    /// sessions that may wait beyond target).
    pub wait_budget: f64,
    /// Short burn window ("is it still happening?").
    pub short_ms: f64,
    /// Long burn window ("is it sustained?"). The alert rules also use
    /// `4 × long_ms` as their slow window.
    pub long_ms: f64,
    /// Worst burn rate at which warming is skipped.
    pub degrade_burn: f64,
    /// Worst burn rate at which playback degrades to concealment-only.
    pub conceal_burn: f64,
}

impl Default for SloLadderConfig {
    fn default() -> SloLadderConfig {
        SloLadderConfig {
            shed_budget: 0.005,
            wait_target_ms: 500.0,
            wait_budget: 0.05,
            short_ms: 500.0,
            long_ms: 5_000.0,
            degrade_burn: 1.0,
            conceal_burn: 4.0,
        }
    }
}

impl SloLadderConfig {
    fn validate(&self) -> Result<()> {
        let bad = |msg: &str| RuntimeError::InvalidSupervisor(msg.into());
        for (name, v) in [("shed_budget", self.shed_budget), ("wait_budget", self.wait_budget)] {
            if !v.is_finite() || v <= 0.0 || v > 1.0 {
                return Err(bad(&format!("{name} must be in (0, 1]")));
            }
        }
        for (name, v) in [
            ("wait_target_ms", self.wait_target_ms),
            ("short_ms", self.short_ms),
            ("long_ms", self.long_ms),
            ("degrade_burn", self.degrade_burn),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(bad(&format!("{name} must be positive and finite")));
            }
        }
        if self.long_ms < self.short_ms {
            return Err(bad("long_ms must not be below short_ms"));
        }
        if !self.conceal_burn.is_finite() || self.conceal_burn < self.degrade_burn {
            return Err(bad("conceal_burn must not be below degrade_burn"));
        }
        Ok(())
    }
}

/// Tuning of the supervised server. All clocks are simulated ms.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Bounded admission-queue capacity; arrivals past it are shed.
    pub queue_capacity: usize,
    /// A queued session waiting longer than this is shed when a slot
    /// would pick it up (its player has long since given up).
    pub queue_deadline_ms: f64,
    /// Concurrent service slots (simulated workers).
    pub slots: usize,
    /// Occupancy fraction at which warming is skipped ([`ServiceMode::SkipWarm`]).
    pub degrade_at: f64,
    /// Occupancy fraction at which playback degrades to concealment-only.
    pub conceal_at: f64,
    /// Checkpoint every this many decisions (at least 1). The fleet
    /// also uses it as its segment length: sessions migrate, and
    /// synthetic sessions advance, at these boundaries.
    pub checkpoint_every: usize,
    /// Restarts allowed per session before giving up.
    pub restart_budget: u32,
    /// Backoff before the first restart; doubles per further restart.
    pub restart_backoff_ms: f64,
    /// Prefetch-warming fetches per full-service session.
    pub warm_fetches: u32,
    /// Cost of one delivered warm fetch, ms.
    pub warm_fetch_ms: f64,
    /// Service cost per decision step, ms (halved under concealment).
    pub step_ms: f64,
    /// Decision budget per session (as in [`crate::bot::run_session`]).
    pub max_steps: usize,
    /// Clock tick injected after each decision, ms of game time.
    pub tick_ms: u64,
    /// Fault schedule the warm fetches run against.
    pub warm_faults: FaultPlan,
    /// Retry policy for warm fetches (deadlines burn simulated time).
    pub retry: RetryPolicy,
    /// Circuit breaker over the warm-fetch link, shared by all sessions.
    pub breaker: BreakerConfig,
    /// How the degradation ladder picks the service mode.
    pub ladder: LadderPolicy,
    /// Durable checkpoint store; `None` keeps checkpoints in process
    /// memory only (the pre-PR-9 behaviour).
    pub store: Option<StoreConfig>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            queue_capacity: 8,
            queue_deadline_ms: 5_000.0,
            slots: 2,
            degrade_at: 0.5,
            conceal_at: 0.85,
            checkpoint_every: 5,
            restart_budget: 2,
            restart_backoff_ms: 250.0,
            warm_fetches: 4,
            warm_fetch_ms: 10.0,
            step_ms: 25.0,
            max_steps: 100,
            tick_ms: 50,
            warm_faults: FaultPlan::new(0x00C0_FFEE),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            ladder: LadderPolicy::Occupancy,
            store: None,
        }
    }
}

impl SupervisorConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        let bad = |msg: &str| RuntimeError::InvalidSupervisor(msg.into());
        if self.queue_capacity == 0 {
            return Err(bad("queue capacity must be at least 1"));
        }
        if self.slots == 0 {
            return Err(bad("at least one service slot is required"));
        }
        if !self.queue_deadline_ms.is_finite() || self.queue_deadline_ms <= 0.0 {
            return Err(bad("queue deadline must be positive and finite"));
        }
        for (name, v) in [("degrade_at", self.degrade_at), ("conceal_at", self.conceal_at)] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(bad(&format!("{name} must be in [0, 1]")));
            }
        }
        if self.conceal_at < self.degrade_at {
            return Err(bad("conceal_at must not be below degrade_at"));
        }
        if !self.restart_backoff_ms.is_finite() || self.restart_backoff_ms < 0.0 {
            return Err(bad("restart backoff must be non-negative and finite"));
        }
        if !self.warm_fetch_ms.is_finite() || self.warm_fetch_ms < 0.0 {
            return Err(bad("warm fetch cost must be non-negative and finite"));
        }
        if !self.step_ms.is_finite() || self.step_ms <= 0.0 {
            return Err(bad("step cost must be positive and finite"));
        }
        if self.max_steps == 0 {
            return Err(bad("the step budget must be at least 1"));
        }
        if self.checkpoint_every == 0 {
            return Err(bad("checkpoint_every must be at least 1"));
        }
        if let LadderPolicy::SloDriven(slo) = &self.ladder {
            slo.validate()?;
        }
        self.retry.validate().map_err(|e| bad(&e.to_string()))?;
        self.breaker.validate().map_err(|e| bad(&e.to_string()))?;
        Ok(())
    }

    /// The SLO telemetry shape this run evaluates with: the ladder's own
    /// config under [`LadderPolicy::SloDriven`], the defaults otherwise
    /// (occupancy runs still report alerts and ledgers, so the two
    /// policies stay comparable in EXP-15).
    pub(crate) fn slo_config(&self) -> SloLadderConfig {
        match &self.ladder {
            LadderPolicy::SloDriven(slo) => *slo,
            LadderPolicy::Occupancy => SloLadderConfig::default(),
        }
    }
}

/// What the supervisor runs per admitted session: a factory producing a
/// bot for session `i`, incarnation `r` (0 on first start, `k` after the
/// `k`-th restart).
pub type SupervisedBotFactory = dyn Fn(usize, u32) -> Box<dyn Bot>;

/// Flush attempts per durable checkpoint write. A lost flush is
/// detected (the store reports it, like a failed fsync) and retried with
/// a fresh fault draw; past the budget the record stays staged and rides
/// the next checkpoint's flush — never silently acknowledged.
const FLUSH_RETRIES: u32 = 3;

/// Appends `record` and flushes, retrying lost flushes up to
/// [`FLUSH_RETRIES`] times. Returns the record's WAL sequence number
/// when the flush was acknowledged durable, `None` when every attempt
/// was lost (the record stays staged for the next flush). Shared by the
/// supervisor's checkpoint hook and the fleet's segment-boundary commit
/// path.
pub(crate) fn persist_checkpoint(
    store: &mut DurableStore,
    record: &CheckpointRecord,
) -> Option<u64> {
    let seq = store.append(record);
    for _ in 0..=FLUSH_RETRIES {
        if store.flush().is_ok() {
            return Some(seq);
        }
    }
    None
}

/// The audit trail of one recovered session — enough to replay the
/// post-restore tail independently and verify it bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRecord {
    /// Session index within the cohort.
    pub session: usize,
    /// Restarts spent before it completed.
    pub restarts: u32,
    /// The decision step the final restart resumed from.
    pub resumed_at_step: usize,
    /// The restored checkpoint as save-game text; `None` when the crash
    /// preceded the first checkpoint and the restart began from scratch.
    pub checkpoint: Option<String>,
    /// The final incarnation's own log (post-restore events only).
    pub tail: Vec<LogEvent>,
}

/// Aggregated outcome of a supervised cohort run. Derives `PartialEq`
/// so determinism tests can compare whole reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorReport {
    /// Sessions that arrived (admitted + shed).
    pub sessions: usize,
    /// Sessions a slot actually served.
    pub admitted: usize,
    /// Sessions rejected by admission control (queue full or deadline).
    pub shed: usize,
    /// Admitted sessions served below [`ServiceMode::Full`].
    pub degraded: usize,
    /// Sessions that completed without any restart.
    pub completed: usize,
    /// Sessions that completed after at least one checkpoint restart.
    pub recovered: usize,
    /// Sessions that failed with a typed error (never restarted).
    pub failed: usize,
    /// Sessions that exhausted their restart budget.
    pub gave_up: usize,
    /// Total restarts across the cohort.
    pub restarts: u64,
    /// The shared circuit breaker's counters after the run.
    pub breaker: BreakerStats,
    /// Warm fetches attempted (breaker allowed them).
    pub warm_attempted: u64,
    /// Warm fetches skipped because the breaker was open.
    pub warm_skipped: u64,
    /// Deepest the admission queue ever got.
    pub peak_queue_depth: usize,
    /// When the last slot went idle, simulated ms.
    pub makespan_ms: f64,
    /// Queue-wait statistics over served sessions.
    pub queue_wait: LatencySummary,
    /// Restart-backoff statistics over all restarts.
    pub recovery_latency: LatencySummary,
    /// Per-session outcome, indexed by arrival order.
    pub outcomes: Vec<SessionOutcome>,
    /// Learning metrics over completed and recovered sessions.
    pub learning: LearningReport,
    /// Decisions submitted across completed and recovered sessions.
    pub total_steps: usize,
    /// One record per recovered session, in service order.
    pub recoveries: Vec<RecoveryRecord>,
    /// Every alert transition of the run's SLO rules, in tick order —
    /// deterministic, so reruns compare byte-identically.
    pub alerts: AlertTimeline,
    /// Whole-run error-budget ledgers, `shed_rate` first then
    /// `admission_wait`; their `bad`/`total` match this report's own
    /// counts exactly (the EXP-15 cross-check).
    pub ledgers: Vec<BudgetLedger>,
    /// Durable-store counters when [`SupervisorConfig::store`] was set
    /// (appends, acknowledged/lost flushes, snapshots); `None` when
    /// checkpoints stayed in process memory.
    pub durability: Option<StoreStats>,
}

impl SupervisorReport {
    /// The accounting identity every run must satisfy exactly:
    /// `sessions = admitted + shed` and
    /// `admitted = completed + failed + recovered + gave_up`.
    pub fn accounts_exactly(&self) -> bool {
        self.sessions == self.admitted + self.shed
            && self.admitted == self.completed + self.failed + self.recovered + self.gave_up
    }

    /// Count outcome rows of each kind: `(completed, failed, shed,
    /// recovered, gave_up)`. Fleet aggregation sums these across shards,
    /// so they must mirror the scalar counters exactly.
    pub fn outcome_counts(&self) -> (usize, usize, usize, usize, usize) {
        outcome_counts(&self.outcomes)
    }

    /// Debug-build consistency check, asserted at report construction so
    /// fleet aggregation can never silently miscount Shed/Recovered/GaveUp
    /// rows: the accounting identity, outcome-row counts vs the scalar
    /// counters, one [`RecoveryRecord`] per recovered session, and the
    /// shed ledger mirroring `shed`.
    pub(crate) fn debug_assert_consistent(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        debug_assert!(self.accounts_exactly(), "admission accounting must balance: {self:?}");
        debug_assert_eq!(self.outcomes.len(), self.sessions, "one outcome row per arrival");
        let (completed, failed, shed, recovered, gave_up) = self.outcome_counts();
        debug_assert_eq!(completed, self.completed, "Completed rows must match the counter");
        debug_assert_eq!(failed, self.failed, "Failed rows must match the counter");
        debug_assert_eq!(shed, self.shed, "Shed rows must match the counter");
        debug_assert_eq!(recovered, self.recovered, "Recovered rows must match the counter");
        debug_assert_eq!(gave_up, self.gave_up, "GaveUp rows must match the counter");
        debug_assert_eq!(
            self.recoveries.len(),
            self.recovered,
            "one recovery record per recovered session"
        );
        if let Some(ledger) = self.ledgers.first() {
            debug_assert_eq!(ledger.bad as usize, self.shed, "shed ledger must mirror the report");
        }
    }
}

/// Restores a session from `save` and drives `bot` from `start_step`
/// until the step budget, the game's end, or the bot giving up — exactly
/// the loop the supervisor runs after a restart, so a recovered
/// session's [`RecoveryRecord::tail`] can be reproduced independently.
/// The returned [`BotRun::steps`] counts post-restore decisions only.
pub fn resume_session(
    graph: Arc<SceneGraph>,
    config: SessionConfig,
    save: &SaveGame,
    bot: &mut dyn Bot,
    start_step: usize,
    max_steps: usize,
    tick_ms: u64,
) -> Result<BotRun> {
    let mut session = GameSession::restore_checkpoint(graph, config, save)?;
    let steps = drive(&mut session, bot, start_step, max_steps, tick_ms, |_, _| {})?;
    Ok(BotRun::of(&session, steps - start_step))
}

/// Trace-context seed for the standalone supervisor path, which has no
/// fleet router seed to inherit. Fixed so standalone-run checkpoints
/// carry stable, rerun-identical trace identities.
const SUPERVISOR_TRACE_SEED: u64 = 0x10AD_5EED;

/// Warm-phase outcome: where the clock ended up plus fetch accounting.
pub(crate) struct Warmed {
    pub(crate) t: f64,
    pub(crate) attempted: u64,
    pub(crate) skipped: u64,
}

/// Prefetch warming for one full-service session: synthetic chunk
/// fetches against `faults` (the supervisor passes its configured plan;
/// the fleet passes the shard's *current* plan, which a degraded-link
/// fault may have swapped for a lossier one), retried under the policy,
/// gated by the shared breaker. An open breaker fails the whole
/// remaining warm phase fast — the session still plays, just cold.
pub(crate) fn warm_session(
    i: usize,
    start_ms: f64,
    sup: &SupervisorConfig,
    faults: &FaultPlan,
    breaker: &mut CircuitBreaker,
) -> Warmed {
    let mut t = start_ms;
    let (mut attempted, mut skipped) = (0u64, 0u64);
    'fetches: for f in 0..sup.warm_fetches {
        if !breaker.allow(t) {
            skipped += u64::from(sup.warm_fetches - f);
            break;
        }
        attempted += 1;
        let chunk = ChunkId((i as u32).wrapping_mul(131).wrapping_add(f));
        for attempt in 0..=sup.retry.max_retries {
            if attempt > 0 && !breaker.allow(t) {
                skipped += u64::from(sup.warm_fetches - f - 1);
                break 'fetches;
            }
            let fault = faults.chunk_fault_at(chunk, attempt, t);
            if fault.lost {
                let key = ((i as u64) << 24) ^ (u64::from(f) << 8) ^ u64::from(attempt);
                let jitter = unit(mix(faults.seed() ^ SALT_WARM_JITTER ^ mix(key)));
                t += sup.retry.deadline_ms(attempt, jitter);
                breaker.on_failure(t);
            } else if fault.corrupted {
                t += sup.warm_fetch_ms;
                breaker.on_failure(t);
            } else {
                t += sup.warm_fetch_ms;
                breaker.on_success(t);
                break;
            }
        }
    }
    Warmed { t, attempted, skipped }
}

/// Obs handles for the supervisor's metric families.
struct SupObs {
    admitted: Counter,
    shed_full: Counter,
    shed_deadline: Counter,
    degraded: Counter,
    completed: Counter,
    recovered: Counter,
    failed: Counter,
    gave_up: Counter,
    restarts: Counter,
    warm_attempted: Counter,
    warm_skipped: Counter,
    queue_wait_us: Histogram,
    recovery_latency_us: Histogram,
    queue_depth_peak: Gauge,
}

impl SupObs {
    fn new(obs: &Obs) -> SupObs {
        let l: &[(&'static str, &'static str)] = &[("pillar", "runtime")];
        SupObs {
            admitted: obs.counter("supervisor.admitted", l),
            shed_full: obs.counter(
                "supervisor.shed",
                &[("pillar", "runtime"), ("reason", "queue_full")],
            ),
            shed_deadline: obs.counter(
                "supervisor.shed",
                &[("pillar", "runtime"), ("reason", "deadline")],
            ),
            degraded: obs.counter("supervisor.degraded", l),
            completed: obs.counter("supervisor.completed", l),
            recovered: obs.counter("supervisor.recovered", l),
            failed: obs.counter("supervisor.failed", l),
            gave_up: obs.counter("supervisor.gave_up", l),
            restarts: obs.counter("supervisor.restarts", l),
            warm_attempted: obs.counter("supervisor.warm_attempted", l),
            warm_skipped: obs.counter("supervisor.warm_skipped", l),
            queue_wait_us: obs.histogram("supervisor.queue_wait_us", l),
            recovery_latency_us: obs.histogram("supervisor.recovery_latency_us", l),
            queue_depth_peak: obs.gauge("supervisor.queue_depth_peak", l),
        }
    }
}

/// The supervisor's SLO telemetry: standalone control series (live even
/// under [`Obs::noop`], because the SLO-driven ladder reads them) plus
/// registry-tapped mirrors for export, and the evaluator that turns
/// them into the alert timeline. The fleet reuses it per shard and once
/// fleet-wide, with a noop obs: its control series never hit the
/// registry, and its alerts reach the caller through the report.
pub(crate) struct SupSlo {
    cfg: SloLadderConfig,
    /// Arrivals (all of them, shed included) — the shed objective's
    /// denominator.
    arrivals: Series,
    /// Shed events (queue-full and deadline).
    sheds: Series,
    /// Served sessions whose wait exceeded the target.
    wait_bad: Series,
    /// All served sessions — the wait objective's denominator.
    wait_all: Series,
    /// Export taps into the obs series registry (noop when obs is).
    arrivals_tap: Series,
    sheds_tap: Series,
    wait_tap: Series,
    eval: SloEvaluator,
}

impl SupSlo {
    pub(crate) fn new(obs: &Obs, cfg: SloLadderConfig) -> SupSlo {
        // Bins at a quarter of the short window give the burn queries
        // sub-window resolution; the ring retains the slow rules' 4×long
        // window with slack.
        let bin_us = (us_from_ms(cfg.short_ms) / 4).max(1);
        let long_us = us_from_ms(cfg.long_ms).max(1);
        let bins = ((4 * long_us).div_ceil(bin_us) as usize + 2).min(8_192);
        let mk = |name| Series::standalone(SeriesSpec::counter(name, bin_us, bins));
        let (arrivals, sheds) = (mk("arrivals"), mk("sheds"));
        let (wait_bad, wait_all) = (mk("wait_bad"), mk("wait_all"));
        let rules = |short_us: u64| {
            vec![
                BurnRule {
                    label: "fast",
                    long_us,
                    short_us,
                    burn: cfg.conceal_burn,
                    pending_us: 0,
                },
                BurnRule {
                    label: "slow",
                    long_us: 4 * long_us,
                    short_us: long_us,
                    burn: cfg.degrade_burn,
                    pending_us: 0,
                },
            ]
        };
        let short_us = us_from_ms(cfg.short_ms).max(1);
        let mut eval = SloEvaluator::new();
        eval.add(Objective::event_ratio(
            "shed_rate",
            cfg.shed_budget,
            sheds.clone(),
            arrivals.clone(),
            rules(short_us),
        ));
        eval.add(Objective::event_ratio(
            "admission_wait",
            cfg.wait_budget,
            wait_bad.clone(),
            wait_all.clone(),
            rules(short_us),
        ));
        SupSlo {
            cfg,
            arrivals,
            sheds,
            wait_bad,
            wait_all,
            arrivals_tap: obs.series(SeriesSpec::counter("supervisor.arrivals", bin_us, bins)),
            sheds_tap: obs.series(SeriesSpec::counter("supervisor.shed", bin_us, bins)),
            wait_tap: obs.series(SeriesSpec::histogram("supervisor.queue_wait_us", bin_us, bins)),
            eval,
        }
    }

    /// Records an arrival at `t_ms` and evaluates the alert rules — the
    /// supervisor's evaluation tick is the arrival itself.
    pub(crate) fn on_arrival(&mut self, t_ms: f64) {
        let t = us_from_ms(t_ms);
        self.arrivals.record(t, 1);
        self.arrivals_tap.record(t, 1);
        self.eval.tick(t);
    }

    /// Records a shed (queue-full or deadline) at `t_ms`.
    pub(crate) fn on_shed(&mut self, t_ms: f64) {
        let t = us_from_ms(t_ms);
        self.sheds.record(t, 1);
        self.sheds_tap.record(t, 1);
    }

    /// Records a served session's queue wait, stamped at pickup time.
    pub(crate) fn on_wait(&mut self, pickup_ms: f64, wait_ms: f64) {
        let t = us_from_ms(pickup_ms);
        self.wait_all.record(t, 1);
        if wait_ms > self.cfg.wait_target_ms {
            self.wait_bad.record(t, 1);
        }
        self.wait_tap.record(t, us_from_ms(wait_ms));
    }

    /// Worst burn rate across both objectives and both ladder windows at
    /// `t_ms` — what [`LadderPolicy::SloDriven`] thresholds.
    pub(crate) fn worst_burn(&self, t_ms: f64) -> f64 {
        let t = us_from_ms(t_ms);
        let short_us = us_from_ms(self.cfg.short_ms).max(1);
        let long_us = us_from_ms(self.cfg.long_ms).max(1);
        let mut burn = 0.0f64;
        for obj in self.eval.objectives() {
            burn = burn.max(obj.burn_over(t, short_us)).max(obj.burn_over(t, long_us));
        }
        burn
    }

    /// The admission ladder shared by the supervisor and every fleet
    /// shard: the mode for a session arriving at `t_ms` behind `queued`
    /// others. [`LadderPolicy::Occupancy`] thresholds queue occupancy
    /// (counting the arrival itself) against `cfg.degrade_at` /
    /// `cfg.conceal_at`; [`LadderPolicy::SloDriven`] thresholds the
    /// worst current burn rate.
    pub(crate) fn admission_mode(
        &self,
        cfg: &SupervisorConfig,
        queued: usize,
        t_ms: f64,
    ) -> ServiceMode {
        let (level, degrade, conceal) = match &cfg.ladder {
            LadderPolicy::Occupancy => {
                ((queued + 1) as f64 / cfg.queue_capacity as f64, cfg.degrade_at, cfg.conceal_at)
            }
            LadderPolicy::SloDriven(_) => {
                (self.worst_burn(t_ms), self.cfg.degrade_burn, self.cfg.conceal_burn)
            }
        };
        if level >= conceal {
            ServiceMode::ConcealOnly
        } else if level >= degrade {
            ServiceMode::SkipWarm
        } else {
            ServiceMode::Full
        }
    }

    /// Final tick at makespan (resolves anything still pending/firing
    /// into the timeline deterministically), then timeline + ledgers.
    pub(crate) fn finish(mut self, makespan_ms: f64) -> (AlertTimeline, Vec<BudgetLedger>) {
        let end = us_from_ms(makespan_ms);
        self.eval.tick(end);
        let ledgers = self.eval.ledgers(end);
        (self.eval.into_timeline(), ledgers)
    }
}

/// One entry of the bounded admission queue.
#[derive(Debug, Clone)]
struct Queued {
    idx: usize,
    arrival_ms: f64,
    mode: ServiceMode,
}

/// The single-threaded discrete-event state of one supervised run.
struct Sim<'a> {
    workload: FleetWorkload<'a>,
    sup: &'a SupervisorConfig,
    breaker: CircuitBreaker,
    queue: VecDeque<Queued>,
    /// Free-at time per slot, mirrored for makespan reporting; the
    /// scheduling decision itself comes from `slot_q`.
    slots: Vec<f64>,
    /// Slots ordered by `(free_at, slot index)` — popping the head is
    /// exactly the strict-argmin-lowest-index scan the supervisor
    /// originally did, so replays stay byte-identical.
    slot_q: EventQueue<f64, usize>,
    outcomes: Vec<Option<SessionOutcome>>,
    queue_waits: Vec<f64>,
    recovery_lat: Vec<f64>,
    peak_depth: usize,
    admitted: usize,
    shed: usize,
    degraded: usize,
    completed: usize,
    recovered: usize,
    failed: usize,
    gave_up: usize,
    restarts_total: u64,
    warm_attempted: u64,
    warm_skipped: u64,
    session_logs: Vec<(SessionLog, i64)>,
    recoveries: Vec<RecoveryRecord>,
    total_steps: usize,
    durable: Option<DurableStore>,
    o: SupObs,
    slo: SupSlo,
    rec: SpanRecorder,
}

impl Sim<'_> {
    /// Serves queued sessions as slots free up, through simulated time
    /// `until`. A head whose wait exceeded the deadline is shed without
    /// consuming the slot.
    fn drain(&mut self, until: f64) {
        while let Some(head) = self.queue.front().cloned() {
            // The queue head is keyed `(free_at, slot index)`, so the
            // soonest-free slot — lowest index on ties — is one peek.
            let (free, slot_idx) =
                match self.slot_q.peek() {
                    Some((free, &slot_idx)) => (free, slot_idx),
                    None => break,
                };
            let start = free.max(head.arrival_ms);
            if start > until {
                break;
            }
            self.queue.pop_front();
            let wait = start - head.arrival_ms;
            if wait > self.sup.queue_deadline_ms {
                // Shed without consuming the slot: it stays queued at
                // the same free-at time for the next head.
                self.outcomes[head.idx] =
                    Some(SessionOutcome::Shed { reason: "queue deadline exceeded".into() });
                self.shed += 1;
                self.o.shed_deadline.inc();
                self.slo.on_shed(start);
                self.rec.event("shed", head.idx as u64, us_from_ms(start));
                continue;
            }
            self.queue_waits.push(wait);
            self.o.queue_wait_us.record(us_from_ms(wait));
            self.slo.on_wait(start, wait);
            self.slot_q.pop();
            let end = self.serve(head, start);
            self.slots[slot_idx] = end;
            self.slot_q.push_keyed(end, 0, slot_idx as u64, slot_idx);
        }
    }

    /// Serves one session from `start`; returns when the slot frees.
    fn serve(&mut self, q: Queued, start: f64) -> f64 {
        self.admitted += 1;
        self.o.admitted.inc();
        self.rec.event("admit", q.idx as u64, us_from_ms(start));
        let mut t = start;
        if q.mode == ServiceMode::Full {
            let w = warm_session(q.idx, t, self.sup, &self.sup.warm_faults, &mut self.breaker);
            t = w.t;
            self.warm_attempted += w.attempted;
            self.warm_skipped += w.skipped;
            self.o.warm_attempted.add(w.attempted);
            self.o.warm_skipped.add(w.skipped);
        } else {
            self.degraded += 1;
            self.o.degraded.inc();
        }
        let (r, end, resumed_from) = self.play(q.idx, q.mode);
        let step_cost = q.mode.step_cost(self.sup.step_ms);
        // A finished session is charged each step it reached once;
        // work redone after a restart is not charged again.
        let outcome = match end {
            SegEnd::Finished => {
                let er = r.engine.as_ref().expect("a finished session keeps its engine");
                t += er.steps as f64 * step_cost;
                self.total_steps += er.steps;
                if r.restarts == 0 {
                    self.completed += 1;
                    self.o.completed.inc();
                    SessionOutcome::Completed
                } else {
                    self.recovered += 1;
                    self.o.recovered.inc();
                    self.recoveries.push(RecoveryRecord {
                        session: q.idx,
                        restarts: r.restarts,
                        resumed_at_step: r.resumed_at_step,
                        checkpoint: resumed_from,
                        tail: er.session.log().events().to_vec(),
                    });
                    SessionOutcome::Recovered {
                        resumed_at_step: r.resumed_at_step,
                        restarts: r.restarts,
                    }
                }
            }
            SegEnd::Failed { reason } => {
                self.failed += 1;
                self.o.failed.inc();
                SessionOutcome::Failed { reason }
            }
            SegEnd::GaveUp { restarts, reason } => {
                self.gave_up += 1;
                self.o.gave_up.inc();
                SessionOutcome::GaveUp { restarts, reason }
            }
            SegEnd::Boundary => unreachable!("play runs to a terminal end"),
        };
        for k in 1..=r.restarts {
            let backoff = restart_backoff(self.sup.restart_backoff_ms, k);
            t += backoff;
            self.recovery_lat.push(backoff);
            self.o.recovery_latency_us.record(us_from_ms(backoff));
            self.o.restarts.inc();
            self.restarts_total += 1;
            self.rec.event("restart", q.idx as u64, us_from_ms(t));
        }
        self.outcomes[q.idx] = Some(outcome);
        self.rec.event("done", q.idx as u64, us_from_ms(t));
        t
    }

    /// Plays session `id` to its end: the fleet's segment runner, looped
    /// until it returns a terminal [`SegEnd`], committing at every
    /// boundary. A finished session's log across incarnations goes to
    /// the learning report. Returns the session, how it ended, and the
    /// text of the checkpoint its last restart resumed from.
    fn play(&mut self, id: usize, mode: ServiceMode) -> (Running, SegEnd, Option<String>) {
        let mut r = Running::fresh(id, mode);
        let mut resumed_from = None;
        // The log up to the latest boundary, and how many of the current
        // incarnation's events it holds.
        let mut log = SessionLog::new();
        let mut logged = 0;
        loop {
            let restarts = r.restarts;
            let (_, end) = advance_segment(self.sup, &self.workload, &mut r);
            if r.restarts != restarts {
                resumed_from =
                    r.committed.as_ref().map(|c| String::from_utf8_lossy(&c.payload).into_owned());
                logged = 0;
            }
            if let (SegEnd::Boundary | SegEnd::Finished, Some(er)) = (&end, &r.engine) {
                let events = er.session.log().events();
                for e in &events[logged..] {
                    log.push(e.clone());
                }
                logged = events.len();
            }
            match end {
                SegEnd::Boundary => self.commit(&mut r),
                SegEnd::Finished => {
                    // Unlike a fleet shard, which hands sessions off at
                    // boundaries, the supervisor also checkpoints one
                    // that runs out of steps unfinished on a boundary.
                    let er = r.engine.as_ref().expect("a finished session keeps its engine");
                    let score = er.session.state().score;
                    if er.steps == self.sup.max_steps
                        && er.steps.is_multiple_of(self.sup.checkpoint_every)
                        && !er.session.state().is_over()
                    {
                        self.commit(&mut r);
                    }
                    self.session_logs.push((log, score));
                    return (r, SegEnd::Finished, resumed_from);
                }
                end => return (r, end, resumed_from),
            }
        }
    }

    /// Commits `r` at its boundary. With a store set the commit carries
    /// its causal stamp and is made durable.
    fn commit(&mut self, r: &mut Running) {
        r.committed = Some(make_commit(SUPERVISOR_TRACE_SEED, self.sup, r, self.durable.is_some()));
        if let Some(d) = self.durable.as_mut() {
            // Flushed as soon as it is taken: a later panic or a
            // whole-process loss cannot undo it.
            persist_checkpoint(d, r.committed.as_ref().expect("just committed"));
        }
    }
}

/// Runs `n_sessions` sessions arriving per `arrivals` through the
/// supervised server: bounded admission, the degradation ladder, the
/// shared warm-fetch breaker, and checkpoint-based crash recovery.
///
/// Fully deterministic: identical inputs produce identical
/// [`SupervisorReport`]s, field for field.
///
/// Every admission event increments a `supervisor.*` counter in `obs`,
/// queue waits and recovery latencies flow into histograms, peak queue
/// depth into a gauge, and the whole run exports one trace labelled
/// `label` of `admit`/`shed`/`restart`/`done` events on the simulated
/// clock.
///
/// The durable checkpoint store comes back alongside the report when
/// [`SupervisorConfig::store`] is set — the single-node cold-restart
/// path: feed it to [`DurableStore::recover`] and resume each surviving
/// session with [`resume_session`].
///
/// # Errors
/// [`RuntimeError::InvalidSupervisor`] when `sup` fails validation;
/// per-session problems never fail the cohort.
#[allow(clippy::too_many_arguments)]
pub fn run_supervised_cohort(
    graph: Arc<SceneGraph>,
    config: SessionConfig,
    sup: &SupervisorConfig,
    n_sessions: usize,
    factory: &SupervisedBotFactory,
    arrivals: &ArrivalPlan,
    obs: &Obs,
    label: &str,
) -> Result<(SupervisorReport, Option<DurableStore>)> {
    sup.validate()?;
    let breaker = CircuitBreaker::new(sup.breaker).expect("validated breaker config");
    let times = arrivals.arrival_times(n_sessions);
    let mut rec = obs.recorder(label.to_owned());
    rec.enter("supervisor", 0);
    let mut sim = Sim {
        workload: FleetWorkload::Engine { graph, config, factory },
        sup,
        breaker,
        queue: VecDeque::new(),
        slots: vec![0.0; sup.slots],
        slot_q: {
            let mut q = EventQueue::new();
            for k in 0..sup.slots {
                q.push_keyed(0.0, 0, k as u64, k);
            }
            q
        },
        outcomes: (0..n_sessions).map(|_| None).collect(),
        queue_waits: Vec::new(),
        recovery_lat: Vec::new(),
        peak_depth: 0,
        admitted: 0,
        shed: 0,
        degraded: 0,
        completed: 0,
        recovered: 0,
        failed: 0,
        gave_up: 0,
        restarts_total: 0,
        warm_attempted: 0,
        warm_skipped: 0,
        session_logs: Vec::new(),
        recoveries: Vec::new(),
        total_steps: 0,
        durable: sup.store.map(DurableStore::new),
        o: SupObs::new(obs),
        slo: SupSlo::new(obs, sup.slo_config()),
        rec,
    };

    for (i, &t) in times.iter().enumerate() {
        sim.drain(t);
        sim.slo.on_arrival(t);
        if sim.queue.len() >= sup.queue_capacity {
            sim.outcomes[i] = Some(SessionOutcome::Shed { reason: "queue full".into() });
            sim.shed += 1;
            sim.o.shed_full.inc();
            sim.slo.on_shed(t);
            sim.rec.event("shed", i as u64, us_from_ms(t));
            continue;
        }
        let mode = sim.slo.admission_mode(sup, sim.queue.len(), t);
        sim.queue.push_back(Queued { idx: i, arrival_ms: t, mode });
        sim.peak_depth = sim.peak_depth.max(sim.queue.len());
    }
    sim.drain(f64::INFINITY);

    let makespan_ms = sim
        .slots
        .iter()
        .copied()
        .chain(times.last().copied())
        .fold(0.0f64, f64::max);
    sim.o.queue_depth_peak.observe(sim.peak_depth as u64);
    sim.rec.exit(us_from_ms(makespan_ms));
    let Sim {
        breaker,
        outcomes,
        queue_waits,
        recovery_lat,
        peak_depth,
        admitted,
        shed,
        degraded,
        completed,
        recovered,
        failed,
        gave_up,
        restarts_total,
        warm_attempted,
        warm_skipped,
        session_logs,
        recoveries,
        total_steps,
        durable,
        slo,
        rec,
        ..
    } = sim;
    obs.attach(rec);
    let (alerts, ledgers) = slo.finish(makespan_ms);

    let outcomes: Vec<SessionOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every arrival is admitted or shed"))
        .collect();
    let learning = LearningReport::from_sessions(session_logs.iter().map(|(l, s)| (l, *s)));
    let report = SupervisorReport {
        sessions: n_sessions,
        admitted,
        shed,
        degraded,
        completed,
        recovered,
        failed,
        gave_up,
        restarts: restarts_total,
        breaker: breaker.stats(),
        warm_attempted,
        warm_skipped,
        peak_queue_depth: peak_depth,
        makespan_ms,
        queue_wait: LatencySummary::from_samples_ms(&queue_waits),
        recovery_latency: LatencySummary::from_samples_ms(&recovery_lat),
        outcomes,
        learning,
        total_steps,
        recoveries,
        alerts,
        ledgers,
        durability: durable.as_ref().map(|d| d.stats()),
    };
    report.debug_assert_consistent();
    Ok((report, durable))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bot::GuidedBot;
    use crate::fixtures::{fix_the_computer, FRAME};
    use crate::input::InputEvent;

    fn config() -> SessionConfig {
        SessionConfig::for_frame(FRAME.0, FRAME.1)
    }

    /// Regression (overflow audit, PR 9): the doubling restart backoff
    /// used to compute `base * 2^(restarts-1)` unclamped — past restart
    /// ~1075 the product overflows f64 to +inf and every later
    /// timestamp on the simulated clock is poisoned (INF − INF = NaN).
    /// Both the supervisor and the fleet share the saturating helper.
    #[test]
    fn restart_backoff_saturates_instead_of_overflowing() {
        assert_eq!(restart_backoff(250.0, 1), 250.0);
        assert_eq!(restart_backoff(250.0, 2), 500.0);
        assert_eq!(restart_backoff(250.0, 3), 1000.0);
        let mut prev = 0.0;
        for restarts in [1, 10, 100, 1_075, 2_000, u32::MAX] {
            let b = restart_backoff(250.0, restarts);
            assert!(b.is_finite(), "restart {restarts} gave {b}");
            assert!(b <= MAX_BACKOFF_MS);
            assert!(b >= prev, "backoff shrank at restart {restarts}");
            prev = b;
        }
        assert_eq!(restart_backoff(250.0, u32::MAX), MAX_BACKOFF_MS);
        // A zero base never backs off, at any restart count.
        assert_eq!(restart_backoff(0.0, u32::MAX), 0.0);
    }

    /// Panics after `at` decisions, but only on incarnation 0 — the
    /// transient crash the supervisor exists to absorb.
    struct CrashOnce {
        inner: GuidedBot,
        at: usize,
        seen: usize,
    }

    impl Bot for CrashOnce {
        fn next_input(&mut self, session: &GameSession) -> Result<Option<InputEvent>> {
            self.seen += 1;
            if self.seen > self.at {
                panic!("injected transient crash");
            }
            self.inner.next_input(session)
        }
    }

    fn quiet<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn arrival_plan_is_deterministic_and_spike_compresses_gaps() {
        let plan = ArrivalPlan::new(7, 100.0).unwrap();
        let a = plan.arrival_times(50);
        let b = plan.arrival_times(50);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
        assert!(a[49] > 0.0);
        // A 4x spike over the whole horizon packs the same arrivals into
        // roughly a quarter of the time.
        let spiked = plan.with_spike(LoadSpike::new(0.0, 1e9, 4.0).unwrap());
        let s = spiked.arrival_times(50);
        assert!(s[49] < a[49] / 2.0, "spiked {} vs base {}", s[49], a[49]);
        assert!(ArrivalPlan::new(7, 0.0).is_err());
        assert!(ArrivalPlan::new(7, f64::NAN).is_err());
    }

    #[test]
    fn light_load_admits_everyone_at_full_service() {
        let sup = SupervisorConfig {
            queue_capacity: 16,
            slots: 4,
            ..SupervisorConfig::default()
        };
        let arrivals = ArrivalPlan::new(1, 10_000.0).unwrap();
        let report = run_supervised_cohort(
            Arc::new(fix_the_computer()),
            config(),
            &sup,
            8,
            &|_, _| Box::new(GuidedBot::new()),
            &arrivals,
            &Obs::noop(),
            "",
        )
        .unwrap()
        .0;
        assert!(report.accounts_exactly(), "{report:?}");
        assert_eq!(report.admitted, 8);
        assert_eq!(report.shed, 0);
        assert_eq!(report.completed, 8);
        assert_eq!(report.degraded, 0, "light load never degrades");
        assert_eq!(report.learning.completed, 8);
        assert!(report.total_steps > 0);
        // Arrivals 10s apart on 4 slots never queue behind each other.
        assert_eq!(report.queue_wait.max_ms, 0.0);
    }

    #[test]
    fn overload_sheds_and_degrades_instead_of_growing_unboundedly() {
        let sup = SupervisorConfig {
            queue_capacity: 3,
            slots: 1,
            queue_deadline_ms: 10_000.0,
            step_ms: 100.0,
            ..SupervisorConfig::default()
        };
        // A stampede: everyone arrives ~1 ms apart.
        let arrivals = ArrivalPlan::new(2, 1.0).unwrap();
        let report = run_supervised_cohort(
            Arc::new(fix_the_computer()),
            config(),
            &sup,
            32,
            &|_, _| Box::new(GuidedBot::new()),
            &arrivals,
            &Obs::noop(),
            "",
        )
        .unwrap()
        .0;
        assert!(report.accounts_exactly(), "{report:?}");
        assert!(report.shed > 0, "overload must shed: {report:?}");
        assert!(report.degraded > 0, "overload must degrade before shedding");
        assert!(
            report.peak_queue_depth <= sup.queue_capacity,
            "the queue is bounded: {} > {}",
            report.peak_queue_depth,
            sup.queue_capacity
        );
        assert!(report.completed + report.recovered > 0, "someone still gets served");
        let shed_rows = report.outcomes.iter().filter(|o| o.is_shed()).count();
        assert_eq!(shed_rows, report.shed);
    }

    #[test]
    fn stale_queued_sessions_are_shed_at_the_deadline() {
        let sup = SupervisorConfig {
            queue_capacity: 8,
            slots: 1,
            queue_deadline_ms: 50.0,
            step_ms: 100.0,
            ..SupervisorConfig::default()
        };
        let arrivals = ArrivalPlan::new(3, 1.0).unwrap();
        let report = run_supervised_cohort(
            Arc::new(fix_the_computer()),
            config(),
            &sup,
            8,
            &|_, _| Box::new(GuidedBot::new()),
            &arrivals,
            &Obs::noop(),
            "",
        )
        .unwrap()
        .0;
        assert!(report.accounts_exactly());
        assert!(
            report
                .outcomes
                .iter()
                .any(|o| matches!(o, SessionOutcome::Shed { reason } if reason.contains("deadline"))),
            "{:?}",
            report.outcomes
        );
        // Served sessions all waited within the deadline.
        assert!(report.queue_wait.max_ms <= sup.queue_deadline_ms);
    }

    #[test]
    fn crashed_session_recovers_from_checkpoint_with_identical_tail() {
        let factory = |i: usize, incarnation: u32| -> Box<dyn Bot> {
            if i == 1 && incarnation == 0 {
                Box::new(CrashOnce { inner: GuidedBot::new(), at: 7, seen: 0 })
            } else {
                Box::new(GuidedBot::new())
            }
        };
        let sup = SupervisorConfig {
            queue_capacity: 16,
            slots: 2,
            checkpoint_every: 5,
            restart_budget: 2,
            ..SupervisorConfig::default()
        };
        let arrivals = ArrivalPlan::new(4, 10_000.0).unwrap();
        let graph = Arc::new(fix_the_computer());
        let report = quiet(|| {
            let obs = Obs::noop();
            run_supervised_cohort(graph.clone(), config(), &sup, 4, &factory, &arrivals, &obs, "")
                .unwrap()
                .0
        });
        assert!(report.accounts_exactly(), "{report:?}");
        assert_eq!(report.recovered, 1);
        assert_eq!(report.completed, 3);
        assert_eq!(report.restarts, 1);
        assert_eq!(
            report.outcomes[1],
            SessionOutcome::Recovered { resumed_at_step: 5, restarts: 1 }
        );
        assert!(report.outcomes[1].is_completed());
        assert_eq!(report.recovery_latency.count, 1);
        assert_eq!(report.recovery_latency.max_ms, sup.restart_backoff_ms);

        // The recovery record lets anyone replay the post-restore tail:
        // restore the recorded checkpoint, drive the incarnation-1 bot,
        // and the log must match bit for bit.
        let r = &report.recoveries[0];
        assert_eq!(r.session, 1);
        assert_eq!(r.resumed_at_step, 5);
        let text = r.checkpoint.as_ref().expect("crashed past a checkpoint");
        // Only a durable checkpoint carries a causal stamp; without a
        // store the recorded text is the plain checkpoint.
        assert!(!text.contains("trace "), "no store, no trace line: {text}");
        let save = SaveGame::from_text(text).unwrap();
        let mut bot = factory(1, 1);
        let replay = resume_session(
            graph,
            config(),
            &save,
            &mut *bot,
            r.resumed_at_step,
            sup.max_steps,
            sup.tick_ms,
        )
        .unwrap();
        assert_eq!(replay.log.events(), r.tail.as_slice(), "post-restore tail replays exactly");
        assert!(replay.state.is_over(), "the recovered session finished the game");
    }

    #[test]
    fn hopeless_crasher_exhausts_its_restart_budget() {
        /// Panics before its first decision in every incarnation, so no
        /// checkpoint ever exists and no restart makes progress.
        struct AlwaysPanic;
        impl Bot for AlwaysPanic {
            fn next_input(&mut self, _s: &GameSession) -> Result<Option<InputEvent>> {
                panic!("injected transient crash");
            }
        }
        let sup = SupervisorConfig {
            restart_budget: 2,
            checkpoint_every: 5,
            ..SupervisorConfig::default()
        };
        let arrivals = ArrivalPlan::new(5, 10_000.0).unwrap();
        let report = quiet(|| {
            run_supervised_cohort(
                Arc::new(fix_the_computer()),
                config(),
                &sup,
                2,
                &|i, _| -> Box<dyn Bot> {
                    if i == 0 {
                        Box::new(AlwaysPanic)
                    } else {
                        Box::new(GuidedBot::new())
                    }
                },
                &arrivals,
                &Obs::noop(),
                "",
            )
            .unwrap()
            .0
        });
        assert!(report.accounts_exactly(), "{report:?}");
        assert_eq!(report.gave_up, 1);
        assert_eq!(report.completed, 1);
        assert_eq!(report.restarts, u64::from(sup.restart_budget));
        match &report.outcomes[0] {
            SessionOutcome::GaveUp { restarts, reason } => {
                assert_eq!(*restarts, sup.restart_budget);
                assert!(reason.contains("injected transient crash"), "{reason}");
            }
            other => unreachable!("{other:?}"),
        }
        assert!(report.outcomes[0].is_failed());
        // Backoff doubles per restart: 250 then 500.
        assert_eq!(report.recovery_latency.count, 2);
        assert_eq!(report.recovery_latency.min_ms, 250.0);
        assert_eq!(report.recovery_latency.max_ms, 500.0);
    }

    #[test]
    fn typed_errors_fail_without_burning_restarts() {
        struct ErrBot;
        impl Bot for ErrBot {
            fn next_input(&mut self, _s: &GameSession) -> Result<Option<InputEvent>> {
                Err(RuntimeError::UnknownScenario("supervised-err".into()))
            }
        }
        let sup = SupervisorConfig::default();
        let arrivals = ArrivalPlan::new(6, 10_000.0).unwrap();
        let report = run_supervised_cohort(
            Arc::new(fix_the_computer()),
            config(),
            &sup,
            2,
            &|i, _| -> Box<dyn Bot> {
                if i == 0 {
                    Box::new(ErrBot)
                } else {
                    Box::new(GuidedBot::new())
                }
            },
            &arrivals,
            &Obs::noop(),
            "",
        )
        .unwrap()
        .0;
        assert!(report.accounts_exactly());
        assert_eq!(report.failed, 1);
        assert_eq!(report.restarts, 0, "typed errors never restart");
        match &report.outcomes[0] {
            SessionOutcome::Failed { reason } => {
                assert!(reason.contains("supervised-err"), "{reason}")
            }
            other => unreachable!("{other:?}"),
        }
    }

    #[test]
    fn breaker_trips_during_warm_phase_on_a_sick_link() {
        let sup = SupervisorConfig {
            warm_fetches: 8,
            warm_faults: FaultPlan::new(0xBAD).with_loss(0.95).unwrap(),
            breaker: BreakerConfig {
                window: 8,
                min_samples: 4,
                trip_ratio: 0.5,
                cooldown_ms: 1e12,
                probes: 2,
            },
            ..SupervisorConfig::default()
        };
        let arrivals = ArrivalPlan::new(8, 1.0).unwrap();
        let report = run_supervised_cohort(
            Arc::new(fix_the_computer()),
            config(),
            &sup,
            6,
            &|_, _| Box::new(GuidedBot::new()),
            &arrivals,
            &Obs::noop(),
            "",
        )
        .unwrap()
        .0;
        assert!(report.accounts_exactly());
        assert!(report.breaker.trips >= 1, "{:?}", report.breaker);
        assert!(report.warm_skipped > 0, "an open breaker skips warm fetches");
        assert!(report.breaker.fast_failures > 0);
        // Sessions still play — warming is best-effort.
        assert!(report.completed > 0);
    }

    #[test]
    fn supervised_runs_are_byte_identical_including_obs_exports() {
        let run = || {
            let factory = |i: usize, incarnation: u32| -> Box<dyn Bot> {
                if i % 3 == 1 && incarnation == 0 {
                    Box::new(CrashOnce { inner: GuidedBot::new(), at: 6, seen: 0 })
                } else {
                    Box::new(GuidedBot::new())
                }
            };
            let sup = SupervisorConfig {
                queue_capacity: 4,
                slots: 2,
                step_ms: 80.0,
                warm_faults: FaultPlan::new(0xFEED)
                    .with_loss(0.4)
                    .unwrap()
                    .with_load_spike(LoadSpike::new(0.0, 500.0, 2.0).unwrap()),
                ..SupervisorConfig::default()
            };
            let arrivals = ArrivalPlan::new(9, 20.0)
                .unwrap()
                .with_spike(LoadSpike::new(0.0, 200.0, 3.0).unwrap());
            let obs = Obs::recording();
            let report = quiet(|| {
                run_supervised_cohort(
                    Arc::new(fix_the_computer()),
                    config(),
                    &sup,
                    20,
                    &factory,
                    &arrivals,
                    &obs,
                    "supervised",
                )
                .unwrap()
                .0
            });
            let snap = obs.snapshot();
            (report, snap.to_table(), snap.metrics_csv(), snap.spans_csv(), snap.to_jsonl())
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "reports are identical field for field");
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        assert_eq!(a.3, b.3);
        assert_eq!(a.4, b.4);
        assert!(a.0.accounts_exactly());
    }

    #[test]
    fn observed_counters_mirror_the_report_exactly() {
        let sup = SupervisorConfig {
            queue_capacity: 3,
            slots: 1,
            step_ms: 60.0,
            ..SupervisorConfig::default()
        };
        let arrivals = ArrivalPlan::new(10, 5.0).unwrap();
        let obs = Obs::recording();
        let report = run_supervised_cohort(
            Arc::new(fix_the_computer()),
            config(),
            &sup,
            16,
            &|_, _| Box::new(GuidedBot::new()),
            &arrivals,
            &obs,
            "mirror",
        )
        .unwrap()
        .0;
        let snap = obs.snapshot();
        assert_eq!(snap.counter_total("supervisor.admitted"), report.admitted as u64);
        assert_eq!(snap.counter_total("supervisor.shed"), report.shed as u64);
        assert_eq!(snap.counter_total("supervisor.degraded"), report.degraded as u64);
        assert_eq!(snap.counter_total("supervisor.completed"), report.completed as u64);
        assert_eq!(snap.counter_total("supervisor.recovered"), report.recovered as u64);
        assert_eq!(snap.counter_total("supervisor.failed"), report.failed as u64);
        assert_eq!(snap.counter_total("supervisor.gave_up"), report.gave_up as u64);
        assert_eq!(snap.counter_total("supervisor.restarts"), report.restarts);
        assert_eq!(snap.gauge_max("supervisor.queue_depth_peak"), report.peak_queue_depth as u64);
        let waits = snap.histogram("supervisor.queue_wait_us").unwrap();
        assert_eq!(waits.count, report.queue_wait.count as u64);
        assert_eq!(snap.traces.len(), 1);
        assert_eq!(snap.traces[0].label, "mirror");
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let graph = Arc::new(fix_the_computer());
        let arrivals = ArrivalPlan::new(1, 100.0).unwrap();
        let cases = [
            SupervisorConfig { queue_capacity: 0, ..SupervisorConfig::default() },
            SupervisorConfig { slots: 0, ..SupervisorConfig::default() },
            SupervisorConfig { queue_deadline_ms: 0.0, ..SupervisorConfig::default() },
            SupervisorConfig { degrade_at: 1.5, ..SupervisorConfig::default() },
            SupervisorConfig { degrade_at: 0.9, conceal_at: 0.5, ..SupervisorConfig::default() },
            SupervisorConfig { restart_backoff_ms: f64::NAN, ..SupervisorConfig::default() },
            SupervisorConfig { step_ms: 0.0, ..SupervisorConfig::default() },
            SupervisorConfig { max_steps: 0, ..SupervisorConfig::default() },
            SupervisorConfig { checkpoint_every: 0, ..SupervisorConfig::default() },
            SupervisorConfig {
                ladder: LadderPolicy::SloDriven(SloLadderConfig {
                    shed_budget: 0.0,
                    ..SloLadderConfig::default()
                }),
                ..SupervisorConfig::default()
            },
            SupervisorConfig {
                ladder: LadderPolicy::SloDriven(SloLadderConfig {
                    short_ms: 2_000.0,
                    long_ms: 1_000.0,
                    ..SloLadderConfig::default()
                }),
                ..SupervisorConfig::default()
            },
            SupervisorConfig {
                ladder: LadderPolicy::SloDriven(SloLadderConfig {
                    degrade_burn: 4.0,
                    conceal_burn: 1.0,
                    ..SloLadderConfig::default()
                }),
                ..SupervisorConfig::default()
            },
            SupervisorConfig {
                ladder: LadderPolicy::SloDriven(SloLadderConfig {
                    wait_target_ms: f64::NAN,
                    ..SloLadderConfig::default()
                }),
                ..SupervisorConfig::default()
            },
            // A negative retry deadline would run the warm phase's
            // simulated clock backwards.
            SupervisorConfig {
                retry: RetryPolicy {
                    base_timeout_ms: -1e6,
                    max_timeout_ms: -1e6,
                    ..RetryPolicy::default()
                },
                ..SupervisorConfig::default()
            },
        ];
        for (k, sup) in cases.iter().enumerate() {
            let out = run_supervised_cohort(
                graph.clone(),
                config(),
                sup,
                1,
                &|_, _| Box::new(GuidedBot::new()),
                &arrivals,
                &Obs::noop(),
                "",
            );
            assert!(
                matches!(out, Err(RuntimeError::InvalidSupervisor(_))),
                "case {k} must be rejected"
            );
        }
    }

    #[test]
    fn empty_cohort_is_fine() {
        let report = run_supervised_cohort(
            Arc::new(fix_the_computer()),
            config(),
            &SupervisorConfig::default(),
            0,
            &|_, _| Box::new(GuidedBot::new()),
            &ArrivalPlan::new(1, 100.0).unwrap(),
            &Obs::noop(),
            "",
        )
        .unwrap()
        .0;
        assert!(report.accounts_exactly());
        assert_eq!(report.sessions, 0);
        assert_eq!(report.makespan_ms, 0.0);
        assert_eq!(report.queue_wait.count, 0);
        assert!(report.alerts.is_empty(), "no traffic, no alerts");
        assert_eq!(report.ledgers.len(), 2);
        assert_eq!(report.ledgers[0].spend(), 0.0, "empty run spends no budget");
    }

    /// The stampede both ladder tests run: a hard overload where the
    /// occupancy ladder demonstrably sheds.
    fn stampede() -> (SupervisorConfig, ArrivalPlan) {
        let sup = SupervisorConfig {
            queue_capacity: 3,
            slots: 1,
            queue_deadline_ms: 10_000.0,
            step_ms: 100.0,
            ..SupervisorConfig::default()
        };
        (sup, ArrivalPlan::new(2, 700.0).unwrap())
    }

    fn slo_ladder() -> SloLadderConfig {
        SloLadderConfig {
            shed_budget: 0.005,
            wait_target_ms: 50.0,
            wait_budget: 0.05,
            short_ms: 100.0,
            long_ms: 2_000.0,
            degrade_burn: 1.0,
            conceal_burn: 2.0,
        }
    }

    #[test]
    fn slo_driven_ladder_sheds_fewer_sessions_than_occupancy() {
        let (sup, arrivals) = stampede();
        let run = |ladder: LadderPolicy| {
            run_supervised_cohort(
                Arc::new(fix_the_computer()),
                config(),
                &SupervisorConfig { ladder, ..sup.clone() },
                32,
                &|_, _| Box::new(GuidedBot::new()),
                &arrivals,
                &Obs::noop(),
                "",
            )
            .unwrap()
            .0
        };
        let occ = run(LadderPolicy::Occupancy);
        let slo = run(LadderPolicy::SloDriven(slo_ladder()));
        assert!(occ.accounts_exactly() && slo.accounts_exactly());
        assert!(occ.shed > 0, "the stampede must overload the occupancy ladder: {occ:?}");
        assert!(
            slo.shed < occ.shed,
            "SLO-driven ladder must shed fewer: {} vs {}",
            slo.shed,
            occ.shed
        );
        // Fewer sheds against the same budget = less error budget spent.
        assert!(slo.ledgers[0].spend() <= occ.ledgers[0].spend());
        // It pays with degraded service, not with dropped sessions.
        assert!(slo.degraded >= occ.degraded, "{} vs {}", slo.degraded, occ.degraded);
        // Overspending the shed budget fired alerts on the occupancy run.
        assert!(!occ.ledgers[0].within_budget());
        assert!(occ.alerts.count(vgbl_obs::AlertPhase::Firing) > 0);
    }

    #[test]
    fn slo_ledgers_mirror_report_accounting_exactly() {
        let (sup, arrivals) = stampede();
        for ladder in [LadderPolicy::Occupancy, LadderPolicy::SloDriven(slo_ladder())] {
            let report = run_supervised_cohort(
                Arc::new(fix_the_computer()),
                config(),
                &SupervisorConfig { ladder, ..sup.clone() },
                24,
                &|_, _| Box::new(GuidedBot::new()),
                &arrivals,
                &Obs::noop(),
                "",
            )
            .unwrap()
            .0;
            let shed = &report.ledgers[0];
            assert_eq!(shed.objective, "shed_rate");
            assert_eq!(shed.bad as usize, report.shed, "ledger bad == report shed");
            assert_eq!(shed.total as usize, report.sessions, "ledger total == arrivals");
            let wait = &report.ledgers[1];
            assert_eq!(wait.objective, "admission_wait");
            assert_eq!(wait.total as usize, report.admitted, "every served session is counted");
            assert!(wait.bad <= wait.total);
        }
    }

    #[test]
    fn slo_driven_runs_are_byte_identical_including_telemetry() {
        let (sup, arrivals) = stampede();
        let sup = SupervisorConfig { ladder: LadderPolicy::SloDriven(slo_ladder()), ..sup };
        let run = || {
            let obs = Obs::recording();
            let report = run_supervised_cohort(
                Arc::new(fix_the_computer()),
                config(),
                &sup,
                24,
                &|_, _| Box::new(GuidedBot::new()),
                &arrivals,
                &obs,
                "slo-ladder",
            )
            .unwrap()
            .0;
            let alerts_csv = report.alerts.to_csv();
            let series_csv = obs.series_csv();
            (report, alerts_csv, series_csv)
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "reports must match field for field");
        assert_eq!(a.1, b.1, "alert timelines must be byte-identical");
        assert_eq!(a.2, b.2, "series exports must be byte-identical");
        assert!(a.2.contains("supervisor.arrivals"), "arrival series is tapped");
        assert!(a.2.contains("supervisor.queue_wait_us"), "wait series is tapped");
    }

    #[test]
    fn slo_ladder_on_noop_obs_still_sees_its_series() {
        // The control series are standalone: disabling observability must
        // not change what the SLO-driven ladder decides.
        let (sup, arrivals) = stampede();
        let sup = SupervisorConfig { ladder: LadderPolicy::SloDriven(slo_ladder()), ..sup };
        let noop = run_supervised_cohort(
            Arc::new(fix_the_computer()),
            config(),
            &sup,
            24,
            &|_, _| Box::new(GuidedBot::new()),
            &arrivals,
            &Obs::noop(),
            "",
        )
        .unwrap()
        .0;
        let obs = Obs::recording();
        let observed = run_supervised_cohort(
            Arc::new(fix_the_computer()),
            config(),
            &sup,
            24,
            &|_, _| Box::new(GuidedBot::new()),
            &arrivals,
            &obs,
            "paired",
        )
        .unwrap()
        .0;
        assert_eq!(noop, observed, "observability must never steer the ladder");
        assert!(!noop.alerts.is_empty() || noop.shed == 0, "alerts work without obs too");
    }

    #[test]
    fn durable_cohort_persists_checkpoints_and_survives_cold_restart() {
        use vgbl_store::{DiskFaultPlan, StoreConfig};
        let sup = SupervisorConfig {
            queue_capacity: 16,
            slots: 4,
            checkpoint_every: 3,
            store: Some(StoreConfig {
                snapshot_every: 4,
                dual_write: false,
                faults: DiskFaultPlan::new(21),
            }),
            ..SupervisorConfig::default()
        };
        let arrivals = ArrivalPlan::new(1, 10_000.0).unwrap();
        let graph = Arc::new(fix_the_computer());
        let (report, store) = run_supervised_cohort(
            graph.clone(),
            config(),
            &sup,
            6,
            &|_, _| Box::new(GuidedBot::new()),
            &arrivals,
            &Obs::noop(),
            "",
        )
        .unwrap();
        assert!(report.accounts_exactly(), "{report:?}");
        let stats = report.durability.expect("store configured");
        assert!(stats.acked_records >= 6, "every session checkpointed at least once: {stats:?}");
        // Cold restart: kill the cohort, recover from the store alone,
        // and replay each session's tail from its durable checkpoint.
        let mut store = store.expect("store configured");
        store.power_loss();
        let recovery = store.recover();
        assert!(recovery.scrub.lost.is_empty(), "clean disk: {:?}", recovery.scrub);
        assert!(!recovery.sessions.is_empty());
        for (sid, rc) in &recovery.sessions {
            let text = std::str::from_utf8(&rc.record.payload).unwrap();
            let save = SaveGame::from_text(text).unwrap();
            assert_eq!(save.digest(), rc.record.digest, "payload digest survives the store");
            assert_eq!(
                save.trace,
                Some((rc.record.trace_id, rc.record.span_id)),
                "the payload is stamped with its own record's causal identity"
            );
            let mut bot = GuidedBot::new();
            let run = resume_session(
                graph.clone(),
                config(),
                &save,
                &mut bot,
                rc.record.step as usize,
                sup.max_steps,
                sup.tick_ms,
            )
            .unwrap();
            assert!(run.state.is_over(), "session {sid} resumed from step {} and finished", rc.record.step);
        }
    }
}

