//! Sharded fleet supervisor: consistent-hash routing, shard failure
//! domains, SLO-driven migration, and autoscaling.
//!
//! One [`crate::supervisor`] instance is a single failure domain: a
//! crash mid-stampede takes every queued and in-flight session with it.
//! This module shards the same admission machinery behind a seeded
//! consistent-hash router so faults stay contained:
//!
//! * [`FleetRouter`] — a consistent-hash ring with virtual nodes.
//!   Session ids are the stable routing key, so adding or removing a
//!   shard remaps only ~K/N keys and every other session stays put.
//! * Shard failure domains — each shard owns its queue, slots,
//!   degradation ladder, warm-fetch breaker, and [`FaultPlan`]. Seeded
//!   shard-level faults ([`ShardFaultKind::Crash`], `Stall`,
//!   `DegradedLink`) hit exactly one shard.
//! * SLO-driven migration — when a shard's burn rate (the same
//!   google-sre burn windows [`crate::supervisor`] alerts on) stays
//!   over [`MigrationConfig::burn_threshold`], the controller drains
//!   it: live sessions checkpoint at their next segment boundary via
//!   [`GameSession::checkpoint`] and resume on the re-routed shard,
//!   byte-identically — the handoff is digest-checked and a shadow
//!   [`resume_session`] replay predicts the exact post-migration log
//!   tail.
//! * Autoscaling — fleet-wide burn over
//!   [`AutoscaleConfig::up_burn`] adds a shard; sustained calm retires
//!   the emptiest one. Hysteresis (streaks + cooldown) keeps the shard
//!   count from flapping.
//!
//! Everything runs on the crate's simulated millisecond clock as a
//! deterministic discrete-event simulation: same seeds, same arrivals,
//! same faults → a byte-identical [`FleetReport`] (it is `PartialEq`
//! for exactly that assertion).

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use vgbl_obs::hash::mix;
use vgbl_obs::{
    us_from_ms, AlertTimeline, BudgetLedger, JourneyEventKind, JourneyRecorder, Obs,
    SessionJourney, TerminalState, TraceCtx,
};
use vgbl_scene::SceneGraph;
use vgbl_stream::{BreakerStats, CircuitBreaker, FaultPlan};

use crate::analytics::{LatencySummary, LogEvent};
use crate::bot::{drive, Bot};
use crate::engine::{GameSession, SessionConfig};
use crate::error::RuntimeError;
use crate::executor::EventQueue;
use crate::save::SaveGame;
use crate::server::{outcome_counts, panic_reason, SessionOutcome};
use crate::supervisor::{
    persist_checkpoint, restart_backoff, resume_session, warm_session, ArrivalPlan, ServiceMode,
    SupSlo, SupervisedBotFactory, SupervisorConfig,
};
use crate::Result;
use vgbl_store::{CheckpointRecord, CorruptKind, DurableStore, ScrubReport, StoreConfig, StoreStats};

/// Domain-separates ring-point hashing from every other splitmix user.
const SALT_RING: u64 = 0x9000_0009;
/// Domain-separates routing-key hashing from ring-point hashing.
const SALT_KEY: u64 = 0xA000_000A;
/// Domain-separates synthetic per-session segment counts.
const SALT_SYNTH: u64 = 0xB000_000B;

fn invalid(msg: impl Into<String>) -> RuntimeError {
    RuntimeError::InvalidSupervisor(msg.into())
}

// ---------------------------------------------------------------------------
// Consistent-hash router
// ---------------------------------------------------------------------------

/// A seeded consistent-hash ring over shard ids with virtual nodes.
///
/// Each shard contributes `vnodes` points to a `u64` ring; a key routes
/// to the shard owning the first point at or after its hash (wrapping).
/// The ring is a pure function of `(seed, vnodes, shard ids)`, so two
/// routers built the same way agree on every key — and removing a shard
/// only re-homes the keys that shard owned.
#[derive(Debug, Clone)]
pub struct FleetRouter {
    seed: u64,
    vnodes: u32,
    shards: Vec<u32>,
    ring: Vec<(u64, u32)>,
}

impl FleetRouter {
    /// A router over shards `0..n_shards` with `vnodes` points each.
    pub fn new(seed: u64, vnodes: u32, n_shards: u32) -> Result<FleetRouter> {
        if vnodes == 0 {
            return Err(invalid("router vnodes must be >= 1"));
        }
        if n_shards == 0 {
            return Err(invalid("router needs at least one shard"));
        }
        let mut r = FleetRouter { seed, vnodes, shards: (0..n_shards).collect(), ring: Vec::new() };
        r.rebuild();
        Ok(r)
    }

    fn point(&self, shard: u32, vnode: u32) -> u64 {
        mix(self.seed ^ SALT_RING ^ mix((u64::from(shard) << 32) | u64::from(vnode)))
    }

    fn rebuild(&mut self) {
        self.ring.clear();
        for &s in &self.shards {
            for v in 0..self.vnodes {
                self.ring.push((self.point(s, v), s));
            }
        }
        self.ring.sort_unstable();
    }

    /// Adds a shard's vnodes to the ring (no-op if already present).
    pub fn add_shard(&mut self, shard: u32) {
        if !self.shards.contains(&shard) {
            self.shards.push(shard);
            self.rebuild();
        }
    }

    /// Removes a shard's vnodes from the ring (no-op if absent).
    pub fn remove_shard(&mut self, shard: u32) {
        let before = self.shards.len();
        self.shards.retain(|&s| s != shard);
        if self.shards.len() != before {
            self.rebuild();
        }
    }

    /// The shard owning `key`, or `None` if the ring is empty.
    pub fn route(&self, key: u64) -> Option<u32> {
        if self.ring.is_empty() {
            return None;
        }
        let h = mix(self.seed ^ SALT_KEY ^ mix(key));
        let i = self.ring.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.ring[if i == self.ring.len() { 0 } else { i }];
        Some(shard)
    }

    /// Number of shards currently on the ring.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// True when no shard is routable.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The shard ids currently on the ring, in insertion order.
    pub fn shard_ids(&self) -> &[u32] {
        &self.shards
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// What goes wrong on one shard, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardFaultKind {
    /// The shard dies: queued sessions re-route, in-flight sessions
    /// migrate from their last committed checkpoint (or are shed, and
    /// accounted, if they never reached one).
    Crash,
    /// The shard freezes for `duration_ms`: in-flight segments finish
    /// late, queued sessions wait (and may blow the queue deadline).
    Stall {
        /// How long the shard is frozen, simulated ms.
        duration_ms: f64,
    },
    /// The shard's chunk-fetch path degrades to this loss rate — its
    /// warm-fetch breaker absorbs the damage; other shards never see it.
    DegradedLink {
        /// New chunk loss probability in `[0, 1)`.
        loss: f64,
    },
}

/// A scheduled shard-level fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardFault {
    /// When the fault fires, simulated ms.
    pub at_ms: f64,
    /// Which shard it hits (faults for unknown/dead shards are ignored).
    pub shard: u32,
    /// What happens.
    pub kind: ShardFaultKind,
}

/// When the controller drains a burning shard. Every engine migration
/// is shadow-replayed from its checkpoint and checked against what the
/// destination shard actually produced ([`MigrationRecord::verified`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// Drain a shard once its worst burn rate holds at or above this.
    pub burn_threshold: f64,
    /// ...for this many consecutive control ticks.
    pub sustain_ticks: u32,
    /// Hold SLO drains while fleet-wide occupancy — queued plus
    /// in-flight sessions over the routable shards' total slot and
    /// queue capacity — is at or above this fraction. Under sustained
    /// overload every shard burns at once; draining one only reroutes
    /// its queue onto equally-burning peers, and each drain leaves the
    /// survivors worse until the fleet sits at the router floor.
    /// A drain helps exactly when the others have headroom to absorb
    /// it. `f64::INFINITY` disables the guard (the legacy policy).
    pub max_drain_occupancy: f64,
}

impl Default for MigrationConfig {
    fn default() -> MigrationConfig {
        MigrationConfig { burn_threshold: 4.0, sustain_ticks: 2, max_drain_occupancy: 0.75 }
    }
}

/// Hysteresis bounds for elastic shard count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Add a shard when fleet-wide burn holds at or above this.
    pub up_burn: f64,
    /// Retire a shard when fleet-wide burn holds at or below this.
    pub down_burn: f64,
    /// Consecutive control ticks a signal must hold before acting.
    pub sustain_ticks: u32,
    /// Minimum gap between scaling actions, simulated ms.
    pub cooldown_ms: f64,
    /// Never retire below this many routable shards.
    pub min_shards: usize,
    /// Never grow beyond this many routable shards.
    pub max_shards: usize,
}

impl Default for AutoscaleConfig {
    fn default() -> AutoscaleConfig {
        AutoscaleConfig {
            up_burn: 4.0,
            down_burn: 0.5,
            sustain_ticks: 3,
            cooldown_ms: 2_000.0,
            min_shards: 1,
            max_shards: 16,
        }
    }
}

/// Fleet topology and policy around a per-shard [`SupervisorConfig`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Initial shard count (ids `0..shards`).
    pub shards: u32,
    /// Virtual nodes per shard on the router ring.
    pub vnodes: u32,
    /// Seed for ring points and key hashing.
    pub router_seed: u64,
    /// Every shard runs this supervisor configuration: queue capacity,
    /// slots, degradation ladder, checkpoint cadence, breaker. Its
    /// `store` must be `None`: the fleet's store is [`FleetConfig::store`].
    pub shard: SupervisorConfig,
    /// Scheduled shard-level faults.
    pub faults: Vec<ShardFault>,
    /// Controller cadence (burn checks, drains, autoscaling); at least
    /// 0.001 ms, the simulated clock's resolution.
    pub control_interval_ms: f64,
    /// Drain policy.
    pub migration: MigrationConfig,
    /// Elastic shard count; `None` pins the fleet at `shards`.
    pub autoscale: Option<AutoscaleConfig>,
    /// Fleet-wide durable checkpoint store. `None` keeps committed
    /// checkpoints in process memory only — a whole-fleet power loss is
    /// then unrecoverable (the pre-PR-9 behaviour).
    pub store: Option<StoreConfig>,
    /// Scheduled whole-fleet power losses, simulated ms: at each, every
    /// shard loses all in-memory state (queues, slots, uncommitted
    /// work) and the fleet cold-restarts from the durable store.
    pub power_loss_at_ms: Vec<f64>,
    /// Record per-session causal journeys ([`FleetReport::journeys`]).
    /// Every session carries a [`TraceCtx`] minted as a pure hash of
    /// `(router_seed, session, generation)` across every boundary it
    /// crosses — admission, checkpoint, migration handoff, crash,
    /// power loss, cold resume. Off by default: journey-off runs pay a
    /// single branch per would-be event.
    pub journeys: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            shards: 4,
            vnodes: 16,
            router_seed: 0xF1EE_7000,
            shard: SupervisorConfig::default(),
            faults: Vec::new(),
            control_interval_ms: 250.0,
            migration: MigrationConfig::default(),
            autoscale: None,
            store: None,
            power_loss_at_ms: Vec::new(),
            journeys: false,
        }
    }
}

impl FleetConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(invalid("fleet needs at least one shard"));
        }
        if self.vnodes == 0 {
            return Err(invalid("vnodes must be >= 1"));
        }
        self.shard.validate()?;
        if self.shard.store.is_some() {
            return Err(invalid(
                "the fleet's durable store is fleet-wide; set FleetConfig::store, not shard.store",
            ));
        }
        // The simulated clock ticks in microseconds: a shorter interval
        // rounds the next control tick back onto the current one forever.
        if !self.control_interval_ms.is_finite() || self.control_interval_ms < 0.001 {
            return Err(invalid("control_interval_ms must be finite and at least 0.001 (1 µs)"));
        }
        if !self.migration.burn_threshold.is_finite() || self.migration.burn_threshold <= 0.0 {
            return Err(invalid("migration burn_threshold must be positive and finite"));
        }
        if self.migration.sustain_ticks == 0 {
            return Err(invalid("migration sustain_ticks must be >= 1"));
        }
        let occ = self.migration.max_drain_occupancy;
        if occ.is_nan() || occ <= 0.0 {
            return Err(invalid(
                "migration max_drain_occupancy must be positive \
                 (f64::INFINITY disables the overload guard)",
            ));
        }
        for &t in &self.power_loss_at_ms {
            if !t.is_finite() || t < 0.0 {
                return Err(invalid("power_loss_at_ms must be non-negative and finite"));
            }
        }
        if self.store.is_none() && !self.power_loss_at_ms.is_empty() {
            return Err(invalid(
                "power losses without a durable store would lose every session; \
                 set FleetConfig::store",
            ));
        }
        for f in &self.faults {
            if !f.at_ms.is_finite() || f.at_ms < 0.0 {
                return Err(invalid("fault at_ms must be non-negative and finite"));
            }
            match f.kind {
                ShardFaultKind::Stall { duration_ms } => {
                    if !duration_ms.is_finite() || duration_ms <= 0.0 {
                        return Err(invalid("stall duration_ms must be positive and finite"));
                    }
                }
                ShardFaultKind::DegradedLink { loss } => {
                    // Dry-run the swap so the fault injector can unwrap it.
                    self.shard
                        .warm_faults
                        .with_loss(loss)
                        .map_err(|e| invalid(format!("degraded-link loss: {e}")))?;
                }
                ShardFaultKind::Crash => {}
            }
        }
        if let Some(a) = &self.autoscale {
            if a.min_shards == 0 {
                return Err(invalid("autoscale min_shards must be >= 1"));
            }
            if a.max_shards < a.min_shards {
                return Err(invalid("autoscale max_shards must be >= min_shards"));
            }
            if a.sustain_ticks == 0 {
                return Err(invalid("autoscale sustain_ticks must be >= 1"));
            }
            if !a.cooldown_ms.is_finite() || a.cooldown_ms < 0.0 {
                return Err(invalid("autoscale cooldown_ms must be non-negative and finite"));
            }
            if !(a.up_burn.is_finite() && a.down_burn.is_finite() && a.down_burn < a.up_burn) {
                return Err(invalid("autoscale needs down_burn < up_burn, both finite"));
            }
        }
        Ok(())
    }
}

/// What each session actually runs.
pub enum FleetWorkload<'a> {
    /// Real [`GameSession`]s stepped by bots — checkpoints, restores,
    /// and migration replay verification are all live.
    Engine {
        /// The shared scene graph.
        graph: Arc<SceneGraph>,
        /// Per-session engine configuration.
        config: SessionConfig,
        /// `(session id, incarnation) -> bot`; incarnation bumps on
        /// every restart *and* every migration hop.
        factory: &'a SupervisedBotFactory,
    },
    /// A pure cost model — sessions are `1..2*mean_segments` seeded
    /// segments of `checkpoint_every` steps each. Scales the fleet's
    /// control plane to millions of arrivals where real engine state
    /// would dominate the run.
    Synthetic {
        /// Average session length in segments (>= 1).
        mean_segments: u32,
    },
}

// ---------------------------------------------------------------------------
// Records and reports
// ---------------------------------------------------------------------------

/// Why a session left its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationReason {
    /// The shard crashed under it.
    Crash,
    /// The controller drained the shard on sustained SLO burn.
    SloDrain,
    /// The autoscaler retired the shard.
    ScaleDown,
}

/// One session re-homed from a draining or dead shard.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationRecord {
    /// Session id.
    pub session: usize,
    /// Origin shard.
    pub from: u32,
    /// Destination shard.
    pub to: u32,
    /// When the checkpoint handed off, simulated ms.
    pub at_ms: f64,
    /// The decision step the destination resumed from.
    pub resumed_at_step: usize,
    /// Why.
    pub reason: MigrationReason,
    /// FNV-1a digest of the checkpoint's canonical text at handoff.
    pub checkpoint_digest: u64,
    /// `Some(true)` when the destination's restored checkpoint
    /// re-digested identically (engine workloads; `None` when the
    /// session was shed before the destination could restore it, or
    /// when the hand-in build panicked and the destination rebuilt the
    /// session as a restart).
    pub handoff_ok: Option<bool>,
    /// `Some(eq)` when a shadow replay's predicted log tail was compared
    /// against the destination's actual tail; `None` when a later
    /// restart or hop superseded the prediction, the session did not
    /// finish cleanly, or there was nothing to replay (synthetic
    /// workloads, a session shed before the destination restored it).
    pub verified: Option<bool>,
    /// The session's causal trace id, carried through the handoff.
    pub trace_id: u64,
    /// The span id of the generation the destination resumes as.
    pub span_id: u64,
}

/// One autoscaler action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// When, simulated ms.
    pub at_ms: f64,
    /// `true` = shard added, `false` = shard retired.
    pub up: bool,
    /// The shard added or retired.
    pub shard: u32,
    /// Routable shards after the action.
    pub shards_after: usize,
    /// Fleet-wide worst burn rate that triggered it.
    pub burn: f64,
}

/// One session whose durable checkpoint could not be recovered after a
/// power loss: the exact corrupt record it is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LostSession {
    /// Session id.
    pub session: usize,
    /// The last *acknowledged* WAL sequence number for this session.
    pub seq: u64,
    /// What destroyed the record (torn write vs bit rot).
    pub kind: CorruptKind,
}

/// Everything the durable store did and suffered across one fleet run.
/// `PartialEq` so chaos reruns can assert byte-identical storage
/// behaviour wholesale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurabilityReport {
    /// The store's lifetime counters (appends, acked/lost flushes,
    /// snapshots, power losses, staged records destroyed).
    pub store: StoreStats,
    /// One scrub report per power loss, in order.
    pub scrubs: Vec<ScrubReport>,
    /// Sessions resumed from the store across all cold restarts.
    pub cold_resumed: usize,
    /// Cold resumes that were served a stale (older intact) version.
    pub stale_resumes: usize,
    /// Sessions shed because *every* durable copy of their checkpoint
    /// was provably corrupt — each attributed to a specific record.
    /// This is exactly the report's `lost_durable` count.
    pub lost: Vec<LostSession>,
}

/// Per-shard accounting. Terminal outcomes (completed/failed/...) are
/// attributed to the shard the session *finished* on; `restarts`
/// likewise carries the session's cumulative restarts at its terminal
/// shard, so shard rows sum to the fleet totals.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard id.
    pub shard: u32,
    /// Arrivals the router sent here (including migrations in).
    pub routed: usize,
    /// Sessions dispatched into a slot here.
    pub admitted: usize,
    /// Sessions shed here (queue full, deadline, crash-before-checkpoint).
    pub shed: usize,
    /// Sessions that finished cleanly here with zero restarts and hops.
    pub completed: usize,
    /// Sessions that finished here after >= 1 restart or migration hop.
    pub recovered: usize,
    /// Sessions that failed terminally here.
    pub failed: usize,
    /// Sessions that exhausted the restart budget here.
    pub gave_up: usize,
    /// Admissions served below full service (warm skipped).
    pub degraded: usize,
    /// Sessions resumed here from another shard's checkpoint.
    pub migrated_in: usize,
    /// Sessions checkpointed here and handed away.
    pub migrated_out: usize,
    /// Cumulative restarts of sessions that finished here.
    pub restarts: u64,
    /// Warm fetches attempted here.
    pub warm_attempted: u64,
    /// Warm fetches skipped by an open breaker here.
    pub warm_skipped: u64,
    /// High-water queue depth.
    pub peak_queue_depth: usize,
    /// The shard died to a [`ShardFaultKind::Crash`].
    pub crashed: bool,
    /// The shard was drained off the ring (SLO drain or scale-down).
    pub retired: bool,
    /// This shard's warm-fetch breaker counters.
    pub breaker: BreakerStats,
    /// This shard's own burn-rate alert timeline.
    pub alerts: AlertTimeline,
}

/// Everything one fleet run produced. `PartialEq` so reruns can assert
/// byte-identical behaviour wholesale.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Sessions offered.
    pub sessions: usize,
    /// Finished cleanly, zero restarts and hops.
    pub completed: usize,
    /// Finished after restarts and/or migration hops.
    pub recovered: usize,
    /// Failed terminally.
    pub failed: usize,
    /// Exhausted the restart budget.
    pub gave_up: usize,
    /// Shed — every one carries a reason in `outcomes`; nothing is
    /// silently lost.
    pub shed: usize,
    /// Of `recovered`: sessions that finished after resuming from the
    /// durable store across a whole-fleet power loss.
    pub recovered_cold: usize,
    /// Of `shed`: sessions lost because their acknowledged durable
    /// checkpoint was provably corrupt at cold restart — each one
    /// attributed to a record in [`DurabilityReport::lost`].
    pub lost_durable: usize,
    /// Admissions served below full service.
    pub degraded: usize,
    /// Total restarts across the fleet.
    pub restarts: u64,
    /// SLO drains the overload guard held back
    /// ([`MigrationConfig::max_drain_occupancy`]), one per deferring
    /// shard per control tick.
    pub drains_deferred: u64,
    /// Every migration, in order, with handoff and replay verdicts.
    pub migrations: Vec<MigrationRecord>,
    /// Every autoscaler action, in order.
    pub scale_events: Vec<ScaleEvent>,
    /// Per-shard rows, including crashed and retired shards.
    pub shards: Vec<ShardReport>,
    /// Shards still on the ring at the end.
    pub routable_shards: usize,
    /// When the last session finished, simulated ms.
    pub makespan_ms: f64,
    /// Queue-wait distribution across all shards.
    pub queue_wait: LatencySummary,
    /// Per-session outcomes, index = session id.
    pub outcomes: Vec<SessionOutcome>,
    /// Fleet-wide breaker counters (sum over shards).
    pub breaker: BreakerStats,
    /// Fleet-level burn-rate alert timeline.
    pub alerts: AlertTimeline,
    /// Fleet-level error-budget ledgers (shed-rate first, then wait).
    pub ledgers: Vec<BudgetLedger>,
    /// All shard-level alerts merged into one ordered timeline.
    pub shard_alerts: AlertTimeline,
    /// Durable-store audit when [`FleetConfig::store`] was set.
    pub durability: Option<DurabilityReport>,
    /// Per-session causal journeys, stitched across every shard each
    /// session touched, when [`FleetConfig::journeys`] was on (empty
    /// otherwise). Sorted by session id; byte-identical across reruns.
    pub journeys: Vec<SessionJourney>,
}

impl FleetReport {
    /// Sessions that got service (offered minus shed).
    pub fn admitted(&self) -> usize {
        self.sessions - self.shed
    }

    /// Every offered session has exactly one terminal account.
    pub fn accounts_exactly(&self) -> bool {
        self.completed + self.recovered + self.failed + self.gave_up + self.shed == self.sessions
    }

    /// `(completed, failed, shed, recovered, gave_up)` tallied from
    /// `outcomes` — the ground truth the counter fields must match.
    pub fn outcome_counts(&self) -> (usize, usize, usize, usize, usize) {
        outcome_counts(&self.outcomes)
    }

    pub(crate) fn debug_assert_consistent(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        debug_assert!(self.accounts_exactly(), "fleet accounting identity broken: {self:?}");
        debug_assert_eq!(self.outcomes.len(), self.sessions, "one outcome per offered session");
        let (completed, failed, shed, recovered, gave_up) = self.outcome_counts();
        debug_assert_eq!(self.completed, completed);
        debug_assert_eq!(self.failed, failed);
        debug_assert_eq!(self.shed, shed);
        debug_assert_eq!(self.recovered, recovered);
        debug_assert_eq!(self.gave_up, gave_up);
        for f in ["completed", "recovered", "failed", "gave_up", "degraded"] {
            let (fleet, rows) = match f {
                "completed" => (self.completed, self.shards.iter().map(|s| s.completed).sum()),
                "recovered" => (self.recovered, self.shards.iter().map(|s| s.recovered).sum()),
                "failed" => (self.failed, self.shards.iter().map(|s| s.failed).sum()),
                "gave_up" => (self.gave_up, self.shards.iter().map(|s| s.gave_up).sum()),
                _ => (self.degraded, self.shards.iter().map(|s| s.degraded).sum()),
            };
            debug_assert_eq!(fleet, rows, "shard rows must sum to fleet {f}");
        }
        let shard_shed: usize = self.shards.iter().map(|s| s.shed).sum();
        debug_assert!(shard_shed <= self.shed, "shard sheds cannot exceed fleet sheds");
        debug_assert_eq!(
            self.restarts,
            self.shards.iter().map(|s| s.restarts).sum::<u64>(),
            "shard restarts must sum to fleet restarts"
        );
        if let Some(l) = self.ledgers.first() {
            debug_assert_eq!(l.bad as usize, self.shed, "shed ledger must count every shed");
        }
        debug_assert!(
            self.recovered_cold <= self.recovered,
            "cold recoveries are a subset of recoveries"
        );
        debug_assert!(self.lost_durable <= self.shed, "durable losses are a subset of sheds");
        match &self.durability {
            Some(d) => debug_assert_eq!(
                self.lost_durable,
                d.lost.len(),
                "every durable loss must be attributed to a corrupt record"
            ),
            None => {
                debug_assert_eq!(self.lost_durable, 0, "no store, no durable losses");
                debug_assert_eq!(self.recovered_cold, 0, "no store, no cold recoveries");
            }
        }
        if !self.journeys.is_empty() {
            debug_assert_eq!(
                self.journeys.len(),
                self.sessions,
                "journeys on: every offered session stitches to exactly one journey"
            );
            for (j, o) in self.journeys.iter().zip(&self.outcomes) {
                let want = match o {
                    SessionOutcome::Completed => TerminalState::Completed,
                    SessionOutcome::Recovered { .. } => TerminalState::Recovered,
                    SessionOutcome::Failed { .. } => TerminalState::Failed,
                    SessionOutcome::Shed { .. } => TerminalState::Shed,
                    SessionOutcome::GaveUp { .. } => TerminalState::GaveUp,
                };
                debug_assert_eq!(
                    j.terminal, want,
                    "journey terminal must agree with session {} outcome",
                    j.session
                );
                debug_assert!(j.chain_ok(), "session {} journey chain broken", j.session);
            }
        }
        let migrated_out: usize = self.shards.iter().map(|s| s.migrated_out).sum();
        debug_assert!(self.migrations.len() <= migrated_out, "records only for re-homed sessions");
        debug_assert!(
            !self.migrations.iter().any(|m| m.verified == Some(false)),
            "a migrated session diverged from its checkpoint replay: {:?}",
            self.migrations.iter().find(|m| m.verified == Some(false))
        );
    }
}

// ---------------------------------------------------------------------------
// Internal simulation
// ---------------------------------------------------------------------------

/// Event kinds on the discrete-event queue. The queue itself is the
/// executor's [`EventQueue`], whose `(t_us, seq)` ordering fires
/// equal-time events in creation order, deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    /// A slot's current segment reaches its boundary.
    Seg { shard: u32, slot: usize, token: u64 },
    /// A scheduled fault (index into [`FleetConfig::faults`]) fires.
    Fault(usize),
    /// A whole-fleet power loss (index into
    /// [`FleetConfig::power_loss_at_ms`]) fires.
    PowerLoss(usize),
    /// A controller tick.
    Control,
}

/// Live engine state for one in-flight session incarnation.
pub(crate) struct EngineRun {
    pub(crate) session: GameSession,
    bot: Box<dyn Bot>,
    pub(crate) steps: usize,
}

impl EngineRun {
    /// Starts incarnation `generation` of session `id`: restored from the
    /// payload of `from` when there is one, fresh otherwise. First
    /// dispatch, migration hand-in, cold resume and panic restart all
    /// build their engine here.
    fn start(
        graph: &Arc<SceneGraph>,
        config: &SessionConfig,
        factory: &SupervisedBotFactory,
        id: usize,
        generation: u32,
        from: Option<&CheckpointRecord>,
    ) -> Result<EngineRun> {
        let (session, steps) = match from {
            Some(c) => {
                let save = parse_payload(&c.payload)?;
                let session = GameSession::restore_checkpoint(graph.clone(), config.clone(), &save)?;
                (session, c.step as usize)
            }
            None => (GameSession::new(graph.clone(), config.clone())?.0, 0),
        };
        Ok(EngineRun { session, bot: factory(id, generation), steps })
    }
}

/// The save an engine commit's payload holds.
fn parse_payload(payload: &[u8]) -> Result<SaveGame> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| RuntimeError::CorruptSave("checkpoint payload is not UTF-8".into()))?;
    SaveGame::from_text(text)
}

/// One in-flight session: on a shard slot, or in a supervisor slot.
pub(crate) struct Running {
    pub(crate) id: usize,
    mode: ServiceMode,
    /// Incarnation counter fed to the bot factory; bumps on every
    /// restart and every migration hop.
    pub(crate) generation: u32,
    pub(crate) restarts: u32,
    /// Migration hops so far.
    hops: u32,
    /// Step the latest resume started from (0 for never-migrated).
    pub(crate) resumed_at_step: usize,
    was_degraded: bool,
    /// The session was rebuilt from the durable store after a
    /// whole-fleet power loss (its in-memory lineage was destroyed).
    cold: bool,
    /// The latest boundary commit: the record the store keeps.
    pub(crate) committed: Option<CheckpointRecord>,
    /// Engine workloads only; `None` until the next segment (re)builds
    /// it.
    pub(crate) engine: Option<EngineRun>,
    synth_done: u32,
    synth_total: u32,
}

impl Running {
    /// A session about to start its first incarnation.
    pub(crate) fn fresh(id: usize, mode: ServiceMode) -> Running {
        Running {
            id,
            mode,
            generation: 0,
            restarts: 0,
            hops: 0,
            resumed_at_step: 0,
            was_degraded: false,
            cold: false,
            committed: None,
            engine: None,
            synth_done: 0,
            synth_total: 0,
        }
    }
}

/// How a segment ended.
#[derive(Debug, Clone)]
pub(crate) enum SegEnd {
    /// Hit the checkpoint boundary; session continues.
    Boundary,
    /// Session finished cleanly.
    Finished,
    /// Terminal engine error.
    Failed { reason: String },
    /// Restart budget exhausted.
    GaveUp { restarts: u32, reason: String },
}

/// A queued admission on one shard. A handed-off session carries its
/// `Running` (engine dropped) and the index of its migration record,
/// `None` for a cold resume, which is audited in the
/// [`DurabilityReport`] instead.
struct QEntry {
    id: usize,
    arrival_ms: f64,
    mode: ServiceMode,
    resume: Option<(Running, Option<usize>)>,
}

impl QEntry {
    /// The session's causal generation while it waits.
    fn generation(&self) -> u32 {
        self.resume.as_ref().map_or(0, |(r, _)| r.generation)
    }
}

/// One shard slot. `token` invalidates in-flight [`EvKind::Seg`] events
/// after crashes and re-dispatches; `due_ms` moves when a stall delays
/// the segment (the stale event re-schedules itself).
struct Slot {
    run: Option<Running>,
    pending: Option<SegEnd>,
    token: u64,
    due_ms: f64,
}

/// One failure domain: queue, slots, ladder state, breaker, fault plan.
struct Shard {
    id: u32,
    slots: Vec<Slot>,
    queue: VecDeque<QEntry>,
    slo: SupSlo,
    breaker: CircuitBreaker,
    faults: FaultPlan,
    alive: bool,
    draining: bool,
    retired: bool,
    drain_reason: MigrationReason,
    stalled_until_ms: f64,
    burn_streak: u32,
    routed: usize,
    admitted: usize,
    shed: usize,
    completed: usize,
    recovered: usize,
    failed: usize,
    gave_up: usize,
    degraded: usize,
    migrated_in: usize,
    migrated_out: usize,
    restarts: u64,
    warm_attempted: u64,
    warm_skipped: u64,
    peak_queue_depth: usize,
    crashed: bool,
}

impl Shard {
    fn new(id: u32, cfg: &FleetConfig) -> Shard {
        Shard {
            id,
            slots: (0..cfg.shard.slots)
                .map(|_| Slot { run: None, pending: None, token: 0, due_ms: 0.0 })
                .collect(),
            queue: VecDeque::new(),
            slo: SupSlo::new(&Obs::noop(), cfg.shard.slo_config()),
            breaker: CircuitBreaker::new(cfg.shard.breaker).expect("validated breaker config"),
            faults: cfg.shard.warm_faults,
            alive: true,
            draining: false,
            retired: false,
            drain_reason: MigrationReason::SloDrain,
            stalled_until_ms: 0.0,
            burn_streak: 0,
            routed: 0,
            admitted: 0,
            shed: 0,
            completed: 0,
            recovered: 0,
            failed: 0,
            gave_up: 0,
            degraded: 0,
            migrated_in: 0,
            migrated_out: 0,
            restarts: 0,
            warm_attempted: 0,
            warm_skipped: 0,
            peak_queue_depth: 0,
            crashed: false,
        }
    }

    fn busy_slots(&self) -> usize {
        self.slots.iter().filter(|s| s.run.is_some()).count()
    }

    fn load(&self) -> usize {
        self.queue.len() + self.busy_slots()
    }
}

/// A session migrated with replay verification pending: the shadow
/// replay's predicted tail, waiting for the real run to terminate.
struct PendingVerify {
    session: usize,
    generation: u32,
    mig_idx: usize,
    tail: Vec<LogEvent>,
}

/// The per-session segment count for synthetic workloads: seeded,
/// uniform on `1..=2*mean-1` so the mean is `mean` (validated to
/// `1..=u32::MAX / 2` by `run_fleet`).
fn synth_total(seed: u64, mean_segments: u32, id: usize) -> u32 {
    let span = u64::from(2 * mean_segments - 1);
    1 + (mix(seed ^ SALT_SYNTH ^ mix(id as u64)) % span) as u32
}

/// Advances `r` to its next checkpoint boundary — the one segment
/// runner both the fleet and the supervisor drive sessions with. Runs
/// eagerly: the fleet schedules the boundary at `now + elapsed` and
/// commits only when it fires, so a crash before the boundary discards
/// the uncommitted work, exactly like a real shard losing its
/// in-memory state. A panic restarts the session from `r.committed`
/// (fresh when there is none) after the doubling backoff, until the
/// restart budget runs out.
pub(crate) fn advance_segment(
    cfg: &SupervisorConfig,
    workload: &FleetWorkload<'_>,
    r: &mut Running,
) -> (f64, SegEnd) {
    let every = cfg.checkpoint_every;
    let step_cost = r.mode.step_cost(cfg.step_ms);
    match workload {
        FleetWorkload::Synthetic { .. } => {
            r.synth_done += 1;
            let end =
                if r.synth_done >= r.synth_total { SegEnd::Finished } else { SegEnd::Boundary };
            (every as f64 * step_cost, end)
        }
        FleetWorkload::Engine { graph, config, factory } => {
            let mut elapsed = 0.0;
            loop {
                // The (re)build runs inside the unwind boundary too: a
                // panicking bot factory costs a restart, not the host.
                let res = catch_unwind(AssertUnwindSafe(|| -> Result<(usize, usize)> {
                    if r.engine.is_none() {
                        let er = EngineRun::start(
                            graph,
                            config,
                            *factory,
                            r.id,
                            r.generation,
                            r.committed.as_ref(),
                        )?;
                        r.engine = Some(er);
                    }
                    let er = r.engine.as_mut().expect("built above");
                    let start = er.steps;
                    let target = (((start / every) + 1) * every).min(cfg.max_steps);
                    let (session, bot) = (&mut er.session, &mut *er.bot);
                    er.steps = drive(session, bot, start, target, cfg.tick_ms, |_, _| {})?;
                    Ok((start, target))
                }));
                match res {
                    Ok(Ok((start, target))) => {
                        let er = r.engine.as_ref().expect("segment ran");
                        elapsed += (er.steps - start) as f64 * step_cost;
                        let done = er.session.state().is_over()
                            || er.steps < target
                            || er.steps >= cfg.max_steps;
                        return (elapsed, if done { SegEnd::Finished } else { SegEnd::Boundary });
                    }
                    Ok(Err(e)) => return (elapsed, SegEnd::Failed { reason: e.to_string() }),
                    Err(payload) => {
                        let reason = panic_reason(payload);
                        if r.restarts >= cfg.restart_budget {
                            return (elapsed, SegEnd::GaveUp { restarts: r.restarts, reason });
                        }
                        r.restarts += 1;
                        r.generation += 1;
                        r.resumed_at_step = r.committed.as_ref().map_or(0, |c| c.step as usize);
                        elapsed += restart_backoff(cfg.restart_backoff_ms, r.restarts);
                        r.engine = None;
                    }
                }
            }
        }
    }
}

/// The boundary commit of `r`: the record the store keeps, built here
/// and nowhere else. An engine session's payload is its checkpoint text,
/// rendered once for both the payload and the digest; when `stamped`
/// (a store is configured) it carries the trace context of
/// `(r.id, r.generation)` under `seed`, whose line is digest-exempt. A
/// synthetic session's payload is its segment counter, with a seeded
/// digest stand-in.
pub(crate) fn make_commit(
    seed: u64,
    cfg: &SupervisorConfig,
    r: &Running,
    stamped: bool,
) -> CheckpointRecord {
    let stamp = stamped.then(|| {
        let ctx = TraceCtx::mint(seed, r.id as u64, r.generation);
        (ctx.trace_id, ctx.span_id)
    });
    let (step, digest, payload) = match &r.engine {
        Some(er) => {
            let mut save = er.session.checkpoint();
            save.trace = stamp;
            let (text, digest) = save.render();
            (er.steps, digest, text.into_bytes())
        }
        None => (
            r.synth_done as usize * cfg.checkpoint_every,
            mix(seed ^ SALT_SYNTH ^ mix(r.id as u64) ^ mix(u64::from(r.synth_done))),
            r.synth_done.to_le_bytes().to_vec(),
        ),
    };
    let (trace_id, span_id) = stamp.unwrap_or((0, 0));
    CheckpointRecord {
        session: r.id as u64,
        step: step as u64,
        generation: r.generation,
        digest,
        trace_id,
        span_id,
        payload,
    }
}

/// The fleet's discrete-event simulation state.
struct FleetSim<'a> {
    cfg: &'a FleetConfig,
    workload: &'a FleetWorkload<'a>,
    router: FleetRouter,
    shards: Vec<Shard>,
    next_shard_id: u32,
    events: EventQueue<u64, EvKind>,
    outcomes: Vec<Option<SessionOutcome>>,
    drains_deferred: u64,
    queue_waits: Vec<f64>,
    migrations: Vec<MigrationRecord>,
    scale_events: Vec<ScaleEvent>,
    pending_verify: Vec<PendingVerify>,
    fleet_slo: SupSlo,
    /// Per-shard causal journey logs ([`FleetConfig::journeys`]).
    journey: JourneyRecorder,
    makespan_ms: f64,
    last_scale_ms: f64,
    up_streak: u32,
    down_streak: u32,
    /// The durable checkpoint store, when configured.
    store: Option<DurableStore>,
    /// Simulator-side ground truth: session id -> latest acknowledged
    /// WAL seq. Used after a power loss to distinguish "no acked
    /// checkpoint" sheds from provably-corrupt-record losses.
    acked: BTreeMap<usize, u64>,
    scrubs: Vec<ScrubReport>,
    cold_resumed: usize,
    stale_resumes: usize,
    lost: Vec<LostSession>,
    recovered_cold: usize,
}

impl FleetSim<'_> {
    fn push_ms(&mut self, t_ms: f64, kind: EvKind) {
        self.events.push(us_from_ms(t_ms), kind);
    }

    fn sidx(&self, id: u32) -> Option<usize> {
        self.shards.iter().position(|s| s.id == id)
    }

    /// Any shard still has queued or in-flight work.
    fn busy(&self) -> bool {
        self.shards.iter().any(|s| !s.queue.is_empty() || s.busy_slots() > 0)
    }

    /// Queued plus in-flight sessions across routable shards, as a
    /// fraction of their total capacity (slots + queue). Empty ring
    /// counts as idle.
    fn fleet_occupancy(&self) -> f64 {
        let per_shard = self.cfg.shard.slots + self.cfg.shard.queue_capacity;
        let mut load = 0usize;
        let mut cap = 0usize;
        for s in &self.shards {
            if !s.alive || s.draining {
                continue;
            }
            load += s.load();
            cap += per_shard;
        }
        if cap == 0 {
            0.0
        } else {
            load as f64 / cap as f64
        }
    }

    /// The causal identity of `(session, generation)` under the fleet's
    /// router seed — the same pure mint every boundary re-derives.
    fn ctx(&self, id: usize, generation: u32) -> TraceCtx {
        TraceCtx::mint(self.cfg.router_seed, id as u64, generation)
    }

    /// Records one journey event on `shard`'s log (`None` = the fleet
    /// itself, e.g. a shed with no routable shard). Single branch when
    /// journeys are off.
    fn journey_event(
        &mut self,
        shard: Option<u32>,
        t_ms: f64,
        id: usize,
        generation: u32,
        kind: JourneyEventKind,
    ) {
        if self.journey.is_enabled() {
            let ctx = self.ctx(id, generation);
            self.journey.record(shard.unwrap_or(u32::MAX), t_ms, id as u64, ctx, kind);
        }
    }

    /// Terminal shed: one accounted outcome, fleet- and (when
    /// attributable) shard-level SLO bad events. `generation` is the
    /// session's causal generation at the moment it was shed.
    fn shed(&mut self, sidx: Option<usize>, id: usize, generation: u32, t_ms: f64, reason: &str) {
        self.outcomes[id] = Some(SessionOutcome::Shed { reason: reason.into() });
        self.fleet_slo.on_shed(t_ms);
        self.makespan_ms = self.makespan_ms.max(t_ms);
        let sid = sidx.map(|i| self.shards[i].id);
        self.journey_event(
            sid,
            t_ms,
            id,
            generation,
            JourneyEventKind::Shed { reason: reason.into() },
        );
        if let Some(i) = sidx {
            let s = &mut self.shards[i];
            s.shed += 1;
            s.slo.on_shed(t_ms);
        }
    }

    fn on_arrival(&mut self, id: usize, t_ms: f64) {
        self.fleet_slo.on_arrival(t_ms);
        self.makespan_ms = self.makespan_ms.max(t_ms);
        let Some(dest) = self.router.route(id as u64) else {
            self.shed(None, id, 0, t_ms, "no shard available");
            return;
        };
        let i = self.sidx(dest).expect("routable shard exists");
        self.enqueue(i, QEntry { id, arrival_ms: t_ms, mode: ServiceMode::Full, resume: None }, t_ms);
    }

    /// Admits `q` to shard `i`'s queue: counts the routed arrival,
    /// sheds on a full queue, picks the service mode per the shard's
    /// ladder, and dispatches as far as idle slots allow.
    fn enqueue(&mut self, i: usize, mut q: QEntry, now: f64) {
        let cfg = self.cfg;
        // Fresh (non-resume) entries open queue time on this shard's
        // journey log; resumed entries already carry a MigratedIn /
        // ColdResume event from their originating boundary.
        if q.resume.is_none() {
            let sid = self.shards[i].id;
            self.journey_event(Some(sid), now, q.id, 0, JourneyEventKind::Enqueued);
        }
        let verdict = {
            let s = &mut self.shards[i];
            s.routed += 1;
            s.slo.on_arrival(now);
            if s.queue.len() >= cfg.shard.queue_capacity {
                None
            } else {
                Some(s.slo.admission_mode(&cfg.shard, s.queue.len(), now))
            }
        };
        let Some(mode) = verdict else {
            let reason = match &q.resume {
                Some((r, _)) if r.cold => "cold restart target queue full",
                Some(_) => "migration target queue full",
                None => "queue full",
            };
            self.shed(Some(i), q.id, q.generation(), now, reason);
            return;
        };
        q.mode = mode;
        let s = &mut self.shards[i];
        s.queue.push_back(q);
        s.peak_queue_depth = s.peak_queue_depth.max(s.queue.len());
        self.try_dispatch(i, now);
    }

    /// Serves shard `i`'s queue into idle slots. A head whose wait blew
    /// the deadline is shed without consuming the slot.
    fn try_dispatch(&mut self, i: usize, now: f64) {
        let cfg = self.cfg;
        loop {
            let (slot_idx, q, start) = {
                let s = &mut self.shards[i];
                if !s.alive {
                    return;
                }
                let Some(slot_idx) = s.slots.iter().position(|sl| sl.run.is_none()) else {
                    return;
                };
                let Some(q) = s.queue.pop_front() else { return };
                (slot_idx, q, now.max(s.stalled_until_ms))
            };
            let wait = start - q.arrival_ms;
            if wait > cfg.shard.queue_deadline_ms {
                self.shed(Some(i), q.id, q.generation(), start, "queue deadline exceeded");
                continue;
            }
            self.queue_waits.push(wait);
            self.fleet_slo.on_wait(start, wait);
            self.shards[i].slo.on_wait(start, wait);
            self.dispatch(i, slot_idx, q, start);
        }
    }

    /// Puts `q` into a slot: warm (fresh full-service admissions only,
    /// against the shard's *current* fault plan), build or restore the
    /// engine, check the migration handoff, and start the first segment.
    fn dispatch(&mut self, i: usize, slot_idx: usize, q: QEntry, start: f64) {
        let cfg = self.cfg;
        let wl = self.workload;
        let gen_now = q.generation();
        let QEntry { id, mode, resume, .. } = q;
        let sid = self.shards[i].id;
        self.shards[i].admitted += 1;
        self.journey_event(
            Some(sid),
            start,
            id,
            gen_now,
            JourneyEventKind::Admitted { generation: gen_now },
        );
        let mut t = start;
        let resuming = resume.is_some();
        let (mut r, mig_idx) = resume.unwrap_or_else(|| (Running::fresh(id, mode), None));
        r.mode = mode;
        if resuming {
            self.shards[i].migrated_in += 1;
            r.resumed_at_step = r.committed.as_ref().map_or(0, |c| c.step as usize);
        } else if mode == ServiceMode::Full {
            let s = &mut self.shards[i];
            let w = warm_session(id, t, &cfg.shard, &s.faults, &mut s.breaker);
            t = w.t;
            s.warm_attempted += w.attempted;
            s.warm_skipped += w.skipped;
        } else {
            self.shards[i].degraded += 1;
            r.was_degraded = true;
            self.journey_event(
                Some(sid),
                start,
                id,
                gen_now,
                JourneyEventKind::DegradedTo { mode: format!("{mode:?}") },
            );
        }
        if let FleetWorkload::Synthetic { mean_segments } = wl {
            r.synth_done = (r.resumed_at_step / cfg.shard.checkpoint_every) as u32;
            r.synth_total = synth_total(cfg.router_seed, *mean_segments, id);
        }
        // A fresh session's engine is built by `advance_segment`, inside
        // its unwind boundary. A resuming one is built here, under its
        // own, so the hand-in can be checked; when that build panics,
        // `advance_segment` rebuilds it as a restart.
        if let (FleetWorkload::Engine { graph, config, factory }, Some(c)) = (wl, &r.committed) {
            let generation = r.generation;
            let built = catch_unwind(AssertUnwindSafe(|| {
                EngineRun::start(graph, config, *factory, id, generation, Some(c))
            }));
            match built {
                Ok(Ok(er)) => {
                    if let Some(mi) = mig_idx {
                        self.migrations[mi].handoff_ok =
                            Some(er.session.checkpoint().digest() == c.digest);
                        let shadow = catch_unwind(AssertUnwindSafe(|| {
                            let save = parse_payload(&c.payload)?;
                            let mut bot = factory(id, generation);
                            resume_session(
                                graph.clone(),
                                config.clone(),
                                &save,
                                &mut *bot,
                                c.step as usize,
                                cfg.shard.max_steps,
                                cfg.shard.tick_ms,
                            )
                        }));
                        if let Ok(Ok(run)) = shadow {
                            self.pending_verify.retain(|p| p.session != id);
                            self.pending_verify.push(PendingVerify {
                                session: id,
                                generation,
                                mig_idx: mi,
                                tail: run.log.events().to_vec(),
                            });
                        }
                    }
                    r.engine = Some(er);
                }
                Ok(Err(e)) => {
                    self.finish(i, r, SegEnd::Failed { reason: e.to_string() }, t);
                    return;
                }
                Err(_) => {}
            }
        }
        self.start_segment(i, slot_idx, r, t);
    }

    /// Runs one segment eagerly and schedules its boundary event.
    fn start_segment(&mut self, i: usize, slot_idx: usize, mut r: Running, t: f64) {
        let cfg = self.cfg;
        let wl = self.workload;
        let (gen_before, restarts_before) = (r.generation, r.restarts);
        let (elapsed, end) = advance_segment(&cfg.shard, wl, &mut r);
        // Every in-segment restart bumped the generation. The last one
        // is carried by the segment's boundary or terminal event; the
        // ones before it died unseen, so each gets a `Recovered` event
        // or the next generation's parent span would be missing.
        for g in gen_before + 1..r.generation {
            let kind = JourneyEventKind::Recovered {
                resumed_at_step: r.resumed_at_step as u64,
                restarts: restarts_before + (g - gen_before),
            };
            let sid = self.shards[i].id;
            self.journey_event(Some(sid), t, r.id, g, kind);
        }
        let due = t + elapsed;
        let (sid, token) = {
            let s = &mut self.shards[i];
            let slot = &mut s.slots[slot_idx];
            slot.token += 1;
            slot.due_ms = due;
            slot.run = Some(r);
            slot.pending = Some(end);
            (s.id, slot.token)
        };
        self.push_ms(due, EvKind::Seg { shard: sid, slot: slot_idx, token });
    }

    /// A segment-boundary event fired.
    fn on_seg(&mut self, shard_id: u32, slot_idx: usize, token: u64, t_us: u64) {
        let Some(i) = self.sidx(shard_id) else { return };
        let defer = {
            let s = &self.shards[i];
            if !s.alive {
                return;
            }
            let slot = &s.slots[slot_idx];
            if slot.token != token || slot.run.is_none() {
                return;
            }
            if us_from_ms(slot.due_ms) > t_us { Some(slot.due_ms) } else { None }
        };
        if let Some(due) = defer {
            // A stall pushed the boundary out from under this event;
            // chase it (same token — the slot state is still ours).
            self.push_ms(due, EvKind::Seg { shard: shard_id, slot: slot_idx, token });
            return;
        }
        let (mut r, end, due) = {
            let slot = &mut self.shards[i].slots[slot_idx];
            (
                slot.run.take().expect("checked above"),
                slot.pending.take().expect("pending set with run"),
                slot.due_ms,
            )
        };
        match end {
            SegEnd::Boundary => {
                let stamped = self.store.is_some();
                r.committed =
                    Some(make_commit(self.cfg.router_seed, &self.cfg.shard, &r, stamped));
                let seq = self.persist_commit(&r);
                if self.journey.is_enabled() {
                    let (step, digest) = {
                        let c = r.committed.as_ref().expect("just committed");
                        (c.step, c.digest)
                    };
                    let sid = self.shards[i].id;
                    self.journey_event(
                        Some(sid),
                        due,
                        r.id,
                        r.generation,
                        JourneyEventKind::CheckpointPersisted { step, digest, durable_seq: seq },
                    );
                }
                if self.shards[i].draining {
                    let reason = self.shards[i].drain_reason;
                    self.migrate(i, r, due, reason);
                    self.try_dispatch(i, due);
                } else {
                    self.start_segment(i, slot_idx, r, due);
                }
            }
            end => {
                self.finish(i, r, end, due);
                self.try_dispatch(i, due);
            }
        }
    }

    /// Terminal accounting for a session that ended (not shed) on shard
    /// `i` — and the replay-verification verdict for its last migration.
    fn finish(&mut self, i: usize, r: Running, end: SegEnd, t: f64) {
        self.makespan_ms = self.makespan_ms.max(t);
        let outcome = {
            let s = &mut self.shards[i];
            s.restarts += u64::from(r.restarts);
            match end {
                SegEnd::Finished => {
                    if r.restarts == 0 && r.hops == 0 && !r.cold {
                        s.completed += 1;
                        SessionOutcome::Completed
                    } else {
                        s.recovered += 1;
                        SessionOutcome::Recovered {
                            resumed_at_step: r.resumed_at_step,
                            restarts: r.restarts,
                        }
                    }
                }
                SegEnd::Failed { reason } => {
                    s.failed += 1;
                    SessionOutcome::Failed { reason }
                }
                SegEnd::GaveUp { restarts, reason } => {
                    s.gave_up += 1;
                    SessionOutcome::GaveUp { restarts, reason }
                }
                SegEnd::Boundary => unreachable!("boundary is not terminal"),
            }
        };
        if let Some(pos) = self.pending_verify.iter().position(|p| p.session == r.id) {
            let p = self.pending_verify.swap_remove(pos);
            // Only a clean finish of the *same* incarnation can be
            // compared against the shadow replay; a later restart or
            // hop supersedes the prediction (verdict stays None).
            if p.generation == r.generation && replay_comparable(&outcome) {
                if let Some(er) = &r.engine {
                    self.migrations[p.mig_idx].verified =
                        Some(er.session.log().events() == p.tail.as_slice());
                }
            }
        }
        if r.cold && matches!(outcome, SessionOutcome::Recovered { .. }) {
            self.recovered_cold += 1;
        }
        if self.journey.is_enabled() {
            let sid = self.shards[i].id;
            let kind = match &outcome {
                SessionOutcome::Completed => {
                    let steps = r.engine.as_ref().map_or_else(
                        || u64::from(r.synth_done) * self.cfg.shard.checkpoint_every as u64,
                        |er| er.steps as u64,
                    );
                    JourneyEventKind::Completed { steps }
                }
                SessionOutcome::Recovered { resumed_at_step, restarts } => {
                    JourneyEventKind::RecoveredEnd {
                        resumed_at_step: *resumed_at_step as u64,
                        restarts: *restarts,
                    }
                }
                SessionOutcome::Failed { reason } => {
                    JourneyEventKind::Failed { reason: reason.clone() }
                }
                SessionOutcome::GaveUp { restarts, reason } => {
                    JourneyEventKind::GaveUp { restarts: *restarts, reason: reason.clone() }
                }
                SessionOutcome::Shed { .. } => unreachable!("sheds go through shed()"),
            };
            self.journey_event(Some(sid), t, r.id, r.generation, kind);
        }
        self.outcomes[r.id] = Some(outcome);
    }

    /// Hands a checkpointed session to the shard the router now picks.
    fn migrate(&mut self, from_idx: usize, mut r: Running, now: f64, reason: MigrationReason) {
        let c = r.committed.as_ref().expect("migrate requires a committed checkpoint");
        let (step, digest) = (c.step, c.digest);
        let Some(dest) = self.router.route(r.id as u64) else {
            self.shed(Some(from_idx), r.id, r.generation, now, "no shard available for migration");
            return;
        };
        let from_id = self.shards[from_idx].id;
        self.shards[from_idx].migrated_out += 1;
        let di = self.sidx(dest).expect("routable shard exists");
        let mi = self.migrations.len();
        // The handoff carries the *resuming* generation's identity; its
        // parent span is the generation that checkpointed, so the chain
        // survives the shard change.
        let hand = self.ctx(r.id, r.generation + 1);
        self.migrations.push(MigrationRecord {
            session: r.id,
            from: from_id,
            to: dest,
            at_ms: now,
            resumed_at_step: step as usize,
            reason,
            checkpoint_digest: digest,
            handoff_ok: None,
            verified: None,
            trace_id: hand.trace_id,
            span_id: hand.span_id,
        });
        self.journey_event(
            Some(from_id),
            now,
            r.id,
            r.generation,
            JourneyEventKind::MigratedOut { to: dest, resumed_at_step: step },
        );
        self.journey_event(
            Some(dest),
            now,
            r.id,
            r.generation + 1,
            JourneyEventKind::MigratedIn { from: from_id },
        );
        r.engine = None;
        r.generation += 1;
        r.hops += 1;
        let q = QEntry { id: r.id, arrival_ms: now, mode: r.mode, resume: Some((r, Some(mi))) };
        self.enqueue(di, q, now);
    }

    fn on_fault(&mut self, fi: usize) {
        let f = self.cfg.faults[fi];
        let t_ms = f.at_ms;
        let Some(i) = self.sidx(f.shard) else { return };
        if !self.shards[i].alive {
            return;
        }
        match f.kind {
            ShardFaultKind::Crash => self.crash(i, t_ms),
            ShardFaultKind::Stall { duration_ms } => {
                let s = &mut self.shards[i];
                s.stalled_until_ms = s.stalled_until_ms.max(t_ms + duration_ms);
                for slot in &mut s.slots {
                    if slot.run.is_some() {
                        slot.due_ms += duration_ms;
                    }
                }
            }
            ShardFaultKind::DegradedLink { loss } => {
                let s = &mut self.shards[i];
                s.faults = s.faults.with_loss(loss).expect("validated loss rate");
            }
        }
    }

    /// The failure-domain event: the shard leaves the ring, in-flight
    /// sessions migrate from their last committed checkpoint (or are
    /// shed, accounted, if they never reached one), and the queue
    /// re-routes. Slot tokens bump so in-flight segment events die.
    fn crash(&mut self, i: usize, t_ms: f64) {
        let sid = self.shards[i].id;
        self.router.remove_shard(sid);
        let (running, queued) = {
            let s = &mut self.shards[i];
            s.alive = false;
            s.crashed = true;
            s.draining = true;
            s.drain_reason = MigrationReason::Crash;
            let mut running = Vec::new();
            for slot in &mut s.slots {
                slot.token += 1;
                slot.pending = None;
                if let Some(r) = slot.run.take() {
                    running.push(r);
                }
            }
            (running, std::mem::take(&mut s.queue))
        };
        for r in running {
            self.journey_event(Some(sid), t_ms, r.id, r.generation, JourneyEventKind::Crashed);
            if r.committed.is_some() {
                self.migrate(i, r, t_ms, MigrationReason::Crash);
            } else {
                self.shed(Some(i), r.id, r.generation, t_ms, "shard crashed before first checkpoint");
            }
        }
        for q in queued {
            match self.router.route(q.id as u64) {
                Some(dest) => {
                    let di = self.sidx(dest).expect("routable shard exists");
                    self.enqueue(di, q, t_ms);
                }
                None => self.shed(Some(i), q.id, q.generation(), t_ms, "no shard available"),
            }
        }
    }

    /// Writes the session's fresh boundary commit through the durable
    /// store (when configured) and records the acknowledged seq as the
    /// simulator's ground truth for power-loss accounting. Returns the
    /// acknowledged WAL seq, `None` when there is no store (or the
    /// flush was not acknowledged).
    fn persist_commit(&mut self, r: &Running) -> Option<u64> {
        let store = self.store.as_mut()?;
        let record = r.committed.as_ref().expect("persist follows make_commit");
        let seq = persist_checkpoint(store, record);
        if let Some(seq) = seq {
            self.acked.insert(r.id, seq);
        }
        seq
    }

    /// The whole-fleet power loss: every shard loses its queues, slots,
    /// and in-flight work simultaneously; the durable store suffers its
    /// own crash semantics (staged records dropped, possibly a torn
    /// tail); then the fleet cold-restarts — a scrub pass walks the
    /// store, every recoverable session re-enters through the router
    /// from its last intact durable checkpoint, and every session whose
    /// acknowledged record is provably corrupt is shed with the exact
    /// record it died to.
    fn on_power_loss(&mut self, pi: usize) {
        let t_ms = self.cfg.power_loss_at_ms[pi];
        self.makespan_ms = self.makespan_ms.max(t_ms);
        // Phase 1: the lights go out. Collect every live session id —
        // their in-memory state (engines, logs, restart counters,
        // queue positions) is destroyed, not preserved.
        let mut live: Vec<usize> = Vec::new();
        let mut hit: Vec<(u32, usize, u32)> = Vec::new();
        for s in &mut self.shards {
            for slot in &mut s.slots {
                slot.token += 1;
                slot.pending = None;
                if let Some(r) = slot.run.take() {
                    hit.push((s.id, r.id, r.generation));
                    live.push(r.id);
                }
            }
            for q in std::mem::take(&mut s.queue) {
                hit.push((s.id, q.id, q.generation()));
                live.push(q.id);
            }
        }
        for (sid, id, generation) in hit {
            self.journey_event(Some(sid), t_ms, id, generation, JourneyEventKind::PowerLoss);
        }
        live.sort_unstable();
        live.dedup();
        // Stale shadow-replay predictions died with the fleet's memory.
        self.pending_verify.clear();
        let Some(store) = self.store.as_mut() else {
            // Unreachable behind FleetConfig::validate, but account
            // honestly rather than panic if it ever regresses.
            for id in live {
                self.shed(None, id, 0, t_ms, "power loss without durable store");
            }
            return;
        };
        store.power_loss();
        let mut recovery = store.recover();
        self.scrubs.push(recovery.scrub.clone());
        // Phase 2: cold restart. Surviving shards reboot in place (the
        // ring is unchanged — crashed and retired shards stay off it).
        for id in live {
            match recovery.sessions.remove(&(id as u64)) {
                Some(rc) => {
                    self.cold_resumed += 1;
                    if rc.stale {
                        self.stale_resumes += 1;
                    }
                    let from_step = rc.record.step;
                    // Restart and hop counters lived in shard memory;
                    // `cold` pins the outcome to Recovered anyway.
                    let mut r = Running::fresh(id, ServiceMode::Full);
                    r.generation = rc.record.generation + 1;
                    r.cold = true;
                    r.committed = Some(rc.record);
                    match self.router.route(id as u64) {
                        Some(dest) => {
                            // The resuming generation's identity is
                            // re-minted from nothing but the durable
                            // `(session, generation)` — the cold-restart
                            // leg of the causal chain.
                            self.journey_event(
                                Some(dest),
                                t_ms,
                                id,
                                r.generation,
                                JourneyEventKind::ColdResume { from_step, stale: rc.stale },
                            );
                            let di = self.sidx(dest).expect("routable shard exists");
                            let mode = ServiceMode::Full;
                            let q = QEntry { id, arrival_ms: t_ms, mode, resume: Some((r, None)) };
                            self.enqueue(di, q, t_ms);
                        }
                        None => {
                            self.shed(None, id, 0, t_ms, "no shard available after power loss")
                        }
                    }
                }
                None => match self.acked.get(&id) {
                    Some(&seq) => {
                        // The simulator acknowledged this checkpoint as
                        // durable, and the scrub could not produce it:
                        // attribute the loss to the exact corrupt
                        // record (a record the scrub never even saw as
                        // a candidate was destroyed by a torn tail).
                        let kind = recovery
                            .scrub
                            .lost
                            .iter()
                            .find(|c| c.seq == seq)
                            .map_or(CorruptKind::Torn, |c| c.kind);
                        self.lost.push(LostSession { session: id, seq, kind });
                        self.shed(None, id, 0, t_ms, "cold restart: durable checkpoint corrupt");
                    }
                    None => {
                        self.shed(None, id, 0, t_ms, "power loss before first durable checkpoint")
                    }
                },
            }
        }
    }

    /// Takes shard `i` off the ring; queued sessions re-route now,
    /// running ones migrate at their next segment boundary.
    fn drain(&mut self, i: usize, t_ms: f64, reason: MigrationReason) {
        let sid = self.shards[i].id;
        self.router.remove_shard(sid);
        let queued = {
            let s = &mut self.shards[i];
            s.draining = true;
            s.retired = true;
            s.drain_reason = reason;
            std::mem::take(&mut s.queue)
        };
        for q in queued {
            match self.router.route(q.id as u64) {
                Some(dest) => {
                    let di = self.sidx(dest).expect("routable shard exists");
                    self.enqueue(di, q, t_ms);
                }
                None => self.shed(Some(i), q.id, q.generation(), t_ms, "no shard available"),
            }
        }
    }

    /// One controller tick: SLO-drain burning shards, then autoscale on
    /// fleet-wide burn with hysteresis.
    fn on_control(&mut self, t_ms: f64) {
        let cfg = self.cfg;
        // A drain helps only while the surviving shards have headroom
        // to absorb the rerouted queue; when the whole fleet is
        // saturated, every shard burns, and draining one per tick just
        // cascades capacity away (see `max_drain_occupancy`).
        let drains_allowed = self.fleet_occupancy() < cfg.migration.max_drain_occupancy;
        for i in 0..self.shards.len() {
            if !self.shards[i].alive || self.shards[i].draining {
                continue;
            }
            let burn = self.shards[i].slo.worst_burn(t_ms);
            let streak = {
                let s = &mut self.shards[i];
                if burn >= cfg.migration.burn_threshold {
                    s.burn_streak += 1;
                } else {
                    s.burn_streak = 0;
                }
                s.burn_streak
            };
            if streak >= cfg.migration.sustain_ticks && self.router.len() > 1 {
                if !drains_allowed {
                    // Hold the streak: the drain fires on the first
                    // control tick the fleet has headroom again.
                    self.drains_deferred += 1;
                    continue;
                }
                self.shards[i].burn_streak = 0;
                self.drain(i, t_ms, MigrationReason::SloDrain);
            }
        }
        let Some(a) = &cfg.autoscale else { return };
        let burn = self.fleet_slo.worst_burn(t_ms);
        if burn >= a.up_burn {
            self.up_streak += 1;
            self.down_streak = 0;
        } else if burn <= a.down_burn {
            self.down_streak += 1;
            self.up_streak = 0;
        } else {
            self.up_streak = 0;
            self.down_streak = 0;
        }
        let n = self.router.len();
        let cooled = t_ms - self.last_scale_ms >= a.cooldown_ms;
        if self.up_streak >= a.sustain_ticks && n < a.max_shards && cooled {
            self.up_streak = 0;
            self.last_scale_ms = t_ms;
            let id = self.next_shard_id;
            self.next_shard_id += 1;
            self.shards.push(Shard::new(id, cfg));
            self.router.add_shard(id);
            self.scale_events.push(ScaleEvent {
                at_ms: t_ms,
                up: true,
                shard: id,
                shards_after: self.router.len(),
                burn,
            });
        } else if self.down_streak >= a.sustain_ticks && n > a.min_shards && cooled {
            self.down_streak = 0;
            self.last_scale_ms = t_ms;
            let mut pick: Option<usize> = None;
            for i in 0..self.shards.len() {
                let s = &self.shards[i];
                if !s.alive || s.draining {
                    continue;
                }
                pick = Some(match pick {
                    None => i,
                    Some(p) => {
                        let better = s.load() < self.shards[p].load()
                            || (s.load() == self.shards[p].load() && s.id > self.shards[p].id);
                        if better { i } else { p }
                    }
                });
            }
            if let Some(p) = pick {
                let id = self.shards[p].id;
                self.drain(p, t_ms, MigrationReason::ScaleDown);
                self.scale_events.push(ScaleEvent {
                    at_ms: t_ms,
                    up: false,
                    shard: id,
                    shards_after: self.router.len(),
                    burn,
                });
            }
        }
    }
}

/// True for outcomes a shadow replay can be compared against.
fn replay_comparable(outcome: &SessionOutcome) -> bool {
    matches!(outcome, SessionOutcome::Completed | SessionOutcome::Recovered { .. })
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Runs `n_sessions` seeded arrivals through the sharded fleet:
/// consistent-hash routing, per-shard bounded admission with the
/// supervisor's degradation ladder, scheduled shard faults, SLO-driven
/// drains, and (optionally) autoscaling. Deterministic: identical
/// inputs produce an identical [`FleetReport`], which — with its
/// journeys when [`FleetConfig::journeys`] is on — is the fleet's whole
/// account of the run.
pub fn run_fleet(
    workload: &FleetWorkload<'_>,
    cfg: &FleetConfig,
    n_sessions: usize,
    arrivals: &ArrivalPlan,
) -> Result<FleetReport> {
    cfg.validate()?;
    if let FleetWorkload::Synthetic { mean_segments } = workload {
        // `synth_total` draws from `1..=2*mean-1`, which must fit a u32.
        if *mean_segments == 0 || *mean_segments > u32::MAX / 2 {
            return Err(invalid("synthetic mean_segments must be in 1..=u32::MAX / 2"));
        }
    }
    let router = FleetRouter::new(cfg.router_seed, cfg.vnodes, cfg.shards)?;
    let mut sim = FleetSim {
        cfg,
        workload,
        router,
        shards: (0..cfg.shards).map(|i| Shard::new(i, cfg)).collect(),
        next_shard_id: cfg.shards,
        events: EventQueue::new(),
        outcomes: (0..n_sessions).map(|_| None).collect(),
        drains_deferred: 0,
        queue_waits: Vec::new(),
        migrations: Vec::new(),
        scale_events: Vec::new(),
        pending_verify: Vec::new(),
        fleet_slo: SupSlo::new(&Obs::noop(), cfg.shard.slo_config()),
        journey: if cfg.journeys { JourneyRecorder::new() } else { JourneyRecorder::disabled() },
        makespan_ms: 0.0,
        last_scale_ms: f64::NEG_INFINITY,
        up_streak: 0,
        down_streak: 0,
        store: cfg.store.map(DurableStore::new),
        acked: BTreeMap::new(),
        scrubs: Vec::new(),
        cold_resumed: 0,
        stale_resumes: 0,
        lost: Vec::new(),
        recovered_cold: 0,
    };
    for (fi, f) in cfg.faults.iter().enumerate() {
        sim.push_ms(f.at_ms, EvKind::Fault(fi));
    }
    for (pi, &t) in cfg.power_loss_at_ms.iter().enumerate() {
        sim.push_ms(t, EvKind::PowerLoss(pi));
    }
    sim.push_ms(cfg.control_interval_ms, EvKind::Control);

    let times = arrivals.arrival_times(n_sessions);
    let mut next = 0usize;
    loop {
        let ev_t = sim.events.peek_at();
        let arr_t = times.get(next).map(|&t| us_from_ms(t));
        let fire_event = match (ev_t, arr_t) {
            // Events fire before arrivals at equal timestamps, so a
            // crash at t races no arrival at t — deterministically.
            (Some(e), Some(a)) => e <= a,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        if fire_event {
            let ev = sim.events.pop().expect("peeked");
            match ev.payload {
                EvKind::Seg { shard, slot, token } => sim.on_seg(shard, slot, token, ev.at),
                EvKind::Fault(fi) => sim.on_fault(fi),
                EvKind::PowerLoss(pi) => sim.on_power_loss(pi),
                EvKind::Control => {
                    let t_ms = ev.at as f64 / 1000.0;
                    sim.on_control(t_ms);
                    if next < times.len() || sim.busy() {
                        sim.push_ms(t_ms + cfg.control_interval_ms, EvKind::Control);
                    }
                }
            }
        } else {
            let t = times[next];
            sim.on_arrival(next, t);
            next += 1;
        }
    }

    let makespan_ms = sim.makespan_ms.max(times.last().copied().unwrap_or(0.0));
    let FleetSim {
        router,
        shards,
        outcomes,
        queue_waits,
        drains_deferred,
        migrations,
        scale_events,
        fleet_slo,
        journey,
        store,
        scrubs,
        cold_resumed,
        stale_resumes,
        lost,
        recovered_cold,
        ..
    } = sim;
    let (alerts, ledgers) = fleet_slo.finish(makespan_ms);

    let rows: Vec<ShardReport> = shards
        .into_iter()
        .map(|s| {
            let (shard_alerts, _ledgers) = s.slo.finish(makespan_ms);
            ShardReport {
                shard: s.id,
                routed: s.routed,
                admitted: s.admitted,
                shed: s.shed,
                completed: s.completed,
                recovered: s.recovered,
                failed: s.failed,
                gave_up: s.gave_up,
                degraded: s.degraded,
                migrated_in: s.migrated_in,
                migrated_out: s.migrated_out,
                restarts: s.restarts,
                warm_attempted: s.warm_attempted,
                warm_skipped: s.warm_skipped,
                peak_queue_depth: s.peak_queue_depth,
                crashed: s.crashed,
                retired: s.retired,
                breaker: s.breaker.stats(),
                alerts: shard_alerts,
            }
        })
        .collect();
    let shard_alerts = AlertTimeline::merged(rows.iter().map(|r| &r.alerts));
    let breaker: BreakerStats = rows.iter().map(|r| r.breaker).sum();
    let outcomes: Vec<SessionOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every offered session is accounted"))
        .collect();
    let mut report = FleetReport {
        sessions: n_sessions,
        completed: 0,
        recovered: 0,
        failed: 0,
        gave_up: 0,
        shed: 0,
        recovered_cold,
        lost_durable: lost.len(),
        degraded: rows.iter().map(|r| r.degraded).sum(),
        restarts: rows.iter().map(|r| r.restarts).sum(),
        drains_deferred,
        migrations,
        scale_events,
        shards: rows,
        routable_shards: router.len(),
        makespan_ms,
        queue_wait: LatencySummary::from_samples_ms(&queue_waits),
        outcomes,
        breaker,
        alerts,
        ledgers,
        shard_alerts,
        durability: store.as_ref().map(|s| DurabilityReport {
            store: s.stats(),
            scrubs,
            cold_resumed,
            stale_resumes,
            lost,
        }),
        journeys: vgbl_obs::stitch(&journey.into_logs()),
    };
    let (completed, failed, shed, recovered, gave_up) = report.outcome_counts();
    report.completed = completed;
    report.failed = failed;
    report.shed = shed;
    report.recovered = recovered;
    report.gave_up = gave_up;
    report.debug_assert_consistent();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bot::{Bot, GuidedBot};
    use crate::fixtures::{fix_the_computer, FRAME};
    use crate::input::InputEvent;
    use crate::supervisor::{LadderPolicy, SloLadderConfig};
    use vgbl_stream::{BreakerConfig, LoadSpike, RetryPolicy};

    fn config() -> SessionConfig {
        SessionConfig::for_frame(FRAME.0, FRAME.1)
    }

    fn quiet<T>(f: impl FnOnce() -> T) -> T {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    /// Panics after `at` decisions, but only on incarnation 0.
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

    #[test]
    fn router_is_deterministic_and_remaps_minimally() {
        let a = FleetRouter::new(11, 32, 8).unwrap();
        let b = FleetRouter::new(11, 32, 8).unwrap();
        let keys: Vec<u64> = (0..10_000).collect();
        for &k in &keys {
            assert_eq!(a.route(k), b.route(k), "same build, same routes");
        }
        // Every shard owns a reasonable share.
        let mut counts = [0usize; 8];
        for &k in &keys {
            counts[a.route(k).unwrap() as usize] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(c > 0, "shard {s} owns no keys: {counts:?}");
        }
        // Removing one shard re-homes only the keys it owned.
        let mut c = a.clone();
        c.remove_shard(3);
        for &k in &keys {
            let before = a.route(k).unwrap();
            let after = c.route(k).unwrap();
            if before != 3 {
                assert_eq!(before, after, "key {k} moved without cause");
            } else {
                assert_ne!(after, 3, "key {k} still routes to a removed shard");
            }
        }
        assert!(FleetRouter::new(1, 0, 4).is_err());
        assert!(FleetRouter::new(1, 4, 0).is_err());
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let ok = FleetConfig::default();
        assert!(ok.validate().is_ok());
        assert!(FleetConfig { shards: 0, ..ok.clone() }.validate().is_err());
        assert!(FleetConfig { vnodes: 0, ..ok.clone() }.validate().is_err());
        assert!(FleetConfig { control_interval_ms: 0.0, ..ok.clone() }.validate().is_err());
        let never = SupervisorConfig { checkpoint_every: 0, ..SupervisorConfig::default() };
        assert!(FleetConfig { shard: never, ..ok.clone() }.validate().is_err());
        let workload = FleetWorkload::Synthetic { mean_segments: 2 };
        let arrivals = ArrivalPlan::new(1, 10.0).unwrap();
        // Below the clock's 1 µs resolution the control tick never
        // advanced, and `run_fleet` never returned.
        let sub_tick = FleetConfig { control_interval_ms: 1e-4, ..ok.clone() };
        assert!(sub_tick.validate().is_err());
        assert!(run_fleet(&workload, &sub_tick, 5, &arrivals).is_err());
        // A per-shard store was silently ignored: no durability, no error.
        let shard_store = SupervisorConfig {
            store: Some(vgbl_store::StoreConfig::default()),
            ..SupervisorConfig::default()
        };
        let ignored = FleetConfig { shard: shard_store, ..ok.clone() };
        let err = ignored.validate().expect_err("a per-shard store is rejected");
        assert!(err.to_string().contains("FleetConfig::store"), "{err}");
        // Every shard builds its breaker from this config: an invalid one
        // is an error up front, not a panic inside `run_fleet`.
        let no_window = SupervisorConfig {
            breaker: BreakerConfig { window: 0, ..BreakerConfig::default() },
            ..SupervisorConfig::default()
        };
        let bad_breaker = FleetConfig { shard: no_window, ..ok.clone() };
        assert!(bad_breaker.validate().is_err());
        assert!(run_fleet(&workload, &bad_breaker, 4, &arrivals).is_err());
        // The warm phase schedules its retries with this policy: a
        // negative deadline would run the simulated clock backwards.
        let backwards = SupervisorConfig {
            retry: RetryPolicy {
                base_timeout_ms: -1e6,
                max_timeout_ms: -1e6,
                ..RetryPolicy::default()
            },
            ..SupervisorConfig::default()
        };
        let bad_retry = FleetConfig { shard: backwards, ..ok.clone() };
        assert!(bad_retry.validate().is_err());
        assert!(run_fleet(&workload, &bad_retry, 4, &arrivals).is_err());
        let bad_stall = FleetConfig {
            faults: vec![ShardFault {
                at_ms: 10.0,
                shard: 0,
                kind: ShardFaultKind::Stall { duration_ms: -1.0 },
            }],
            ..ok.clone()
        };
        assert!(bad_stall.validate().is_err());
        let bad_loss = FleetConfig {
            faults: vec![ShardFault {
                at_ms: 10.0,
                shard: 0,
                kind: ShardFaultKind::DegradedLink { loss: 1.5 },
            }],
            ..ok.clone()
        };
        assert!(bad_loss.validate().is_err());
        let bad_scale = FleetConfig {
            autoscale: Some(AutoscaleConfig { min_shards: 0, ..AutoscaleConfig::default() }),
            ..ok.clone()
        };
        assert!(bad_scale.validate().is_err());
        let inverted = FleetConfig {
            autoscale: Some(AutoscaleConfig {
                up_burn: 0.5,
                down_burn: 4.0,
                ..AutoscaleConfig::default()
            }),
            ..ok
        };
        assert!(inverted.validate().is_err());
    }

    #[test]
    fn light_engine_load_completes_everyone_unmigrated() {
        let cfg = FleetConfig {
            shards: 2,
            shard: SupervisorConfig {
                queue_capacity: 16,
                slots: 2,
                ..SupervisorConfig::default()
            },
            ..FleetConfig::default()
        };
        let factory = |_: usize, _: u32| -> Box<dyn Bot> { Box::new(GuidedBot::new()) };
        let workload = FleetWorkload::Engine {
            graph: Arc::new(fix_the_computer()),
            config: config(),
            factory: &factory,
        };
        let arrivals = ArrivalPlan::new(3, 10_000.0).unwrap();
        let report = run_fleet(&workload, &cfg, 6, &arrivals).unwrap();
        assert!(report.accounts_exactly(), "{report:?}");
        assert_eq!(report.completed, 6, "{:?}", report.outcomes);
        assert_eq!(report.shed, 0);
        assert_eq!(report.degraded, 0);
        assert!(report.migrations.is_empty());
        assert_eq!(report.routable_shards, 2);
    }

    fn stampede_cfg() -> FleetConfig {
        FleetConfig {
            shards: 4,
            vnodes: 32,
            shard: SupervisorConfig {
                queue_capacity: 8,
                queue_deadline_ms: 1e9,
                slots: 1,
                step_ms: 10.0,
                checkpoint_every: 5,
                ..SupervisorConfig::default()
            },
            control_interval_ms: 100.0,
            ..FleetConfig::default()
        }
    }

    #[test]
    fn synthetic_stampede_with_faults_is_byte_identical_across_reruns() {
        let cfg = FleetConfig {
            faults: vec![
                ShardFault {
                    at_ms: 50.0,
                    shard: 2,
                    kind: ShardFaultKind::DegradedLink { loss: 0.9 },
                },
                ShardFault {
                    at_ms: 100.0,
                    shard: 1,
                    kind: ShardFaultKind::Stall { duration_ms: 200.0 },
                },
                ShardFault { at_ms: 150.0, shard: 0, kind: ShardFaultKind::Crash },
            ],
            autoscale: Some(AutoscaleConfig {
                up_burn: 2.0,
                down_burn: 0.25,
                sustain_ticks: 1,
                cooldown_ms: 300.0,
                min_shards: 2,
                max_shards: 8,
            }),
            ..stampede_cfg()
        };
        let workload = FleetWorkload::Synthetic { mean_segments: 4 };
        let arrivals = ArrivalPlan::new(9, 2.0).unwrap();
        let a = run_fleet(&workload, &cfg, 500, &arrivals).unwrap();
        let b = run_fleet(&workload, &cfg, 500, &arrivals).unwrap();
        assert_eq!(a, b, "same seeds, same faults, same report");
        assert!(a.accounts_exactly());
        assert!(a.shards.iter().any(|s| s.crashed));
    }

    /// Two one-slot shards; shard 0 crashes at 400 ms, after its
    /// sessions have checkpointed.
    fn crash_cfg() -> FleetConfig {
        FleetConfig {
            shards: 2,
            vnodes: 32,
            shard: SupervisorConfig {
                queue_capacity: 16,
                queue_deadline_ms: 1e9,
                slots: 1,
                step_ms: 50.0,
                checkpoint_every: 3,
                ..SupervisorConfig::default()
            },
            faults: vec![ShardFault { at_ms: 400.0, shard: 0, kind: ShardFaultKind::Crash }],
            ..FleetConfig::default()
        }
    }

    #[test]
    fn crash_migrates_checkpointed_sessions_and_verifies_replay() {
        let cfg = crash_cfg();
        let factory = |_: usize, _: u32| -> Box<dyn Bot> { Box::new(GuidedBot::new()) };
        let workload = FleetWorkload::Engine {
            graph: Arc::new(fix_the_computer()),
            config: config(),
            factory: &factory,
        };
        let arrivals = ArrivalPlan::new(5, 1.0).unwrap();
        let report = run_fleet(&workload, &cfg, 10, &arrivals).unwrap();
        assert!(report.accounts_exactly(), "{report:?}");
        assert!(!report.migrations.is_empty(), "crash mid-stampede must migrate someone");
        for m in &report.migrations {
            assert_eq!(m.reason, MigrationReason::Crash);
            assert_eq!(m.from, 0);
            assert_eq!(m.handoff_ok, Some(true), "checkpoint must restore bit-identically");
            assert_ne!(m.verified, Some(false), "replay diverged: {m:?}");
        }
        assert!(
            report.migrations.iter().any(|m| m.verified == Some(true)),
            "at least one migration replay-verified: {:?}",
            report.migrations
        );
        let crashed = report.shards.iter().find(|s| s.shard == 0).unwrap();
        assert!(crashed.crashed);
        assert!(crashed.migrated_out >= report.migrations.len());
        assert_eq!(report.routable_shards, 1);
    }

    #[test]
    fn panicking_factory_on_first_dispatch_costs_a_restart_as_in_the_supervisor() {
        let factory = |id: usize, generation: u32| -> Box<dyn Bot> {
            if (id, generation) == (3, 0) {
                panic!("bot factory failed");
            }
            Box::new(GuidedBot::new())
        };
        let graph = Arc::new(fix_the_computer());
        let workload =
            FleetWorkload::Engine { graph: graph.clone(), config: config(), factory: &factory };
        let cfg = FleetConfig {
            shards: 2,
            shard: SupervisorConfig { queue_capacity: 16, slots: 2, ..SupervisorConfig::default() },
            ..FleetConfig::default()
        };
        let arrivals = ArrivalPlan::new(3, 10_000.0).unwrap();
        let fleet = quiet(|| run_fleet(&workload, &cfg, 6, &arrivals)).unwrap();
        assert!(fleet.accounts_exactly(), "{fleet:?}");
        let (sup, _) = quiet(|| {
            crate::supervisor::run_supervised_cohort(
                graph,
                config(),
                &cfg.shard,
                6,
                &factory,
                &arrivals,
                &Obs::noop(),
                "",
            )
        })
        .unwrap();
        let recovered = SessionOutcome::Recovered { resumed_at_step: 0, restarts: 1 };
        assert_eq!(sup.outcomes[3], recovered);
        assert_eq!(fleet.outcomes[3], recovered);
    }

    #[test]
    fn panicking_factory_at_migration_hand_in_costs_a_restart() {
        // Every crash migration hands its session in as incarnation 1.
        let factory = |_: usize, generation: u32| -> Box<dyn Bot> {
            if generation == 1 {
                panic!("bot factory failed");
            }
            Box::new(GuidedBot::new())
        };
        let workload = FleetWorkload::Engine {
            graph: Arc::new(fix_the_computer()),
            config: config(),
            factory: &factory,
        };
        let arrivals = ArrivalPlan::new(5, 1.0).unwrap();
        let report = quiet(|| run_fleet(&workload, &crash_cfg(), 10, &arrivals)).unwrap();
        assert!(report.accounts_exactly(), "{report:?}");
        assert!(!report.migrations.is_empty(), "crash mid-stampede must migrate someone");
        for m in &report.migrations {
            assert_eq!(m.handoff_ok, None, "the hand-in build panicked: {m:?}");
            let rebuilt =
                SessionOutcome::Recovered { resumed_at_step: m.resumed_at_step, restarts: 1 };
            assert_eq!(report.outcomes[m.session], rebuilt);
        }
        assert!(report.migrations.iter().any(|m| m.resumed_at_step > 0), "{:?}", report.migrations);
    }

    #[test]
    fn crash_before_first_checkpoint_sheds_accountably() {
        let cfg = FleetConfig {
            shards: 2,
            shard: SupervisorConfig {
                queue_capacity: 16,
                queue_deadline_ms: 1e9,
                slots: 1,
                step_ms: 50.0,
                checkpoint_every: 90,
                ..SupervisorConfig::default()
            },
            faults: vec![ShardFault { at_ms: 300.0, shard: 0, kind: ShardFaultKind::Crash }],
            ..FleetConfig::default()
        };
        let factory = |_: usize, _: u32| -> Box<dyn Bot> { Box::new(GuidedBot::new()) };
        let workload = FleetWorkload::Engine {
            graph: Arc::new(fix_the_computer()),
            config: config(),
            factory: &factory,
        };
        let arrivals = ArrivalPlan::new(5, 1.0).unwrap();
        let report = run_fleet(&workload, &cfg, 8, &arrivals).unwrap();
        assert!(report.accounts_exactly(), "{report:?}");
        assert!(
            report.outcomes.iter().any(|o| matches!(
                o,
                SessionOutcome::Shed { reason } if reason == "shard crashed before first checkpoint"
            )),
            "{:?}",
            report.outcomes
        );
        assert!(report.migrations.is_empty(), "nothing checkpointed, nothing to migrate");
    }

    #[test]
    fn stall_delays_but_conserves_outcomes() {
        // Queue seats for the whole burst: a stall must only delay, so
        // eliminate capacity sheds that would otherwise differ.
        let base = FleetConfig {
            shard: SupervisorConfig { queue_capacity: 64, ..stampede_cfg().shard },
            ..stampede_cfg()
        };
        let stalled = FleetConfig {
            faults: vec![ShardFault {
                at_ms: 60.0,
                shard: 0,
                kind: ShardFaultKind::Stall { duration_ms: 500.0 },
            }],
            ..base.clone()
        };
        let workload = FleetWorkload::Synthetic { mean_segments: 3 };
        let arrivals = ArrivalPlan::new(21, 1.0).unwrap();
        let plain = run_fleet(&workload, &base, 40, &arrivals).unwrap();
        let slow = run_fleet(&workload, &stalled, 40, &arrivals).unwrap();
        assert_eq!(plain.completed, slow.completed, "a stall loses nothing");
        assert_eq!(plain.shed, slow.shed);
        assert!(
            slow.makespan_ms >= plain.makespan_ms,
            "stall {:.1} vs plain {:.1}",
            slow.makespan_ms,
            plain.makespan_ms
        );
    }

    #[test]
    fn degraded_link_trips_only_that_shards_breaker() {
        let cfg = FleetConfig {
            shards: 4,
            vnodes: 32,
            shard: SupervisorConfig {
                queue_capacity: 64,
                queue_deadline_ms: 1e9,
                slots: 2,
                step_ms: 5.0,
                ..SupervisorConfig::default()
            },
            faults: vec![ShardFault {
                at_ms: 0.0,
                shard: 2,
                kind: ShardFaultKind::DegradedLink { loss: 0.95 },
            }],
            ..FleetConfig::default()
        };
        let workload = FleetWorkload::Synthetic { mean_segments: 2 };
        let arrivals = ArrivalPlan::new(33, 1.0).unwrap();
        let report = run_fleet(&workload, &cfg, 64, &arrivals).unwrap();
        for s in &report.shards {
            if s.shard == 2 {
                assert!(s.breaker.trips >= 1, "lossy shard must trip its breaker: {s:?}");
            } else {
                assert_eq!(s.breaker.trips, 0, "healthy shard {} tripped: {s:?}", s.shard);
            }
        }
        assert_eq!(report.breaker.trips, report.shards.iter().map(|s| s.breaker.trips).sum());
    }

    #[test]
    fn sustained_burn_drains_a_shard_onto_the_ring() {
        let cfg = FleetConfig {
            shards: 3,
            vnodes: 32,
            shard: SupervisorConfig {
                queue_capacity: 2,
                queue_deadline_ms: 1e9,
                slots: 1,
                step_ms: 20.0,
                ..SupervisorConfig::default()
            },
            control_interval_ms: 50.0,
            migration: MigrationConfig {
                burn_threshold: 1.0,
                sustain_ticks: 1,
                // This test pins the drain mechanics themselves, so the
                // overload guard is out of the picture.
                max_drain_occupancy: f64::INFINITY,
            },
            ..FleetConfig::default()
        };
        let workload = FleetWorkload::Synthetic { mean_segments: 4 };
        let arrivals = ArrivalPlan::new(17, 1.0).unwrap();
        let report = run_fleet(&workload, &cfg, 120, &arrivals).unwrap();
        assert!(report.accounts_exactly(), "{report:?}");
        assert!(
            report.shards.iter().any(|s| s.retired && !s.crashed),
            "an overloaded shard must drain: {:?}",
            report.shards.iter().map(|s| (s.shard, s.retired)).collect::<Vec<_>>()
        );
        assert!(report.routable_shards >= 1, "the drain guard keeps the last shard");
    }

    #[test]
    fn overload_guard_stops_slo_drain_cascade() {
        // Regression: under sustained fleet-wide overload every shard
        // burns at once. The legacy policy drained one burning shard
        // per control tick, rerouting its queue onto equally-burning
        // peers — each drain left the survivors worse until the fleet
        // sat at the router floor with most sessions shed. The
        // occupancy guard must hold those drains instead.
        let mk = |max_drain_occupancy: f64| FleetConfig {
            shards: 4,
            vnodes: 32,
            shard: SupervisorConfig {
                queue_capacity: 2,
                queue_deadline_ms: 1e9,
                slots: 1,
                step_ms: 20.0,
                ..SupervisorConfig::default()
            },
            control_interval_ms: 50.0,
            migration: MigrationConfig {
                burn_threshold: 1.0,
                sustain_ticks: 1,
                max_drain_occupancy,
            },
            ..FleetConfig::default()
        };
        let workload = FleetWorkload::Synthetic { mean_segments: 4 };
        let arrivals = ArrivalPlan::new(17, 1.0).unwrap();
        let slo_drained = |r: &FleetReport| {
            r.shards.iter().filter(|s| s.retired && !s.crashed).count()
        };

        let legacy = run_fleet(&workload, &mk(f64::INFINITY), 160, &arrivals).unwrap();
        assert!(legacy.accounts_exactly(), "{legacy:?}");
        assert!(
            slo_drained(&legacy) >= 2,
            "without the guard the overload cascades through drains: {:?}",
            legacy.shards.iter().map(|s| (s.shard, s.retired)).collect::<Vec<_>>()
        );

        // The guard holds every mid-rush drain (they still fire in the
        // calm tail, once the fleet has headroom — burn windows
        // remember the incident), so the overload is served on four
        // shards instead of a shrinking ring: strictly fewer sheds,
        // strictly more sessions served.
        let guarded = run_fleet(&workload, &mk(0.75), 160, &arrivals).unwrap();
        assert!(guarded.accounts_exactly(), "{guarded:?}");
        assert!(
            guarded.drains_deferred > 0,
            "the saturated fleet must actually exercise the guard: {guarded:?}"
        );
        assert!(
            guarded.shed < legacy.shed,
            "holding drains must shed less than cascading did ({} vs {})",
            guarded.shed,
            legacy.shed
        );
        assert!(
            guarded.completed + guarded.recovered > legacy.completed + legacy.recovered,
            "the guarded fleet serves more of the rush ({}+{} vs {}+{})",
            guarded.completed,
            guarded.recovered,
            legacy.completed,
            legacy.recovered
        );
    }

    #[test]
    fn autoscaler_grows_under_burn_and_retires_in_calm() {
        let slo = SloLadderConfig {
            shed_budget: 0.01,
            wait_target_ms: 400.0,
            wait_budget: 0.05,
            short_ms: 200.0,
            long_ms: 400.0,
            degrade_burn: 1.0,
            conceal_burn: 4.0,
        };
        let cfg = FleetConfig {
            shards: 2,
            vnodes: 32,
            shard: SupervisorConfig {
                queue_capacity: 4,
                queue_deadline_ms: 1e9,
                slots: 1,
                step_ms: 10.0,
                ladder: LadderPolicy::SloDriven(slo),
                ..SupervisorConfig::default()
            },
            control_interval_ms: 100.0,
            migration: MigrationConfig {
                burn_threshold: 1e12,
                sustain_ticks: 10,
                max_drain_occupancy: f64::INFINITY,
            },
            autoscale: Some(AutoscaleConfig {
                up_burn: 2.0,
                down_burn: 0.25,
                sustain_ticks: 1,
                cooldown_ms: 300.0,
                min_shards: 2,
                max_shards: 6,
            }),
            ..FleetConfig::default()
        };
        let workload = FleetWorkload::Synthetic { mean_segments: 3 };
        let arrivals = ArrivalPlan::new(13, 80.0)
            .unwrap()
            .with_spike(LoadSpike::new(0.0, 300.0, 60.0).unwrap());
        let report = run_fleet(&workload, &cfg, 400, &arrivals).unwrap();
        assert!(report.accounts_exactly(), "{report:?}");
        assert!(
            report.scale_events.iter().any(|e| e.up),
            "overload must add shards: {:?}",
            report.scale_events
        );
        assert!(
            report.scale_events.iter().any(|e| !e.up),
            "calm tail must retire shards: {:?}",
            report.scale_events
        );
        for e in &report.scale_events {
            assert!(e.shards_after >= 2 && e.shards_after <= 6, "bounds hold: {e:?}");
        }
        for w in report.scale_events.windows(2) {
            assert!(
                w[1].at_ms - w[0].at_ms >= 300.0 - 1e-9,
                "cooldown violated: {:?}",
                report.scale_events
            );
        }
    }

    #[test]
    fn fleet_sheds_less_than_single_shard_at_equal_capacity() {
        // Same total capacity (4 slots, 16 queue seats), same stampede,
        // same crash instant. The fleet loses one failure domain of
        // four; the single-shard deployment loses everything.
        let sharded = FleetConfig {
            shards: 4,
            vnodes: 32,
            shard: SupervisorConfig {
                queue_capacity: 4,
                queue_deadline_ms: 1e9,
                slots: 1,
                step_ms: 10.0,
                ..SupervisorConfig::default()
            },
            faults: vec![ShardFault { at_ms: 120.0, shard: 1, kind: ShardFaultKind::Crash }],
            ..FleetConfig::default()
        };
        let single = FleetConfig {
            shards: 1,
            vnodes: 32,
            shard: SupervisorConfig {
                queue_capacity: 16,
                queue_deadline_ms: 1e9,
                slots: 4,
                step_ms: 10.0,
                ..SupervisorConfig::default()
            },
            faults: vec![ShardFault { at_ms: 120.0, shard: 0, kind: ShardFaultKind::Crash }],
            ..FleetConfig::default()
        };
        let workload = FleetWorkload::Synthetic { mean_segments: 3 };
        let arrivals = ArrivalPlan::new(29, 2.0).unwrap();
        let a = run_fleet(&workload, &sharded, 300, &arrivals).unwrap();
        let b = run_fleet(&workload, &single, 300, &arrivals).unwrap();
        assert!(a.accounts_exactly() && b.accounts_exactly());
        assert_eq!(b.routable_shards, 0, "the single shard was the whole fleet");
        assert!(
            a.shed < b.shed,
            "failure domains must contain the blast radius: fleet shed {} vs single {}",
            a.shed,
            b.shed
        );
    }

    #[test]
    fn transient_panic_recovers_from_checkpoint_inside_a_segment() {
        let cfg = FleetConfig {
            shards: 2,
            shard: SupervisorConfig {
                queue_capacity: 16,
                slots: 2,
                checkpoint_every: 5,
                ..SupervisorConfig::default()
            },
            ..FleetConfig::default()
        };
        let factory = |_: usize, r: u32| -> Box<dyn Bot> {
            if r == 0 {
                Box::new(CrashOnce { inner: GuidedBot::new(), at: 7, seen: 0 })
            } else {
                Box::new(GuidedBot::new())
            }
        };
        let workload = FleetWorkload::Engine {
            graph: Arc::new(fix_the_computer()),
            config: config(),
            factory: &factory,
        };
        let arrivals = ArrivalPlan::new(3, 5_000.0).unwrap();
        let report = quiet(|| run_fleet(&workload, &cfg, 4, &arrivals).unwrap());
        assert!(report.accounts_exactly(), "{report:?}");
        assert_eq!(report.recovered, 4, "{:?}", report.outcomes);
        assert!(report.restarts >= 4);
        assert!(report
            .outcomes
            .iter()
            .all(|o| matches!(o, SessionOutcome::Recovered { resumed_at_step: 5, restarts: 1 })));
    }

    #[test]
    fn repeated_panics_inside_one_segment_keep_the_journey_chain() {
        struct AlwaysPanics;
        impl Bot for AlwaysPanics {
            fn next_input(&mut self, _: &GameSession) -> Result<Option<InputEvent>> {
                panic!("injected permanent crash");
            }
        }
        let cfg = FleetConfig { journeys: true, ..FleetConfig::default() };
        assert_eq!(cfg.shard.restart_budget, 2, "the default budget allows two restarts");
        let factory = |_: usize, _: u32| -> Box<dyn Bot> { Box::new(AlwaysPanics) };
        let workload = FleetWorkload::Engine {
            graph: Arc::new(fix_the_computer()),
            config: config(),
            factory: &factory,
        };
        let arrivals = ArrivalPlan::new(5, 100.0).unwrap();
        let report = quiet(|| run_fleet(&workload, &cfg, 1, &arrivals).unwrap());
        assert!(
            matches!(report.outcomes[0], SessionOutcome::GaveUp { restarts: 2, .. }),
            "{:?}",
            report.outcomes
        );
        let j = &report.journeys[0];
        assert!(j.chain_ok(), "two restarts in one segment broke the chain: {j:?}");
        let spans: std::collections::BTreeSet<u64> =
            j.events.iter().map(|e| e.ctx.span_id).collect();
        assert_eq!(spans.len(), 3, "generations 0, 1 and 2 each carry an event: {j:?}");
        let recovered: Vec<_> = j
            .events
            .iter()
            .filter_map(|e| match e.kind {
                JourneyEventKind::Recovered { resumed_at_step, restarts } => {
                    Some((resumed_at_step, restarts))
                }
                _ => None,
            })
            .collect();
        assert_eq!(recovered, [(0, 1)], "only the generation that left no event is recovered");
    }

    #[test]
    fn power_loss_without_store_is_rejected() {
        let cfg = FleetConfig { power_loss_at_ms: vec![100.0], ..FleetConfig::default() };
        let workload = FleetWorkload::Synthetic { mean_segments: 2 };
        let arrivals = ArrivalPlan::new(1, 10.0).unwrap();
        assert!(run_fleet(&workload, &cfg, 4, &arrivals).is_err());
    }

    #[test]
    fn synthetic_mean_segments_whose_span_overflows_is_rejected() {
        let arrivals = ArrivalPlan::new(1, 10.0).unwrap();
        let cfg = FleetConfig::default();
        for mean_segments in [0, u32::MAX / 2 + 1, u32::MAX] {
            let workload = FleetWorkload::Synthetic { mean_segments };
            assert!(run_fleet(&workload, &cfg, 4, &arrivals).is_err(), "{mean_segments}");
        }
        // The widest span that fits is accepted (no sessions: a billion
        // segments each would take a while).
        let widest = FleetWorkload::Synthetic { mean_segments: u32::MAX / 2 };
        assert!(run_fleet(&widest, &cfg, 0, &arrivals).is_ok());
    }

    #[test]
    fn power_loss_with_clean_disk_recovers_every_acked_session() {
        use vgbl_store::DiskFaultPlan;
        let cfg = FleetConfig {
            shards: 2,
            vnodes: 32,
            shard: SupervisorConfig {
                queue_capacity: 16,
                queue_deadline_ms: 1e9,
                slots: 2,
                step_ms: 50.0,
                checkpoint_every: 3,
                ..SupervisorConfig::default()
            },
            store: Some(StoreConfig {
                snapshot_every: 4,
                dual_write: false,
                faults: DiskFaultPlan::new(7),
            }),
            power_loss_at_ms: vec![400.0],
            ..FleetConfig::default()
        };
        let factory = |_: usize, _: u32| -> Box<dyn Bot> { Box::new(GuidedBot::new()) };
        let workload = FleetWorkload::Engine {
            graph: Arc::new(fix_the_computer()),
            config: config(),
            factory: &factory,
        };
        let arrivals = ArrivalPlan::new(5, 1.0).unwrap();
        let report = run_fleet(&workload, &cfg, 10, &arrivals).unwrap();
        assert!(report.accounts_exactly(), "{report:?}");
        let d = report.durability.as_ref().expect("store configured");
        assert_eq!(report.lost_durable, 0, "clean disk loses nothing acked: {d:?}");
        assert!(d.lost.is_empty());
        assert!(d.cold_resumed >= 1, "power loss mid-run must cold-resume someone: {d:?}");
        assert!(report.recovered_cold >= 1, "{report:?}");
        assert!(report.recovered_cold <= report.recovered);
        assert_eq!(d.scrubs.len(), 1, "one scrub per power loss");
        assert!(d.scrubs[0].lost.is_empty(), "{:?}", d.scrubs[0]);
        // Every shed is the honest pre-first-checkpoint kind, never a
        // corrupt-record loss.
        for o in &report.outcomes {
            if let SessionOutcome::Shed { reason } = o {
                assert_eq!(reason, "power loss before first durable checkpoint", "{o:?}");
            }
        }
        assert_eq!(d.store.power_losses, 1);
        assert!(d.store.acked_records > 0);
    }

    #[test]
    fn power_loss_with_disk_faults_attributes_every_lost_session() {
        use vgbl_store::DiskFaultPlan;
        let cfg = FleetConfig {
            shards: 3,
            vnodes: 32,
            shard: SupervisorConfig {
                queue_capacity: 32,
                queue_deadline_ms: 1e9,
                slots: 1,
                step_ms: 10.0,
                checkpoint_every: 5,
                ..SupervisorConfig::default()
            },
            store: Some(StoreConfig {
                snapshot_every: 1_000_000,
                dual_write: false,
                faults: DiskFaultPlan::new(0xBAD_D15C)
                    .with_bit_rot(0.7)
                    .unwrap()
                    .with_torn_writes(0.9)
                    .unwrap(),
            }),
            power_loss_at_ms: vec![300.0],
            ..FleetConfig::default()
        };
        let workload = FleetWorkload::Synthetic { mean_segments: 6 };
        let arrivals = ArrivalPlan::new(17, 2.0).unwrap();
        let report = run_fleet(&workload, &cfg, 60, &arrivals).unwrap();
        assert!(report.accounts_exactly(), "{report:?}");
        let d = report.durability.as_ref().expect("store configured");
        assert!(!d.lost.is_empty(), "heavy rot must destroy someone's checkpoint: {d:?}");
        assert_eq!(report.lost_durable, d.lost.len());
        // Every durable loss names a session that was shed with the
        // corrupt-record reason — the attribution is exact, not vague.
        for l in &d.lost {
            assert!(
                matches!(
                    &report.outcomes[l.session],
                    SessionOutcome::Shed { reason } if reason == "cold restart: durable checkpoint corrupt"
                ),
                "lost session {l:?} has outcome {:?}",
                report.outcomes[l.session]
            );
        }
        // And no session was both lost and somehow served afterwards.
        let mut seen = std::collections::BTreeSet::new();
        for l in &d.lost {
            assert!(seen.insert(l.session), "session {l:?} lost twice");
        }
    }

    #[test]
    fn power_loss_dual_write_repairs_single_copy_rot() {
        use vgbl_store::DiskFaultPlan;
        let store_for = |dual: bool| StoreConfig {
            snapshot_every: 1_000_000,
            dual_write: dual,
            faults: DiskFaultPlan::new(0xBAD_D15C).with_bit_rot(0.7).unwrap(),
        };
        let cfg_for = |dual: bool| FleetConfig {
            shards: 3,
            vnodes: 32,
            shard: SupervisorConfig {
                queue_capacity: 32,
                queue_deadline_ms: 1e9,
                slots: 1,
                step_ms: 10.0,
                checkpoint_every: 5,
                ..SupervisorConfig::default()
            },
            store: Some(store_for(dual)),
            power_loss_at_ms: vec![300.0],
            ..FleetConfig::default()
        };
        let workload = FleetWorkload::Synthetic { mean_segments: 6 };
        let arrivals = ArrivalPlan::new(17, 2.0).unwrap();
        let single = run_fleet(&workload, &cfg_for(false), 60, &arrivals).unwrap();
        let dual = run_fleet(&workload, &cfg_for(true), 60, &arrivals).unwrap();
        let ds = single.durability.as_ref().unwrap();
        let dd = dual.durability.as_ref().unwrap();
        assert!(
            dual.lost_durable < single.lost_durable,
            "a redundant copy must repair most single-copy rot: dual {:?} vs single {:?}",
            dd.lost,
            ds.lost
        );
        assert!(
            !dd.scrubs.is_empty() && !dd.scrubs[0].repaired.is_empty(),
            "repairs must be audited: {:?}",
            dd.scrubs
        );
    }

    #[test]
    fn power_loss_fleet_is_byte_identical_across_reruns() {
        use vgbl_store::DiskFaultPlan;
        let cfg = FleetConfig {
            shards: 3,
            vnodes: 32,
            shard: SupervisorConfig {
                queue_capacity: 16,
                queue_deadline_ms: 1e9,
                slots: 1,
                step_ms: 10.0,
                checkpoint_every: 5,
                ..SupervisorConfig::default()
            },
            faults: vec![ShardFault { at_ms: 150.0, shard: 1, kind: ShardFaultKind::Crash }],
            store: Some(StoreConfig {
                snapshot_every: 3,
                dual_write: true,
                faults: DiskFaultPlan::new(99)
                    .with_bit_rot(0.3)
                    .unwrap()
                    .with_torn_writes(0.5)
                    .unwrap()
                    .with_lost_flushes(0.2)
                    .unwrap()
                    .with_stale_reads(0.2)
                    .unwrap(),
            }),
            power_loss_at_ms: vec![200.0, 450.0],
            ..FleetConfig::default()
        };
        let workload = FleetWorkload::Synthetic { mean_segments: 5 };
        let arrivals = ArrivalPlan::new(23, 2.0).unwrap();
        let a = run_fleet(&workload, &cfg, 80, &arrivals).unwrap();
        let b = run_fleet(&workload, &cfg, 80, &arrivals).unwrap();
        assert_eq!(a, b, "same seeds, same faults, same report — storage included");
        assert_eq!(a.durability, b.durability);
        assert_eq!(a.durability.as_ref().unwrap().scrubs.len(), 2);
    }

    #[test]
    fn journeys_cover_every_session_across_crash_and_power_loss() {
        use vgbl_store::DiskFaultPlan;
        let cfg = FleetConfig {
            shards: 3,
            vnodes: 32,
            journeys: true,
            shard: SupervisorConfig {
                queue_capacity: 16,
                queue_deadline_ms: 1e9,
                slots: 2,
                step_ms: 10.0,
                checkpoint_every: 5,
                ..SupervisorConfig::default()
            },
            faults: vec![ShardFault { at_ms: 150.0, shard: 1, kind: ShardFaultKind::Crash }],
            store: Some(StoreConfig {
                snapshot_every: 4,
                dual_write: true,
                faults: DiskFaultPlan::new(99),
            }),
            power_loss_at_ms: vec![300.0],
            ..FleetConfig::default()
        };
        let workload = FleetWorkload::Synthetic { mean_segments: 5 };
        let arrivals = ArrivalPlan::new(23, 2.0).unwrap();
        let report = run_fleet(&workload, &cfg, 80, &arrivals).unwrap();

        // Total and exclusive: one journey per session, one terminal
        // each, chains intact. (debug_assert_consistent re-checks this
        // on every debug run; this pins it in release too.)
        assert_eq!(report.journeys.len(), report.sessions);
        for j in &report.journeys {
            assert_eq!(j.events.iter().filter(|e| e.kind.is_terminal()).count(), 1);
            assert!(j.chain_ok(), "session {}: broken span chain", j.session);
        }

        // The crash evacuated or the power loss cold-resumed someone
        // across shards, and the stitched journey shows the hop with
        // re-minted generation identity.
        let cross = report
            .journeys
            .iter()
            .find(|j| {
                j.events.iter().any(|e| {
                    matches!(
                        e.kind,
                        JourneyEventKind::MigratedIn { .. } | JourneyEventKind::ColdResume { .. }
                    )
                })
            })
            .expect("a crash + power loss campaign produces a cross-shard journey");
        assert!(cross.generations() > 1, "a hop re-mints the generation: {cross:?}");

        // Every migration handoff record carries the same identity the
        // destination shard's journey leg was minted with.
        for m in &report.migrations {
            let expect = TraceCtx::mint(cfg.router_seed, m.session as u64, 0);
            assert_eq!(m.trace_id, expect.trace_id, "trace id is generation-independent");
            assert_ne!(m.span_id, 0, "handoff carries the resuming span");
        }

        // Off by default: the same run with journeys disabled produces
        // an empty journey vector and an otherwise identical report.
        let plain = run_fleet(
            &workload,
            &FleetConfig { journeys: false, ..cfg.clone() },
            80,
            &arrivals,
        )
        .unwrap();
        assert!(plain.journeys.is_empty());
        assert_eq!(plain.outcomes, report.outcomes);
        assert_eq!(plain.migrations, report.migrations);
    }
}
