//! Chaos orchestrator: one seeded schedule composing link degradation,
//! shard crashes, shard stalls, whole-fleet power losses, and disk
//! faults over the fleet's single discrete-event clock — then explicit
//! invariant checks over the outcome, including a full byte-identical
//! rerun.
//!
//! The point is not to make the fleet survive (some schedules are
//! unsurvivable by design) but to prove that whatever happens is
//! *accounted*: every offered session ends in exactly one outcome,
//! every acknowledged-durable checkpoint that vanished is attributed to
//! a provably corrupt record, and the entire composed run replays
//! bit-identically from its seed.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::fleet::{
    run_fleet, FleetConfig, FleetReport, FleetWorkload, ShardFault, ShardFaultKind,
};
use crate::server::SessionOutcome;
use crate::supervisor::{ArrivalPlan, SupervisorConfig};
use crate::{Result, RuntimeError};
use vgbl_obs::hash::{mix, unit};
use vgbl_obs::{aggregate, JourneyEvent, JourneyEventKind, SessionJourney, TerminalState};
use vgbl_store::StoreConfig;

/// Domain separation for chaos-schedule draws, one salt per fault
/// dimension so adding crashes never perturbs where stalls land.
const SALT_CRASH: u64 = 0xC4A0_0001;
const SALT_STALL: u64 = 0xC4A0_0002;
const SALT_LINK: u64 = 0xC4A0_0003;
const SALT_POWER: u64 = 0xC4A0_0004;

fn invalid(msg: impl Into<String>) -> RuntimeError {
    RuntimeError::InvalidSupervisor(msg.into())
}

/// One seeded chaos campaign: how much of each fault dimension to
/// compose over the horizon. The schedule itself is a pure function of
/// `seed` — two configs that differ only in `seed` produce entirely
/// different but individually reproducible campaigns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Master seed; every scheduled fault is a pure hash of it.
    pub seed: u64,
    /// Sessions offered to the fleet.
    pub sessions: usize,
    /// Initial shard count.
    pub shards: u32,
    /// Mean inter-arrival gap, simulated ms.
    pub arrival_interval_ms: f64,
    /// Average synthetic session length in segments.
    pub mean_segments: u32,
    /// Shard crashes to schedule.
    pub crashes: u32,
    /// Shard stalls to schedule.
    pub stalls: u32,
    /// Link degradations to schedule.
    pub degraded_links: u32,
    /// Whole-fleet power losses to schedule.
    pub power_losses: u32,
    /// All faults land inside `[0, horizon_ms)`.
    pub horizon_ms: f64,
    /// The durable store (and its seeded disk-fault plan).
    pub store: StoreConfig,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0xC4A0_5EED,
            sessions: 200,
            shards: 4,
            arrival_interval_ms: 2.0,
            mean_segments: 5,
            crashes: 1,
            stalls: 1,
            degraded_links: 1,
            power_losses: 1,
            horizon_ms: 600.0,
            store: StoreConfig::default(),
        }
    }
}

impl ChaosConfig {
    fn validate(&self) -> Result<()> {
        if self.sessions == 0 {
            return Err(invalid("chaos needs at least one session"));
        }
        if self.shards == 0 {
            return Err(invalid("chaos needs at least one shard"));
        }
        if self.mean_segments == 0 {
            return Err(invalid("chaos mean_segments must be >= 1"));
        }
        if !self.horizon_ms.is_finite() || self.horizon_ms <= 0.0 {
            return Err(invalid("chaos horizon_ms must be positive and finite"));
        }
        if !self.arrival_interval_ms.is_finite() || self.arrival_interval_ms <= 0.0 {
            return Err(invalid("chaos arrival_interval_ms must be positive and finite"));
        }
        Ok(())
    }

    /// The composed fault schedule: every entry a pure hash of
    /// `(seed, dimension, index)`, so the campaign replays exactly.
    fn schedule(&self) -> (Vec<ShardFault>, Vec<f64>) {
        let mut faults = Vec::new();
        let at = |salt: u64, i: u32| unit(mix(self.seed ^ salt ^ mix(u64::from(i)))) * self.horizon_ms;
        let pick = |salt: u64, i: u32| {
            (mix(self.seed ^ salt ^ mix(u64::from(i)).rotate_left(17)) % u64::from(self.shards))
                as u32
        };
        for i in 0..self.crashes {
            faults.push(ShardFault {
                at_ms: at(SALT_CRASH, i),
                shard: pick(SALT_CRASH, i),
                kind: ShardFaultKind::Crash,
            });
        }
        for i in 0..self.stalls {
            let duration_ms =
                1.0 + unit(mix(self.seed ^ SALT_STALL ^ mix(u64::from(i)) ^ 0x5)) * 0.2 * self.horizon_ms;
            faults.push(ShardFault {
                at_ms: at(SALT_STALL, i),
                shard: pick(SALT_STALL, i),
                kind: ShardFaultKind::Stall { duration_ms },
            });
        }
        for i in 0..self.degraded_links {
            let loss = 0.5 + 0.49 * unit(mix(self.seed ^ SALT_LINK ^ mix(u64::from(i)) ^ 0x7));
            faults.push(ShardFault {
                at_ms: at(SALT_LINK, i),
                shard: pick(SALT_LINK, i),
                kind: ShardFaultKind::DegradedLink { loss },
            });
        }
        let mut power: Vec<f64> = (0..self.power_losses).map(|i| at(SALT_POWER, i)).collect();
        power.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        (faults, power)
    }
}

/// One named invariant verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantCheck {
    /// Which invariant.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// Human-readable evidence (counts, the first violation, ...).
    pub detail: String,
}

/// The campaign's audit: the fleet report it produced plus every
/// invariant verdict, including the byte-identical-rerun check.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// The seed the whole campaign derives from.
    pub seed: u64,
    /// Scheduled shard-level faults, in schedule order.
    pub faults: Vec<ShardFault>,
    /// Scheduled whole-fleet power losses, sorted.
    pub power_loss_at_ms: Vec<f64>,
    /// The (first) run's full fleet report.
    pub fleet: FleetReport,
    /// Per-fault blast radii built from the stitched journeys.
    pub incidents: IncidentReport,
    /// Every invariant verdict.
    pub checks: Vec<InvariantCheck>,
}

impl ChaosReport {
    /// All invariants held.
    pub fn all_pass(&self) -> bool {
        self.checks.iter().all(|c| c.pass)
    }

    /// The first failed invariant, if any.
    pub fn first_failure(&self) -> Option<&InvariantCheck> {
        self.checks.iter().find(|c| !c.pass)
    }
}

fn check(name: &'static str, pass: bool, detail: String) -> InvariantCheck {
    InvariantCheck { name, pass, detail }
}

/// One fault's blast radius, reconstructed purely from stitched
/// journeys: which sessions the fault touched, how they ended, and how
/// long re-admission took.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    /// What fired: `crash shard=N`, `stall shard=N`,
    /// `degraded_link shard=N`, or `power_loss #i`.
    pub label: String,
    /// When it fired, simulated ms.
    pub at_ms: f64,
    /// Sessions the fault touched, sorted by id. For crashes and power
    /// losses these are the sessions whose journey carries the blackout
    /// event; for stalls and degraded links, the sessions whose journey
    /// touches the faulted shard at or after the fault.
    pub affected: Vec<u64>,
    /// Migration handoffs out of the blast radius: for blackouts, the
    /// checkpoint-carrying evacuations at the fault instant; for
    /// stalls/links, handoffs off the faulted shard afterwards.
    pub migrated: usize,
    /// Terminal tallies of the affected sessions, keyed by
    /// [`TerminalState::name`].
    pub terminals: BTreeMap<&'static str, usize>,
    /// Affected sessions whose acknowledged durable checkpoint died
    /// with this fault, per the storage audit (power losses only).
    pub lost_durable: usize,
    /// Per-session ms from the fault to the next admission, for
    /// affected sessions that got re-admitted; ascending.
    pub recovery_ms: Vec<f64>,
}

impl Incident {
    /// Mean re-admission latency, 0 when nothing re-admitted.
    pub fn mean_recovery_ms(&self) -> f64 {
        if self.recovery_ms.is_empty() {
            0.0
        } else {
            self.recovery_ms.iter().sum::<f64>() / self.recovery_ms.len() as f64
        }
    }

    /// Worst re-admission latency, 0 when nothing re-admitted.
    pub fn max_recovery_ms(&self) -> f64 {
        self.recovery_ms.last().copied().unwrap_or(0.0)
    }
}

/// The campaign's incident digest: one [`Incident`] per scheduled
/// fault (schedule order, then power losses in time order), plus the
/// population totals the invariants cross-check against the fleet's
/// accounting identity.
#[derive(Debug, Clone, PartialEq)]
pub struct IncidentReport {
    /// Per-fault blast radii.
    pub incidents: Vec<Incident>,
    /// Journeys stitched — must equal the sessions offered.
    pub sessions: usize,
    /// Journeys with no terminal state — must be zero.
    pub unresolved: usize,
}

impl IncidentReport {
    /// Deterministic plain-text narrative, byte-identical across
    /// reruns of the same seed.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "incident report: {} incidents over {} sessions ({} unresolved)",
            self.incidents.len(),
            self.sessions,
            self.unresolved
        );
        for inc in &self.incidents {
            let _ = write!(
                s,
                "  {} at={:.3}ms affected={} migrated={}",
                inc.label,
                inc.at_ms,
                inc.affected.len(),
                inc.migrated
            );
            for (name, n) in &inc.terminals {
                let _ = write!(s, " {name}={n}");
            }
            if !inc.recovery_ms.is_empty() {
                let _ = write!(
                    s,
                    " recovery mean={:.3}ms max={:.3}ms",
                    inc.mean_recovery_ms(),
                    inc.max_recovery_ms()
                );
            }
            if inc.lost_durable > 0 {
                let _ = write!(s, " lost_durable={}", inc.lost_durable);
            }
            s.push('\n');
        }
        s
    }
}

/// The blast radius of one blackout (crash or power loss): journeys
/// carrying the matching event at `t`, their evacuations at the fault
/// instant, terminals, loss attribution, and re-admission latencies.
fn blackout_incident(
    label: String,
    t: f64,
    journeys: &[SessionJourney],
    matches_fault: impl Fn(&JourneyEvent) -> bool,
    lost: &BTreeSet<u64>,
) -> Incident {
    let mut inc = Incident {
        label,
        at_ms: t,
        affected: Vec::new(),
        migrated: 0,
        terminals: BTreeMap::new(),
        lost_durable: 0,
        recovery_ms: Vec::new(),
    };
    for j in journeys {
        let Some(p) = j.events.iter().position(&matches_fault) else { continue };
        inc.affected.push(j.session);
        *inc.terminals.entry(j.terminal.name()).or_insert(0) += 1;
        if lost.contains(&j.session) {
            inc.lost_durable += 1;
        }
        for e in &j.events[p..] {
            if matches!(e.kind, JourneyEventKind::MigratedOut { .. }) && e.at_ms == t {
                inc.migrated += 1;
            }
        }
        if let Some(e) = j.events[p + 1..]
            .iter()
            .find(|e| matches!(e.kind, JourneyEventKind::Admitted { .. }))
        {
            inc.recovery_ms.push(e.at_ms - t);
        }
    }
    inc.recovery_ms.sort_by(|a, b| a.total_cmp(b));
    inc
}

/// The blast radius of a slowdown fault (stall or degraded link):
/// journeys that touch the faulted shard at or after the fault, and
/// the handoffs that evacuated it.
fn touch_incident(label: String, t: f64, shard: u32, journeys: &[SessionJourney]) -> Incident {
    let mut inc = Incident {
        label,
        at_ms: t,
        affected: Vec::new(),
        migrated: 0,
        terminals: BTreeMap::new(),
        lost_durable: 0,
        recovery_ms: Vec::new(),
    };
    for j in journeys {
        let mut touched = false;
        for e in &j.events {
            if e.shard == shard && e.at_ms >= t {
                touched = true;
                if matches!(e.kind, JourneyEventKind::MigratedOut { .. }) {
                    inc.migrated += 1;
                }
            }
        }
        if touched {
            inc.affected.push(j.session);
            *inc.terminals.entry(j.terminal.name()).or_insert(0) += 1;
        }
    }
    inc
}

/// Builds the per-fault incident digest from a journey-enabled fleet
/// report and the campaign's fault schedule. Pure function of its
/// inputs — byte-identical across reruns of the same seed.
pub fn incident_report(
    fleet: &FleetReport,
    faults: &[ShardFault],
    power_loss_at_ms: &[f64],
) -> IncidentReport {
    let journeys = &fleet.journeys;
    let lost: BTreeSet<u64> = fleet
        .durability
        .as_ref()
        .map(|d| d.lost.iter().map(|l| l.session as u64).collect())
        .unwrap_or_default();
    let mut incidents = Vec::new();
    for f in faults {
        incidents.push(match f.kind {
            ShardFaultKind::Crash => blackout_incident(
                format!("crash shard={}", f.shard),
                f.at_ms,
                journeys,
                |e| {
                    e.shard == f.shard
                        && e.at_ms == f.at_ms
                        && matches!(e.kind, JourneyEventKind::Crashed)
                },
                &BTreeSet::new(),
            ),
            ShardFaultKind::Stall { .. } => {
                touch_incident(format!("stall shard={}", f.shard), f.at_ms, f.shard, journeys)
            }
            ShardFaultKind::DegradedLink { .. } => touch_incident(
                format!("degraded_link shard={}", f.shard),
                f.at_ms,
                f.shard,
                journeys,
            ),
        });
    }
    for (i, &t) in power_loss_at_ms.iter().enumerate() {
        incidents.push(blackout_incident(
            format!("power_loss #{i}"),
            t,
            journeys,
            |e| e.at_ms == t && matches!(e.kind, JourneyEventKind::PowerLoss),
            &lost,
        ));
    }
    IncidentReport {
        incidents,
        sessions: journeys.len(),
        unresolved: journeys
            .iter()
            .filter(|j| j.terminal == TerminalState::Unresolved)
            .count(),
    }
}

/// Runs one seeded chaos campaign: builds the schedule, runs the fleet
/// over it **twice**, and returns the audited [`ChaosReport`].
///
/// Invariants checked:
/// - `exact_accounting` — every offered session has exactly one
///   terminal outcome and the scalar counters match the outcome vector.
/// - `no_dual_outcome` — no session is simultaneously served and shed:
///   every durably-lost session's single outcome is the corrupt-record
///   shed, and no other session carries that reason.
/// - `no_acked_loss_unattributed` — `lost_durable` equals the number of
///   attributed corrupt records; a durable store must never lose an
///   acknowledged checkpoint without naming the record that died.
/// - `journey_total_exclusive` — journey coverage is total and
///   exclusive: every offered session stitches to exactly one journey,
///   each journey carries exactly one terminal event that agrees with
///   the session's fleet outcome, and every span chain links parent to
///   child across shard hops and cold restarts.
/// - `incident_crosscheck` — the journey population totals match the
///   fleet's accounting identity exactly, and every durably-lost
///   session is attributed to the power-loss incident that killed it.
/// - `rerun_identical` — the second run's report (storage audit
///   included) is byte-identical to the first.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport> {
    cfg.validate()?;
    let (faults, power_loss_at_ms) = cfg.schedule();
    let fleet_cfg = FleetConfig {
        shards: cfg.shards,
        vnodes: 32,
        router_seed: mix(cfg.seed),
        journeys: true,
        shard: SupervisorConfig {
            queue_capacity: 32,
            queue_deadline_ms: 1e9,
            slots: 2,
            step_ms: 10.0,
            checkpoint_every: 5,
            ..SupervisorConfig::default()
        },
        faults: faults.clone(),
        store: Some(cfg.store),
        power_loss_at_ms: power_loss_at_ms.clone(),
        ..FleetConfig::default()
    };
    let workload = FleetWorkload::Synthetic { mean_segments: cfg.mean_segments };
    let arrivals = ArrivalPlan::new(cfg.seed ^ 0x0A88_14A1, cfg.arrival_interval_ms)?;
    let fleet = run_fleet(&workload, &fleet_cfg, cfg.sessions, &arrivals)?;
    let rerun = run_fleet(&workload, &fleet_cfg, cfg.sessions, &arrivals)?;

    let mut checks = Vec::new();

    let (completed, failed, shed, recovered, gave_up) = fleet.outcome_counts();
    let counters_match = completed == fleet.completed
        && failed == fleet.failed
        && shed == fleet.shed
        && recovered == fleet.recovered
        && gave_up == fleet.gave_up;
    checks.push(check(
        "exact_accounting",
        fleet.accounts_exactly() && fleet.outcomes.len() == fleet.sessions && counters_match,
        format!(
            "{} sessions = {completed} completed + {recovered} recovered + {failed} failed \
             + {gave_up} gave up + {shed} shed",
            fleet.sessions
        ),
    ));

    const CORRUPT_SHED: &str = "cold restart: durable checkpoint corrupt";
    let lost_sessions: Vec<usize> = fleet
        .durability
        .as_ref()
        .map(|d| d.lost.iter().map(|l| l.session).collect())
        .unwrap_or_default();
    let lost_all_shed = lost_sessions.iter().all(|&s| {
        matches!(&fleet.outcomes[s], SessionOutcome::Shed { reason } if reason == CORRUPT_SHED)
    });
    let corrupt_sheds = fleet
        .outcomes
        .iter()
        .filter(|o| matches!(o, SessionOutcome::Shed { reason } if reason == CORRUPT_SHED))
        .count();
    checks.push(check(
        "no_dual_outcome",
        lost_all_shed && corrupt_sheds == lost_sessions.len(),
        format!(
            "{} durably lost sessions, {corrupt_sheds} corrupt-record sheds, all matching",
            lost_sessions.len()
        ),
    ));

    let attributed = fleet.durability.as_ref().map_or(0, |d| d.lost.len());
    checks.push(check(
        "no_acked_loss_unattributed",
        fleet.lost_durable == attributed,
        format!("lost_durable = {} with {attributed} attributed corrupt records", fleet.lost_durable),
    ));

    let outcome_agrees = |j: &SessionJourney| {
        let o = &fleet.outcomes[j.session as usize];
        matches!(
            (j.terminal, o),
            (TerminalState::Completed, SessionOutcome::Completed)
                | (TerminalState::Recovered, SessionOutcome::Recovered { .. })
                | (TerminalState::Failed, SessionOutcome::Failed { .. })
                | (TerminalState::Shed, SessionOutcome::Shed { .. })
                | (TerminalState::GaveUp, SessionOutcome::GaveUp { .. })
        )
    };
    let exclusive = fleet.journeys.iter().all(|j| {
        j.events.iter().filter(|e| e.kind.is_terminal()).count() == 1
            && outcome_agrees(j)
            && j.chain_ok()
    });
    checks.push(check(
        "journey_total_exclusive",
        fleet.journeys.len() == fleet.sessions && exclusive,
        format!(
            "{} journeys for {} sessions, each with one terminal agreeing with its \
             outcome and an intact span chain",
            fleet.journeys.len(),
            fleet.sessions
        ),
    ));

    let incidents = incident_report(&fleet, &faults, &power_loss_at_ms);
    let agg = aggregate(&fleet.journeys);
    let tally = |name: &str| agg.by_terminal.get(name).copied().unwrap_or(0);
    let totals_match = agg.total == fleet.sessions
        && incidents.unresolved == 0
        && tally("completed") == fleet.completed
        && tally("recovered") == fleet.recovered
        && tally("failed") == fleet.failed
        && tally("shed") == fleet.shed
        && tally("gave_up") == fleet.gave_up
        && agg.migrations == fleet.migrations.len();
    let lost_attributed: usize = incidents
        .incidents
        .iter()
        .filter(|i| i.label.starts_with("power_loss"))
        .map(|i| i.lost_durable)
        .sum();
    checks.push(check(
        "incident_crosscheck",
        totals_match && lost_attributed == attributed,
        format!(
            "journey terminals match fleet counters ({} sessions, {} migrations); \
             {lost_attributed} of {attributed} durable losses pinned to a power-loss incident",
            agg.total,
            agg.migrations
        ),
    ));

    checks.push(check(
        "rerun_identical",
        fleet == rerun,
        if fleet == rerun {
            format!("two runs from seed {:#x} produced identical reports", cfg.seed)
        } else {
            "second run diverged from the first".to_string()
        },
    ));

    Ok(ChaosReport { seed: cfg.seed, faults, power_loss_at_ms, fleet, incidents, checks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgbl_store::DiskFaultPlan;

    #[test]
    fn chaos_campaign_passes_all_invariants_on_clean_disks() {
        let report = run_chaos(&ChaosConfig::default()).unwrap();
        assert!(report.all_pass(), "{:?}", report.first_failure());
        assert_eq!(report.faults.len(), 3);
        assert_eq!(report.power_loss_at_ms.len(), 1);
        assert_eq!(report.fleet.lost_durable, 0, "clean disks lose nothing acked");
    }

    #[test]
    fn chaos_campaign_passes_all_invariants_under_disk_faults() {
        let cfg = ChaosConfig {
            seed: 0x0FEE_1BAD,
            crashes: 2,
            power_losses: 2,
            store: StoreConfig {
                snapshot_every: 4,
                dual_write: false,
                faults: DiskFaultPlan::new(0x0FEE_1BAD)
                    .with_torn_writes(0.6)
                    .unwrap()
                    .with_bit_rot(0.5)
                    .unwrap()
                    .with_lost_flushes(0.2)
                    .unwrap()
                    .with_stale_reads(0.3)
                    .unwrap(),
            },
            ..ChaosConfig::default()
        };
        let report = run_chaos(&cfg).unwrap();
        assert!(report.all_pass(), "{:?}", report.first_failure());
        let d = report.fleet.durability.as_ref().unwrap();
        assert!(d.store.power_losses >= 2);
    }

    #[test]
    fn chaos_journeys_cover_every_session_with_intact_chains() {
        let report = run_chaos(&ChaosConfig::default()).unwrap();
        assert!(report.all_pass(), "{:?}", report.first_failure());
        assert_eq!(report.fleet.journeys.len(), report.fleet.sessions);
        assert!(report.fleet.journeys.iter().all(|j| j.chain_ok()));
        assert!(
            report.fleet.journeys.iter().any(|j| j.shards().len() > 1),
            "a crash campaign must produce at least one cross-shard journey"
        );
    }

    #[test]
    fn incident_report_is_deterministic_and_attributes_blast_radius() {
        let a = run_chaos(&ChaosConfig::default()).unwrap();
        let b = run_chaos(&ChaosConfig::default()).unwrap();
        assert_eq!(a.incidents, b.incidents);
        assert_eq!(a.incidents.render(), b.incidents.render());
        assert_eq!(
            a.incidents.incidents.len(),
            a.faults.len() + a.power_loss_at_ms.len(),
            "one incident per scheduled fault"
        );
        assert_eq!(a.incidents.sessions, a.fleet.sessions);
        assert_eq!(a.incidents.unresolved, 0);
        let touched: usize = a.incidents.incidents.iter().map(|i| i.affected.len()).sum();
        assert!(touched > 0, "the campaign's faults must touch someone");
        for inc in &a.incidents.incidents {
            assert_eq!(
                inc.affected.len(),
                inc.terminals.values().sum::<usize>(),
                "every affected session carries exactly one terminal: {}",
                inc.label
            );
            assert!(inc.recovery_ms.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn different_seeds_produce_different_campaigns() {
        let a = ChaosConfig { seed: 1, ..ChaosConfig::default() }.schedule();
        let b = ChaosConfig { seed: 2, ..ChaosConfig::default() }.schedule();
        assert_ne!(a.0, b.0, "fault schedules must vary with the seed");
    }

    #[test]
    fn chaos_config_is_validated() {
        for bad in [
            ChaosConfig { sessions: 0, ..ChaosConfig::default() },
            ChaosConfig { shards: 0, ..ChaosConfig::default() },
            ChaosConfig { mean_segments: 0, ..ChaosConfig::default() },
            ChaosConfig { horizon_ms: f64::NAN, ..ChaosConfig::default() },
            ChaosConfig { arrival_interval_ms: 0.0, ..ChaosConfig::default() },
        ] {
            assert!(run_chaos(&bad).is_err(), "{bad:?}");
        }
    }
}


