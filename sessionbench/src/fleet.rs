//! The `fleet_recovery` workload: the sharded fleet serving real learners
//! through a shard crash and a whole-fleet power loss.
//!
//! Sessions are [`FleetWorkload::Engine`] sessions: real
//! [`GameSession`]s driven by [`GuidedBot`]s on an escape game. The
//! benchmark's bot wraps each guided bot with a player that serves and
//! composites a frame (through one shared cache that holds every GOP)
//! when a bot incarnation starts and when the session enters a new
//! segment, so the learner sees each scene while the fleet routes,
//! admits, checkpoints, migrates and restores; the fleet, not the
//! players, does most of the work. Arrivals are an open loop on the
//! simulated clock at 70 % of the fleet's service capacity (about 93 %
//! once the crash takes a shard away). Every checkpoint goes to a
//! dual-write durable store on clean disks, and journeys are on.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use vgbl::media::cache::GopCache;
use vgbl::media::SegmentId;
use vgbl::runtime::render::compose_frame;
use vgbl::runtime::{
    run_fleet, ArrivalPlan, Bot, FleetConfig, FleetWorkload, GameSession, GuidedBot, InputEvent,
    PlaybackController, ShardFault, ShardFaultKind, SupervisorConfig,
};
use vgbl::store::{DiskFaultPlan, StoreConfig};

use crate::game::{Game, GameSpec, Template};
use crate::mix;
use crate::report::{median, percentile, Metrics, Tally};
use crate::run::{add_cache_delta, Workload};
use crate::trace::span;

/// Offered load as a share of the fleet's service capacity before the
/// crash; losing one of four shards lifts it to about 0.93.
const UTILISATION: f64 = 0.7;

/// The mean arrival gap at which the fleet is exactly busy: a burst of
/// guided sessions through `shards` fault-free shards with room to queue
/// them all and no degradation, makespan over sessions served.
fn saturation_gap_ms(game: &Game, shard: &SupervisorConfig, shards: u32) -> f64 {
    let n = 64;
    let config = FleetConfig {
        shards,
        shard: SupervisorConfig {
            queue_capacity: 2 * n,
            queue_deadline_ms: f64::MAX,
            degrade_at: 1.0,
            conceal_at: 1.0,
            ..shard.clone()
        },
        ..FleetConfig::default()
    };
    let factory = |_: usize, _: u32| -> Box<dyn Bot> { Box::new(GuidedBot::new()) };
    let workload = FleetWorkload::Engine {
        graph: game.published.graph.clone(),
        config: game.config.clone(),
        factory: &factory,
    };
    let burst = ArrivalPlan::new(1, 1e-3).expect("positive gap");
    let report = run_fleet(&workload, &config, n, &burst).expect("calibration fleet runs");
    report.makespan_ms / report.admitted().max(1) as f64
}

/// What the players inside one fleet run measured.
#[derive(Debug, Default)]
struct Sink {
    first_frame_ms: Vec<f64>,
    branch_ms: Vec<f64>,
    frames: u64,
    decisions: u64,
    decoded: u64,
    mismatches: u64,
}

/// Fleet runs per ablation configuration at most, so a traced run stays
/// short however many rounds its untraced half played.
const ABLATION_ROUNDS: u64 = 40;

/// Players parked between bot incarnations, each with the segment it
/// stands at the start of.
type Pool = Mutex<Vec<(PlaybackController, SegmentId)>>;

/// A [`GuidedBot`] that shows the learner the first frame of each
/// segment the session enters. Decisions are the guided bot's alone, so
/// replay verification of migrated sessions is unaffected. Players are
/// set up once and parked in a pool when an incarnation ends, as a
/// server keeps its decoders, so the fleet rather than player set-up
/// does most of the work.
struct PlayingBot {
    inner: GuidedBot,
    game: Arc<Game>,
    cache: Arc<GopCache>,
    pool: Arc<Pool>,
    sink: Arc<Mutex<Sink>>,
    player: Option<(PlaybackController, SegmentId)>,
    /// When the fleet created this incarnation.
    born: Instant,
    decoded: usize,
}

impl PlayingBot {
    /// Serves the first frame of the session's current segment when this
    /// incarnation has shown nothing yet or the segment changed since.
    fn show(&mut self, session: &GameSession) -> vgbl::runtime::Result<()> {
        let segment = session.current_scenario().segment;
        let t = Instant::now();
        let first = self.player.is_none();
        if first {
            let parked = self.pool.lock().expect("pool lock").pop();
            let (player, at) = match parked {
                Some(parked) => parked,
                None => {
                    let game = &self.game;
                    let player = span("playback.setup", || {
                        PlaybackController::shared(
                            game.video.clone(),
                            game.published.segments.clone(),
                            segment,
                            self.cache.clone(),
                        )
                    })?;
                    (player, segment)
                }
            };
            self.decoded = player.stats().frames_decoded;
            self.player = Some((player, at));
        }
        let (player, at) = self.player.as_mut().expect("player taken above");
        if *at != segment {
            span("playback.switch", || player.seek_segment(segment))?;
            *at = segment;
        } else if !first {
            return Ok(());
        }
        let abs = player.absolute_frame();
        let base = span("playback.serve", || player.current_frame())?;
        let frame = span("render.compose", || compose_frame(session, &base))?;
        let done = Instant::now();
        std::hint::black_box(&frame);
        let ok = span("check", || self.game.matches(abs, &base));
        let decoded = player.stats().frames_decoded;
        let mut sink = self
            .sink
            .lock()
            .expect("no bot panics while holding the sink");
        if first {
            sink.first_frame_ms
                .push((done - self.born).as_secs_f64() * 1e3);
        } else {
            sink.branch_ms.push((done - t).as_secs_f64() * 1e3);
        }
        sink.frames += 1;
        sink.decoded += (decoded - self.decoded) as u64;
        sink.mismatches += u64::from(!ok);
        self.decoded = decoded;
        Ok(())
    }
}

impl Drop for PlayingBot {
    fn drop(&mut self) {
        if let Some(parked) = self.player.take() {
            if let Ok(mut pool) = self.pool.lock() {
                pool.push(parked);
            }
        }
    }
}

impl Bot for PlayingBot {
    fn next_input(&mut self, session: &GameSession) -> vgbl::runtime::Result<Option<InputEvent>> {
        self.show(session)?;
        let input = span("bot", || self.inner.next_input(session))?;
        if input.is_some() {
            self.sink
                .lock()
                .expect("no bot panics while holding the sink")
                .decisions += 1;
        }
        Ok(input)
    }
}

/// The fleet, its game, and the seeded fault schedule.
pub struct Fleet {
    seed: u64,
    game: Arc<Game>,
    cache: Arc<GopCache>,
    pool: Arc<Pool>,
    config: FleetConfig,
    sessions: usize,
    gap_ms: f64,
}

impl Workload for Fleet {
    /// Routing, admission, checkpoints, the store and journeys allocate
    /// and walk maps.
    const MEMORY_SHARE: f64 = 1.0;

    fn setup(seed: u64, tiny: bool) -> Fleet {
        let spec = GameSpec {
            template: Template::Escape,
            width: 64,
            height: 48,
            rooms: 8,
            shot_frames: 12,
            gop: 6,
            search_range: 7,
        };
        let game = Game::build(&spec, seed);
        let cache = game.full_cache();
        let shard = SupervisorConfig {
            queue_capacity: 32,
            slots: 2,
            checkpoint_every: 5,
            ..SupervisorConfig::default()
        };
        let shards = 4u32;
        let gap_ms = saturation_gap_ms(&game, &shard, shards) / UTILISATION;
        let sessions = if tiny { 24 } else { 200 };
        let makespan = gap_ms * sessions as f64;
        // The router seed, the crashed shard and the disk seed are drawn
        // per round (see `Fleet::play`), so a run averages over many
        // placements instead of depending on one.
        let config = FleetConfig {
            shards,
            vnodes: 32,
            shard,
            faults: vec![ShardFault {
                at_ms: 0.3 * makespan,
                shard: 0,
                kind: ShardFaultKind::Crash,
            }],
            store: Some(StoreConfig {
                snapshot_every: 8,
                dual_write: true,
                faults: DiskFaultPlan::new(0),
            }),
            power_loss_at_ms: vec![0.6 * makespan],
            journeys: true,
            ..FleetConfig::default()
        };
        Fleet {
            seed,
            game: Arc::new(game),
            cache,
            pool: Arc::default(),
            config,
            sessions,
            gap_ms,
        }
    }

    fn game_mut(&mut self) -> &mut Game {
        Arc::get_mut(&mut self.game).expect("no bot outlives a round")
    }

    fn round(&self, round: u64, tally: &mut Tally) {
        self.play(round, |_| {}, tally);
    }

    /// Reruns measured rounds (at most [`ABLATION_ROUNDS`]) without
    /// journeys and without the store, each right after the full
    /// configuration, and reports the median paired difference per fleet
    /// run and the distance between its quartiles.
    fn ablations(&self, rounds: u64, m: &mut Metrics) {
        let timed = |r: u64, tweak: fn(&mut FleetConfig)| {
            let t = Instant::now();
            self.play(r, tweak, &mut Tally::default());
            t.elapsed().as_secs_f64() * 1e3
        };
        let no_journeys = |c: &mut FleetConfig| c.journeys = false;
        // A power loss needs a store, so the store ablation drops both.
        let no_store = |c: &mut FleetConfig| {
            c.store = None;
            c.power_loss_at_ms.clear();
        };
        let (mut journey, mut store) = (Vec::new(), Vec::new());
        for r in 0..rounds.min(ABLATION_ROUNDS) {
            let full = timed(r, |_| {});
            journey.push(full - timed(r, no_journeys));
            store.push(full - timed(r, no_store));
        }
        let iqr = |v: &[f64]| percentile(v, 0.75) - percentile(v, 0.25);
        m.set("journey.cost_ms", median(&journey));
        m.set("journey.cost_iqr_ms", iqr(&journey));
        m.set("store.cost_ms", median(&store));
        m.set("store.cost_iqr_ms", iqr(&store));
    }
}

impl Fleet {
    /// Plays round `round`: its arrivals, router seed, crashed shard and
    /// disk seed derive from the seed and the round index; `tweak` then
    /// adjusts the configuration (the ablations).
    fn play(&self, round: u64, tweak: impl Fn(&mut FleetConfig), tally: &mut Tally) {
        let r = mix(self.seed, round);
        let mut config = self.config.clone();
        config.router_seed = mix(r, 0x5047);
        for fault in &mut config.faults {
            fault.shard = (mix(r, 0xC7A5) % u64::from(config.shards)) as u32;
        }
        if let Some(store) = &mut config.store {
            store.faults = DiskFaultPlan::new(mix(r, 0xD15C));
        }
        tweak(&mut config);
        let config = &config;
        let sink = Arc::new(Mutex::new(Sink::default()));
        let (game, cache, pool) = (self.game.clone(), self.cache.clone(), self.pool.clone());
        let bot_sink = sink.clone();
        let factory = move |_session: usize, _incarnation: u32| -> Box<dyn Bot> {
            Box::new(PlayingBot {
                inner: GuidedBot::new(),
                game: game.clone(),
                cache: cache.clone(),
                pool: pool.clone(),
                sink: bot_sink.clone(),
                player: None,
                born: Instant::now(),
                decoded: 0,
            })
        };
        let workload = FleetWorkload::Engine {
            graph: self.game.published.graph.clone(),
            config: self.game.config.clone(),
            factory: &factory,
        };
        let arrivals = ArrivalPlan::new(r, self.gap_ms).expect("positive gap");
        let before = self.cache.stats();
        let report = span("fleet", || {
            run_fleet(&workload, config, self.sessions, &arrivals)
        });
        add_cache_delta(tally, before, self.cache.stats());
        drop(workload);
        drop(factory);
        let sink = Arc::try_unwrap(sink)
            .expect("bots are gone")
            .into_inner()
            .expect("sink lock");
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                tally.attempted += self.sessions as u64;
                tally.failed += self.sessions as u64;
                tally.violations.push(format!("fleet run failed: {e}"));
                return;
            }
        };

        tally.attempted += report.sessions as u64;
        tally.failed += (report.failed + report.gave_up + report.lost_durable) as u64;
        tally.sessions += (report.completed + report.recovered) as u64;
        tally.frames += sink.frames;
        tally.served += sink.frames;
        tally.inputs += sink.decisions;
        tally.player_decoded += sink.decoded;
        tally.mismatches += sink.mismatches;
        tally.first_frame_ms.extend(sink.first_frame_ms);
        tally.branch_ms.extend(sink.branch_ms);
        tally.migrations += report.migrations.len() as u64;
        tally.migrations_verified += report
            .migrations
            .iter()
            .filter(|m| m.verified == Some(true))
            .count() as u64;
        tally.shed += report.shed as u64;
        tally.restarts += report.restarts;
        tally.queue_wait_p99_ms.push(report.queue_wait.p99_ms);
        if let Some(d) = &report.durability {
            tally.store_appended += d.store.appended;
            tally.store_acked_flushes += d.store.acked_flushes;
            tally.store_snapshots += d.store.snapshots;
            tally.store_cold_resumed += d.cold_resumed as u64;
        }

        let mut broken = Vec::new();
        if !report.accounts_exactly() {
            broken.push("sessions do not account exactly".to_string());
        }
        if report.lost_durable != 0 {
            broken.push(format!(
                "{} acknowledged sessions lost on clean disks",
                report.lost_durable
            ));
        }
        if config.journeys && report.journeys.len() != report.sessions {
            broken.push(format!(
                "{} journeys for {} sessions",
                report.journeys.len(),
                report.sessions
            ));
        }
        let diverged = report
            .migrations
            .iter()
            .filter(|m| m.verified == Some(false))
            .count();
        if diverged > 0 {
            broken.push(format!("{diverged} migrations failed replay verification"));
        }
        tally.violations.extend(
            broken
                .into_iter()
                .map(|b| format!("fleet round {round}: {b}")),
        );
    }
}
