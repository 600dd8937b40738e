//! Byte-identity pins for every session driver.
//!
//! Each case runs one driver on fixed seeds and digests (FNV-1a 64) the
//! `Debug` text of its report plus its obs or journey exports. No report
//! holds a hash map, so the text is a pure function of the run. The
//! constants were recorded before the drivers were merged; a refactor of
//! the supervisor, fleet, chaos or cohort paths must leave them
//! unchanged. A mismatch prints every digest so the failing driver is
//! named.
//!
//! The `transcripts` case pins what learners are shown rather than what
//! a report counts: one digest per session over every frame served and
//! every `Feedback`, in step order. Its playback walks are the reference
//! walks `executor_equivalence.rs` replays, played at cache capacities 0,
//! 1 and one that holds every GOP (a cache changes who decodes, never a
//! frame). Its game sessions are `vgbl::Player` walks of the fixture
//! games, whose frames are composed. It was recorded before the decoder
//! and the cohort prewarm changed.

mod walks;

use std::panic;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vgbl::author::wizard::{escape_template, tour_template};
use vgbl::player::Player;
use vgbl::publish::{publish, PublishedGame};
use vgbl::sample::fix_the_computer_project;
use vgbl_media::cache::GopCache;
use vgbl_media::codec::{EncodeConfig, EncodedVideo, Encoder};
use vgbl_media::color::Rgb;
use vgbl_media::synth::{FootageSpec, ShotSpec, SpriteShape, SpriteSpec};
use vgbl_media::timeline::FrameRate;
use vgbl_media::SegmentTable;
use vgbl_obs::hash::{fnv1a, fnv1a_extend};
use vgbl_obs::{export_journeys, Obs, SpanRecorder};
use vgbl_runtime::bot::{Bot, GuidedBot, RandomBot};
use vgbl_runtime::engine::{GameSession, SessionConfig};
use vgbl_runtime::fixtures::{fix_the_computer, FRAME};
use vgbl_runtime::input::InputEvent;
use vgbl_runtime::{
    run_chaos, run_cohort, run_fleet, run_playback_cohort, run_supervised_cohort,
    ArrivalPlan, AutoscaleConfig, ChaosConfig, FleetConfig, FleetWorkload, LadderPolicy, Result,
    RuntimeError, ShardFault, ShardFaultKind, SloLadderConfig, SupervisorConfig,
};
use vgbl_store::{DiskFaultPlan, StoreConfig};
use vgbl_stream::FaultPlan;
use walks::{empty_transcript, moving_clip, play_one_session};

fn fnv(text: &str) -> u64 {
    fnv1a(text.as_bytes())
}

fn config() -> SessionConfig {
    SessionConfig::for_frame(FRAME.0, FRAME.1)
}

/// Runs `f` with the panic hook silenced (the bots below panic on
/// purpose).
fn quiet<T>(f: impl FnOnce() -> T) -> T {
    let prev = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let out = f();
    panic::set_hook(prev);
    out
}

/// Panics on its `at`-th request, every incarnation it is built for.
struct Crash {
    inner: GuidedBot,
    at: usize,
    seen: usize,
}

impl Crash {
    fn boxed(at: usize) -> Box<dyn Bot> {
        Box::new(Crash { inner: GuidedBot::new(), at, seen: 0 })
    }
}

impl Bot for Crash {
    fn next_input(&mut self, session: &GameSession) -> Result<Option<InputEvent>> {
        self.seen += 1;
        if self.seen >= self.at {
            panic!("injected crash");
        }
        self.inner.next_input(session)
    }
}

/// Errors on its third request: a typed failure, never restarted.
struct ErrAt3 {
    inner: GuidedBot,
    seen: usize,
}

impl Bot for ErrAt3 {
    fn next_input(&mut self, session: &GameSession) -> Result<Option<InputEvent>> {
        self.seen += 1;
        if self.seen >= 3 {
            return Err(RuntimeError::UnknownScenario("err-bot".into()));
        }
        self.inner.next_input(session)
    }
}

/// The mixed cohort every engine case plays: guided finishers, crash-once
/// sessions (before and after their first checkpoint), a hopeless
/// crasher, a typed failure, and random walkers that run out of steps
/// unfinished.
fn mixed_bot(i: usize, incarnation: u32) -> Box<dyn Bot> {
    match i % 8 {
        1 if incarnation == 0 => Crash::boxed(8),
        2 if incarnation == 0 => Crash::boxed(3),
        3 => Box::new(RandomBot::new(StdRng::seed_from_u64(i as u64))),
        5 => Crash::boxed(4),
        6 => Box::new(ErrAt3 { inner: GuidedBot::new(), seen: 0 }),
        7 => Box::new(RandomBot::new(StdRng::seed_from_u64(0x5EED ^ i as u64))),
        _ => Box::new(GuidedBot::new()),
    }
}

fn supervised() -> Vec<u64> {
    let sup = SupervisorConfig {
        queue_capacity: 6,
        slots: 2,
        step_ms: 12.0,
        // A multiple of `checkpoint_every`: random walkers reach the
        // budget unfinished on a checkpoint boundary.
        max_steps: 30,
        checkpoint_every: 5,
        warm_faults: FaultPlan::new(0xFEED).with_loss(0.3).unwrap(),
        ladder: LadderPolicy::SloDriven(SloLadderConfig {
            wait_target_ms: 200.0,
            ..SloLadderConfig::default()
        }),
        store: Some(StoreConfig {
            snapshot_every: 3,
            dual_write: true,
            faults: DiskFaultPlan::new(0x5704E).with_lost_flushes(0.2).unwrap(),
        }),
        ..SupervisorConfig::default()
    };
    let arrivals = ArrivalPlan::new(41, 110.0).unwrap();
    let obs = Obs::recording();
    let report = quiet(|| {
        run_supervised_cohort(
            Arc::new(fix_the_computer()),
            config(),
            &sup,
            24,
            &mixed_bot,
            &arrivals,
            &obs,
            "supervised",
        )
        .unwrap()
        .0
    });
    assert!(report.accounts_exactly());
    assert!(report.recovered > 0 && report.gave_up > 0 && report.failed > 0, "{report:?}");
    let snap = obs.snapshot();
    vec![fnv(&format!("{report:?}")), fnv(&snap.to_table()), fnv(&snap.to_jsonl())]
}

fn fleet_engine() -> Vec<u64> {
    let cfg = FleetConfig {
        shards: 3,
        vnodes: 32,
        journeys: true,
        shard: SupervisorConfig {
            queue_capacity: 16,
            queue_deadline_ms: 1e9,
            slots: 2,
            step_ms: 10.0,
            max_steps: 30,
            checkpoint_every: 5,
            // One restart: the hopeless crasher gives up on its second
            // panic. The digests below were pinned with this budget, so
            // it stays even though deeper restart chains are now covered
            // by the fleet's own journey tests.
            restart_budget: 1,
            ..SupervisorConfig::default()
        },
        faults: vec![ShardFault { at_ms: 300.0, shard: 1, kind: ShardFaultKind::Crash }],
        store: Some(StoreConfig {
            snapshot_every: 4,
            dual_write: true,
            faults: DiskFaultPlan::new(99).with_bit_rot(0.2).unwrap(),
        }),
        power_loss_at_ms: vec![700.0],
        ..FleetConfig::default()
    };
    let workload = FleetWorkload::Engine {
        graph: Arc::new(fix_the_computer()),
        config: config(),
        factory: &mixed_bot,
    };
    let arrivals = ArrivalPlan::new(23, 30.0).unwrap();
    let report = quiet(|| run_fleet(&workload, &cfg, 40, &arrivals).unwrap());
    assert!(report.accounts_exactly());
    assert!(!report.migrations.is_empty(), "{report:?}");
    vec![fnv(&format!("{report:?}")), fnv(&export_journeys(&report.journeys))]
}

fn fleet_synthetic() -> Vec<u64> {
    let cfg = FleetConfig {
        shards: 2,
        vnodes: 16,
        shard: SupervisorConfig {
            queue_capacity: 8,
            queue_deadline_ms: 400.0,
            slots: 2,
            step_ms: 6.0,
            checkpoint_every: 4,
            ..SupervisorConfig::default()
        },
        faults: vec![
            ShardFault { at_ms: 80.0, shard: 0, kind: ShardFaultKind::Stall { duration_ms: 90.0 } },
            ShardFault { at_ms: 40.0, shard: 1, kind: ShardFaultKind::DegradedLink { loss: 0.8 } },
        ],
        autoscale: Some(AutoscaleConfig { max_shards: 5, ..AutoscaleConfig::default() }),
        ..FleetConfig::default()
    };
    let workload = FleetWorkload::Synthetic { mean_segments: 4 };
    let arrivals = ArrivalPlan::new(7, 8.0).unwrap();
    let report = run_fleet(&workload, &cfg, 300, &arrivals).unwrap();
    assert!(report.accounts_exactly());
    vec![fnv(&format!("{report:?}"))]
}

fn chaos() -> Vec<u64> {
    let report = run_chaos(&ChaosConfig {
        seed: 0xC4A0_0012,
        sessions: 120,
        arrival_interval_ms: 20.0,
        horizon_ms: 2_000.0,
        ..ChaosConfig::default()
    })
    .unwrap();
    assert!(report.all_pass(), "{:?}", report.first_failure());
    vec![fnv(&format!("{report:?}")), fnv(&report.incidents.render())]
}

/// A three-segment clip: `shot_len` frames per shot, GOP 6.
fn clip(shot_len: usize) -> (Arc<EncodedVideo>, SegmentTable) {
    let footage = FootageSpec {
        width: 32,
        height: 24,
        rate: FrameRate::FPS30,
        shots: vec![
            ShotSpec::plain(shot_len, Rgb::new(210, 40, 40)),
            ShotSpec::plain(shot_len, Rgb::new(40, 210, 40)),
            ShotSpec::plain(shot_len, Rgb::new(40, 40, 210)),
        ],
        noise_seed: 12,
    }
    .render()
    .unwrap();
    let video = Encoder::new(EncodeConfig { gop: 6, ..Default::default() })
        .encode(&footage.frames, footage.rate)
        .unwrap();
    let table = SegmentTable::from_cuts(shot_len * 3, &[shot_len, shot_len * 2]).unwrap();
    (Arc::new(video), table)
}

fn cohorts() -> Vec<u64> {
    let bots = quiet(|| {
        run_cohort(
            Arc::new(fix_the_computer()),
            config(),
            16,
            &|i: usize| mixed_bot(i, 0),
            30,
            50,
        )
    });
    let (video, table) = clip(14);
    let cache = Arc::new(GopCache::new(16));
    let (playback, _) = run_playback_cohort(video, &table, cache, 9, 2, 25, &Obs::noop());
    vec![fnv(&format!("{bots:?}")), fnv(&format!("{playback:?}"))]
}

/// Inputs per `Player` walk.
const PLAYER_STEPS: usize = 40;

/// A template project with footage: one 64×48 shot per segment, each
/// with a moving sprite and noise, so every GOP decodes real residuals.
fn template_game(mut project: vgbl::author::Project, seed: u64) -> PublishedGame {
    let (w, h) = project.frame_size;
    let shots = project
        .segments
        .segments()
        .iter()
        .enumerate()
        .map(|(k, seg)| ShotSpec {
            frames: seg.len(),
            background: Rgb::new(40 + 50 * (k as u8 % 4), 200 - 40 * (k as u8 % 5), 90),
            sprites: vec![SpriteSpec {
                shape: SpriteShape::Rect(10, 8),
                color: Rgb::new(230, 220, 30),
                pos: (6.0 + 4.0 * k as f32, 10.0),
                vel: (1.5, 0.5),
            }],
            luma_drift: 0,
            noise: 2,
        })
        .collect();
    let footage =
        FootageSpec { width: w, height: h, rate: FrameRate::FPS30, shots, noise_seed: seed }
            .render()
            .unwrap();
    let config = EncodeConfig { gop: 6, search_range: 3, ..EncodeConfig::default() };
    project.video = Some(Encoder::new(config).encode(&footage.frames, footage.rate).unwrap());
    publish(project).unwrap()
}

/// One `Player` walk's transcript: the opening feedback, then every
/// composed frame, every input and the feedback (or error) it and the
/// tick after it produced.
fn player_transcript(game: &PublishedGame, bot: &mut dyn Bot) -> u64 {
    let mut player = Player::new(game).unwrap();
    let text = |h: u64, t: String| fnv1a_extend(h, t.as_bytes());
    let mut h = text(empty_transcript(), format!("{:?}", player.last_feedback()));
    for step in 0..=PLAYER_STEPS {
        h = fnv1a_extend(h, player.frame().unwrap().raw());
        if step == PLAYER_STEPS || player.session().state().is_over() {
            break;
        }
        let Some(input) = bot.next_input(player.session()).unwrap() else {
            break;
        };
        h = text(h, format!("{input:?}"));
        for input in [input, InputEvent::Tick(100)] {
            h = match player.handle(input) {
                Ok(feedback) => text(h, format!("{feedback:?}")),
                Err(e) => text(h, format!("error: {e}")),
            };
            if player.session().state().is_over() {
                break;
            }
        }
    }
    h
}

fn transcripts() -> Vec<u64> {
    let (video, table) = moving_clip(14);
    let n_segments = table.len() as u32;
    let every_gop = video.keyframes().len();
    let mut digests = Vec::new();
    for capacity in [0, 1, every_gop] {
        let cache = Arc::new(GopCache::new(capacity));
        let mut h = fnv1a(b"playback");
        for i in 0..9 {
            let (video, table, cache) = (video.clone(), table.clone(), cache.clone());
            let mut rec = SpanRecorder::disabled();
            let (_, t) =
                play_one_session(video, table, cache, i, n_segments, 25, &Obs::noop(), &mut rec)
                    .unwrap();
            h = fnv1a_extend(h, &t.to_le_bytes());
        }
        digests.push(h);
    }
    let games = [
        publish(fix_the_computer_project(1).unwrap().0).unwrap(),
        template_game(tour_template("tour", 3), 5),
        template_game(escape_template("escape", 3), 6),
    ];
    for game in &games {
        let mut h = fnv1a(b"player");
        let mut guided = GuidedBot::new();
        h = fnv1a_extend(h, &player_transcript(game, &mut guided).to_le_bytes());
        for seed in 0..3 {
            let mut bot = RandomBot::new(StdRng::seed_from_u64(seed));
            h = fnv1a_extend(h, &player_transcript(game, &mut bot).to_le_bytes());
        }
        digests.push(h);
    }
    digests
}

#[test]
fn session_drivers_are_byte_identical_to_their_pins() {
    let got = [
        ("supervised", supervised()),
        ("fleet_engine", fleet_engine()),
        ("fleet_synthetic", fleet_synthetic()),
        ("chaos", chaos()),
        ("cohorts", cohorts()),
        ("transcripts", transcripts()),
    ];
    let pinned: [(&str, &[u64]); 6] = [
        ("supervised", &[0x1de5_282c_78a4_51f3, 0xe31d_521b_050b_ff2c, 0x4114_a587_7795_9dc2]),
        ("fleet_engine", &[0xf9ee_87c7_86ab_9685, 0x669f_1ae7_c6d6_6eab]),
        ("fleet_synthetic", &[0x7224_c50a_b3c7_cae0]),
        ("chaos", &[0x9b9e_c944_6bf0_e46a, 0x45e7_087c_4c3b_d261]),
        ("cohorts", &[0xe133_4fe7_275c_6c80, 0xb88e_5413_07dc_2297]),
        (
            "transcripts",
            &[
                0xff72_c52d_d7f1_9dee,
                0xff72_c52d_d7f1_9dee,
                0xff72_c52d_d7f1_9dee,
                0x50cb_d201_f44d_7d83,
                0x16bd_662b_9b1d_152b,
                0xe5cc_17d3_5280_7133,
            ],
        ),
    ];
    let render = |rows: &[(&str, Vec<u64>)]| {
        rows.iter()
            .map(|(name, d)| {
                let hex: Vec<String> = d.iter().map(|h| format!("0x{h:016x}")).collect();
                format!("{name}: [{}]", hex.join(", "))
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    for ((name, d), (pin_name, pin)) in got.iter().zip(pinned) {
        assert_eq!(*name, pin_name);
        assert_eq!(d.as_slice(), pin, "{name} drifted; all digests:\n{}", render(&got));
    }
}
