//! Learner sessions as executor tasks.
//!
//! A [`LearnerTask`] is the paper's augmented video player driven by a
//! seeded bot: a [`GameSession`] for the game logic, a
//! [`PlaybackController::shared`] over one shared [`GopCache`] for the
//! video, and [`compose_frame`] for the picture. Every input the bot
//! makes is followed by one served frame; an input that changes the
//! scenario's segment seeks the player there first (a branch). Before
//! each serve the task yields [`Step::Fetch`] with the GOP it needs, and
//! the benchmark's fetch callback prewarms the tick's missing GOPs with
//! [`Decoder::decode_gop_at`] over [`parallel_map_indexed`] into the
//! cache through [`GopCache::get_or_decode`] — the shape the repository's
//! cohort server uses — so executor, batch, decode and playback can be
//! timed apart.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use vgbl::media::cache::GopCache;
use vgbl::media::codec::Decoder;
use vgbl::media::parallel::parallel_map_indexed;
use vgbl::media::SegmentId;
use vgbl::runtime::analytics::SessionLog;
use vgbl::runtime::render::compose_frame;
use vgbl::runtime::{
    run_tasks, Bot, GameSession, InputEvent, PlaybackController, RandomBot, RuntimeError,
    SessionTask, Step,
};
use vgbl::stream::BatchPlan;

use crate::game::Game;
use crate::report::Tally;
use crate::trace::span;
use crate::{mix, WORKERS};

/// Game-clock time one input represents (about one frame at 30 fps).
pub const TICK_MS: u64 = 33;

/// Error prefix of a session whose served frame differed from the
/// reference.
pub const MISMATCH: &str = "frame mismatch";

/// What one finished learner session measured.
#[derive(Debug, Clone, Default)]
pub struct LearnerRun {
    /// First poll to first composited frame, ms.
    pub first_frame_ms: Option<f64>,
    /// Scenario-changing input to the new segment's first frame, ms.
    pub branch_ms: Vec<f64>,
    /// Frames served and composited.
    pub frames: u64,
    /// Decision inputs handled.
    pub inputs: u64,
    /// Frames this session's player decoded itself.
    pub decoded: u64,
    /// The session's analytics log, when the cohort keeps logs.
    pub log: Option<SessionLog>,
}

struct Live {
    session: GameSession,
    player: PlaybackController,
    bot: RandomBot<StdRng>,
    segment: SegmentId,
}

/// One learner: a seeded bot walk of at most `max_steps` inputs.
pub struct LearnerTask<'a> {
    game: &'a Game,
    cache: &'a Arc<GopCache>,
    bot_seed: u64,
    max_steps: usize,
    keep_log: bool,
    live: Option<Live>,
    serving: bool,
    steps: usize,
    started: Option<Instant>,
    branch_from: Option<Instant>,
    out: LearnerRun,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

type Poll = Step<usize, Result<LearnerRun, String>>;

impl<'a> LearnerTask<'a> {
    /// A learner that has not started yet.
    pub fn new(
        game: &'a Game,
        cache: &'a Arc<GopCache>,
        bot_seed: u64,
        max_steps: usize,
        keep_log: bool,
    ) -> LearnerTask<'a> {
        LearnerTask {
            game,
            cache,
            bot_seed,
            max_steps,
            keep_log,
            live: None,
            serving: false,
            steps: 0,
            started: None,
            branch_from: None,
            out: LearnerRun::default(),
        }
    }

    fn start(&mut self) -> Poll {
        self.started = Some(Instant::now());
        let game = self.game;
        let session = match span("engine.setup", || {
            GameSession::new(game.published.graph.clone(), game.config.clone())
        }) {
            Ok((session, _)) => session,
            Err(e) => return Step::Done(Err(e.to_string())),
        };
        let segment = session.current_scenario().segment;
        let player = match span("playback.setup", || {
            PlaybackController::shared(
                game.video.clone(),
                game.published.segments.clone(),
                segment,
                self.cache.clone(),
            )
        }) {
            Ok(p) => p,
            Err(e) => return Step::Done(Err(e.to_string())),
        };
        let bot = RandomBot::new(StdRng::seed_from_u64(self.bot_seed));
        self.live = Some(Live {
            session,
            player,
            bot,
            segment,
        });
        self.fetch()
    }

    fn fetch(&mut self) -> Poll {
        self.serving = true;
        match self
            .live
            .as_ref()
            .expect("started")
            .player
            .pending_keyframe()
        {
            Ok(key) => Step::Fetch(key),
            Err(e) => Step::Done(Err(e.to_string())),
        }
    }

    fn serve(&mut self) -> Poll {
        self.serving = false;
        let live = self.live.as_mut().expect("started");
        let abs = live.player.absolute_frame();
        let base = match span("playback.serve", || live.player.current_frame()) {
            Ok(f) => f,
            Err(e) => return Step::Done(Err(e.to_string())),
        };
        let frame = match span("render.compose", || compose_frame(&live.session, &base)) {
            Ok(f) => f,
            Err(e) => return Step::Done(Err(e.to_string())),
        };
        if self.out.first_frame_ms.is_none() {
            self.out.first_frame_ms = Some(ms_since(self.started.expect("started")));
        }
        if let Some(t) = self.branch_from.take() {
            self.out.branch_ms.push(ms_since(t));
        }
        self.out.frames += 1;
        std::hint::black_box(&frame);
        if !span("check", || self.game.matches(abs, &base)) {
            return Step::Done(Err(format!("{MISMATCH} at frame {abs}")));
        }
        if self.steps >= self.max_steps || live.session.state().is_over() {
            return self.finish();
        }
        Step::Pending
    }

    fn advance(&mut self) -> Poll {
        let live = self.live.as_mut().expect("started");
        let input = match span("bot", || live.bot.next_input(&live.session)) {
            Ok(Some(input)) => input,
            Ok(None) => return self.finish(),
            Err(e) => return Step::Done(Err(e.to_string())),
        };
        self.steps += 1;
        let t_input = Instant::now();
        let handled = span("engine.handle", || {
            live.session.handle(input)?;
            if !live.session.state().is_over() {
                live.session.handle(InputEvent::Tick(TICK_MS))?;
            }
            Ok::<(), RuntimeError>(())
        });
        match handled {
            Ok(()) => {}
            Err(RuntimeError::GameOver { .. }) => return self.finish(),
            Err(e) => return Step::Done(Err(e.to_string())),
        }
        self.out.inputs += 1;
        let segment = live.session.current_scenario().segment;
        if segment != live.segment {
            if let Err(e) = span("playback.switch", || live.player.seek_segment(segment)) {
                return Step::Done(Err(e.to_string()));
            }
            live.segment = segment;
            self.branch_from = Some(t_input);
        } else {
            live.player.advance_ms(TICK_MS);
        }
        self.fetch()
    }

    fn finish(&mut self) -> Poll {
        let live = self.live.as_ref().expect("started");
        self.out.decoded = live.player.stats().frames_decoded as u64;
        if self.keep_log {
            self.out.log = Some(live.session.log().clone());
        }
        Step::Done(Ok(std::mem::take(&mut self.out)))
    }
}

impl SessionTask for LearnerTask<'_> {
    type Fetch = usize;
    type Output = LearnerRun;

    fn poll(&mut self) -> Poll {
        span("task", || {
            if self.live.is_none() {
                self.start()
            } else if self.serving {
                self.serve()
            } else {
                self.advance()
            }
        })
    }
}

/// Decode work done by the prewarm, summed across its worker threads.
#[derive(Debug, Default)]
struct DecodeWork {
    ns: AtomicU64,
    frames: AtomicU64,
}

/// The fetch callback: decodes the plan's GOPs that are not resident,
/// once each, fanned over [`WORKERS`] threads, then hands them to the
/// cache through [`GopCache::get_or_decode`] in key order. Inserting in
/// a fixed order keeps the cache's eviction sequence — and with it the
/// decode work of every later tick — independent of thread timing.
fn prewarm(game: &Game, cache: &GopCache, plan: &BatchPlan<usize>, work: &DecodeWork) {
    let missing: Vec<usize> = plan
        .keys
        .iter()
        .copied()
        .filter(|&k| !cache.contains(game.video_id, k))
        .collect();
    if missing.is_empty() {
        return;
    }
    let decoded = span("decode", || {
        parallel_map_indexed(missing.len(), WORKERS, |j| {
            let t = Instant::now();
            let frames = Decoder::default().decode_gop_at(&game.video, missing[j]);
            work.ns
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            frames
        })
    });
    for (key, frames) in missing.into_iter().zip(decoded) {
        // A failed decode is left to the session's own serve, which
        // reports it.
        if let Ok(frames) = frames {
            work.frames
                .fetch_add(frames.len() as u64, Ordering::Relaxed);
            let _ = cache.get_or_decode(game.video_id, key, || Ok(frames));
        }
    }
}

/// A closed batch of learners starting together on one game.
pub struct Cohort<'a> {
    /// The game they play.
    pub game: &'a Game,
    /// The GOP cache they share.
    pub cache: &'a Arc<GopCache>,
    /// Learners in the batch.
    pub learners: usize,
    /// Inputs per learner at most.
    pub steps: usize,
    /// Keep each session's log (for the stream replay).
    pub keep_logs: bool,
}

impl Cohort<'_> {
    /// Runs one batch on the executor with bot and run-queue seeds
    /// derived from `seed`; folds every session into `tally` and returns
    /// the finished sessions.
    pub fn play(&self, seed: u64, tally: &mut Tally) -> Vec<LearnerRun> {
        let tasks: Vec<LearnerTask<'_>> = (0..self.learners)
            .map(|i| {
                LearnerTask::new(
                    self.game,
                    self.cache,
                    mix(seed, i as u64),
                    self.steps,
                    self.keep_logs,
                )
            })
            .collect();
        let work = DecodeWork::default();
        let mut waiters = 0u64;
        let run = span("executor", || {
            run_tasks(tasks, mix(seed, 0xE8EC), |plan: &BatchPlan<usize>| {
                span("batch", || {
                    waiters += plan.waiters.iter().map(|w| w.len() as u64).sum::<u64>();
                    prewarm(self.game, self.cache, plan, &work);
                })
            })
        });
        tally.add_executor(&run.stats);
        tally.batch_waiters += waiters;
        tally.prewarm_decode_ns += work.ns.into_inner();
        tally.prewarm_frames += work.frames.into_inner();
        tally.attempted += self.learners as u64;
        let mut finished = Vec::with_capacity(self.learners);
        for row in run.rows {
            match row {
                Some(Ok(r)) => {
                    tally.sessions += 1;
                    tally.frames += r.frames;
                    tally.served += r.frames;
                    tally.inputs += r.inputs;
                    tally.player_decoded += r.decoded;
                    tally.first_frame_ms.extend(r.first_frame_ms);
                    tally.branch_ms.extend_from_slice(&r.branch_ms);
                    finished.push(r);
                }
                Some(Err(reason)) => {
                    tally.failed += 1;
                    if reason.starts_with(MISMATCH) {
                        tally.mismatches += 1;
                    }
                }
                None => tally.failed += 1,
            }
        }
        finished
    }
}
