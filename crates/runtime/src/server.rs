//! Multi-session hosting (EXP-8).
//!
//! The paper situates the platform in a distance-learning deployment —
//! many students playing concurrently against shared content. Because
//! [`vgbl_scene::SceneGraph`] is immutable at play time, sessions share
//! it through an `Arc` and scale far past the OS thread limit: the
//! public cohort entry points run every session as a cooperative state
//! machine on the deterministic [`crate::executor`] (seeded run queue,
//! per-tick batched GOP prewarm through the work-stealing decode pool),
//! and aggregate the per-session analytics into one [`LearningReport`].
//! `tests/executor_equivalence.rs` pins each cohort byte-identical to its
//! sessions played alone, one after another. The playback cohort takes
//! the `&Obs` its counters and per-session traces go to ([`Obs::noop`]
//! records nothing).
//!
//! **Fault isolation**: a session that errors — or outright panics — is
//! contained to its own [`SessionOutcome::Failed`] row. The rest of the
//! cohort completes and the cohort call still returns its report; a
//! server for "millions of users" cannot let one broken session kill
//! the process.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vgbl_obs::{Obs, Series, SeriesSpec, SpanRecorder};
use vgbl_media::cache::{GopCache, VideoId};
use vgbl_media::codec::{Decoder, EncodedVideo};
use vgbl_media::{SegmentId, SegmentTable};
use vgbl_scene::SceneGraph;

use crate::analytics::{DecodeReuse, LearningReport};
use crate::bot::{drive, Bot, BotRun};
use crate::engine::{GameSession, SessionConfig};
use crate::executor::{run_tasks, ExecutorStats, SessionTask, Step};
use crate::playback::{PlaybackController, PlaybackStats};

/// Seed of the executor's run-queue shuffle. Fixed: cohort output must
/// not depend on it (the shuffle exists to prove that), so there is
/// nothing to configure.
const RUN_QUEUE_SEED: u64 = 0x9e37_79b9_0000_0018;

/// What the server runs per session: a factory producing a fresh bot for
/// session `i`.
pub type BotFactory = dyn Fn(usize) -> Box<dyn Bot>;

/// How one session of a cohort ended.
///
/// The plain cohort servers only produce `Completed`/`Failed`; the
/// supervised server ([`crate::supervisor`]) adds the overload and
/// recovery outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionOutcome {
    /// The session ran to completion and contributed to the report.
    Completed,
    /// The session errored or panicked; its work is excluded from the
    /// aggregates but the rest of the cohort is unaffected.
    Failed {
        /// Human-readable failure cause (error display or panic message).
        reason: String,
    },
    /// The session was rejected by admission control before it ran
    /// (queue full, or its queue wait exceeded the deadline).
    Shed {
        /// Why admission control rejected it.
        reason: String,
    },
    /// The session panicked at least once but the supervisor restarted
    /// it from a checkpoint and it ran to completion.
    Recovered {
        /// The decision step the last restart resumed from.
        resumed_at_step: usize,
        /// How many restarts it took.
        restarts: u32,
    },
    /// The session kept panicking until its restart budget ran out.
    GaveUp {
        /// Restarts spent before giving up.
        restarts: u32,
        /// The final failure cause.
        reason: String,
    },
}

impl SessionOutcome {
    /// Whether this session failed outright (errored, panicked without
    /// recovery, or exhausted its restart budget). Shed sessions are
    /// *not* failures — they never ran.
    pub fn is_failed(&self) -> bool {
        matches!(self, SessionOutcome::Failed { .. } | SessionOutcome::GaveUp { .. })
    }

    /// Whether admission control shed this session.
    pub fn is_shed(&self) -> bool {
        matches!(self, SessionOutcome::Shed { .. })
    }

    /// Whether this session completed, with or without restarts.
    pub fn is_completed(&self) -> bool {
        matches!(self, SessionOutcome::Completed | SessionOutcome::Recovered { .. })
    }
}

/// `(completed, failed, shed, recovered, gave_up)` tallied from
/// `outcomes` — the ground truth a report's scalar counters must match.
pub(crate) fn outcome_counts(outcomes: &[SessionOutcome]) -> (usize, usize, usize, usize, usize) {
    let mut c = (0usize, 0usize, 0usize, 0usize, 0usize);
    for o in outcomes {
        match o {
            SessionOutcome::Completed => c.0 += 1,
            SessionOutcome::Failed { .. } => c.1 += 1,
            SessionOutcome::Shed { .. } => c.2 += 1,
            SessionOutcome::Recovered { .. } => c.3 += 1,
            SessionOutcome::GaveUp { .. } => c.4 += 1,
        }
    }
    c
}

/// Turns a caught panic payload into a reportable reason string.
pub(crate) fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".into()
    }
}

/// Splits the executor's per-index rows into `(outcomes, completed)` — a
/// missing row becomes a `Failed` row, never a panic.
fn split_rows<T>(
    rows: Vec<Option<std::result::Result<T, String>>>,
) -> (Vec<SessionOutcome>, Vec<T>) {
    let mut outcomes = Vec::with_capacity(rows.len());
    let mut completed = Vec::new();
    for row in rows {
        match row {
            Some(Ok(v)) => {
                outcomes.push(SessionOutcome::Completed);
                completed.push(v);
            }
            Some(Err(reason)) => outcomes.push(SessionOutcome::Failed { reason }),
            None => outcomes.push(SessionOutcome::Failed {
                reason: "session never reported".into(),
            }),
        }
    }
    (outcomes, completed)
}

/// Aggregated outcome of a server run.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Sessions that completed successfully.
    pub sessions: usize,
    /// Sessions that failed (errored or panicked).
    pub failed: usize,
    /// Per-session outcome, indexed by session number.
    pub outcomes: Vec<SessionOutcome>,
    /// The cohort's learning metrics (completed sessions only).
    pub learning: LearningReport,
    /// Total decisions submitted across all completed sessions.
    pub total_steps: usize,
}

/// One bot session as a cooperative task: each poll runs `run_session`'s
/// decision loop for one step, then yields. A panicking bot or factory
/// retires only this task.
struct BotSessionTask<'a> {
    graph: Arc<SceneGraph>,
    config: SessionConfig,
    factory: &'a BotFactory,
    i: usize,
    max_steps: usize,
    tick_ms: u64,
    bot: Option<Box<dyn Bot>>,
    session: Option<GameSession>,
    steps: usize,
}

impl SessionTask for BotSessionTask<'_> {
    type Fetch = u32;
    type Output = BotRun;

    fn poll(&mut self) -> Step<u32, std::result::Result<BotRun, String>> {
        if self.session.is_none() {
            // Setup mirrors `run_session`: the factory runs inside the
            // executor's per-poll isolation boundary, so a panicking
            // factory fails only this session.
            self.bot = Some((self.factory)(self.i));
            match GameSession::new(self.graph.clone(), self.config.clone()) {
                Ok((session, _)) => self.session = Some(session),
                Err(e) => return Step::Done(Err(e.to_string())),
            }
        }
        let session = self.session.as_mut().expect("setup ran");
        let bot = self.bot.as_mut().expect("setup ran");
        let limit = self.max_steps.min(self.steps.saturating_add(1));
        match drive(session, &mut **bot, self.steps, limit, self.tick_ms, |_, _| {}) {
            Ok(steps) if steps > self.steps => {
                self.steps = steps;
                Step::Pending
            }
            Ok(_) => Step::Done(Ok(BotRun::of(session, self.steps))),
            Err(e) => Step::Done(Err(e.to_string())),
        }
    }
}

/// Runs `n_sessions` bot sessions on the cooperative executor; one
/// decision per session per tick, every session in flight at once.
///
/// Deterministic *per session*: session `i` always plays the same game
/// (factories receive the session index, so seeded bots reproduce runs
/// regardless of scheduling): the report is byte-identical to playing
/// each session alone with [`crate::bot::run_session`], in index
/// order. Bot decisions are not batchable work, so there is no decode
/// pool to size.
///
/// Sessions are fault-isolated: a panicking or erroring session (or bot
/// factory) becomes a [`SessionOutcome::Failed`] row while every other
/// session completes.
pub fn run_cohort(
    graph: Arc<SceneGraph>,
    config: SessionConfig,
    n_sessions: usize,
    bot_factory: &BotFactory,
    max_steps: usize,
    tick_ms: u64,
) -> ServerReport {
    let tasks: Vec<BotSessionTask<'_>> = (0..n_sessions)
        .map(|i| BotSessionTask {
            graph: graph.clone(),
            config: config.clone(),
            factory: bot_factory,
            i,
            max_steps,
            tick_ms,
            bot: None,
            session: None,
            steps: 0,
        })
        .collect();
    let run = run_tasks(tasks, RUN_QUEUE_SEED, |_plan| {});
    let (outcomes, runs) = split_rows(run.rows);

    let total_steps = runs.iter().map(|r| r.steps).sum();
    let learning = LearningReport::from_sessions(runs.iter().map(|r| (&r.log, r.state.score)));
    ServerReport {
        sessions: runs.len(),
        failed: outcomes.iter().filter(|o| o.is_failed()).count(),
        outcomes,
        learning,
        total_steps,
    }
}

/// Aggregated outcome of a playback cohort run (EXP-11).
#[derive(Debug, Clone)]
pub struct PlaybackCohortReport {
    /// Sessions that completed successfully.
    pub sessions: usize,
    /// Sessions that failed (errored or panicked).
    pub failed: usize,
    /// Per-session outcome, indexed by session number.
    pub outcomes: Vec<SessionOutcome>,
    /// Frames served to players, summed over the cohort.
    pub frames_served: usize,
    /// Frames actually decoded, summed over the cohort. With a shared
    /// cache large enough for the video this approaches the frame count
    /// of the video itself — each GOP decoded once *in total*.
    pub frames_decoded: usize,
    /// Segment switches performed, summed over the cohort.
    pub switches: usize,
    /// Decode-reuse counters of the shared cache after the run.
    pub reuse: DecodeReuse,
}

/// One playback walk as a cooperative task. Each tick moves the walk
/// one step (a seeded switch-or-advance draw), yields
/// [`Step::Fetch`] for the GOP its next serve needs — the executor
/// coalesces the whole tick's keys and prewarms them once — then
/// serves from the (now warm) cache. Events, series records and RNG
/// draws happen in exactly the order the same walk makes them when
/// played alone in one loop (the reference walk in
/// `tests/executor_equivalence.rs`), so the walk and its trace are
/// byte-identical to it.
struct PlaybackSessionTask<'a> {
    video: Arc<EncodedVideo>,
    segments: SegmentTable,
    cache: Arc<GopCache>,
    i: usize,
    n_segments: u32,
    steps: usize,
    obs: &'a Obs,
    rec: SpanRecorder,
    player: Option<PlaybackController>,
    renders: Series,
    switches: Series,
    rng: StdRng,
    now_us: u64,
    /// Steps already *moved*; the pending serve closes this step.
    step: usize,
    /// Whether the next poll serves (after a fetch) or moves.
    serving: bool,
}

impl PlaybackSessionTask<'_> {
    /// Transitions into the serve phase, requesting the needed GOP
    /// when it is knowable (a broken cursor falls through to the serve,
    /// which produces the same error the walk played alone would).
    fn request_serve(&mut self) -> Step<usize, std::result::Result<PlaybackStats, String>> {
        self.serving = true;
        match self.player.as_ref().expect("player set in init").pending_keyframe() {
            Ok(key) => Step::Fetch(key),
            Err(_) => self.poll(),
        }
    }
}

impl SessionTask for PlaybackSessionTask<'_> {
    type Fetch = usize;
    type Output = PlaybackStats;

    fn poll(&mut self) -> Step<usize, std::result::Result<PlaybackStats, String>> {
        if self.player.is_none() {
            // Setup in the reference walk's order: player, series
            // handles, RNG, root span, the step-0 render event.
            let initial = SegmentId(self.i as u32 % self.n_segments);
            let player = match PlaybackController::shared(
                self.video.clone(),
                self.segments.clone(),
                initial,
                self.cache.clone(),
            ) {
                Ok(p) => p.with_obs(self.obs),
                Err(e) => return Step::Done(Err(e.to_string())),
            };
            self.player = Some(player);
            self.renders = self.obs.series(SeriesSpec::counter("server.renders", 250_000, 64));
            self.switches = self.obs.series(SeriesSpec::counter("server.switches", 250_000, 64));
            self.rng = StdRng::seed_from_u64(0x9e37_79b9 ^ self.i as u64);
            self.rec.enter_with("session", self.i as u64, self.now_us);
            self.rec.event("render", 0, self.now_us);
            return self.request_serve();
        }
        if self.serving {
            self.serving = false;
            let player = self.player.as_mut().expect("player set in init");
            if let Err(e) = player.current_frame() {
                return Step::Done(Err(e.to_string()));
            }
            if self.step >= self.steps {
                self.rec.exit(self.now_us);
                return Step::Done(Ok(player.stats()));
            }
            return Step::Pending;
        }
        // Move phase: the same draws, events and series records as the
        // reference walk's loop body, split at the fetch boundary.
        let step = self.step;
        self.step += 1;
        if self.rng.gen_range(0..4u32) == 0 {
            let target = SegmentId(self.rng.gen_range(0..self.n_segments));
            self.rec.event("switch", target.0 as u64, self.now_us);
            self.switches.record(self.now_us, 1);
            if let Err(e) = self.player.as_mut().expect("player set in init").seek_segment(target)
            {
                return Step::Done(Err(e.to_string()));
            }
        } else {
            self.player.as_mut().expect("player set in init").advance_ms(33);
            self.now_us = self.now_us.saturating_add(33_000);
            self.rec.event("render", step as u64 + 1, self.now_us);
            self.renders.record(self.now_us, 1);
        }
        self.request_serve()
    }

    fn flush(&mut self) {
        // The recorder outlives any panic inside `poll`, so a session
        // that dies mid-walk still exports every span it recorded.
        self.obs.attach(std::mem::replace(&mut self.rec, SpanRecorder::disabled()));
    }
}

/// Runs `n_sessions` simulated playback sessions on the cooperative
/// executor, all decoding through one shared [`GopCache`]; `workers`
/// sizes the work-stealing pool the per-tick batch prewarm fans decode
/// work over. Returns the cohort report and the executor's scheduler
/// counters (EXP-18 reads `peak_in_flight` and the batch totals).
///
/// Each session is a deterministic seeded random walk: it starts in
/// segment `i mod n_segments`, and per step either switches to a random
/// segment (1 in 4) or advances ~one frame of wall time and renders. The
/// *frames each session sees* are bit-exact regardless of `workers` or
/// cache capacity; only who pays for decoding varies, which is exactly
/// what [`PlaybackCohortReport`] measures.
///
/// Playback and cache counters flow into `obs`, and every session
/// exports one trace (labelled `playback-0007`-style) of
/// `switch`/`render` events on the media timeline.
///
/// **Panic-safe flushing**: each session's [`SpanRecorder`] lives
/// outside the executor's per-poll isolation boundary and is attached
/// when the task retires, so a session that panics mid-walk still
/// exports every span it recorded (open spans are closed at the last
/// recorded moment). The cohort's `cohort.sessions_completed` /
/// `cohort.sessions_failed` counters match the report's `sessions` /
/// `failed` fields exactly.
pub fn run_playback_cohort(
    video: Arc<EncodedVideo>,
    segments: &SegmentTable,
    cache: Arc<GopCache>,
    n_sessions: usize,
    workers: usize,
    steps_per_session: usize,
    obs: &Obs,
) -> (PlaybackCohortReport, ExecutorStats) {
    let n_segments = segments.len().max(1) as u32;
    if n_sessions == 0 {
        return (
            PlaybackCohortReport {
                sessions: 0,
                failed: 0,
                outcomes: Vec::new(),
                frames_served: 0,
                frames_decoded: 0,
                switches: 0,
                reuse: DecodeReuse::from_cache(&cache.stats()),
            },
            ExecutorStats::default(),
        );
    }
    let workers = workers.max(1);
    let video_id = VideoId::of(&video);
    let decoder = Decoder::default();
    let completed_ctr = obs.counter("cohort.sessions_completed", &[("pillar", "runtime")]);
    let failed_ctr = obs.counter("cohort.sessions_failed", &[("pillar", "runtime")]);
    // The prewarm's decodes feed the same registry counter the players'
    // own decodes do, so counter totals keep matching the report.
    let decoded_ctr = obs.counter("playback.frames_decoded", &[("pillar", "runtime")]);

    let tasks: Vec<PlaybackSessionTask<'_>> = (0..n_sessions)
        .map(|i| PlaybackSessionTask {
            video: video.clone(),
            segments: segments.clone(),
            cache: cache.clone(),
            i,
            n_segments,
            steps: steps_per_session,
            obs,
            rec: obs.recorder(format!("playback-{i:04}")),
            player: None,
            renders: Series::default(),
            switches: Series::default(),
            rng: StdRng::seed_from_u64(0),
            now_us: 0,
            step: 0,
            serving: false,
        })
        .collect();

    // Batch resolution: decode the tick's missing GOPs exactly once,
    // fanned over the work-stealing pool, driven by the executor's
    // coalesced fetch plan (`GopCache::prewarm`). Failures are left for
    // the sessions' own serve path, which conceals (or fails) with the
    // unbatched semantics. With caching disabled there is no residency
    // to share: sessions decode for themselves, as they would played
    // alone.
    let mut prewarm_frames = 0usize;
    let run = run_tasks(tasks, RUN_QUEUE_SEED, |plan| {
        let frames =
            cache.prewarm(video_id, &plan.keys, workers, |k| decoder.decode_gop_at(&video, k));
        prewarm_frames += frames;
        decoded_ctr.add(frames as u64);
    });
    let (outcomes, stats) = split_rows(run.rows);
    completed_ctr.add(stats.len() as u64);
    let failed = outcomes.iter().filter(|o| o.is_failed()).count();
    failed_ctr.add(failed as u64);

    (
        PlaybackCohortReport {
            sessions: stats.len(),
            failed,
            outcomes,
            frames_served: stats.iter().map(|s| s.frames_served).sum(),
            frames_decoded: stats.iter().map(|s| s.frames_decoded).sum::<usize>() + prewarm_frames,
            switches: stats.iter().map(|s| s.switches).sum(),
            reuse: DecodeReuse::from_cache(&cache.stats()),
        },
        run.stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bot::{GuidedBot, RandomBot};
    use crate::fixtures::{fix_the_computer, FRAME};

    fn config() -> SessionConfig {
        SessionConfig::for_frame(FRAME.0, FRAME.1)
    }

    #[test]
    fn cohort_of_guided_bots_all_complete() {
        let report = run_cohort(
            Arc::new(fix_the_computer()),
            config(),
            16,
            &|_| Box::new(GuidedBot::new()),
            100,
            50,
        );
        assert_eq!(report.sessions, 16);
        assert_eq!(report.learning.completed, 16);
        assert_eq!(report.learning.completion_rate(), 1.0);
        assert!(report.total_steps > 0);
    }

    #[test]
    fn empty_cohort_is_fine() {
        let report = run_cohort(
            Arc::new(fix_the_computer()),
            config(),
            0,
            &|_| Box::new(GuidedBot::new()),
            10,
            0,
        );
        assert_eq!(report.sessions, 0);
    }

    fn cohort_video() -> (Arc<EncodedVideo>, SegmentTable) {
        use vgbl_media::codec::{EncodeConfig, Encoder};
        use vgbl_media::color::Rgb;
        use vgbl_media::synth::{FootageSpec, ShotSpec};
        use vgbl_media::timeline::FrameRate;

        let footage = FootageSpec {
            width: 32,
            height: 24,
            rate: FrameRate::FPS30,
            shots: vec![
                ShotSpec::plain(12, Rgb::new(210, 40, 40)),
                ShotSpec::plain(12, Rgb::new(40, 210, 40)),
                ShotSpec::plain(12, Rgb::new(40, 40, 210)),
            ],
            noise_seed: 77,
        }
        .render()
        .unwrap();
        let video = Encoder::new(EncodeConfig { gop: 6, ..Default::default() })
            .encode(&footage.frames, footage.rate)
            .unwrap();
        let table = SegmentTable::from_cuts(36, &[12, 24]).unwrap();
        (Arc::new(video), table)
    }

    #[test]
    fn playback_cohort_shares_decode_work() {
        let (video, table) = cohort_video();
        let cache = Arc::new(GopCache::new(16));
        let (report, _) =
            run_playback_cohort(video.clone(), &table, cache, 64, 4, 40, &Obs::noop());
        assert_eq!(report.sessions, 64);
        assert!(report.frames_served >= 64 * 30);
        // 6 GOPs × 6 frames = 36 decodable frames. With a cache that holds
        // the whole video, the cohort decodes each GOP exactly once in
        // total — not once per session.
        assert_eq!(report.frames_decoded, video.len());
        assert_eq!(report.reuse.misses, 6);
        assert!(
            report.reuse.hit_rate() >= 0.9,
            "hit rate {:.3}",
            report.reuse.hit_rate()
        );
    }

    #[test]
    fn playback_cohort_frames_deterministic_across_workers_and_capacity() {
        let (video, table) = cohort_video();
        let run = |workers: usize, capacity: usize| {
            run_playback_cohort(
                video.clone(),
                &table,
                Arc::new(GopCache::new(capacity)),
                12,
                workers,
                30,
                &Obs::noop(),
            )
            .0
        };
        let a = run(1, 16);
        let b = run(4, 16);
        let c = run(4, 2);
        // Session walks are seeded per index: served frames and switches
        // never depend on scheduling or on cache capacity.
        assert_eq!(a.frames_served, b.frames_served);
        assert_eq!(a.switches, b.switches);
        assert_eq!(a.frames_served, c.frames_served);
        assert_eq!(a.switches, c.switches);
        // Only the decode cost varies: a tiny cache decodes more.
        assert!(c.frames_decoded >= a.frames_decoded);
    }

    #[test]
    fn playback_cohort_under_eviction_is_the_same_whatever_the_workers() {
        // Two of the six GOPs fit, so most ticks' prewarms evict. Their
        // inserts go in key order, so which GOPs stay, and so every later
        // decode, hit and eviction, does not depend on thread timing.
        let (video, table) = cohort_video();
        let run = |workers: usize| {
            let cache = Arc::new(GopCache::new(2));
            let (report, stats) = run_playback_cohort(
                video.clone(),
                &table,
                cache.clone(),
                24,
                workers,
                30,
                &Obs::noop(),
            );
            (format!("{report:?}"), cache.stats(), stats)
        };
        let one = run(1);
        assert!(one.1.evictions > 0, "{:?}", one.1);
        for workers in 2..=4 {
            assert_eq!(run(workers), one, "{workers} workers");
        }
    }

    #[test]
    fn empty_playback_cohort_is_fine() {
        let (video, table) = cohort_video();
        let cache = Arc::new(GopCache::new(4));
        let (report, _) = run_playback_cohort(video, &table, cache, 0, 4, 10, &Obs::noop());
        assert_eq!(report.sessions, 0);
        assert_eq!(report.frames_served, 0);
    }

    #[test]
    fn obs_observed_cohort_counters_match_report_exactly() {
        let (video, table) = cohort_video();
        let obs = Obs::recording();
        let (report, _) = run_playback_cohort(
            video.clone(),
            &table,
            Arc::new(GopCache::new(16)),
            12,
            4,
            30,
            &obs,
        );
        // Observation does not perturb the cohort.
        let cache = Arc::new(GopCache::new(16));
        let (plain, _) = run_playback_cohort(video, &table, cache, 12, 4, 30, &Obs::noop());
        assert_eq!(report.frames_served, plain.frames_served);
        assert_eq!(report.switches, plain.switches);

        let snap = obs.snapshot();
        // Counter totals are *independently accumulated* mirrors of the
        // report: any drift between the two paths is a real bug.
        assert_eq!(snap.counter_total("cohort.sessions_completed"), report.sessions as u64);
        assert_eq!(snap.counter_total("cohort.sessions_failed"), report.failed as u64);
        assert_eq!(snap.counter_total("playback.frames_served"), report.frames_served as u64);
        assert_eq!(snap.counter_total("playback.frames_decoded"), report.frames_decoded as u64);
        assert_eq!(snap.counter_total("playback.switches"), report.switches as u64);
        // Span events agree too: a switch serves one frame internally,
        // so renders + switches account for every served frame.
        assert_eq!(snap.span_count("switch"), report.switches);
        assert_eq!(snap.span_count("render") + snap.span_count("switch"), report.frames_served);
        assert_eq!(snap.traces.len(), 12);
        assert_eq!(snap.traces[0].label, "playback-0000");
        assert_eq!(snap.traces[11].label, "playback-0011");
    }

    #[test]
    fn obs_observed_cohort_exports_are_byte_identical_across_worker_counts() {
        let (video, table) = cohort_video();
        let run = |workers: usize| {
            let obs = Obs::recording();
            run_playback_cohort(
                video.clone(),
                &table,
                Arc::new(GopCache::new(16)),
                8,
                workers,
                25,
                &obs,
            );
            let snap = obs.snapshot();
            (snap.to_table(), snap.metrics_csv(), snap.spans_csv(), snap.to_jsonl())
        };
        assert_eq!(run(1), run(4));
    }

    /// A bot that panics the moment it is asked for input.
    struct PanicBot;
    impl crate::bot::Bot for PanicBot {
        fn next_input(
            &mut self,
            _session: &crate::engine::GameSession,
        ) -> crate::Result<Option<crate::InputEvent>> {
            panic!("deliberately broken bot");
        }
    }

    /// A bot whose session errors (typed failure, not a panic).
    struct ErrBot;
    impl crate::bot::Bot for ErrBot {
        fn next_input(
            &mut self,
            _session: &crate::engine::GameSession,
        ) -> crate::Result<Option<crate::InputEvent>> {
            Err(crate::RuntimeError::UnknownScenario("err-bot".into()))
        }
    }

    #[test]
    fn faulty_bot_panic_is_isolated_to_one_session() {
        // Keep the deliberate panic from spamming the test output.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_cohort(
            Arc::new(fix_the_computer()),
            config(),
            64,
            &|i| {
                if i == 17 {
                    Box::new(PanicBot)
                } else {
                    Box::new(GuidedBot::new())
                }
            },
            100,
            50,
        );
        std::panic::set_hook(prev);
        assert_eq!(report.sessions, 63);
        assert_eq!(report.failed, 1);
        assert_eq!(report.outcomes.len(), 64);
        assert!(report.outcomes[17].is_failed());
        match &report.outcomes[17] {
            SessionOutcome::Failed { reason } => {
                assert!(reason.contains("deliberately broken bot"), "{reason}");
            }
            other => unreachable!("{other:?}"),
        }
        assert_eq!(
            report.outcomes.iter().filter(|o| !o.is_failed()).count(),
            63
        );
        assert_eq!(report.learning.completed, 63, "the other 63 still complete");
    }

    #[test]
    fn faulty_bot_error_is_reported_not_propagated() {
        let report = run_cohort(
            Arc::new(fix_the_computer()),
            config(),
            8,
            &|i| {
                if i % 2 == 1 {
                    Box::new(ErrBot)
                } else {
                    Box::new(GuidedBot::new())
                }
            },
            50,
            50,
        );
        assert_eq!(report.sessions, 4);
        assert_eq!(report.failed, 4);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.is_failed(), i % 2 == 1, "session {i}");
        }
        match &report.outcomes[1] {
            SessionOutcome::Failed { reason } => assert!(reason.contains("err-bot"), "{reason}"),
            other => unreachable!("{other:?}"),
        }
    }

    #[test]
    fn faulty_gop_fails_some_playback_sessions_but_not_the_cohort() {
        let (video, table) = cohort_video();
        // Truncate the first keyframe's payload: sessions whose walk
        // starts at segment 0 frame 0 have nothing to freeze on and
        // fail; everyone else completes (concealing if their walk
        // wanders into the bad GOP later).
        let mut broken = (*video).clone();
        assert!(broken.frames()[0].data.len() > 4, "keyframe has a payload");
        broken.frames_mut()[0].data.truncate(3);
        let (report, _) = run_playback_cohort(
            Arc::new(broken),
            &table,
            Arc::new(GopCache::new(16)),
            12,
            4,
            30,
            &Obs::noop(),
        );
        // Sessions 0, 3, 6, 9 start in segment 0 (i % 3 == 0).
        assert_eq!(report.failed, 4, "{:?}", report.outcomes);
        assert_eq!(report.sessions, 8);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.is_failed(), i % 3 == 0, "session {i}: {o:?}");
        }
        assert!(report.frames_served > 0);
    }

    #[test]
    fn mixed_cohort_reports_blended_metrics() {
        // Half guided, half random: completion rate sits strictly between.
        let report = run_cohort(
            Arc::new(fix_the_computer()),
            config(),
            10,
            &|i| {
                if i % 2 == 0 {
                    Box::new(GuidedBot::new())
                } else {
                    Box::new(RandomBot::new(StdRng::seed_from_u64(i as u64)))
                }
            },
            60,
            50,
        );
        assert!(report.learning.completion_rate() >= 0.5);
        assert!(report.learning.avg_decisions > 0.0);
    }
}
