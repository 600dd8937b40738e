//! The cooperative executor's one promise: scheduling is invisible.
//!
//! `run_cohort` and `run_playback_cohort` step every session of a cohort
//! on the deterministic executor (seeded run-queue shuffle, yield-at-fetch
//! state machines, per-tick batched prewarm). The reference is the
//! simplest reading of that promise: each session played alone, in index
//! order, with a panic caught as that session's own row. These properties
//! pin the two byte-identical on the same inputs: per-session outcomes,
//! frame/switch accounting, learning aggregates, and the full obs exports
//! (traces, series, counters), including sessions whose bot or bot
//! factory panics, whose bot errors, and whose first GOP is corrupt.
//!
//! One accounting difference by design: the executor prewarms a tick's
//! GOPs through the shared cache before sessions serve, so cache
//! *lookup* counts (hits) differ while *decode* work does not (with a
//! full-capacity cache both sides decode every distinct good GOP exactly
//! once, so `frames_decoded` is compared too; reuse hit counts are
//! not). The executor reports its scheduling only through
//! `ExecutorStats`, so the four exports are compared whole.

use std::panic::{self, catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vgbl_media::cache::GopCache;
use vgbl_media::codec::{EncodeConfig, EncodedVideo, Encoder};
use vgbl_media::color::Rgb;
use vgbl_media::synth::{FootageSpec, ShotSpec};
use vgbl_media::timeline::FrameRate;
use vgbl_media::{SegmentId, SegmentTable};
use vgbl_obs::{Obs, SeriesSpec, SpanRecorder};
use vgbl_runtime::bot::{Bot, GuidedBot, RandomBot};
use vgbl_runtime::engine::{GameSession, SessionConfig};
use vgbl_runtime::fixtures::{fix_the_computer, FRAME};
use vgbl_runtime::input::InputEvent;
use vgbl_runtime::{
    run_cohort, run_playback_cohort, run_session, DecodeReuse, LearningReport,
    PlaybackCohortReport, PlaybackController, PlaybackStats, Result, RuntimeError, ServerReport,
    SessionOutcome,
};

/// A bot that panics the moment it is asked for input.
struct PanicBot;
impl Bot for PanicBot {
    fn next_input(&mut self, _session: &GameSession) -> Result<Option<InputEvent>> {
        panic!("deliberately broken bot");
    }
}

/// A bot whose session errors (typed failure, not a panic).
struct ErrBot;
impl Bot for ErrBot {
    fn next_input(&mut self, _session: &GameSession) -> Result<Option<InputEvent>> {
        Err(RuntimeError::UnknownScenario("err-bot".into()))
    }
}

/// A session's result, or the reason its `Failed` row carries: the
/// error's display, or the panic message as the executor words it.
fn row<T>(run: std::thread::Result<Result<T>>) -> std::result::Result<T, String> {
    match run {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(e.to_string()),
        Err(payload) => Err(match payload.downcast_ref::<&str>() {
            Some(s) => format!("panic: {s}"),
            None => match payload.downcast_ref::<String>() {
                Some(s) => format!("panic: {s}"),
                None => "panic: <non-string payload>".into(),
            },
        }),
    }
}

/// The bot-cohort reference: `run_session` for each index alone, in
/// order, under `catch_unwind`, folded into a [`ServerReport`].
fn bot_sessions_played_alone(
    config: &SessionConfig,
    n_sessions: usize,
    factory: &dyn Fn(usize) -> Box<dyn Bot>,
    max_steps: usize,
    tick_ms: u64,
) -> ServerReport {
    let graph = Arc::new(fix_the_computer());
    let mut outcomes = Vec::with_capacity(n_sessions);
    let mut runs = Vec::new();
    for i in 0..n_sessions {
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut bot = factory(i);
            let (graph, config) = (graph.clone(), config.clone());
            run_session(graph, config, &mut *bot, max_steps, tick_ms, &Obs::noop(), "")
        }));
        match row(run) {
            Ok(r) => {
                outcomes.push(SessionOutcome::Completed);
                runs.push(r);
            }
            Err(reason) => outcomes.push(SessionOutcome::Failed { reason }),
        }
    }
    ServerReport {
        sessions: runs.len(),
        failed: outcomes.iter().filter(|o| o.is_failed()).count(),
        outcomes,
        learning: LearningReport::from_sessions(runs.iter().map(|r| (&r.log, r.state.score))),
        total_steps: runs.iter().map(|r| r.steps).sum(),
    }
}

/// One seeded playback walk; deterministic in `(i, n_segments, steps)`.
/// The trace timeline is the session's simulated playhead (33 ms per
/// rendered step), never wall time.
#[allow(clippy::too_many_arguments)]
fn play_one_session(
    video: Arc<EncodedVideo>,
    segments: SegmentTable,
    cache: Arc<GopCache>,
    i: usize,
    n_segments: u32,
    steps: usize,
    obs: &Obs,
    rec: &mut SpanRecorder,
) -> Result<PlaybackStats> {
    let initial = SegmentId(i as u32 % n_segments);
    let mut player =
        PlaybackController::shared(video, segments, initial, cache)?.with_obs(obs);
    // Cohort-wide series on the session playhead. Bin accumulation is
    // commutative and the horizon (16 s) dwarfs any session playhead,
    // so the export is byte-identical however workers interleave.
    let renders = obs.series(SeriesSpec::counter("server.renders", 250_000, 64));
    let switches = obs.series(SeriesSpec::counter("server.switches", 250_000, 64));
    let mut rng = StdRng::seed_from_u64(0x9e37_79b9 ^ i as u64);
    let mut now_us: u64 = 0;
    rec.enter_with("session", i as u64, now_us);
    rec.event("render", 0, now_us);
    player.current_frame()?;
    for step in 0..steps {
        if rng.gen_range(0..4u32) == 0 {
            let target = SegmentId(rng.gen_range(0..n_segments));
            rec.event("switch", target.0 as u64, now_us);
            switches.record(now_us, 1);
            player.switch_segment(target)?;
        } else {
            player.advance_ms(33);
            now_us = now_us.saturating_add(33_000);
            rec.event("render", step as u64 + 1, now_us);
            renders.record(now_us, 1);
            player.current_frame()?;
        }
    }
    rec.exit(now_us);
    Ok(player.stats())
}

/// The playback-cohort reference: [`play_one_session`] for each index
/// alone, in order, through one shared 64-GOP cache. Each recorder lives
/// outside the unwind boundary, so a panicking walk still exports its
/// spans, and the two `cohort.*` counters tally the rows.
fn playback_sessions_played_alone(
    video: &Arc<EncodedVideo>,
    segments: &SegmentTable,
    n_sessions: usize,
    steps: usize,
    obs: &Obs,
) -> PlaybackCohortReport {
    let n_segments = segments.len().max(1) as u32;
    let cache = Arc::new(GopCache::new(64));
    let completed_ctr = obs.counter("cohort.sessions_completed", &[("pillar", "runtime")]);
    let failed_ctr = obs.counter("cohort.sessions_failed", &[("pillar", "runtime")]);
    let mut outcomes = Vec::with_capacity(n_sessions);
    let mut stats = Vec::new();
    for i in 0..n_sessions {
        let mut rec = obs.recorder(format!("playback-{i:04}"));
        let run = catch_unwind(AssertUnwindSafe(|| {
            let (video, segments, cache) = (video.clone(), segments.clone(), cache.clone());
            play_one_session(video, segments, cache, i, n_segments, steps, obs, &mut rec)
        }));
        obs.attach(rec);
        match row(run) {
            Ok(s) => {
                completed_ctr.inc();
                outcomes.push(SessionOutcome::Completed);
                stats.push(s);
            }
            Err(reason) => {
                failed_ctr.inc();
                outcomes.push(SessionOutcome::Failed { reason });
            }
        }
    }
    PlaybackCohortReport {
        sessions: stats.len(),
        failed: outcomes.iter().filter(|o| o.is_failed()).count(),
        outcomes,
        frames_served: stats.iter().map(|s| s.frames_served).sum(),
        frames_decoded: stats.iter().map(|s| s.frames_decoded).sum(),
        switches: stats.iter().map(|s| s.switches).sum(),
        reuse: DecodeReuse::from_cache(&cache.stats()),
    }
}

/// A three-segment encoded clip: `shot_len` frames per shot, GOP 6.
fn clip(shot_len: usize, noise_seed: u64) -> (Arc<EncodedVideo>, SegmentTable) {
    let footage = FootageSpec {
        width: 32,
        height: 24,
        rate: FrameRate::FPS30,
        shots: vec![
            ShotSpec::plain(shot_len, Rgb::new(210, 40, 40)),
            ShotSpec::plain(shot_len, Rgb::new(40, 210, 40)),
            ShotSpec::plain(shot_len, Rgb::new(40, 40, 210)),
        ],
        noise_seed,
    }
    .render()
    .unwrap();
    let video = Encoder::new(EncodeConfig { gop: 6, ..Default::default() })
        .encode(&footage.frames, footage.rate)
        .unwrap();
    let total = shot_len * 3;
    let table = SegmentTable::from_cuts(total, &[shot_len, shot_len * 2]).unwrap();
    (Arc::new(video), table)
}

/// Everything a playback run produced, all four exports included, with
/// the scheduling-sensitive reuse counters left out.
fn playback_fingerprint(
    report: &PlaybackCohortReport,
    obs: &Obs,
) -> (Vec<String>, usize, usize, usize, usize, usize, String, String, String, String) {
    let snap = obs.snapshot();
    (
        report.outcomes.iter().map(|o| format!("{o:?}")).collect(),
        report.sessions,
        report.failed,
        report.frames_served,
        report.frames_decoded,
        report.switches,
        snap.to_table(),
        snap.metrics_csv(),
        snap.spans_csv(),
        snap.to_jsonl(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The executor-scheduled playback cohort is byte-identical to its
    // sessions played alone: every outcome row, every aggregate, and all
    // four obs export formats. With the first keyframe truncated, the
    // sessions that start on it fail and the rest conceal, so `Failed`
    // rows are compared too. Both caches are fresh and hold 64 GOPs, so
    // decode totals match even though the executor front-loads them
    // into batch prewarms.
    #[test]
    fn playback_cohort_matches_sessions_played_alone(
        n_sessions in 1usize..=64,
        steps in 0usize..32,
        workers in 1usize..5,
        shot_len in 6usize..16,
        noise_seed in any::<u64>(),
        truncate_first_keyframe in any::<bool>(),
    ) {
        let (mut video, table) = clip(shot_len, noise_seed);
        if truncate_first_keyframe {
            Arc::make_mut(&mut video).frames_mut()[0].data.truncate(3);
        }
        let obs_exec = Obs::recording();
        let (exec, _) = run_playback_cohort(
            video.clone(),
            &table,
            Arc::new(GopCache::new(64)),
            n_sessions,
            workers,
            steps,
            &obs_exec,
        );
        let obs_alone = Obs::recording();
        let alone = playback_sessions_played_alone(&video, &table, n_sessions, steps, &obs_alone);
        prop_assert_eq!(
            playback_fingerprint(&exec, &obs_exec),
            playback_fingerprint(&alone, &obs_alone)
        );
    }

    // Bot cohorts agree row for row with their sessions played alone,
    // including a session whose bot panics, one whose bot factory
    // panics, and one whose bot errors: each becomes its own `Failed`
    // row, and the rest aggregate identically (learning report, total
    // steps, outcome order).
    #[test]
    fn bot_cohort_matches_sessions_played_alone(
        n_sessions in 1usize..24,
        panic_at in 0usize..24,
        factory_panic_at in 0usize..24,
        err_at in 0usize..24,
        max_steps in 10usize..80,
    ) {
        let factory = move |i: usize| -> Box<dyn Bot> {
            if i == factory_panic_at {
                panic!("deliberately broken bot factory");
            } else if i == panic_at {
                Box::new(PanicBot)
            } else if i == err_at {
                Box::new(ErrBot)
            } else if i.is_multiple_of(3) {
                Box::new(RandomBot::new(StdRng::seed_from_u64(i as u64)))
            } else {
                Box::new(GuidedBot::new())
            }
        };
        let config = SessionConfig::for_frame(FRAME.0, FRAME.1);
        // Keep the deliberate panics from spamming the test output.
        let prev = panic::take_hook();
        panic::set_hook(Box::new(|_| {}));
        let exec = run_cohort(
            Arc::new(fix_the_computer()),
            config.clone(),
            n_sessions,
            &factory,
            max_steps,
            50,
        );
        let alone = bot_sessions_played_alone(&config, n_sessions, &factory, max_steps, 50);
        panic::set_hook(prev);
        prop_assert_eq!(format!("{exec:?}"), format!("{alone:?}"));
    }
}
