//! The cooperative executor's one promise: scheduling is invisible.
//!
//! `run_cohort` / `run_playback_cohort*` now step their sessions on the
//! deterministic executor (seeded run queue, yield-at-fetch state
//! machines, per-tick batched prewarm), while the original
//! thread-per-session implementations survive as `*_threaded` reference
//! paths. These properties pin the two byte-identical on the same
//! inputs: per-session outcomes, frame/switch accounting, learning
//! aggregates, and the full obs exports (traces, series, counters) —
//! including cohorts with a panicking bot, whose failure must stay
//! isolated to its own row on both paths.
//!
//! One accounting difference by design: the executor prewarms a tick's
//! GOPs through the shared cache before sessions serve, so cache
//! *lookup* counts (hits) differ while *decode* work does not (with a
//! full-capacity cache both paths decode every distinct GOP exactly
//! once, so `frames_decoded` is compared too; reuse hit counts are
//! not). The executor reports its scheduling only through
//! `ExecutorStats`, so the four exports are compared whole.

use std::panic;
use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;
use vgbl_media::cache::GopCache;
use vgbl_media::codec::{EncodeConfig, EncodedVideo, Encoder};
use vgbl_media::color::Rgb;
use vgbl_media::synth::{FootageSpec, ShotSpec};
use vgbl_media::timeline::FrameRate;
use vgbl_media::SegmentTable;
use vgbl_obs::Obs;
use vgbl_runtime::bot::{Bot, GuidedBot, RandomBot};
use vgbl_runtime::engine::{GameSession, SessionConfig};
use vgbl_runtime::fixtures::{fix_the_computer, FRAME};
use vgbl_runtime::input::InputEvent;
use vgbl_runtime::{
    run_cohort, run_cohort_threaded, run_playback_cohort, run_playback_cohort_threaded,
    PlaybackCohortReport, Result, RuntimeError,
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

    // The executor-scheduled playback cohort is byte-identical to the
    // thread-per-session reference on the same inputs: every outcome
    // row, every aggregate, and all four obs export formats. The caches
    // are fresh and full-capacity on both sides, so decode totals match
    // even though the executor front-loads them into batch prewarms.
    #[test]
    fn playback_cohort_matches_threaded_reference(
        n_sessions in 1usize..10,
        steps in 0usize..32,
        workers in 1usize..5,
        shot_len in 6usize..16,
        noise_seed in any::<u64>(),
    ) {
        let (video, table) = clip(shot_len, noise_seed);
        let obs_exec = Obs::recording();
        let exec = run_playback_cohort(
            video.clone(),
            &table,
            Arc::new(GopCache::new(64)),
            n_sessions,
            workers,
            steps,
            &obs_exec,
        )
        .unwrap()
        .0;
        let obs_thr = Obs::recording();
        let threaded = run_playback_cohort_threaded(
            video,
            &table,
            Arc::new(GopCache::new(64)),
            n_sessions,
            workers,
            steps,
            &obs_thr,
        )
        .unwrap();
        prop_assert_eq!(
            playback_fingerprint(&exec, &obs_exec),
            playback_fingerprint(&threaded, &obs_thr)
        );
    }

    // Bot cohorts agree row-for-row with the reference, including a
    // session that panics mid-cohort and one that errors: both paths
    // isolate them to their own `Failed` rows and aggregate the rest
    // identically (learning report, total steps, outcome order).
    #[test]
    fn bot_cohort_matches_threaded_reference(
        n_sessions in 1usize..24,
        workers in 1usize..5,
        panic_at in 0usize..24,
        err_at in 0usize..24,
        max_steps in 10usize..80,
    ) {
        let factory = move |i: usize| -> Box<dyn Bot> {
            if i == panic_at {
                Box::new(PanicBot)
            } else if i == err_at {
                Box::new(ErrBot)
            } else if i.is_multiple_of(3) {
                Box::new(RandomBot::new(rand::rngs::StdRng::seed_from_u64(i as u64)))
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
        let threaded = run_cohort_threaded(
            Arc::new(fix_the_computer()),
            config,
            n_sessions,
            workers,
            &factory,
            max_steps,
            50,
        );
        panic::set_hook(prev);
        prop_assert_eq!(
            format!("{:?}", exec.unwrap()),
            format!("{:?}", threaded.unwrap())
        );
    }
}
