//! The seeded playback walk that `executor_equivalence.rs` replays and
//! `driver_golden.rs` pins. One copy, so the reference the executor is
//! checked against and the walk whose frames are pinned cannot drift.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vgbl_media::cache::GopCache;
use vgbl_media::codec::{EncodeConfig, EncodedVideo, Encoder};
use vgbl_media::color::Rgb;
use vgbl_media::synth::{FootageSpec, ShotSpec, SpriteShape, SpriteSpec};
use vgbl_media::timeline::FrameRate;
use vgbl_media::{SegmentId, SegmentTable};
use vgbl_obs::hash::{fnv1a, fnv1a_extend};
use vgbl_obs::{Obs, SeriesSpec, SpanRecorder};
use vgbl_runtime::{PlaybackController, PlaybackStats, Result};

/// A three-segment 32×24 clip, `shot_len` frames per shot, GOP 6, with
/// moving content: every shot has a sprite and noise, so no two frames
/// of a shot are alike and a frame served out of place moves a
/// transcript.
pub fn moving_clip(shot_len: usize) -> (Arc<EncodedVideo>, SegmentTable) {
    let shot = |k: u8| ShotSpec {
        frames: shot_len,
        background: Rgb::new(60 + 60 * k, 180 - 50 * k, 90),
        sprites: vec![SpriteSpec {
            shape: SpriteShape::Rect(8, 6),
            color: Rgb::new(240, 230, 20),
            pos: (4.0 + 6.0 * f32::from(k), 8.0),
            vel: (1.5, 0.5),
        }],
        luma_drift: 0,
        noise: 2,
    };
    let footage = FootageSpec {
        width: 32,
        height: 24,
        rate: FrameRate::FPS30,
        shots: vec![shot(0), shot(1), shot(2)],
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

/// Where a walk's transcript starts: the digest of a session that was
/// shown nothing.
pub fn empty_transcript() -> u64 {
    fnv1a(b"transcript")
}

/// One seeded playback walk; deterministic in `(i, n_segments, steps)`.
/// The trace timeline is the session's simulated playhead (33 ms per
/// rendered step), never wall time. Returns the player's counters and
/// the walk's transcript: an FNV-1a digest over every frame served, in
/// step order.
#[allow(clippy::too_many_arguments)]
pub fn play_one_session(
    video: Arc<EncodedVideo>,
    segments: SegmentTable,
    cache: Arc<GopCache>,
    i: usize,
    n_segments: u32,
    steps: usize,
    obs: &Obs,
    rec: &mut SpanRecorder,
) -> Result<(PlaybackStats, u64)> {
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
    let mut transcript = fnv1a_extend(empty_transcript(), player.current_frame()?.raw());
    for step in 0..steps {
        if rng.gen_range(0..4u32) == 0 {
            let target = SegmentId(rng.gen_range(0..n_segments));
            rec.event("switch", target.0 as u64, now_us);
            switches.record(now_us, 1);
            // `switch_segment`, split so the frame it shows is kept.
            player.seek_segment(target)?;
        } else {
            player.advance_ms(33);
            now_us = now_us.saturating_add(33_000);
            rec.event("render", step as u64 + 1, now_us);
            renders.record(now_us, 1);
        }
        transcript = fnv1a_extend(transcript, player.current_frame()?.raw());
    }
    rec.exit(now_us);
    Ok((player.stats(), transcript))
}
