//! Random access into encoded video.
//!
//! Scenario switching — the heart of interactive video (paper §2.1:
//! "buttons and objects on the video frame can be triggered to change the
//! play sequence") — is a *seek* in codec terms: jump to the first frame
//! of the target segment. Its cost is the GOP walk from the preceding
//! keyframe; EXP-3 sweeps the keyframe interval against this cost.

use vgbl_obs::{Obs, SeriesSpec};

use crate::cache::{GopCache, VideoId};
use crate::codec::{Decoder, EncodedVideo};
use crate::frame::Frame;
use crate::Result;

/// Cost accounting for one seek.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeekStats {
    /// The requested frame.
    pub target: usize,
    /// The keyframe the decode started from.
    pub keyframe: usize,
    /// Frames decoded to satisfy the request (≥ 1 for a direct seek;
    /// 0 for a cached seek served entirely from a resident GOP).
    pub frames_decoded: usize,
}

/// Seeks to `index`, returning the decoded frame and its cost.
pub fn seek(decoder: &Decoder, video: &EncodedVideo, index: usize) -> Result<(Frame, SeekStats)> {
    let keyframe = video.keyframe_before(index)?;
    let (frame, frames_decoded) = decoder.decode_frame(video, index)?;
    Ok((frame, SeekStats { target: index, keyframe, frames_decoded }))
}

/// Seeks to `index` through the shared decoded-GOP cache: a resident GOP
/// answers with zero decode work, a miss decodes the **whole** GOP once
/// (slightly more than the direct GOP walk) and leaves it resident for
/// every later seek and every other session sharing `cache`.
///
/// The returned frame is bit-identical to [`seek`]'s — both reconstruct
/// the same GOP walk; the cache only changes *when* decoding happens.
///
/// Each seek increments `seek.requests` in `obs` and records the
/// GOP-walk cost (`seek.gop_walk_frames`, frames actually decoded — 0
/// on a resident GOP) and the keyframe distance
/// (`seek.keyframe_distance`, frames between the target and its
/// preceding keyframe, the quantity EXP-3 sweeps), all under
/// `pillar=media`. With [`Obs::noop`] that is four `Option` checks.
pub fn seek_cached(
    decoder: &Decoder,
    video: &EncodedVideo,
    video_id: VideoId,
    cache: &GopCache,
    index: usize,
    obs: &Obs,
) -> Result<(Frame, SeekStats)> {
    let labels: &[(&str, &str)] = &[("pillar", "media")];
    obs.counter("seek.requests", labels).inc();
    let keyframe = video.keyframe_before(index)?;
    let mut frames_decoded = 0usize;
    let gop = cache.get_or_decode(video_id, keyframe, || {
        let frames = decoder.decode_gop_at(video, keyframe)?;
        frames_decoded = frames.len();
        Ok(frames)
    })?;
    let frame = gop[index - keyframe].clone();
    obs.histogram("seek.gop_walk_frames", labels).record(frames_decoded as u64);
    obs.histogram("seek.keyframe_distance", labels).record((index - keyframe) as u64);
    // Windowed series keyed by position on the media timeline (the
    // target frame index), so hot seek regions show up as bins with
    // high max distance — the histogram alone can't localise them.
    obs.series(SeriesSpec::gauge("seek.keyframe_distance_series", 16, 64))
        .record(index as u64, (index - keyframe) as u64);
    Ok((frame, SeekStats { target: index, keyframe, frames_decoded }))
}

/// Average number of frames decoded per seek over the given targets.
pub fn average_seek_cost(video: &EncodedVideo, targets: &[usize]) -> Result<f64> {
    if targets.is_empty() {
        return Ok(0.0);
    }
    let mut total = 0usize;
    for &t in targets {
        let k = video.keyframe_before(t)?;
        total += t - k + 1;
    }
    Ok(total as f64 / targets.len() as f64)
}

/// Analytic expectation of the seek cost for uniform random targets within
/// a stream of keyframe interval `gop`: `(gop + 1) / 2` frames.
pub fn expected_seek_cost(gop: usize) -> f64 {
    (gop as f64 + 1.0) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{EncodeConfig, Encoder};
    use crate::color::Rgb;
    use crate::synth::{FootageSpec, ShotSpec};
    use crate::timeline::FrameRate;

    fn encoded(gop: usize, frames: usize) -> EncodedVideo {
        let footage = FootageSpec {
            width: 24,
            height: 16,
            rate: FrameRate::FPS30,
            shots: vec![ShotSpec::plain(frames, Rgb::new(90, 140, 60))],
            noise_seed: 5,
        }
        .render()
        .unwrap();
        Encoder::new(EncodeConfig { gop, ..Default::default() })
            .encode(&footage.frames, footage.rate)
            .unwrap()
    }

    #[test]
    fn seek_returns_correct_frame_and_stats() {
        let ev = encoded(4, 10);
        let dec = Decoder::default();
        let all = dec.decode_all(&ev).unwrap();
        for target in 0..10 {
            let (frame, stats) = seek(&dec, &ev, target).unwrap();
            assert_eq!(frame, all.frames[target], "target {target}");
            assert_eq!(stats.target, target);
            assert_eq!(stats.keyframe, (target / 4) * 4);
            assert_eq!(stats.frames_decoded, target - stats.keyframe + 1);
        }
    }

    #[test]
    fn seek_out_of_range_errors() {
        let ev = encoded(4, 6);
        assert!(seek(&Decoder::default(), &ev, 6).is_err());
    }

    #[test]
    fn average_cost_matches_hand_computation() {
        let ev = encoded(5, 10);
        // Targets 0..10: costs 1,2,3,4,5,1,2,3,4,5 → mean 3.0.
        let targets: Vec<usize> = (0..10).collect();
        let avg = average_seek_cost(&ev, &targets).unwrap();
        assert!((avg - 3.0).abs() < 1e-9);
        assert_eq!(average_seek_cost(&ev, &[]).unwrap(), 0.0);
    }

    #[test]
    fn expected_cost_formula() {
        assert_eq!(expected_seek_cost(1), 1.0);
        assert_eq!(expected_seek_cost(15), 8.0);
        // Smaller GOP always seeks cheaper.
        assert!(expected_seek_cost(5) < expected_seek_cost(30));
    }

    #[test]
    fn all_intra_streams_seek_in_one_frame() {
        let ev = encoded(1, 8);
        let dec = Decoder::default();
        for target in 0..8 {
            let (_, stats) = seek(&dec, &ev, target).unwrap();
            assert_eq!(stats.frames_decoded, 1);
        }
    }

    #[test]
    fn cached_seek_is_bit_identical_to_direct() {
        let ev = encoded(4, 10);
        let id = VideoId::of(&ev);
        let dec = Decoder::default();
        let cache = GopCache::new(8);
        for target in 0..10 {
            let (direct, _) = seek(&dec, &ev, target).unwrap();
            let (cached, stats) = seek_cached(&dec, &ev, id, &cache, target, &Obs::noop()).unwrap();
            assert_eq!(cached, direct, "target {target}");
            assert_eq!(stats.target, target);
            assert_eq!(stats.keyframe, (target / 4) * 4);
        }
    }

    #[test]
    fn warm_seeks_decode_nothing() {
        let ev = encoded(5, 10);
        let id = VideoId::of(&ev);
        let dec = Decoder::default();
        let cache = GopCache::new(8);
        // Cold pass: each GOP decodes fully, exactly once.
        let (_, cold) = seek_cached(&dec, &ev, id, &cache, 3, &Obs::noop()).unwrap();
        assert_eq!(cold.frames_decoded, 5, "cold seek decodes the whole GOP");
        // Warm passes: any target in the resident GOP costs zero decodes.
        for target in 0..5 {
            let (_, warm) = seek_cached(&dec, &ev, id, &cache, target, &Obs::noop()).unwrap();
            assert_eq!(warm.frames_decoded, 0, "target {target}");
            assert!(warm.frames_decoded < cold.frames_decoded);
        }
        assert_eq!(cache.stats().hits, 5);
    }

    #[test]
    fn disabled_cache_still_seeks_correctly() {
        let ev = encoded(4, 8);
        let id = VideoId::of(&ev);
        let dec = Decoder::default();
        let cache = GopCache::new(0);
        for target in [1usize, 6, 3] {
            let (direct, _) = seek(&dec, &ev, target).unwrap();
            let (cached, stats) = seek_cached(&dec, &ev, id, &cache, target, &Obs::noop()).unwrap();
            assert_eq!(cached, direct);
            assert!(stats.frames_decoded >= 1, "capacity 0 always decodes");
        }
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn obs_seek_records_requests_and_walk_costs() {
        let ev = encoded(5, 10);
        let id = VideoId::of(&ev);
        let dec = Decoder::default();
        let cache = GopCache::new(8);
        let obs = Obs::recording();
        // Cold seek to frame 3 (walk decodes GOP of 5), warm seeks 0..5.
        for target in [3usize, 0, 1, 2, 3, 4] {
            let (frame, _) = seek_cached(&dec, &ev, id, &cache, target, &obs).unwrap();
            let (direct, _) = seek(&dec, &ev, target).unwrap();
            assert_eq!(frame, direct);
        }
        let snap = obs.snapshot();
        assert_eq!(snap.counter_total("seek.requests"), 6);
        let walk = snap.histogram("seek.gop_walk_frames").unwrap();
        assert_eq!(walk.count, 6);
        assert_eq!(walk.sum, 5, "one cold GOP decode, then all resident");
        let dist = snap.histogram("seek.keyframe_distance").unwrap();
        // Targets [3,0,1,2,3,4] sit 3,0,1,2,3,4 frames past keyframe 0.
        assert_eq!(dist.sum, 13);
    }

    #[test]
    fn cached_seek_out_of_range_errors() {
        let ev = encoded(4, 6);
        let cache = GopCache::new(4);
        let err = seek_cached(&Decoder::default(), &ev, VideoId::of(&ev), &cache, 6, &Obs::noop());
        assert!(err.is_err());
    }
}
