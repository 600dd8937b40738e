//! Video playback over encoded segments.
//!
//! §4.3: "The gaming platform is an augmented video player." This module
//! is the *player* part: it holds the project's encoded video and segment
//! table, tracks which segment a scenario is showing, loops the segment
//! while the player explores it, and switches segments on scenario
//! changes (a seek, measured by EXP-3). Decoded GOPs come from a
//! [`GopCache`] that can be **shared across sessions**: a cohort of
//! players over the same content decodes each GOP once in total, instead
//! of once per player (EXP-11 measures exactly this).

use std::collections::HashSet;
use std::sync::Arc;

use vgbl_media::cache::{GopCache, VideoId};
use vgbl_media::codec::{Decoder, EncodedVideo};
use vgbl_media::{Frame, GopChecksums, MediaError, Segment, SegmentId, SegmentTable};
use vgbl_obs::{Counter, Obs, Series, SeriesSpec};

use crate::Result;

/// GOP capacity of the private cache a standalone player creates.
const PRIVATE_CACHE_GOPS: usize = 8;

/// Accumulated playback-cost counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaybackStats {
    /// Frames served to the UI.
    pub frames_served: usize,
    /// Frames *this session* decoded (its cache misses, GOP walks
    /// included). Frames served from another session's decode count as 0.
    pub frames_decoded: usize,
    /// Segment switches performed.
    pub switches: usize,
    /// GOPs currently resident in the (possibly shared) cache.
    pub cached_gops: usize,
    /// Frames served by freeze-frame concealment because their GOP was
    /// corrupt or undecodable.
    pub concealed: usize,
}

/// Resolved observability handles for the player's event sites; the
/// default (all-noop) handles keep an unobserved player's hot path at
/// one `Option` check per event.
#[derive(Debug, Default)]
struct PlayObs {
    frames_served: Counter,
    frames_decoded: Counter,
    switches: Counter,
    concealed: Counter,
    // Windowed series on the playhead clock (accumulated `advance_ms`
    // wall time), so a concealment burst is attributable to *when in
    // the session* it happened.
    served_series: Series,
    concealed_series: Series,
}

/// Bin width for the playback series: half-second bins of playhead time.
const PLAY_BIN_US: u64 = 500_000;
/// Ring length for the playback series (a 32 s sliding horizon).
const PLAY_BINS: usize = 64;

/// The segment-looping video player.
#[derive(Debug)]
pub struct PlaybackController {
    video: Arc<EncodedVideo>,
    video_id: VideoId,
    segments: SegmentTable,
    decoder: Decoder,
    cache: Arc<GopCache>,
    current: SegmentId,
    /// Position within the current segment, in frames.
    cursor: usize,
    /// Microseconds of accumulated time not yet worth a whole frame.
    residual_us: u64,
    stats: PlaybackStats,
    /// Pristine per-GOP checksums; when present, every GOP is verified
    /// before it is decoded (or fetched from the shared cache), so a
    /// corrupted GOP can never poison other sessions through the cache.
    checksums: Option<GopChecksums>,
    /// Keyframes whose GOP failed verification or decoding. Memoised so
    /// a looping segment does not re-attempt a known-bad decode every
    /// frame; playback resyncs at the next intact keyframe.
    failed_keys: HashSet<usize>,
    /// The most recent successfully served frame — what concealment
    /// freezes on while waiting for the next intact keyframe.
    last_good: Option<Frame>,
    /// Playhead wall clock: total time fed through
    /// [`PlaybackController::advance_ms`], in microseconds. Timestamps
    /// the `playback.*` series so windows mean "the last N seconds of
    /// this session".
    played_us: u64,
    obs: PlayObs,
}

impl PlaybackController {
    /// Creates a standalone player positioned at the start of `initial`,
    /// with its own private decoded-GOP cache.
    ///
    /// # Errors
    /// Fails when the segment table does not match the video length or
    /// `initial` is not in the table.
    pub fn new(
        video: EncodedVideo,
        segments: SegmentTable,
        initial: SegmentId,
    ) -> Result<PlaybackController> {
        Self::shared(
            Arc::new(video),
            segments,
            initial,
            Arc::new(GopCache::new(PRIVATE_CACHE_GOPS)),
        )
    }

    /// Creates a player whose decoded GOPs live in `cache`, which may be
    /// shared with any number of other players of any videos (entries
    /// are keyed by content fingerprint, so distinct streams coexist).
    ///
    /// Set-up is O(1) in the stream's size: the fingerprint is memoised
    /// on the video ([`VideoId::of`]), so the players of one shared
    /// `Arc<EncodedVideo>` hash its payload at most once between them.
    pub fn shared(
        video: Arc<EncodedVideo>,
        segments: SegmentTable,
        initial: SegmentId,
        cache: Arc<GopCache>,
    ) -> Result<PlaybackController> {
        if segments.frame_count() != video.len() {
            return Err(MediaError::InvalidSegment(format!(
                "segment table covers {} frames but video has {}",
                segments.frame_count(),
                video.len()
            ))
            .into());
        }
        segments
            .get(initial)
            .ok_or_else(|| MediaError::InvalidSegment(format!("unknown segment {initial}")))?;
        let video_id = VideoId::of(&video);
        Ok(PlaybackController {
            video,
            video_id,
            segments,
            decoder: Decoder::default(),
            cache,
            current: initial,
            cursor: 0,
            residual_us: 0,
            stats: PlaybackStats::default(),
            checksums: None,
            failed_keys: HashSet::new(),
            last_good: None,
            played_us: 0,
            obs: PlayObs::default(),
        })
    }

    /// Attaches an observability backend: served/decoded/concealed
    /// frames and segment switches additionally feed `playback.*`
    /// counters (labelled `pillar=runtime`) in `obs`'s registry,
    /// mirroring [`PlaybackStats`] through an independent accumulation
    /// path. With a noop backend this is free.
    pub fn with_obs(mut self, obs: &Obs) -> PlaybackController {
        let labels: &[(&str, &str)] = &[("pillar", "runtime")];
        self.obs = PlayObs {
            frames_served: obs.counter("playback.frames_served", labels),
            frames_decoded: obs.counter("playback.frames_decoded", labels),
            switches: obs.counter("playback.switches", labels),
            concealed: obs.counter("playback.concealed", labels),
            served_series: obs
                .series(SeriesSpec::counter("playback.served_series", PLAY_BIN_US, PLAY_BINS)),
            concealed_series: obs.series(SeriesSpec::counter(
                "playback.concealed_series",
                PLAY_BIN_US,
                PLAY_BINS,
            )),
        };
        self
    }

    /// Enables GOP integrity verification against `checksums` (built
    /// from the pristine stream, see [`GopChecksums::build`]). With
    /// verification on, a GOP whose payload was damaged in transit or
    /// storage is detected *before* decoding and concealed, instead of
    /// producing garbage frames or a mid-decode error.
    pub fn with_integrity(mut self, checksums: GopChecksums) -> PlaybackController {
        self.checksums = Some(checksums);
        self
    }

    /// The segment currently playing.
    pub fn current_segment(&self) -> &Segment {
        self.segments.get(self.current).expect("current id stays valid")
    }

    /// Playback-cost counters so far.
    pub fn stats(&self) -> PlaybackStats {
        let mut s = self.stats;
        s.cached_gops = self.cache.stats().resident_gops;
        s
    }

    /// The decoded-GOP cache this player uses (shared or private).
    pub fn cache(&self) -> &Arc<GopCache> {
        &self.cache
    }

    /// The encoded video being played.
    pub fn video(&self) -> &EncodedVideo {
        &self.video
    }

    /// The absolute source-frame index currently displayed.
    pub fn absolute_frame(&self) -> usize {
        let seg = self.current_segment();
        seg.start + self.cursor
    }

    /// Switches to another segment (a scenario change), rewinding to its
    /// first frame. Returns the number of frames decoded to show it
    /// (0 when the target's GOP was already resident).
    pub fn switch_segment(&mut self, id: SegmentId) -> Result<usize> {
        self.seek_segment(id)?;
        let before = self.stats.frames_decoded;
        self.current_frame()?;
        Ok(self.stats.frames_decoded - before)
    }

    /// Moves the playhead to the first frame of `id` **without serving a
    /// frame**. This is [`PlaybackController::switch_segment`] minus the
    /// implicit render: the executor's playback cohort moves every
    /// session first, prewarms the tick's needed GOPs once, and only
    /// then serves — so the switch is counted here and the serve
    /// happens on the follow-up [`PlaybackController::current_frame`].
    pub fn seek_segment(&mut self, id: SegmentId) -> Result<()> {
        self.segments
            .get(id)
            .ok_or_else(|| MediaError::InvalidSegment(format!("unknown segment {id}")))?;
        self.current = id;
        self.cursor = 0;
        self.residual_us = 0;
        self.stats.switches += 1;
        self.obs.switches.inc();
        Ok(())
    }

    /// The keyframe whose GOP the next [`PlaybackController::current_frame`]
    /// call will need. Batch planners use this to prewarm the shared
    /// cache; it performs no decode and touches no counters.
    pub fn pending_keyframe(&self) -> Result<usize> {
        Ok(self.video.keyframe_before(self.absolute_frame())?)
    }

    /// Advances playback by `ms` of wall time, looping within the current
    /// segment. Returns how many frames the cursor moved.
    ///
    /// Arithmetic saturates: a pathological `ms` near `u64::MAX` pins
    /// the playhead clock at the end of time instead of wrapping it
    /// back to zero (the same shape as the `deadline_ms` overflow fix).
    pub fn advance_ms(&mut self, ms: u64) -> usize {
        let frame_us = self.video.rate().frame_duration().as_micros().max(1);
        let advance_us = ms.saturating_mul(1000);
        self.played_us = self.played_us.saturating_add(advance_us);
        let total_us = self.residual_us.saturating_add(advance_us);
        let steps = (total_us / frame_us) as usize;
        self.residual_us = total_us % frame_us;
        let len = self.current_segment().len().max(1);
        self.cursor = (self.cursor + steps) % len;
        steps
    }

    /// Serves the frame under the cursor, from the cache when its GOP is
    /// resident, decoding the GOP (once, for everyone sharing the cache)
    /// when it is not.
    ///
    /// When the GOP is corrupt (checksum mismatch, see
    /// [`PlaybackController::with_integrity`]) or fails to decode, the
    /// player *conceals* instead of erroring: it freezes on the last
    /// good frame, counts the loss in [`PlaybackStats::concealed`], and
    /// resynchronises automatically at the next intact keyframe (GOPs
    /// are independently decodable, so one bad GOP never cascades).
    ///
    /// # Errors
    /// Only structural failures escape: a cursor outside the video, or
    /// an unrecoverable GOP before *any* frame was served (nothing to
    /// freeze on).
    pub fn current_frame(&mut self) -> Result<Frame> {
        let abs = self.absolute_frame();
        let key = self.video.keyframe_before(abs)?;
        match self.fetch_gop(key) {
            Ok(gop) => {
                self.stats.frames_served += 1;
                self.obs.frames_served.inc();
                self.obs.served_series.record(self.played_us, 1);
                let frame = gop[abs - key].clone();
                self.last_good = Some(frame.clone());
                Ok(frame)
            }
            Err(e) => match &self.last_good {
                Some(frame) => {
                    // Freeze-frame concealment; the cursor keeps
                    // advancing, so the next intact GOP resyncs.
                    self.stats.frames_served += 1;
                    self.stats.concealed += 1;
                    self.obs.frames_served.inc();
                    self.obs.served_series.record(self.played_us, 1);
                    self.obs.concealed.inc();
                    self.obs.concealed_series.record(self.played_us, 1);
                    Ok(frame.clone())
                }
                None => Err(e),
            },
        }
    }

    /// Verifies (when integrity is enabled) and decodes the GOP at
    /// `key`, memoising failures so known-bad GOPs are not re-attempted
    /// on every looped frame.
    fn fetch_gop(&mut self, key: usize) -> Result<Arc<Vec<Frame>>> {
        if self.failed_keys.contains(&key) {
            return Err(MediaError::CorruptGop { keyframe: key }.into());
        }
        if let Some(sums) = &self.checksums {
            if let Err(e) = sums.verify(&self.video, key) {
                self.failed_keys.insert(key);
                return Err(e.into());
            }
        }
        let mut decoded = 0usize;
        let outcome = self.cache.get_or_decode(self.video_id, key, || {
            let frames = self.decoder.decode_gop_at(&self.video, key)?;
            decoded = frames.len();
            Ok(frames)
        });
        match outcome {
            Ok(gop) => {
                self.stats.frames_decoded += decoded;
                self.obs.frames_decoded.add(decoded as u64);
                Ok(gop)
            }
            Err(e) => {
                self.failed_keys.insert(key);
                Err(e.into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgbl_media::codec::{EncodeConfig, Encoder};
    use vgbl_media::color::Rgb;
    use vgbl_media::synth::{FootageSpec, ShotSpec};
    use vgbl_media::timeline::FrameRate;

    /// 3 segments of 10 frames each (30 frames total), GOP 5.
    fn encoded_video() -> (EncodedVideo, SegmentTable) {
        let footage = FootageSpec {
            width: 32,
            height: 24,
            rate: FrameRate::FPS30,
            shots: vec![
                ShotSpec::plain(10, Rgb::new(200, 40, 40)),
                ShotSpec::plain(10, Rgb::new(40, 200, 40)),
                ShotSpec::plain(10, Rgb::new(40, 40, 200)),
            ],
            noise_seed: 9,
        }
        .render()
        .unwrap();
        let video = Encoder::new(EncodeConfig { gop: 5, ..Default::default() })
            .encode(&footage.frames, footage.rate)
            .unwrap();
        let table = SegmentTable::from_cuts(30, &[10, 20]).unwrap();
        (video, table)
    }

    fn player() -> PlaybackController {
        let (video, table) = encoded_video();
        PlaybackController::new(video, table, SegmentId(0)).unwrap()
    }

    #[test]
    fn construction_validates() {
        let mut p = player();
        assert_eq!(p.current_segment().id, SegmentId(0));
        assert_eq!(p.absolute_frame(), 0);
        assert!(p.current_frame().is_ok());
        // Mismatched table rejected.
        let video2 = p.video().clone();
        let bad_table = SegmentTable::from_cuts(29, &[10]).unwrap();
        assert!(PlaybackController::new(video2, bad_table, SegmentId(0)).is_err());
    }

    #[test]
    fn advance_loops_within_segment() {
        let mut p = player();
        // 30fps → one frame every 33.333 ms. 100 ms ≈ 3 frames.
        let moved = p.advance_ms(100);
        assert_eq!(moved, 3);
        assert_eq!(p.absolute_frame(), 3);
        // 400 ms more ≈ 12 frames → wraps inside the 10-frame segment.
        p.advance_ms(400);
        assert!(p.absolute_frame() < 10);
        // Never leaves the segment.
        for _ in 0..50 {
            p.advance_ms(77);
            assert!(p.current_segment().contains(p.absolute_frame()));
        }
    }

    #[test]
    fn residual_time_accumulates() {
        let mut p = player();
        // 20 ms < one frame: no step, but residual carries.
        assert_eq!(p.advance_ms(20), 0);
        assert_eq!(p.advance_ms(20), 1); // 40 ms total → 1 frame
    }

    #[test]
    fn switch_segment_seeks_and_counts() {
        let mut p = player();
        let decoded = p.switch_segment(SegmentId(2)).unwrap();
        // Segment 2 starts at frame 20, which is a keyframe (GOP 5): one
        // GOP decode of 5 frames.
        assert_eq!(decoded, 5);
        assert_eq!(p.absolute_frame(), 20);
        let f = p.current_frame().unwrap();
        // Blue-ish shot.
        let c = f.get(1, 1).unwrap();
        assert!(c.b > c.r && c.b > c.g);
        assert!(p.switch_segment(SegmentId(9)).is_err());
        assert_eq!(p.stats().switches, 1);
    }

    #[test]
    fn cache_avoids_redecoding_in_loops() {
        let mut p = player();
        p.current_frame().unwrap();
        let decoded_after_first = p.stats().frames_decoded;
        // Loop through the same segment repeatedly.
        for _ in 0..30 {
            p.advance_ms(33);
            p.current_frame().unwrap();
        }
        let decoded_after_loop = p.stats().frames_decoded;
        // The 10-frame segment spans 2 GOPs (10 frames); both decode once.
        assert!(decoded_after_loop <= decoded_after_first + 10);
        assert!(p.stats().frames_served >= 30);
        assert_eq!(p.stats().cached_gops, 2);
    }

    #[test]
    fn frames_match_direct_decode() {
        let mut p = player();
        let direct = Decoder::default().decode_all(p.video()).unwrap();
        for target in [0usize, 3, 7] {
            p.cursor = target;
            let f = p.current_frame().unwrap();
            assert_eq!(f, direct.frames[target], "frame {target}");
        }
        p.switch_segment(SegmentId(1)).unwrap();
        let f = p.current_frame().unwrap();
        assert_eq!(f, direct.frames[10]);
    }

    /// Corrupts the GOP starting at `keyframe` by flipping payload bits
    /// of its first non-empty frame.
    fn corrupt_gop(video: &mut EncodedVideo, keyframe: usize, gop: usize) {
        let victim = (keyframe..keyframe + gop)
            .find(|&i| !video.frames()[i].data.is_empty())
            .expect("GOP has payload bytes");
        for b in &mut video.frames_mut()[victim].data {
            *b ^= 0xA5;
        }
    }

    #[test]
    fn faulty_gop_is_concealed_and_playback_resyncs() {
        let (mut video, table) = encoded_video();
        let sums = GopChecksums::build(&video);
        corrupt_gop(&mut video, 5, 5); // second GOP of segment 0
        let mut p = PlaybackController::new(video, table, SegmentId(0))
            .unwrap()
            .with_integrity(sums);
        let direct_first = p.current_frame().unwrap(); // frame 0, intact GOP
        assert_eq!(p.stats().concealed, 0);
        // Walk into the corrupt GOP: frames freeze on the last good one.
        p.cursor = 7;
        let frozen = p.current_frame().unwrap();
        assert_eq!(frozen, direct_first, "freeze-frame shows the last good frame");
        p.cursor = 9;
        p.current_frame().unwrap();
        assert_eq!(p.stats().concealed, 2);
        // The loop wraps back into the intact GOP: resync, real frames again.
        p.cursor = 2;
        let resynced = p.current_frame().unwrap();
        let direct = Decoder::default().decode_gop_at(p.video(), 0).unwrap();
        assert_eq!(resynced, direct[2], "resynced frame is the real frame 2");
        assert_eq!(p.stats().concealed, 2, "no concealment after resync");
        assert!(p.stats().frames_served >= 4);
    }

    #[test]
    fn faulty_initial_gop_with_nothing_to_freeze_on_errors() {
        let (mut video, table) = encoded_video();
        let sums = GopChecksums::build(&video);
        corrupt_gop(&mut video, 0, 5);
        let mut p = PlaybackController::new(video, table, SegmentId(0))
            .unwrap()
            .with_integrity(sums);
        let err = p.current_frame().unwrap_err();
        assert!(matches!(
            err,
            crate::RuntimeError::Media(MediaError::CorruptGop { keyframe: 0 })
        ));
        assert_eq!(p.stats().concealed, 0);
    }

    #[test]
    fn faulty_decode_without_checksums_is_memoised_and_concealed() {
        let (mut video, table) = encoded_video();
        // Truncate a payload so the bitstream itself fails to decode —
        // the detection path when no pristine checksums are available.
        let victim = (5..10)
            .find(|&i| video.frames()[i].data.len() > 2)
            .expect("inter frame with payload");
        video.frames_mut()[victim].data.truncate(1);
        let mut p = PlaybackController::new(video, table, SegmentId(0)).unwrap();
        p.current_frame().unwrap(); // intact first GOP
        let decoded_before = p.stats().frames_decoded;
        p.cursor = 8;
        p.current_frame().unwrap(); // concealed
        p.current_frame().unwrap(); // concealed again, decode NOT retried
        assert_eq!(p.stats().concealed, 2);
        assert_eq!(
            p.stats().frames_decoded,
            decoded_before,
            "known-bad GOP must not be re-decoded every frame"
        );
    }

    #[test]
    fn shared_cache_deduplicates_across_players() {
        let (video, table) = encoded_video();
        let video = Arc::new(video);
        let cache = Arc::new(GopCache::new(16));
        let mut players: Vec<PlaybackController> = (0..4)
            .map(|_| {
                PlaybackController::shared(
                    video.clone(),
                    table.clone(),
                    SegmentId(0),
                    cache.clone(),
                )
                .unwrap()
            })
            .collect();
        // Every player walks every segment.
        for p in &mut players {
            for seg in [0u32, 1, 2] {
                p.switch_segment(SegmentId(seg)).unwrap();
                for _ in 0..12 {
                    p.advance_ms(33);
                    p.current_frame().unwrap();
                }
            }
        }
        // 6 GOPs of 5 frames: decoded once in total, not once per player.
        let total_decoded: usize = players.iter().map(|p| p.stats().frames_decoded).sum();
        assert_eq!(total_decoded, 30, "each GOP decodes exactly once");
        let s = cache.stats();
        assert_eq!(s.misses, 6);
        assert!(s.hits > 100, "hits {}", s.hits);
    }

    #[test]
    fn damaged_copy_of_a_memoised_video_never_serves_pristine_frames() {
        // Noisy footage, so no two frames are equal and a concealed frame
        // cannot pass for a pristine one.
        let footage = FootageSpec {
            width: 32,
            height: 24,
            rate: FrameRate::FPS30,
            shots: vec![ShotSpec { noise: 24, ..ShotSpec::plain(10, Rgb::new(200, 40, 40)) }],
            noise_seed: 9,
        }
        .render()
        .unwrap();
        let video = Encoder::new(EncodeConfig { gop: 5, ..Default::default() })
            .encode(&footage.frames, footage.rate)
            .unwrap();
        let table = SegmentTable::from_cuts(10, &[]).unwrap();
        let pristine = Arc::new(video);
        VideoId::of(&pristine);
        let mut damaged = Arc::clone(&pristine);
        corrupt_gop(Arc::make_mut(&mut damaged), 5, 5);
        let cache = Arc::new(GopCache::new(16));
        let player = |video: &Arc<EncodedVideo>| {
            PlaybackController::shared(video.clone(), table.clone(), SegmentId(0), cache.clone())
                .unwrap()
        };
        // Warm the shared cache with both pristine GOPs.
        let mut warm = player(&pristine);
        for cursor in 0..10 {
            warm.cursor = cursor;
            warm.current_frame().unwrap();
        }
        let pristine_gop = Decoder::default().decode_gop_at(&pristine, 5).unwrap();
        let mut p = player(&damaged);
        p.current_frame().unwrap(); // intact first GOP, to freeze on
        for cursor in 5..10 {
            p.cursor = cursor;
            let served = p.current_frame().unwrap();
            assert_ne!(served, pristine_gop[cursor - 5], "frame {cursor} of the damaged GOP");
        }
    }

    #[test]
    fn obs_counters_mirror_playback_stats() {
        let (mut video, table) = encoded_video();
        let sums = GopChecksums::build(&video);
        corrupt_gop(&mut video, 5, 5);
        let obs = Obs::recording();
        let mut p = PlaybackController::new(video, table, SegmentId(0))
            .unwrap()
            .with_integrity(sums)
            .with_obs(&obs);
        p.current_frame().unwrap();
        p.cursor = 7;
        p.current_frame().unwrap(); // concealed
        p.switch_segment(SegmentId(2)).unwrap();
        p.current_frame().unwrap();
        let s = p.stats();
        let snap = obs.snapshot();
        assert_eq!(snap.counter_total("playback.frames_served"), s.frames_served as u64);
        assert_eq!(snap.counter_total("playback.frames_decoded"), s.frames_decoded as u64);
        assert_eq!(snap.counter_total("playback.switches"), s.switches as u64);
        assert_eq!(snap.counter_total("playback.concealed"), s.concealed as u64);
        assert_eq!(snap.counter_total("playback.concealed"), 1);
    }

    #[test]
    fn disabled_shared_cache_decodes_every_lookup() {
        let (video, table) = encoded_video();
        let mut p = PlaybackController::shared(
            Arc::new(video),
            table,
            SegmentId(0),
            Arc::new(GopCache::new(0)),
        )
        .unwrap();
        let f1 = p.current_frame().unwrap();
        let f2 = p.current_frame().unwrap();
        assert_eq!(f1, f2);
        // Two lookups, two full GOP decodes.
        assert_eq!(p.stats().frames_decoded, 10);
        assert_eq!(p.stats().cached_gops, 0);
    }
}
