//! Prefetch policies.
//!
//! Linear streaming prefetches "whatever comes next on the timeline" —
//! correct for TV, wrong for interactive video, where the next content is
//! whichever scenario the *player* jumps to. The branch-aware policy uses
//! the scenario graph's outgoing edges to warm exactly those segments,
//! which is the measurable payoff of owning both the player and the
//! content model (EXP-7).

use vgbl_media::cache::{GopCache, VideoId};
use vgbl_media::codec::{Decoder, EncodedVideo};
use vgbl_media::SegmentId;

use crate::chunk::{ChunkId, ChunkMap};
use crate::{Result, StreamError};

/// What the policy may look at when planning fetches.
#[derive(Debug, Clone)]
pub struct PrefetchContext<'a> {
    /// The chunk layout.
    pub map: &'a ChunkMap,
    /// The chunk currently playing.
    pub playing: ChunkId,
    /// The segment currently playing.
    pub segment: SegmentId,
    /// Segments reachable from the current scenario in one transition
    /// (the scenario graph's out-edges), in authoring order.
    pub branch_targets: &'a [SegmentId],
}

/// A fetch-ahead strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchPolicy {
    /// Fetch nothing ahead; every miss stalls.
    None,
    /// Fetch the next `lookahead` chunks in timeline order.
    Linear {
        /// Chunks to stay ahead by.
        lookahead: usize,
    },
    /// Fetch the remainder of the current segment, then the first
    /// `per_branch` chunks of every one-transition-away segment.
    BranchAware {
        /// Chunks to warm per outgoing branch.
        per_branch: usize,
    },
}

impl PrefetchPolicy {
    /// Stable label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            PrefetchPolicy::None => "none",
            PrefetchPolicy::Linear { .. } => "linear",
            PrefetchPolicy::BranchAware { .. } => "branch-aware",
        }
    }

    /// The ordered chunk wish-list for the given moment (already-fetched
    /// chunks are filtered by the client).
    pub fn plan(&self, ctx: &PrefetchContext<'_>) -> Vec<ChunkId> {
        match *self {
            PrefetchPolicy::None => Vec::new(),
            PrefetchPolicy::Linear { lookahead } => {
                let start = ctx.playing.0 as usize + 1;
                (start..(start + lookahead).min(ctx.map.len()))
                    .map(|i| ChunkId(i as u32))
                    .collect()
            }
            PrefetchPolicy::BranchAware { per_branch } => {
                let mut out = Vec::new();
                // Rest of the current segment first (the player keeps
                // looping it while exploring).
                if let Ok(ids) = ctx.map.segment_chunks(ctx.segment) {
                    for &id in ids {
                        if id.0 > ctx.playing.0 {
                            out.push(id);
                        }
                    }
                }
                // Then the heads of every branch target.
                for &seg in ctx.branch_targets {
                    if let Ok(ids) = ctx.map.segment_chunks(seg) {
                        for &id in ids.iter().take(per_branch) {
                            if !out.contains(&id) {
                                out.push(id);
                            }
                        }
                    }
                }
                out
            }
        }
    }
}

/// Decode-ahead: warms a shared decoded-GOP cache for a prefetch plan.
///
/// Fetching bytes ahead of a branch (what [`PrefetchPolicy::plan`]
/// schedules) hides *network* latency; this hides the *decode* latency
/// that remains — each planned chunk is one GOP (`start_frame` is its
/// keyframe), so decoding it into `cache` turns the seek that follows the
/// branch the player actually takes into a pure cache hit. Sessions
/// sharing `cache` benefit even when a different session took the branch
/// first.
///
/// Already-resident GOPs cost nothing; the return value is the number of
/// GOPs newly decoded. Plan entries outside the map are ignored.
///
/// # Errors
/// [`StreamError::Decode`] when the underlying bitstream fails to decode.
pub fn warm_decoded_gops(
    plan: &[ChunkId],
    map: &ChunkMap,
    decoder: &Decoder,
    video: &EncodedVideo,
    video_id: VideoId,
    cache: &GopCache,
) -> Result<usize> {
    let mut warmed = 0usize;
    for &id in plan {
        let Some(chunk) = map.get(id) else { continue };
        let mut decoded = false;
        cache
            .get_or_decode(video_id, chunk.start_frame, || {
                let frames = decoder.decode_gop_at(video, chunk.start_frame)?;
                decoded = true;
                Ok(frames)
            })
            .map_err(|e| StreamError::Decode(e.to_string()))?;
        warmed += usize::from(decoded);
    }
    Ok(warmed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgbl_media::codec::{EncodeConfig, Encoder};
    use vgbl_media::color::Rgb;
    use vgbl_media::synth::{FootageSpec, ShotSpec};
    use vgbl_media::timeline::FrameRate;
    use vgbl_media::SegmentTable;
    use vgbl_obs::Obs;

    fn video_and_map() -> (EncodedVideo, ChunkMap) {
        let footage = FootageSpec {
            width: 24,
            height: 16,
            rate: FrameRate::FPS30,
            shots: vec![ShotSpec::plain(40, Rgb::GREY)],
            noise_seed: 0,
        }
        .render()
        .unwrap();
        let video = Encoder::new(EncodeConfig { gop: 5, ..Default::default() })
            .encode(&footage.frames, footage.rate)
            .unwrap();
        // 4 segments of 10 frames = 2 chunks each.
        let table = SegmentTable::from_cuts(40, &[10, 20, 30]).unwrap();
        let map = ChunkMap::build(&video, &table).unwrap();
        (video, map)
    }

    fn map() -> ChunkMap {
        video_and_map().1
    }

    #[test]
    fn none_plans_nothing() {
        let m = map();
        let ctx = PrefetchContext {
            map: &m,
            playing: ChunkId(0),
            segment: SegmentId(0),
            branch_targets: &[],
        };
        assert!(PrefetchPolicy::None.plan(&ctx).is_empty());
    }

    #[test]
    fn linear_plans_next_chunks_capped() {
        let m = map();
        let ctx = PrefetchContext {
            map: &m,
            playing: ChunkId(2),
            segment: SegmentId(1),
            branch_targets: &[],
        };
        let plan = PrefetchPolicy::Linear { lookahead: 3 }.plan(&ctx);
        assert_eq!(plan, vec![ChunkId(3), ChunkId(4), ChunkId(5)]);
        // Near the end, the plan truncates.
        let ctx = PrefetchContext { playing: ChunkId(6), ..ctx };
        let plan = PrefetchPolicy::Linear { lookahead: 5 }.plan(&ctx);
        assert_eq!(plan, vec![ChunkId(7)]);
    }

    #[test]
    fn branch_aware_warms_current_then_branches() {
        let m = map();
        // Playing chunk 0 of segment 0; branches to segments 2 and 3.
        let ctx = PrefetchContext {
            map: &m,
            playing: ChunkId(0),
            segment: SegmentId(0),
            branch_targets: &[SegmentId(2), SegmentId(3)],
        };
        let plan = PrefetchPolicy::BranchAware { per_branch: 1 }.plan(&ctx);
        // Rest of segment 0 (chunk 1), then heads of segments 2 (chunk 4)
        // and 3 (chunk 6).
        assert_eq!(plan, vec![ChunkId(1), ChunkId(4), ChunkId(6)]);
    }

    #[test]
    fn branch_aware_dedups_shared_targets() {
        let m = map();
        let ctx = PrefetchContext {
            map: &m,
            playing: ChunkId(0),
            segment: SegmentId(0),
            branch_targets: &[SegmentId(1), SegmentId(1)],
        };
        let plan = PrefetchPolicy::BranchAware { per_branch: 2 }.plan(&ctx);
        assert_eq!(plan, vec![ChunkId(1), ChunkId(2), ChunkId(3)]);
    }

    #[test]
    fn warming_makes_branch_seeks_free() {
        let (video, m) = video_and_map();
        let id = VideoId::of(&video);
        let dec = Decoder::default();
        let cache = GopCache::new(16);
        let ctx = PrefetchContext {
            map: &m,
            playing: ChunkId(0),
            segment: SegmentId(0),
            branch_targets: &[SegmentId(2), SegmentId(3)],
        };
        let plan = PrefetchPolicy::BranchAware { per_branch: 1 }.plan(&ctx);
        let warmed = warm_decoded_gops(&plan, &m, &dec, &video, id, &cache).unwrap();
        assert_eq!(warmed, 3, "chunk 1 + branch heads 4 and 6");
        // The seek into either branch target now decodes nothing.
        for target in [20usize, 30] {
            let (frame, stats) =
                vgbl_media::seek::seek_cached(&dec, &video, id, &cache, target, &Obs::noop())
                    .unwrap();
            assert_eq!(stats.frames_decoded, 0, "target {target} warmed");
            let (direct, _) = vgbl_media::seek::seek(&dec, &video, target).unwrap();
            assert_eq!(frame, direct);
        }
        // Re-warming the same plan decodes nothing new.
        let again = warm_decoded_gops(&plan, &m, &dec, &video, id, &cache).unwrap();
        assert_eq!(again, 0);
    }

    #[test]
    fn warming_ignores_out_of_map_chunks() {
        let (video, m) = video_and_map();
        let cache = GopCache::new(8);
        let warmed = warm_decoded_gops(
            &[ChunkId(99), ChunkId(0)],
            &m,
            &Decoder::default(),
            &video,
            VideoId::of(&video),
            &cache,
        )
        .unwrap();
        assert_eq!(warmed, 1);
        assert_eq!(cache.stats().resident_gops, 1);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PrefetchPolicy::None.label(), "none");
        assert_eq!(PrefetchPolicy::Linear { lookahead: 2 }.label(), "linear");
        assert_eq!(PrefetchPolicy::BranchAware { per_branch: 1 }.label(), "branch-aware");
    }
}
