//! Delivery chunks.
//!
//! The natural delivery unit for the `VGV` codec is the GOP: it starts at
//! a keyframe, so any chunk is independently decodable — exactly what
//! scenario switching needs. [`ChunkMap`] derives the chunk layout (byte
//! sizes, frame ranges, per-segment coverage) from a real encoded stream
//! and its segment table, so the simulation's sizes are the codec's
//! actual output sizes, not made-up numbers.

use vgbl_media::codec::EncodedVideo;
use vgbl_media::{SegmentId, SegmentTable};

use crate::{Result, StreamError};

/// Identifier of a chunk (the index of its GOP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkId(pub u32);

impl ChunkId {
    /// Checked conversion from a chunk index. Chunk ids are `u32` on the
    /// wire (the container's frame-table entries are fixed-width), so an
    /// index above `u32::MAX` must be rejected — the old `i as u32` cast
    /// silently wrapped, aliasing distinct chunks on pathological inputs.
    pub fn from_index(i: usize) -> Result<ChunkId> {
        u32::try_from(i).map(ChunkId).map_err(|_| StreamError::TooManyChunks(i))
    }
}

/// One GOP-chunk's layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// The chunk's id.
    pub id: ChunkId,
    /// First frame covered (a keyframe).
    pub start_frame: usize,
    /// One past the last frame covered.
    pub end_frame: usize,
    /// Payload bytes (sum of the GOP's encoded frames).
    pub bytes: usize,
    /// FNV-1a checksum of the chunk's payload bytes — the container's
    /// integrity path, so clients can verify arrivals against the
    /// pristine stream.
    pub checksum: u64,
}

impl ChunkInfo {
    /// Number of frames in the chunk.
    pub fn frames(&self) -> usize {
        self.end_frame - self.start_frame
    }
}

/// The full chunk layout of one encoded video plus its segment table.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkMap {
    chunks: Vec<ChunkInfo>,
    /// For each segment (by table index): the chunk ids overlapping it,
    /// in playback order.
    per_segment: Vec<Vec<ChunkId>>,
    /// Milliseconds of playback one frame covers.
    frame_ms: f64,
    /// Container header bytes fetched before anything plays.
    header_bytes: usize,
}

impl ChunkMap {
    /// Builds the layout from an encoded stream and its segment table.
    pub fn build(video: &EncodedVideo, segments: &SegmentTable) -> Result<ChunkMap> {
        if video.is_empty() {
            return Err(StreamError::EmptyVideo);
        }
        let keyframes = video.keyframes();
        let mut chunks = Vec::with_capacity(keyframes.len());
        for (i, &start) in keyframes.iter().enumerate() {
            let end = keyframes.get(i + 1).copied().unwrap_or(video.len());
            let gop = &video.frames()[start..end];
            chunks.push(ChunkInfo {
                id: ChunkId::from_index(i)?,
                start_frame: start,
                end_frame: end,
                bytes: gop.iter().map(|f| f.data.len()).sum(),
                checksum: vgbl_media::payload_checksum(gop),
            });
        }
        let mut per_segment = Vec::with_capacity(segments.len());
        for seg in segments.segments() {
            let ids: Vec<ChunkId> = chunks
                .iter()
                .filter(|c| c.start_frame < seg.end && seg.start < c.end_frame)
                .map(|c| c.id)
                .collect();
            per_segment.push(ids);
        }
        let frame_ms = 1000.0 / video.rate().as_f64();
        // Header: magic + fixed fields + frame table (5 bytes/frame).
        let header_bytes = 29 + video.len() * 5 + 8;
        Ok(ChunkMap { chunks, per_segment, frame_ms, header_bytes })
    }

    /// All chunks in playback order.
    pub fn chunks(&self) -> &[ChunkInfo] {
        &self.chunks
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.chunks.len()
    }

    /// A built map is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Looks a chunk up.
    pub fn get(&self, id: ChunkId) -> Option<&ChunkInfo> {
        self.chunks.get(id.0 as usize)
    }

    /// The chunks a segment needs, in playback order.
    pub fn segment_chunks(&self, segment: SegmentId) -> Result<&[ChunkId]> {
        self.per_segment
            .get(segment.0 as usize)
            .map(Vec::as_slice)
            .ok_or(StreamError::UnknownSegment(segment.0))
    }

    /// Playback duration of one chunk in milliseconds.
    pub fn chunk_play_ms(&self, id: ChunkId) -> f64 {
        self.get(id).map(|c| c.frames() as f64 * self.frame_ms).unwrap_or(0.0)
    }

    /// Container header size in bytes.
    pub fn header_bytes(&self) -> usize {
        self.header_bytes
    }

    /// Total payload bytes across all chunks.
    pub fn total_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgbl_media::codec::{EncodeConfig, Encoder};
    use vgbl_media::color::Rgb;
    use vgbl_media::synth::{FootageSpec, ShotSpec};
    use vgbl_media::timeline::FrameRate;

    fn build(gop: usize) -> (EncodedVideo, SegmentTable) {
        let footage = FootageSpec {
            width: 32,
            height: 24,
            rate: FrameRate::FPS30,
            shots: vec![
                ShotSpec::plain(10, Rgb::new(180, 40, 40)),
                ShotSpec::plain(10, Rgb::new(40, 180, 40)),
                ShotSpec::plain(10, Rgb::new(40, 40, 180)),
            ],
            noise_seed: 6,
        }
        .render()
        .unwrap();
        let video = Encoder::new(EncodeConfig { gop, ..Default::default() })
            .encode(&footage.frames, footage.rate)
            .unwrap();
        let table = SegmentTable::from_cuts(30, &[10, 20]).unwrap();
        (video, table)
    }

    #[test]
    fn chunks_cover_video_exactly() {
        let (video, table) = build(5);
        let map = ChunkMap::build(&video, &table).unwrap();
        assert_eq!(map.len(), 6);
        let mut expect = 0;
        for c in map.chunks() {
            assert_eq!(c.start_frame, expect);
            expect = c.end_frame;
            assert_eq!(c.frames(), 5);
            assert!(c.bytes > 0);
        }
        assert_eq!(expect, 30);
        assert_eq!(map.total_bytes(), video.payload_bytes());
    }

    #[test]
    fn segment_chunks_align_on_gop_multiples() {
        let (video, table) = build(5);
        let map = ChunkMap::build(&video, &table).unwrap();
        assert_eq!(map.segment_chunks(SegmentId(0)).unwrap(), &[ChunkId(0), ChunkId(1)]);
        assert_eq!(map.segment_chunks(SegmentId(1)).unwrap(), &[ChunkId(2), ChunkId(3)]);
        assert_eq!(map.segment_chunks(SegmentId(2)).unwrap(), &[ChunkId(4), ChunkId(5)]);
        assert!(map.segment_chunks(SegmentId(9)).is_err());
    }

    #[test]
    fn misaligned_segments_share_chunks() {
        let (video, _) = build(7); // GOP 7 does not divide the cuts
        let table = SegmentTable::from_cuts(30, &[10, 20]).unwrap();
        let map = ChunkMap::build(&video, &table).unwrap();
        // Segment 1 covers frames [10,20): chunks [7,14) and [14,21).
        let ids = map.segment_chunks(SegmentId(1)).unwrap();
        assert_eq!(ids, &[ChunkId(1), ChunkId(2)]);
    }

    #[test]
    fn play_time_and_header() {
        let (video, table) = build(5);
        let map = ChunkMap::build(&video, &table).unwrap();
        // 5 frames at 30 fps ≈ 166.7 ms.
        let ms = map.chunk_play_ms(ChunkId(0));
        assert!((ms - 5000.0 / 30.0).abs() < 1e-9);
        assert_eq!(map.header_bytes(), 29 + 30 * 5 + 8);
        assert_eq!(map.chunk_play_ms(ChunkId(99)), 0.0);
    }

    #[test]
    fn chunk_checksums_follow_the_container_fault_path() {
        let (video, table) = build(5);
        let map = ChunkMap::build(&video, &table).unwrap();
        for c in map.chunks() {
            assert_eq!(
                c.checksum,
                vgbl_media::payload_checksum(&video.frames()[c.start_frame..c.end_frame])
            );
        }
        // Distinct GOPs of real content should not collide.
        let mut sums: Vec<u64> = map.chunks().iter().map(|c| c.checksum).collect();
        sums.dedup();
        assert!(sums.len() > 1);
    }

    /// Regression: `ChunkMap::build` used `i as u32`, which wraps above
    /// `u32::MAX` and aliases distinct chunks. A real 4-billion-chunk
    /// video is impractical to encode, so the checked helper is public
    /// and pinned directly.
    #[test]
    fn chunk_id_from_index_rejects_overflow() {
        assert_eq!(ChunkId::from_index(0).unwrap(), ChunkId(0));
        assert_eq!(ChunkId::from_index(u32::MAX as usize).unwrap(), ChunkId(u32::MAX));
        let too_big = u32::MAX as usize + 1;
        assert!(matches!(
            ChunkId::from_index(too_big),
            Err(StreamError::TooManyChunks(i)) if i == too_big
        ));
    }

    #[test]
    fn empty_video_rejected() {
        let (mut empty, table) = build(5);
        empty.frames_mut().clear();
        assert!(matches!(ChunkMap::build(&empty, &table), Err(StreamError::EmptyVideo)));
    }
}
