//! The `VGV` container format.
//!
//! A minimal but complete on-disk/wire format for encoded interactive
//! video: a fixed header, a frame table (kind + payload length per frame,
//! which doubles as the keyframe index needed for seeking), the
//! concatenated payloads, and an FNV-1a integrity checksum. All integers
//! are little-endian; parsing is defensive — any malformed input yields
//! [`MediaError::CorruptContainer`], never a panic or oversized
//! allocation.

use crate::codec::{EncodedFrame, EncodedVideo, Quality};
use crate::error::MediaError;
use crate::frame::MAX_DIM;
use crate::timeline::FrameRate;
use crate::Result;
use bytes::{Buf, BufMut};
use vgbl_obs::hash::{fnv1a_extend, FNV_OFFSET};

/// File magic: "VGV1".
pub const MAGIC: [u8; 4] = *b"VGV1";

/// Hard cap on the declared frame count, to bound allocations when
/// parsing untrusted headers.
pub const MAX_FRAMES: u32 = 1 << 24;

/// Whether a frame is a keyframe, predicted, or a zero-cost copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Self-contained keyframe.
    Intra,
    /// Predicted from the previous frame.
    Inter,
    /// Identical (after quantisation) to the previous frame: no payload
    /// at all. Looping scenario video is full of these.
    Skip,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Intra => 0,
            FrameKind::Inter => 1,
            FrameKind::Skip => 2,
        }
    }

    fn from_u8(v: u8) -> Option<FrameKind> {
        match v {
            0 => Some(FrameKind::Intra),
            1 => Some(FrameKind::Inter),
            2 => Some(FrameKind::Skip),
            _ => None,
        }
    }
}

/// Parsed VGV header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VgvHeader {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Frame rate.
    pub rate: FrameRate,
    /// Quality preset of the stream.
    pub quality: Quality,
    /// Keyframe interval.
    pub gop: u32,
    /// Number of frames in the stream.
    pub frame_count: u32,
}

/// FNV-1a checksum over the concatenated payloads of `frames` — the same
/// hash [`ContainerWriter`] stores in the trailer, restricted to a frame
/// range. Delivery chunks and GOP integrity checks reuse this path so
/// every consumer agrees on what "intact payload" means.
pub fn payload_checksum(frames: &[EncodedFrame]) -> u64 {
    frames.iter().fold(FNV_OFFSET, |h, f| fnv1a_extend(h, &f.data))
}

/// Per-GOP integrity checksums of one encoded stream, built from pristine
/// bytes and checked later — after transit, caching or storage — to
/// detect payload damage before it reaches the decoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GopChecksums {
    /// `(keyframe, checksum)` pairs, ascending by keyframe.
    sums: Vec<(usize, u64)>,
}

impl GopChecksums {
    /// Computes the checksum of every GOP in `video`.
    pub fn build(video: &EncodedVideo) -> GopChecksums {
        let keyframes = video.keyframes();
        let mut sums = Vec::with_capacity(keyframes.len());
        for (i, &start) in keyframes.iter().enumerate() {
            let end = keyframes.get(i + 1).copied().unwrap_or(video.len());
            sums.push((start, payload_checksum(&video.frames()[start..end])));
        }
        GopChecksums { sums }
    }

    /// Number of GOPs covered.
    pub fn len(&self) -> usize {
        self.sums.len()
    }

    /// Whether no GOPs are covered (empty stream).
    pub fn is_empty(&self) -> bool {
        self.sums.is_empty()
    }

    /// Verifies the GOP starting at `keyframe` against `video`'s current
    /// bytes.
    ///
    /// # Errors
    /// [`MediaError::CorruptGop`] when the payload no longer hashes to
    /// the recorded value, [`MediaError::FrameOutOfRange`] when
    /// `keyframe` does not start a recorded GOP.
    pub fn verify(&self, video: &EncodedVideo, keyframe: usize) -> Result<()> {
        let idx = self
            .sums
            .binary_search_by_key(&keyframe, |&(k, _)| k)
            .map_err(|_| MediaError::FrameOutOfRange { index: keyframe, len: video.len() })?;
        let (start, expect) = self.sums[idx];
        let end = self.sums.get(idx + 1).map(|&(k, _)| k).unwrap_or(video.len());
        if video.len() < end {
            return Err(MediaError::CorruptGop { keyframe });
        }
        if payload_checksum(&video.frames()[start..end]) != expect {
            return Err(MediaError::CorruptGop { keyframe });
        }
        Ok(())
    }
}

/// Serialises [`EncodedVideo`] streams into VGV bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContainerWriter;

impl ContainerWriter {
    /// Writes `video` to a fresh byte vector.
    pub fn write(video: &EncodedVideo) -> Vec<u8> {
        let table_len = video.len() * 5;
        let payload_len = video.payload_bytes();
        let mut out = Vec::with_capacity(4 + 25 + table_len + payload_len + 8);
        out.put_slice(&MAGIC);
        out.put_u32_le(video.width());
        out.put_u32_le(video.height());
        out.put_u32_le(video.rate().num());
        out.put_u32_le(video.rate().den());
        out.put_u8(video.quality().to_u8());
        out.put_u32_le(video.gop());
        out.put_u32_le(video.len() as u32);
        for f in video.frames() {
            out.put_u8(f.kind.to_u8());
            out.put_u32_le(f.data.len() as u32);
        }
        let mut checksum = FNV_OFFSET;
        for f in video.frames() {
            out.put_slice(&f.data);
            checksum = fnv1a_extend(checksum, &f.data);
        }
        out.put_u64_le(checksum);
        out
    }
}

/// Parses VGV bytes back into [`EncodedVideo`] streams.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContainerReader;

impl ContainerReader {
    /// Parses just the header (cheap; used by streaming clients to size
    /// their buffers before fetching payloads).
    pub fn read_header(mut buf: &[u8]) -> Result<VgvHeader> {
        let err = |msg: &str| MediaError::CorruptContainer(msg.into());
        if buf.remaining() < 4 + 4 + 4 + 4 + 4 + 1 + 4 + 4 {
            return Err(err("truncated header"));
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if magic != MAGIC {
            return Err(err("bad magic"));
        }
        let width = buf.get_u32_le();
        let height = buf.get_u32_le();
        if width == 0 || height == 0 || width > MAX_DIM || height > MAX_DIM {
            return Err(err("unreasonable dimensions"));
        }
        let rate_num = buf.get_u32_le();
        let rate_den = buf.get_u32_le();
        let rate = FrameRate::new(rate_num, rate_den).ok_or_else(|| err("zero frame rate"))?;
        let quality = Quality::from_u8(buf.get_u8()).ok_or_else(|| err("unknown quality id"))?;
        let gop = buf.get_u32_le();
        if gop == 0 {
            return Err(err("zero gop"));
        }
        let frame_count = buf.get_u32_le();
        if frame_count > MAX_FRAMES {
            return Err(err("frame count exceeds limit"));
        }
        Ok(VgvHeader { width, height, rate, quality, gop, frame_count })
    }

    /// Parses a complete VGV stream, verifying the checksum.
    pub fn read(bytes: &[u8]) -> Result<EncodedVideo> {
        let err = |msg: &str| MediaError::CorruptContainer(msg.into());
        let header = Self::read_header(bytes)?;
        let mut buf = &bytes[29..]; // fixed header size
        let n = header.frame_count as usize;
        if buf.remaining() < n * 5 {
            return Err(err("truncated frame table"));
        }
        let mut kinds = Vec::with_capacity(n);
        let mut lens = Vec::with_capacity(n);
        let mut total: u64 = 0;
        for _ in 0..n {
            let kind = FrameKind::from_u8(buf.get_u8()).ok_or_else(|| err("bad frame kind"))?;
            let len = buf.get_u32_le();
            kinds.push(kind);
            lens.push(len as usize);
            total += len as u64;
        }
        if (buf.remaining() as u64) < total + 8 {
            return Err(err("truncated payloads"));
        }
        let mut frames = Vec::with_capacity(n);
        let mut checksum = FNV_OFFSET;
        for (kind, len) in kinds.into_iter().zip(lens) {
            let data = buf[..len].to_vec();
            checksum = fnv1a_extend(checksum, &data);
            buf.advance(len);
            frames.push(EncodedFrame { kind, data });
        }
        let stored = buf.get_u64_le();
        if stored != checksum {
            return Err(err("checksum mismatch"));
        }
        if let Some(first) = frames.first() {
            if first.kind != FrameKind::Intra {
                return Err(err("stream does not start with a keyframe"));
            }
        }
        Ok(EncodedVideo::new(
            header.width,
            header.height,
            header.rate,
            header.quality,
            header.gop,
            frames,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{EncodeConfig, Encoder};
    use crate::color::Rgb;
    use crate::synth::{FootageSpec, ShotSpec};

    fn encoded() -> EncodedVideo {
        let footage = FootageSpec {
            width: 32,
            height: 24,
            rate: FrameRate::FPS30,
            shots: vec![ShotSpec::plain(6, Rgb::new(120, 60, 30))],
            noise_seed: 1,
        }
        .render()
        .unwrap();
        Encoder::new(EncodeConfig { gop: 3, ..Default::default() })
            .encode(&footage.frames, footage.rate)
            .unwrap()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let ev = encoded();
        let bytes = ContainerWriter::write(&ev);
        let back = ContainerReader::read(&bytes).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn header_parses_alone() {
        let ev = encoded();
        let bytes = ContainerWriter::write(&ev);
        let h = ContainerReader::read_header(&bytes).unwrap();
        assert_eq!(h.width, 32);
        assert_eq!(h.height, 24);
        assert_eq!(h.frame_count, 6);
        assert_eq!(h.gop, 3);
        assert_eq!(h.quality, ev.quality());
        assert_eq!(h.rate, FrameRate::FPS30);
    }

    #[test]
    fn rejects_bad_magic() {
        let ev = encoded();
        let mut bytes = ContainerWriter::write(&ev);
        bytes[0] = b'X';
        assert!(ContainerReader::read(&bytes).is_err());
    }

    #[test]
    fn rejects_truncations_everywhere() {
        let ev = encoded();
        let bytes = ContainerWriter::write(&ev);
        // Every prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(
                ContainerReader::read(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes unexpectedly parsed"
            );
        }
    }

    #[test]
    fn detects_payload_corruption() {
        let ev = encoded();
        let mut bytes = ContainerWriter::write(&ev);
        let n = bytes.len();
        bytes[n - 20] ^= 0xFF; // flip payload bits near the end
        assert!(matches!(
            ContainerReader::read(&bytes),
            Err(MediaError::CorruptContainer(msg)) if msg.contains("checksum")
        ));
    }

    #[test]
    fn rejects_absurd_header_values() {
        let ev = encoded();
        let mut bytes = ContainerWriter::write(&ev);
        // width = 0
        bytes[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(ContainerReader::read(&bytes).is_err());

        let mut bytes = ContainerWriter::write(&ev);
        // frame_count absurdly large
        bytes[25..29].copy_from_slice(&(MAX_FRAMES + 1).to_le_bytes());
        assert!(ContainerReader::read(&bytes).is_err());

        let mut bytes = ContainerWriter::write(&ev);
        // quality id unknown
        bytes[20] = 99;
        assert!(ContainerReader::read(&bytes).is_err());
    }

    #[test]
    fn rejects_stream_not_starting_with_keyframe() {
        let ev = encoded();
        let mut bytes = ContainerWriter::write(&ev);
        // Frame table starts at offset 29; first byte is frame 0's kind.
        bytes[29] = 1; // claim Inter
        // Fix the checksum path: kinds are not checksummed, so only the
        // keyframe validation should trip.
        assert!(matches!(
            ContainerReader::read(&bytes),
            Err(MediaError::CorruptContainer(msg)) if msg.contains("keyframe")
        ));
    }

    #[test]
    fn empty_stream_roundtrips() {
        let ev = EncodedVideo::new(16, 16, FrameRate::FPS24, Quality::Medium, 10, Vec::new());
        let bytes = ContainerWriter::write(&ev);
        let back = ContainerReader::read(&bytes).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn gop_checksums_verify_pristine_and_flag_damage() {
        let ev = encoded(); // gop 3, 6 frames → 2 GOPs
        let sums = GopChecksums::build(&ev);
        assert_eq!(sums.len(), 2);
        assert!(!sums.is_empty());
        assert!(sums.verify(&ev, 0).is_ok());
        assert!(sums.verify(&ev, 3).is_ok());
        // Non-keyframe index is rejected.
        assert!(matches!(
            sums.verify(&ev, 1),
            Err(MediaError::FrameOutOfRange { .. })
        ));
        // Flip a payload bit in the second GOP: only it reports damage.
        let mut bad = ev.clone();
        let victim = (3..6).find(|&i| !bad.frames()[i].data.is_empty()).unwrap();
        bad.frames_mut()[victim].data[0] ^= 0x40;
        assert!(sums.verify(&bad, 0).is_ok());
        assert!(matches!(
            sums.verify(&bad, 3),
            Err(MediaError::CorruptGop { keyframe: 3 })
        ));
    }

    #[test]
    fn payload_checksum_matches_container_trailer() {
        let ev = encoded();
        let bytes = ContainerWriter::write(&ev);
        let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        assert_eq!(payload_checksum(ev.frames()), stored);
    }

    #[test]
    fn decoded_roundtrip_through_container() {
        use crate::codec::Decoder;
        let ev = encoded();
        let bytes = ContainerWriter::write(&ev);
        let back = ContainerReader::read(&bytes).unwrap();
        let a = Decoder::default().decode_all(&ev).unwrap();
        let b = Decoder::default().decode_all(&back).unwrap();
        assert_eq!(a.frames, b.frames);
    }
}
