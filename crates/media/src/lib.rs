//! # vgbl-media — the interactive-video substrate
//!
//! This crate implements everything the VGBL platform (Chang, Hsu & Shih,
//! ICPPW 2007) needs from "interactive video technology" (§2.1 of the
//! paper), built from scratch and fully self-contained:
//!
//! * [`frame`] — raw RGB frames and pixel operations.
//! * [`color`] — colour types and colour-space conversion.
//! * [`timeline`] — frame-accurate timestamps and frame rates.
//! * [`synth`] — a deterministic procedural footage generator that stands
//!   in for camera/film material (the paper's designers "produce scenarios
//!   by shooting videos"); it emits ground-truth shot boundaries so that
//!   detection accuracy is measurable.
//! * [`histogram`] + [`shot`] — shot-boundary detection, the mechanism by
//!   which the authoring tool "divides video into scenario components"
//!   (§4.1), with an optional parallel pipeline.
//! * [`codec`] — a toy but structurally honest intra/inter video codec
//!   (block motion compensation, quantisation, RLE, exp-Golomb bitstream).
//! * [`container`] — the `VGV` container format with a keyframe index.
//! * [`mod@seek`] — random access into encoded video, the operation scenario
//!   switching depends on.
//! * [`cache`] — a bounded, sharded, shareable LRU cache of decoded GOPs
//!   that deduplicates decode work across playback sessions, seeks and
//!   prefetchers.
//! * [`segment`] — video segments, "the basic unit used for presenting
//!   scenarios" (§2.1).
//! * [`stats`] — quality metrics (MSE/PSNR) used by the codec benches.
//! * [`parallel`] — small data-parallel helpers shared by the crate.
//!
//! The substitution rationale (synthetic footage + toy codec instead of
//! 2007-era OS codecs) is documented in the repository's `DESIGN.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod codec;
pub mod color;
pub mod container;
pub mod error;
pub mod frame;
pub mod histogram;
pub mod parallel;
pub mod seek;
pub mod segment;
pub mod shot;
pub mod stats;
pub mod synth;
pub mod timeline;

pub use cache::{CacheStats, GopCache, VideoId};
pub use codec::{DecodedVideo, Decoder, EncodeConfig, Encoder, Quality};
pub use container::{
    payload_checksum, ContainerReader, ContainerWriter, FrameKind, GopChecksums, VgvHeader,
};
pub use error::MediaError;
pub use frame::Frame;
pub use seek::{seek, seek_cached, SeekStats};
pub use segment::{Segment, SegmentId, SegmentTable};
pub use shot::{CutScore, ShotDetector, ShotDetectorConfig};
pub use synth::{Footage, FootageSpec, ShotSpec};
pub use timeline::{FrameRate, MediaTime};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MediaError>;
