//! Golden byte-identity gate for the hot-path optimizations.
//!
//! The four constants below were pinned **before** the PR-6
//! optimizations (chunked `block_sad`, Arc-backed planes/frames,
//! raw-buffer codec loops). The optimizations claim byte-identical
//! output; if any of these fingerprints moves, an "optimization"
//! changed the bitstream or the decoded RGB and must be rejected, not
//! re-pinned. Re-pin only for a deliberate format change that says so
//! in its commit message.
//!
//! `ODD_SIZE_PINNED` was pinned the same way, before the padded-reference
//! motion search, the 16-wide SAD rows, the quantiser table and the
//! accumulating bit writer. Its 72×40 frames end in partial macroblocks
//! (8 columns and 8 rows), and its ±12 search reaches past every edge, so
//! it covers the edge handling that the interior-only 96×64 pins miss.
//!
//! `HIGH_PINNED` was pinned the same way, before the table-driven
//! residual decode that reconstructs straight from the bitstream. It
//! covers `Quality::High`, the one preset the other pins do not decode,
//! at 128×96 with GOP 12 and a ±3 search: the shape of sessionbench's
//! `branchy_watch` stream.
//!
//! `BRANCHY_PINNED` was pinned the same way, before the pair-table
//! residual decode. Its footage has `branchy_watch`'s settings as well
//! as its shape: `Quality::Medium`, shots of 24 frames with no lighting
//! drift, noise 2 and two sprites of one size and speed per shot.
//!
//! `AUTHOR_PINNED` was pinned the same way, before the copied-macroblock
//! motion search and the mask-driven residual writer. It encodes footage
//! with `author_import`'s settings (64×48, nine 30-frame shots,
//! `Quality::Medium`, GOP 15, a ±7 search, noise 2, no drift, two 8×8
//! sprites) through `encode_aligned`, with keyframes on the shot cuts.

use vgbl::media::codec::{Decoder, EncodeConfig, EncodedVideo, Encoder, Quality};
use vgbl::media::synth::Footage;
use vgbl::media::FrameKind;
use vgbl::obs::hash::{fnv1a_extend, FNV_OFFSET};
use vgbl_bench::{bench_footage, encode, workload_footage};

const PINNED: [(&str, u64); 4] = [
    ("medium_encoded", 0xd4a787a825f4031c),
    ("medium_decoded", 0x37c61d09646ffcef),
    ("lossless_encoded", 0x4a5755c6b8bf3b8b),
    ("lossless_decoded", 0xdf0fb6fb43c05f24),
];

const ODD_SIZE_PINNED: [(&str, u64); 2] =
    [("low_odd_encoded", 0x5b9d8dc98055dc3b), ("low_odd_decoded", 0x119c493b708b1d85)];

const HIGH_PINNED: [(&str, u64); 2] =
    [("high_encoded", 0x18703a97e938a0ab), ("high_decoded", 0xdd4b596b92ade88a)];

const BRANCHY_PINNED: [(&str, u64); 2] =
    [("branchy_encoded", 0xec82dcbe6e9d5b37), ("branchy_decoded", 0x98f24e0ac52cace9)];

const AUTHOR_PINNED: [(&str, u64); 2] =
    [("author_encoded", 0x275949589aec7a40), ("author_decoded", 0xe1a8ae1f2d228765)];

fn encoded_checksum(video: &EncodedVideo) -> u64 {
    let mut h = FNV_OFFSET;
    for f in video.frames() {
        let kind = match f.kind {
            FrameKind::Intra => 0u8,
            FrameKind::Inter => 1,
            FrameKind::Skip => 2,
        };
        h = fnv1a_extend(h, &[kind]);
        h = fnv1a_extend(h, &(f.data.len() as u64).to_le_bytes());
        h = fnv1a_extend(h, &f.data);
    }
    h
}

fn decoded_checksum(video: &EncodedVideo) -> u64 {
    let decoded = Decoder::default().decode_all(video).expect("golden video decodes");
    decoded.frames.iter().fold(FNV_OFFSET, |h, f| fnv1a_extend(h, f.raw()))
}

/// Byte-identity fingerprints of the codec over seeded footage: FNV-1a
/// over the encoded bitstream and the decoded RGB, for two configs.
fn golden_checksums() -> [(&'static str, u64); 4] {
    let footage = bench_footage(96, 64, 4, 42);
    let medium = encode(&footage, 8, Quality::Medium, 3);
    let lossless = encode(&footage, 5, Quality::Lossless, 1);
    [
        ("medium_encoded", encoded_checksum(&medium)),
        ("medium_decoded", decoded_checksum(&medium)),
        ("lossless_encoded", encoded_checksum(&lossless)),
        ("lossless_decoded", decoded_checksum(&lossless)),
    ]
}

fn assert_pinned(pinned: &[(&str, u64)], now: &[(&str, u64)]) {
    assert_eq!(pinned.len(), now.len(), "checksum count changed");
    for ((pin_name, pin_sum), (name, sum)) in pinned.iter().zip(now.iter()) {
        assert_eq!(pin_name, name, "checksum order changed");
        assert_eq!(
            pin_sum, sum,
            "{name} fingerprint moved: an optimization altered codec output"
        );
    }
}

/// The encoded and the decoded fingerprint of one encode of `footage`.
fn encode_checksums(footage: &Footage, config: EncodeConfig) -> [u64; 2] {
    let video =
        Encoder::new(config).encode(&footage.frames, footage.rate).expect("footage encodes");
    [encoded_checksum(&video), decoded_checksum(&video)]
}

#[test]
fn codec_output_is_byte_identical_to_pre_optimization_pin() {
    assert_pinned(&PINNED, &golden_checksums());
}

#[test]
fn odd_size_codec_output_is_byte_identical_to_pin() {
    let footage = bench_footage(72, 40, 3, 42);
    let config = EncodeConfig { quality: Quality::Low, gop: 6, threads: 1, search_range: 12 };
    let [encoded, decoded] = encode_checksums(&footage, config);
    assert_pinned(&ODD_SIZE_PINNED, &[("low_odd_encoded", encoded), ("low_odd_decoded", decoded)]);
}

#[test]
fn high_quality_codec_output_is_byte_identical_to_pin() {
    let footage = bench_footage(128, 96, 3, 42);
    let config = EncodeConfig { quality: Quality::High, gop: 12, threads: 1, search_range: 3 };
    let [encoded, decoded] = encode_checksums(&footage, config);
    assert_pinned(&HIGH_PINNED, &[("high_encoded", encoded), ("high_decoded", decoded)]);
}

#[test]
fn branchy_codec_output_is_byte_identical_to_pin() {
    let footage = workload_footage(128, 96, 3, 24, 16);
    let config = EncodeConfig { quality: Quality::Medium, gop: 12, threads: 1, search_range: 3 };
    let [encoded, decoded] = encode_checksums(&footage, config);
    assert_pinned(
        &BRANCHY_PINNED,
        &[("branchy_encoded", encoded), ("branchy_decoded", decoded)],
    );
}

#[test]
fn author_codec_output_is_byte_identical_to_pin() {
    let footage = workload_footage(64, 48, 9, 30, 8);
    let config = EncodeConfig { quality: Quality::Medium, gop: 15, threads: 1, search_range: 7 };
    let video = Encoder::new(config)
        .encode_aligned(&footage.frames, footage.rate, &footage.cuts)
        .expect("footage encodes");
    assert_eq!(video.keyframes().len(), 18, "two GOPs a shot");
    let (encoded, decoded) = (encoded_checksum(&video), decoded_checksum(&video));
    assert_pinned(&AUTHOR_PINNED, &[("author_encoded", encoded), ("author_decoded", decoded)]);
}
