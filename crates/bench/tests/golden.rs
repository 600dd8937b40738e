//! Golden byte-identity gate for the hot-path optimizations.
//!
//! The four constants below were pinned **before** the PR-6
//! optimizations (chunked `block_sad`, Arc-backed planes/frames,
//! raw-buffer codec loops). The optimizations claim byte-identical
//! output; if any of these fingerprints moves, an "optimization"
//! changed the bitstream or the decoded RGB and must be rejected, not
//! re-pinned. Re-pin only for a deliberate format change that says so
//! in its commit message.

use vgbl::media::codec::{Decoder, EncodedVideo, Quality};
use vgbl::media::FrameKind;
use vgbl::obs::hash::{fnv1a_extend, FNV_OFFSET};
use vgbl_bench::{bench_footage, encode};

const PINNED: [(&str, u64); 4] = [
    ("medium_encoded", 0xd4a787a825f4031c),
    ("medium_decoded", 0x37c61d09646ffcef),
    ("lossless_encoded", 0x4a5755c6b8bf3b8b),
    ("lossless_decoded", 0xdf0fb6fb43c05f24),
];

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

#[test]
fn codec_output_is_byte_identical_to_pre_optimization_pin() {
    let now = golden_checksums();
    for ((pin_name, pin_sum), (name, sum)) in PINNED.iter().zip(now.iter()) {
        assert_eq!(pin_name, name, "checksum order changed");
        assert_eq!(
            pin_sum, sum,
            "{name} fingerprint moved: an optimization altered codec output"
        );
    }
}
