//! The codec paths that faster ones replaced, kept verbatim as oracles.
//!
//! The sparse residual decoder reads a plane's tokens one
//! `get_ue`/`get_se` pair at a time into an `(index, level)` vector, then
//! reconstructs from that, one plane per channel, and interleaves the
//! three planes into the frame with its own `merge`. The live decoder must return the same frames
//! from every encoder stream, and from a stream with a flipped byte it
//! must fail wherever this one fails. It may also fail where this one
//! succeeds, but only on a level past ±255, which no encoder writes and
//! which this one multiplies unchecked.
//!
//! The per-sample residual writer tests each level for zero in turn. The
//! live, mask-driven writer must write the same bits for every plane.

use super::*;
use crate::color::Rgb;
use crate::synth::{FootageSpec, ShotSpec, SpriteShape, SpriteSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Zero-run RLE + Golomb encoding of a residual sequence: each nonzero
/// level goes out with the zero run before it as one `(ue, se)` token,
/// and a trailing zero run as a lone `ue`.
fn write_residuals(w: &mut BitWriter, residuals: &[i64]) {
    let mut run = 0u64;
    for &level in residuals {
        if level == 0 {
            run += 1;
        } else {
            w.put_ue_se(run, level);
            run = 0;
        }
    }
    if run > 0 {
        w.put_ue(run);
    }
}

fn read_residuals_sparse(r: &mut BitReader<'_>, n: usize) -> Result<Vec<(usize, i64)>> {
    // Each token costs ≥ 4 bits on the wire (run `ue` + value `se`), so
    // remaining_bits/4 caps the token count — a tight-enough hint to
    // avoid growth reallocations without overcommitting.
    let mut out = Vec::with_capacity(n.min(r.remaining_bits() / 4 + 1));
    let mut pos = 0usize;
    while pos < n {
        let run = r.get_ue()? as usize;
        if run > n - pos {
            return Err(MediaError::CorruptBitstream(format!(
                "zero run {run} exceeds remaining {} samples",
                n - pos
            )));
        }
        pos += run;
        if pos < n {
            out.push((pos, r.get_se()?));
            pos += 1;
        }
    }
    Ok(out)
}

fn decode_plane_intra(r: &mut BitReader<'_>, pw: u32, ph: u32, q: i64) -> Result<Plane> {
    let n = (pw * ph) as usize;
    let stride = pw as usize;
    let sparse = read_residuals_sparse(r, n)?;
    let mut recon = vec![0u8; n];
    let mut next = 0usize;
    for &(pos, val) in &sparse {
        fill_intra_run(&mut recon, next, pos, stride);
        let pred = intra_pred(&recon, pos, stride);
        recon[pos] = (pred + val * q).clamp(0, 255) as u8;
        next = pos + 1;
    }
    fill_intra_run(&mut recon, next, n, stride);
    Ok(Plane::from_raw(pw, ph, recon))
}

fn fill_intra_run(recon: &mut [u8], from: usize, to: usize, stride: usize) {
    let mut i = from;
    while i < to {
        if i.is_multiple_of(stride) {
            recon[i] = if i >= stride { recon[i - stride] } else { 128 };
            i += 1;
        } else {
            let row_end = (i / stride + 1) * stride;
            let end = to.min(row_end);
            let v = recon[i - 1];
            recon[i..end].fill(v);
            i = end;
        }
    }
}

fn decode_plane_inter(
    r: &mut BitReader<'_>,
    reference: &Plane,
    mvs: &[(i8, i8)],
    q: i64,
) -> Result<Plane> {
    let (pw, ph) = (reference.width(), reference.height());
    let (cols, _) = mb_grid(pw, ph);
    let n = (pw * ph) as usize;
    let rdata = reference.data();
    let sparse = read_residuals_sparse(r, n)?;
    let mut recon = Vec::with_capacity(n);
    for y in 0..ph {
        let mb_row = ((y / MB) * cols) as usize;
        predict_mb_row::<1>(&mut recon, rdata, pw, ph, y, &mvs[mb_row..mb_row + cols as usize]);
    }
    for &(pos, val) in &sparse {
        let pred = recon[pos] as i64;
        recon[pos] = (pred + val * q).clamp(0, 255) as u8;
    }
    Ok(Plane::from_raw(pw, ph, recon))
}

/// Rebuilds an RGB frame from three planes (which must share a shape).
pub(super) fn merge(planes: &[Plane; 3]) -> Frame {
    let (w, h) = (planes[0].width(), planes[0].height());
    debug_assert!(planes.iter().all(|p| p.width() == w && p.height() == h));
    let mut data = vec![0u8; (w * h * 3) as usize];
    let rgb = data.chunks_exact_mut(3);
    let chans = planes[0].data().iter().zip(planes[1].data().iter()).zip(planes[2].data().iter());
    for (px, ((&r, &g), &b)) in rgb.zip(chans) {
        px[0] = r;
        px[1] = g;
        px[2] = b;
    }
    Frame::from_raw(w, h, data).expect("merged plane dimensions are valid")
}

fn decode_gop(video: &EncodedVideo, start: usize, end: usize) -> Result<Vec<Frame>> {
    let q = video
        .quality
        .qstep();
    let (w, h) = (video.width, video.height);
    if w == 0 || h == 0 {
        return Err(MediaError::InvalidDimensions { dims: (w, h) });
    }
    let mut out = Vec::with_capacity(end - start);
    let mut reference: Option<[Plane; 3]> = None;
    for idx in start..end {
        let ef = &video.frames[idx];
        let mut r = BitReader::new(&ef.data);
        let planes = match ef.kind {
            FrameKind::Intra => [
                decode_plane_intra(&mut r, w, h, q)?,
                decode_plane_intra(&mut r, w, h, q)?,
                decode_plane_intra(&mut r, w, h, q)?,
            ],
            FrameKind::Inter => {
                let refp = reference.as_ref().ok_or_else(|| {
                    MediaError::CorruptBitstream(format!("P-frame {idx} without reference"))
                })?;
                let (cols, rows) = mb_grid(w, h);
                let mut mvs = Vec::with_capacity((cols * rows) as usize);
                for _ in 0..cols * rows {
                    let dx = r.get_se()?;
                    let dy = r.get_se()?;
                    if !(-127..=127).contains(&dx) || !(-127..=127).contains(&dy) {
                        return Err(MediaError::CorruptBitstream(
                            "motion vector out of range".into(),
                        ));
                    }
                    mvs.push((dx as i8, dy as i8));
                }
                [
                    decode_plane_inter(&mut r, &refp[0], &mvs, q)?,
                    decode_plane_inter(&mut r, &refp[1], &mvs, q)?,
                    decode_plane_inter(&mut r, &refp[2], &mvs, q)?,
                ]
            }
            FrameKind::Skip => {
                if reference.is_none() {
                    return Err(MediaError::CorruptBitstream(format!(
                        "SKIP frame {idx} without reference"
                    )));
                }
                let prev: Frame =
                    out.last().cloned().expect("reference implies a prior output frame");
                out.push(prev);
                continue;
            }
        };
        out.push(merge(&planes));
        reference = Some(planes);
    }
    Ok(out)
}

/// An encoder stream: one or two shots of a noisy, drifting backdrop
/// with a moving sprite, at any size from 1×1 (partial macroblocks
/// included), any quality, GOPs 1–7 and search ranges 0–7.
fn stream() -> impl Strategy<Value = EncodedVideo> {
    let shot = (1usize..=5, any::<u64>(), 0u8..=3, -12i16..=12, any::<u64>(), -3.0f32..3.0);
    (
        1u32..=40,
        1u32..=40,
        proptest::collection::vec(shot, 1..=2),
        any::<u64>(),
        prop_oneof![
            Just(Quality::Lossless),
            Just(Quality::High),
            Just(Quality::Medium),
            Just(Quality::Low)
        ],
        1usize..=7,
        0u8..=7,
    )
        .prop_map(|(width, height, shots, noise_seed, quality, gop, search_range)| {
            let shots = shots
                .into_iter()
                .map(|(frames, backdrop, noise, luma_drift, sprite, speed)| ShotSpec {
                    frames,
                    background: Rgb::from_seed(backdrop),
                    sprites: vec![SpriteSpec {
                        shape: SpriteShape::Rect(width / 3 + 1, height / 3 + 1),
                        color: Rgb::from_seed(sprite),
                        pos: ((sprite % 37) as f32, (sprite % 23) as f32),
                        vel: (speed, -speed / 2.0),
                    }],
                    luma_drift,
                    noise,
                })
                .collect();
            let footage = FootageSpec { width, height, rate: FrameRate::FPS30, shots, noise_seed }
                .render()
                .expect("footage renders");
            Encoder::new(EncodeConfig { quality, gop, threads: 1, search_range })
                .encode(&footage.frames, footage.rate)
                .expect("footage encodes")
        })
}

/// Every GOP of `video` as `(keyframe, end)`.
fn gops(video: &EncodedVideo) -> Vec<(usize, usize)> {
    video.keyframes().into_iter().map(|k| (k, video.gop_end(k))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Whole streams, whole GOPs, and every prefix of a GOP: the decode
    // `decode_frame` stops mid-GOP, with the count of frames it decoded.
    #[test]
    fn decoder_matches_oracle_on_encoder_streams(video in stream()) {
        let dec = Decoder::default();
        let mut oracle = Vec::new();
        for (start, end) in gops(&video) {
            let frames = decode_gop(&video, start, end).expect("the oracle decodes it");
            prop_assert_eq!(&dec.decode_gop_at(&video, start).unwrap(), &frames);
            for i in start..end {
                let (frame, count) = dec.decode_frame(&video, i).unwrap();
                prop_assert_eq!(&frame, &frames[i - start]);
                prop_assert_eq!(count, i - start + 1);
            }
            oracle.extend(frames);
        }
        prop_assert_eq!(dec.decode_all(&video).unwrap().frames, oracle);
    }

    #[test]
    fn decoder_fails_where_oracle_fails_on_a_flipped_byte(
        video in stream(),
        frame in any::<prop::sample::Index>(),
        byte in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        let coded: Vec<usize> =
            (0..video.len()).filter(|&i| !video.frames()[i].data.is_empty()).collect();
        let mut video = video;
        let data = &mut video.frames_mut()[coded[frame.index(coded.len())]].data;
        let byte = byte.index(data.len());
        data[byte] ^= flip;
        for (start, end) in gops(&video) {
            let oracle = decode_gop(&video, start, end);
            match (oracle, super::decode_gop(&video, start, end)) {
                (Ok(oracle), Ok(frames)) => prop_assert_eq!(frames, oracle),
                (_, Err(MediaError::CorruptBitstream(m))) if m.starts_with("residual level") => {}
                (Err(oracle), new) => prop_assert_eq!(new, Err(oracle)),
                (Ok(_), Err(e)) => prop_assert!(false, "only the new decoder fails: {e}"),
            }
        }
    }
}

/// Plane lengths around the writer's 64-level chunks, a 64×48 plane and
/// a 128×96 one.
const WRITER_LENGTHS: [usize; 9] = [0, 1, 63, 64, 65, 127, 128, 3_072, 12_288];

/// `n` levels of one `kind`: 0 all zero, 1 all nonzero, 2 all ±255, 3
/// zero runs of up to 200 (so runs cross chunks) between levels up to
/// ±255, 4 dense small levels as noisy footage leaves, 5 a random share
/// of zeros.
fn writer_levels(seed: u64, n: usize, kind: u8) -> Vec<i16> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nonzero = |rng: &mut StdRng| {
        let v = rng.gen_range(1..=255i16);
        if rng.gen_bool(0.5) { v } else { -v }
    };
    let zeros = rng.gen_range(0.0..1.0);
    let mut levels = vec![0i16; n];
    match kind {
        0 => {}
        1 => levels.iter_mut().for_each(|l| *l = nonzero(&mut rng)),
        2 => levels.iter_mut().for_each(|l| *l = if rng.gen_bool(0.5) { 255 } else { -255 }),
        3 => {
            let mut i = rng.gen_range(0..=200usize);
            while i < n {
                levels[i] = nonzero(&mut rng);
                i += 1 + rng.gen_range(0..=200usize);
            }
        }
        4 => levels.iter_mut().for_each(|l| *l = rng.gen_range(-3..=3)),
        _ => levels.iter_mut().for_each(|l| {
            if !rng.gen_bool(zeros) {
                *l = nonzero(&mut rng);
            }
        }),
    }
    levels
}

/// Two planes written into one writer, with the live writer and with
/// the oracle.
fn written(first: &[i16], second: &[i16]) -> (Vec<u8>, Vec<u8>) {
    let wide = |levels: &[i16]| levels.iter().map(|&l| i64::from(l)).collect::<Vec<i64>>();
    let mut live = BitWriter::new();
    super::write_residuals(&mut live, first);
    super::write_residuals(&mut live, second);
    let mut oracle = BitWriter::new();
    write_residuals(&mut oracle, &wide(first));
    write_residuals(&mut oracle, &wide(second));
    (live.finish(), oracle.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn residual_writer_matches_oracle(
        seed in any::<u64>(),
        lengths in (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
        kinds in (0u8..6, 0u8..6),
    ) {
        let length = |i: prop::sample::Index| WRITER_LENGTHS[i.index(WRITER_LENGTHS.len())];
        let first = writer_levels(seed, length(lengths.0), kinds.0);
        let second = writer_levels(!seed, length(lengths.1), kinds.1);
        let (live, oracle) = written(&first, &second);
        prop_assert_eq!(live, oracle);
    }
}

#[test]
fn residual_writer_matches_oracle_on_every_length_and_kind() {
    for (i, &n) in WRITER_LENGTHS.iter().enumerate() {
        for kind in 0..6 {
            let levels = writer_levels(i as u64 * 6 + u64::from(kind), n, kind);
            let (live, oracle) = written(&levels, &levels);
            assert_eq!(live, oracle, "{n} levels of kind {kind}");
        }
    }
}
