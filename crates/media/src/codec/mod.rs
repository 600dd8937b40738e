//! A toy but structurally honest video codec.
//!
//! The paper's platform rides on 2007-era OS codecs; this reproduction
//! implements its own so the whole pipeline is self-contained (see
//! `DESIGN.md`). The design mirrors the classic hybrid codec structure:
//!
//! * **I-frames** — spatial prediction (left/top neighbour on the
//!   *reconstructed* plane), quantisation, zero-run RLE, exp-Golomb
//!   entropy coding.
//! * **P-frames** — 16×16 full-search block motion estimation on luma,
//!   motion-compensated residuals per RGB plane, same quantise/RLE/Golomb
//!   back end. References are always *reconstructed* frames, so encoder
//!   and decoder never drift.
//! * **GOPs** — a keyframe every `gop` frames. GOPs are independent, which
//!   both bounds seek cost (see [`mod@crate::seek`]) and makes encode/decode
//!   embarrassingly parallel across GOPs.

pub mod bitio;
#[cfg(test)]
mod oracle;
pub mod plane;

use crate::cache::VideoId;
use crate::container::FrameKind;
use crate::error::MediaError;
use crate::frame::{Frame, MAX_DIM};
use crate::parallel::parallel_map_indexed;
use crate::timeline::FrameRate;
use crate::Result;
use bitio::{BitReader, BitWriter};
use plane::Plane;
use std::sync::OnceLock;

/// Macroblock edge for motion estimation.
const MB: u32 = 16;

/// Quantiser presets. Higher compression ⇔ lower fidelity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quality {
    /// Quantiser step 1 — bit-exact reconstruction.
    Lossless,
    /// Quantiser step 2.
    High,
    /// Quantiser step 4.
    Medium,
    /// Quantiser step 8.
    Low,
}

impl Quality {
    /// The quantiser step.
    pub fn qstep(self) -> i64 {
        match self {
            Quality::Lossless => 1,
            Quality::High => 2,
            Quality::Medium => 4,
            Quality::Low => 8,
        }
    }

    /// Stable wire id for the container header.
    pub fn to_u8(self) -> u8 {
        match self {
            Quality::Lossless => 0,
            Quality::High => 1,
            Quality::Medium => 2,
            Quality::Low => 3,
        }
    }

    /// Parses a wire id.
    pub fn from_u8(v: u8) -> Option<Quality> {
        match v {
            0 => Some(Quality::Lossless),
            1 => Some(Quality::High),
            2 => Some(Quality::Medium),
            3 => Some(Quality::Low),
            _ => None,
        }
    }

    /// All presets, for sweeps.
    pub fn all() -> [Quality; 4] {
        [Quality::Lossless, Quality::High, Quality::Medium, Quality::Low]
    }
}

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EncodeConfig {
    /// Quantiser preset.
    pub quality: Quality,
    /// Keyframe interval in frames (≥ 1; 1 = all-intra).
    pub gop: usize,
    /// Worker threads for GOP-parallel encoding (≤ 1 = sequential).
    pub threads: usize,
    /// Motion search range in pixels (full search over ±range), at most
    /// 127: the bitstream codes each vector component in −127..=127.
    pub search_range: u8,
}

impl Default for EncodeConfig {
    fn default() -> Self {
        EncodeConfig { quality: Quality::High, gop: 15, threads: 1, search_range: 7 }
    }
}

/// One encoded frame: its kind plus its bitstream payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedFrame {
    /// Intra (keyframe), inter (predicted), or skip (copy).
    pub kind: FrameKind,
    /// Entropy-coded payload.
    pub data: Vec<u8>,
}

/// A fully encoded video, the in-memory form of a `VGV` file.
///
/// The header is fixed at construction, and the frames change only
/// through [`EncodedVideo::frames_mut`]. That keeps the memoised content
/// fingerprint ([`VideoId::of`]) true for the value it is stored on:
/// clones carry it, and `frames_mut` forgets it.
#[derive(Clone)]
pub struct EncodedVideo {
    width: u32,
    height: u32,
    rate: FrameRate,
    quality: Quality,
    gop: u32,
    frames: Vec<EncodedFrame>,
    /// [`VideoId::of`] of this value, filled on first use.
    id: OnceLock<VideoId>,
}

impl PartialEq for EncodedVideo {
    /// Compares content only: a memoised and an unmemoised copy are equal.
    fn eq(&self, other: &EncodedVideo) -> bool {
        self.width == other.width
            && self.height == other.height
            && self.rate == other.rate
            && self.quality == other.quality
            && self.gop == other.gop
            && self.frames == other.frames
    }
}

impl std::fmt::Debug for EncodedVideo {
    /// Prints content only, so whether the id is memoised never shows.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EncodedVideo")
            .field("width", &self.width)
            .field("height", &self.height)
            .field("rate", &self.rate)
            .field("quality", &self.quality)
            .field("gop", &self.gop)
            .field("frames", &self.frames)
            .finish()
    }
}

impl EncodedVideo {
    /// Builds a video from its header fields and its frames in
    /// presentation order. Nothing is checked here: the decoder rejects
    /// a stream it cannot decode.
    pub fn new(
        width: u32,
        height: u32,
        rate: FrameRate,
        quality: Quality,
        gop: u32,
        frames: Vec<EncodedFrame>,
    ) -> EncodedVideo {
        EncodedVideo { width, height, rate, quality, gop, frames, id: OnceLock::new() }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Frame rate.
    pub fn rate(&self) -> FrameRate {
        self.rate
    }

    /// Quality the stream was encoded at.
    pub fn quality(&self) -> Quality {
        self.quality
    }

    /// Keyframe interval used by the encoder.
    pub fn gop(&self) -> u32 {
        self.gop
    }

    /// The encoded frames in presentation order.
    pub fn frames(&self) -> &[EncodedFrame] {
        &self.frames
    }

    /// The frames, for changing the stream in place: the one way to
    /// alter a video after it is built. It forgets the memoised
    /// [`VideoId`], so the next [`VideoId::of`] fingerprints the changed
    /// content.
    pub fn frames_mut(&mut self) -> &mut Vec<EncodedFrame> {
        self.id.take();
        &mut self.frames
    }

    /// The memo cell [`VideoId::of`] fills.
    pub(crate) fn id_memo(&self) -> &OnceLock<VideoId> {
        &self.id
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when the stream holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Total payload bytes across all frames (excludes container framing).
    pub fn payload_bytes(&self) -> usize {
        self.frames.iter().map(|f| f.data.len()).sum()
    }

    /// Size of the raw RGB source this stream represents.
    pub fn raw_bytes(&self) -> usize {
        (self.width * self.height * 3) as usize * self.frames.len()
    }

    /// Compression ratio raw/encoded (higher is better).
    pub fn compression_ratio(&self) -> f64 {
        let payload = self.payload_bytes();
        if payload == 0 {
            0.0
        } else {
            self.raw_bytes() as f64 / payload as f64
        }
    }

    /// Index of the nearest keyframe at or before `index`.
    pub fn keyframe_before(&self, index: usize) -> Result<usize> {
        if index >= self.frames.len() {
            return Err(MediaError::FrameOutOfRange { index, len: self.frames.len() });
        }
        let mut k = index;
        loop {
            if self.frames[k].kind == FrameKind::Intra {
                return Ok(k);
            }
            if k == 0 {
                return Err(MediaError::CorruptBitstream(
                    "stream does not start with a keyframe".into(),
                ));
            }
            k -= 1;
        }
    }

    /// Start indices of every GOP (i.e. every keyframe position).
    pub fn keyframes(&self) -> Vec<usize> {
        self.frames
            .iter()
            .enumerate()
            .filter(|(_, f)| f.kind == FrameKind::Intra)
            .map(|(i, _)| i)
            .collect()
    }

    /// One past the last frame of the GOP starting at `keyframe`: the
    /// next keyframe's index, or the stream length for the final GOP.
    /// Scans forward only, so it is cheap for the per-GOP hot paths
    /// (playback, seeking, cache fills) that would otherwise rebuild the
    /// whole keyframe table per lookup.
    pub fn gop_end(&self, keyframe: usize) -> usize {
        self.frames[keyframe + 1..]
            .iter()
            .position(|f| f.kind == FrameKind::Intra)
            .map(|off| keyframe + 1 + off)
            .unwrap_or(self.frames.len())
    }
}

/// A decoded video: frames plus timing.
#[derive(Debug, Clone)]
pub struct DecodedVideo {
    /// Decoded frames in presentation order.
    pub frames: Vec<Frame>,
    /// Frame rate carried over from the stream.
    pub rate: FrameRate,
}

/// The quantised level of residual `v` at step `q`: `v / q` rounded to
/// nearest, halves away from zero. The encoder reads it from a
/// [`Quantiser`] table.
fn quantize(v: i64, q: i64) -> i64 {
    if q == 1 {
        v
    } else if v >= 0 {
        (v + q / 2) / q
    } else {
        -((-v + q / 2) / q)
    }
}

/// [`quantize`] at one step, tabulated over every residual the encoder
/// forms (an 8-bit sample minus an 8-bit prediction, −255..=255): a
/// lookup per sample in place of an integer division.
struct Quantiser {
    step: i32,
    /// `quantize(v, step)` at index `v + 255`.
    levels: [i16; 511],
}

impl Quantiser {
    fn new(step: i64) -> Quantiser {
        Quantiser {
            step: step as i32,
            levels: std::array::from_fn(|i| quantize(i as i64 - 255, step) as i16),
        }
    }

    /// The level of the residual `sample - pred`.
    #[inline]
    fn level(&self, sample: u8, pred: u8) -> i16 {
        self.levels[(i32::from(sample) - i32::from(pred) + 255) as usize]
    }

    /// The level of `sample` against `pred`, and the sample the decoder
    /// reconstructs from it.
    #[inline]
    fn code(&self, sample: u8, pred: u8) -> (i16, u8) {
        let level = self.level(sample, pred);
        (level, (i32::from(pred) + i32::from(level) * self.step).clamp(0, 255) as u8)
    }
}

/// Zero-run RLE + Golomb encoding of a plane's levels: each nonzero
/// level goes out with the zero run before it as one `(ue, se)` token,
/// and a trailing zero run as a lone `ue`.
///
/// Levels go 64 at a time: a mask of the nonzero ones is walked with
/// `trailing_zeros`, so a zero costs no branch of its own, and the zero
/// run after a chunk's last level carries into the next chunk.
fn write_residuals(w: &mut BitWriter, levels: &[i16]) {
    let mut run = 0u64;
    for chunk in levels.chunks(64) {
        let mut mask = nonzero_mask(chunk);
        let mut next = 0;
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            w.put_ue_se(run + (i - next) as u64, i64::from(chunk[i]));
            run = 0;
            next = i + 1;
            mask &= mask - 1;
        }
        run += (chunk.len() - next) as u64;
    }
    if run > 0 {
        w.put_ue(run);
    }
}

/// Bit `i` set where `levels[i]` is nonzero, for up to 64 levels.
#[inline]
fn nonzero_mask(levels: &[i16]) -> u64 {
    levels.iter().enumerate().fold(0, |mask, (i, &l)| mask | (u64::from(l != 0) << i))
}

/// The largest level magnitude [`write_residuals`] codes: a residual is
/// an 8-bit sample minus an 8-bit prediction, and quantising never
/// enlarges it. The decoder rejects any larger level, whose
/// reconstruction `pred + level * q` could overflow.
const MAX_LEVEL: i64 = 255;

/// Inverse of [`write_residuals`] over `n` samples: hands each level to
/// `level(run, value)` as it is read, with the zero run before it, so
/// decoders reconstruct straight from the stream. The samples after the
/// last level are the plane's trailing zero run.
///
/// Most of a plane goes through [`BitReader::get_token_pairs`], one or
/// two tokens a lookup. The checked loop below finishes the plane, so
/// every error is the one the `get_ue`/`get_se` codes return.
#[inline]
fn read_residuals(
    r: &mut BitReader<'_>,
    n: usize,
    mut level: impl FnMut(usize, i64),
) -> Result<()> {
    let mut left = r.get_token_pairs(n, &mut level);
    while left > 0 {
        let (run, value) = match r.get_token(left) {
            Some(token) => token,
            None => {
                let run = r.get_ue()? as usize;
                if run > left {
                    return Err(MediaError::CorruptBitstream(format!(
                        "zero run {run} exceeds remaining {left} samples"
                    )));
                }
                if run == left {
                    break;
                }
                let value = r.get_se()?;
                if !(-MAX_LEVEL..=MAX_LEVEL).contains(&value) {
                    return Err(MediaError::CorruptBitstream(format!(
                        "residual level {value} outside ±{MAX_LEVEL}"
                    )));
                }
                (run, value)
            }
        };
        level(run, value);
        left -= run + 1;
    }
    Ok(())
}

/// Intra-codes one plane: scan-order residuals against the reconstructed
/// left/top neighbour. Returns the reconstructed plane.
///
/// Runs on the raw sample buffer (the prediction needs only `buf[i-1]` /
/// `buf[i-stride]`), so the scan is index arithmetic instead of
/// per-pixel coordinate accessors; the reconstruction is wrapped into a
/// [`Plane`] once at the end. `levels` is the GOP's level buffer.
fn encode_plane_intra(
    w: &mut BitWriter,
    src: &Plane,
    quant: &Quantiser,
    levels: &mut Vec<i16>,
) -> Plane {
    let (pw, ph) = (src.width(), src.height());
    let n = (pw * ph) as usize;
    let stride = pw as usize;
    let sdata = src.data();
    let mut recon = vec![0u8; n];
    levels.clear();
    for i in 0..n {
        let (level, sample) = quant.code(sdata[i], intra_pred(&recon, i, stride) as u8);
        levels.push(level);
        recon[i] = sample;
    }
    write_residuals(w, levels);
    Plane::from_raw(pw, ph, recon)
}

/// Intra-decodes a keyframe's three planes into one RGB buffer: channel
/// `c` of pixel `i` is sample `3 * i + c`, predicted from the same
/// channel of its left neighbour, else of the pixel above, else
/// mid-grey (as [`intra_pred`] on a plane).
fn decode_intra(r: &mut BitReader<'_>, w: u32, h: u32, q: i64) -> Result<Vec<u8>> {
    let n = (w * h) as usize;
    let mut rgb = vec![0u8; 3 * n];
    for channel in 0..3 {
        let mut at = IntraCursor { i: 0, x: 0, width: w as usize, channel };
        read_residuals(r, n, |run, level| {
            at.fill(&mut rgb, run);
            at.put(&mut rgb, level * q);
        })?;
        at.fill(&mut rgb, n - at.i);
    }
    Ok(rgb)
}

/// The intra decoder's place in the scan of one channel of an RGB
/// buffer: pixel `i`, in column `x` of its row, so the prediction needs
/// no division.
struct IntraCursor {
    i: usize,
    x: usize,
    width: usize,
    channel: usize,
}

impl IntraCursor {
    /// The current sample's index in the RGB buffer.
    #[inline]
    fn at(&self) -> usize {
        3 * self.i + self.channel
    }

    /// The prediction for the current sample: its left neighbour, else
    /// the one above, else mid-grey (as [`intra_pred`]).
    #[inline]
    fn pred(&self, rgb: &[u8]) -> u8 {
        if self.x > 0 {
            rgb[self.at() - 3]
        } else if self.i >= self.width {
            rgb[self.at() - 3 * self.width]
        } else {
            128
        }
    }

    /// Reconstructs the current sample as its prediction plus `delta`,
    /// and moves to the next pixel.
    #[inline]
    fn put(&mut self, rgb: &mut [u8], delta: i64) {
        rgb[self.at()] = (i64::from(self.pred(rgb)) + delta).clamp(0, 255) as u8;
        self.i += 1;
        self.x += 1;
        if self.x == self.width {
            self.x = 0;
        }
    }

    /// Reconstructs the next `run` samples, whose residuals are zero:
    /// each equals its prediction, so the left neighbour propagates
    /// along the row and only a row's first sample reads the one above.
    #[inline]
    fn fill(&mut self, rgb: &mut [u8], mut run: usize) {
        while run > 0 {
            if self.x == 0 {
                self.put(rgb, 0);
                run -= 1;
            } else {
                let span = run.min(self.width - self.x);
                let v = rgb[self.at() - 3];
                for px in rgb[3 * self.i..3 * (self.i + span)].chunks_exact_mut(3) {
                    px[self.channel] = v;
                }
                self.i += span;
                self.x += span;
                if self.x == self.width {
                    self.x = 0;
                }
                run -= span;
            }
        }
    }
}

/// Left neighbour, else above neighbour, else mid-grey — on the raw
/// scan-order buffer (`i % stride == 0` is the left edge, `i < stride`
/// the top row).
#[inline]
fn intra_pred(recon: &[u8], i: usize, stride: usize) -> i64 {
    if !i.is_multiple_of(stride) {
        recon[i - 1] as i64
    } else if i >= stride {
        recon[i - stride] as i64
    } else {
        128
    }
}

/// Motion-vector grid dimensions for a frame.
fn mb_grid(width: u32, height: u32) -> (u32, u32) {
    (width.div_ceil(MB), height.div_ceil(MB))
}

/// Full-search motion estimation on luma; one vector per macroblock.
/// `range` must be at most 127, the largest component the bitstream codes.
///
/// Candidates are probed in a copy of the reference padded by `range`,
/// where vector `(dx, dy)` sits at offset `(dx + range, dy + range)`, so
/// no probe clamps. A whole macroblock is copied into a fixed array once
/// and each candidate sums all 16 rows with [`Plane::window_sad`]; the
/// partial macroblocks at the right and bottom edges use
/// [`Plane::block_sad`]. Both go through the one scan in [`best_vector`].
fn motion_search(cur: &Plane, reference: &Plane, range: u8) -> Vec<(i8, i8)> {
    debug_assert!(range <= 127);
    let (cols, rows) = mb_grid(cur.width(), cur.height());
    let padded = reference.padded(range.into());
    let stride = padded.width() as usize;
    let mut mvs = Vec::with_capacity((cols * rows) as usize);
    for my in 0..rows {
        for mx in 0..cols {
            let (x, y) = (mx * MB, my * MB);
            let bw = MB.min(cur.width() - x);
            let bh = MB.min(cur.height() - y);
            let mv = if bw == MB && bh == MB {
                let block = cur.block16(x, y);
                best_vector(range, |px, py| {
                    padded.window_sad(&block, (y as usize + py) * stride + x as usize + px)
                })
            } else {
                best_vector(range, |px, py| {
                    cur.block_sad(&padded, x, y, bw, bh, px as i64, py as i64, u64::MAX)
                })
            };
            mvs.push(mv);
        }
    }
    mvs
}

/// The full search over one macroblock: `sad(px, py)` is the SAD of the
/// candidate at offset `(px, py)` of the padded reference, vector
/// `(px − range, py − range)`.
///
/// The zero vector goes first: it is the overwhelmingly common winner.
/// Then every offset row-major, and only a strictly smaller SAD replaces
/// the incumbent, so the first of equal minima wins. A zero SAD cannot
/// be beaten, so the scan stops there. A candidate's SAD is summed in
/// full: stopping its sum once it reaches the incumbent's would return a
/// sum that loses anyway, so no vector depends on it.
// Inlined into each caller, so each scan runs its own SAD kernel with no
// call per candidate.
#[inline(always)]
fn best_vector(range: u8, mut sad: impl FnMut(usize, usize) -> u64) -> (i8, i8) {
    let r = usize::from(range);
    let mut best = sad(r, r);
    let mut best_mv = (0i8, 0i8);
    'search: for py in 0..=2 * r {
        for px in 0..=2 * r {
            if best == 0 {
                break 'search;
            }
            if px == r && py == r {
                continue;
            }
            let s = sad(px, py);
            if s < best {
                best = s;
                best_mv = ((px as i64 - r as i64) as i8, (py as i64 - r as i64) as i8);
            }
        }
    }
    best_mv
}

/// Motion-compensated prediction for the row `y`, span `[x0, x1)`,
/// under motion vector `(dx, dy)` with clamped sampling — appended to
/// `dst`. `rdata` holds `BPP` bytes a pixel, as does `dst`: 1 for a
/// colour plane (the encoder), 3 for an RGB frame (the decoder, all
/// three channels at once). The clamped source row is computed once per
/// span; fully in-bounds spans (the overwhelming majority) are a plain
/// slice copy, edge spans clamp per pixel.
// Innermost prediction loop; discrete coordinates beat a geometry
// struct per span, as in `Plane::block_sad`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn predict_span<const BPP: usize>(
    dst: &mut Vec<u8>,
    rdata: &[u8],
    pw: u32,
    ph: u32,
    y: u32,
    x0: u32,
    x1: u32,
    dx: i64,
    dy: i64,
) {
    let stride = pw as usize * BPP;
    let ry = (y as i64 + dy).clamp(0, ph as i64 - 1) as usize;
    let rrow = &rdata[ry * stride..ry * stride + stride];
    if x0 as i64 + dx >= 0 && x1 as i64 + dx <= pw as i64 {
        let r0 = (x0 as i64 + dx) as usize * BPP;
        dst.extend_from_slice(&rrow[r0..r0 + (x1 - x0) as usize * BPP]);
    } else {
        for x in x0..x1 {
            let rx = (x as i64 + dx).clamp(0, pw as i64 - 1) as usize * BPP;
            // A byte at a time, so the encoder's one-byte instance stays
            // a single push per pixel.
            for b in 0..BPP {
                dst.push(rrow[rx + b]);
            }
        }
    }
}

/// Appends the motion-compensated prediction for the whole pixel row
/// `y` to `dst`, `BPP` bytes a pixel as in [`predict_span`], coalescing
/// adjacent macroblocks that share a motion vector into one
/// [`predict_span`] call (static regions make runs of equal vectors, so
/// most rows collapse to a handful of long copies). `mvs_row` holds the
/// row's per-macroblock vectors, left to right.
// Out of line: inlined into `encode_plane_inter`, the one-byte
// instance's only caller, it doubles that function and slows encoding.
#[inline(never)]
fn predict_mb_row<const BPP: usize>(
    dst: &mut Vec<u8>,
    rdata: &[u8],
    pw: u32,
    ph: u32,
    y: u32,
    mvs_row: &[(i8, i8)],
) {
    let cols = mvs_row.len();
    let mut col = 0usize;
    while col < cols {
        let mv = mvs_row[col];
        let x0 = col as u32 * MB;
        col += 1;
        while col < cols && mvs_row[col] == mv {
            col += 1;
        }
        let x1 = (col as u32 * MB).min(pw);
        predict_span::<BPP>(dst, rdata, pw, ph, y, x0, x1, mv.0 as i64, mv.1 as i64);
    }
}

/// Inter-codes one plane given per-macroblock motion vectors.
/// Returns the reconstructed plane. `levels` is the GOP's level buffer.
fn encode_plane_inter(
    w: &mut BitWriter,
    src: &Plane,
    reference: &Plane,
    mvs: &[(i8, i8)],
    quant: &Quantiser,
    levels: &mut Vec<i16>,
) -> Plane {
    let (pw, ph) = (src.width(), src.height());
    let (cols, _) = mb_grid(pw, ph);
    let n = (pw * ph) as usize;
    let rdata = reference.data();
    // Build the motion-compensated prediction straight into the
    // reconstruction buffer, as the decoder does, then turn each sample
    // into its level and its reconstruction in one pass.
    let mut recon = Vec::with_capacity(n);
    for y in 0..ph {
        let mb_row = ((y / MB) * cols) as usize;
        predict_mb_row::<1>(&mut recon, rdata, pw, ph, y, &mvs[mb_row..mb_row + cols as usize]);
    }
    levels.clear();
    levels.extend(src.data().iter().zip(recon.iter_mut()).map(|(&sample, pred)| {
        let (level, sample) = quant.code(sample, *pred);
        *pred = sample;
        level
    }));
    write_residuals(w, levels);
    Plane::from_raw(pw, ph, recon)
}

/// Inter-decodes a P-frame's three planes into one RGB buffer, predicted
/// from `reference`, the last frame decoded.
fn decode_inter(
    r: &mut BitReader<'_>,
    reference: &Frame,
    mvs: &[(i8, i8)],
    q: i64,
) -> Result<Vec<u8>> {
    let (w, h) = (reference.width(), reference.height());
    let (cols, _) = mb_grid(w, h);
    let n = (w * h) as usize;
    // The prediction IS the reconstruction wherever the residual is
    // zero, so build the motion-compensated prediction of all three
    // channels directly into the output buffer (mostly row-span copies
    // of RGB pixels), then patch only the nonzero samples of each
    // channel in place, as the stream names them.
    let mut rgb = Vec::with_capacity(3 * n);
    for y in 0..h {
        let mb_row = ((y / MB) * cols) as usize;
        let mvs_row = &mvs[mb_row..mb_row + cols as usize];
        predict_mb_row::<3>(&mut rgb, reference.raw(), w, h, y, mvs_row);
    }
    for channel in 0..3 {
        let mut at = channel;
        read_residuals(r, n, |run, level| {
            at += 3 * run;
            rgb[at] = (i64::from(rgb[at]) + level * q).clamp(0, 255) as u8;
            at += 3;
        })?;
    }
    Ok(rgb)
}

/// The encoder.
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    config: EncodeConfig,
}

impl Encoder {
    /// Creates an encoder with the given configuration.
    pub fn new(config: EncodeConfig) -> Encoder {
        Encoder { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &EncodeConfig {
        &self.config
    }

    /// Encodes `frames` at rate `rate` with the regular keyframe cadence
    /// (one every `gop` frames).
    ///
    /// # Errors
    /// Fails on an empty input, a zero GOP, a search range above 127, or
    /// frames whose dimensions differ from the first frame.
    ///
    /// # Examples
    ///
    /// ```
    /// use vgbl_media::codec::{Decoder, EncodeConfig, Encoder, Quality};
    /// use vgbl_media::color::Rgb;
    /// use vgbl_media::{Frame, FrameRate};
    ///
    /// let frames = vec![Frame::filled(32, 24, Rgb::GREY).unwrap(); 4];
    /// let encoder = Encoder::new(EncodeConfig {
    ///     quality: Quality::Lossless,
    ///     gop: 2,
    ///     ..Default::default()
    /// });
    /// let video = encoder.encode(&frames, FrameRate::FPS30).unwrap();
    /// assert_eq!(video.keyframes(), vec![0, 2]);
    ///
    /// let decoded = Decoder::default().decode_all(&video).unwrap();
    /// assert_eq!(decoded.frames, frames); // lossless round-trip
    /// ```
    pub fn encode(&self, frames: &[Frame], rate: FrameRate) -> Result<EncodedVideo> {
        self.encode_aligned(frames, rate, &[])
    }

    /// Encodes with **segment-aligned keyframes**: in addition to the
    /// regular cadence, a keyframe is forced at every `boundary` (the
    /// first frames of scenario segments), and the cadence restarts
    /// there. A scenario switch then always lands on a keyframe — seek
    /// cost 1 — and GOP-chunks never straddle two segments.
    ///
    /// Boundaries must be strictly increasing, non-zero and inside the
    /// video; duplicates are rejected.
    pub fn encode_aligned(
        &self,
        frames: &[Frame],
        rate: FrameRate,
        boundaries: &[usize],
    ) -> Result<EncodedVideo> {
        if frames.is_empty() {
            return Err(MediaError::InvalidConfig("cannot encode zero frames".into()));
        }
        if self.config.gop == 0 {
            return Err(MediaError::InvalidConfig("gop must be at least 1".into()));
        }
        if self.config.search_range > 127 {
            return Err(MediaError::InvalidConfig(format!(
                "search range {} exceeds the codable motion range of 127",
                self.config.search_range
            )));
        }
        let (w, h) = (frames[0].width(), frames[0].height());
        for f in frames {
            if f.width() != w || f.height() != h {
                return Err(MediaError::DimensionMismatch {
                    expected: (w, h),
                    actual: (f.width(), f.height()),
                });
            }
        }

        // Build the keyframe schedule: boundary starts plus the regular
        // cadence within each bounded region.
        let gop = self.config.gop;
        let mut region_starts = Vec::with_capacity(boundaries.len() + 1);
        region_starts.push(0usize);
        for (i, &b) in boundaries.iter().enumerate() {
            let prev = *region_starts.last().expect("non-empty");
            if b <= prev || b >= frames.len() {
                return Err(MediaError::InvalidConfig(format!(
                    "keyframe boundary #{i} at {b} is not strictly inside the video"
                )));
            }
            region_starts.push(b);
        }
        let mut starts = Vec::new();
        for (i, &rs) in region_starts.iter().enumerate() {
            let region_end = region_starts.get(i + 1).copied().unwrap_or(frames.len());
            let mut k = rs;
            while k < region_end {
                starts.push(k);
                k += gop;
            }
        }

        let cfg = self.config;
        let n_gops = starts.len();
        let encoded_gops: Vec<Vec<EncodedFrame>> =
            parallel_map_indexed(n_gops, cfg.threads, |g| {
                let start = starts[g];
                let end = starts.get(g + 1).copied().unwrap_or(frames.len());
                encode_gop(&frames[start..end], &cfg)
            });

        let mut out = Vec::with_capacity(frames.len());
        for g in encoded_gops {
            out.extend(g);
        }
        Ok(EncodedVideo::new(w, h, rate, self.config.quality, gop as u32, out))
    }
}

/// Whether every sample of `src` quantises to its reference — i.e. the
/// frame would code as all-zero residuals at zero motion, so it can be a
/// zero-byte SKIP frame.
fn frame_skips(src: &[Plane; 3], reference: &[Plane; 3], quant: &Quantiser) -> bool {
    for (s, r) in src.iter().zip(reference.iter()) {
        for (&a, &b) in s.data().iter().zip(r.data().iter()) {
            if quant.level(a, b) != 0 {
                return false;
            }
        }
    }
    true
}

/// Encodes one GOP sequentially: an I-frame followed by P/SKIP frames.
fn encode_gop(frames: &[Frame], cfg: &EncodeConfig) -> Vec<EncodedFrame> {
    let quant = Quantiser::new(cfg.quality.qstep());
    let mut out = Vec::with_capacity(frames.len());
    // Every plane's levels, one plane at a time.
    let mut levels = Vec::with_capacity((frames[0].width() * frames[0].height()) as usize);
    let mut reference: Option<[Plane; 3]> = None;
    for (i, frame) in frames.iter().enumerate() {
        let src = Plane::split(frame);
        let mut w = BitWriter::new();
        let recon;
        let kind;
        if i == 0 {
            kind = FrameKind::Intra;
            recon = [
                encode_plane_intra(&mut w, &src[0], &quant, &mut levels),
                encode_plane_intra(&mut w, &src[1], &quant, &mut levels),
                encode_plane_intra(&mut w, &src[2], &quant, &mut levels),
            ];
        } else {
            let ref_planes = reference.as_ref().expect("P-frame has a reference");
            if frame_skips(&src, ref_planes, &quant) {
                // Zero payload: the decoder re-shows the reference.
                out.push(EncodedFrame { kind: FrameKind::Skip, data: Vec::new() });
                continue; // reference stays as-is
            }
            kind = FrameKind::Inter;
            let cur_luma = Plane::luma_of(frame);
            let ref_luma = Plane::luma_of_planes(ref_planes);
            let mvs = motion_search(&cur_luma, &ref_luma, cfg.search_range);
            for &(dx, dy) in &mvs {
                w.put_se(dx as i64);
                w.put_se(dy as i64);
            }
            recon = [
                encode_plane_inter(&mut w, &src[0], &ref_planes[0], &mvs, &quant, &mut levels),
                encode_plane_inter(&mut w, &src[1], &ref_planes[1], &mvs, &quant, &mut levels),
                encode_plane_inter(&mut w, &src[2], &ref_planes[2], &mvs, &quant, &mut levels),
            ];
        }
        out.push(EncodedFrame { kind, data: w.finish() });
        reference = Some(recon);
    }
    out
}

/// The decoder.
#[derive(Debug, Clone, Copy, Default)]
pub struct Decoder {
    /// Worker threads for GOP-parallel decoding (≤ 1 = sequential).
    pub threads: usize,
}

impl Decoder {
    /// Creates a decoder using `threads` workers for full decodes.
    pub fn new(threads: usize) -> Decoder {
        Decoder { threads }
    }

    /// Decodes the whole stream.
    pub fn decode_all(&self, video: &EncodedVideo) -> Result<DecodedVideo> {
        if video.frames.is_empty() {
            return Ok(DecodedVideo { frames: Vec::new(), rate: video.rate });
        }
        let keyframes = video.keyframes();
        if keyframes.first() != Some(&0) {
            return Err(MediaError::CorruptBitstream(
                "stream does not start with a keyframe".into(),
            ));
        }
        // Decode GOPs in parallel, one work item per GOP: the dynamic
        // scheduler lets workers that draw cheap GOPs (SKIP-heavy still
        // stretches) steal the expensive ones a loaded worker never
        // reaches, instead of pinning contiguous GOP ranges to threads.
        let gop_bounds: Vec<(usize, usize)> = keyframes
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let end = keyframes.get(i + 1).copied().unwrap_or(video.frames.len());
                (k, end)
            })
            .collect();

        let chunks: Vec<Result<Vec<Frame>>> =
            parallel_map_indexed(gop_bounds.len(), self.threads.max(1), |g| {
                let (start, end) = gop_bounds[g];
                decode_gop(video, start, end)
            });

        let mut frames = Vec::with_capacity(video.frames.len());
        for chunk in chunks {
            frames.extend(chunk?);
        }
        Ok(DecodedVideo { frames, rate: video.rate })
    }

    /// Decodes the single frame `index`, starting from its GOP's keyframe.
    /// Returns the frame and the number of frames actually decoded (the
    /// seek cost measured by EXP-3).
    pub fn decode_frame(&self, video: &EncodedVideo, index: usize) -> Result<(Frame, usize)> {
        let key = video.keyframe_before(index)?;
        let frames = decode_gop(video, key, index + 1)?;
        let count = frames.len();
        let frame = frames.into_iter().next_back().expect("decode_gop yields ≥1 frame");
        Ok((frame, count))
    }

    /// Decodes the complete GOP starting at `keyframe` (which must be a
    /// keyframe index, e.g. from [`EncodedVideo::keyframe_before`]).
    /// This is the unit the shared [`crate::cache::GopCache`] stores.
    ///
    /// # Errors
    /// Fails when `keyframe` is out of range or does not start a GOP.
    pub fn decode_gop_at(&self, video: &EncodedVideo, keyframe: usize) -> Result<Vec<Frame>> {
        match video.frames.get(keyframe) {
            None => Err(MediaError::FrameOutOfRange {
                index: keyframe,
                len: video.frames.len(),
            }),
            Some(f) if f.kind != FrameKind::Intra => Err(MediaError::CorruptBitstream(
                format!("frame {keyframe} is not a keyframe"),
            )),
            Some(_) => decode_gop(video, keyframe, video.gop_end(keyframe)),
        }
    }
}

/// Decodes frames `[start, end)` where `start` must be a keyframe.
///
/// Each coded frame is decoded straight into one `w × h × 3` buffer,
/// wrapped once as a [`Frame`], and the last frame output is the next
/// P-frame's reference, so no colour plane is built.
fn decode_gop(video: &EncodedVideo, start: usize, end: usize) -> Result<Vec<Frame>> {
    let q = video
        .quality
        .qstep();
    let (w, h) = (video.width, video.height);
    if w == 0 || h == 0 || w > MAX_DIM || h > MAX_DIM {
        return Err(MediaError::InvalidDimensions { dims: (w, h) });
    }
    let mut out: Vec<Frame> = Vec::with_capacity(end - start);
    for idx in start..end {
        let ef = &video.frames[idx];
        let mut r = BitReader::new(&ef.data);
        let rgb = match ef.kind {
            FrameKind::Intra => decode_intra(&mut r, w, h, q)?,
            FrameKind::Inter => {
                let reference = out.last().ok_or_else(|| {
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
                decode_inter(&mut r, reference, &mvs, q)?
            }
            FrameKind::Skip => {
                // Re-show the previous output (an Arc bump), which is
                // also the reference, so a SKIP decodes in O(1).
                let prev = out.last().cloned().ok_or_else(|| {
                    MediaError::CorruptBitstream(format!("SKIP frame {idx} without reference"))
                })?;
                out.push(prev);
                continue;
            }
        };
        out.push(Frame::from_raw(w, h, rgb)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Rgb;
    use crate::synth::{FootageSpec, ShotSpec, SpriteShape, SpriteSpec};

    fn test_footage(frames: usize) -> Vec<Frame> {
        FootageSpec {
            width: 48,
            height: 32,
            rate: FrameRate::FPS30,
            shots: vec![ShotSpec {
                frames,
                background: Rgb::new(60, 90, 120),
                sprites: vec![SpriteSpec {
                    shape: SpriteShape::Rect(10, 8),
                    color: Rgb::new(220, 200, 40),
                    pos: (10.0, 10.0),
                    vel: (2.0, 1.0),
                }],
                luma_drift: 6,
                noise: 1,
            }],
            noise_seed: 3,
        }
        .render()
        .unwrap()
        .frames
    }

    /// The `n` residuals [`read_residuals`] reads, zeros included.
    fn dense_residuals(r: &mut BitReader<'_>, n: usize) -> Result<Vec<i64>> {
        let mut out = vec![0i64; n];
        let mut pos = 0;
        read_residuals(r, n, |run, level| {
            pos += run;
            out[pos] = level;
            pos += 1;
        })?;
        Ok(out)
    }

    #[test]
    fn residual_rle_roundtrip() {
        // Short tokens take the table, long runs and levels the codes.
        let mut long = vec![0i16; 300];
        long[70] = 255;
        long[71] = -255;
        long[200] = 31;
        long[201] = -32;
        let cases: Vec<Vec<i16>> = vec![
            vec![],
            vec![0, 0, 0, 0],
            vec![5],
            vec![0, 0, 3, 0, -2, 0, 0, 0],
            vec![1, -1, 2, -2, 3],
            vec![0; 100],
            long,
        ];
        for case in cases {
            let mut w = BitWriter::new();
            write_residuals(&mut w, &case);
            // A second plane follows, as in a frame.
            write_residuals(&mut w, &[0, 1]);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            let case: Vec<i64> = case.into_iter().map(i64::from).collect();
            assert_eq!(dense_residuals(&mut r, case.len()).unwrap(), case);
            assert_eq!(dense_residuals(&mut r, 2).unwrap(), [0, 1]);
        }
    }

    #[test]
    fn residual_reader_rejects_overlong_run() {
        let mut w = BitWriter::new();
        w.put_ue(50); // run of 50 into a 10-sample plane
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(dense_residuals(&mut r, 10).is_err());
    }

    #[test]
    fn residual_reader_rejects_levels_the_encoder_never_writes() {
        for level in [256, -256, 1 << 40] {
            let mut w = BitWriter::new();
            w.put_ue_se(0, level);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            assert!(
                matches!(dense_residuals(&mut r, 1), Err(MediaError::CorruptBitstream(_))),
                "level {level} accepted"
            );
        }
    }

    /// A 1×1 `Quality::Low` stream, a keyframe then a P-frame, whose
    /// red sample carries `levels[i]` in frame `i`.
    fn one_pixel_stream(levels: [i64; 2]) -> EncodedVideo {
        let frame = |kind, level| {
            let mut w = BitWriter::new();
            if kind == FrameKind::Inter {
                // The one macroblock's motion vector.
                w.put_se(0);
                w.put_se(0);
            }
            w.put_ue_se(0, level);
            // Green and blue: one zero-residual sample each.
            w.put_ue(1);
            w.put_ue(1);
            EncodedFrame { kind, data: w.finish() }
        };
        let frames = vec![frame(FrameKind::Intra, levels[0]), frame(FrameKind::Inter, levels[1])];
        EncodedVideo::new(1, 1, FrameRate::FPS30, Quality::Low, 2, frames)
    }

    #[test]
    fn crafted_levels_past_the_codable_range_are_rejected() {
        use crate::container::{ContainerReader, ContainerWriter};
        let dec = Decoder::default();
        // `level * q` overflows i64 for the first three.
        for levels in [[1 << 62, 1], [1, 1 << 62], [-(1 << 62), 1], [1, 256], [-256, 1]] {
            let video = ContainerReader::read(&ContainerWriter::write(&one_pixel_stream(levels)))
                .expect("the container does not parse payloads");
            assert!(
                matches!(dec.decode_all(&video), Err(MediaError::CorruptBitstream(_))),
                "{levels:?}"
            );
            assert!(dec.decode_gop_at(&video, 0).is_err(), "{levels:?}");
            assert!(dec.decode_frame(&video, 1).is_err(), "{levels:?}");
        }
        let frames = dec.decode_all(&one_pixel_stream([-255, 255])).unwrap().frames;
        assert_eq!(frames[0].get(0, 0).unwrap().r, 0);
        assert_eq!(frames[1].get(0, 0).unwrap().r, 255);
    }

    #[test]
    fn streams_past_max_dim_are_rejected_before_decoding() {
        for dims in [(MAX_DIM + 1, 1), (1, MAX_DIM + 1)] {
            // One keyframe whose three planes are each one zero run.
            let mut w = BitWriter::new();
            for _ in 0..3 {
                w.put_ue(u64::from(dims.0 * dims.1));
            }
            let frames = vec![EncodedFrame { kind: FrameKind::Intra, data: w.finish() }];
            let video =
                EncodedVideo::new(dims.0, dims.1, FrameRate::FPS30, Quality::Low, 1, frames);
            let dec = Decoder::default();
            let rejected =
                |e: MediaError| matches!(e, MediaError::InvalidDimensions { dims: d } if d == dims);
            assert!(rejected(dec.decode_all(&video).unwrap_err()), "{dims:?}");
            assert!(rejected(dec.decode_gop_at(&video, 0).unwrap_err()), "{dims:?}");
            assert!(rejected(dec.decode_frame(&video, 0).unwrap_err()), "{dims:?}");
        }
    }

    #[test]
    fn quantize_is_symmetric() {
        for q in [1i64, 2, 4, 8] {
            for v in -50..=50i64 {
                assert_eq!(quantize(v, q), -quantize(-v, q), "v={v} q={q}");
                // Reconstruction error bounded by q/2.
                let err = (quantize(v, q) * q - v).abs();
                assert!(err <= q / 2, "v={v} q={q} err={err}");
            }
        }
    }

    #[test]
    fn lossless_roundtrip_is_exact() {
        let frames = test_footage(8);
        let enc = Encoder::new(EncodeConfig {
            quality: Quality::Lossless,
            gop: 4,
            ..Default::default()
        });
        let ev = enc.encode(&frames, FrameRate::FPS30).unwrap();
        let dec = Decoder::default().decode_all(&ev).unwrap();
        assert_eq!(dec.frames.len(), frames.len());
        for (a, b) in frames.iter().zip(dec.frames.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn lossy_roundtrip_is_close() {
        let frames = test_footage(10);
        for quality in [Quality::High, Quality::Medium, Quality::Low] {
            let enc = Encoder::new(EncodeConfig { quality, gop: 5, ..Default::default() });
            let ev = enc.encode(&frames, FrameRate::FPS30).unwrap();
            let dec = Decoder::default().decode_all(&ev).unwrap();
            for (a, b) in frames.iter().zip(dec.frames.iter()) {
                let mse = a.mse(b).unwrap();
                let bound = (quality.qstep() * quality.qstep()) as f64;
                assert!(mse <= bound, "{quality:?}: mse {mse} > {bound}");
            }
        }
    }

    #[test]
    fn lower_quality_compresses_harder() {
        let frames = test_footage(12);
        let size_at = |q: Quality| {
            Encoder::new(EncodeConfig { quality: q, gop: 6, ..Default::default() })
                .encode(&frames, FrameRate::FPS30)
                .unwrap()
                .payload_bytes()
        };
        let lossless = size_at(Quality::Lossless);
        let low = size_at(Quality::Low);
        assert!(low < lossless, "low {low} !< lossless {lossless}");
    }

    /// Noise-free footage with a moving sprite: temporal prediction should
    /// shine here, while per-pixel sensor noise (as in [`test_footage`])
    /// costs intra and inter coding about equally.
    fn clean_footage(frames: usize) -> Vec<Frame> {
        FootageSpec {
            width: 48,
            height: 32,
            rate: FrameRate::FPS30,
            shots: vec![ShotSpec {
                frames,
                background: Rgb::new(60, 90, 120),
                sprites: vec![SpriteSpec {
                    shape: SpriteShape::Rect(10, 8),
                    color: Rgb::new(220, 200, 40),
                    pos: (10.0, 10.0),
                    vel: (2.0, 1.0),
                }],
                luma_drift: 0,
                noise: 0,
            }],
            noise_seed: 3,
        }
        .render()
        .unwrap()
        .frames
    }

    #[test]
    fn inter_frames_beat_all_intra_on_static_content() {
        let frames = clean_footage(12);
        let with_gop = |gop: usize| {
            Encoder::new(EncodeConfig { gop, ..Default::default() })
                .encode(&frames, FrameRate::FPS30)
                .unwrap()
                .payload_bytes()
        };
        assert!(with_gop(12) < with_gop(1));
    }

    #[test]
    fn gop_structure_is_correct() {
        let frames = test_footage(10);
        let ev = Encoder::new(EncodeConfig { gop: 4, ..Default::default() })
            .encode(&frames, FrameRate::FPS30)
            .unwrap();
        let kinds: Vec<FrameKind> = ev.frames.iter().map(|f| f.kind).collect();
        use FrameKind::{Inter, Intra};
        assert_eq!(
            kinds,
            vec![Intra, Inter, Inter, Inter, Intra, Inter, Inter, Inter, Intra, Inter]
        );
        assert_eq!(ev.keyframes(), vec![0, 4, 8]);
        assert_eq!(ev.keyframe_before(3).unwrap(), 0);
        assert_eq!(ev.keyframe_before(4).unwrap(), 4);
        assert_eq!(ev.keyframe_before(9).unwrap(), 8);
        assert!(ev.keyframe_before(10).is_err());
    }

    #[test]
    fn parallel_encode_matches_sequential() {
        let frames = test_footage(16);
        let seq = Encoder::new(EncodeConfig { gop: 4, threads: 1, ..Default::default() })
            .encode(&frames, FrameRate::FPS30)
            .unwrap();
        let par = Encoder::new(EncodeConfig { gop: 4, threads: 4, ..Default::default() })
            .encode(&frames, FrameRate::FPS30)
            .unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_decode_matches_sequential() {
        let frames = test_footage(16);
        let ev = Encoder::new(EncodeConfig { gop: 4, ..Default::default() })
            .encode(&frames, FrameRate::FPS30)
            .unwrap();
        let seq = Decoder::new(1).decode_all(&ev).unwrap();
        let par = Decoder::new(4).decode_all(&ev).unwrap();
        assert_eq!(seq.frames, par.frames);
    }

    #[test]
    fn decode_frame_counts_gop_walk() {
        let frames = test_footage(10);
        let ev = Encoder::new(EncodeConfig { gop: 5, ..Default::default() })
            .encode(&frames, FrameRate::FPS30)
            .unwrap();
        let dec = Decoder::default();
        let (_, n) = dec.decode_frame(&ev, 0).unwrap();
        assert_eq!(n, 1);
        let (_, n) = dec.decode_frame(&ev, 4).unwrap();
        assert_eq!(n, 5);
        let (_, n) = dec.decode_frame(&ev, 5).unwrap();
        assert_eq!(n, 1);
        // The frame itself matches the full decode.
        let all = dec.decode_all(&ev).unwrap();
        let (f7, _) = dec.decode_frame(&ev, 7).unwrap();
        assert_eq!(f7, all.frames[7]);
    }

    #[test]
    fn encode_validates_input() {
        let enc = Encoder::default();
        assert!(enc.encode(&[], FrameRate::FPS30).is_err());
        let bad_gop = Encoder::new(EncodeConfig { gop: 0, ..Default::default() });
        let frames = test_footage(2);
        assert!(bad_gop.encode(&frames, FrameRate::FPS30).is_err());
        let mixed = vec![
            Frame::new(8, 8).unwrap(),
            Frame::new(9, 8).unwrap(),
        ];
        assert!(enc.encode(&mixed, FrameRate::FPS30).is_err());
    }

    #[test]
    fn decoder_rejects_headless_stream() {
        let frames = test_footage(4);
        let mut ev = Encoder::new(EncodeConfig { gop: 2, ..Default::default() })
            .encode(&frames, FrameRate::FPS30)
            .unwrap();
        // Corrupt: drop the leading keyframe.
        ev.frames_mut().remove(0);
        assert!(Decoder::default().decode_all(&ev).is_err());
    }

    #[test]
    fn decoder_rejects_truncated_payload() {
        let frames = test_footage(3);
        let mut ev = Encoder::new(EncodeConfig { gop: 3, ..Default::default() })
            .encode(&frames, FrameRate::FPS30)
            .unwrap();
        ev.frames_mut()[0].data.truncate(4);
        assert!(Decoder::default().decode_all(&ev).is_err());
    }

    #[test]
    fn motion_search_finds_translation() {
        // A textured block shifted right by 3 px between frames.
        let mut f0 = Frame::filled(32, 32, Rgb::BLACK).unwrap();
        let mut f1 = Frame::filled(32, 32, Rgb::BLACK).unwrap();
        for i in 0..8 {
            f0.fill_rect(8 + i, 8 + i, 2, 2, Rgb::new(200, (20 * i) as u8, 100));
            f1.fill_rect(11 + i, 8 + i, 2, 2, Rgb::new(200, (20 * i) as u8, 100));
        }
        let cur = Plane::luma_of(&f1);
        let refp = Plane::luma_of(&f0);
        let mvs = motion_search(&cur, &refp, 7);
        // The macroblock containing the texture ((0,0)..(16,16)) should
        // carry the (-3, 0) vector (current samples map back to ref).
        assert_eq!(mvs[0], (-3, 0));
    }

    #[test]
    fn search_ranges_past_127_are_rejected() {
        // Only column 0 is bright, so the bright block the second frame
        // adds at x 48..64 matches nothing but column 0's edge
        // extension: the first zero-SAD probe is (-range, -range).
        let mut f0 = Frame::filled(64, 48, Rgb::BLACK).unwrap();
        f0.fill_rect(0, 0, 1, 48, Rgb::WHITE);
        let mut f1 = f0.clone();
        f1.fill_rect(48, 0, 16, 16, Rgb::WHITE);
        let frames = [f0, f1];
        let encode = |search_range| {
            Encoder::new(EncodeConfig {
                quality: Quality::Lossless,
                gop: 2,
                threads: 1,
                search_range,
            })
            .encode(&frames, FrameRate::FPS30)
        };
        for range in [128, 255] {
            assert!(
                matches!(encode(range), Err(MediaError::InvalidConfig(_))),
                "search range {range} accepted"
            );
        }
        let ev = encode(127).unwrap();
        assert_eq!(Decoder::default().decode_all(&ev).unwrap().frames, frames);
        assert_eq!(ev.frames[1].kind, FrameKind::Inter);
        assert!(ev.frames[1].data.len() < 64, "P-frame of {} bytes", ev.frames[1].data.len());
    }

    #[test]
    fn compression_ratio_reported() {
        let frames = test_footage(6);
        let ev = Encoder::default().encode(&frames, FrameRate::FPS30).unwrap();
        assert!(ev.compression_ratio() > 1.0, "ratio {}", ev.compression_ratio());
        assert_eq!(ev.raw_bytes(), 48 * 32 * 3 * 6);
    }
}

#[cfg(test)]
mod token_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every `(run, level)` [`read_residuals`] hands its closure over
    /// `n` samples, how it ended, and the bit it ended at.
    fn table_tokens(bytes: &[u8], n: usize) -> (Vec<(usize, i64)>, Result<()>, usize) {
        let mut r = BitReader::new(bytes);
        let mut tokens = Vec::new();
        let end = read_residuals(&mut r, n, |run, level| tokens.push((run, level)));
        (tokens, end, r.bit_pos())
    }

    /// The same from a plain `get_ue`/`get_se` loop, with no table.
    fn plain_tokens(bytes: &[u8], n: usize) -> (Vec<(usize, i64)>, Result<()>, usize) {
        let mut r = BitReader::new(bytes);
        let mut tokens = Vec::new();
        let mut left = n;
        let mut read = || -> Result<()> {
            while left > 0 {
                let run = r.get_ue()? as usize;
                if run > left {
                    return Err(MediaError::CorruptBitstream(format!(
                        "zero run {run} exceeds remaining {left} samples"
                    )));
                }
                if run == left {
                    break;
                }
                let level = r.get_se()?;
                if !(-MAX_LEVEL..=MAX_LEVEL).contains(&level) {
                    return Err(MediaError::CorruptBitstream(format!(
                        "residual level {level} outside ±{MAX_LEVEL}"
                    )));
                }
                tokens.push((run, level));
                left -= run + 1;
            }
            Ok(())
        };
        let end = read();
        (tokens, end, r.bit_pos())
    }

    /// Plane lengths around the four-lookup guard (`4 × 63 = 252`), and
    /// a 128×96 plane.
    const PLANE_LENGTHS: [usize; 6] = [1, 252, 253, 256, 257, 12_288];

    /// A stream for the token tests. `kind` 0 is random bytes; 1 is a
    /// plane of `n` residuals as the encoder writes them, dense and
    /// small like noisy footage's; 2 is one with runs up to 70 and
    /// mostly unit levels, so many tokens fill a lookup alone, and a few
    /// levels up to ±255. Planes are followed by random bytes, as by the
    /// next plane, and any stream can lose its last `cut` bytes.
    fn token_stream(seed: u64, n: usize, kind: u8, cut: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = if kind == 0 {
            let len = rng.gen_range(0..16 + n / 3usize);
            (0..len).map(|_| rng.gen()).collect()
        } else {
            let mut residuals = vec![0i16; n];
            let mut i = if kind == 1 { 0 } else { rng.gen_range(0..=70usize) };
            while i < n {
                residuals[i] = match (kind, rng.gen_range(0..20)) {
                    (1, _) => rng.gen_range(-3..=3),
                    (_, 0) => rng.gen_range(-255..=255),
                    (_, 1..=4) => rng.gen_range(-40..=40),
                    _ => [-1, 1][rng.gen_range(0..2usize)],
                };
                i += 1 + if kind == 1 { rng.gen_range(0..2usize) } else { rng.gen_range(0..=70usize) };
            }
            let mut w = BitWriter::new();
            write_residuals(&mut w, &residuals);
            let mut bytes = w.finish();
            bytes.extend((0..rng.gen_range(0..16usize)).map(|_| rng.gen::<u8>()));
            bytes
        };
        bytes.truncate(bytes.len().saturating_sub(cut));
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // The pair table and the four-lookup loop read what the codes
        // read: the same tokens in the same order, the same error, and
        // the same end bit, on random bits and on encoder planes, whole
        // or cut short inside the last refill's eight bytes.
        #[test]
        fn residual_tokens_match_the_plain_codes(
            seed in any::<u64>(),
            plane in any::<prop::sample::Index>(),
            kind in 0u8..3,
            cut in prop_oneof![Just(0usize), 1usize..24],
        ) {
            let n = PLANE_LENGTHS[plane.index(PLANE_LENGTHS.len())];
            let bytes = token_stream(seed, n, kind, cut);
            let table = table_tokens(&bytes, n);
            // A whole encoder plane reads back.
            prop_assert!(kind == 0 || cut > 0 || table.1.is_ok(), "{:?}", table.1);
            prop_assert_eq!(table, plain_tokens(&bytes, n));
        }
    }

    #[test]
    fn four_lookup_loop_leaves_the_trailing_run_to_the_codes() {
        // A 274-sample plane: seven tokens that fill a lookup each (a run
        // of 30 and a level of 1, 9 + 3 bits), then a trailing run of 57
        // followed by a one bit, the next plane's `ue(0)`. The loop
        // stops after four lookups: 150 samples left is not more than
        // 252. An encoder's token covers at most 31 samples a lookup, so
        // a guard of 4 × 31 would go on, and its fourth lookup would read
        // the trailing run and that one bit as a token (57, 0).
        let mut residuals = Vec::new();
        for _ in 0..7 {
            residuals.extend(std::iter::repeat_n(0i16, 30));
            residuals.push(1);
        }
        residuals.extend(std::iter::repeat_n(0, 57));
        assert_eq!(residuals.len(), 274);
        let mut w = BitWriter::new();
        write_residuals(&mut w, &residuals);
        write_residuals(&mut w, &[1; 16]);
        let bytes = w.finish();
        let (tokens, end, bit) = table_tokens(&bytes, residuals.len());
        assert!(end.is_ok());
        assert_eq!(tokens, vec![(30, 1); 7]);
        assert_eq!((tokens, end, bit), plain_tokens(&bytes, residuals.len()));
    }
}

#[cfg(test)]
mod motion_search_tests {
    use super::*;
    use proptest::prelude::*;

    /// The search [`motion_search`] must reproduce: every vector within
    /// ±`range`, row-major from (-range, -range), over the unpadded
    /// reference with per-sample clamping. The zero vector is the
    /// incumbent and only a strictly smaller SAD replaces it, so the
    /// first of equal minima wins; a zero SAD cannot be beaten, so
    /// probing on after it changes nothing.
    fn naive_search(cur: &Plane, reference: &Plane, range: u8) -> Vec<(i8, i8)> {
        let (cols, rows) = mb_grid(cur.width(), cur.height());
        let r = range as i64;
        let mut mvs = Vec::new();
        for my in 0..rows {
            for mx in 0..cols {
                let (x, y) = (mx * MB, my * MB);
                let (bw, bh) = (MB.min(cur.width() - x), MB.min(cur.height() - y));
                let sad =
                    |dx, dy| cur.block_sad_reference(reference, x, y, bw, bh, dx, dy, u64::MAX);
                let mut best = (sad(0, 0), (0, 0));
                for dy in -r..=r {
                    for dx in -r..=r {
                        let s = sad(dx, dy);
                        if s < best.0 {
                            best = (s, (dx as i8, dy as i8));
                        }
                    }
                }
                mvs.push(best.1);
            }
        }
        mvs
    }

    /// Plane content: random bytes, or one value (a flat plane, where
    /// every probe ties), cycled to fill the plane. Short cycles make
    /// periodic planes, where many probes tie.
    fn content() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 1..64),
            proptest::collection::vec(any::<u8>(), 1..4),
            any::<u8>().prop_map(|v| vec![v]),
        ]
    }

    fn plane_from(w: u32, h: u32, bytes: &[u8]) -> Plane {
        Plane::from_raw(w, h, bytes.iter().copied().cycle().take((w * h) as usize).collect())
    }

    /// How the current plane is made from the reference.
    #[derive(Debug, Clone)]
    enum Current {
        /// Content of its own.
        Own(Vec<u8>),
        /// The reference moved by a vector inside the search range, so
        /// a probe mid-scan has a zero SAD and the scan stops there.
        Shifted(i64, i64),
        /// The reference plus noise of up to ±`amplitude` per sample, so
        /// near-equal SADs leave tie-breaking to decide.
        Noisy(u8, u64),
    }

    fn current() -> impl Strategy<Value = Current> {
        prop_oneof![
            content().prop_map(Current::Own),
            (-20i64..=20, -20i64..=20).prop_map(|(dx, dy)| Current::Shifted(dx, dy)),
            (0u8..=2, any::<u64>()).prop_map(|(a, seed)| Current::Noisy(a, seed)),
        ]
    }

    fn current_plane(reference: &Plane, range: u8, how: &Current) -> Plane {
        let (w, h) = (reference.width(), reference.height());
        match how {
            Current::Own(bytes) => plane_from(w, h, bytes),
            Current::Shifted(dx, dy) => {
                let r = i64::from(range);
                let (dx, dy) = ((*dx).clamp(-r, r), (*dy).clamp(-r, r));
                let data = (0..h as i64)
                    .flat_map(|y| (0..w as i64).map(move |x| (x, y)))
                    .map(|(x, y)| reference.sample_clamped(x + dx, y + dy))
                    .collect();
                Plane::from_raw(w, h, data)
            }
            Current::Noisy(amplitude, seed) => {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(*seed);
                let a = i16::from(*amplitude);
                let data = reference
                    .data()
                    .iter()
                    .map(|&v| (i16::from(v) + rng.gen_range(-a..=a)).clamp(0, 255) as u8)
                    .collect();
                Plane::from_raw(w, h, data)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Sizes from 1×1 to 48×48 give whole and partial macroblocks.
        #[test]
        fn motion_search_matches_naive_full_search(
            w in 1u32..=48,
            h in 1u32..=48,
            range in 0u8..=20,
            ref_bytes in content(),
            how in current(),
        ) {
            let reference = plane_from(w, h, &ref_bytes);
            let cur = current_plane(&reference, range, &how);
            prop_assert_eq!(
                motion_search(&cur, &reference, range),
                naive_search(&cur, &reference, range)
            );
        }
    }

    #[test]
    fn motion_search_matches_naive_full_search_at_the_widest_range() {
        // 40×24: one whole macroblock, three partial ones. The current
        // plane is the reference moved by (90, −100), reached only near
        // the end of the ±127 scan, and beaten by nothing before it.
        let bytes: Vec<u8> = (0..61u32).map(|i| (i * 97 % 251) as u8).collect();
        let reference = plane_from(40, 24, &bytes);
        for how in [Current::Shifted(90, -100), Current::Noisy(2, 5)] {
            let cur = current_plane(&reference, 127, &how);
            assert_eq!(motion_search(&cur, &reference, 127), naive_search(&cur, &reference, 127));
        }
    }
}

#[cfg(test)]
mod aligned_tests {
    use super::*;
    use crate::color::Rgb;
    use crate::synth::{FootageSpec, ShotSpec};

    fn frames(n: usize) -> Vec<Frame> {
        FootageSpec {
            width: 32,
            height: 24,
            rate: FrameRate::FPS30,
            shots: vec![ShotSpec::plain(n, Rgb::new(70, 110, 150))],
            noise_seed: 8,
        }
        .render()
        .unwrap()
        .frames
    }

    #[test]
    fn aligned_keyframes_land_on_boundaries() {
        let f = frames(20);
        let enc = Encoder::new(EncodeConfig { gop: 6, ..Default::default() });
        let ev = enc.encode_aligned(&f, FrameRate::FPS30, &[7, 15]).unwrap();
        // Regions [0,7), [7,15), [15,20) with cadence 6 inside each:
        assert_eq!(ev.keyframes(), vec![0, 6, 7, 13, 15]);
        // Every boundary seeks in exactly one frame.
        let dec = Decoder::default();
        for b in [0usize, 7, 15] {
            let (_, n) = dec.decode_frame(&ev, b).unwrap();
            assert_eq!(n, 1, "boundary {b}");
        }
    }

    #[test]
    fn aligned_decodes_identically_to_source_at_lossless() {
        let f = frames(18);
        let enc = Encoder::new(EncodeConfig {
            gop: 5,
            quality: Quality::Lossless,
            ..Default::default()
        });
        let ev = enc.encode_aligned(&f, FrameRate::FPS30, &[4, 9]).unwrap();
        let dec = Decoder::default().decode_all(&ev).unwrap();
        assert_eq!(dec.frames, f);
    }

    #[test]
    fn empty_boundaries_equals_plain_encode() {
        let f = frames(12);
        let enc = Encoder::new(EncodeConfig { gop: 4, ..Default::default() });
        let a = enc.encode(&f, FrameRate::FPS30).unwrap();
        let b = enc.encode_aligned(&f, FrameRate::FPS30, &[]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_boundaries() {
        let f = frames(10);
        let enc = Encoder::new(EncodeConfig { gop: 4, ..Default::default() });
        for bad in [vec![0usize], vec![10], vec![5, 5], vec![7, 3], vec![11]] {
            assert!(
                enc.encode_aligned(&f, FrameRate::FPS30, &bad).is_err(),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn alignment_costs_little_compression() {
        let f = frames(30);
        let enc = Encoder::new(EncodeConfig { gop: 10, ..Default::default() });
        let plain = enc.encode(&f, FrameRate::FPS30).unwrap();
        let aligned = enc.encode_aligned(&f, FrameRate::FPS30, &[13]).unwrap();
        // One extra keyframe: some size cost, but bounded (< 40% here).
        assert!(aligned.payload_bytes() >= plain.payload_bytes());
        assert!(
            (aligned.payload_bytes() as f64) < plain.payload_bytes() as f64 * 1.4,
            "{} vs {}",
            aligned.payload_bytes(),
            plain.payload_bytes()
        );
    }
}

#[cfg(test)]
mod skip_tests {
    use super::*;
    use crate::color::Rgb;
    use crate::synth::{FootageSpec, ShotSpec, SpriteShape, SpriteSpec};

    fn static_frames(n: usize) -> Vec<Frame> {
        FootageSpec {
            width: 32,
            height: 24,
            rate: FrameRate::FPS30,
            shots: vec![ShotSpec::plain(n, Rgb::new(120, 140, 90))],
            noise_seed: 1,
        }
        .render()
        .unwrap()
        .frames
    }

    #[test]
    fn static_content_collapses_to_skip_frames() {
        let frames = static_frames(10);
        let ev = Encoder::new(EncodeConfig { gop: 10, ..Default::default() })
            .encode(&frames, FrameRate::FPS30)
            .unwrap();
        let kinds: Vec<FrameKind> = ev.frames.iter().map(|f| f.kind).collect();
        assert_eq!(kinds[0], FrameKind::Intra);
        assert!(
            kinds[1..].iter().all(|k| *k == FrameKind::Skip),
            "kinds: {kinds:?}"
        );
        // SKIP frames carry no payload at all.
        assert!(ev.frames[1..].iter().all(|f| f.data.is_empty()));
        // And decode identically to the source.
        let dec = Decoder::default().decode_all(&ev).unwrap();
        assert_eq!(dec.frames, frames);
    }

    #[test]
    fn skip_massively_improves_static_compression() {
        let frames = static_frames(30);
        let ev = Encoder::new(EncodeConfig { gop: 30, ..Default::default() })
            .encode(&frames, FrameRate::FPS30)
            .unwrap();
        // Essentially one intra frame's worth of bytes for 30 frames.
        assert!(
            ev.compression_ratio() > 20.0,
            "ratio only {:.1}",
            ev.compression_ratio()
        );
    }

    #[test]
    fn moving_content_does_not_skip() {
        let frames = FootageSpec {
            width: 32,
            height: 24,
            rate: FrameRate::FPS30,
            shots: vec![ShotSpec {
                frames: 6,
                background: Rgb::GREY,
                sprites: vec![SpriteSpec {
                    shape: SpriteShape::Rect(8, 8),
                    color: Rgb::RED,
                    pos: (8.0, 8.0),
                    vel: (3.0, 0.0),
                }],
                luma_drift: 0,
                noise: 0,
            }],
            noise_seed: 1,
        }
        .render()
        .unwrap()
        .frames;
        let ev = Encoder::new(EncodeConfig { gop: 6, ..Default::default() })
            .encode(&frames, FrameRate::FPS30)
            .unwrap();
        assert!(ev.frames[1..].iter().all(|f| f.kind == FrameKind::Inter));
    }

    #[test]
    fn lossy_quantisation_absorbs_tiny_noise_into_skips() {
        // Noise amplitude 1 quantises away at Low quality (q=8: |v|<=3).
        let frames = FootageSpec {
            width: 32,
            height: 24,
            rate: FrameRate::FPS30,
            shots: vec![ShotSpec {
                frames: 8,
                background: Rgb::GREY,
                sprites: vec![],
                luma_drift: 0,
                noise: 1,
            }],
            noise_seed: 2,
        }
        .render()
        .unwrap()
        .frames;
        let lossless = Encoder::new(EncodeConfig {
            quality: Quality::Lossless,
            gop: 8,
            ..Default::default()
        })
        .encode(&frames, FrameRate::FPS30)
        .unwrap();
        let low = Encoder::new(EncodeConfig {
            quality: Quality::Low,
            gop: 8,
            ..Default::default()
        })
        .encode(&frames, FrameRate::FPS30)
        .unwrap();
        let skips = |ev: &EncodedVideo| {
            ev.frames.iter().filter(|f| f.kind == FrameKind::Skip).count()
        };
        assert_eq!(skips(&lossless), 0);
        assert_eq!(skips(&low), 7);
    }

    #[test]
    fn skip_frames_roundtrip_through_container() {
        let frames = static_frames(6);
        let ev = Encoder::new(EncodeConfig { gop: 6, ..Default::default() })
            .encode(&frames, FrameRate::FPS30)
            .unwrap();
        let bytes = crate::container::ContainerWriter::write(&ev);
        let back = crate::container::ContainerReader::read(&bytes).unwrap();
        assert_eq!(back, ev);
        let dec = Decoder::default().decode_all(&back).unwrap();
        assert_eq!(dec.frames.len(), 6);
    }

    #[test]
    fn corrupt_leading_skip_rejected() {
        let frames = static_frames(4);
        let mut ev = Encoder::new(EncodeConfig { gop: 4, ..Default::default() })
            .encode(&frames, FrameRate::FPS30)
            .unwrap();
        ev.frames_mut()[0] = EncodedFrame { kind: FrameKind::Skip, data: Vec::new() };
        assert!(Decoder::default().decode_all(&ev).is_err());
    }
}
