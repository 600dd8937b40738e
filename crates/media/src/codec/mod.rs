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
pub mod plane;

use crate::cache::VideoId;
use crate::container::FrameKind;
use crate::error::MediaError;
use crate::frame::Frame;
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
    /// Motion search range in pixels (full search over ±range).
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

#[inline]
fn quantize(v: i64, q: i64) -> i64 {
    if q == 1 {
        v
    } else if v >= 0 {
        (v + q / 2) / q
    } else {
        -((-v + q / 2) / q)
    }
}

/// Zero-run RLE + Golomb encoding of a residual sequence.
fn write_residuals(w: &mut BitWriter, residuals: &[i64]) {
    let n = residuals.len();
    let mut pos = 0usize;
    while pos < n {
        let mut run = 0usize;
        while pos + run < n && residuals[pos + run] == 0 {
            run += 1;
        }
        w.put_ue(run as u64);
        if pos + run < n {
            w.put_se(residuals[pos + run]);
            pos += run + 1;
        } else {
            pos = n;
        }
    }
}

/// Inverse of [`write_residuals`], in sparse `(index, value)` form —
/// the natural shape of the zero-run RLE. Decoders treat the zero runs
/// between entries as whole spans (prediction pass-through) instead of
/// doing per-sample `pred + 0` arithmetic on a dense buffer.
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

/// Dense form of [`read_residuals_sparse`] (round-trip tests only).
#[cfg(test)]
fn read_residuals(r: &mut BitReader<'_>, n: usize) -> Result<Vec<i64>> {
    let mut out = vec![0i64; n];
    for (pos, val) in read_residuals_sparse(r, n)? {
        out[pos] = val;
    }
    Ok(out)
}

/// Intra-codes one plane: scan-order residuals against the reconstructed
/// left/top neighbour. Returns the reconstructed plane.
///
/// Runs on the raw sample buffer (the prediction needs only `buf[i-1]` /
/// `buf[i-stride]`), so the scan is index arithmetic instead of
/// per-pixel coordinate accessors; the reconstruction is wrapped into a
/// [`Plane`] once at the end.
fn encode_plane_intra(w: &mut BitWriter, src: &Plane, q: i64) -> Plane {
    let (pw, ph) = (src.width(), src.height());
    let n = (pw * ph) as usize;
    let stride = pw as usize;
    let sdata = src.data();
    let mut recon = vec![0u8; n];
    let mut residuals = Vec::with_capacity(n);
    for i in 0..n {
        let pred = intra_pred(&recon, i, stride);
        let res = sdata[i] as i64 - pred;
        let qres = quantize(res, q);
        residuals.push(qres);
        recon[i] = (pred + qres * q).clamp(0, 255) as u8;
    }
    write_residuals(w, &residuals);
    Plane::from_raw(pw, ph, recon)
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

/// Reconstructs the zero-residual span `[from, to)`: each sample equals
/// its prediction exactly (`clamp(pred + 0)` of an in-range neighbour),
/// so left-prediction propagates one constant along each row and only
/// the row-start sample looks up its above neighbour.
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
fn motion_search(cur: &Plane, reference: &Plane, range: u8) -> Vec<(i8, i8)> {
    let (cols, rows) = mb_grid(cur.width(), cur.height());
    let r = range as i64;
    let mut mvs = Vec::with_capacity((cols * rows) as usize);
    for my in 0..rows {
        for mx in 0..cols {
            let x = mx * MB;
            let y = my * MB;
            let bw = MB.min(cur.width() - x);
            let bh = MB.min(cur.height() - y);
            // Zero vector first: it is the overwhelmingly common winner and
            // seeds the early-exit bound.
            let mut best = cur.block_sad(reference, x, y, bw, bh, 0, 0, u64::MAX);
            let mut best_mv = (0i8, 0i8);
            'search: for dy in -r..=r {
                for dx in -r..=r {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    if best == 0 {
                        break 'search;
                    }
                    let sad = cur.block_sad(reference, x, y, bw, bh, dx, dy, best);
                    if sad < best {
                        best = sad;
                        best_mv = (dx as i8, dy as i8);
                    }
                }
            }
            mvs.push(best_mv);
        }
    }
    mvs
}

/// Motion-compensated prediction samples for the row `y`, span
/// `[x0, x1)`, under motion vector `(dx, dy)` with clamped sampling —
/// appended to `pred_row`. The clamped source row is computed once per
/// span; fully in-bounds spans (the overwhelming majority) are a plain
/// slice copy, edge spans clamp per sample.
// Innermost prediction loop; discrete coordinates beat a geometry
// struct per span, as in `Plane::block_sad`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn predict_span(
    pred_row: &mut Vec<u8>,
    rdata: &[u8],
    pw: u32,
    ph: u32,
    y: u32,
    x0: u32,
    x1: u32,
    dx: i64,
    dy: i64,
) {
    let stride = pw as usize;
    let ry = (y as i64 + dy).clamp(0, ph as i64 - 1) as usize;
    let rrow = &rdata[ry * stride..ry * stride + stride];
    if x0 as i64 + dx >= 0 && x1 as i64 + dx <= pw as i64 {
        let r0 = (x0 as i64 + dx) as usize;
        pred_row.extend_from_slice(&rrow[r0..r0 + (x1 - x0) as usize]);
    } else {
        for x in x0..x1 {
            let rx = (x as i64 + dx).clamp(0, pw as i64 - 1) as usize;
            pred_row.push(rrow[rx]);
        }
    }
}

/// Appends the motion-compensated prediction for the whole pixel row
/// `y` to `dst`, coalescing adjacent macroblocks that share a motion
/// vector into one [`predict_span`] call (static regions make runs of
/// equal vectors, so most rows collapse to a handful of long copies).
/// `mvs_row` holds the row's per-macroblock vectors, left to right.
#[inline]
fn predict_mb_row(dst: &mut Vec<u8>, rdata: &[u8], pw: u32, ph: u32, y: u32, mvs_row: &[(i8, i8)]) {
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
        predict_span(dst, rdata, pw, ph, y, x0, x1, mv.0 as i64, mv.1 as i64);
    }
}

/// Inter-codes one plane given per-macroblock motion vectors.
/// Returns the reconstructed plane.
fn encode_plane_inter(
    w: &mut BitWriter,
    src: &Plane,
    reference: &Plane,
    mvs: &[(i8, i8)],
    q: i64,
) -> Plane {
    let (pw, ph) = (src.width(), src.height());
    let (cols, _) = mb_grid(pw, ph);
    let n = (pw * ph) as usize;
    let stride = pw as usize;
    let sdata = src.data();
    let rdata = reference.data();
    let mut recon = vec![0u8; n];
    let mut residuals = Vec::with_capacity(n);
    let mut pred_row = Vec::with_capacity(stride);
    for y in 0..ph {
        pred_row.clear();
        let mb_row = ((y / MB) * cols) as usize;
        predict_mb_row(&mut pred_row, rdata, pw, ph, y, &mvs[mb_row..mb_row + cols as usize]);
        let row = y as usize * stride;
        for (x, &pred) in pred_row.iter().enumerate() {
            let pred = pred as i64;
            let res = sdata[row + x] as i64 - pred;
            let qres = quantize(res, q);
            residuals.push(qres);
            recon[row + x] = (pred + qres * q).clamp(0, 255) as u8;
        }
    }
    write_residuals(w, &residuals);
    Plane::from_raw(pw, ph, recon)
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
    // The prediction IS the reconstruction wherever the residual is
    // zero, so build the motion-compensated prediction directly into
    // the output buffer (mostly row-span copies) and then patch only
    // the sparse nonzero samples in place.
    let mut recon = Vec::with_capacity(n);
    for y in 0..ph {
        let mb_row = ((y / MB) * cols) as usize;
        predict_mb_row(&mut recon, rdata, pw, ph, y, &mvs[mb_row..mb_row + cols as usize]);
    }
    for &(pos, val) in &sparse {
        let pred = recon[pos] as i64;
        recon[pos] = (pred + val * q).clamp(0, 255) as u8;
    }
    Ok(Plane::from_raw(pw, ph, recon))
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
    /// Fails on an empty input, a zero GOP, or frames whose dimensions
    /// differ from the first frame.
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
fn frame_skips(src: &[Plane; 3], reference: &[Plane; 3], q: i64) -> bool {
    for (s, r) in src.iter().zip(reference.iter()) {
        for (a, b) in s.data().iter().zip(r.data().iter()) {
            if quantize(*a as i64 - *b as i64, q) != 0 {
                return false;
            }
        }
    }
    true
}

/// Encodes one GOP sequentially: an I-frame followed by P/SKIP frames.
fn encode_gop(frames: &[Frame], cfg: &EncodeConfig) -> Vec<EncodedFrame> {
    let q = cfg.quality.qstep();
    let mut out = Vec::with_capacity(frames.len());
    let mut reference: Option<[Plane; 3]> = None;
    for (i, frame) in frames.iter().enumerate() {
        let src = Plane::split(frame);
        let mut w = BitWriter::new();
        let recon;
        let kind;
        if i == 0 {
            kind = FrameKind::Intra;
            recon = [
                encode_plane_intra(&mut w, &src[0], q),
                encode_plane_intra(&mut w, &src[1], q),
                encode_plane_intra(&mut w, &src[2], q),
            ];
        } else {
            let ref_planes = reference.as_ref().expect("P-frame has a reference");
            if frame_skips(&src, ref_planes, q) {
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
                encode_plane_inter(&mut w, &src[0], &ref_planes[0], &mvs, q),
                encode_plane_inter(&mut w, &src[1], &ref_planes[1], &mvs, q),
                encode_plane_inter(&mut w, &src[2], &ref_planes[2], &mvs, q),
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
                // Re-show the previous output (an Arc bump): a SKIP
                // decodes in O(1) instead of re-merging three planes,
                // and the reference planes stay as-is.
                let prev: Frame =
                    out.last().cloned().expect("reference implies a prior output frame");
                out.push(prev);
                continue;
            }
        };
        out.push(Plane::merge(&planes));
        reference = Some(planes);
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

    #[test]
    fn residual_rle_roundtrip() {
        let cases: Vec<Vec<i64>> = vec![
            vec![],
            vec![0, 0, 0, 0],
            vec![5],
            vec![0, 0, 3, 0, -2, 0, 0, 0],
            vec![1, -1, 2, -2, 3],
            vec![0; 100],
        ];
        for case in cases {
            let mut w = BitWriter::new();
            write_residuals(&mut w, &case);
            let bytes = w.finish();
            let mut r = BitReader::new(&bytes);
            let back = read_residuals(&mut r, case.len()).unwrap();
            assert_eq!(back, case);
        }
    }

    #[test]
    fn residual_reader_rejects_overlong_run() {
        let mut w = BitWriter::new();
        w.put_ue(50); // run of 50 into a 10-sample plane
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert!(read_residuals(&mut r, 10).is_err());
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
    fn compression_ratio_reported() {
        let frames = test_footage(6);
        let ev = Encoder::default().encode(&frames, FrameRate::FPS30).unwrap();
        assert!(ev.compression_ratio() > 1.0, "ratio {}", ev.compression_ratio());
        assert_eq!(ev.raw_bytes(), 48 * 32 * 3 * 6);
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
