//! Colour planes and motion compensation.
//!
//! The encoder works on separated 8-bit planes (R, G, B, plus a derived
//! luma plane used only for motion search); the decoder reconstructs
//! straight into RGB frames. Planes support clamped sampling so motion
//! vectors may point partially outside the reference frame.

use std::sync::Arc;

use crate::color::Rgb;
use crate::frame::Frame;

/// One 8-bit channel of a frame.
///
/// Samples live behind an [`Arc`], so cloning a plane (the encoder's
/// reference frames) shares the buffer instead of copying it; the first
/// mutation of a shared plane copies on write via [`Arc::make_mut`]. Hot
/// producers should build the full sample buffer and wrap it once with
/// [`Plane::from_raw`] rather than calling [`Plane::set`] per pixel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plane {
    width: u32,
    height: u32,
    data: Arc<Vec<u8>>,
}

impl Plane {
    /// A zero-filled plane.
    pub fn new(width: u32, height: u32) -> Plane {
        Plane { width, height, data: Arc::new(vec![0; (width * height) as usize]) }
    }

    /// Wraps a ready-made row-major sample buffer (must hold exactly
    /// `width * height` samples).
    pub fn from_raw(width: u32, height: u32, data: Vec<u8>) -> Plane {
        assert_eq!(data.len(), (width * height) as usize, "plane buffer size mismatch");
        Plane { width, height, data: Arc::new(data) }
    }

    /// Plane width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Plane height.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw samples, row-major.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw samples (copy-on-write if the buffer is shared).
    pub fn data_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Sample at `(x, y)` with coordinates clamped to the plane bounds —
    /// the edge-extension rule used for out-of-frame motion references.
    #[inline]
    pub fn sample_clamped(&self, x: i64, y: i64) -> u8 {
        let cx = x.clamp(0, self.width as i64 - 1) as u32;
        let cy = y.clamp(0, self.height as i64 - 1) as u32;
        self.data[(cy * self.width + cx) as usize]
    }

    /// A copy grown by `pad` samples on every side: sample `(x, y)` of
    /// the copy is `sample_clamped(x - pad, y - pad)`. Motion search
    /// probes it instead of the plane itself, so a vector that reaches up
    /// to `pad` samples past an edge reads the same edge-extended samples
    /// without clamping.
    ///
    /// # Panics
    /// On an empty plane, which has no edge to extend.
    pub(crate) fn padded(&self, pad: u32) -> Plane {
        assert!(self.width > 0 && self.height > 0, "cannot pad an empty plane");
        let (w, h, p) = (self.width as usize, self.height as usize, pad as usize);
        let mut data = Vec::with_capacity((w + 2 * p) * (h + 2 * p));
        for y in 0..h + 2 * p {
            let sy = y.saturating_sub(p).min(h - 1);
            let row = &self.data[sy * w..sy * w + w];
            data.extend(std::iter::repeat_n(row[0], p));
            data.extend_from_slice(row);
            data.extend(std::iter::repeat_n(row[w - 1], p));
        }
        Plane::from_raw(self.width + 2 * pad, self.height + 2 * pad, data)
    }

    /// In-bounds sample access.
    #[inline]
    pub fn at(&self, x: u32, y: u32) -> u8 {
        self.data[(y * self.width + x) as usize]
    }

    /// In-bounds sample write (copy-on-write if the buffer is shared).
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, v: u8) {
        Arc::make_mut(&mut self.data)[(y * self.width + x) as usize] = v;
    }

    /// Extracts the three colour planes of a frame.
    pub fn split(frame: &Frame) -> [Plane; 3] {
        let (w, h) = (frame.width(), frame.height());
        let n = (w * h) as usize;
        let mut r = Vec::with_capacity(n);
        let mut g = Vec::with_capacity(n);
        let mut b = Vec::with_capacity(n);
        for px in frame.raw().chunks_exact(3) {
            r.push(px[0]);
            g.push(px[1]);
            b.push(px[2]);
        }
        [Plane::from_raw(w, h, r), Plane::from_raw(w, h, g), Plane::from_raw(w, h, b)]
    }

    /// Derives the luma plane of a frame (for motion search only).
    pub fn luma_of(frame: &Frame) -> Plane {
        let data: Vec<u8> = frame
            .raw()
            .chunks_exact(3)
            .map(|px| Rgb::new(px[0], px[1], px[2]).luma())
            .collect();
        Plane::from_raw(frame.width(), frame.height(), data)
    }

    /// Derives the luma plane directly from split colour planes —
    /// identical samples to [`Plane::luma_of`] on the frame they make,
    /// without materialising that RGB frame (the encoder calls this once
    /// per inter frame).
    pub fn luma_of_planes(planes: &[Plane; 3]) -> Plane {
        let (w, h) = (planes[0].width, planes[0].height);
        debug_assert!(planes.iter().all(|p| p.width == w && p.height == h));
        let data: Vec<u8> = planes[0]
            .data
            .iter()
            .zip(planes[1].data.iter())
            .zip(planes[2].data.iter())
            .map(|((&r, &g), &b)| Rgb::new(r, g, b).luma())
            .collect();
        Plane::from_raw(w, h, data)
    }

    /// Sum of absolute differences between a `bw×bh` block at `(x, y)` in
    /// `self` and the block at `(x+dx, y+dy)` in `reference`, with clamped
    /// sampling on the reference. Early-exits once `best` is exceeded.
    ///
    /// A probe that stays inside `reference` compares whole rows, 16
    /// samples at a time as fixed arrays (one `psadbw` each on x86-64),
    /// with a scalar tail for narrower blocks. A probe that reaches past
    /// an edge takes [`Plane::block_sad_reference`]'s per-sample clamped
    /// path. Both paths exit after the same row, so results are
    /// bit-identical to the reference.
    ///
    /// Motion search uses it only for the partial macroblocks at a
    /// frame's right and bottom edges, probing a copy of the reference
    /// padded by its search range, so no probe clamps. A whole 16×16
    /// macroblock is copied out once and compared row by row with
    /// fixed-size SADs instead.
    // A SAD call is the innermost loop of motion search; passing discrete
    // coordinates beats constructing a geometry struct per probe, and
    // inlining it into the search loop saves a call per probe.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn block_sad(
        &self,
        reference: &Plane,
        x: u32,
        y: u32,
        bw: u32,
        bh: u32,
        dx: i64,
        dy: i64,
        best: u64,
    ) -> u64 {
        let rx = x as i64 + dx;
        let ry = y as i64 + dy;
        let in_bounds = rx >= 0
            && ry >= 0
            && rx + bw as i64 <= reference.width as i64
            && ry + bh as i64 <= reference.height as i64;
        if !in_bounds {
            return self.block_sad_reference(reference, x, y, bw, bh, dx, dy, best);
        }
        if bw == 0 {
            // Nothing to compare, and a zero-wide plane would panic in `chunks`.
            return 0;
        }
        let (rx, ry, bw) = (rx as usize, ry as usize, bw as usize);
        let (aw, rw) = (self.width as usize, reference.width as usize);
        let a_rows = self.data[y as usize * aw + x as usize..].chunks(aw);
        let b_rows = reference.data[ry * rw + rx..].chunks(rw);
        let mut acc = 0u64;
        for (row_a, row_b) in a_rows.zip(b_rows).take(bh as usize) {
            acc += row_sad(&row_a[..bw], &row_b[..bw]);
            if acc >= best {
                return acc; // cannot improve on the incumbent
            }
        }
        acc
    }

    /// The 16×16 block whose top-left sample is `(x, y)`, copied into a
    /// fixed array that [`Plane::window_sad`] then reads from the stack
    /// for every candidate. The block must lie inside the plane.
    pub(crate) fn block16(&self, x: u32, y: u32) -> [[u8; 16]; 16] {
        let (w, at) = (self.width as usize, (y * self.width + x) as usize);
        let mut block = [[0u8; 16]; 16];
        for (i, row) in block.iter_mut().enumerate() {
            row.copy_from_slice(&self.data[at + i * w..at + i * w + 16]);
        }
        block
    }

    /// SAD of `block` against the 16×16 window of `self` whose top-left
    /// sample is at index `at`: one [`sad16`] per row, every row summed.
    #[inline(always)]
    pub(crate) fn window_sad(&self, block: &[[u8; 16]; 16], at: usize) -> u64 {
        let w = self.width as usize;
        let window = &self.data[at..at + 15 * w + 16];
        let mut acc = 0;
        for (i, row) in block.iter().enumerate() {
            acc += sad16(row, window[i * w..i * w + 16].try_into().expect("16-sample row"));
        }
        acc
    }

    /// The naive per-sample SAD the optimized [`Plane::block_sad`] must
    /// match bit-for-bit; retained as the proptest oracle and as the
    /// fallback for probes that clamp outside the reference.
    #[allow(clippy::too_many_arguments)]
    pub fn block_sad_reference(
        &self,
        reference: &Plane,
        x: u32,
        y: u32,
        bw: u32,
        bh: u32,
        dx: i64,
        dy: i64,
        best: u64,
    ) -> u64 {
        let mut acc = 0u64;
        for by in 0..bh {
            for bx in 0..bw {
                let a = self.at(x + bx, y + by) as i64;
                let b = reference.sample_clamped(x as i64 + bx as i64 + dx, y as i64 + by as i64 + dy)
                    as i64;
                acc += a.abs_diff(b);
            }
            if acc >= best {
                return acc; // cannot improve on the incumbent
            }
        }
        acc
    }
}

/// SAD of two equal-length sample rows. A full macroblock row is one
/// [`sad16`]; other widths take 16-sample chunks, then a scalar tail.
#[inline]
fn row_sad(a: &[u8], b: &[u8]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    if let (Ok(a), Ok(b)) = (a.try_into(), b.try_into()) {
        return sad16(a, b);
    }
    let mut ca = a.chunks_exact(16);
    let mut cb = b.chunks_exact(16);
    let mut acc = 0u64;
    for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
        let (wa, wb) =
            (wa.try_into().expect("16-sample chunk"), wb.try_into().expect("16-sample chunk"));
        acc += sad16(wa, wb);
    }
    for (&sa, &sb) in ca.remainder().iter().zip(cb.remainder()) {
        acc += u64::from(sa.abs_diff(sb));
    }
    acc
}

/// SAD of two 16-sample rows. The fixed length and the widened
/// subtraction let LLVM reduce the loop to one `psadbw` on baseline
/// x86-64; `u8::abs_diff` here does not vectorise.
#[inline]
fn sad16(a: &[u8; 16], b: &[u8; 16]) -> u64 {
    a.iter().zip(b).map(|(&sa, &sb)| (i64::from(sa) - i64::from(sb)).unsigned_abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color::Rgb;

    #[test]
    fn split_merge_roundtrip() {
        let mut f = Frame::new(5, 4).unwrap();
        f.set(1, 2, Rgb::new(9, 8, 7));
        f.set(4, 3, Rgb::new(200, 100, 50));
        let planes = Plane::split(&f);
        assert_eq!(planes[0].at(1, 2), 9);
        assert_eq!(planes[1].at(1, 2), 8);
        assert_eq!(planes[2].at(1, 2), 7);
        let back = crate::codec::oracle::merge(&planes);
        assert_eq!(back, f);
    }

    #[test]
    fn clamped_sampling_extends_edges() {
        let mut p = Plane::new(3, 3);
        p.set(0, 0, 10);
        p.set(2, 2, 99);
        assert_eq!(p.sample_clamped(-5, -5), 10);
        assert_eq!(p.sample_clamped(7, 7), 99);
        assert_eq!(p.sample_clamped(1, 1), 0);
        // A padded copy holds the same edge-extended samples in bounds.
        let padded = p.padded(2);
        assert_eq!((padded.width(), padded.height()), (7, 7));
        for y in 0..7 {
            for x in 0..7 {
                assert_eq!(padded.at(x, y), p.sample_clamped(x as i64 - 2, y as i64 - 2));
            }
        }
    }

    #[test]
    fn luma_plane_matches_pixel_luma() {
        let f = Frame::filled(2, 2, Rgb::new(30, 60, 90)).unwrap();
        let l = Plane::luma_of(&f);
        assert_eq!(l.at(0, 0), Rgb::new(30, 60, 90).luma());
    }

    #[test]
    fn sad_zero_for_identical_blocks() {
        let f = Frame::filled(16, 16, Rgb::new(77, 77, 77)).unwrap();
        let p = Plane::luma_of(&f);
        assert_eq!(p.block_sad(&p, 0, 0, 8, 8, 0, 0, u64::MAX), 0);
    }

    #[test]
    fn sad_detects_shift() {
        // A plane with a vertical step edge: shifting by the step width
        // aligns it again.
        let mut a = Plane::new(16, 8);
        let mut b = Plane::new(16, 8);
        for y in 0..8 {
            for x in 0..16 {
                a.set(x, y, if x >= 4 { 200 } else { 10 });
                b.set(x, y, if x >= 6 { 200 } else { 10 });
            }
        }
        // Block in `a` matches `b` shifted by +2.
        let sad_aligned = a.block_sad(&b, 4, 0, 8, 8, 2, 0, u64::MAX);
        let sad_unaligned = a.block_sad(&b, 4, 0, 8, 8, 0, 0, u64::MAX);
        assert_eq!(sad_aligned, 0);
        assert!(sad_unaligned > 0);
    }

    #[test]
    fn sad_early_exit_returns_at_least_best() {
        let mut a = Plane::new(8, 8);
        let b = Plane::new(8, 8);
        for v in a.data_mut().iter_mut() {
            *v = 255;
        }
        let sad = a.block_sad(&b, 0, 0, 8, 8, 0, 0, 100);
        assert!(sad >= 100);
    }
}
