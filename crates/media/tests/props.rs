//! Property tests for the media substrate's foundations: bit I/O,
//! Golomb codes, frame operations, timelines and segment tables.

use proptest::prelude::*;

use vgbl_media::codec::bitio::{BitReader, BitWriter};
use vgbl_media::color::Rgb;
use vgbl_media::frame::Frame;
use vgbl_media::histogram::ColorHistogram;
use vgbl_media::timeline::{FrameRate, MediaTime};
use vgbl_media::SegmentTable;

/// The bit-at-a-time writer that `BitWriter` replaced, kept as its byte
/// oracle: an unaligned write goes into the final byte one bit at a
/// time, and whole bytes only once the stream is aligned.
#[derive(Default)]
struct BitwiseWriter {
    bytes: Vec<u8>,
    /// Bits already used in the final byte (0–7).
    used: u8,
}

impl BitwiseWriter {
    fn put_bit(&mut self, bit: bool) {
        if self.used == 0 {
            self.bytes.push(0);
        }
        if bit {
            let last = self.bytes.len() - 1;
            self.bytes[last] |= 1 << (7 - self.used);
        }
        self.used = (self.used + 1) % 8;
    }

    fn put_bits(&mut self, value: u64, n: u8) {
        let mut n = n as usize;
        // Top up a partially filled final byte, after which the stream
        // is byte-aligned.
        while n > 0 && self.used != 0 {
            n -= 1;
            self.put_bit((value >> n) & 1 == 1);
        }
        while n >= 8 {
            n -= 8;
            self.bytes.push((value >> n) as u8);
        }
        if n > 0 {
            let tail = (value & ((1 << n) - 1)) as u8;
            self.bytes.push(tail << (8 - n));
            self.used = n as u8;
        }
    }

    fn put_ue(&mut self, v: u64) {
        let x = v + 1;
        let bits = 64 - x.leading_zeros() as u8;
        self.put_bits(0, bits - 1);
        self.put_bits(x, bits);
    }

    fn put_se(&mut self, v: i64) {
        self.put_ue(if v <= 0 { (-v as u64) * 2 } else { (v as u64) * 2 - 1 });
    }

    fn bit_len(&self) -> usize {
        match self.used {
            0 => self.bytes.len() * 8,
            used => (self.bytes.len() - 1) * 8 + used as usize,
        }
    }
}

/// One `BitWriter` call.
#[derive(Debug, Clone, Copy)]
enum BitOp {
    Bit(bool),
    Bits(u64, u8),
    Ue(u64),
    Se(i64),
}

/// Writer calls over every width `put_bits` takes and every `ue` / `se`
/// value below 2^63 once mapped, small values (the common codes) as
/// often as large ones.
fn bit_op() -> impl Strategy<Value = BitOp> {
    prop_oneof![
        any::<bool>().prop_map(BitOp::Bit),
        (any::<u64>(), 0u8..=64).prop_map(|(v, n)| BitOp::Bits(v, n)),
        prop_oneof![0u64..64, 0u64..1 << 63].prop_map(BitOp::Ue),
        prop_oneof![-64i64..64, 1 - (1i64 << 62)..=1i64 << 62].prop_map(BitOp::Se),
    ]
}

proptest! {
    #[test]
    fn bit_writer_matches_bitwise_oracle(ops in proptest::collection::vec(bit_op(), 0..48)) {
        let mut w = BitWriter::new();
        let mut oracle = BitwiseWriter::default();
        for op in ops {
            match op {
                BitOp::Bit(b) => {
                    w.put_bit(b);
                    oracle.put_bit(b);
                }
                BitOp::Bits(v, n) => {
                    w.put_bits(v, n);
                    oracle.put_bits(v, n);
                }
                BitOp::Ue(v) => {
                    w.put_ue(v);
                    oracle.put_ue(v);
                }
                BitOp::Se(v) => {
                    w.put_se(v);
                    oracle.put_se(v);
                }
            }
            prop_assert_eq!(w.bit_len(), oracle.bit_len(), "after {:?}", op);
        }
        prop_assert_eq!(w.finish(), oracle.bytes);
    }

    #[test]
    fn ue_se_roundtrip(values in proptest::collection::vec((any::<u32>(), any::<i32>()), 0..64)) {
        let mut w = BitWriter::new();
        for (u, s) in &values {
            w.put_ue(*u as u64);
            w.put_se(*s as i64);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for (u, s) in &values {
            prop_assert_eq!(r.get_ue().unwrap(), *u as u64);
            prop_assert_eq!(r.get_se().unwrap(), *s as i64);
        }
    }

    #[test]
    fn raw_bits_roundtrip(chunks in proptest::collection::vec((any::<u64>(), 1u8..=64), 0..32)) {
        let mut w = BitWriter::new();
        for (v, n) in &chunks {
            let masked = if *n == 64 { *v } else { v & ((1u64 << n) - 1) };
            w.put_bits(masked, *n);
        }
        let expected_bits: usize = chunks.iter().map(|(_, n)| *n as usize).sum();
        prop_assert_eq!(w.bit_len(), expected_bits);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for (v, n) in &chunks {
            let masked = if *n == 64 { *v } else { v & ((1u64 << n) - 1) };
            prop_assert_eq!(r.get_bits(*n).unwrap(), masked);
        }
    }

    #[test]
    fn bit_reader_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut r = BitReader::new(&bytes);
        // Drain it with mixed reads until exhaustion; must only error.
        loop {
            if r.get_ue().is_err() {
                break;
            }
            if r.get_se().is_err() {
                break;
            }
        }
    }

    #[test]
    fn frame_fill_rect_stays_inside(
        x in -50i64..100, y in -50i64..100, w in 0u32..80, h in 0u32..80,
    ) {
        let mut f = Frame::new(40, 30).unwrap();
        f.fill_rect(x, y, w, h, Rgb::RED);
        // Pixels outside the rect are untouched; inside (clipped) are red.
        for py in 0..30u32 {
            for px in 0..40u32 {
                let inside = (px as i64) >= x
                    && (px as i64) < x + w as i64
                    && (py as i64) >= y
                    && (py as i64) < y + h as i64;
                let expected = if inside { Rgb::RED } else { Rgb::BLACK };
                prop_assert_eq!(f.get(px, py).unwrap(), expected, "at ({}, {})", px, py);
            }
        }
    }

    #[test]
    fn blit_matches_per_pixel_model(
        dx in -20i64..40, dy in -20i64..40, sw in 1u32..16, sh in 1u32..16,
    ) {
        let src = Frame::filled(sw, sh, Rgb::GREEN).unwrap();
        let mut dst = Frame::new(32, 24).unwrap();
        dst.blit(&src, dx, dy);
        for py in 0..24u32 {
            for px in 0..32u32 {
                let from_src = (px as i64) >= dx
                    && (px as i64) < dx + sw as i64
                    && (py as i64) >= dy
                    && (py as i64) < dy + sh as i64;
                let expected = if from_src { Rgb::GREEN } else { Rgb::BLACK };
                prop_assert_eq!(dst.get(px, py).unwrap(), expected);
            }
        }
    }

    #[test]
    fn downsample_preserves_mean_roughly(seed in any::<u64>()) {
        // A random-ish two-tone frame: the 2x2 box filter must keep the
        // global mean within quantisation error.
        let mut f = Frame::new(16, 16).unwrap();
        let mut s = seed;
        for y in 0..16 {
            for x in 0..16 {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let v = (s >> 32) as u8;
                f.set(x, y, Rgb::new(v, v, v));
            }
        }
        let d = f.downsample_2x();
        let diff = (f.mean_luma() - d.mean_luma()).abs();
        prop_assert!(diff < 2.0, "means drifted: {} vs {}", f.mean_luma(), d.mean_luma());
    }

    #[test]
    fn histogram_mass_is_one(seed in any::<u64>(), w in 1u32..32, h in 1u32..32) {
        let f = Frame::filled(w, h, Rgb::from_seed(seed)).unwrap();
        let hist = ColorHistogram::of(&f);
        let total: f32 = hist.bins().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-4);
        prop_assert!(hist.bins().iter().all(|b| (0.0..=1.0).contains(b)));
    }

    #[test]
    fn histogram_distances_bounded(a in any::<u64>(), b in any::<u64>()) {
        let fa = Frame::filled(8, 8, Rgb::from_seed(a)).unwrap();
        let fb = Frame::filled(8, 8, Rgb::from_seed(b)).unwrap();
        let ha = ColorHistogram::of(&fa);
        let hb = ColorHistogram::of(&fb);
        let d1 = ha.intersection_distance(&hb);
        let d2 = ha.chi_square_distance(&hb);
        prop_assert!((0.0..=1.0 + 1e-6).contains(&d1));
        prop_assert!((0.0..=1.0 + 1e-6).contains(&d2));
        // Symmetry.
        prop_assert!((d1 - hb.intersection_distance(&ha)).abs() < 1e-6);
        prop_assert!((d2 - hb.chi_square_distance(&ha)).abs() < 1e-6);
    }

    #[test]
    fn frame_time_roundtrip_any_rate(num in 1u32..240, den in 1u32..1001, idx in 0u64..100_000) {
        let rate = FrameRate::new(num, den).unwrap();
        let t = rate.frame_to_time(idx);
        prop_assert_eq!(rate.time_to_frame(t), idx);
    }

    #[test]
    fn media_time_saturating_ops(a in any::<u64>(), b in any::<u64>()) {
        let ta = MediaTime::from_micros(a);
        let tb = MediaTime::from_micros(b);
        prop_assert_eq!(ta.saturating_add(tb).as_micros(), a.saturating_add(b));
        prop_assert_eq!(ta.saturating_sub(tb).as_micros(), a.saturating_sub(b));
    }

    #[test]
    fn segment_split_then_merge_is_identity(
        frame_count in 2usize..300,
        cut in 1usize..299,
    ) {
        prop_assume!(cut < frame_count);
        let mut table = SegmentTable::whole(frame_count).unwrap();
        table.split_at(cut).unwrap();
        prop_assert_eq!(table.len(), 2);
        table.merge_after(cut - 1).unwrap();
        prop_assert_eq!(&table, &SegmentTable::whole(frame_count).unwrap());
    }

    #[test]
    fn segment_at_always_agrees_with_contains(
        frame_count in 1usize..200,
        cuts in proptest::collection::btree_set(1usize..199, 0..8),
        probe in 0usize..220,
    ) {
        let cuts: Vec<usize> = cuts.into_iter().filter(|&c| c < frame_count).collect();
        let table = SegmentTable::from_cuts(frame_count, &cuts).unwrap();
        match table.segment_at(probe) {
            Some(seg) => prop_assert!(seg.contains(probe)),
            None => prop_assert!(probe >= frame_count),
        }
    }
}

// Decode-heavy properties get fewer cases: each case encodes a small
// video before probing it.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Cached seeks are byte-identical to direct frame decoding for every
    // GOP size, seek order and cache capacity — including capacity 0
    // (disabled) and 1 (maximal thrash), where the cache degenerates to
    // pure re-decoding but must stay correct.
    #[test]
    fn cached_seek_is_always_bit_exact(
        seed in any::<u64>(),
        gop in 1usize..8,
        frames in 2usize..20,
        capacity in 0usize..5,
        order in proptest::collection::vec(0usize..1000, 1..12),
    ) {
        use vgbl_media::cache::{GopCache, VideoId};
        use vgbl_media::codec::{Decoder, EncodeConfig, Encoder};
        use vgbl_media::seek::seek_cached;
        use vgbl_obs::Obs;
        use vgbl_media::synth::{FootageSpec, ShotSpec};

        let footage = FootageSpec {
            width: 16,
            height: 12,
            rate: FrameRate::FPS30,
            shots: vec![ShotSpec::plain(frames, Rgb::new(120, 90, 60))],
            noise_seed: seed,
        }
        .render()
        .unwrap();
        let video = Encoder::new(EncodeConfig { gop, ..Default::default() })
            .encode(&footage.frames, footage.rate)
            .unwrap();
        let dec = Decoder::default();
        let id = VideoId::of(&video);
        let cache = GopCache::new(capacity);
        for &o in &order {
            let target = o % frames;
            let (cached, stats) =
                seek_cached(&dec, &video, id, &cache, target, &Obs::noop()).unwrap();
            let (direct, walked) = dec.decode_frame(&video, target).unwrap();
            prop_assert_eq!(&cached, &direct, "target {}", target);
            prop_assert_eq!(stats.keyframe, video.keyframe_before(target).unwrap());
            // A miss decodes the whole GOP; a hit decodes nothing.
            prop_assert!(
                stats.frames_decoded == 0 || stats.frames_decoded >= walked,
                "gop decode ({}) at least the direct walk ({})",
                stats.frames_decoded,
                walked
            );
        }
    }

    // `average_seek_cost`'s closed-form accounting agrees with the
    // per-seek `SeekStats::frames_decoded` that `seek` actually reports.
    #[test]
    fn average_seek_cost_matches_reported_stats(
        seed in any::<u64>(),
        gop in 1usize..10,
        frames in 2usize..24,
        raw_targets in proptest::collection::vec(0usize..1000, 1..16),
    ) {
        use vgbl_media::codec::{Decoder, EncodeConfig, Encoder};
        use vgbl_media::seek::{average_seek_cost, seek};
        use vgbl_media::synth::{FootageSpec, ShotSpec};

        let targets: Vec<usize> = raw_targets.iter().map(|t| t % frames).collect();
        let footage = FootageSpec {
            width: 16,
            height: 12,
            rate: FrameRate::FPS30,
            shots: vec![ShotSpec::plain(frames, Rgb::new(60, 90, 120))],
            noise_seed: seed,
        }
        .render()
        .unwrap();
        let video = Encoder::new(EncodeConfig { gop, ..Default::default() })
            .encode(&footage.frames, footage.rate)
            .unwrap();
        let dec = Decoder::default();
        let total: usize = targets
            .iter()
            .map(|&t| seek(&dec, &video, t).unwrap().1.frames_decoded)
            .sum();
        let avg = average_seek_cost(&video, &targets).unwrap();
        let measured = total as f64 / targets.len() as f64;
        prop_assert!(
            (avg - measured).abs() < 1e-9,
            "analytic {} vs measured {}",
            avg,
            measured
        );
    }
}
