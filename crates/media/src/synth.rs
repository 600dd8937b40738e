//! Deterministic procedural footage.
//!
//! The paper's course designers "produce scenarios by shooting videos" and
//! the authoring tool then cuts them into segments. Camera footage is not
//! available in this reproduction, so this module generates *synthetic
//! footage with ground-truth shot boundaries*: a sequence of shots, each
//! with its own backdrop colour, moving sprites, slow luminance drift and
//! sensor-style noise, joined by hard cuts. The ground truth makes shot
//! detection *measurably* correct (EXP-1), something real footage cannot
//! provide without hand labelling.
//!
//! Rendering is fully deterministic given the [`FootageSpec`]: the spec
//! carries its own noise seed and all randomness in `FootageSpec::random`
//! flows through a caller-supplied RNG.

use crate::color::Rgb;
use crate::frame::Frame;
use crate::timeline::FrameRate;
use rand::Rng;
use vgbl_obs::hash::splitmix64;

/// A moving solid-colour sprite inside one shot.
#[derive(Debug, Clone, PartialEq)]
pub struct SpriteSpec {
    /// Sprite shape.
    pub shape: SpriteShape,
    /// Fill colour.
    pub color: Rgb,
    /// Initial centre position in pixels.
    pub pos: (f32, f32),
    /// Velocity in pixels per frame; sprites bounce off frame edges.
    pub vel: (f32, f32),
}

/// Shape of a synthetic sprite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpriteShape {
    /// Axis-aligned rectangle of the given width × height.
    Rect(u32, u32),
    /// Filled circle of the given radius.
    Circle(u32),
}

/// One shot: a run of frames sharing a backdrop and sprite cast.
#[derive(Debug, Clone, PartialEq)]
pub struct ShotSpec {
    /// Number of frames in the shot (must be ≥ 1 to contribute).
    pub frames: usize,
    /// Backdrop colour.
    pub background: Rgb,
    /// Sprites moving across the shot.
    pub sprites: Vec<SpriteSpec>,
    /// Total luminance drift (added gradually over the shot), simulating
    /// lighting changes — the classic false-positive source for naive
    /// fixed-threshold detectors.
    pub luma_drift: i16,
    /// Peak amplitude of per-pixel noise (0 disables).
    pub noise: u8,
}

impl ShotSpec {
    /// A minimal static shot, useful in tests.
    pub fn plain(frames: usize, background: Rgb) -> ShotSpec {
        ShotSpec { frames, background, sprites: Vec::new(), luma_drift: 0, noise: 0 }
    }
}

/// A complete synthetic-footage description.
#[derive(Debug, Clone, PartialEq)]
pub struct FootageSpec {
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Frame rate of the rendered footage.
    pub rate: FrameRate,
    /// Shots in presentation order.
    pub shots: Vec<ShotSpec>,
    /// Seed for the deterministic noise generator.
    pub noise_seed: u64,
}

/// Rendered footage plus its ground truth.
#[derive(Debug, Clone)]
pub struct Footage {
    /// The rendered frames.
    pub frames: Vec<Frame>,
    /// Frame rate.
    pub rate: FrameRate,
    /// Ground-truth cut positions: index of the *first frame* of every shot
    /// after the first. Sorted ascending.
    pub cuts: Vec<usize>,
}

impl Footage {
    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True when the footage has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

impl FootageSpec {
    /// Renders the footage deterministically.
    ///
    /// Each shot starts from its backdrop, applies the gradual luma drift,
    /// draws its sprites at their integrated positions (bouncing off the
    /// edges), then sprinkles noise.
    pub fn render(&self) -> crate::Result<Footage> {
        let mut frames = Vec::new();
        let mut cuts = Vec::new();
        let mut noise_state = self.noise_seed;

        for (shot_idx, shot) in self.shots.iter().enumerate() {
            if shot.frames == 0 {
                continue;
            }
            if !frames.is_empty() {
                cuts.push(frames.len());
            }
            let mut sprites: Vec<(f32, f32, f32, f32)> = shot
                .sprites
                .iter()
                .map(|s| (s.pos.0, s.pos.1, s.vel.0, s.vel.1))
                .collect();

            for fi in 0..shot.frames {
                let t = if shot.frames > 1 {
                    fi as f32 / (shot.frames - 1) as f32
                } else {
                    0.0
                };
                let drift = (shot.luma_drift as f32 * t).round() as i16;
                let bg = shot.background.shifted(drift);
                let mut frame = Frame::filled(self.width, self.height, bg)?;

                for (spec, state) in shot.sprites.iter().zip(sprites.iter_mut()) {
                    let color = spec.color.shifted(drift);
                    match spec.shape {
                        SpriteShape::Rect(w, h) => frame.fill_rect(
                            (state.0 - w as f32 / 2.0) as i64,
                            (state.1 - h as f32 / 2.0) as i64,
                            w,
                            h,
                            color,
                        ),
                        SpriteShape::Circle(r) => {
                            frame.fill_circle(state.0 as i64, state.1 as i64, r, color)
                        }
                    }
                    // Integrate and bounce.
                    state.0 += state.2;
                    state.1 += state.3;
                    if state.0 < 0.0 || state.0 >= self.width as f32 {
                        state.2 = -state.2;
                        state.0 = state.0.clamp(0.0, self.width as f32 - 1.0);
                    }
                    if state.1 < 0.0 || state.1 >= self.height as f32 {
                        state.3 = -state.3;
                        state.1 = state.1.clamp(0.0, self.height as f32 - 1.0);
                    }
                }

                if shot.noise > 0 {
                    let amp = shot.noise as i16;
                    let data = frame.raw_mut();
                    // One 64-bit draw covers eight byte-sized samples.
                    let mut i = 0;
                    while i < data.len() {
                        let bits = splitmix64(&mut noise_state);
                        for k in 0..8 {
                            if i + k >= data.len() {
                                break;
                            }
                            let b = ((bits >> (k * 8)) & 0xFF) as i16;
                            let delta = (b % (2 * amp + 1)) - amp;
                            data[i + k] = (data[i + k] as i16 + delta).clamp(0, 255) as u8;
                        }
                        i += 8;
                    }
                }
                frames.push(frame);
            }
            let _ = shot_idx;
        }

        Ok(Footage { frames, rate: self.rate, cuts })
    }

    /// Draws a randomised multi-shot spec: `n_shots` shots of
    /// `min_len..=max_len` frames each, distinct backdrops, 1–3 sprites per
    /// shot, mild drift and noise. Deterministic for a given RNG state.
    /// Any frame size works: on frames too small for a sprite-size range,
    /// the sprite takes the smallest size, 2.
    pub fn random<R: Rng>(
        rng: &mut R,
        width: u32,
        height: u32,
        n_shots: usize,
        min_len: usize,
        max_len: usize,
    ) -> FootageSpec {
        assert!(min_len >= 1 && max_len >= min_len, "invalid shot-length range");
        let mut shots = Vec::with_capacity(n_shots);
        for s in 0..n_shots {
            let frames = rng.gen_range(min_len..=max_len);
            // Offset shot seeds so neighbouring backdrops differ strongly.
            let background = Rgb::from_seed(rng.gen::<u64>() ^ (s as u64) << 32);
            let n_sprites = rng.gen_range(1..=3);
            let sprites = (0..n_sprites)
                .map(|_| {
                    let shape = if rng.gen_bool(0.5) {
                        SpriteShape::Rect(
                            draw_or_start(rng, width / 16..width / 4).max(2),
                            draw_or_start(rng, height / 16..height / 4).max(2),
                        )
                    } else {
                        SpriteShape::Circle(draw_or_start(rng, 2..height / 6).max(2))
                    };
                    SpriteSpec {
                        shape,
                        color: Rgb::from_seed(rng.gen()),
                        pos: (
                            rng.gen_range(0.0..width as f32),
                            rng.gen_range(0.0..height as f32),
                        ),
                        vel: (rng.gen_range(-4.0..4.0), rng.gen_range(-4.0..4.0)),
                    }
                })
                .collect();
            shots.push(ShotSpec {
                frames,
                background,
                sprites,
                luma_drift: rng.gen_range(-12..=12),
                noise: rng.gen_range(0..4),
            });
        }
        FootageSpec {
            width,
            height,
            rate: FrameRate::FPS30,
            shots,
            noise_seed: rng.gen(),
        }
    }
}

/// A draw from `range`, or its start when it is empty, as sprite-size
/// ranges are on frames under 4 pixels wide or 18 high: a non-empty
/// range draws as [`Rng::gen_range`] does, and an empty one draws nothing.
fn draw_or_start<R: Rng>(rng: &mut R, range: std::ops::Range<u32>) -> u32 {
    if range.is_empty() {
        range.start
    } else {
        rng.gen_range(range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_shot_spec() -> FootageSpec {
        FootageSpec {
            width: 32,
            height: 24,
            rate: FrameRate::FPS30,
            shots: vec![
                ShotSpec::plain(5, Rgb::new(200, 40, 40)),
                ShotSpec::plain(7, Rgb::new(40, 40, 200)),
            ],
            noise_seed: 7,
        }
    }

    #[test]
    fn render_counts_and_cuts() {
        let footage = two_shot_spec().render().unwrap();
        assert_eq!(footage.len(), 12);
        assert_eq!(footage.cuts, vec![5]);
        assert_eq!(footage.frames[0].get(0, 0), Some(Rgb::new(200, 40, 40)));
        assert_eq!(footage.frames[5].get(0, 0), Some(Rgb::new(40, 40, 200)));
    }

    #[test]
    fn render_is_deterministic() {
        let spec = FootageSpec {
            shots: vec![ShotSpec {
                frames: 6,
                background: Rgb::GREY,
                sprites: vec![SpriteSpec {
                    shape: SpriteShape::Circle(4),
                    color: Rgb::RED,
                    pos: (10.0, 10.0),
                    vel: (3.0, 2.0),
                }],
                luma_drift: 10,
                noise: 3,
            }],
            ..two_shot_spec()
        };
        let a = spec.render().unwrap();
        let b = spec.render().unwrap();
        assert_eq!(a.frames, b.frames);
    }

    #[test]
    fn zero_length_shots_are_skipped() {
        let spec = FootageSpec {
            shots: vec![
                ShotSpec::plain(0, Rgb::RED),
                ShotSpec::plain(3, Rgb::GREEN),
                ShotSpec::plain(0, Rgb::BLUE),
                ShotSpec::plain(2, Rgb::WHITE),
            ],
            ..two_shot_spec()
        };
        let footage = spec.render().unwrap();
        assert_eq!(footage.len(), 5);
        assert_eq!(footage.cuts, vec![3]);
    }

    #[test]
    fn sprites_move_between_frames() {
        let spec = FootageSpec {
            shots: vec![ShotSpec {
                frames: 4,
                background: Rgb::BLACK,
                sprites: vec![SpriteSpec {
                    shape: SpriteShape::Rect(4, 4),
                    color: Rgb::WHITE,
                    pos: (6.0, 6.0),
                    vel: (5.0, 0.0),
                }],
                luma_drift: 0,
                noise: 0,
            }],
            ..two_shot_spec()
        };
        let footage = spec.render().unwrap();
        assert_ne!(footage.frames[0], footage.frames[1]);
        // Sprite starts around x=6 and moves right.
        assert_eq!(footage.frames[0].get(6, 6), Some(Rgb::WHITE));
        assert_eq!(footage.frames[2].get(16, 6), Some(Rgb::WHITE));
    }

    #[test]
    fn luma_drift_brightens_over_shot() {
        let spec = FootageSpec {
            shots: vec![ShotSpec {
                frames: 10,
                background: Rgb::GREY,
                sprites: vec![],
                luma_drift: 40,
                noise: 0,
            }],
            ..two_shot_spec()
        };
        let footage = spec.render().unwrap();
        assert!(footage.frames[9].mean_luma() > footage.frames[0].mean_luma() + 30.0);
    }

    #[test]
    fn random_spec_is_reproducible_and_renders() {
        let mut r1 = StdRng::seed_from_u64(99);
        let mut r2 = StdRng::seed_from_u64(99);
        let s1 = FootageSpec::random(&mut r1, 64, 48, 4, 8, 16);
        let s2 = FootageSpec::random(&mut r2, 64, 48, 4, 8, 16);
        assert_eq!(s1, s2);
        let footage = s1.render().unwrap();
        assert_eq!(footage.cuts.len(), 3);
        assert!(footage.len() >= 4 * 8 && footage.len() <= 4 * 16);
    }

    #[test]
    fn random_spec_renders_on_frames_too_small_for_its_sprite_ranges() {
        // Below 4 pixels the rect sprite's size ranges are empty, and
        // below 18 rows the circle sprite's.
        for (width, height) in [(1, 1), (3, 3), (3, 40), (40, 3), (17, 17), (64, 17)] {
            for seed in 0..8 {
                let mut rng = StdRng::seed_from_u64(seed);
                let spec = FootageSpec::random(&mut rng, width, height, 3, 2, 4);
                let footage = spec.render().unwrap();
                assert!(footage.frames.iter().all(|f| (f.width(), f.height()) == (width, height)));
            }
        }
    }

    #[test]
    fn noise_stays_in_range_and_perturbs() {
        let spec = FootageSpec {
            shots: vec![ShotSpec {
                frames: 2,
                background: Rgb::GREY,
                sprites: vec![],
                luma_drift: 0,
                noise: 3,
            }],
            ..two_shot_spec()
        };
        let footage = spec.render().unwrap();
        let f = &footage.frames[0];
        let mut saw_diff = false;
        for px in f.raw() {
            assert!((*px as i16 - 128).abs() <= 3);
            if *px != 128 {
                saw_diff = true;
            }
        }
        assert!(saw_diff, "noise had no effect");
    }
}
