//! The published game every workload plays, generated from the seed.
//!
//! Footage is synthetic (seeded shots of fixed length, so every seed does
//! the same amount of work); the game is one of the repository's
//! templates sized to the footage, imported through the §4.1 pipeline,
//! edited, and published: the tour (a hub with a door to each room),
//! which seeded random learners branch through often, or the escape
//! chain, which guided bots solve. Set-up also decodes
//! the published video once with [`Decoder::decode_all`] and keeps a
//! digest of every frame: the reference every served frame is checked
//! against.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vgbl::author::import::{import_footage, ImportConfig};
use vgbl::author::object_editor::ObjectEditor;
use vgbl::author::scenario_editor::ScenarioEditor;
use vgbl::author::wizard::{escape_template, tour_template};
use vgbl::author::{CommandStack, Project};
use vgbl::media::cache::GopCache;
use vgbl::media::codec::{Decoder, EncodeConfig, EncodedVideo, Quality};
use vgbl::media::color::Rgb;
use vgbl::media::synth::{Footage, FootageSpec, SpriteShape};
use vgbl::media::{Frame, ShotDetectorConfig, VideoId};
use vgbl::prelude::{publish, PublishedGame, Rect};
use vgbl::runtime::SessionConfig;

use crate::{mix, WORKERS};

/// Which template the game is authored from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// A hub with a door to each room and a door back: one scenario per
    /// room plus the hub.
    Tour,
    /// A chain of locked rooms, each holding the next door's key: one
    /// scenario per room.
    Escape,
}

/// Shape of the footage and game a workload plays.
#[derive(Debug, Clone, Copy)]
pub struct GameSpec {
    /// The game's template.
    pub template: Template,
    /// Frame width in pixels.
    pub width: u32,
    /// Frame height in pixels.
    pub height: u32,
    /// Rooms of the template.
    pub rooms: usize,
    /// Frames per shot (every shot has the same length).
    pub shot_frames: usize,
    /// Keyframe interval.
    pub gop: usize,
    /// Encoder motion search range.
    pub search_range: u8,
}

impl GameSpec {
    /// The classroom lesson the learner and author workloads share: a
    /// 64×48 tour of eight rooms with 30-frame shots.
    pub const LESSON: GameSpec = GameSpec {
        template: Template::Tour,
        width: 64,
        height: 48,
        rooms: 8,
        shot_frames: 30,
        gop: 15,
        search_range: 7,
    };

    /// Shots of the footage: one per scenario of the template.
    pub fn shots(&self) -> usize {
        match self.template {
            Template::Tour => self.rooms + 1,
            Template::Escape => self.rooms,
        }
    }

    /// The import pipeline's settings: keyframes aligned on cuts, every
    /// parallel stage on [`WORKERS`] threads.
    pub fn import_config(&self) -> ImportConfig {
        ImportConfig {
            detector: ShotDetectorConfig {
                threads: WORKERS,
                ..ShotDetectorConfig::default()
            },
            encoder: EncodeConfig {
                quality: Quality::Medium,
                gop: self.gop,
                threads: WORKERS,
                search_range: self.search_range,
            },
            align_keyframes: true,
        }
    }
}

/// Least L1 distance between neighbouring shots' backdrops.
const MIN_BACKDROP_DISTANCE: i32 = 200;

fn backdrop_distance(a: Rgb, b: Rgb) -> i32 {
    (i32::from(a.r) - i32::from(b.r)).abs()
        + (i32::from(a.g) - i32::from(b.g)).abs()
        + (i32::from(a.b) - i32::from(b.b)).abs()
}

/// Per-pixel noise amplitude of every shot. Noise sets how well footage
/// compresses; fixing it keeps the encoded size, and so the codec's and
/// the fingerprint's work, within a few percent across seeds.
const NOISE: u8 = 2;

/// Moving sprites per shot; fixed so motion, and so the codec's work,
/// varies little across seeds.
const SPRITES: usize = 2;

/// Sprite speed in pixels per frame along each axis. Size and speed set
/// how many blocks change and how far motion search walks, so both are
/// fixed; position, colour and direction stay seeded.
const SPRITE_SPEED: (f32, f32) = (2.0, 1.5);

/// Seeded raw footage: one shot per scenario. Lighting drift and
/// look-alike neighbouring backdrops make the shot detector invent or
/// miss cuts, and the gate requires every true cut, so shots have no
/// drift and neighbouring backdrops differ clearly. Sprites have one
/// size and one speed, so every seed costs the codec the same.
pub fn footage(spec: &GameSpec, seed: u64) -> Footage {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xF007));
    let mut footage = FootageSpec::random(
        &mut rng,
        spec.width,
        spec.height,
        spec.shots(),
        spec.shot_frames,
        spec.shot_frames,
    );
    let mut previous: Option<Rgb> = None;
    for shot in &mut footage.shots {
        shot.luma_drift = 0;
        shot.noise = NOISE;
        let first = shot.sprites[0].clone();
        shot.sprites.resize(SPRITES, first);
        for sprite in &mut shot.sprites {
            sprite.shape = SpriteShape::Rect(spec.width / 8, spec.height / 6);
            sprite.vel = (
                SPRITE_SPEED.0.copysign(sprite.vel.0),
                SPRITE_SPEED.1.copysign(sprite.vel.1),
            );
        }
        if let Some(p) = previous {
            while backdrop_distance(shot.background, p) < MIN_BACKDROP_DISTANCE {
                shot.background = Rgb::from_seed(rng.gen());
            }
        }
        previous = Some(shot.background);
    }
    footage.render().expect("synthetic footage renders")
}

/// The template sized to the footage, before import.
pub fn template(spec: &GameSpec) -> Project {
    let mut project = match spec.template {
        Template::Tour => tour_template("lesson", spec.rooms),
        Template::Escape => escape_template("lesson", spec.rooms),
    };
    project.frame_size = (spec.width, spec.height);
    project
}

/// The author's edits on top of the template: every scenario gets a
/// description and a hint button that scores a point, and every tour
/// room doors to the next room and the one after, so two of a room's
/// three exits lead to another room rather than back to the hub (whose
/// GOPs stay cached): most branches then need a decode. The tour's exit
/// is removed, so a learner never ends the game early and every session
/// plays its whole walk: each seed does the same number of inputs.
pub fn edit(project: &mut Project, spec: &GameSpec) -> vgbl::author::Result<()> {
    let mut stack = CommandStack::new();
    let names: Vec<String> = project
        .graph
        .scenarios()
        .iter()
        .map(|s| s.name.clone())
        .collect();
    for name in names {
        ScenarioEditor::new(project, &mut stack).describe(&name, &format!("Scene {name}."))?;
        let mut ed = ObjectEditor::new(project, &mut stack, &name);
        ed.add_button("hint", "Hint", Rect::new(2, 38, 12, 8))?;
        let text = format!("text \"Look closely at {name}.\"");
        ed.wire("hint", "click", None, &[text.as_str(), "score 1"])?;
    }
    if spec.template == Template::Tour {
        for r in 1..=spec.rooms {
            let room = format!("room{r}");
            let mut ed = ObjectEditor::new(project, &mut stack, &room);
            ed.add_button("onward", "Onward", Rect::new(50, 38, 12, 8))?;
            let goto = format!("goto room{}", r % spec.rooms + 1);
            ed.wire("onward", "click", None, &[goto.as_str()])?;
            ed.add_button("skip", "Skip", Rect::new(34, 38, 12, 8))?;
            let goto = format!("goto room{}", (r + 1) % spec.rooms + 1);
            ed.wire("skip", "click", None, &[goto.as_str()])?;
        }
        ObjectEditor::new(project, &mut stack, "hub").remove("exit")?;
    }
    Ok(())
}

/// Authors and publishes the game over `footage` with the one-call
/// import API.
pub fn publish_game(spec: &GameSpec, footage: &Footage) -> PublishedGame {
    let mut project = template(spec);
    import_footage(
        &mut project,
        &footage.frames,
        footage.rate,
        &spec.import_config(),
        None,
    )
    .expect("footage imports");
    edit(&mut project, spec).expect("template edits apply");
    publish(project).expect("game publishes")
}

/// Digest of a frame's RGB bytes: four interleaved multiply-rotate lanes
/// over 64-bit words, folded with the byte length and the tail.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut lanes = [
        0x243f_6a88_85a3_08d3u64,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut chunks = bytes.chunks_exact(32);
    for chunk in &mut chunks {
        for (lane, word) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ w)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(29);
        }
    }
    let mut h = bytes.len() as u64;
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    lanes.iter().fold(h, |h, &lane| mix(h, lane))
}

/// A published game plus what sessions need to play and check it.
#[derive(Debug)]
pub struct Game {
    /// The published game (graph, segments, frame size).
    pub published: PublishedGame,
    /// The published video, shared by every player.
    pub video: Arc<EncodedVideo>,
    /// Content fingerprint of the video (the cache key).
    pub video_id: VideoId,
    /// Session configuration for the game's frame size.
    pub config: SessionConfig,
    /// Digest of every decoded frame of the published video.
    pub reference: Vec<u64>,
    /// GOPs in the video.
    pub n_gops: usize,
}

impl Game {
    /// Wraps a published game and builds its reference digests.
    pub fn new(published: PublishedGame) -> Game {
        let decoded = Decoder::default()
            .decode_all(&published.video)
            .expect("published video decodes");
        let reference = decoded.frames.iter().map(|f| digest(f.raw())).collect();
        Game::with_reference(published, reference)
    }

    /// Wraps a published game whose video is known to decode to
    /// `reference` (the caller has checked its [`VideoId`]).
    pub fn with_reference(published: PublishedGame, reference: Vec<u64>) -> Game {
        let video = Arc::new(published.video.clone());
        Game {
            video_id: VideoId::of(&video),
            config: published.session_config(),
            n_gops: video.keyframes().len(),
            reference,
            video,
            published,
        }
    }

    /// Generates footage from `seed`, authors, publishes and wraps it.
    pub fn build(spec: &GameSpec, seed: u64) -> Game {
        Game::new(publish_game(spec, &footage(spec, seed)))
    }

    /// Whether `frame` is the reference frame at absolute index `abs`.
    pub fn matches(&self, abs: usize, frame: &Frame) -> bool {
        self.reference.get(abs) == Some(&digest(frame.raw()))
    }

    /// A cache holding every GOP of the video, already filled. One shard:
    /// with several, keys hash unevenly and one shard can overflow and
    /// thrash although the total capacity would hold every GOP.
    pub fn full_cache(&self) -> Arc<GopCache> {
        let cache = Arc::new(GopCache::with_shards(self.n_gops, 1));
        for key in self.video.keyframes() {
            cache
                .get_or_decode(self.video_id, key, || {
                    Decoder::default().decode_gop_at(&self.video, key)
                })
                .expect("published GOPs decode");
        }
        cache
    }

    /// The frame every session serves first: the start of the start
    /// scenario's segment.
    pub fn start_frame(&self) -> usize {
        let graph = &self.published.graph;
        let start = graph.start().expect("published game has a start");
        let segment = graph
            .scenario(start)
            .expect("start scenario exists")
            .segment;
        self.published
            .segments
            .get(segment)
            .expect("start segment exists")
            .start
    }

    /// Damages the reference of the first frame every session serves, so
    /// the correctness gate must fail (used by the smoke test).
    pub fn corrupt_reference(&mut self) {
        let at = self.start_frame();
        self.reference[at] ^= 1;
    }
}
