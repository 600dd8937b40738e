//! Pins of what a learner is shown: one FNV-1a digest over every frame
//! `compose_frame` returns along seeded walks, per game.
//!
//! The games are `fix_the_computer` (a `visible_when` item), the tour
//! and escape templates at sessionbench's shapes (64×48, eight rooms,
//! with the author edits its workloads publish: a hint button in every
//! scenario, two onward doors per tour room, the tour's exit removed)
//! and the unedited tour, whose exit is gated on every room being seen.
//! Each step composes onto a base frame that differs per step, so a run
//! copied to the wrong place, a layer drawn or skipped wrongly, or a
//! stale overlay moves a digest. The walks also fold in each step's
//! input, so a walk that diverges moves the digest as well.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use vgbl::author::wizard::{tour_template, TEMPLATE_FRAME};
use vgbl::media::Frame;
use vgbl::obs::hash::{fnv1a, fnv1a_extend};
use vgbl::runtime::bot::{Bot, GuidedBot, RandomBot};
use vgbl::runtime::fixtures::{fix_the_computer, FRAME};
use vgbl::runtime::render::compose_frame;
use vgbl::runtime::{GameSession, InputEvent, RuntimeError, SessionConfig};
use vgbl::scene::SceneGraph;
use vgbl_bench::lesson_graph;

/// Inputs per walk.
const STEPS: usize = 60;
/// Game time injected after every input, as sessionbench's learners do.
const TICK_MS: u64 = 100;

/// A base frame whose every byte depends on the step.
fn base(w: u32, h: u32, step: usize) -> Frame {
    let bytes = (0..w as usize * h as usize * 3)
        .map(|i| (i.wrapping_mul(31) ^ step.wrapping_mul(97)) as u8)
        .collect();
    Frame::from_raw(w, h, bytes).expect("size is valid")
}

/// Digest of every composed frame and every input of one walk, and the
/// number of frames composed.
fn walk(graph: &Arc<SceneGraph>, frame: (u32, u32), bot: &mut dyn Bot) -> (u64, usize) {
    let config = SessionConfig::for_frame(frame.0, frame.1);
    let (mut session, _) = GameSession::new(graph.clone(), config).unwrap();
    let mut h = fnv1a(b"walk");
    let mut frames = 0;
    for step in 0..=STEPS {
        let composed = compose_frame(&session, &base(frame.0, frame.1, step)).unwrap();
        h = fnv1a_extend(h, composed.raw());
        frames += 1;
        if step == STEPS || session.state().is_over() {
            break;
        }
        let Some(input) = bot.next_input(&session).unwrap() else {
            break;
        };
        h = fnv1a_extend(h, format!("{input:?}").as_bytes());
        match session.handle(input) {
            Ok(_) | Err(RuntimeError::GameOver { .. }) => {}
            Err(e) => panic!("walk failed: {e}"),
        }
        if !session.state().is_over() {
            session.handle(InputEvent::Tick(TICK_MS)).unwrap();
        }
    }
    (h, frames)
}

/// Four random walks (seeds 0–3) and one guided walk, folded together.
fn walks(graph: SceneGraph, frame: (u32, u32)) -> (u64, usize) {
    let graph = Arc::new(graph);
    let mut h = fnv1a(b"walks");
    let mut frames = 0;
    for seed in 0..4 {
        let (d, n) = walk(&graph, frame, &mut RandomBot::new(StdRng::seed_from_u64(seed)));
        h = fnv1a_extend(h, &d.to_le_bytes());
        frames += n;
    }
    let (d, n) = walk(&graph, frame, &mut GuidedBot::new());
    (fnv1a_extend(h, &d.to_le_bytes()), frames + n)
}

/// The pinned `(digest, frames)` of each game, recorded before compose
/// drew from pre-rendered layers.
const PINS: [(&str, u64, usize); 4] = [
    ("fix_the_computer", 11781999919991870266, 197),
    ("tour_edited", 8590931208211496521, 305),
    ("escape_edited", 3682039978676559469, 261),
    ("tour_unedited", 7508346825440095715, 305),
];

#[test]
fn composed_frames_of_seeded_walks_are_pinned() {
    let games = [
        ("fix_the_computer", fix_the_computer(), FRAME),
        ("tour_edited", lesson_graph(true, 8), TEMPLATE_FRAME),
        ("escape_edited", lesson_graph(false, 8), TEMPLATE_FRAME),
        ("tour_unedited", tour_template("lesson", 8).graph, TEMPLATE_FRAME),
    ];
    let got: Vec<(&str, u64, usize)> = games
        .into_iter()
        .map(|(name, graph, frame)| {
            let (digest, frames) = walks(graph, frame);
            (name, digest, frames)
        })
        .collect();
    assert_eq!(got, PINS);
}
