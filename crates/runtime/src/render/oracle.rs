//! The object-by-object compositor that pre-rendered layers replaced,
//! kept as their frame oracle, with zero-area buttons and markers
//! drawing nothing.
//!
//! It sorts the scenario's objects by z on every frame, evaluates each
//! one's visibility and paints each visible one with the frame's blit
//! and fill primitives. [`compose_frame`] must return the same frame, or
//! the same error, on every scene.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vgbl_media::color::Rgb;
use vgbl_media::{Frame, SegmentId};
use vgbl_scene::{DialogueTree, ImageAsset, Npc, ObjectKind, Rect, SceneGraph};

use super::compose_frame;
use crate::engine::{GameSession, SessionConfig};
use crate::inventory::Inventory;
use crate::state::{GameEnv, GameState};
use crate::Result;

/// The compositor as it was, object by object.
fn compose(session: &GameSession, base: &Frame) -> Result<Frame> {
    let mut out = base.clone();
    let scenario = session.current_scenario();
    let graph = session.graph();
    let env = GameEnv {
        state: session.state(),
        inventory: session.inventory(),
    };
    for object in scenario.draw_order() {
        if !object.is_visible(&env)? {
            continue;
        }
        let b = object.bounds;
        match &object.kind {
            ObjectKind::Image { asset } | ObjectKind::Item { asset, .. } => {
                if let Some(a) = graph.assets().get(asset) {
                    match a.color_key {
                        Some(key) => out.blit_keyed(&a.image, b.x as i64, b.y as i64, key),
                        None => out.blit(&a.image, b.x as i64, b.y as i64),
                    }
                }
            }
            ObjectKind::Button { .. } if !b.is_empty() => {
                out.fill_rect(b.x as i64, b.y as i64, b.w, b.h, Rgb::new(60, 60, 90));
                // 1px border.
                out.fill_rect(b.x as i64, b.y as i64, b.w, 1, Rgb::WHITE);
                out.fill_rect(b.x as i64, b.bottom() - 1, b.w, 1, Rgb::WHITE);
                out.fill_rect(b.x as i64, b.y as i64, 1, b.h, Rgb::WHITE);
                out.fill_rect(b.right() - 1, b.y as i64, 1, b.h, Rgb::WHITE);
            }
            ObjectKind::NpcAnchor { npc } => {
                if let Some(a) = graph.assets().get(npc) {
                    match a.color_key {
                        Some(key) => out.blit_keyed(&a.image, b.x as i64, b.y as i64, key),
                        None => out.blit(&a.image, b.x as i64, b.y as i64),
                    }
                } else if !b.is_empty() {
                    out.fill_rect(b.x as i64, b.y as i64, b.w, 1, Rgb::new(230, 200, 80));
                    out.fill_rect(b.x as i64, b.bottom() - 1, b.w, 1, Rgb::new(230, 200, 80));
                    out.fill_rect(b.x as i64, b.y as i64, 1, b.h, Rgb::new(230, 200, 80));
                    out.fill_rect(b.right() - 1, b.y as i64, 1, b.h, Rgb::new(230, 200, 80));
                }
            }
            ObjectKind::Button { .. } => {}
        }
    }
    // Avatar cross.
    let (ax, ay) = session.state().avatar;
    out.fill_rect(ax as i64 - 2, ay as i64, 5, 1, Rgb::new(255, 80, 80));
    out.fill_rect(ax as i64, ay as i64 - 2, 1, 5, Rgb::new(255, 80, 80));
    Ok(out)
}

/// Colours the scenes draw from: the colours buttons and markers paint,
/// so a key can equal one, and a few others.
const PALETTE: [Rgb; 6] = [
    Rgb::WHITE,
    Rgb::new(60, 60, 90),
    Rgb::new(230, 200, 80),
    Rgb::BLACK,
    Rgb::new(12, 200, 40),
    Rgb::new(255, 80, 80),
];

/// Visibility conditions: true or false depending on the state, and one
/// that fails to evaluate (an integer is not a condition).
const CONDITIONS: [&str; 7] = [
    "flag(\"a\")",
    "!flag(\"a\")",
    "has(\"key\")",
    "!has(\"key\")",
    "score > 2",
    "score < 2",
    "score",
];

/// Asset names; `ghost` is never registered, and neither is an asset for
/// the NPC `hermit`.
const ASSETS: [&str; 4] = ["keyed", "opaque", "guide", "ghost"];

/// A random frame of `w × h` pixels from the palette and noise.
fn image(rng: &mut StdRng, w: u32, h: u32) -> Frame {
    let mut f = Frame::new(w, h).expect("size is valid");
    for y in 0..h {
        for x in 0..w {
            let c = if rng.gen_bool(0.5) {
                PALETTE[rng.gen_range(0..PALETTE.len())]
            } else {
                Rgb::new(rng.gen(), rng.gen(), rng.gen())
            };
            f.set(x, y, c);
        }
    }
    f
}

/// A random object of any kind: z ties, zero-area and oversized bounds,
/// bounds crossing every frame edge, and missing assets all occur.
fn object(rng: &mut StdRng, n: usize) -> (String, ObjectKind, Rect, i32, Option<&'static str>) {
    let asset = ASSETS[rng.gen_range(0..ASSETS.len())].to_owned();
    let kind = match rng.gen_range(0..5) {
        0 => ObjectKind::Image { asset },
        1 => ObjectKind::Item { asset, description: String::new(), takeable: true },
        2 | 3 => ObjectKind::Button { label: format!("b{n}") },
        _ => ObjectKind::NpcAnchor {
            npc: if rng.gen_bool(0.5) { "guide" } else { "hermit" }.to_owned(),
        },
    };
    let (w, h) = if rng.gen_bool(0.1) {
        (rng.gen_range(0..70), rng.gen_range(0..70))
    } else {
        (rng.gen_range(0..14), rng.gen_range(0..14))
    };
    let bounds = Rect::new(rng.gen_range(-16..44), rng.gen_range(-16..34), w, h);
    let condition = rng.gen_bool(0.35).then(|| CONDITIONS[rng.gen_range(0..CONDITIONS.len())]);
    (format!("o{n}"), kind, bounds, rng.gen_range(-2..3), condition)
}

/// A seeded scene, state and base frame: two scenarios of up to ten
/// objects each, assets keyed on palette colours or opaque, frames from
/// 1×1 to 40×30, and the avatar anywhere around the frame.
fn scene(seed: u64) -> (GameSession, Frame) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = SceneGraph::new();
    g.add_npc(Npc::new("guide", DialogueTree::single_line("Hello.")));
    g.add_npc(Npc::new("hermit", DialogueTree::single_line("...")));
    for name in &ASSETS[..3] {
        let (w, h) = (rng.gen_range(1..16), rng.gen_range(1..16));
        let img = image(&mut rng, w, h);
        let asset = match rng.gen_range(0..3) {
            0 => ImageAsset::opaque(*name, img),
            _ => ImageAsset::keyed(*name, img, PALETTE[rng.gen_range(0..3usize)]),
        };
        g.assets_mut().insert(asset);
    }
    for s in 0..2 {
        let id = g.add_scenario(format!("s{s}"), SegmentId(s)).expect("fresh name");
        let scenario = g.scenario_mut(id).expect("just added");
        for n in 0..rng.gen_range(0..11) {
            let (name, kind, bounds, z, condition) = object(&mut rng, n);
            let oid = scenario.add_object(name, kind, bounds).expect("fresh name");
            let o = scenario.object_mut(oid).expect("just added");
            o.z = z;
            o.visible_when = condition.map(|c| vgbl_script::parse_expr(c).expect("valid"));
        }
    }
    let (w, h) = if rng.gen_bool(0.2) {
        (rng.gen_range(1..4), rng.gen_range(1..4))
    } else {
        (rng.gen_range(1..41), rng.gen_range(1..31))
    };
    let mut state = GameState::new(format!("s{}", rng.gen_range(0..2)));
    state.set_flag("a", rng.gen_bool(0.5));
    state.score = rng.gen_range(0..5);
    state.avatar = (rng.gen_range(-3..w as i32 + 3), rng.gen_range(-3..h as i32 + 3));
    let mut inventory = Inventory::new();
    if rng.gen_bool(0.5) {
        inventory.add("key");
    }
    let session = GameSession::restore(Arc::new(g), SessionConfig::for_frame(w, h), state, inventory)
        .expect("the state's scenario exists");
    let base = image(&mut rng, w, h);
    (session, base)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn compose_matches_oracle_on_random_scenes(seed in any::<u64>()) {
        let (session, base) = scene(seed);
        let live = compose_frame(&session, &base).map_err(|e| e.to_string());
        let oracle = compose(&session, &base).map_err(|e| e.to_string());
        prop_assert_eq!(live, oracle);
    }
}
